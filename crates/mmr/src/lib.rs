//! A Merkle mountain range (MMR) over the committed command log.
//!
//! An MMR is an append-only forest of perfect binary hash trees
//! ("mountains"): leaf `i` carries the digest of the batch executed at
//! slot `i`, and the mountains at leaf count `L` correspond exactly to the
//! set bits of `L` (one perfect tree of height `h` per set bit `2^h`,
//! tallest first). The *root* at size `L` is a hash over `L` and the
//! mountain peaks ("bagging the peaks").
//!
//! Two properties make this the right authenticator for incremental state
//! transfer:
//!
//! 1. **Append-only stability** — appending leaves never rewrites an
//!    existing interior node, so a proof generated against the root at any
//!    *historical* size `L' ≤ L` is still computable from the current
//!    forest ([`Mmr::proof_at`]).
//! 2. **O(log n) resumability** — the peaks at size `L` (of which there
//!    are `popcount(L)`, at most 64) are enough to verify the root, and
//!    [`Mmr::from_peaks`] rebuilds an MMR from them that keeps accepting
//!    appends. A replica that installs a checkpoint therefore carries
//!    `O(log n)` digests, not the whole history.
//!
//! A recovering replica holding a checkpoint certificate for root `R` at
//! size `L` verifies each transferred `(slot, batch)` pair with
//! [`verify`] before applying it: the leaf digest is recomputed from the
//! received bytes ([`leaf_hash`]), so a tampered batch, a wrong slot, or a
//! forged proof all fail against `R`.
//!
//! All hashing is domain-separated (`qsel-mmr-leaf` / `qsel-mmr-node` /
//! `qsel-mmr-root`) so leaves, interior nodes, and roots can never be
//! confused for one another.
//!
//! # Example
//!
//! ```
//! use qsel_mmr::{leaf_hash, verify, Mmr};
//! use qsel_types::crypto::sha256;
//!
//! let mut mmr = Mmr::new();
//! for slot in 0..10u64 {
//!     mmr.push(leaf_hash(slot, &sha256(&slot.to_le_bytes())));
//! }
//! let root = mmr.root().unwrap();
//! let proof = mmr.proof_at(3, 10).unwrap();
//! assert!(verify(&leaf_hash(3, &sha256(&3u64.to_le_bytes())), &proof, &root));
//! ```

#![warn(missing_docs)]
// S2: protocol code returns typed errors instead of panicking. A
// deliberate panic carries `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::BTreeMap;
use std::fmt;

use qsel_types::crypto::{Digest, Sha256};
use qsel_types::encode::{Decode, DecodeError, Encode, Reader};

/// Digest of one log entry: the leaf for `slot` carrying `batch_digest`.
///
/// Both the prover (a transfer donor) and the verifier (the recovering
/// replica) compute leaves with this function, so the proof binds the slot
/// number *and* the batch content.
pub fn leaf_hash(slot: u64, batch_digest: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"qsel-mmr-leaf");
    h.update(&slot.to_le_bytes());
    h.update(batch_digest.as_bytes());
    h.finalize()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"qsel-mmr-node");
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

fn bag_peaks(leaf_count: u64, peaks: &[Digest]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"qsel-mmr-root");
    h.update(&leaf_count.to_le_bytes());
    for p in peaks {
        h.update(p.as_bytes());
    }
    h.finalize()
}

/// The perfect trees composing an MMR of `leaf_count` leaves: one
/// `(height, first_leaf)` pair per set bit of `leaf_count`, tallest first.
/// Each mountain of height `h` starts at a multiple of `2^h` (its start is
/// a sum of strictly larger powers of two), which is what makes plain
/// binary index arithmetic valid inside a mountain.
fn mountains(leaf_count: u64) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    let mut start = 0u64;
    for h in (0..64u32).rev() {
        let size = 1u64 << h;
        if leaf_count & size != 0 {
            out.push((h, start));
            start += size;
        }
    }
    out
}

/// Why an MMR operation could not be served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MmrError {
    /// The requested leaf index is not below the requested size.
    LeafOutOfRange {
        /// The requested leaf.
        leaf_index: u64,
        /// The size the proof was requested against.
        leaf_count: u64,
    },
    /// A historical size larger than the current forest was requested.
    SizeOutOfRange {
        /// The requested size.
        requested: u64,
        /// Leaves actually present.
        have: u64,
    },
    /// The forest does not hold the nodes needed (it was resumed from
    /// peaks and the request reaches below the resume point).
    MissingNodes {
        /// First leaf for which full subtree data exists.
        base_leaf: u64,
    },
    /// `from_peaks` was given the wrong number of peaks for the size.
    PeakCountMismatch {
        /// Peaks the size's bit pattern requires.
        expected: usize,
        /// Peaks supplied.
        got: usize,
    },
}

impl fmt::Display for MmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmrError::LeafOutOfRange {
                leaf_index,
                leaf_count,
            } => write!(f, "leaf {leaf_index} out of range for size {leaf_count}"),
            MmrError::SizeOutOfRange { requested, have } => {
                write!(f, "size {requested} exceeds forest size {have}")
            }
            MmrError::MissingNodes { base_leaf } => {
                write!(f, "forest resumed at leaf {base_leaf}; older nodes absent")
            }
            MmrError::PeakCountMismatch { expected, got } => {
                write!(f, "expected {expected} peaks, got {got}")
            }
        }
    }
}

impl std::error::Error for MmrError {}

/// An inclusion proof: leaf `leaf_index` is in the MMR whose root was
/// computed at size `leaf_count`.
///
/// `siblings` are the proof path bottom-up inside the containing mountain;
/// `peaks_before`/`peaks_after` are the other mountains' peaks in order.
/// The verifier recomputes everything else (mountain layout, hashing
/// directions) from `leaf_index` and `leaf_count`, so no field of a forged
/// proof can steer it off the certified root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MmrProof {
    /// The proved leaf's index (== the slot number).
    pub leaf_index: u64,
    /// The MMR size the proof is valid against.
    pub leaf_count: u64,
    /// Sibling digests, leaf level upward.
    pub siblings: Vec<Digest>,
    /// Peaks of mountains left of the containing one, tallest first.
    pub peaks_before: Vec<Digest>,
    /// Peaks of mountains right of the containing one.
    pub peaks_after: Vec<Digest>,
}

impl Encode for MmrProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"MMRP");
        self.leaf_index.encode(buf);
        self.leaf_count.encode(buf);
        self.siblings.encode(buf);
        self.peaks_before.encode(buf);
        self.peaks_after.encode(buf);
    }
}

impl Decode for MmrProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.take(4)?;
        if tag != b"MMRP" {
            return Err(DecodeError::BadTag(tag[0]));
        }
        Ok(MmrProof {
            leaf_index: u64::decode(r)?,
            leaf_count: u64::decode(r)?,
            siblings: Vec::decode(r)?,
            peaks_before: Vec::decode(r)?,
            peaks_after: Vec::decode(r)?,
        })
    }
}

/// Verifies that `leaf` (a [`leaf_hash`]) is included in the MMR with root
/// `expected_root` at size `proof.leaf_count`.
///
/// Pure function of its arguments — callers hold only the certified root.
pub fn verify(leaf: &Digest, proof: &MmrProof, expected_root: &Digest) -> bool {
    let ms = mountains(proof.leaf_count);
    let Some(pos) = ms
        .iter()
        .position(|&(h, s)| proof.leaf_index >= s && proof.leaf_index - s < (1u64 << h))
    else {
        return false;
    };
    let (height, _) = ms[pos];
    if proof.siblings.len() != height as usize
        || proof.peaks_before.len() != pos
        || proof.peaks_after.len() != ms.len() - pos - 1
    {
        return false;
    }
    let mut cur = *leaf;
    let mut idx = proof.leaf_index;
    for sib in &proof.siblings {
        cur = if idx & 1 == 1 {
            node_hash(sib, &cur)
        } else {
            node_hash(&cur, sib)
        };
        idx >>= 1;
    }
    let mut peaks = proof.peaks_before.clone();
    peaks.push(cur);
    peaks.extend_from_slice(&proof.peaks_after);
    bag_peaks(proof.leaf_count, &peaks) == *expected_root
}

/// Computes the root for a bare `(leaf_count, peaks)` pair — what a
/// checkpoint certificate carries — without building a forest.
pub fn root_of_peaks(leaf_count: u64, peaks: &[Digest]) -> Digest {
    bag_peaks(leaf_count, peaks)
}

/// The append-only forest.
///
/// Nodes are stored per level: `levels[h]` maps the node index `i` at
/// height `h` to the digest of the perfect subtree covering leaves
/// `[i·2^h, (i+1)·2^h)`. A forest built leaf-by-leaf from zero holds every
/// node and can prove any leaf at any historical size; one resumed via
/// [`Mmr::from_peaks`] holds only the seed peaks below `base_leaf` and
/// serves proofs only for sizes/leaves it has full data for.
#[derive(Clone, Debug, Default)]
pub struct Mmr {
    leaf_count: u64,
    base_leaf: u64,
    levels: Vec<BTreeMap<u64, Digest>>,
}

impl Mmr {
    /// An empty forest.
    pub fn new() -> Self {
        Mmr::default()
    }

    /// Leaves appended so far (== the next leaf index).
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// First leaf for which full subtree data exists (0 unless resumed).
    pub fn base_leaf(&self) -> u64 {
        self.base_leaf
    }

    fn level_mut(&mut self, h: usize) -> &mut BTreeMap<u64, Digest> {
        while self.levels.len() <= h {
            self.levels.push(BTreeMap::new());
        }
        &mut self.levels[h]
    }

    fn node(&self, h: u32, i: u64) -> Option<Digest> {
        self.levels.get(h as usize)?.get(&i).copied()
    }

    /// Appends a leaf digest and returns its leaf index.
    pub fn push(&mut self, leaf: Digest) -> u64 {
        let idx = self.leaf_count;
        self.level_mut(0).insert(idx, leaf);
        let mut cur = leaf;
        let mut i = idx;
        let mut h = 0u32;
        // A parent completes exactly when the new node is a right child
        // and its left sibling exists (it always does in a from-zero
        // forest; in a resumed forest the seed peaks play the part).
        while i & 1 == 1 {
            let Some(sib) = self.node(h, i - 1) else {
                break;
            };
            cur = node_hash(&sib, &cur);
            self.level_mut(h as usize + 1).insert(i >> 1, cur);
            i >>= 1;
            h += 1;
        }
        self.leaf_count = idx + 1;
        idx
    }

    /// Resumes a forest from the peaks of a checkpoint at `leaf_count`.
    ///
    /// The result accepts further [`push`](Mmr::push)es and computes roots,
    /// but cannot prove leaves below `leaf_count` ([`MmrError::MissingNodes`]).
    ///
    /// # Errors
    ///
    /// [`MmrError::PeakCountMismatch`] if `peaks` does not match the bit
    /// pattern of `leaf_count`.
    pub fn from_peaks(leaf_count: u64, peaks: &[Digest]) -> Result<Self, MmrError> {
        let ms = mountains(leaf_count);
        if ms.len() != peaks.len() {
            return Err(MmrError::PeakCountMismatch {
                expected: ms.len(),
                got: peaks.len(),
            });
        }
        let mut mmr = Mmr {
            leaf_count,
            base_leaf: leaf_count,
            levels: Vec::new(),
        };
        for (&(h, start), d) in ms.iter().zip(peaks) {
            mmr.level_mut(h as usize).insert(start >> h, *d);
        }
        Ok(mmr)
    }

    /// The peaks at a historical size `leaf_count`, tallest mountain first.
    ///
    /// # Errors
    ///
    /// [`MmrError::SizeOutOfRange`] for future sizes;
    /// [`MmrError::MissingNodes`] if the forest was resumed and a peak of
    /// the requested size predates the resume point. (Peaks at the resume
    /// size itself are always available — they are the seed.)
    pub fn peaks_at(&self, leaf_count: u64) -> Result<Vec<Digest>, MmrError> {
        if leaf_count > self.leaf_count {
            return Err(MmrError::SizeOutOfRange {
                requested: leaf_count,
                have: self.leaf_count,
            });
        }
        mountains(leaf_count)
            .iter()
            .map(|&(h, start)| {
                self.node(h, start >> h).ok_or(MmrError::MissingNodes {
                    base_leaf: self.base_leaf,
                })
            })
            .collect()
    }

    /// The current peaks.
    ///
    /// # Errors
    ///
    /// [`MmrError::MissingNodes`] only in the resumed-forest corner cases
    /// described at [`Mmr::peaks_at`].
    pub fn peaks(&self) -> Result<Vec<Digest>, MmrError> {
        self.peaks_at(self.leaf_count)
    }

    /// The root at a historical size.
    ///
    /// # Errors
    ///
    /// As [`Mmr::peaks_at`].
    pub fn root_at(&self, leaf_count: u64) -> Result<Digest, MmrError> {
        Ok(bag_peaks(leaf_count, &self.peaks_at(leaf_count)?))
    }

    /// The current root.
    ///
    /// # Errors
    ///
    /// As [`Mmr::peaks`].
    pub fn root(&self) -> Result<Digest, MmrError> {
        self.root_at(self.leaf_count)
    }

    /// Builds an inclusion proof for `leaf_index` against the root at the
    /// (possibly historical) size `leaf_count`.
    ///
    /// # Errors
    ///
    /// [`MmrError::LeafOutOfRange`] / [`MmrError::SizeOutOfRange`] for
    /// out-of-range requests, [`MmrError::MissingNodes`] when the forest
    /// was resumed above the needed nodes.
    pub fn proof_at(&self, leaf_index: u64, leaf_count: u64) -> Result<MmrProof, MmrError> {
        if leaf_count > self.leaf_count {
            return Err(MmrError::SizeOutOfRange {
                requested: leaf_count,
                have: self.leaf_count,
            });
        }
        let ms = mountains(leaf_count);
        let Some(pos) = ms
            .iter()
            .position(|&(h, s)| leaf_index >= s && leaf_index - s < (1u64 << h))
        else {
            return Err(MmrError::LeafOutOfRange {
                leaf_index,
                leaf_count,
            });
        };
        let missing = MmrError::MissingNodes {
            base_leaf: self.base_leaf,
        };
        let (height, _) = ms[pos];
        let mut siblings = Vec::with_capacity(height as usize);
        let mut i = leaf_index;
        for h in 0..height {
            siblings.push(self.node(h, i ^ 1).ok_or(missing)?);
            i >>= 1;
        }
        let peak_of = |&(h, start): &(u32, u64)| self.node(h, start >> h).ok_or(missing);
        Ok(MmrProof {
            leaf_index,
            leaf_count,
            siblings,
            peaks_before: ms[..pos].iter().map(peak_of).collect::<Result<_, _>>()?,
            peaks_after: ms[pos + 1..]
                .iter()
                .map(peak_of)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsel_types::crypto::sha256;
    use qsel_types::encode::{decode_from_slice, encode_to_vec};

    fn leaf(i: u64) -> Digest {
        leaf_hash(i, &sha256(&i.to_le_bytes()))
    }

    fn built(n: u64) -> Mmr {
        let mut mmr = Mmr::new();
        for i in 0..n {
            assert_eq!(mmr.push(leaf(i)), i);
        }
        mmr
    }

    #[test]
    fn mountain_layout_matches_bit_pattern() {
        assert_eq!(mountains(0), vec![]);
        assert_eq!(mountains(1), vec![(0, 0)]);
        assert_eq!(mountains(6), vec![(2, 0), (1, 4)]);
        assert_eq!(mountains(11), vec![(3, 0), (1, 8), (0, 10)]);
    }

    #[test]
    fn every_leaf_proves_at_every_size() {
        let mmr = built(13);
        for size in 1..=13u64 {
            let root = mmr.root_at(size).unwrap();
            for i in 0..size {
                let proof = mmr.proof_at(i, size).unwrap();
                assert!(verify(&leaf(i), &proof, &root), "leaf {i} at size {size}");
            }
        }
    }

    #[test]
    fn wrong_leaf_slot_or_root_fails() {
        let mmr = built(9);
        let root = mmr.root().unwrap();
        let proof = mmr.proof_at(4, 9).unwrap();
        assert!(verify(&leaf(4), &proof, &root));
        // Tampered content.
        assert!(!verify(&leaf(5), &proof, &root));
        // Content re-bound to a different slot.
        assert!(!verify(
            &leaf_hash(5, &sha256(&4u64.to_le_bytes())),
            &proof,
            &root
        ));
        // Root of a different size.
        assert!(!verify(&leaf(4), &proof, &mmr.root_at(8).unwrap()));
    }

    #[test]
    fn malformed_proofs_are_rejected_not_panicked() {
        let mmr = built(9);
        let root = mmr.root().unwrap();
        let good = mmr.proof_at(4, 9).unwrap();
        for tamper in [
            MmrProof {
                leaf_index: 20,
                ..good.clone()
            },
            MmrProof {
                leaf_count: 0,
                ..good.clone()
            },
            MmrProof {
                siblings: vec![],
                ..good.clone()
            },
            MmrProof {
                peaks_before: good.peaks_after.clone(),
                ..good.clone()
            },
        ] {
            assert!(!verify(&leaf(4), &tamper, &root));
        }
    }

    #[test]
    fn out_of_range_requests_error() {
        let mmr = built(5);
        assert!(matches!(
            mmr.proof_at(7, 5),
            Err(MmrError::LeafOutOfRange { .. })
        ));
        assert!(matches!(
            mmr.proof_at(1, 9),
            Err(MmrError::SizeOutOfRange { .. })
        ));
        assert!(matches!(
            mmr.peaks_at(9),
            Err(MmrError::SizeOutOfRange { .. })
        ));
    }

    #[test]
    fn resumed_forest_continues_the_same_history() {
        let full = built(21);
        let peaks = full.peaks_at(13).unwrap();
        let mut resumed = Mmr::from_peaks(13, &peaks).unwrap();
        assert_eq!(resumed.root_at(13).unwrap(), full.root_at(13).unwrap());
        for i in 13..21 {
            resumed.push(leaf(i));
        }
        assert_eq!(resumed.root().unwrap(), full.root().unwrap());
        // New leaves prove against the shared root; pre-resume leaves
        // cannot be served locally (their subtrees were never held).
        let root = full.root().unwrap();
        let p = resumed.proof_at(16, 21).unwrap();
        assert!(verify(&leaf(16), &p, &root));
        assert!(matches!(
            resumed.proof_at(2, 21),
            Err(MmrError::MissingNodes { .. })
        ));
    }

    #[test]
    fn from_peaks_validates_peak_count() {
        assert!(matches!(
            Mmr::from_peaks(3, &[leaf(0)]),
            Err(MmrError::PeakCountMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn proof_encoding_roundtrips_and_rejects_bad_tag() {
        let mmr = built(11);
        let proof = mmr.proof_at(9, 11).unwrap();
        let bytes = encode_to_vec(&proof);
        assert_eq!(&bytes[..4], b"MMRP");
        let back: MmrProof = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, proof);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_from_slice::<MmrProof>(&bad).is_err());
    }

    #[test]
    fn root_of_peaks_matches_forest_root() {
        let mmr = built(10);
        assert_eq!(
            root_of_peaks(10, &mmr.peaks().unwrap()),
            mmr.root().unwrap()
        );
    }
}
