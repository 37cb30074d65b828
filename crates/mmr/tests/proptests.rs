//! Property tests for the MMR: inclusion proofs verify for every honest
//! `(leaf, size)` pair and fail under any single tampering — the exact
//! guarantee the state-transfer path leans on when it checks a chunk
//! before applying it.

use proptest::prelude::*;
use qsel_mmr::{leaf_hash, verify, Mmr, MmrProof};
use qsel_types::crypto::sha256;
use qsel_types::encode::{decode_from_slice, encode_to_vec};

fn leaf(i: u64) -> qsel_types::crypto::Digest {
    leaf_hash(i, &sha256(&i.to_le_bytes()))
}

fn built(n: u64) -> Mmr {
    let mut mmr = Mmr::new();
    for i in 0..n {
        mmr.push(leaf(i));
    }
    mmr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every leaf of every forest size proves against the historical root
    /// of any size that contains it.
    #[test]
    fn honest_proofs_verify(n in 1u64..160, picks in proptest::collection::vec((0u64..160, 0u64..160), 1..8)) {
        let mmr = built(n);
        for (i, size) in picks {
            let size = size % n + 1;
            let i = i % size;
            let root = mmr.root_at(size).unwrap();
            let proof = mmr.proof_at(i, size).unwrap();
            prop_assert!(verify(&leaf(i), &proof, &root));
            // Wire round-trip preserves validity.
            let back: MmrProof = decode_from_slice(&encode_to_vec(&proof)).unwrap();
            prop_assert!(verify(&leaf(i), &back, &root));
        }
    }

    /// Flipping one byte anywhere in an encoded proof either fails to
    /// decode or fails to verify — no single corruption survives.
    #[test]
    fn single_byte_forgery_never_verifies(n in 2u64..80, i in 0u64..80, pos_seed in 0usize..4096) {
        let mmr = built(n);
        let i = i % n;
        let root = mmr.root().unwrap();
        let proof = mmr.proof_at(i, n).unwrap();
        let mut bytes = encode_to_vec(&proof);
        let pos = 4 + pos_seed % (bytes.len() - 4); // keep the MMRP tag intact
        bytes[pos] ^= 0x2a;
        if let Ok(forged) = decode_from_slice::<MmrProof>(&bytes) {
            if forged != proof {
                prop_assert!(!verify(&leaf(i), &forged, &root), "forged byte {pos} verified");
            }
        }
    }

    /// A proof for one leaf never verifies another leaf's content, and a
    /// resumed forest agrees with the from-zero forest it checkpointed.
    #[test]
    fn cross_leaf_and_resume_consistency(n in 3u64..120, cut in 1u64..120) {
        let mmr = built(n);
        let cut = cut % n + 1;
        let root = mmr.root().unwrap();
        let p0 = mmr.proof_at(0, n).unwrap();
        prop_assert!(!verify(&leaf(1), &p0, &root));

        let mut resumed = Mmr::from_peaks(cut, &mmr.peaks_at(cut).unwrap()).unwrap();
        for i in cut..n {
            resumed.push(leaf(i));
        }
        prop_assert_eq!(resumed.root().unwrap(), root);
    }
}
