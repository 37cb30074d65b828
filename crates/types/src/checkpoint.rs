//! Checkpoint payloads: the protocol-agnostic content replicas sign when
//! they checkpoint their executed prefix.
//!
//! A checkpoint at slot `s` commits to three things: the number of
//! executed slots (`slot`, so the next slot to execute is `s`), the
//! state-machine fold over that prefix (`state`), and the Merkle mountain
//! range peaks over the executed batch digests (`peaks`). Distinct
//! protocol crates wrap this payload in their own signed wire messages; a
//! checkpoint is *stable* once `f + 1` replicas have signed byte-identical
//! payloads — at least one signer is correct, and correct replicas only
//! sign payloads they computed by executing the prefix themselves.

use crate::crypto::{sha256, Digest};
use crate::encode::{with_encoded, Decode, DecodeError, Encode, Reader};

/// The signed content of a checkpoint. See the [module docs](self).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointPayload {
    /// Executed-prefix length: slots `[0, slot)` are covered.
    pub slot: u64,
    /// The state-machine value after executing the prefix.
    pub state: u64,
    /// MMR peaks over the executed batch digests at size `slot`
    /// (`popcount(slot)` digests — enough to resume the MMR and to verify
    /// inclusion proofs for any covered slot).
    pub peaks: Vec<Digest>,
}

impl CheckpointPayload {
    /// Collision-resistant identity of this checkpoint — what trace
    /// events and cross-replica agreement checks compare.
    pub fn digest(&self) -> Digest {
        with_encoded(self, sha256)
    }
}

impl Encode for CheckpointPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"CKPT");
        self.slot.encode(buf);
        self.state.encode(buf);
        self.peaks.encode(buf);
    }
}

impl Decode for CheckpointPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.take(4)?;
        if tag != b"CKPT" {
            return Err(DecodeError::BadTag(tag[0]));
        }
        Ok(CheckpointPayload {
            slot: u64::decode(r)?,
            state: u64::decode(r)?,
            peaks: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{decode_from_slice, encode_to_vec};

    #[test]
    fn roundtrip_and_digest_injectivity() {
        let a = CheckpointPayload {
            slot: 16,
            state: 0xfeed,
            peaks: vec![sha256(b"p1")],
        };
        let bytes = encode_to_vec(&a);
        assert_eq!(&bytes[..4], b"CKPT");
        assert_eq!(decode_from_slice::<CheckpointPayload>(&bytes), Ok(a.clone()));
        let b = CheckpointPayload { state: 0xbeef, ..a.clone() };
        assert_ne!(a.digest(), b.digest());
    }
}
