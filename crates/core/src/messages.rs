//! Wire messages of the quorum-selection and follower-selection protocols.

use qsel_types::encode::{Decode, DecodeError, Encode, Reader};
use qsel_types::{Epoch, ProcessId, Signed};

/// Consumes a 4-byte domain-separation tag, rejecting a mismatch.
fn expect_tag(r: &mut Reader<'_>, tag: &[u8; 4]) -> Result<(), DecodeError> {
    let got = r.take(4)?;
    if got == tag {
        Ok(())
    } else {
        Err(DecodeError::BadTag(got[0]))
    }
}

/// Payload of an `⟨UPDATE, suspected[i]⟩_σ` message (Algorithm 1 line 15):
/// one row of the `suspected` matrix, i.e. the epochs in which the signer
/// last suspected each process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateRow {
    /// `row[k]` = last epoch in which the signer suspected `p_{k+1}`.
    pub row: Vec<Epoch>,
}

impl UpdateRow {
    /// Validates shape against the cluster size.
    pub fn is_valid_for(&self, n: u32) -> bool {
        self.row.len() == n as usize
    }
}

impl Encode for UpdateRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"UPDT");
        self.row.encode(buf);
    }
}

impl Decode for UpdateRow {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"UPDT")?;
        Ok(UpdateRow {
            row: Vec::decode(r)?,
        })
    }
}

/// A signed UPDATE message. Forwarded verbatim by receivers whose state it
/// changed, so all correct processes converge on the same matrix.
pub type SignedUpdate = Signed<UpdateRow>;

/// Payload of a `⟨FOLLOWERS, Fw, L, e⟩_σ` message (Algorithm 2 line 26).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FollowersPayload {
    /// The selected followers `Fw` (must be `q − 1` distinct processes,
    /// excluding the leader — Definition 3 a).
    pub followers: Vec<ProcessId>,
    /// The line subgraph `L` the leader derived its choice from, as an
    /// edge list (Definition 3 b–d are checked against it).
    pub line_edges: Vec<(ProcessId, ProcessId)>,
    /// The epoch in which the leader computed the quorum.
    pub epoch: Epoch,
}

impl Encode for FollowersPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"FLWR");
        self.followers.encode(buf);
        self.line_edges.encode(buf);
        self.epoch.encode(buf);
    }
}

impl Decode for FollowersPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"FLWR")?;
        Ok(FollowersPayload {
            followers: Vec::decode(r)?,
            line_edges: Vec::decode(r)?,
            epoch: Epoch::decode(r)?,
        })
    }
}

/// A signed FOLLOWERS message.
pub type SignedFollowers = Signed<FollowersPayload>;

#[cfg(test)]
#[expect(
    clippy::disallowed_fields,
    reason = "S1 binds production code, and tests read and tamper with payloads to build fixtures and forgeries"
)]
mod tests {
    use super::*;
    use qsel_types::crypto::Keychain;
    use qsel_types::ClusterConfig;

    #[test]
    fn update_row_validation() {
        let u = UpdateRow {
            row: vec![Epoch(0), Epoch(2), Epoch(1)],
        };
        assert!(u.is_valid_for(3));
        assert!(!u.is_valid_for(4));
    }

    #[test]
    fn signed_update_roundtrip() {
        let cfg = ClusterConfig::new(3, 1).unwrap();
        let chain = Keychain::new(&cfg, 5);
        let msg = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(1)],
        });
        assert!(chain.verifier().verify(&msg).is_ok());
        // Tampering with a cell breaks the signature.
        let mut bad = msg.clone();
        bad.payload.row[0] = Epoch(9);
        assert!(chain.verifier().verify(&bad).is_err());
    }

    #[test]
    fn followers_payload_distinct_encodings() {
        use qsel_types::encode::encode_to_vec;
        let a = FollowersPayload {
            followers: vec![ProcessId(2), ProcessId(3)],
            line_edges: vec![],
            epoch: Epoch(1),
        };
        let mut b = a.clone();
        b.epoch = Epoch(2);
        assert_ne!(encode_to_vec(&a), encode_to_vec(&b));
        let mut c = a.clone();
        c.followers = vec![ProcessId(3), ProcessId(2)];
        assert_ne!(encode_to_vec(&a), encode_to_vec(&c));
    }
}
