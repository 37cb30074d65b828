//! Wire round-trip property tests for [`XpMsg`]: every message variant
//! must decode back to itself from its canonical encoding, over arbitrary
//! batched payloads — including the empty batch and the max-size batch the
//! batching tentpole allows — so length-prefix bugs in `qsel-types::encode`
//! surface here rather than in a live cluster.

use proptest::prelude::*;
use qsel::messages::UpdateRow;
use qsel_mmr::{leaf_hash, Mmr};
use qsel_types::crypto::{sha256, Keychain};
use qsel_types::encode::{decode_from_slice, encode_to_vec};
use qsel_types::CheckpointPayload;
use qsel_types::{ClusterConfig, Epoch, ProcessId};
use qsel_xpaxos::messages::{
    Batch, CheckpointCert, CommitPayload, CompactEntry, DecidedEntry, HeartbeatPayload,
    NewViewPayload, PreparePayload, Reply, Request, ViewChangePayload, XpMsg,
};

/// Builds one of every `XpMsg` variant from the given batch contents.
fn all_variants(view: u64, slot: u64, reqs: Vec<Request>) -> Vec<XpMsg> {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let chain = Keychain::new(&cfg, 42);
    let leader = chain.signer(ProcessId(1));
    let follower = chain.signer(ProcessId(2));
    let batch = Batch::new(reqs.clone());
    let prepare = leader.sign(PreparePayload {
        view,
        slot,
        batch: batch.clone(),
    });
    let commit = follower.sign(CommitPayload {
        view,
        slot,
        digest: batch.digest(),
        prepare: prepare.clone(),
    });
    let (ckpt_votes, compact_entries) = mmr_fixture(&chain, view, &batch);
    vec![
        XpMsg::Request(reqs.first().cloned().unwrap_or(Request {
            client: ProcessId(9),
            op: 0,
            payload: 0,
        })),
        XpMsg::Prepare(prepare.clone()),
        XpMsg::Commit(commit.clone()),
        XpMsg::Reply(Reply {
            view,
            op: slot,
            result: slot.wrapping_mul(3),
        }),
        XpMsg::ViewChange(follower.sign(ViewChangePayload {
            target_view: view + 1,
            watermark: slot,
            prepared: vec![prepare.clone()],
        })),
        XpMsg::NewView(leader.sign(NewViewPayload {
            view: view + 1,
            base: slot,
            reproposals: vec![prepare.clone()],
        })),
        XpMsg::Update(leader.sign(UpdateRow {
            row: vec![Epoch(0), Epoch(view), Epoch(1), Epoch(slot)],
        })),
        XpMsg::Heartbeat(leader.sign(HeartbeatPayload { seq: slot })),
        XpMsg::LazyUpdate {
            entries: vec![DecidedEntry {
                prepare: prepare.clone(),
                commits: vec![commit],
            }],
        },
        XpMsg::StateFetch {
            from_slot: slot,
            to_slot: slot + 7,
        },
        XpMsg::StateBatch {
            entries: vec![DecidedEntry {
                prepare,
                commits: vec![],
            }],
        },
        XpMsg::Checkpoint(ckpt_votes[0].clone()),
        XpMsg::SyncQuery { watermark: slot },
        XpMsg::SyncInfo {
            checkpoint: Some(CheckpointCert { sigs: ckpt_votes }),
            archive_from: slot / 2,
            frontier: slot + 3,
        },
        XpMsg::SyncInfo {
            checkpoint: None,
            archive_from: 0,
            frontier: slot,
        },
        XpMsg::SyncFetch {
            from_slot: slot,
            to_slot: slot + 5,
            proof_slot: slot + 9,
        },
        XpMsg::SyncChunk {
            entries: compact_entries,
            proof_slot: slot + 9,
        },
    ]
}

/// A real 3-leaf MMR over the batch digest: genuine inclusion proofs and
/// peaks, so the checkpoint/sync variants round-trip production-shaped
/// payloads rather than hand-rolled placeholder bytes.
fn mmr_fixture(
    chain: &Keychain,
    view: u64,
    batch: &Batch,
) -> (
    Vec<qsel_xpaxos::messages::SignedCheckpoint>,
    Vec<CompactEntry>,
) {
    let mut mmr = Mmr::new();
    for leaf_slot in 0..3u64 {
        mmr.push(leaf_hash(leaf_slot, &batch.digest()));
    }
    let payload = CheckpointPayload {
        slot: 3,
        state: view.wrapping_mul(7),
        peaks: mmr.peaks().unwrap(),
    };
    let votes = vec![
        chain.signer(ProcessId(1)).sign(payload.clone()),
        chain.signer(ProcessId(2)).sign(payload),
    ];
    let entries = (0..3u64)
        .map(|leaf_slot| CompactEntry {
            slot: leaf_slot,
            batch: batch.clone(),
            proof: mmr.proof_at(leaf_slot, 3).unwrap(),
        })
        .collect();
    (votes, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary batched payloads (sizes 0..=32) round-trip through every
    /// message variant.
    #[test]
    fn every_variant_roundtrips_over_arbitrary_batches(
        view in 0u64..1_000,
        slot in 0u64..1_000_000,
        raw in proptest::collection::vec(
            (1u32..100, 0u64..10_000, 0u64..u64::MAX),
            0..33
        ),
    ) {
        let reqs: Vec<Request> = raw
            .into_iter()
            .map(|(client, op, payload)| Request {
                client: ProcessId(client),
                op,
                payload,
            })
            .collect();
        for msg in all_variants(view, slot, reqs) {
            let bytes = encode_to_vec(&msg);
            let back: XpMsg = decode_from_slice(&bytes)
                .unwrap_or_else(|e| panic!("decode failed for {msg:?}: {e}"));
            // A decoded batch carries the digest of its own bytes (the
            // digest is recomputed at decode, never read from the wire).
            let decoded_batch = match &back {
                XpMsg::Prepare(sp) => Some(&sp.payload.batch),
                XpMsg::Commit(sc) => Some(&sc.payload.prepare.payload.batch),
                XpMsg::SyncChunk { entries, .. } => entries.first().map(|e| &e.batch),
                _ => None,
            };
            if let Some(batch) = decoded_batch {
                prop_assert_eq!(batch.digest(), sha256(&encode_to_vec(batch)));
            }
            prop_assert_eq!(back, msg);
        }
    }

    /// Truncating an encoded message at any byte is rejected, never a
    /// panic or a bogus success.
    #[test]
    fn truncation_is_always_rejected(
        cut_denominator in 1u64..=97,
        raw in proptest::collection::vec(
            (1u32..100, 0u64..10_000, 0u64..u64::MAX),
            0..9
        ),
    ) {
        let reqs: Vec<Request> = raw
            .into_iter()
            .map(|(client, op, payload)| Request {
                client: ProcessId(client),
                op,
                payload,
            })
            .collect();
        for msg in all_variants(3, 17, reqs) {
            let bytes = encode_to_vec(&msg);
            // A deterministic sample of cut points per case keeps runtime
            // sane; the explicit edge cuts always run.
            let mut cuts = vec![0, bytes.len() / 2, bytes.len() - 1];
            cuts.push((bytes.len() as u64 % cut_denominator) as usize);
            cuts.retain(|c| *c < bytes.len());
            for cut in cuts {
                let r: Result<XpMsg, _> = decode_from_slice(&bytes[..cut]);
                prop_assert!(r.is_err(), "truncation to {cut} bytes accepted");
            }
        }
    }
}

/// The two batch-size extremes the tentpole allows, explicitly.
#[test]
fn empty_and_max_batches_roundtrip() {
    let empty: Vec<Request> = vec![];
    let max: Vec<Request> = (0..32)
        .map(|i| Request {
            client: ProcessId(100 + i),
            op: u64::from(i),
            payload: u64::MAX - u64::from(i),
        })
        .collect();
    for reqs in [empty, max] {
        for msg in all_variants(0, 0, reqs) {
            let bytes = encode_to_vec(&msg);
            let back: XpMsg = decode_from_slice(&bytes).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }
}

/// A forged length prefix claiming a giant batch must fail fast (the
/// reader's length-sanity check), not attempt the allocation.
#[test]
fn forged_batch_length_is_rejected_without_allocating() {
    let batch = Batch::new(vec![]);
    let mut bytes = encode_to_vec(&batch);
    // Layout: 4-byte "BTCH" tag, then the u64 request count.
    assert_eq!(&bytes[..4], b"BTCH");
    bytes[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
    let r: Result<Batch, _> = decode_from_slice(&bytes);
    assert!(r.is_err(), "forged length accepted");
}

fn fixed_requests() -> Vec<Request> {
    (0..3)
        .map(|i| Request {
            client: ProcessId(10 + i),
            op: u64::from(i) * 7,
            payload: 0xABCD_0000 + u64::from(i),
        })
        .collect()
}

/// `(kind, encoded length, SHA-256 of the encoding)` of every message
/// `all_variants(3, 17, fixed_requests())` builds, computed at the commit
/// before `Batch` shared its requests and memoized its digest.
const PINNED_WIRE: &[(&str, usize, &str)] = &[
    (
        "request",
        25,
        "7d6430c763d4cf95af1163abc1470153a230e513ddf2e7c8c730864828ec3824",
    ),
    (
        "prepare",
        141,
        "ae3eb0fadd63d7d5a4729e4ba2ee9b851f5dd48e887ac5c3b375f46f3c956107",
    ),
    (
        "commit",
        229,
        "21af499a9a1be3ef19ab895ca9a57c1b52bf937b603a5950301e9235c9a626f8",
    ),
    (
        "reply",
        25,
        "327d81e49c53e15c09c9947f99755ab1607ae00b946d7bbe5f3b1162ca330db6",
    ),
    (
        "view-change",
        205,
        "edb5d4d0ae1a5c6c86fdb5a2d1c40f9d3a9ace748f2688036cc46494f53b4fe0",
    ),
    (
        "new-view",
        205,
        "e06c19cca59276236bea8abc809dccf57de468017fd891414df8a766b82e8f4c",
    ),
    (
        "update",
        81,
        "b722b19d11dd24ae269f76e6b78140bff660082f038509d39e0a463814464b0f",
    ),
    (
        "heartbeat",
        49,
        "025c117a740ad8ea8eb47ea92553104edfe65327ecc205762420dae8d507d738",
    ),
    (
        "lazy-update",
        389,
        "ec079f913f0efebbcd8a174cf53b5160454049dffb826450b19d95cfb671ca25",
    ),
    (
        "state-fetch",
        17,
        "c82a64c48848b5f6a03a5518b05aa468e07412c1374dc013eb30cba902642f85",
    ),
    (
        "state-batch",
        161,
        "06c18f25901a07d5db5365912eeee9002653f5eb2d267b6b833159f9d9b72960",
    ),
    (
        "checkpoint",
        129,
        "21ada19c282f56222cdb7e77bd28a53d62c0471e40821babd6455e643cd4b4d2",
    ),
    (
        "sync-query",
        9,
        "d09f1e618674c45e24fe3359a31c0be90b381fda9dbc33561fd89b52108668b9",
    ),
    (
        "sync-info",
        286,
        "759e67f0e8294dffd506a2422868a0ec8a02566961a54e31300562eb06a3499b",
    ),
    (
        "sync-info",
        18,
        "0ba26595d7b70b38eb07e64234c4894eba3a10bfe8bac64247841bf64be4fae3",
    ),
    (
        "sync-fetch",
        25,
        "0126ed7df94490968b0576a22ac78229c1d0c3fe852bc81638d9198c6c8d2b00",
    ),
    (
        "sync-chunk",
        597,
        "15f004bd5af839fc26cf1d3c24f3b792724cfbc0358bf1ace6a5bbc603a1b571",
    ),
];

/// Sharing the requests and memoizing the digest are in-memory changes
/// only: every variant still encodes to the bytes it had before.
#[test]
fn encodings_are_byte_identical_to_the_pinned_wire_format() {
    let msgs = all_variants(3, 17, fixed_requests());
    assert_eq!(msgs.len(), PINNED_WIRE.len());
    for (msg, (kind, len, hash)) in msgs.iter().zip(PINNED_WIRE) {
        let bytes = encode_to_vec(msg);
        assert_eq!(msg.kind(), *kind);
        assert_eq!(bytes.len(), *len, "{kind}");
        assert_eq!(sha256(&bytes).to_string(), *hash, "{kind}");
    }
}

/// `Batch` equality is content equality: separately built batches over
/// equal requests are equal (and digest alike), clones are equal, and one
/// differing payload bit makes them differ.
#[test]
fn batch_equality_is_by_content() {
    let a = Batch::new(fixed_requests());
    let b = Batch::new(fixed_requests());
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a, a.clone());
    let mut other = fixed_requests();
    other[2].payload ^= 1;
    let c = Batch::new(other);
    assert_ne!(a, c);
    assert_ne!(a.digest(), c.digest());
    assert_ne!(a, Batch::new(fixed_requests()[..2].to_vec()));
}
