//! Wire round-trip property tests for [`XpMsg`]: every message variant
//! must decode back to itself from its canonical encoding, over arbitrary
//! batched payloads — including the empty batch and the max-size batch the
//! batching tentpole allows — so length-prefix bugs in `qsel-types::encode`
//! surface here rather than in a live cluster.

#![expect(
    clippy::disallowed_fields,
    reason = "S1 binds production code, and tests read and tamper with payloads to build fixtures and forgeries"
)]

use proptest::prelude::*;
use qsel::messages::UpdateRow;
use qsel_mmr::{leaf_hash, Mmr};
use qsel_types::crypto::{sha256, Keychain, SigTag, Verifier};
use qsel_types::encode::{decode_from_slice, encode_to_vec, Encode};
use qsel_types::CheckpointPayload;
use qsel_types::{ClusterConfig, Epoch, ProcessId, Signed};
use qsel_xpaxos::messages::{
    Batch, CheckpointCert, CommitPayload, CompactEntry, DecidedEntry, HeartbeatPayload,
    NewViewPayload, PreparePayload, Reply, Request, SignedPrepare, ViewChangePayload, XpMsg,
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
/// `all_variants(3, 17, fixed_requests())` builds. Signed variants were
/// last regenerated when tags began to cover batches by digest; lengths
/// and every byte outside the tag spans stayed as they were
/// (`wire_pins.py`, EXPERIMENTS.md E-SIGN).
const PINNED_WIRE: &[(&str, usize, &str)] = &[
    (
        "request",
        25,
        "7d6430c763d4cf95af1163abc1470153a230e513ddf2e7c8c730864828ec3824",
    ),
    (
        "prepare",
        141,
        "e5781ea208032199e64a4f012fa3ffbbb0f0cbc990ee99789b61aeeee0d2c62b",
    ),
    (
        "commit",
        229,
        "d23b295027c34d518b773d1ac889734c18e7bf2d1e6745330c0f68287e9de548",
    ),
    (
        "reply",
        25,
        "327d81e49c53e15c09c9947f99755ab1607ae00b946d7bbe5f3b1162ca330db6",
    ),
    (
        "view-change",
        205,
        "c08d43cc3575f70231d35de965a856cfea3baf5ea7daa62cd8324ef4ff708f41",
    ),
    (
        "new-view",
        205,
        "e2a1a5318eb5bc3215c88d94d07c1a6e8b007406b02dc856471253070bef3f54",
    ),
    (
        "update",
        81,
        "5600ae019adeb9d626fa20b0553cd53600d17cbc5053b2d3df9648636dcd7476",
    ),
    (
        "heartbeat",
        49,
        "6803a3ef5b4cdd1ca3608296764a493d1c120ba51b617bf81def5e4ba053c1cc",
    ),
    (
        "lazy-update",
        389,
        "9fd3ef0f8d36888983f951f368ab9902c41943e1c1fd7894bf618fbd9c95da9e",
    ),
    (
        "state-fetch",
        17,
        "c82a64c48848b5f6a03a5518b05aa468e07412c1374dc013eb30cba902642f85",
    ),
    (
        "state-batch",
        161,
        "2933f25177c7d6af3ea64fe207b7c236f457ffed46ddf57346f5448067093da2",
    ),
    (
        "checkpoint",
        129,
        "3c976c089a72ac86a27bcaa616276456477488a1f643823d35750cb17e70153e",
    ),
    (
        "sync-query",
        9,
        "d09f1e618674c45e24fe3359a31c0be90b381fda9dbc33561fd89b52108668b9",
    ),
    (
        "sync-info",
        286,
        "889e9bb225afb48d7814f113652157fccc4b73f5a2d212fc3074923990ad8ae2",
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

/// The wire format is pinned: an encoding change of any variant, or a
/// change of what its signatures cover, fails here.
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

/// Every signature tag `msg` carries, embedded ones included.
fn tags_in(msg: &XpMsg) -> Vec<SigTag> {
    let entry_tags = |entries: &[DecidedEntry]| -> Vec<SigTag> {
        entries
            .iter()
            .flat_map(|e| {
                let commits = e.commits.iter();
                std::iter::once(e.prepare.tag)
                    .chain(commits.flat_map(|c| [c.tag, c.payload.prepare.tag]))
            })
            .collect()
    };
    match msg {
        XpMsg::Prepare(s) => vec![s.tag],
        XpMsg::Commit(s) => vec![s.tag, s.payload.prepare.tag],
        XpMsg::ViewChange(s) => std::iter::once(s.tag)
            .chain(s.payload.prepared.iter().map(|p| p.tag))
            .collect(),
        XpMsg::NewView(s) => std::iter::once(s.tag)
            .chain(s.payload.reproposals.iter().map(|p| p.tag))
            .collect(),
        XpMsg::Update(s) => vec![s.tag],
        XpMsg::Heartbeat(s) => vec![s.tag],
        XpMsg::Checkpoint(s) => vec![s.tag],
        XpMsg::LazyUpdate { entries } | XpMsg::StateBatch { entries } => entry_tags(entries),
        XpMsg::SyncInfo { checkpoint, .. } => checkpoint
            .iter()
            .flat_map(|c| c.sigs.iter().map(|s| s.tag))
            .collect(),
        XpMsg::Request(_)
        | XpMsg::Reply(_)
        | XpMsg::StateFetch { .. }
        | XpMsg::SyncQuery { .. }
        | XpMsg::SyncFetch { .. }
        | XpMsg::SyncChunk { .. } => vec![],
    }
}

/// Prints `wire <kind> <len> <hex> <tag hex>…` for each pinned message.
/// `crates/xpaxos/tests/wire_pins.py` compares two such dumps, e.g. before and after a
/// change of what signatures cover.
#[test]
#[ignore = "prints the pinned messages for crates/xpaxos/tests/wire_pins.py"]
fn dump_pinned_messages() {
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    for msg in all_variants(3, 17, fixed_requests()) {
        let bytes = encode_to_vec(&msg);
        let tags: Vec<String> = tags_in(&msg)
            .iter()
            .map(|t| hex(&encode_to_vec(t)))
            .collect();
        println!(
            "wire {} {} {} {}",
            msg.kind(),
            bytes.len(),
            hex(&bytes),
            tags.join(" ")
        );
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

/// `x` with one change applied.
fn changed<T: Clone>(x: &T, change: impl FnOnce(&mut T)) -> T {
    let mut x = x.clone();
    change(&mut x);
    x
}

/// Every batch that differs from `batch` in one request's client, op or
/// payload, or by one request more or fewer — rebuilt through
/// `Batch::new`, the only way to make a batch.
fn changed_batches(batch: &Batch) -> Vec<Batch> {
    let reqs = batch.reqs().to_vec();
    let mut out = Vec::new();
    for i in 0..reqs.len() {
        out.push(changed(&reqs, |r| r[i].client.0 += 1));
        out.push(changed(&reqs, |r| r[i].op += 1));
        out.push(changed(&reqs, |r| r[i].payload ^= 1));
    }
    out.push(changed(&reqs, |r| r.truncate(r.len().saturating_sub(1))));
    out.push(changed(&reqs, |r| r.push(reqs[0].clone())));
    out.retain(|r| *r != reqs);
    out.into_iter().map(Batch::new).collect()
}

fn changed_tag(tag: SigTag) -> SigTag {
    let mut bytes = encode_to_vec(&tag);
    bytes[31] ^= 1;
    decode_from_slice(&bytes).unwrap()
}

/// `s` with each of `payloads` in place of its payload, then with another
/// signer and with another tag.
fn changed_signed<T: Clone>(s: &Signed<T>, payloads: Vec<T>) -> Vec<Signed<T>> {
    let mut out: Vec<Signed<T>> = payloads
        .into_iter()
        .map(|payload| changed(s, |s| s.payload = payload))
        .collect();
    out.push(changed(s, |s| s.signer.0 += 1));
    out.push(changed(s, |s| s.tag = changed_tag(s.tag)));
    out
}

fn changed_prepares(p: &SignedPrepare) -> Vec<SignedPrepare> {
    let mut payloads = vec![
        changed(&p.payload, |x| x.view += 1),
        changed(&p.payload, |x| x.slot += 1),
    ];
    for batch in changed_batches(&p.payload.batch) {
        payloads.push(changed(&p.payload, |x| x.batch = batch));
    }
    changed_signed(p, payloads)
}

/// A list of signed prepares with each one changed in turn, with one
/// dropped and with one repeated.
fn changed_prepare_lists(ps: &[SignedPrepare]) -> Vec<Vec<SignedPrepare>> {
    let mut out = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        for q in changed_prepares(p) {
            out.push(changed(&ps.to_vec(), |l| l[i] = q));
        }
    }
    out.push(ps[1..].to_vec());
    out.push(changed(&ps.to_vec(), |l| l.push(ps[0].clone())));
    out
}

/// Asserts that `s` verifies and no copy in `copies` does; returns how
/// many copies were checked.
fn rejected_all<T: Encode>(v: &Verifier, s: &Signed<T>, copies: Vec<Signed<T>>) -> usize {
    assert!(v.verify(s).is_ok(), "the untampered message verifies");
    for (i, copy) in copies.iter().enumerate() {
        assert!(v.verify(copy).is_err(), "tampered copy {i} verifies");
    }
    copies.len()
}

/// Changing any one field of a signed message — including a field of a
/// request inside an embedded batch, and the signer or tag of an embedded
/// PREPARE — makes its signature fail, so no sign form leaves a field out.
#[test]
fn every_field_of_every_signed_variant_is_covered_by_its_signature() {
    let v = Keychain::new(&ClusterConfig::new(4, 1).unwrap(), 42).verifier();
    let mut signed_variants = 0;
    for msg in all_variants(3, 17, fixed_requests()) {
        let checked = match &msg {
            XpMsg::Prepare(s) => rejected_all(&v, s, changed_prepares(s)),
            XpMsg::Commit(s) => {
                let mut payloads = vec![
                    changed(&s.payload, |x| x.view += 1),
                    changed(&s.payload, |x| x.slot += 1),
                    changed(&s.payload, |x| x.digest = sha256(b"other")),
                ];
                for p in changed_prepares(&s.payload.prepare) {
                    payloads.push(changed(&s.payload, |x| x.prepare = p));
                }
                rejected_all(&v, s, changed_signed(s, payloads))
            }
            XpMsg::ViewChange(s) => {
                let mut payloads = vec![
                    changed(&s.payload, |x| x.target_view += 1),
                    changed(&s.payload, |x| x.watermark += 1),
                ];
                for l in changed_prepare_lists(&s.payload.prepared) {
                    payloads.push(changed(&s.payload, |x| x.prepared = l));
                }
                rejected_all(&v, s, changed_signed(s, payloads))
            }
            XpMsg::NewView(s) => {
                let mut payloads = vec![
                    changed(&s.payload, |x| x.view += 1),
                    changed(&s.payload, |x| x.base += 1),
                ];
                for l in changed_prepare_lists(&s.payload.reproposals) {
                    payloads.push(changed(&s.payload, |x| x.reproposals = l));
                }
                rejected_all(&v, s, changed_signed(s, payloads))
            }
            XpMsg::Update(s) => {
                let row = &s.payload.row;
                let mut payloads: Vec<_> = (0..row.len())
                    .map(|i| changed(&s.payload, |x| x.row[i].0 += 1))
                    .collect();
                payloads.push(changed(&s.payload, |x| x.row.push(Epoch(0))));
                rejected_all(&v, s, changed_signed(s, payloads))
            }
            XpMsg::Heartbeat(s) => {
                let payloads = vec![changed(&s.payload, |x| x.seq += 1)];
                rejected_all(&v, s, changed_signed(s, payloads))
            }
            XpMsg::Checkpoint(s) => {
                let mut payloads = vec![
                    changed(&s.payload, |x| x.slot += 1),
                    changed(&s.payload, |x| x.state += 1),
                    changed(&s.payload, |x| x.peaks.push(sha256(b"peak"))),
                ];
                for i in 0..s.payload.peaks.len() {
                    payloads.push(changed(&s.payload, |x| x.peaks[i] = sha256(b"peak")));
                }
                rejected_all(&v, s, changed_signed(s, payloads))
            }
            _ => continue,
        };
        assert!(
            checked > 2,
            "{}: only {checked} tampered copies",
            msg.kind()
        );
        signed_variants += 1;
    }
    assert_eq!(signed_variants, 7);
}
