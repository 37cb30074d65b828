//! A replica skips the signature check of an embedded PREPARE only when
//! it equals — signer, tag and every payload byte — the PREPARE it already
//! verified and stored for that slot. Anything else is verified in full,
//! and a forged one still raises `⟨DETECTED⟩` against the COMMIT's sender.

#![expect(
    clippy::disallowed_fields,
    reason = "S1 binds production code, and tests read and tamper with payloads to build fixtures and forgeries"
)]

use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{SimDuration, SimTime};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};
use qsel_xpaxos::messages::{Batch, CommitPayload, PreparePayload, SignedPrepare, XpMsg};

/// Runs a 4-replica cluster until p2 holds verified PREPAREs, then hands
/// p2 a COMMIT that p3 signed around `embed(stored PREPARE of slot 1,
/// keychain)`. Returns how many times p2 raised DETECTED against p3, and
/// whether p2 now holds a PREPARE for the embedded one's slot.
fn deliver_commit_embedding(
    embed: impl FnOnce(&SignedPrepare, &Keychain) -> SignedPrepare,
) -> (usize, bool) {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let (p2, p3) = (ProcessId(2), ProcessId(3));
    let sink = TraceSink::unbounded();
    let builder = ClusterBuilder::new(cfg, 17)
        .clients(1, 3)
        .trace_sink(sink.clone());
    let chain = builder.keychain();
    let mut sim = builder.build();
    sim.run_until(SimTime::from_micros(50_000));
    assert_eq!(total_committed(&sim), 3);
    let log = sim.actor(p2).replica().unwrap().log();
    let stored = log.prepare_at(1).expect("slot 1 prepared at p2").clone();
    let prepare = embed(&stored, &chain);
    let slot = prepare.payload.slot;
    let commit = chain.signer(p3).sign(CommitPayload {
        view: prepare.payload.view,
        slot,
        digest: prepare.payload.batch.digest(),
        prepare,
    });
    sim.inject_at(sim.now(), p3, p2, XpMsg::Commit(commit));
    sim.run_until(sim.now() + SimDuration::micros(1));
    let detections = sink
        .records()
        .iter()
        .filter(|r| r.event == TraceEvent::DetectionRaised { p: 2, against: 3 })
        .count();
    let holds = sim
        .actor(p2)
        .replica()
        .unwrap()
        .log()
        .prepare_at(slot)
        .is_some();
    (detections, holds)
}

#[test]
fn commit_embedding_the_stored_prepare_is_accepted() {
    assert_eq!(
        deliver_commit_embedding(|stored, _| stored.clone()),
        (0, true)
    );
}

#[test]
fn embedded_prepare_differing_in_tag_only_is_detected() {
    let (detections, _) = deliver_commit_embedding(|stored, chain| {
        let mut forged = stored.clone();
        // A genuine leader tag, but over another payload.
        forged.tag = chain
            .signer(stored.signer)
            .sign(PreparePayload {
                slot: stored.payload.slot + 1,
                ..stored.payload.clone()
            })
            .tag;
        forged
    });
    assert_eq!(detections, 1);
}

#[test]
fn embedded_prepare_differing_in_one_payload_bit_is_detected() {
    let (detections, _) = deliver_commit_embedding(|stored, _| {
        let mut reqs = stored.payload.batch.reqs().to_vec();
        reqs[0].payload ^= 1;
        let mut forged = stored.clone();
        forged.payload.batch = Batch::new(reqs);
        forged
    });
    assert_eq!(detections, 1);
}

#[test]
fn embedded_prepare_for_a_slot_with_no_stored_prepare_is_verified_in_full() {
    let unknown_slot = |stored: &SignedPrepare, chain: &Keychain| {
        chain.signer(stored.signer).sign(PreparePayload {
            slot: 40,
            ..stored.payload.clone()
        })
    };
    // Genuine: admitted (the COMMIT overtook its PREPARE, Fig. 3).
    assert_eq!(deliver_commit_embedding(unknown_slot), (0, true));
    // Forged: nothing stored to compare with, so `verify` rejects it.
    let (detections, holds) = deliver_commit_embedding(|stored, chain| {
        let mut forged = unknown_slot(stored, chain);
        forged.tag = stored.tag;
        forged
    });
    assert_eq!((detections, holds), (1, false));
}
