//! Quickstart: drive the Quorum Selection module (Algorithm 1) by hand.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Builds a 5-process cluster tolerating f = 2 faults, feeds failure-
//! detector suspicions into the module of `p1`, and shows how the
//! suspect graph, epochs and the issued quorums evolve — including the
//! Figure 4 scenario where inconsistent suspicions force an epoch change.

use qsel::messages::UpdateRow;
use qsel::{QsOutput, QuorumSelection};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, Epoch, ProcessId, ProcessSet};

fn show(outs: &[QsOutput]) {
    for o in outs {
        match o {
            QsOutput::Quorum(q) => println!("   → issued ⟨QUORUM, {q}⟩"),
            QsOutput::Broadcast(u) => {
                println!("   → broadcast ⟨UPDATE⟩ signed by {}", u.signer)
            }
        }
    }
}

fn main() {
    // A cluster Π = {p1..p5} with f = 2, so quorums have q = 3 members.
    let cfg = ClusterConfig::new(5, 2).expect("valid configuration");
    let chain = Keychain::new(&cfg, 42);
    let mut qs = QuorumSelection::new(
        cfg,
        ProcessId(1),
        chain.signer(ProcessId(1)),
        chain.verifier(),
    );
    println!("initial quorum: {}", qs.current_quorum());

    // The local failure detector suspects p2 (say, a missed heartbeat).
    println!("\np1's failure detector suspects p2:");
    let s: ProcessSet = [ProcessId(2)].into_iter().collect();
    show(&qs.on_suspected(s));
    println!("   suspect graph: {:?}", qs.suspect_graph());

    // A signed UPDATE arrives from p4: it suspects p5.
    println!("\np4 reports suspicion of p5 (signed UPDATE):");
    let update = chain.signer(ProcessId(4)).sign(UpdateRow {
        row: vec![Epoch(0), Epoch(0), Epoch(0), Epoch(0), Epoch(1)],
    });
    show(&qs.on_update(update));
    println!("   suspect graph: {:?}", qs.suspect_graph());
    println!("   current quorum: {}", qs.current_quorum());

    // Pile on suspicions until no independent set of size 3 exists — the
    // module must advance to the next epoch (Algorithm 1 lines 27–29).
    println!("\nInconsistent suspicions force an epoch change:");
    for (signer, target) in [(2u32, 3u32), (3, 4), (2, 4), (3, 1), (5, 1)] {
        let mut row = vec![Epoch(0); 5];
        row[(target - 1) as usize] = Epoch(1);
        let update = chain.signer(ProcessId(signer)).sign(UpdateRow { row });
        let outs = qs.on_update(update);
        if !outs.is_empty() {
            println!("   after ⟨UPDATE⟩ p{signer}→p{target}:");
            show(&outs);
        }
    }
    println!("   epoch is now {}", qs.epoch());
    println!("   suspect graph: {:?}", qs.suspect_graph());
    println!("   final quorum: {}", qs.current_quorum());
    println!(
        "\nstats: {} quorums issued, {} epochs entered, max {} quorums in one epoch",
        qs.stats().quorums_issued,
        qs.stats().epochs_entered,
        qs.stats().max_quorums_in_one_epoch()
    );
}
