//! Per-layer unit costs: each probe times calls into one crate's public
//! functions, on inputs shaped like the workload's (cluster size, batch
//! size) or on fixed ones. A probe reports the median over
//! [`SAMPLES`] passes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qsel::messages::UpdateRow;
use qsel::{QuorumSelection, SuspectMatrix};
use qsel_detector::{FailureDetector, FdConfig};
use qsel_graph::SuspectGraph;
use qsel_mmr::{leaf_hash, Mmr};
use qsel_obs::{TraceEvent, TraceSink};
use qsel_scenario::{compile_plan, parse, Scenario};
use qsel_simnet::{Actor, Context, SimConfig, SimDuration, SimTime, Simulation, TimerId};
use qsel_types::crypto::{sha256, Keychain};
use qsel_types::encode::{decode_from_slice, encode_to_vec};
use qsel_types::{ClusterConfig, Epoch, ProcessId};
use qsel_xpaxos::log::Log;
use qsel_xpaxos::messages::{Batch, CommitPayload, PreparePayload, Request, XpMsg};

use crate::stats::median;

const SAMPLES: usize = 9;
/// Target length of one timed pass of a calibrated probe.
const PASS: Duration = Duration::from_millis(4);

/// Median over [`SAMPLES`] passes of `pass() = (time, items)`, in ns/item.
fn ns_per_item(mut pass: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (t, items) = pass();
            t.as_nanos() as f64 / items as f64
        })
        .collect();
    median(&mut samples)
}

/// ns per call of `f`, the call count per pass sized so a pass lasts about
/// [`PASS`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        (0..calls).for_each(|_| f());
        if t.elapsed() >= PASS / 4 || calls >= 1 << 24 {
            break;
        }
        calls *= 4;
    }
    ns_per_item(|| {
        let t = Instant::now();
        (0..calls).for_each(|_| f());
        (t.elapsed(), calls)
    })
}

/// SplitMix64: the probes' only randomness, so inputs depend on nothing
/// but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The suspect edges of the graph/matrix probes on `n` nodes with
/// `f = (n-1)/3`: `f` disjoint edges among the highest ids, then a chain
/// of `f` edges below them. No independent set of size `n - f` exists, so
/// `first_independent_set` searches exhaustively — the epoch-change case,
/// and the one whose cost explodes with `n` (about 0.1 s at n = 64; other
/// labellings of the same shape take seconds).
fn suspect_edges(n: u32) -> Vec<(u32, u32)> {
    let f = (n - 1) / 3;
    let disjoint = (0..f).map(|i| (n - 2 * i, n - 2 * i - 1));
    let chain = (0..f).map(|j| (n - 2 * f - j, n - 2 * f - j - 1));
    disjoint.chain(chain).collect()
}

fn suspect_matrix(n: u32, epoch: Epoch) -> SuspectMatrix {
    let mut m = SuspectMatrix::new(n);
    for (a, b) in suspect_edges(n) {
        m.stamp(ProcessId(a), ProcessId(b), epoch);
    }
    m
}

fn requests(count: u64, first_op: u64) -> Vec<Request> {
    (0..count)
        .map(|i| Request {
            client: ProcessId(1000 + (i % 32) as u32),
            op: first_op + i,
            payload: (first_op + i) * 31,
        })
        .collect()
}

struct Ticker {
    next: ProcessId,
}

impl Actor<u8> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        ctx.set_timer(SimDuration::micros(10), TimerId(0));
    }
    fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, u8>, timer: TimerId) {
        ctx.send(self.next, 0);
        ctx.set_timer(SimDuration::micros(10), timer);
    }
}

/// Runs every probe; `out(name, value)` receives each metric once.
/// `sc` shapes the inputs (cluster and batch size), `sources` are the
/// workload's scenario files, `seed` keys the signatures and the update
/// churn.
pub fn run(sc: &Scenario, sources: &[String], seed: u64, out: &mut dyn FnMut(&str, f64)) {
    let cfg = ClusterConfig::new(sc.cluster.n, sc.cluster.f).expect("scenario validated");
    let chain = Keychain::new(&cfg, seed);
    let verifier = chain.verifier();
    let leader = chain.signer(ProcessId(1));
    let batch_size = sc.batch.max_size.max(1);

    // bench: a fixed integer loop; a noisy or slow machine shows here first.
    out(
        "bench.calibration_ns",
        ns_per_call(|| {
            let mut x = black_box(0x9E37_79B9u64);
            for i in 0..1000u64 {
                x = x.rotate_left(5) ^ x.wrapping_mul(0x100_0000_01B3).wrapping_add(i);
            }
            black_box(x);
        }),
    );

    // simnet: event throughput with actors that do nothing but re-arm a
    // timer and send one message per firing.
    let events_per_s = {
        const ACTORS: u32 = 8;
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let actors = (1..=ACTORS).map(|i| Ticker {
                    next: ProcessId(i % ACTORS + 1),
                });
                let mut sim = Simulation::new(SimConfig::new(ACTORS, seed), actors.collect());
                let t = Instant::now();
                sim.run_until(SimTime::from_micros(100_000));
                let events = sim.stats().timers_fired + sim.stats().messages_delivered;
                events as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        median(&mut samples)
    };
    out("simnet.events_per_s", events_per_s);

    // types
    let block = vec![0xA5u8; 64 * 1024];
    let sha_ns = ns_per_call(|| {
        black_box(sha256(black_box(&block)));
    });
    out(
        "types.sha256_mb_per_s",
        block.len() as f64 / sha_ns * 1e9 / 1e6,
    );
    let prepare_payload = PreparePayload {
        view: 0,
        slot: 7,
        batch: Batch::new(requests(batch_size, 0)),
    };
    out(
        "types.sign_ns",
        ns_per_call(|| {
            black_box(leader.sign(black_box(prepare_payload.clone())));
        }) - ns_per_call(|| {
            black_box(black_box(&prepare_payload).clone());
        }),
    );
    let prepare = leader.sign(prepare_payload.clone());
    out(
        "types.verify_ns",
        ns_per_call(|| {
            black_box(verifier.verify(black_box(&prepare))).expect("own signature verifies");
        }),
    );
    // A COMMIT embeds the leader's PREPARE, so it is the message that
    // carries the batch most often.
    let commit = XpMsg::Commit(chain.signer(ProcessId(2)).sign(CommitPayload {
        view: 0,
        slot: 7,
        digest: prepare_payload.batch.digest(),
        prepare: prepare.clone(),
    }));
    let wire = encode_to_vec(&commit);
    out(
        "types.encode_ns_per_msg",
        ns_per_call(|| {
            black_box(encode_to_vec(black_box(&commit)));
        }),
    );
    out(
        "types.decode_ns_per_msg",
        ns_per_call(|| {
            black_box(decode_from_slice::<XpMsg>(black_box(&wire))).expect("round trip");
        }),
    );

    // xpaxos
    out(
        "xpaxos.batch_digest_ns",
        ns_per_call(|| {
            black_box(black_box(&prepare_payload.batch).digest());
        }),
    );
    let (slot_ns, gc_ns) = log_probe(&cfg, &chain, batch_size, sc.checkpoint.interval);
    out("xpaxos.log_slot_ns", slot_ns);
    out("xpaxos.log_gc_ns_per_slot", gc_ns);

    // detector: one expectation issued and met, and one poll, each with a
    // pipeline's worth of other expectations outstanding.
    let backlog = |fd: &mut FailureDetector<u64>| {
        for i in 0..8u64 {
            fd.expect(SimTime::ZERO, ProcessId(3), "backlog", move |m| {
                *m == u64::MAX - i
            });
        }
    };
    let mut fd = FailureDetector::<u64>::new(ProcessId(1), cfg.n(), FdConfig::default());
    backlog(&mut fd);
    let mut i = 0u64;
    out(
        "detector.expect_receive_ns",
        ns_per_call(|| {
            i += 1;
            let want = i;
            fd.expect(SimTime::ZERO, ProcessId(2), "probe", move |m| *m == want);
            black_box(fd.on_receive(SimTime::ZERO, ProcessId(2), want));
        }),
    );
    out(
        "detector.poll_ns",
        ns_per_call(|| {
            black_box(fd.poll(SimTime::from_micros(1)));
        }),
    );

    // core and graph, at the workloads' n = 7 and at the parked large-n sizes
    for n in [7u32, 32, 64] {
        let edges = suspect_edges(n);
        let graph = SuspectGraph::from_edges(n, &edges);
        let q = n - (n - 1) / 3;
        out(
            &format!("graph.first_independent_set_ns.n{n}"),
            ns_per_call(|| {
                black_box(black_box(&graph).first_independent_set(q));
            }),
        );
        out(
            &format!("graph.maximal_line_subgraph_ns.n{n}"),
            ns_per_call(|| {
                black_box(black_box(&graph).maximal_line_subgraph());
            }),
        );
        if n == 32 {
            continue;
        }
        // Merging a matrix that holds nothing new — the common case of
        // gossip — still compares every cell.
        let theirs = suspect_matrix(n, Epoch::initial());
        let mut ours = suspect_matrix(n, Epoch::initial().next());
        out(
            &format!("core.matrix_merge_ns.n{n}"),
            ns_per_call(|| {
                black_box(ours.merge(black_box(&theirs)));
            }),
        );
        out(
            &format!("core.build_graph_ns.n{n}"),
            ns_per_call(|| {
                black_box(black_box(&ours).build_graph(Epoch::initial()));
            }),
        );
    }
    out("core.on_update_ns.n7", on_update_probe(seed));

    // mmr, at 4096 leaves
    const LEAVES: u64 = 4096;
    let digest = sha256(b"batch");
    let leaves: Vec<_> = (0..LEAVES).map(|s| leaf_hash(s, &digest)).collect();
    out(
        "mmr.push_ns",
        ns_per_item(|| {
            let mut mmr = Mmr::new();
            let t = Instant::now();
            for leaf in &leaves {
                mmr.push(*leaf);
            }
            black_box(&mmr);
            (t.elapsed(), LEAVES)
        }),
    );
    let mut mmr = Mmr::new();
    for leaf in &leaves {
        mmr.push(*leaf);
    }
    let root = mmr.root().expect("nothing pruned");
    let mut at = 0u64;
    out(
        "mmr.proof_ns",
        ns_per_call(|| {
            at = (at + 613) % LEAVES;
            black_box(mmr.proof_at(at, LEAVES)).expect("leaf retained");
        }),
    );
    let proof = mmr.proof_at(1234, LEAVES).expect("leaf retained");
    out(
        "mmr.verify_ns",
        ns_per_call(|| {
            assert!(qsel_mmr::verify(
                black_box(&leaves[1234]),
                black_box(&proof),
                &root
            ));
        }),
    );

    // obs: the cost of an emission point, sink off and on.
    let event = || TraceEvent::TimerFired { at: 1 };
    let disabled = TraceSink::disabled();
    out(
        "obs.emit_disabled_ns",
        ns_per_call(|| black_box(&disabled).emit(event)),
    );
    let ring = TraceSink::ring(1024);
    out(
        "obs.emit_enabled_ns",
        ns_per_call(|| black_box(&ring).emit(event)),
    );

    // scenario: text to validated spec to fault plan, all input files.
    out(
        "scenario.parse_compile_ns",
        ns_per_call(|| {
            for text in sources {
                let sc = parse(black_box(text)).expect("frozen input parses");
                sc.validate().expect("frozen input validates");
                black_box(compile_plan(&sc));
            }
        }),
    );
}

/// `Log` through one slot's life — accept the PREPARE, record the other
/// members' COMMITs, decide, execute — and then compaction, per slot.
fn log_probe(cfg: &ClusterConfig, chain: &Keychain, batch_size: u64, interval: u64) -> (f64, f64) {
    const SLOTS: u64 = 256;
    let members = cfg.default_quorum_members();
    let (leader, me) = (members[0], members[1]);
    let quorum = qsel_types::Quorum::initial(cfg);
    let signed: Vec<_> = (0..SLOTS)
        .map(|slot| {
            let batch = Batch::new(requests(batch_size, slot * batch_size));
            let digest = batch.digest();
            let prepare = chain.signer(leader).sign(PreparePayload {
                view: 0,
                slot,
                batch,
            });
            let commits: Vec<_> = members[2..]
                .iter()
                .map(|p| {
                    chain.signer(*p).sign(CommitPayload {
                        view: 0,
                        slot,
                        digest,
                        prepare: prepare.clone(),
                    })
                })
                .collect();
            (prepare, commits)
        })
        .collect();
    let mut gc_samples = Vec::new();
    let slot_ns = ns_per_item(|| {
        let input = signed.clone();
        let mut log = Log::new();
        log.set_checkpoint_interval(interval);
        let t = Instant::now();
        for (slot, (prepare, commits)) in input.into_iter().enumerate() {
            let slot = slot as u64;
            assert!(log.accept_prepare(prepare));
            log.mark_committed_by_us(slot);
            for c in commits {
                assert!(log.record_commit(slot, c));
            }
            assert!(log.try_decide(slot, quorum.members(), leader, me));
            black_box(log.execute_ready());
        }
        let filled = t.elapsed();
        let t = Instant::now();
        assert_eq!(log.gc_below(SLOTS, SLOTS / 4) as u64, SLOTS);
        gc_samples.push(t.elapsed().as_nanos() as f64 / SLOTS as f64);
        (filled, SLOTS)
    });
    (slot_ns, median(&mut gc_samples))
}

/// `QuorumSelection::on_update` at n = 7, f = 2 under churn: each signed
/// row suspects one more peer in a later epoch, so every call merges,
/// forwards and re-selects.
fn on_update_probe(seed: u64) -> f64 {
    const UPDATES: u64 = 512;
    let cfg = ClusterConfig::new(7, 2).expect("valid shape");
    let chain = Keychain::new(&cfg, seed);
    let mut rng = SplitMix(seed);
    let updates: Vec<_> = (0..UPDATES)
        .map(|i| {
            let signer = ProcessId(2 + (rng.next() % 6) as u32);
            let mut row = vec![Epoch::NEVER; 7];
            row[(rng.next() % 7) as usize] = Epoch(1 + i / 8);
            chain.signer(signer).sign(UpdateRow { row })
        })
        .collect();
    ns_per_item(|| {
        let me = ProcessId(1);
        let mut qs = QuorumSelection::new(cfg, me, chain.signer(me), chain.verifier());
        let input = updates.clone();
        let t = Instant::now();
        for u in input {
            black_box(qs.on_update(u));
        }
        (t.elapsed(), UPDATES)
    })
}
