//! Property test: the scenario text form is an exact round-trip.
//!
//! For any generated [`Scenario`] — valid or not; the grammar is wider
//! than the semantics — `parse(s.to_toml())` must reproduce `s` exactly,
//! and serializing the reparse must give byte-identical text (the
//! serializer is canonical). All scenario quantities are integers, so
//! there is no float-printing wiggle room to hide behind.

use proptest::collection::vec;
use proptest::prelude::*;

use qsel_adversary::registry::Strategy as AdvStrategy;
use qsel_scenario::{
    parse, Adversary, Algorithm, BatchSpec, CheckpointSpec, Cluster, ExpectSpec, Fault, FaultKind,
    GeoLink, RunSpec, Scenario, Workload, WorkloadMode,
};

fn arb_name() -> impl Strategy<Value = String> {
    vec(0u8..26, 1..=12).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| char::from(b'a' + b))
            .collect::<String>()
    })
}

fn arb_cluster() -> impl Strategy<Value = Cluster> {
    (
        1u32..=2,
        1u32..=3,
        prop_oneof![Just(Algorithm::Qs), Just(Algorithm::Enumeration)],
    )
        .prop_map(|(f, extra, algorithm)| Cluster {
            n: 2 * f + extra,
            f,
            algorithm,
        })
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        1u32..=4,
        1u64..=40,
        prop_oneof![Just(WorkloadMode::Closed), Just(WorkloadMode::Open)],
        1u64..=50_000,
        1u64..=5_000,
        0u64..=10,
    )
        .prop_map(
            |(clients, ops_per_client, mode, retry_us, interarrival_us, tx_cost_us)| Workload {
                clients,
                ops_per_client,
                mode,
                retry_us,
                interarrival_us,
                tx_cost_us,
            },
        )
}

fn arb_batch() -> impl Strategy<Value = BatchSpec> {
    (1u64..=16, 0u64..=1_000, 1u64..=8).prop_map(|(max_size, max_delay_us, pipeline_depth)| {
        BatchSpec {
            max_size,
            max_delay_us,
            pipeline_depth,
        }
    })
}

fn arb_adversary() -> impl Strategy<Value = Adversary> {
    (
        prop_oneof![
            Just(AdvStrategy::None),
            Just(AdvStrategy::Mute),
            Just(AdvStrategy::Equivocate),
            (1u64..=10_000)
                .prop_map(|delay_us| AdvStrategy::Gray { delay_us })
                .boxed(),
        ],
        0u32..=3,
    )
        .prop_map(|(strategy, process)| Adversary { strategy, process })
}

fn arb_endpoints() -> impl Strategy<Value = (u32, u32)> {
    (1u32..=2, 0u32..=1).prop_map(|(a, b)| (a, a + 1 + b))
}

fn arb_link() -> impl Strategy<Value = GeoLink> {
    (
        arb_endpoints(),
        0u64..=1_000,
        0u64..=500,
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|((from, to), min_us, span_us, symmetric)| GeoLink {
            from,
            to,
            min_us,
            max_us: min_us + span_us,
            symmetric,
        })
}

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        vec(1u32..=4, 0..=3).prop_map(FaultKind::Partition).boxed(),
        Just(FaultKind::HealAll).boxed(),
        (1u32..=4).prop_map(FaultKind::Crash).boxed(),
        (1u32..=4).prop_map(FaultKind::Restart).boxed(),
        (1u32..=4).prop_map(FaultKind::Pause).boxed(),
        (1u32..=4).prop_map(FaultKind::Resume).boxed(),
        (arb_endpoints(), 0u64..=1_000, 0u64..=500)
            .prop_map(|((from, to), extra_us, jitter_us)| FaultKind::DegradeLink {
                from,
                to,
                extra_us,
                jitter_us,
            })
            .boxed(),
        arb_endpoints()
            .prop_map(|(from, to)| FaultKind::HealLink { from, to })
            .boxed(),
        arb_endpoints()
            .prop_map(|(from, to)| FaultKind::DropLink { from, to })
            .boxed(),
    ]
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    (0u64..=2_000_000, arb_kind()).prop_map(|(at_us, kind)| Fault { at_us, kind })
}

fn arb_run() -> impl Strategy<Value = RunSpec> {
    (
        0u64..=20_000_000,
        0u32..=1_000,
        prop_oneof![
            Just(None).boxed(),
            (0u64..=2_000_000).prop_map(Some).boxed(),
        ],
    )
        .prop_map(|(settle_us, min_commit_permille, stable_from_us)| RunSpec {
            settle_us,
            min_commit_permille,
            stable_from_us,
        })
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointSpec> {
    (0u64..=1_000, 0u64..=100_000).prop_map(|(interval, archive_retain)| CheckpointSpec {
        interval,
        archive_retain,
    })
}

fn arb_ceiling() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None).boxed(),
        (0u64..=10_000_000).prop_map(Some).boxed(),
    ]
}

fn arb_expect() -> impl Strategy<Value = ExpectSpec> {
    (
        (arb_ceiling(), arb_ceiling(), arb_ceiling()),
        (arb_ceiling(), arb_ceiling(), arb_ceiling()),
        (arb_ceiling(), arb_ceiling(), arb_ceiling()),
    )
        .prop_map(
            |(
                (commit_p50_us, commit_p99_us, client_backoff_p99_us),
                (request_network_p99_us, batch_wait_p99_us, quorum_wait_p99_us),
                (execute_p99_us, reply_p99_us, straggler_gap_p99_us),
            )| ExpectSpec {
                commit_p50_us,
                commit_p99_us,
                client_backoff_p99_us,
                request_network_p99_us,
                batch_wait_p99_us,
                quorum_wait_p99_us,
                execute_p99_us,
                reply_p99_us,
                straggler_gap_p99_us,
            },
        )
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (arb_name(), arb_cluster(), arb_workload()),
        (arb_batch(), arb_checkpoint(), arb_adversary(), arb_run()),
        (
            vec(arb_link(), 0..=4),
            vec(arb_fault(), 0..=6),
            arb_expect(),
        ),
    )
        .prop_map(
            |(
                (name, cluster, workload),
                (batch, checkpoint, adversary, run),
                (links, faults, expect),
            )| Scenario {
                name,
                cluster,
                workload,
                batch,
                checkpoint,
                adversary,
                links,
                faults,
                run,
                expect,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scenario_roundtrips_through_text(sc in arb_scenario()) {
        let text = sc.to_toml();
        let back = parse(&text).expect("canonical form must parse");
        prop_assert_eq!(&back, &sc);
        // Canonical serialization: a second generation is byte-identical.
        prop_assert_eq!(back.to_toml(), text);
    }
}
