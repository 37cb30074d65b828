//! A small metrics registry: counters, gauges and fixed-bucket histograms
//! with plain-text and JSON report renderers.
//!
//! All values are integers in simulated units (microseconds, counts), so
//! reports are deterministic: the same run renders the same bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord};
use crate::json::Cursor;

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper edges; a final implicit overflow bucket
/// catches everything above the last bound. Raw samples are retained so
/// quantile queries ([`Histogram::percentile`]) are exact rather than
/// bucket-interpolated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    samples: Vec<u64>,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper edges.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            samples: Vec::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.samples.push(v);
    }

    /// The exact q-th percentile (nearest-rank over retained samples), or
    /// 0 with no samples. `q` is clamped to `1..=100`; bucket edges play
    /// no role, so an all-in-overflow-bucket histogram still answers
    /// exactly.
    pub fn percentile(&self, q: u32) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[nearest_rank_index(sorted.len(), q)]
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample seen, or 0 with no samples.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The summary the JSON snapshot keeps of this histogram (a `u64::MAX`
    /// edge is the overflow bucket, as in [`Histogram::buckets`]).
    fn snapshot(&self) -> HistogramSnapshot {
        let edges = self.bounds.iter().copied().chain(std::iter::once(u64::MAX));
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        HistogramSnapshot {
            count: self.count(),
            min: self.min(),
            mean: self.mean(),
            max: self.max(),
            p50: percentile_sorted(&sorted, 50),
            p90: percentile_sorted(&sorted, 90),
            p99: percentile_sorted(&sorted, 99),
            buckets: edges
                .map(|e| (e != u64::MAX).then_some(e))
                .zip(self.counts.iter().copied())
                .collect(),
        }
    }

    /// `(upper_edge, count)` pairs; the final pair has edge `u64::MAX`
    /// (the overflow bucket).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
            .collect()
    }
}

/// A registry of named counters, gauges and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `v` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        // Looked up first: only a new name is copied into a `String`.
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Reads gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into histogram `name`, creating it with `bounds` on
    /// first use.
    pub fn histogram_record(&mut self, name: &str, bounds: &[u64], v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new(bounds);
            h.record(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Renders a plain-text report (deterministic: names sorted).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<42} {v:>12}");
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}: count={} min={} mean={:.1} p50={} p90={} p99={} max={}",
                h.count(),
                h.min(),
                h.mean(),
                h.percentile(50),
                h.percentile(90),
                h.percentile(99),
                h.max()
            );
            for (edge, c) in h.buckets() {
                if c == 0 {
                    continue;
                }
                if edge == u64::MAX {
                    let _ = writeln!(out, "  le=+inf{:>21}", c);
                } else {
                    let _ = writeln!(out, "  le={edge:<24} {c:>12}");
                }
            }
        }
        out
    }

    /// Renders the registry as a single JSON object (deterministic field
    /// order: names sorted, fixed key order inside each histogram).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        write_scalars(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        write_scalars(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_histogram(&mut out, name, &h.snapshot());
        }
        out.push_str("}}");
        out
    }
}

/// Writes one scalar section's `"name":value` members.
fn write_scalars<V: std::fmt::Display>(out: &mut String, section: &BTreeMap<String, V>) {
    for (i, (name, v)) in section.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
}

/// Writes one member of the histogram section.
fn write_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "\"{name}\":{{\"count\":{},\"min\":{},\"mean\":{:.1},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        h.count, h.min, h.mean, h.max, h.p50, h.p90, h.p99
    );
    for (j, (edge, c)) in h.buckets.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        match edge {
            None => {
                let _ = write!(out, "[\"+inf\",{c}]");
            }
            Some(e) => {
                let _ = write!(out, "[{e},{c}]");
            }
        }
    }
    out.push_str("]}");
}

/// Nearest-rank index into a sorted sample set of size `n` for the q-th
/// percentile: `ceil(q/100 * n) - 1`, with `q` clamped to `1..=100`.
fn nearest_rank_index(n: usize, q: u32) -> usize {
    let q = q.clamp(1, 100) as usize;
    // ceil(q * n / 100), at least 1, at most n.
    let rank = (q * n).div_ceil(100).max(1);
    rank - 1
}

/// The exact q-th percentile (nearest rank) of an already-sorted slice,
/// or 0 when empty.
pub fn percentile_sorted(sorted: &[u64], q: u32) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[nearest_rank_index(sorted.len(), q)]
    }
}

/// A parsed [`MetricsRegistry::render_json`] histogram: the summary
/// statistics and bucket layout, without the raw samples (which the JSON
/// snapshot intentionally omits).
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 with no samples).
    pub min: u64,
    /// Mean sample as rendered (one decimal place).
    pub mean: f64,
    /// Largest sample (0 with no samples).
    pub max: u64,
    /// Exact nearest-rank 50th percentile.
    pub p50: u64,
    /// Exact nearest-rank 90th percentile.
    pub p90: u64,
    /// Exact nearest-rank 99th percentile.
    pub p99: u64,
    /// `(upper_edge, count)` pairs; `None` is the overflow (`+inf`) edge.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// A parsed [`MetricsRegistry::render_json`] document.
///
/// This is the read side of the snapshot format: the league tooling (and
/// tests pinning the format) parse `metrics.json` back into this shape
/// and can re-serialize it byte-identically with
/// [`MetricsSnapshot::render_json`].
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Parses a document produced by [`MetricsRegistry::render_json`].
    ///
    /// # Errors
    ///
    /// Returns a byte-offset message on malformed input, unknown keys, or
    /// missing sections — the snapshot format is pinned exactly, like
    /// `verdict.json`.
    pub fn parse_json(text: &str) -> Result<MetricsSnapshot, String> {
        let mut cur = Cursor::new(text);
        let mut snap = MetricsSnapshot::default();
        let mut seen = [false; 3];
        cur.skip_ws();
        cur.object(|key, cur| match &*key {
            "counters" => {
                seen[0] = true;
                cur.object(|name, cur| {
                    snap.counters.insert(name.into_owned(), cur.parse_u64()?);
                    Ok(())
                })
            }
            "gauges" => {
                seen[1] = true;
                cur.object(|name, cur| {
                    snap.gauges.insert(name.into_owned(), cur.parse_i64()?);
                    Ok(())
                })
            }
            "histograms" => {
                seen[2] = true;
                cur.object(|name, cur| {
                    snap.histograms
                        .insert(name.into_owned(), parse_histogram(cur)?);
                    Ok(())
                })
            }
            other => Err(format!("unknown metrics key {other:?}")),
        })?;
        cur.skip_ws();
        if !cur.at_end() {
            return Err(format!("trailing bytes at {}", cur.pos));
        }
        if !seen.iter().all(|s| *s) {
            return Err("metrics snapshot missing counters, gauges, or histograms".to_string());
        }
        Ok(snap)
    }

    /// Re-serializes in the exact [`MetricsRegistry::render_json`] layout,
    /// so `parse_json(text).render_json() == text` for any rendered
    /// registry.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        write_scalars(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        write_scalars(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_histogram(&mut out, name, h);
        }
        out.push_str("}}");
        out
    }
}

fn parse_histogram(cur: &mut Cursor<'_>) -> Result<HistogramSnapshot, String> {
    let mut h = HistogramSnapshot {
        count: 0,
        min: 0,
        mean: 0.0,
        max: 0,
        p50: 0,
        p90: 0,
        p99: 0,
        buckets: Vec::new(),
    };
    let mut seen: Vec<String> = Vec::new();
    cur.object(|key, cur| {
        match &*key {
            "count" => h.count = cur.parse_u64()?,
            "min" => h.min = cur.parse_u64()?,
            "mean" => h.mean = cur.parse_f64()?,
            "max" => h.max = cur.parse_u64()?,
            "p50" => h.p50 = cur.parse_u64()?,
            "p90" => h.p90 = cur.parse_u64()?,
            "p99" => h.p99 = cur.parse_u64()?,
            "buckets" => cur.array(|cur| {
                cur.expect(b'[')?;
                cur.skip_ws();
                let edge = if cur.peek() == Some(b'"') {
                    let lit = cur.parse_string()?;
                    if lit != "+inf" {
                        return Err(format!("bad bucket edge {lit:?}"));
                    }
                    None
                } else {
                    Some(cur.parse_u64()?)
                };
                cur.skip_ws();
                cur.expect(b',')?;
                cur.skip_ws();
                let c = cur.parse_u64()?;
                cur.skip_ws();
                cur.expect(b']')?;
                h.buckets.push((edge, c));
                Ok(())
            })?,
            other => return Err(format!("unknown histogram key {other:?}")),
        }
        seen.push(key.into_owned());
        Ok(())
    })?;
    for required in ["count", "min", "mean", "max", "p50", "p90", "p99", "buckets"] {
        if !seen.iter().any(|k| k == required) {
            return Err(format!("histogram missing key {required:?}"));
        }
    }
    Ok(h)
}

/// Bucket edges (µs) for commit-latency and view-change-duration
/// histograms: decade-ish steps from 100µs to 10s.
pub const LATENCY_BOUNDS_US: [u64; 10] = [
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 10_000_000,
];

/// Bucket edges for small counts (quorums per epoch).
pub const COUNT_BOUNDS: [u64; 8] = [0, 1, 2, 3, 4, 6, 8, 16];

/// Bucket edges for batch sizes (requests per proposed batch).
pub const BATCH_SIZE_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Derives the standard metric set from a trace:
///
/// * `events.*` counters — one per event kind;
/// * `commit_latency_us` — per-request client-observed commit latency
///   (one sample per client request, even when several requests commit
///   together in a batched slot);
/// * `batch_size` — requests per proposed batch, from leader-side
///   `batch_proposed` events (absent in passthrough/unbatched runs);
/// * `batch.requests_decided` counter — total requests across all
///   `batch_committed` events;
/// * `view_change_duration_us` — per replica, `ViewChangeStart` to the
///   next `ViewInstalled` at a view ≥ the target;
/// * `quorums_per_epoch` — quorums issued per `(process, epoch, algo)`,
///   the Theorem 3 / Theorem 9 quantity;
/// * `retry_backoff_us` — client retransmission intervals.
pub fn standard_metrics(records: &[TraceRecord]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    // Records per event kind; a trace is mostly this loop, so the
    // `events.*` counter names are built once per kind, after it.
    let mut per_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Pending view-change start time per replica.
    let mut vc_start: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    // Quorum issues per (process, epoch, algo).
    let mut per_epoch: BTreeMap<(u32, u64, String), u64> = BTreeMap::new();
    for r in records {
        *per_kind.entry(r.event.name()).or_insert(0) += 1;
        match &r.event {
            TraceEvent::ClientCommit { latency_us, .. } => {
                m.histogram_record("commit_latency_us", &LATENCY_BOUNDS_US, *latency_us);
            }
            TraceEvent::ClientRetry { interval_us, .. } => {
                m.histogram_record("retry_backoff_us", &LATENCY_BOUNDS_US, *interval_us);
            }
            TraceEvent::ViewChangeStart { p, target } => {
                // Keep the earliest start of the ongoing change: a replica
                // joining ever-higher targets is still in one outage.
                vc_start.entry(*p).or_insert((r.t, *target));
            }
            TraceEvent::ViewInstalled { p, view } => {
                if let Some((started, target)) = vc_start.get(p).copied() {
                    if *view >= target {
                        vc_start.remove(p);
                        m.histogram_record(
                            "view_change_duration_us",
                            &LATENCY_BOUNDS_US,
                            r.t.saturating_sub(started),
                        );
                    }
                }
            }
            TraceEvent::QuorumIssued { p, epoch, algo, .. } => {
                *per_epoch.entry((*p, *epoch, algo.clone())).or_insert(0) += 1;
            }
            TraceEvent::BatchProposed { size, .. } => {
                m.histogram_record("batch_size", &BATCH_SIZE_BOUNDS, *size);
            }
            TraceEvent::BatchCommitted { size, .. } => {
                m.counter_add("batch.requests_decided", *size);
            }
            _ => {}
        }
    }
    for (kind, count) in per_kind {
        m.counter_add(&format!("events.{kind}"), count);
    }
    for count in per_epoch.values() {
        m.histogram_record("quorums_per_epoch", &COUNT_BOUNDS, *count);
    }
    m.gauge_set("trace.records", records.len() as i64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 10, 11, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 1000);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (10, 2)); // 5 and 10 (inclusive edge)
        assert_eq!(buckets[1], (100, 1)); // 11
        assert_eq!(buckets[2], (u64::MAX, 1)); // 1000 overflows
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn registry_renders_deterministically() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b", 2);
        m.counter_add("a", 1);
        m.gauge_set("g", -3);
        m.histogram_record("h", &[10], 4);
        let text1 = m.render_text();
        let json1 = m.render_json();
        assert_eq!(text1, m.render_text());
        assert_eq!(json1, m.render_json());
        assert!(text1.find("  a").unwrap() < text1.find("  b").unwrap());
        assert!(json1.starts_with("{\"counters\":{\"a\":1,\"b\":2}"));
    }

    #[test]
    fn standard_metrics_pairs_view_changes() {
        let records = vec![
            TraceRecord {
                seq: 0,
                t: 100,
                event: TraceEvent::ViewChangeStart { p: 1, target: 3 },
            },
            TraceRecord {
                seq: 1,
                t: 150,
                event: TraceEvent::ViewChangeStart { p: 1, target: 4 },
            },
            TraceRecord {
                seq: 2,
                t: 600,
                event: TraceEvent::ViewInstalled { p: 1, view: 4 },
            },
            TraceRecord {
                seq: 3,
                t: 700,
                event: TraceEvent::ClientCommit {
                    client: 5,
                    op: 0,
                    latency_us: 250,
                },
            },
        ];
        let m = standard_metrics(&records);
        let h = m.histogram("view_change_duration_us").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 500, "duration from the first start of the outage");
        assert_eq!(m.counter("events.client_commit"), 1);
        assert_eq!(m.histogram("commit_latency_us").unwrap().count(), 1);
    }

    /// The `events.*` counters against counting them the way it was done
    /// before the per-kind tally — one formatted name and one bump per
    /// record — on a trace holding every event kind, some more than once.
    #[test]
    fn standard_metrics_counts_every_kind_like_a_per_record_bump() {
        let mut events = crate::event::samples();
        events.extend((1..=3).map(|at| TraceEvent::TimerFired { at }));
        events.extend((0..2).map(|op| TraceEvent::ClientCommit {
            client: 9,
            op,
            latency_us: 400 + op,
        }));
        events.push(TraceEvent::BatchCommitted {
            p: 1,
            slot: 0,
            size: 0,
            digest: 0,
        });
        let records: Vec<TraceRecord> = events
            .into_iter()
            .zip(0..)
            .map(|(event, seq)| TraceRecord { seq, t: seq, event })
            .collect();
        let mut naive = MetricsRegistry::new();
        for r in &records {
            naive.counter_add(&format!("events.{}", r.event.name()), 1);
        }
        naive.counter_add("batch.requests_decided", u64::MAX);
        let m = standard_metrics(&records);
        assert_eq!(m.counters, naive.counters);
        assert_eq!(m.counters.len(), crate::event::samples().len() + 1);
        assert_eq!(m.counter("events.timer_fired"), 4);
        assert_eq!(m.counter("events.client_commit"), 3);
        assert_eq!(m.gauge("trace.records"), records.len() as i64);
        assert_eq!(m.histogram("commit_latency_us").unwrap().count(), 3);
    }

    #[test]
    fn standard_metrics_tracks_batches() {
        let records = vec![
            TraceRecord {
                seq: 0,
                t: 10,
                event: TraceEvent::BatchProposed {
                    p: 1,
                    slot: 0,
                    size: 4,
                },
            },
            TraceRecord {
                seq: 1,
                t: 20,
                event: TraceEvent::BatchCommitted {
                    p: 1,
                    slot: 0,
                    size: 4,
                    digest: 0xD,
                },
            },
            TraceRecord {
                seq: 2,
                t: 21,
                event: TraceEvent::BatchCommitted {
                    p: 2,
                    slot: 0,
                    size: 4,
                    digest: 0xD,
                },
            },
        ];
        let m = standard_metrics(&records);
        let h = m.histogram("batch_size").unwrap();
        assert_eq!(h.count(), 1, "one proposed batch");
        assert_eq!(h.max(), 4);
        assert_eq!(m.counter("batch.requests_decided"), 8);
        assert_eq!(m.counter("events.batch_committed"), 2);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = Histogram::new(&[10, 100]);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50), 50);
        assert_eq!(h.percentile(90), 90);
        assert_eq!(h.percentile(99), 99);
        assert_eq!(h.percentile(100), 100);
        assert_eq!(h.percentile(1), 1);
    }

    #[test]
    fn percentile_single_sample() {
        let mut h = Histogram::new(&[10]);
        h.record(7);
        for q in [1, 50, 90, 99, 100] {
            assert_eq!(h.percentile(q), 7, "q={q}");
        }
    }

    #[test]
    fn percentile_all_in_overflow_bucket() {
        // Every sample lands above the last edge; bucket counts alone
        // could only answer "> 10", the retained samples answer exactly.
        let mut h = Histogram::new(&[10]);
        for v in [1_000, 2_000, 3_000, 4_000] {
            h.record(v);
        }
        assert_eq!(h.buckets()[1], (u64::MAX, 4));
        assert_eq!(h.percentile(50), 2_000);
        assert_eq!(h.percentile(99), 4_000);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.percentile(99), 0);
    }

    #[test]
    fn percentile_sorted_helper() {
        assert_eq!(percentile_sorted(&[], 99), 0);
        assert_eq!(percentile_sorted(&[5], 50), 5);
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 50), 5);
        assert_eq!(percentile_sorted(&v, 90), 9);
        assert_eq!(percentile_sorted(&v, 99), 10);
    }

    #[test]
    fn snapshot_roundtrips_render_json_exactly() {
        let mut m = MetricsRegistry::new();
        m.counter_add("events.prepare", 41);
        m.counter_add("batch.requests_decided", 12);
        m.gauge_set("trace.records", 512);
        m.gauge_set("negative", -7);
        m.gauge_set("lowest", i64::MIN);
        m.gauge_set("highest", i64::MAX);
        for v in [50, 150, 2_000_000] {
            m.histogram_record("commit_latency_us", &LATENCY_BOUNDS_US, v);
        }
        let text = m.render_json();
        let snap = MetricsSnapshot::parse_json(&text).expect("parse");
        assert_eq!(snap.counters.get("events.prepare"), Some(&41));
        assert_eq!(snap.gauges.get("negative"), Some(&-7));
        assert_eq!(snap.gauges.get("lowest"), Some(&i64::MIN));
        assert_eq!(snap.gauges.get("highest"), Some(&i64::MAX));
        let h = &snap.histograms["commit_latency_us"];
        assert_eq!(h.count, 3);
        assert_eq!(h.p50, 150);
        assert_eq!(h.p99, 2_000_000);
        // Canonical: reparse + re-render is byte-identical.
        assert_eq!(snap.render_json(), text);
    }

    #[test]
    fn snapshot_rejects_unknown_keys() {
        let err = MetricsSnapshot::parse_json("{\"counters\":{},\"gauges\":{},\"bogus\":{}}")
            .expect_err("unknown key must fail");
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn snapshot_rejects_gauges_one_past_the_i64_range() {
        for gauge in ["-9223372036854775809", "9223372036854775808"] {
            let text = format!("{{\"counters\":{{}},\"gauges\":{{\"g\":{gauge}}},\"histograms\":{{}}}}");
            let err = MetricsSnapshot::parse_json(&text).expect_err("out of range must fail");
            assert!(err.contains("number overflow"), "{gauge}: {err}");
        }
    }

    #[test]
    fn snapshot_golden_format_is_pinned() {
        // A hand-written golden pins the on-disk snapshot grammar: if
        // render_json changes shape, this fails loudly (like verdict.json).
        let golden = "{\"counters\":{\"c\":1},\"gauges\":{\"g\":-2},\"histograms\":{\
                      \"h\":{\"count\":1,\"min\":4,\"mean\":4.0,\"max\":4,\
                      \"p50\":4,\"p90\":4,\"p99\":4,\"buckets\":[[10,1],[\"+inf\",0]]}}}";
        let snap = MetricsSnapshot::parse_json(golden).expect("golden parses");
        assert_eq!(snap.render_json(), golden);
        let mut m = MetricsRegistry::new();
        m.counter_add("c", 1);
        m.gauge_set("g", -2);
        m.histogram_record("h", &[10], 4);
        assert_eq!(m.render_json(), golden, "registry render matches golden");
    }

    #[test]
    fn standard_metrics_counts_quorums_per_epoch() {
        let q = |seq, epoch| TraceRecord {
            seq,
            t: seq,
            event: TraceEvent::QuorumIssued {
                p: 1,
                epoch,
                algo: "qs".into(),
                members: vec![1, 2, 3],
            },
        };
        let m = standard_metrics(&[q(0, 1), q(1, 1), q(2, 2)]);
        let h = m.histogram("quorums_per_epoch").unwrap();
        assert_eq!(h.count(), 2, "two (process, epoch) groups");
        assert_eq!(h.max(), 2);
    }
}
