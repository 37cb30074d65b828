//! Line-oriented parser for the scenario format.
//!
//! The grammar is a deliberately small TOML subset, read without any
//! external dependency:
//!
//! * full-line comments starting with `#`, and blank lines;
//! * `[section]` headers (`cluster`, `workload`, `batch`, `checkpoint`,
//!   `adversary`, `run`, `expect`) — each may appear at most once;
//! * repeatable `[[link]]` and `[[fault]]` headers;
//! * `key = value` lines, where a value is an unsigned integer, `true` /
//!   `false`, a `"quoted string"` (no escapes), or an integer array
//!   `[1, 2, 3]`;
//! * exactly one top-level `name = "..."` before any section.
//!
//! Every error carries the 1-based line number it arose on, and **unknown
//! sections and keys are hard errors** — a typoed `prcoess = 2` in a fault
//! script would otherwise silently weaken the scenario while CI reports
//! green coverage.

use std::collections::BTreeMap;

use qsel_adversary::registry::Strategy;

use crate::spec::{Algorithm, Fault, FaultKind, GeoLink, Scenario, WorkloadMode};

/// One parsed value.
#[derive(Clone, Debug)]
enum Val {
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<u64>),
}

impl Val {
    fn type_name(&self) -> &'static str {
        match self {
            Val::Int(_) => "integer",
            Val::Bool(_) => "bool",
            Val::Str(_) => "string",
            Val::Arr(_) => "array",
        }
    }
}

/// Key/value bindings of one section instance, each with its source line.
#[derive(Default)]
struct Fields {
    /// Header line of the section (for missing-key errors).
    line: usize,
    map: BTreeMap<String, (usize, Val)>,
}

impl Fields {
    fn insert(&mut self, line: usize, key: &str, val: Val) -> Result<(), String> {
        if self.map.contains_key(key) {
            return Err(format!("line {line}: duplicate key \"{key}\""));
        }
        self.map.insert(key.to_string(), (line, val));
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<(usize, Val)> {
        self.map.remove(key)
    }

    fn take_int(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.take(key) {
            None => Ok(None),
            Some((_, Val::Int(v))) => Ok(Some(v)),
            Some((line, v)) => Err(format!(
                "line {line}: key \"{key}\" must be an integer, got {}",
                v.type_name()
            )),
        }
    }

    fn take_bool(&mut self, key: &str) -> Result<Option<bool>, String> {
        match self.take(key) {
            None => Ok(None),
            Some((_, Val::Bool(v))) => Ok(Some(v)),
            Some((line, v)) => Err(format!(
                "line {line}: key \"{key}\" must be a bool, got {}",
                v.type_name()
            )),
        }
    }

    fn take_str(&mut self, key: &str) -> Result<Option<(usize, String)>, String> {
        match self.take(key) {
            None => Ok(None),
            Some((line, Val::Str(v))) => Ok(Some((line, v))),
            Some((line, v)) => Err(format!(
                "line {line}: key \"{key}\" must be a string, got {}",
                v.type_name()
            )),
        }
    }

    fn take_arr(&mut self, key: &str) -> Result<Option<Vec<u64>>, String> {
        match self.take(key) {
            None => Ok(None),
            Some((_, Val::Arr(v))) => Ok(Some(v)),
            Some((line, v)) => Err(format!(
                "line {line}: key \"{key}\" must be an array, got {}",
                v.type_name()
            )),
        }
    }

    fn require_int(&mut self, key: &str, section: &str) -> Result<u64, String> {
        self.take_int(key)?.ok_or_else(|| {
            format!(
                "line {}: [{section}] is missing required key \"{key}\"",
                self.line
            )
        })
    }

    fn require_u32(&mut self, key: &str, section: &str) -> Result<u32, String> {
        let v = self.require_int(key, section)?;
        u32::try_from(v)
            .map_err(|_| format!("line {}: key \"{key}\" does not fit in u32", self.line))
    }

    /// Errors on any key nobody consumed — the unknown-key guarantee.
    fn finish(self, section: &str) -> Result<(), String> {
        if let Some((key, (line, _))) = self.map.into_iter().next() {
            return Err(format!("line {line}: unknown key \"{key}\" in [{section}]"));
        }
        Ok(())
    }
}

/// Pending section being accumulated.
enum Pending {
    None,
    Single(&'static str, Fields),
    Link(Fields),
    Fault(Fields),
}

/// Parses the canonical scenario format.
///
/// # Errors
///
/// Returns `"line N: ..."` messages for syntax errors, unknown sections or
/// keys, duplicate keys/sections, missing required keys, and value-domain
/// errors (unknown algorithm, strategy, fault kind, workload mode).
/// Structural errors the grammar cannot see are left to
/// [`Scenario::validate`].
pub fn parse(text: &str) -> Result<Scenario, String> {
    let mut sc = Scenario::default();
    let mut seen_name = false;
    let mut seen_sections: Vec<&'static str> = Vec::new();
    let mut pending = Pending::None;

    // Closes out the section under accumulation, folding it into `sc`.
    fn flush(pending: &mut Pending, sc: &mut Scenario) -> Result<(), String> {
        match std::mem::replace(pending, Pending::None) {
            Pending::None => Ok(()),
            Pending::Single(section, fields) => finish_single(section, fields, sc),
            Pending::Link(fields) => {
                sc.links.push(finish_link(fields)?);
                Ok(())
            }
            Pending::Fault(fields) => {
                sc.faults.push(finish_fault(fields)?);
                Ok(())
            }
        }
    }

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let name = header
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {line_no}: malformed section header {line:?}"))?
                .trim();
            flush(&mut pending, &mut sc)?;
            pending = match name {
                "link" => Pending::Link(Fields {
                    line: line_no,
                    ..Fields::default()
                }),
                "fault" => Pending::Fault(Fields {
                    line: line_no,
                    ..Fields::default()
                }),
                other => {
                    return Err(format!(
                        "line {line_no}: unknown repeated section [[{other}]] \
                         (known: link, fault)"
                    ));
                }
            };
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let name = header
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: malformed section header {line:?}"))?
                .trim();
            flush(&mut pending, &mut sc)?;
            let known = [
                "cluster",
                "workload",
                "batch",
                "checkpoint",
                "adversary",
                "run",
                "expect",
            ];
            let section = *known.iter().find(|k| **k == name).ok_or_else(|| {
                format!(
                    "line {line_no}: unknown section [{name}] (known: {}, \
                     plus repeated [[link]] and [[fault]])",
                    known.join(", ")
                )
            })?;
            if seen_sections.contains(&section) {
                return Err(format!("line {line_no}: section [{section}] appears twice"));
            }
            seen_sections.push(section);
            pending = Pending::Single(
                section,
                Fields {
                    line: line_no,
                    ..Fields::default()
                },
            );
            continue;
        }

        let (key, val) = parse_kv(line, line_no)?;
        match &mut pending {
            Pending::None => {
                if key != "name" {
                    return Err(format!(
                        "line {line_no}: unknown top-level key \"{key}\" \
                         (only \"name\" may appear before the first section)"
                    ));
                }
                if seen_name {
                    return Err(format!("line {line_no}: duplicate key \"name\""));
                }
                let Val::Str(s) = val else {
                    return Err(format!("line {line_no}: key \"name\" must be a string"));
                };
                sc.name = s;
                seen_name = true;
            }
            Pending::Single(_, fields) | Pending::Link(fields) | Pending::Fault(fields) => {
                fields.insert(line_no, &key, val)?;
            }
        }
    }
    flush(&mut pending, &mut sc)?;
    if !seen_name {
        return Err("line 1: scenario has no top-level name".to_string());
    }
    Ok(sc)
}

fn parse_kv(line: &str, line_no: usize) -> Result<(String, Val), String> {
    let (key, rest) = line
        .split_once('=')
        .ok_or_else(|| format!("line {line_no}: expected \"key = value\", got {line:?}"))?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("line {line_no}: malformed key {key:?}"));
    }
    Ok((key.to_string(), parse_val(rest.trim(), line_no)?))
}

fn parse_val(text: &str, line_no: usize) -> Result<Val, String> {
    if let Some(body) = text.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string {text:?}"))?;
        if body.contains(['"', '\\']) {
            return Err(format!(
                "line {line_no}: strings may not contain quotes or backslashes"
            ));
        }
        return Ok(Val::Str(body.to_string()));
    }
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("line {line_no}: unterminated array {text:?}"))?
            .trim();
        let mut arr = Vec::new();
        if !body.is_empty() {
            for item in body.split(',') {
                arr.push(parse_int(item.trim(), line_no)?);
            }
        }
        return Ok(Val::Arr(arr));
    }
    match text {
        "true" => Ok(Val::Bool(true)),
        "false" => Ok(Val::Bool(false)),
        other => Ok(Val::Int(parse_int(other, line_no)?)),
    }
}

fn parse_int(text: &str, line_no: usize) -> Result<u64, String> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit() || b == b'_') {
        return Err(format!(
            "line {line_no}: expected unsigned integer, got {text:?}"
        ));
    }
    let digits: String = text.chars().filter(|c| *c != '_').collect();
    digits
        .parse::<u64>()
        .map_err(|_| format!("line {line_no}: integer {text:?} overflows u64"))
}

fn finish_single(section: &'static str, mut f: Fields, sc: &mut Scenario) -> Result<(), String> {
    match section {
        "cluster" => {
            if let Some(v) = f.take_int("n")? {
                sc.cluster.n = u32::try_from(v)
                    .map_err(|_| format!("line {}: \"n\" does not fit in u32", f.line))?;
            }
            if let Some(v) = f.take_int("f")? {
                sc.cluster.f = u32::try_from(v)
                    .map_err(|_| format!("line {}: \"f\" does not fit in u32", f.line))?;
            }
            if let Some((line, v)) = f.take_str("algorithm")? {
                sc.cluster.algorithm =
                    Algorithm::from_name(&v).map_err(|e| format!("line {line}: {e}"))?;
            }
        }
        "workload" => {
            if let Some(v) = f.take_int("clients")? {
                sc.workload.clients = u32::try_from(v)
                    .map_err(|_| format!("line {}: \"clients\" does not fit in u32", f.line))?;
            }
            if let Some(v) = f.take_int("ops_per_client")? {
                sc.workload.ops_per_client = v;
            }
            if let Some((line, v)) = f.take_str("mode")? {
                sc.workload.mode =
                    WorkloadMode::from_name(&v).map_err(|e| format!("line {line}: {e}"))?;
            }
            if let Some(v) = f.take_int("retry_us")? {
                sc.workload.retry_us = v;
            }
            if let Some(v) = f.take_int("interarrival_us")? {
                sc.workload.interarrival_us = v;
            }
            if let Some(v) = f.take_int("tx_cost_us")? {
                sc.workload.tx_cost_us = v;
            }
        }
        "batch" => {
            if let Some(v) = f.take_int("max_size")? {
                sc.batch.max_size = v;
            }
            if let Some(v) = f.take_int("max_delay_us")? {
                sc.batch.max_delay_us = v;
            }
            if let Some(v) = f.take_int("pipeline_depth")? {
                sc.batch.pipeline_depth = v;
            }
        }
        "checkpoint" => {
            if let Some(v) = f.take_int("interval")? {
                sc.checkpoint.interval = v;
            }
            if let Some(v) = f.take_int("archive_retain")? {
                sc.checkpoint.archive_retain = v;
            }
        }
        "adversary" => {
            let (line, name) = f
                .take_str("strategy")?
                .ok_or_else(|| format!("line {}: [adversary] needs a strategy", f.line))?;
            let delay_us = f.take_int("delay_us")?;
            sc.adversary.strategy =
                Strategy::from_name(&name, delay_us).map_err(|e| format!("line {line}: {e}"))?;
            if let Some(v) = f.take_int("process")? {
                sc.adversary.process = u32::try_from(v)
                    .map_err(|_| format!("line {}: \"process\" does not fit in u32", f.line))?;
            }
        }
        "run" => {
            if let Some(v) = f.take_int("settle_us")? {
                sc.run.settle_us = v;
            }
            if let Some(v) = f.take_int("min_commit_permille")? {
                if v > 1000 {
                    return Err(format!(
                        "line {}: \"min_commit_permille\" must be <= 1000",
                        f.line
                    ));
                }
                sc.run.min_commit_permille = v as u32;
            }
            sc.run.stable_from_us = f.take_int("stable_from_us")?;
        }
        "expect" => {
            sc.expect.commit_p50_us = f.take_int("commit_p50_us")?;
            sc.expect.commit_p99_us = f.take_int("commit_p99_us")?;
            sc.expect.client_backoff_p99_us = f.take_int("client_backoff_p99_us")?;
            sc.expect.request_network_p99_us = f.take_int("request_network_p99_us")?;
            sc.expect.batch_wait_p99_us = f.take_int("batch_wait_p99_us")?;
            sc.expect.quorum_wait_p99_us = f.take_int("quorum_wait_p99_us")?;
            sc.expect.execute_p99_us = f.take_int("execute_p99_us")?;
            sc.expect.reply_p99_us = f.take_int("reply_p99_us")?;
            sc.expect.straggler_gap_p99_us = f.take_int("straggler_gap_p99_us")?;
        }
        _ => unreachable!("caller only routes known sections"),
    }
    f.finish(section)
}

fn finish_link(mut f: Fields) -> Result<GeoLink, String> {
    let link = GeoLink {
        from: f.require_u32("from", "link")?,
        to: f.require_u32("to", "link")?,
        min_us: f.require_int("min_us", "link")?,
        max_us: f.require_int("max_us", "link")?,
        symmetric: f.take_bool("symmetric")?.unwrap_or(true),
    };
    f.finish("link")?;
    Ok(link)
}

fn finish_fault(mut f: Fields) -> Result<Fault, String> {
    let at_us = f.require_int("at_us", "fault")?;
    let (kind_line, kind_name) = f.take_str("kind")?.ok_or_else(|| {
        format!(
            "line {}: [[fault]] is missing required key \"kind\"",
            f.line
        )
    })?;
    let kind = match kind_name.as_str() {
        "partition" => {
            let group = f
                .take_arr("group")?
                .ok_or_else(|| format!("line {kind_line}: kind \"partition\" needs a group"))?;
            let mut members = Vec::with_capacity(group.len());
            for p in group {
                members.push(u32::try_from(p).map_err(|_| {
                    format!("line {kind_line}: partition member {p} does not fit in u32")
                })?);
            }
            FaultKind::Partition(members)
        }
        "heal_all" => FaultKind::HealAll,
        "crash" => FaultKind::Crash(f.require_u32("process", "fault")?),
        "restart" => FaultKind::Restart(f.require_u32("process", "fault")?),
        "pause" => FaultKind::Pause(f.require_u32("process", "fault")?),
        "resume" => FaultKind::Resume(f.require_u32("process", "fault")?),
        "degrade_link" => FaultKind::DegradeLink {
            from: f.require_u32("from", "fault")?,
            to: f.require_u32("to", "fault")?,
            extra_us: f.require_int("extra_us", "fault")?,
            jitter_us: f.require_int("jitter_us", "fault")?,
        },
        "heal_link" => FaultKind::HealLink {
            from: f.require_u32("from", "fault")?,
            to: f.require_u32("to", "fault")?,
        },
        "drop_link" => FaultKind::DropLink {
            from: f.require_u32("from", "fault")?,
            to: f.require_u32("to", "fault")?,
        },
        other => {
            return Err(format!(
                "line {kind_line}: unknown fault kind {other:?} (known: partition, \
                 heal_all, crash, restart, pause, resume, degrade_link, heal_link, \
                 drop_link)"
            ));
        }
    };
    f.finish("fault")?;
    Ok(Fault { at_us, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A kitchen-sink scenario exercising every grammar production.
name = "kitchen-sink"

[cluster]
n = 5
f = 2
algorithm = "enumeration"

[workload]
clients = 3
ops_per_client = 9
mode = "open"
retry_us = 10000
interarrival_us = 700
tx_cost_us = 5

[batch]
max_size = 8
max_delay_us = 300
pipeline_depth = 4

[adversary]
strategy = "gray"
delay_us = 2500
process = 1

[run]
settle_us = 9000000
min_commit_permille = 900
stable_from_us = 1234

[expect]
commit_p99_us = 500000
quorum_wait_p99_us = 200000

[[link]]
from = 1
to = 2
min_us = 40000
max_us = 45000
symmetric = false

[[fault]]
at_us = 100000
kind = "partition"
group = [1, 2]

[[fault]]
at_us = 200000
kind = "heal_all"
"#;

    #[test]
    fn full_grammar_parses() {
        let sc = parse(FULL).expect("parse");
        assert_eq!(sc.name, "kitchen-sink");
        assert_eq!(sc.cluster.n, 5);
        assert_eq!(sc.cluster.algorithm, Algorithm::Enumeration);
        assert_eq!(sc.workload.mode, WorkloadMode::Open);
        assert_eq!(sc.adversary.strategy, Strategy::Gray { delay_us: 2500 });
        assert_eq!(sc.run.stable_from_us, Some(1234));
        assert_eq!(sc.expect.commit_p99_us, Some(500000));
        assert_eq!(sc.expect.quorum_wait_p99_us, Some(200000));
        assert_eq!(sc.expect.commit_p50_us, None);
        assert_eq!(sc.links.len(), 1);
        assert!(!sc.links[0].symmetric);
        assert_eq!(sc.faults.len(), 2);
        assert_eq!(sc.faults[0].kind, FaultKind::Partition(vec![1, 2]));
        assert_eq!(sc.faults[1].kind, FaultKind::HealAll);
        sc.validate().expect("validate");
    }

    #[test]
    fn unknown_key_is_rejected_with_its_line_number() {
        let text = "name = \"x\"\n\n[cluster]\nn = 4\nprcoess = 2\n";
        let err = parse(text).expect_err("typo must fail");
        assert!(err.starts_with("line 5:"), "{err}");
        assert!(err.contains("unknown key \"prcoess\""), "{err}");
    }

    #[test]
    fn unknown_key_in_trailing_fault_is_rejected() {
        // The last section is finalized at EOF, not at a following header —
        // the unknown-key check must still fire there.
        let text = "name = \"x\"\n\n[[fault]]\nat_us = 5\nkind = \"heal_all\"\nbogus = 1\n";
        let err = parse(text).expect_err("typo must fail");
        assert!(err.starts_with("line 6:"), "{err}");
        assert!(err.contains("unknown key \"bogus\""), "{err}");
    }

    #[test]
    fn unknown_section_is_rejected_with_its_line_number() {
        let text = "name = \"x\"\n\n[clutser]\nn = 4\n";
        let err = parse(text).expect_err("typo must fail");
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("unknown section [clutser]"), "{err}");
    }

    #[test]
    fn extraneous_fault_key_for_kind_is_rejected() {
        let text = "name = \"x\"\n\n[[fault]]\nat_us = 5\nkind = \"heal_all\"\nprocess = 2\n";
        let err = parse(text).expect_err("heal_all takes no process");
        assert!(err.contains("unknown key \"process\""), "{err}");
    }

    #[test]
    fn duplicate_key_and_section_are_rejected() {
        let dup_key = "name = \"x\"\n\n[cluster]\nn = 4\nn = 5\n";
        let err = parse(dup_key).expect_err("dup key");
        assert!(
            err.starts_with("line 5:") && err.contains("duplicate key"),
            "{err}"
        );

        let dup_sec = "name = \"x\"\n\n[run]\n\n[run]\n";
        let err = parse(dup_sec).expect_err("dup section");
        assert!(
            err.starts_with("line 5:") && err.contains("appears twice"),
            "{err}"
        );
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        let text = "name = \"x\"\n\n[[link]]\nfrom = 1\nto = 2\nmin_us = 5\n";
        let err = parse(text).expect_err("link without max_us");
        assert!(err.contains("missing required key \"max_us\""), "{err}");

        let err = parse("name = \"x\"\n\n[[fault]]\nat_us = 5\n").expect_err("kindless fault");
        assert!(err.contains("missing required key \"kind\""), "{err}");

        let err = parse("[cluster]\nn = 4\n").expect_err("nameless scenario");
        assert!(err.contains("no top-level name"), "{err}");
    }

    #[test]
    fn unknown_enumerations_are_rejected() {
        let bad_algo = "name = \"x\"\n\n[cluster]\nalgorithm = \"fastest\"\n";
        let err = parse(bad_algo).expect_err("bad algorithm");
        assert!(
            err.starts_with("line 4:") && err.contains("unknown algorithm"),
            "{err}"
        );

        let bad_kind = "name = \"x\"\n\n[[fault]]\nat_us = 1\nkind = \"explode\"\n";
        let err = parse(bad_kind).expect_err("bad kind");
        assert!(err.contains("unknown fault kind"), "{err}");

        let bad_strategy = "name = \"x\"\n\n[adversary]\nstrategy = \"warp\"\n";
        let err = parse(bad_strategy).expect_err("bad strategy");
        assert!(err.contains("unknown adversary strategy"), "{err}");
    }

    #[test]
    fn unknown_expect_key_is_rejected() {
        let text = "name = \"x\"\n\n[expect]\ncommit_p98_us = 5\n";
        let err = parse(text).expect_err("unknown SLO key must fail");
        assert!(err.starts_with("line 4:"), "{err}");
        assert!(err.contains("unknown key \"commit_p98_us\""), "{err}");
    }

    #[test]
    fn underscored_integers_parse() {
        let text = "name = \"x\"\n\n[run]\nsettle_us = 15_000_000\n";
        assert_eq!(parse(text).expect("parse").run.settle_us, 15_000_000);
    }
}
