//! Machine-readable run verdicts.
//!
//! A [`Verdict`] is the end product of a scenario run: a named set of
//! pass/fail [`Check`]s (one per invariant the replay analyzer and runner
//! evaluated) plus a flat metrics summary. The scenario runner writes one
//! `verdict.json` per (scenario, seed) cell; the league aggregator parses
//! them back with [`Verdict::parse_json`] and folds them into a report.
//! Both directions are dependency-free and round-trip exactly.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{json_str, Cursor};

/// One named invariant check inside a [`Verdict`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// Stable check identifier (e.g. `"qs_bound"`, `"per_slot_agreement"`).
    pub name: String,
    /// Whether the invariant held.
    pub pass: bool,
    /// Human-readable evidence (bound vs. observed, counts, first
    /// violation).
    pub detail: String,
}

/// The machine-readable outcome of one scenario run.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Scenario name (from the scenario file).
    pub scenario: String,
    /// The RNG seed the run used.
    pub seed: u64,
    /// Invariant checks, in evaluation order.
    pub checks: Vec<Check>,
    /// Flat metrics summary (counts and simulated microseconds).
    pub metrics: BTreeMap<String, u64>,
}

impl Verdict {
    /// A verdict shell for one (scenario, seed) cell.
    pub fn new(scenario: &str, seed: u64) -> Self {
        Verdict {
            scenario: scenario.to_string(),
            seed,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records one invariant check.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail: detail.into(),
        });
    }

    /// Records one summary metric.
    pub fn metric(&mut self, name: &str, value: u64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Whether every check passed (an empty verdict fails: a run that
    /// evaluated nothing proved nothing).
    pub fn pass(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.pass)
    }

    /// Serializes to pretty-stable JSON (keys in fixed order, metrics
    /// sorted by name).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"pass\": {},\n", self.pass()));
        out.push_str("  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"pass\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.pass,
                json_str(&c.detail)
            ));
        }
        if !self.checks.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(k), v));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a verdict serialized by [`Verdict::to_json`] (any JSON
    /// whitespace layout is accepted; the `pass` field is recomputed from
    /// the checks rather than trusted).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset message on malformed input or missing keys.
    pub fn parse_json(text: &str) -> Result<Verdict, String> {
        let mut cur = Cursor::new(text);
        let mut v = Verdict::default();
        let mut have_scenario = false;
        let mut have_seed = false;
        cur.skip_ws();
        cur.object(|key, cur| {
            match &*key {
                "scenario" => {
                    v.scenario = cur.parse_string()?.into_owned();
                    have_scenario = true;
                }
                "seed" => {
                    v.seed = cur.parse_u64()?;
                    have_seed = true;
                }
                "pass" => {
                    cur.parse_bool()?; // recomputed; parsed to advance
                }
                "checks" => cur.array(|cur| {
                    v.checks.push(parse_check(cur)?);
                    Ok(())
                })?,
                "metrics" => cur.object(|name, cur| {
                    v.metrics.insert(name.into_owned(), cur.parse_u64()?);
                    Ok(())
                })?,
                other => return Err(format!("unknown verdict key {other:?}")),
            }
            Ok(())
        })?;
        cur.skip_ws();
        if !cur.at_end() {
            return Err(format!("trailing bytes at {}", cur.pos));
        }
        if !have_scenario || !have_seed {
            return Err("verdict missing scenario or seed".to_string());
        }
        Ok(v)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verdict for {} (seed {}): {}",
            self.scenario,
            self.seed,
            if self.pass() { "PASS" } else { "FAIL" }
        )?;
        for c in &self.checks {
            writeln!(
                f,
                "  [{}] {:<22} {}",
                if c.pass { "ok" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        for (k, v) in &self.metrics {
            writeln!(f, "  {k} = {v}")?;
        }
        Ok(())
    }
}

fn parse_check(cur: &mut Cursor<'_>) -> Result<Check, String> {
    let mut name = None;
    let mut pass = None;
    let mut detail = None;
    cur.object(|key, cur| {
        match &*key {
            "name" => name = Some(cur.parse_string()?.into_owned()),
            "pass" => pass = Some(cur.parse_bool()?),
            "detail" => detail = Some(cur.parse_string()?.into_owned()),
            other => return Err(format!("unknown check key {other:?}")),
        }
        Ok(())
    })?;
    match (name, pass, detail) {
        (Some(name), Some(pass), Some(detail)) => Ok(Check { name, pass, detail }),
        _ => Err("check missing name, pass, or detail".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Verdict {
        let mut v = Verdict::new("geo-partition", 7);
        v.check("liveness", true, "committed 24/24");
        v.check("qs_bound", false, "max 3 > bound 2 (epoch 5, p2)");
        v.check("weird \"quotes\"\n", true, "tab\there");
        v.metric("committed_ops", 24);
        v.metric("trace_records", 10_312);
        v
    }

    #[test]
    fn json_roundtrips_exactly() {
        let v = sample();
        let text = v.to_json();
        let back = Verdict::parse_json(&text).expect("reparse");
        assert_eq!(v, back);
        // Second generation is byte-identical: serialization is canonical.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn pass_is_conjunction_and_empty_fails() {
        assert!(!Verdict::new("x", 0).pass());
        let mut v = Verdict::new("x", 0);
        v.check("a", true, "");
        assert!(v.pass());
        v.check("b", false, "");
        assert!(!v.pass());
    }

    #[test]
    fn serialized_pass_field_is_recomputed() {
        let mut v = Verdict::new("x", 1);
        v.check("a", false, "boom");
        let tampered = v
            .to_json()
            .replace("\n  \"pass\": false,", "\n  \"pass\": true,");
        let back = Verdict::parse_json(&tampered).expect("reparse");
        assert!(!back.pass(), "pass must come from checks, not the field");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = Verdict::parse_json("{\"scenario\": \"x\", \"seed\": 1, \"bogus\": 3}")
            .expect_err("unknown key must fail");
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn missing_identity_is_rejected() {
        assert!(Verdict::parse_json("{}").is_err());
    }

    #[test]
    fn non_ascii_detail_roundtrips() {
        let mut v = Verdict::new("naïve-scénario", 2);
        v.check("π", true, "δ ≤ ε");
        let back = Verdict::parse_json(&v.to_json()).expect("reparse");
        assert_eq!(v, back);
    }
}
