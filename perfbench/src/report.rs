//! Metric names, units and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Tally;

/// End-to-end metrics of an untraced run, as listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, as listed in `BENCHMARK.json`.
/// `_ms` metrics are self time per operation; counts are per operation
/// unless they describe the fixture (`resolve.distinct_values`, ...).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kb.load_ms", "ms"),
    ("kb.load_rss_mb", "MB"),
    ("resolve.build_ms", "ms"),
    ("resolve.distinct_values", "count"),
    ("resolve.labels_ms", "ms"),
    ("resolve.fuzzy_values", "count"),
    ("resolve.fuzzy_lookup_ms", "ms"),
    ("resolve.fuzzy_hit_ratio", "ratio"),
    ("resolve.types_ms", "ms"),
    ("resolve.pair_memo_ms", "ms"),
    ("resolve.pair_memo_entries", "count"),
    ("resolve.decomposition_gap_pct", "%"),
    ("resolve.share_pct", "%"),
    ("kb.plan_type_first", "count"),
    ("kb.plan_rel_first", "count"),
    ("discovery.run_ms", "ms"),
    ("discovery.type_probes", "count"),
    ("discovery.rel_probes", "count"),
    ("validation.run_ms", "ms"),
    ("annotation.run_ms", "ms"),
    ("annotation.enriched_facts", "count"),
    ("resolve.candidates_fallback", "count"),
    ("resolve.candidates_hit_ratio", "ratio"),
    ("repair.index_ms", "ms"),
    ("repair.generate_ms", "ms"),
    ("repair.graphs_built", "count"),
    ("repair.tuples_repaired", "count"),
    ("kb.clone_ms", "ms"),
    ("kb.clone_rss_mb", "MB"),
    ("table.csv_parse_ms", "ms"),
    ("serve.http_residual_ms", "ms"),
    ("serve.snapshot_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.sessions_evicted", "count"),
    ("delta.replay_ms", "ms"),
    ("table.delta_parse_ms", "ms"),
    ("delta.values_resolved", "count"),
    ("delta.patterns_rescored", "count"),
    ("delta.tuples_repaired", "count"),
    ("resolve.values_evicted", "count"),
    ("serve.warmup_ms", "ms"),
    ("delta.bootstrap_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metrics printed on the report line that do not gate: they are 0 on a
/// healthy run (`fail_ratio`) or exist on one workload only.
pub const INFO: &[(&str, &str)] = &[
    ("fail_ratio", "ratio"),
    ("pattern_f", "ratio"),
    ("repair_precision", "ratio"),
    ("repair_recall", "ratio"),
    ("crowd_questions", "count"),
];

/// Named metric values collected by a workload.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` (must be a known metric).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(INFO)
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `names`; unset
    /// metrics (layers the workload does not exercise) read 0.
    pub fn json(&self, names: &[(&str, &str)]) -> String {
        self.json_of(
            names
                .iter()
                .map(|&(n, u)| (n, u, self.get(n).unwrap_or(0.0))),
        )
    }

    /// Like [`Self::json`], leaving out the metrics that were never set.
    pub fn json_set(&self, names: &[(&str, &str)]) -> String {
        self.json_of(
            names
                .iter()
                .filter_map(|&(n, u)| self.get(n).map(|v| (n, u, v))),
        )
    }

    fn json_of<'a>(&self, metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
        let fields: Vec<String> = metrics
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit `f64` carries (non-finite reads 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::default();
        v.set("setup_s", 1.25);
        let tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let line = result_line(&tally, &v.json(&END_TO_END[..2]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(INFO)
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
