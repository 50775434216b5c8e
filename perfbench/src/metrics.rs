//! The metric roster (mirrored in `BENCHMARK.json`), the run's result
//! line, and the context line that records where a result came from.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("ok_frac", "ratio"),
];

/// The registry stages' per-stage metrics, in registry order
/// (`vt_dynamics::pipeline::stage_names`).
pub const STAGES: [&str; 11] = [
    "analysis.landscape_ms",
    "analysis.stability_ms",
    "analysis.metrics_ms",
    "analysis.window_growth_ms",
    "analysis.intervals_ms",
    "analysis.categorize_all_ms",
    "analysis.categorize_pe_ms",
    "analysis.causes_ms",
    "analysis.stabilization_ms",
    "analysis.flips_ms",
    "analysis.correlation_ms",
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut out = vec![
        ("sim.busy_ms", "ms"),
        ("collector.busy_ms", "ms"),
        ("collector.accepted", "count"),
        ("collector.dropped_duplicates", "count"),
        ("collector.quarantined", "count"),
        ("collector.accept_ratio", "ratio"),
        ("store.decode_ms", "ms"),
        ("store.encode_ms", "ms"),
        ("store.bytes", "bytes"),
        ("store.segments", "count"),
        ("records.busy_ms", "ms"),
        ("table.build_ms", "ms"),
        ("table.rows", "count"),
    ];
    out.extend(STAGES.iter().map(|&s| (s, "ms")));
    out.extend([
        ("analysis.freshdyn_ms", "ms"),
        ("incremental.fold_ms", "ms"),
        ("incremental.merge_ms", "ms"),
        ("incremental.finish_ms", "ms"),
        ("incremental.segments", "count"),
        ("serve.sample_p50_us", "us"),
        ("serve.status_p50_us", "us"),
        ("serve.flip_leaders_p50_us", "us"),
        ("serve.engine_p50_us", "us"),
        ("serve.recommend_p50_us", "us"),
        ("serve.found_ratio", "ratio"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.epochs", "count"),
        ("serve.backlog_reports_max", "count"),
        ("report.render_ms", "ms"),
        ("loadgen.late_p99_us", "us"),
        ("loadgen.sent", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_ms", "ms"),
    ]);
    out
}

/// One run's outcome: operation counts, metric values, and the reason
/// behind every metric the workload cannot measure (reported as 0).
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (invocations or requests).
    pub attempted: u64,
    /// Operations that failed: an error, a refusal, no answer, or an
    /// answer the oracle rejected.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    unmeasured: BTreeMap<&'static str, &'static str>,
}

impl Report {
    /// Records one operation and whether it succeeded.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The result line for the given roster. With `default_why`,
    /// metrics the workload did not set are reported as 0 and listed as
    /// unmeasured for that reason; without it every metric must be set.
    /// Panics on a missing or non-finite value (a bug in the runner,
    /// not a measurement).
    pub fn finish(
        &mut self,
        roster: &[(&'static str, &'static str)],
        default_why: Option<&'static str>,
    ) -> String {
        for &(name, _) in roster {
            if !self.values.contains_key(name) {
                let why = default_why.unwrap_or_else(|| panic!("metric {name} was not measured"));
                self.values.insert(name, 0.0);
                self.unmeasured.insert(name, why);
            }
        }
        let metrics: Vec<String> = roster
            .iter()
            .map(|&(name, unit)| {
                let v = self.values[name];
                assert!(v.is_finite(), "metric {name} is {v}");
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Human-readable rendering of every metric in `roster`, with the
    /// reason behind each unmeasured one.
    pub fn render(&self, roster: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in roster {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("  {name:<30} {v:>14.4} {unit}"));
            if let Some(why) = self.unmeasured.get(name) {
                out.push_str(&format!("   (unmeasured: {why})"));
            }
            out.push('\n');
        }
        out
    }
}

/// The commit the checkout was made from (`git rev-parse HEAD` in
/// `root`); `"unknown"` where git or the repository is missing, as in
/// a source export.
pub fn commit(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|id| id.trim().to_string())
        .filter(|id| !id.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The context line printed before the result: what ran, where, on
/// which inputs.
pub fn context_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    commit: &str,
) -> String {
    format!(
        "{{\"perfbench\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{},\"nproc\":{nproc},\"commit\":\"{commit}\"}}}}",
        u8::from(trace)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_label_dynamics::obs::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses with the vt-obs parser")
    }

    fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_roster() {
        let v = benchmark_json();
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let roster = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&v, "end_to_end"), roster(&END_TO_END));
        assert_eq!(names_units(&v, "per_layer"), roster(&per_layer()));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for m in v.get("end_to_end").and_then(Value::as_array).expect("list") {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }

        // A result line parses back with every metric, value and unit.
        let mut report = Report::default();
        report.count(true);
        report.set("setup_s", 0.8127);
        for &(name, _) in &END_TO_END[1..] {
            report.set(name, 1.5);
        }
        let line = report.finish(&END_TO_END, None);
        let parsed = json::parse(&line).expect("result line parses");
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Value::as_u64), Some(1));
        let metrics = parsed
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn stage_metrics_follow_the_registry() {
        let expected: Vec<String> = vt_label_dynamics::dynamics::stage_names()
            .into_iter()
            .map(|s| format!("analysis.{s}_ms"))
            .collect();
        assert_eq!(STAGES.to_vec(), expected);
    }

    #[test]
    fn context_records_nproc_commit_and_seed() {
        let line = context_line("study", 42, 15, true, 2, "abc123");
        let v = json::parse(&line).expect("context parses");
        let ctx = v.get("perfbench").expect("perfbench member");
        assert_eq!(ctx.get("seed").and_then(Value::as_u64), Some(42));
        assert_eq!(ctx.get("nproc").and_then(Value::as_u64), Some(2));
        assert_eq!(ctx.get("commit").and_then(Value::as_str), Some("abc123"));
        assert_eq!(ctx.get("workload").and_then(Value::as_str), Some("study"));
        assert_eq!(commit(Path::new("/nonexistent")), "unknown");
    }

    #[test]
    fn unset_metrics_are_reported_as_unmeasured_zeros() {
        let mut report = Report::default();
        report.count(false);
        let line = report.finish(&END_TO_END, Some("not applicable"));
        assert!(line.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1,"));
        assert!(report
            .render(&END_TO_END)
            .contains("(unmeasured: not applicable)"));
    }
}
