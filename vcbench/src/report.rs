//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_uops_per_s", "1/s"),
    ("success_rate", "frac"),
    ("peak_rss_mb", "MiB"),
    ("vc_slowdown_pct", "%"),
    ("vc_copies_per_kuop", "1/kuop"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("svc.outside_worker_ms_p50", "ms"),
    ("svc.outside_worker_ms_p99", "ms"),
    ("svc.busy_frac", "frac"),
    ("svc.digest_us", "us"),
    ("svc.frame_ns", "ns"),
    ("core.worker_util", "frac"),
    ("core.queue_wait_ms_p99", "ms"),
    ("core.run_ms_p50", "ms"),
    ("workloads.build_program_us", "us"),
    ("workloads.expand_ns_per_uop", "ns"),
    ("compiler.pass_us.OB", "us"),
    ("compiler.pass_us.RHOP", "us"),
    ("compiler.pass_us.VC2", "us"),
    ("compiler.pass_share", "frac"),
    ("compiler.pass_share.OB", "frac"),
    ("compiler.pass_share.RHOP", "frac"),
    ("compiler.pass_share.VC2", "frac"),
    ("compiler.repeat_key_frac", "frac"),
    ("trace.open_us", "us"),
    ("trace.decode_ns_per_uop.text", "ns"),
    ("trace.decode_ns_per_uop.binary", "ns"),
    ("trace.reader_reuse_frac", "frac"),
    ("trace.write_ns_per_uop", "ns"),
    ("sim.reset_us", "us"),
    ("sim.ns_per_uop", "ns"),
    ("sim.ns_per_stepped_cycle", "ns"),
    ("sim.stepped_cycle_frac", "frac"),
    ("sim.stepped_cycles.OP", "count"),
    ("sim.stepped_cycles.OB", "count"),
    ("sim.stepped_cycles.RHOP", "count"),
    ("sim.stepped_cycles.VC2", "count"),
    ("sim.policy_spans", "count"),
    ("steer.calls_per_uop.OP", "count"),
    ("steer.calls_per_uop.OB", "count"),
    ("steer.calls_per_uop.RHOP", "count"),
    ("steer.calls_per_uop.VC2", "count"),
    ("bench.gen_lag_ms_max", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.traced_jobs_per_s", "1/s"),
    ("bench.untraced_jobs_per_s", "1/s"),
];

/// Measured values by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name` (which must be in a catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Render the result line for `catalogue`, or name what is missing or
    /// not a finite number.
    pub fn to_json(
        &self,
        catalogue: &[(&str, &str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        ))
    }
}

/// The result line of a run whose outputs were wrong: no numbers.
pub fn incorrect_json(attempted: u64, failed: u64) -> String {
    format!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;

    #[test]
    fn json_lists_every_catalogue_metric_with_all_its_digits() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.1);
        m.set("setup_s", 0.012_345_678_9);
        let cat = [("setup_s", "s")];
        assert_eq!(
            m.to_json(&cat, 3, 0).unwrap(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.0123456789, "unit": "s"}}}"#
        );
        assert!(m.to_json(&[("jobs_per_s", "1/s")], 1, 0).is_err());
        m.set("setup_s", f64::NAN);
        assert!(m.to_json(&cat, 1, 0).is_err());
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let squeezed: String = declared.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = Workload::ALL
            .iter()
            .filter(|w| squeezed.contains(&format!("\"name\":\"{}\",\"why\"", w.name())))
            .count();
        assert!(
            workloads >= 2,
            "BENCHMARK.json runs {workloads} known workloads"
        );
        let declared_names = squeezed.matches("\"name\":").count();
        assert_eq!(
            declared_names,
            END_TO_END.len() + PER_LAYER.len() + workloads
        );
    }
}
