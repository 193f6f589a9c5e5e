//! What one run reports: the metric names (the contract with
//! `BENCHMARK.json`), the run's tallies, and the result line.

use lb_serve::JobFamily;

/// End-to-end metrics, printed with `--trace 0`, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("submit_ack_p50_ms", "ms"),
    ("submit_ack_p90_ms", "ms"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("solve_ms.sat", "ms"),
    ("solve_ms.csp", "ms"),
    ("solve_ms.join", "ms"),
    ("solve_ms.triangle", "ms"),
    ("solve_ms.clique", "ms"),
];

/// Per-layer metrics whose name is not per family, printed with
/// `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.ping_rtt_p50_ms", "ms"),
    ("net.connect_ping_p50_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("spool.save_record_ms", "ms"),
    ("spool.save_checkpoint_ms", "ms"),
    ("scheduler.submit_ms", "ms"),
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.queue_wait_p90_ms", "ms"),
    ("server.jobs_per_s", "1/s"),
    ("server.slices", "count"),
    ("server.preemptions", "count"),
    ("server.ticks", "count"),
    ("server.rejected", "count"),
    ("server.retries", "count"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("join.trie_build_ms", "ms"),
    ("machine.nproc", "count"),
    ("machine.fsync_200b_ms", "ms"),
    ("machine.loopback_rtt_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer metrics reported once per job family (`<prefix>.<family>`).
pub const PER_LAYER_BY_FAMILY: &[(&str, &str)] = &[
    ("formats.instance_parse_ms", "ms"),
    ("spool.checkpoint_bytes", "bytes"),
    ("runner.slice_fixed_ms", "ms"),
    ("runner.sliced_over_oneshot", "ratio"),
    ("solver.ticks", "count"),
    ("solver.ns_per_tick", "ns"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for &(prefix, unit) in PER_LAYER_BY_FAMILY {
        for f in JobFamily::ALL {
            out.push((format!("{prefix}.{f}"), unit));
        }
    }
    out
}

/// One metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's tallies and metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: settled jobs plus refused or failed requests
    /// (serve), or `lbtool` calls (oneshot).
    pub attempted: u64,
    /// One line per failed, refused-and-abandoned or mismatched operation.
    pub failures: Vec<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records metric `name` with the unit the contract gives it.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().copied())
            .find(|&(n, _)| n == name)
            .map(|(_, u)| u)
            .or_else(|| {
                PER_LAYER_BY_FAMILY
                    .iter()
                    .find(|&&(p, _)| name.starts_with(p) && name.len() > p.len())
                    .map(|&(_, u)| u)
            })
            .unwrap_or("count");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `metrics` holds exactly `names`, in that order.
    pub fn result_line(&self, names: &[(String, &'static str)]) -> String {
        let attempted = self.attempted.max(1);
        let failed = self.failures.len() as u64;
        let mut body = Vec::new();
        for (name, unit) in names {
            let value = self.get(name).unwrap_or(f64::NAN);
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && self.attempted > 0,
            body.join(", ")
        )
    }
}
