//! Metric names and units (the same lists as `BENCHMARK.json`) and the
//! result line every run ends with.

use std::collections::HashMap;

/// End-to-end metrics, printed with tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("reports_per_s", "1/s"),
    ("sanitized_s", "s"),
    ("uninstrumented_s", "s"),
];

/// Per-layer metrics, printed by the traced run.  A layer the workload
/// does not reach from this process reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.lex_us", "us"),
    ("minic.parse_us", "us"),
    ("minic.lower_us", "us"),
    ("minic.tokens", "count"),
    ("minic.ir_instrs", "count"),
    ("instrument.pass_us", "us"),
    ("instrument.static_checks", "count"),
    ("vm.setup_us", "us"),
    ("vm.run_ms", "ms"),
    ("vm.dispatch_ms", "ms"),
    ("vm.check_dispatch_ms", "ms"),
    ("vm.instructions", "count"),
    ("vm.check_instructions", "count"),
    ("vm.calls", "count"),
    ("vm.fast_call_ratio", "ratio"),
    ("vm.tier_promotions", "count"),
    ("vm.checks_elided", "count"),
    ("vm.elided_ratio", "ratio"),
    ("san.hook_ms", "ms"),
    ("san.alloc_free_ms", "ms"),
    ("san.finish_us", "us"),
    ("san.type_checks", "count"),
    ("san.cast_checks", "count"),
    ("san.bounds_gets", "count"),
    ("san.bounds_narrows", "count"),
    ("san.bounds_checks", "count"),
    ("san.access_checks", "count"),
    ("san.allocs", "count"),
    ("san.frees", "count"),
    ("san.cache_hit_rate", "ratio"),
    ("san.legacy_fraction", "ratio"),
    ("san.failed_checks", "count"),
    ("san.error_events", "count"),
    ("san.distinct_issues", "count"),
    ("core.wall_overhead_x", "x"),
    ("core.cost_overhead_x", "x"),
    ("core.check_dispatch_share", "ratio"),
    ("sweep.shard_compute_ms", "ms"),
    ("sweep.shard_rtt_tcp_ms", "ms"),
    ("sweep.shard_rtt_pipe_ms", "ms"),
    ("sweep.wire_tcp_ms", "ms"),
    ("sweep.wire_pipe_ms", "ms"),
    ("sweep.establish_ms", "ms"),
    ("sweep.sharded_ms", "ms"),
    ("sweep.first_row_ms_p50", "ms"),
    ("sweep.row_gap_ms_p50", "ms"),
    ("sweep.shards_completed", "count"),
    ("sweep.shard_failures", "count"),
    ("sweep.steals", "count"),
    ("sweep.busy_rejects", "count"),
    ("sweep.shard_us_p50_ceiling", "us"),
    ("wire.row_bytes", "B"),
    ("wire.encode_us_per_row", "us"),
    ("wire.decode_us_per_row", "us"),
    ("self.minic_ms", "ms"),
    ("self.instrument_ms", "ms"),
    ("self.vm_ms", "ms"),
    ("self.san_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.sweep_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.self_sum_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Measured values by metric name.
pub type Values = HashMap<&'static str, f64>;

/// How many operations ran and how many failed their output checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
/// End-to-end values must all be present and finite; a per-layer metric
/// the workload does not measure reads 0.
pub fn result_line(tally: Tally, trace: bool, values: &Values) -> Result<String, String> {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(set.len());
    for &(name, unit) in set {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `section` in `BENCHMARK.json`.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let ours =
            |set: &[(&str, &str)]| set.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), ours(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), ours(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut values = Values::new();
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        assert!(result_line(tally, false, &values).is_err());
        for (name, _) in END_TO_END {
            values.insert(name, 1.5);
        }
        let line = result_line(tally, false, &values).expect("complete");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        let traced = result_line(tally, true, &Values::new()).expect("zeros allowed");
        assert!(traced.contains("\"trace.overhead_pct\":{\"value\":0,\"unit\":\"%\"}"));
    }
}
