//! Hand-rolled JSON rendering of structured diagnostics.
//!
//! The workspace's `serde` shim is a no-op, so JSON export — the first
//! slice of the ROADMAP's diagnostic-driven reporting — shares the sweep
//! subsystem's hand-rolled encoding layer instead: the same per-issue
//! fields the wire format carries (kind, expected/observed types, offset,
//! bounds, location, detail), rendered as JSON for downstream tooling
//! (`table_issues --json`).  Strings are escaped by the workspace's one
//! escaper, [`obs::json_escape`].

use std::collections::{BTreeMap, BTreeSet};

use effective_san::{SpecExperiment, SpecRow};
use san_api::{Diagnostic, SanitizerKind};

use obs::json_escape;

/// Render one diagnostic as a JSON object (the wire format's `diag`
/// fields, JSON-spelled).
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let bounds = match d.bounds {
        Some(b) => format!("{{\"lo\":{},\"hi\":{}}}", b.lo, b.hi),
        None => "null".to_string(),
    };
    format!(
        "{{\"kind\":\"{}\",\"expected\":\"{}\",\"observed\":\"{}\",\"offset\":{},\
         \"bounds\":{},\"location\":\"{}\",\"detail\":\"{}\"}}",
        json_escape(d.kind.name()),
        json_escape(&d.expected),
        json_escape(&d.observed),
        d.offset,
        bounds,
        json_escape(&d.location),
        json_escape(&d.detail),
    )
}

/// Render one benchmark row's per-backend diagnostics as a JSON object.
pub fn row_issues_json(row: &SpecRow) -> String {
    let reports: Vec<String> = row
        .reports
        .iter()
        .map(|report| {
            let issues: Vec<String> = report.diagnostics.iter().map(diagnostic_json).collect();
            format!(
                "{{\"sanitizer\":\"{}\",\"distinct_issues\":{},\"issues\":[{}]}}",
                json_escape(report.sanitizer.name()),
                report.errors.distinct_issues,
                issues.join(",")
            )
        })
        .collect();
    format!(
        "{{\"benchmark\":\"{}\",\"paper_issues\":{},\"reports\":[{}]}}",
        json_escape(&row.name),
        row.paper_issues,
        reports.join(",")
    )
}

/// Render a whole experiment's diagnostics as a JSON array, optionally
/// restricted to one backend's reports.
pub fn experiment_issues_json(experiment: &SpecExperiment, only: Option<SanitizerKind>) -> String {
    let rows: Vec<String> = experiment
        .rows
        .iter()
        .map(|row| match only {
            None => row_issues_json(row),
            Some(kind) => {
                let filtered = SpecRow {
                    reports: row
                        .reports
                        .iter()
                        .filter(|r| r.sanitizer == kind)
                        .cloned()
                        .collect(),
                    ..row.clone()
                };
                row_issues_json(&filtered)
            }
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Aggregate an experiment's diagnostics by source location: one JSON
/// object per `(location, kind)` pair, with the total occurrence count
/// and the (sorted, deduplicated) benchmarks and backends that flagged
/// it — the ROADMAP's "source-location aggregation across runs", computed
/// from the same rows the per-issue export walks, so it rides streamed
/// results unchanged.
pub fn location_rollup_json(experiment: &SpecExperiment, only: Option<SanitizerKind>) -> String {
    #[derive(Default)]
    struct Site {
        count: usize,
        benchmarks: BTreeSet<String>,
        sanitizers: BTreeSet<&'static str>,
    }
    let mut sites: BTreeMap<(String, &'static str), Site> = BTreeMap::new();
    for row in &experiment.rows {
        for report in &row.reports {
            if only.is_some_and(|kind| report.sanitizer != kind) {
                continue;
            }
            for d in &report.diagnostics {
                let site = sites
                    .entry((d.location.to_string(), d.kind.name()))
                    .or_default();
                site.count += 1;
                site.benchmarks.insert(row.name.clone());
                site.sanitizers.insert(report.sanitizer.name());
            }
        }
    }
    let entries: Vec<String> = sites
        .into_iter()
        .map(|((location, kind), site)| {
            let benchmarks: Vec<String> = site
                .benchmarks
                .iter()
                .map(|b| format!("\"{}\"", json_escape(b)))
                .collect();
            let sanitizers: Vec<String> = site
                .sanitizers
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            format!(
                "{{\"location\":\"{}\",\"kind\":\"{}\",\"count\":{},\
                 \"benchmarks\":[{}],\"sanitizers\":[{}]}}",
                json_escape(&location),
                json_escape(kind),
                site.count,
                benchmarks.join(","),
                sanitizers.join(",")
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// The combined diagnostics report both `table_issues --json` and the
/// `sweep` CLI (`--json`, in-process or `--connect`-streamed) emit:
/// per-issue detail under `"issues"`, the cross-run source-location
/// rollup under `"locations"`.
pub fn experiment_report_json(experiment: &SpecExperiment, only: Option<SanitizerKind>) -> String {
    format!(
        "{{\"issues\":{},\"locations\":{}}}",
        experiment_issues_json(experiment, only),
        location_rollup_json(experiment, only)
    )
}

fn hist_summary_json(h: &obs::HistSummary) -> String {
    format!(
        "{{\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count, h.min, h.p50, h.p90, h.p99, h.max
    )
}

/// Render a daemon's live statistics (the `stats` wire frame) as JSON —
/// the `sweep --connect <addr> --stats --json` output.  Histogram fields
/// are the same µs summaries the wire carries.
pub fn service_stats_json(stats: &crate::wire::ServiceStats) -> String {
    let workers: Vec<String> = stats
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"slot\":{},\"addr\":\"{}\",\"live\":{},\"registered\":{},\
                 \"busy\":{},\"queued\":{},\
                 \"completed\":{},\"failed\":{},\"steals\":{},\
                 \"heartbeat_gap_us\":{},\"shard_latency_us\":{}}}",
                w.slot,
                json_escape(&w.addr),
                w.live,
                w.registered,
                w.busy,
                w.queued,
                w.completed,
                w.failed,
                w.steals,
                hist_summary_json(&w.heartbeat_gap_us),
                hist_summary_json(&w.shard_latency_us),
            )
        })
        .collect();
    let requests: Vec<String> = stats
        .requests
        .iter()
        .map(|r| {
            format!(
                "{{\"req_id\":{},\"benchmarks\":{},\"jobs_total\":{},\"jobs_done\":{},\
                 \"jobs_queued\":{}}}",
                r.req_id, r.benchmarks, r.jobs_total, r.jobs_done, r.jobs_queued
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"effective-san-sweep-stats/2\",\"queued_jobs\":{},\
         \"clients_total\":{},\"requests_total\":{},\"requests_failed\":{},\
         \"requests_cancelled\":{},\"pending_requests\":{},\"rejected_busy\":{},\
         \"workers\":[{}],\"requests\":[{}]}}",
        stats.queued_jobs,
        stats.clients_total,
        stats.requests_total,
        stats.requests_failed,
        stats.requests_cancelled,
        stats.pending_requests,
        stats.rejected_busy,
        workers.join(","),
        requests.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use effective_runtime::{Bounds, ErrorKind};
    use std::sync::Arc;

    #[test]
    fn diagnostics_render_all_fields() {
        let d = Diagnostic {
            kind: ErrorKind::SubObjectBoundsOverflow,
            expected: "int".to_string(),
            observed: "struct \"account\"".to_string(),
            offset: 32,
            bounds: Some(Bounds::new(0x10, 0x30)),
            location: Arc::from("account.c:4"),
            detail: "overflow\ninto `balance`".to_string(),
        };
        let json = diagnostic_json(&d);
        assert!(json.contains("\"kind\":\"subobject-bounds-overflow\""));
        assert!(json.contains("\\\"account\\\""), "{json}");
        assert!(json.contains("\"bounds\":{\"lo\":16,\"hi\":48}"));
        assert!(json.contains("overflow\\ninto"));
    }

    #[test]
    fn location_rollup_aggregates_across_rows_and_backends() {
        use effective_san::RunReport;
        use std::time::Duration;
        use workloads::Scale;

        let diag = |kind: ErrorKind, location: &str| Diagnostic {
            kind,
            expected: "int".to_string(),
            observed: "char".to_string(),
            offset: 0,
            bounds: None,
            location: Arc::from(location),
            detail: String::new(),
        };
        let report = |kind: SanitizerKind, diagnostics: Vec<Diagnostic>| RunReport {
            sanitizer: kind,
            result: Some(0),
            vm_error: None,
            exec: Default::default(),
            checks: Default::default(),
            errors: Default::default(),
            diagnostics,
            wall_time: Duration::ZERO,
            cost: 0.0,
            peak_memory_bytes: 0,
            legacy_check_fraction: 0.0,
            static_checks: 0,
        };
        let row = |name: &str, reports: Vec<RunReport>| SpecRow {
            name: name.to_string(),
            cpp: false,
            paper_kilo_sloc: 0.0,
            paper_type_checks_b: 0.0,
            paper_bounds_checks_b: 0.0,
            paper_issues: 0,
            source_lines: 0,
            reports,
        };
        let experiment = SpecExperiment {
            scale: Scale::Test,
            sanitizers: vec![
                SanitizerKind::EffectiveFull,
                SanitizerKind::AddressSanitizer,
            ],
            rows: vec![
                row(
                    "mcf",
                    vec![
                        report(
                            SanitizerKind::EffectiveFull,
                            vec![
                                diag(ErrorKind::UseAfterFree, "mcf.c:10"),
                                diag(ErrorKind::UseAfterFree, "mcf.c:10"),
                            ],
                        ),
                        report(
                            SanitizerKind::AddressSanitizer,
                            vec![diag(ErrorKind::UseAfterFree, "mcf.c:10")],
                        ),
                    ],
                ),
                row(
                    "soplex",
                    vec![report(
                        SanitizerKind::EffectiveFull,
                        vec![diag(ErrorKind::UseAfterFree, "mcf.c:10")],
                    )],
                ),
            ],
        };
        let rollup = location_rollup_json(&experiment, None);
        // One site, four hits, both benchmarks and both backends listed.
        assert!(rollup.contains("\"location\":\"mcf.c:10\""), "{rollup}");
        assert!(rollup.contains("\"count\":4"), "{rollup}");
        assert!(
            rollup.contains("\"benchmarks\":[\"mcf\",\"soplex\"]"),
            "{rollup}"
        );
        assert_eq!(rollup.matches("\"location\"").count(), 1, "{rollup}");

        let only = location_rollup_json(&experiment, Some(SanitizerKind::AddressSanitizer));
        assert!(only.contains("\"count\":1"), "{only}");

        let report_json = experiment_report_json(&experiment, None);
        assert!(report_json.starts_with("{\"issues\":["), "{report_json}");
        assert!(report_json.contains("\"locations\":["), "{report_json}");
    }

    #[test]
    fn service_stats_render_as_json() {
        let stats = crate::wire::ServiceStats {
            queued_jobs: 4,
            pending_requests: 1,
            rejected_busy: 3,
            clients_total: 2,
            requests_total: 1,
            requests_failed: 0,
            requests_cancelled: 0,
            workers: vec![crate::wire::WorkerStats {
                slot: 0,
                addr: "127.0.0.1:7601".to_string(),
                live: true,
                registered: true,
                busy: true,
                queued: 3,
                completed: 12,
                failed: 1,
                steals: 2,
                heartbeat_gap_us: obs::HistSummary {
                    count: 5,
                    min: 490_000,
                    p50: 524_287,
                    p90: 524_287,
                    p99: 524_287,
                    max: 512_000,
                },
                shard_latency_us: obs::HistSummary::default(),
            }],
            requests: vec![crate::wire::RequestProgress {
                req_id: 0,
                benchmarks: 2,
                jobs_total: 4,
                jobs_done: 1,
                jobs_queued: 2,
            }],
        };
        let json = service_stats_json(&stats);
        assert!(
            json.contains("\"schema\":\"effective-san-sweep-stats/2\""),
            "{json}"
        );
        assert!(json.contains("\"busy\":true"), "{json}");
        assert!(json.contains("\"registered\":true"), "{json}");
        assert!(json.contains("\"pending_requests\":1"), "{json}");
        assert!(json.contains("\"rejected_busy\":3"), "{json}");
        assert!(json.contains("\"heartbeat_gap_us\":{\"count\":5"), "{json}");
        assert!(json.contains("\"jobs_done\":1"), "{json}");
        assert!(json.contains("\"jobs_queued\":2"), "{json}");
    }

    #[test]
    fn missing_bounds_render_as_null() {
        let d = Diagnostic {
            kind: ErrorKind::UseAfterFree,
            expected: "struct S".to_string(),
            observed: "FREE".to_string(),
            offset: 0,
            bounds: None,
            location: Arc::from("uaf.c:9"),
            detail: String::new(),
        };
        assert!(diagnostic_json(&d).contains("\"bounds\":null"));
    }
}
