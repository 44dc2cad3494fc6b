//! Round-trip property tests for the hand-rolled sweep wire format.
//!
//! The serde shim is a no-op, so nothing checks these encoders but this
//! suite: every structure the coordinator/worker protocol ships —
//! [`SanStats`], [`Diagnostic`], [`ErrorStats`], [`RunReport`], [`SpecRow`]
//! — must survive encode → decode byte-for-byte, under hostile string
//! contents (tabs, newlines, backslashes, `=`/`-` markers, non-ASCII),
//! empty diagnostic lists, extreme (`u64::MAX`) offsets and counters, f64
//! bit patterns including NaNs and infinities, and every one of the 13
//! registered [`SanitizerKind`] names.
//!
//! Struct equality would lie for NaN-carrying `f64` fields, so the
//! round-trip is asserted on the *encoded bytes*: decode, re-encode, and
//! compare the two encodings — equality there is exactly bit-identity.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use effective_runtime::{Bounds, ErrorKind, ErrorStats};
use effective_san::{Parallelism, RunReport, SpecRow};
use obs::HistSummary;
use proptest::prelude::*;
use san_api::{Diagnostic, SanStats, SanitizerKind};
use sweep::wire::{
    self, Hello, RequestProgress, ServiceEvent, ServiceStats, SliceLines, SweepRequest, WireError,
    WorkerStats,
};
use vm::ExecStats;
use workloads::Scale;

/// Characters chosen to stress the escaping layer: protocol delimiters,
/// escape introducers, option markers, and multi-byte code points.
const PALETTE: [char; 12] = [
    'a', 'Z', '0', '\t', '\n', '\r', '\\', '=', '-', '.', 'β', '晴',
];

fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u64..PALETTE.len() as u64, 0..14)
        .prop_map(|idx| idx.into_iter().map(|i| PALETTE[i as usize]).collect())
}

fn kind_strategy() -> impl Strategy<Value = ErrorKind> {
    (0u64..ErrorKind::all().len() as u64).prop_map(|i| ErrorKind::all()[i as usize])
}

fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

fn diagnostic_strategy() -> impl Strategy<Value = Diagnostic> {
    (
        (kind_strategy(), string_strategy(), string_strategy()),
        offset_strategy(),
        (any::<bool>(), any::<u64>(), any::<u64>()),
        (string_strategy(), string_strategy()),
    )
        .prop_map(
            |((kind, expected, observed), offset, (has_bounds, lo, hi), (location, detail))| {
                Diagnostic {
                    kind,
                    expected,
                    observed,
                    offset,
                    bounds: has_bounds.then_some(Bounds { lo, hi }),
                    location: Arc::from(location.as_str()),
                    detail,
                }
            },
        )
}

fn san_stats_strategy() -> impl Strategy<Value = SanStats> {
    prop::collection::vec(offset_strategy(), 16..17).prop_map(|v| SanStats {
        type_checks: v[0],
        legacy_type_checks: v[1],
        failed_type_checks: v[2],
        bounds_checks: v[3],
        failed_bounds_checks: v[4],
        bounds_narrows: v[5],
        bounds_gets: v[6],
        bounds_table_loads: v[7],
        cast_checks: v[8],
        access_checks: v[9],
        typed_allocations: v[10],
        typed_frees: v[11],
        allocations: v[12],
        frees: v[13],
        check_cache_hits: v[14],
        check_cache_misses: v[15],
    })
}

fn error_stats_strategy() -> impl Strategy<Value = ErrorStats> {
    (
        (any::<u64>(), any::<u64>()),
        prop::collection::vec((kind_strategy(), any::<u64>()), 0..8),
        prop::collection::vec((kind_strategy(), any::<u64>()), 0..8),
    )
        .prop_map(|((total_events, distinct_issues), evk, isk)| ErrorStats {
            total_events,
            distinct_issues,
            events_by_kind: evk.into_iter().collect::<HashMap<_, _>>(),
            issues_by_kind: isk.into_iter().collect::<HashMap<_, _>>(),
        })
}

fn report_strategy() -> impl Strategy<Value = RunReport> {
    (
        (
            0u64..SanitizerKind::ALL.len() as u64,
            (any::<bool>(), any::<i64>()),
            (any::<bool>(), string_strategy()),
        ),
        prop::collection::vec(any::<u64>(), 10..11),
        san_stats_strategy(),
        error_stats_strategy(),
        (
            prop::collection::vec(diagnostic_strategy(), 0..4),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), offset_strategy()),
        ),
    )
        .prop_map(
            |(
                (kind_idx, (has_result, result), (has_vm_error, vm_error)),
                exec,
                checks,
                errors,
                (diagnostics, (wall_nanos, cost_bits, legacy_bits), (peak, static_checks)),
            )| {
                RunReport {
                    sanitizer: SanitizerKind::ALL[kind_idx as usize],
                    result: has_result.then_some(result),
                    vm_error: has_vm_error.then_some(vm_error),
                    exec: ExecStats {
                        instructions: exec[0],
                        check_instructions: exec[1],
                        loads: exec[2],
                        stores: exec[3],
                        calls: exec[4],
                        allocations: exec[5],
                        frees: exec[6],
                        tier_promotions: exec[7],
                        fast_calls: exec[8],
                        checks_elided: exec[9],
                    },
                    checks,
                    errors,
                    diagnostics,
                    wall_time: Duration::from_nanos(wall_nanos),
                    cost: f64::from_bits(cost_bits),
                    peak_memory_bytes: peak,
                    legacy_check_fraction: f64::from_bits(legacy_bits),
                    static_checks: (static_checks % (usize::MAX as u64)) as usize,
                }
            },
        )
}

fn spec_row_strategy() -> impl Strategy<Value = SpecRow> {
    (
        (string_strategy(), any::<bool>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0u32..1000, any::<u64>()),
        prop::collection::vec(report_strategy(), 0..4),
    )
        .prop_map(
            |((name, cpp), (sloc_bits, tchk_bits, bchk_bits), (paper_issues, lines), reports)| {
                SpecRow {
                    name,
                    cpp,
                    paper_kilo_sloc: f64::from_bits(sloc_bits),
                    paper_type_checks_b: f64::from_bits(tchk_bits),
                    paper_bounds_checks_b: f64::from_bits(bchk_bits),
                    paper_issues,
                    source_lines: (lines % (usize::MAX as u64)) as usize,
                    reports,
                }
            },
        )
}

fn backends_strategy() -> impl Strategy<Value = Vec<SanitizerKind>> {
    prop::collection::vec(0u64..SanitizerKind::ALL.len() as u64, 0..6).prop_map(|idx| {
        idx.into_iter()
            .map(|i| SanitizerKind::ALL[i as usize])
            .collect()
    })
}

fn request_strategy() -> impl Strategy<Value = SweepRequest> {
    (
        prop_oneof![
            Just(Scale::Test),
            Just(Scale::Small),
            Just(Scale::Reference)
        ],
        any::<bool>(),
        prop::collection::vec(string_strategy(), 0..5),
        backends_strategy(),
    )
        .prop_map(|(scale, parallel, benchmarks, backends)| SweepRequest {
            scale,
            parallelism: if parallel {
                Parallelism::Parallel
            } else {
                Parallelism::Sequential
            },
            benchmarks,
            backends,
        })
}

fn hist_summary_strategy() -> impl Strategy<Value = HistSummary> {
    prop::collection::vec(offset_strategy(), 6..7).prop_map(|v| HistSummary {
        count: v[0],
        min: v[1],
        p50: v[2],
        p90: v[3],
        p99: v[4],
        max: v[5],
    })
}

fn worker_stats_strategy() -> impl Strategy<Value = WorkerStats> {
    (
        (any::<u64>(), string_strategy()),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (hist_summary_strategy(), hist_summary_strategy()),
    )
        .prop_map(
            |(
                (slot, addr),
                (live, registered, busy),
                (queued, completed, failed, steals),
                (hb, lat),
            )| {
                WorkerStats {
                    slot: (slot % (usize::MAX as u64)) as usize,
                    addr,
                    live,
                    registered,
                    busy,
                    queued,
                    completed,
                    failed,
                    steals,
                    heartbeat_gap_us: hb,
                    shard_latency_us: lat,
                }
            },
        )
}

fn service_stats_strategy() -> impl Strategy<Value = ServiceStats> {
    (
        prop::collection::vec(any::<u64>(), 7..8),
        prop::collection::vec(worker_stats_strategy(), 0..4),
        prop::collection::vec(prop::collection::vec(any::<u64>(), 5..6), 0..4),
    )
        .prop_map(|(g, workers, requests)| ServiceStats {
            queued_jobs: g[0],
            clients_total: g[1],
            requests_total: g[2],
            requests_failed: g[3],
            requests_cancelled: g[4],
            pending_requests: g[5],
            rejected_busy: g[6],
            workers,
            requests: requests
                .into_iter()
                .map(|r| RequestProgress {
                    req_id: r[0],
                    benchmarks: r[1],
                    jobs_total: r[2],
                    jobs_done: r[3],
                    jobs_queued: r[4],
                })
                .collect(),
        })
}

fn service_event_strategy() -> impl Strategy<Value = ServiceEvent> {
    prop_oneof![
        (any::<u64>(), spec_row_strategy()).prop_map(|(index, row)| ServiceEvent::Row {
            index: (index % (usize::MAX as u64)) as usize,
            row,
        }),
        any::<u64>().prop_map(|rows| ServiceEvent::Done {
            rows: (rows % (usize::MAX as u64)) as usize,
        }),
        string_strategy().prop_map(|message| ServiceEvent::Failed { message }),
    ]
}

proptest! {
    /// `SanStats` round-trips exactly, including `u64::MAX` counters.
    #[test]
    fn san_stats_round_trip(stats in san_stats_strategy()) {
        let line = wire::encode_san_stats(&stats);
        let decoded = wire::decode_san_stats(&line).expect("decode");
        prop_assert_eq!(decoded, stats);
        prop_assert_eq!(wire::encode_san_stats(&decoded), line);
    }

    /// `Diagnostic` round-trips exactly under hostile strings, optional
    /// bounds, and extreme offsets.
    #[test]
    fn diagnostic_round_trip(diag in diagnostic_strategy()) {
        let line = wire::encode_diagnostic(&diag);
        let decoded = wire::decode_diagnostic(&line).expect("decode");
        prop_assert_eq!(&decoded, &diag);
        prop_assert_eq!(wire::encode_diagnostic(&decoded), line);
    }

    /// `ErrorStats` round-trips exactly; the per-kind maps re-encode to
    /// the same bytes regardless of `HashMap` iteration order.
    #[test]
    fn error_stats_round_trip(errors in error_stats_strategy()) {
        let mut lines = Vec::new();
        wire::encode_error_stats(&errors, &mut lines);
        let mut src = SliceLines::new(&lines);
        let decoded = wire::decode_error_stats(&mut src).expect("decode");
        prop_assert_eq!(&decoded, &errors);
        let mut again = Vec::new();
        wire::encode_error_stats(&decoded, &mut again);
        prop_assert_eq!(again, lines);
    }

    /// Whole `SpecRow` blocks — including empty report lists and empty
    /// diagnostics — re-encode to byte-identical lines after a decode
    /// (bit-identity even where NaN `f64`s make struct equality useless).
    #[test]
    fn spec_row_round_trip(row in spec_row_strategy()) {
        let mut lines = Vec::new();
        wire::encode_spec_row(&row, &mut lines);
        let mut src = SliceLines::new(&lines);
        let decoded = wire::decode_spec_row(&mut src).expect("decode");
        let mut again = Vec::new();
        wire::encode_spec_row(&decoded, &mut again);
        prop_assert_eq!(again, lines);
        prop_assert_eq!(decoded.reports.len(), row.reports.len());
    }

    /// Worker `hello` frames round-trip for any core count and any subset
    /// of registered backends (order preserved, duplicates allowed).
    #[test]
    fn hello_round_trip(cores in any::<u64>(), backends in backends_strategy()) {
        let hello = Hello {
            cores: (cores % (usize::MAX as u64)) as usize,
            backends,
        };
        let line = wire::encode_hello(&hello);
        let decoded = wire::decode_hello(&line).expect("decode");
        prop_assert_eq!(&decoded, &hello);
        prop_assert_eq!(wire::encode_hello(&decoded), line);
    }

    /// Every heartbeat is recognised as one, for any sequence number —
    /// and no other v4 frame is ever mistaken for a heartbeat.
    #[test]
    fn heartbeats_are_recognised_and_unambiguous(seq in any::<u64>(), s in string_strategy()) {
        prop_assert!(wire::is_heartbeat(&wire::encode_heartbeat(seq)));
        for frame in [
            wire::encode_accepted(seq as usize % 1000),
            format!("sfail\t{}", s),
            wire::encode_hello(&Hello { cores: 1, backends: Vec::new() }),
        ] {
            prop_assert!(!wire::is_heartbeat(&frame), "misread as heartbeat: {}", frame);
        }
    }

    /// Client `request` blocks round-trip under hostile benchmark names
    /// (tabs, newlines, commas-adjacent code points, non-ASCII) and any
    /// scale / parallelism / backend-list combination.
    #[test]
    fn request_round_trip(request in request_strategy()) {
        let lines = wire::encode_request(&request);
        let mut src = SliceLines::new(&lines);
        let decoded = wire::decode_request(&mut src)
            .expect("decode")
            .expect("a request block is present, not end-of-stream");
        prop_assert_eq!(&decoded, &request);
        prop_assert_eq!(wire::encode_request(&decoded), lines);
    }

    /// `accepted` acknowledgements round-trip for any row count.
    #[test]
    fn accepted_round_trip(rows in any::<u64>()) {
        let rows = (rows % (usize::MAX as u64)) as usize;
        let line = wire::encode_accepted(rows);
        prop_assert_eq!(wire::decode_accepted(&line).expect("decode"), rows);
    }

    /// Streamed service events — `srow` blocks carrying full `SpecRow`s,
    /// `sdone`, and `sfail` with hostile messages — re-encode to
    /// byte-identical lines after a decode (bit-identity covers the NaN
    /// `f64`s struct equality cannot).
    #[test]
    fn service_event_round_trip(event in service_event_strategy()) {
        let lines = wire::encode_service_event(&event);
        let mut src = SliceLines::new(&lines);
        let decoded = wire::decode_service_event(&mut src).expect("decode");
        prop_assert_eq!(wire::encode_service_event(&decoded), lines);
    }

    /// Any handshake line that is not *exactly* this build's produces a
    /// clean `WireError::Version` (never a panic), and when the peer's
    /// line parses as a different version the rendered error names both
    /// version numbers so the skew is diagnosable from the message alone.
    #[test]
    fn version_skew_is_rejected_diagnosably(version in any::<u32>(), junk in string_strategy()) {
        let line = if version == wire::WIRE_VERSION {
            format!("effective-san-sweep-wire {}", u64::from(version) + 1)
        } else {
            format!("effective-san-sweep-wire {version}")
        };
        let err = wire::check_handshake(&line).expect_err("skewed handshake must be rejected");
        let is_version = matches!(err, WireError::Version { .. });
        prop_assert!(is_version, "expected WireError::Version, got {}", err);
        let rendered = err.to_string();
        prop_assert!(
            rendered.contains(&format!("{}", wire::WIRE_VERSION)),
            "error must name this build's version: {}", rendered
        );
        let peer = wire::handshake_version(&line).expect("peer line carries a version");
        prop_assert!(
            rendered.contains(&format!("wire version {peer}")),
            "error must name the peer's version: {}", rendered
        );
        // Arbitrary garbage (no version at all) is also a clean rejection.
        if junk != wire::HANDSHAKE {
            let err = wire::check_handshake(&junk).expect_err("garbage handshake");
            let is_version = matches!(err, WireError::Version { .. });
            prop_assert!(is_version, "expected WireError::Version, got {}", err);
        }
    }

    /// Truncating a multi-line frame — a `request` block or an `srow`
    /// block — at *any* interior point yields a loud `WireError`
    /// (`UnexpectedEof` once the header has committed to more lines),
    /// never a panic and never a silently short decode.
    #[test]
    fn truncated_frames_fail_loudly(request in request_strategy(), row in spec_row_strategy()) {
        let lines = wire::encode_request(&request);
        for keep in 1..lines.len() {
            let mut src = SliceLines::new(&lines[..keep]);
            let err = wire::decode_request(&mut src)
                .expect_err("a truncated request block must not decode");
            let is_eof = matches!(err, WireError::UnexpectedEof { .. });
            prop_assert!(is_eof, "expected WireError::UnexpectedEof, got {}", err);
        }

        let event = ServiceEvent::Row { index: 0, row };
        let lines = wire::encode_service_event(&event);
        for keep in 1..lines.len() {
            let mut src = SliceLines::new(&lines[..keep]);
            let err = wire::decode_service_event(&mut src)
                .expect_err("a truncated srow block must not decode");
            let is_eof = matches!(err, WireError::UnexpectedEof { .. });
            prop_assert!(is_eof, "expected WireError::UnexpectedEof, got {}", err);
        }
    }

    /// Wire-v7 `auth` frames round-trip hostile tokens, `authfail`
    /// frames round-trip hostile reasons, and neither is ever mistaken
    /// for the other.
    #[test]
    fn auth_frames_round_trip_and_stay_unambiguous(token in string_strategy(),
                                                   reason in string_strategy()) {
        let frame = wire::encode_auth(&token);
        prop_assert!(wire::is_auth(&frame));
        prop_assert_eq!(wire::decode_auth(&frame).expect("decode auth"), token);
        prop_assert!(wire::parse_auth_reject(&frame).is_none(), "auth read as authfail");

        let reject = wire::encode_auth_reject(&reason);
        prop_assert!(!wire::is_auth(&reject), "authfail read as auth");
        prop_assert_eq!(
            wire::parse_auth_reject(&reject).expect("parse authfail"),
            reason
        );
    }

    /// Wire-v7 `busy` rejects round-trip any retry hint and hostile
    /// message, and no other frame parses as busy.
    #[test]
    fn busy_frames_round_trip(retry_after_ms in any::<u64>(), message in string_strategy()) {
        let frame = wire::encode_busy(retry_after_ms, &message);
        let (ms, msg) = wire::parse_busy(&frame)
            .expect("a busy frame parses as busy")
            .expect("well-formed");
        prop_assert_eq!(ms, retry_after_ms);
        prop_assert_eq!(msg, message);
        for other in [
            wire::encode_auth(&message),
            wire::encode_auth_reject(&message),
            wire::encode_heartbeat(retry_after_ms),
        ] {
            prop_assert!(wire::parse_busy(&other).is_none(), "misread as busy: {}", other);
        }
    }

    /// The token gate, on either side of a connection, accepts exactly a
    /// matching `auth` line and rejects a mismatch or a bare command —
    /// with a reason that never contains either side's token.
    #[test]
    fn auth_gate_accepts_only_matching_tokens(token in string_strategy(),
                                              wrong in string_strategy()) {
        let lines = vec![wire::encode_auth(&token)];
        let mut src = SliceLines::new(&lines);
        let accepted = wire::auth_gate(&mut src, &token);
        prop_assert!(accepted.is_ok(), "matching token not accepted cleanly");

        if wrong != token {
            let mut src = SliceLines::new(&lines);
            match wire::auth_gate(&mut src, &wrong) {
                // The reason is one of two fixed strings — structurally
                // incapable of echoing either side's token.
                Err(reason) => prop_assert_eq!(reason, "auth token mismatch"),
                Ok(()) => prop_assert!(false, "mismatch accepted"),
            }
        }
        // An open (tokenless) side's first-line rule swallows the auth
        // line and resumes.
        let mut src = SliceLines::new(&lines);
        let open = wire::first_line(&mut src).expect("first line");
        prop_assert!(open.is_none(), "open side did not swallow the auth line");
    }

    /// Wire-v7 `stats` blocks — with live/registered flags, admission
    /// counters, and per-request queue depths — round-trip exactly under
    /// hostile worker addresses, and truncation at any interior point is
    /// a loud `UnexpectedEof`.
    #[test]
    fn stats_round_trip_and_truncation_fails_loudly(stats in service_stats_strategy()) {
        let lines = wire::encode_stats(&stats);
        let mut src = SliceLines::new(&lines);
        let decoded = wire::decode_stats(&mut src).expect("decode stats");
        prop_assert_eq!(&decoded, &stats);
        prop_assert_eq!(wire::encode_stats(&decoded), lines);

        for keep in 1..lines.len() {
            let mut src = SliceLines::new(&lines[..keep]);
            let err = wire::decode_stats(&mut src)
                .expect_err("a truncated stats block must not decode");
            let is_eof = matches!(err, WireError::UnexpectedEof { .. });
            prop_assert!(is_eof, "expected WireError::UnexpectedEof, got {}", err);
        }
    }
}

/// The concrete skew this PR introduces: a wire-v6 peer dialing this
/// v7 build is rejected with an error naming *both* versions, so a
/// mixed-fleet upgrade diagnoses itself from the message alone.
#[test]
fn v6_peers_are_rejected_naming_both_versions() {
    assert_eq!(wire::WIRE_VERSION, 7, "bump this test alongside the wire");
    let err = wire::check_handshake("effective-san-sweep-wire 6")
        .expect_err("a v6 handshake must be rejected by a v7 build");
    assert!(matches!(err, WireError::Version { .. }), "{err}");
    let rendered = err.to_string();
    assert!(rendered.contains('6'), "peer version missing: {rendered}");
    assert!(rendered.contains('7'), "local version missing: {rendered}");
}

/// Every one of the 13 registered backend names survives the report
/// header round trip (the wire spells backends by registry name).
#[test]
fn all_thirteen_sanitizer_names_round_trip_in_reports() {
    assert_eq!(SanitizerKind::ALL.len(), 13);
    for kind in SanitizerKind::ALL {
        let report = RunReport {
            sanitizer: kind,
            result: Some(7),
            vm_error: None,
            exec: ExecStats::default(),
            checks: SanStats::default(),
            errors: ErrorStats::default(),
            diagnostics: Vec::new(),
            wall_time: Duration::from_nanos(42),
            cost: 1.5,
            peak_memory_bytes: 4096,
            legacy_check_fraction: 0.011,
            static_checks: 3,
        };
        let mut lines = Vec::new();
        wire::encode_run_report(&report, &mut lines);
        let mut src = SliceLines::new(&lines);
        let decoded = wire::decode_run_report(&mut src).expect("decode");
        assert_eq!(decoded, report, "round trip failed for {kind}");
    }
}

/// An empty diagnostics list stays empty (and costs exactly one line).
#[test]
fn empty_diagnostics_round_trip() {
    let report = RunReport {
        sanitizer: SanitizerKind::None,
        result: None,
        vm_error: Some(String::new()),
        exec: ExecStats::default(),
        checks: SanStats::default(),
        errors: ErrorStats::default(),
        diagnostics: Vec::new(),
        wall_time: Duration::ZERO,
        cost: 0.0,
        peak_memory_bytes: 0,
        legacy_check_fraction: 0.0,
        static_checks: 0,
    };
    let mut lines = Vec::new();
    wire::encode_run_report(&report, &mut lines);
    assert!(lines.contains(&"diags\t0".to_string()));
    let mut src = SliceLines::new(&lines);
    assert_eq!(wire::decode_run_report(&mut src).expect("decode"), report);
}
