//! `bug-matrix`: the Figure 1 / §6.1 detection matrix.  Closed loop on one
//! thread; each operation compiles one catalogue bug as its own program
//! and runs it under all 13 backends (instrument → VM → run → finish).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use effective_san::minic::Program;
use effective_san::workloads::{catalogue, SeededBug};
use effective_san::SanitizerKind;

use crate::hooks::CheckHooks;
use crate::inputs::{bug_source, BugOps, MAX_BUG_CALLS};
use crate::layers::{self, LayerSums};
use crate::metrics::{Tally, Values};
use crate::pipeline::{execute, oracle_diffs, Backend, Execution, Tier};
use crate::speed::HostSpeed;
use crate::stats::{kind_medians, median, percentile};
use crate::trace::Tracer;
use crate::{Args, Outcome, SetupTimes};

const KINDS: [SanitizerKind; 13] = SanitizerKind::ALL;
const ENTRY: &str = "probe_main";
const EFFECTIVE: usize = 1;
const UNINSTRUMENTED: usize = 0;

/// Slow-tier reports per (bug, n, backend index).
type Oracles = HashMap<(usize, i64, usize), Execution>;

/// Check one verdict against its oracle, against the uninstrumented
/// result, and (for EffectiveSan) for the catalogue's expected error kind.
fn verdict_ok(
    bug: &SeededBug,
    n: i64,
    k: usize,
    ex: &Execution,
    oracles: &Oracles,
    bug_idx: usize,
) -> bool {
    let mut diffs = Vec::new();
    let oracle = &oracles[&(bug_idx, n, k)];
    oracle_diffs(
        &format!("{} n={n} under {}", bug.id, KINDS[k]),
        &ex.report,
        Some(&ex.output),
        oracle,
        &mut diffs,
    );
    if ex.report.result != oracles[&(bug_idx, n, UNINSTRUMENTED)].report.result {
        diffs.push(format!(
            "{} under {}: result differs from uninstrumented",
            bug.id, KINDS[k]
        ));
    }
    if k == EFFECTIVE && ex.report.errors.issues_of(bug.expected) == 0 {
        diffs.push(format!(
            "{}: EffectiveSan did not report {:?}",
            bug.id, bug.expected
        ));
    }
    for d in &diffs {
        eprintln!("MISMATCH {d}");
    }
    diffs.is_empty()
}

#[derive(Default)]
struct Untraced {
    /// Operation times (ms), each with its kind: (bug, n).
    op_ms: Vec<((usize, i64), f64)>,
    /// Run-time samples (s) per (bug, backend index), for EffectiveSan and
    /// the uninstrumented control only: storage that grows with the
    /// operation count would make `peak_rss_mb` follow the host's speed.
    wall: HashMap<(usize, usize), Vec<f64>>,
    /// Probe samples taken between operations.
    speed: HostSpeed,
}

/// Set-up: generate every bug's program and check that it compiles.
fn setup(bugs: &[SeededBug]) -> Result<Vec<String>, String> {
    let sources = bugs.iter().map(bug_source).collect::<Vec<_>>();
    for (bug, source) in bugs.iter().zip(&sources) {
        effective_san::compile(source).map_err(|e| format!("{}: {e}", bug.id))?;
    }
    Ok(sources)
}

/// The timed loop; it repeats the set-up between operations whenever
/// `setup_times` says one is due.
fn untraced(
    sources: &[String],
    oracles: &Oracles,
    seed: u64,
    seconds: f64,
    setup_times: &mut SetupTimes,
    tally: &mut Tally,
) -> Untraced {
    let bugs = catalogue();
    let mut out = Untraced::default();
    let start = Instant::now();
    let mut ops = BugOps::new(seed);
    while out.op_ms.len() < bugs.len() || start.elapsed().as_secs_f64() < seconds {
        if setup_times.due() {
            setup_times
                .time(|| setup(&bugs))
                .expect("the set-up succeeded before timing");
        }
        out.speed.sample_if_due();
        let (b, n) = ops.next().expect("endless stream");
        let t = Instant::now();
        let program = effective_san::compile(&sources[b]).expect("catalogue bug compiles");
        let verdicts: Vec<Execution> = KINDS
            .iter()
            .map(|&kind| {
                execute(
                    &program,
                    ENTRY,
                    &[n],
                    kind,
                    Backend::Plain,
                    Tier::Default,
                    None,
                )
            })
            .collect();
        out.op_ms.push(((b, n), t.elapsed().as_secs_f64() * 1e3));
        let mut ok = true;
        for (k, ex) in verdicts.iter().enumerate() {
            if k == EFFECTIVE || k == UNINSTRUMENTED {
                out.wall
                    .entry((b, k))
                    .or_default()
                    .push(ex.report.wall_time.as_secs_f64());
            }
            ok &= verdict_ok(&bugs[b], n, k, ex, oracles, b);
        }
        tally.record(ok);
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bugs = catalogue();
    let mut setup_times = SetupTimes::default();
    let sources = setup_times.time(|| setup(&bugs))?;
    let programs: Vec<Program> = sources
        .iter()
        .map(|s| effective_san::compile(s).expect("compiled in setup"))
        .collect();
    let mut oracles = Oracles::new();
    for (b, program) in programs.iter().enumerate() {
        for n in 1..=MAX_BUG_CALLS {
            for (k, &kind) in KINDS.iter().enumerate() {
                let ex = execute(
                    program,
                    ENTRY,
                    &[n],
                    kind,
                    Backend::Plain,
                    Tier::SlowOnly,
                    None,
                );
                oracles.insert((b, n, k), ex);
            }
        }
    }

    let mut tally = Tally::default();
    let mut values = Values::new();
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let u = untraced(
        &sources,
        &oracles,
        args.seed,
        phase_s,
        &mut setup_times,
        &mut tally,
    );
    if !args.trace {
        let per_pass =
            |k: usize| -> f64 { (0..bugs.len()).map(|b| median(&u.wall[&(b, k)])).sum() };
        // Every timing at the reference host's speed (see `speed`).
        let scale = u.speed.scale();
        values.insert("setup_s", setup_times.median() * scale);
        values.insert("peak_rss_mb", crate::self_hwm_mb());
        let op_ms: Vec<f64> = kind_medians(&u.op_ms).iter().map(|t| t * scale).collect();
        values.insert("op_ms_p50", percentile(&op_ms, 50.0));
        values.insert("op_ms_p90", percentile(&op_ms, 90.0));
        let busy_s = op_ms.iter().sum::<f64>() / 1e3;
        values.insert("reports_per_s", (op_ms.len() * KINDS.len()) as f64 / busy_s);
        values.insert("sanitized_s", per_pass(EFFECTIVE) * scale);
        values.insert("uninstrumented_s", per_pass(UNINSTRUMENTED) * scale);
        println!("{}", u.speed.report());
        return Ok(Outcome {
            tally,
            values,
            samples: u.op_ms.len(),
        });
    }

    // Traced run: every operation again with spans, through the counting
    // wrapper; each verdict also runs with null hooks outside the span.
    let mut tracer = Tracer::default();
    let mut op_ids = HashSet::new();
    let mut units = Vec::new();
    let (mut lex, mut parse, mut lower, mut tokens, mut instrs) = (vec![], vec![], vec![], 0, 0);
    let mut traced_op_ms = Vec::new();
    let start = Instant::now();
    let mut ops = BugOps::new(args.seed);
    while units.len() < bugs.len() || start.elapsed().as_secs_f64() < phase_s {
        let (b, n) = ops.next().expect("endless stream");
        let op = tracer.next_op();
        op_ids.insert(op);
        let source = &sources[b];
        let lex_ns = tracer.span("probe.lex", || {
            let t = Instant::now();
            tokens += effective_san::minic::lexer::lex(source)
                .expect("lexes")
                .len();
            t.elapsed().as_nanos() as u64
        });
        let root = tracer.enter("core.op");
        let t = Instant::now();
        let unit = tracer.span("minic.parse", || {
            effective_san::minic::parser::parse(source).expect("parses")
        });
        let parse_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let program = tracer.span("minic.lower", || {
            effective_san::minic::lower::lower(&unit, source.lines().count()).expect("lowers")
        });
        lower.push(t.elapsed().as_nanos() as f64);
        lex.push(lex_ns as f64);
        parse.push(parse_ns.saturating_sub(lex_ns) as f64);
        instrs += program.instruction_count();
        let mut sums = LayerSums::default();
        let mut reals = Vec::with_capacity(KINDS.len());
        for &kind in &KINDS {
            let real = execute(
                &program,
                ENTRY,
                &[n],
                kind,
                Backend::Counted(CheckHooks::Real),
                Tier::Default,
                Some(&mut tracer),
            );
            reals.push(real);
        }
        tracer.exit(root);
        let mut ok = true;
        for (k, real) in reals.iter().enumerate() {
            ok &= verdict_ok(&bugs[b], n, k, real, &oracles, b);
            let id = tracer.enter("probe.null_hooks");
            let null = execute(
                &program,
                ENTRY,
                &[n],
                KINDS[k],
                Backend::Counted(CheckHooks::Null),
                Tier::Default,
                None,
            );
            tracer.exit(id);
            sums.add(real, null.phases.run_ns);
        }
        tally.record(ok);
        traced_op_ms.push(tracer.root_ns(|s| s.op == op) as f64 / 1e6);
        units.push(sums);
    }

    layers::fill(&units, None, &tracer, &op_ids, &mut values);
    let ops_n = units.len() as f64;
    values.insert("minic.lex_us", median(&lex) / 1e3);
    values.insert("minic.parse_us", median(&parse) / 1e3);
    values.insert("minic.lower_us", median(&lower) / 1e3);
    values.insert("minic.tokens", tokens as f64 / ops_n);
    values.insert("minic.ir_instrs", instrs as f64 / ops_n);
    values.insert(
        "trace.overhead_pct",
        (median(&traced_op_ms) / median(&u.op_ms.iter().map(|(_, t)| *t).collect::<Vec<_>>())
            - 1.0)
            * 100.0,
    );
    tracer
        .write_jsonl(&args.trace_out)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Outcome {
        tally,
        values,
        samples: u.op_ms.len(),
    })
}
