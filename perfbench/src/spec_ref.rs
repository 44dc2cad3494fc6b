//! `spec-ref`: the paper's headline measurement.  Closed loop on one
//! thread; a pass runs all 19 SPEC-like programs at reference scale under
//! one backend, alternating EffectiveSan and the uninstrumented control.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use effective_san::minic::Program;
use effective_san::workloads::{Scale, SpecBenchmark};
use effective_san::{run_program, RunConfig, RunReport, SanitizerKind};

use crate::hooks::CheckHooks;
use crate::layers::{self, LayerSums};
use crate::metrics::{Tally, Values};
use crate::pipeline::{compile_phases, execute, oracle_diffs, Backend, Execution, Tier};
use crate::speed::HostSpeed;
use crate::stats::{geomean, kind_medians, median, percentile};
use crate::trace::Tracer;
use crate::{inputs, Args, Outcome, SetupTimes};

/// The two backends a pass alternates between.
const KINDS: [SanitizerKind; 2] = [SanitizerKind::EffectiveFull, SanitizerKind::None];
const ENTRY: &str = "bench_main";

struct Input {
    name: &'static str,
    n: i64,
    program: Program,
}

fn setup(seed: u64) -> Vec<Input> {
    inputs::spec_programs(seed)
        .into_iter()
        .map(|(name, n)| {
            let bench = SpecBenchmark::by_name(name).expect("generated names exist");
            let program = effective_san::compile(&bench.source(Scale::Reference))
                .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
            Input { name, n, program }
        })
        .collect()
}

/// Per-run results of the untraced loop.
#[derive(Default)]
struct Untraced {
    /// Operation times (ms), each with its kind: (program, backend index).
    op_ms: Vec<((usize, usize), f64)>,
    /// Run-time samples (s) per (program, backend index).
    wall: HashMap<(usize, usize), Vec<f64>>,
    /// Summed operation time (s) of each complete pass, per backend index.
    pass_s: [Vec<f64>; 2],
    /// Latest cost estimate per (program, backend index).
    cost: HashMap<(usize, usize), f64>,
    /// Probe samples taken between the programs.
    speed: HostSpeed,
}

impl Untraced {
    /// Seconds per pass under backend `k`, as measured: the sum over
    /// programs of each program's median run time.
    fn pass_seconds(&self, programs: usize, k: usize) -> f64 {
        (0..programs).map(|i| median(&self.wall[&(i, k)])).sum()
    }
}

fn check(
    tally: &mut Tally,
    input: &Input,
    report: &RunReport,
    output: Option<&[String]>,
    oracle: &Execution,
) {
    let mut diffs = Vec::new();
    oracle_diffs(input.name, report, output, oracle, &mut diffs);
    for d in &diffs {
        eprintln!("MISMATCH {d}");
    }
    tally.record(diffs.is_empty());
}

/// The timed loop; it repeats the set-up for `seed` between programs
/// whenever `setup_times` says one is due.
fn untraced(
    inputs: &[Input],
    oracles: &[[Execution; 2]],
    seconds: f64,
    seed: u64,
    setup_times: &mut SetupTimes,
    tally: &mut Tally,
) -> Untraced {
    let mut out = Untraced::default();
    let start = Instant::now();
    let mut pass = 0;
    // Whole pairs of passes, so every program under both backends weighs
    // the same in the latency percentiles.
    while pass % 2 == 1 || pass < 2 || start.elapsed().as_secs_f64() < seconds {
        let k = pass % 2;
        let config = RunConfig::for_sanitizer(KINDS[k]);
        let mut pass_s = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            if setup_times.due() {
                setup_times.time(|| setup(seed));
            }
            out.speed.sample_if_due();
            let t = Instant::now();
            let report = run_program(&input.program, ENTRY, &[input.n], &config);
            let dt = t.elapsed().as_secs_f64();
            pass_s += dt;
            out.op_ms.push(((i, k), dt * 1e3));
            out.wall
                .entry((i, k))
                .or_default()
                .push(report.wall_time.as_secs_f64());
            out.cost.insert((i, k), report.cost);
            check(tally, input, &report, None, &oracles[i][k]);
        }
        out.pass_s[k].push(pass_s);
        pass += 1;
    }
    out
}

/// The Figure 8 view: measured wall overhead next to the cost model's.
fn overhead_table(inputs: &[Input], u: &Untraced) -> (f64, f64) {
    println!("program      n   EffectiveSan_ms  uninstrumented_ms  wall_x  cost_x");
    let (mut wall_x, mut cost_x) = (Vec::new(), Vec::new());
    for (i, input) in inputs.iter().enumerate() {
        let (eff, none) = (median(&u.wall[&(i, 0)]), median(&u.wall[&(i, 1)]));
        let (w, c) = (eff / none, u.cost[&(i, 0)] / u.cost[&(i, 1)]);
        println!(
            "{:<11}{:>4}  {:>15.3}  {:>17.3}  {:>6.3}  {:>6.3}",
            input.name,
            input.n,
            eff * 1e3,
            none * 1e3,
            w,
            c
        );
        wall_x.push(w);
        cost_x.push(c);
    }
    let (w, c) = (geomean(&wall_x), geomean(&cost_x));
    println!("geomean                                                {w:>6.3}  {c:>6.3}");
    (w, c)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_times = SetupTimes::default();
    let inputs = setup_times.time(|| setup(args.seed));
    // The slow-tier oracle, outside every timing.
    let oracles: Vec<[Execution; 2]> = inputs
        .iter()
        .map(|input| {
            KINDS.map(|kind| {
                execute(
                    &input.program,
                    ENTRY,
                    &[input.n],
                    kind,
                    Backend::Plain,
                    Tier::SlowOnly,
                    None,
                )
            })
        })
        .collect();
    let mut tally = Tally::default();
    for (input, [eff, none]) in inputs.iter().zip(&oracles) {
        if eff.report.result != none.report.result {
            eprintln!(
                "MISMATCH {}: EffectiveSan result differs from uninstrumented",
                input.name
            );
            tally.record(false);
        }
    }

    let mut values = Values::new();
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let u = untraced(
        &inputs,
        &oracles,
        phase_s,
        args.seed,
        &mut setup_times,
        &mut tally,
    );
    let (wall_x, cost_x) = overhead_table(&inputs, &u);
    let sanitized_s = u.pass_seconds(inputs.len(), 0);
    let uninstrumented_s = u.pass_seconds(inputs.len(), 1);
    if !args.trace {
        // Every timing at the reference host's speed (see `speed`).
        let scale = u.speed.scale();
        values.insert("setup_s", setup_times.median() * scale);
        values.insert("peak_rss_mb", crate::self_hwm_mb());
        let op_ms: Vec<f64> = kind_medians(&u.op_ms).iter().map(|t| t * scale).collect();
        values.insert("op_ms_p50", percentile(&op_ms, 50.0));
        values.insert("op_ms_p90", percentile(&op_ms, 90.0));
        let busy_s = op_ms.iter().sum::<f64>() / 1e3;
        values.insert("reports_per_s", op_ms.len() as f64 / busy_s);
        values.insert("sanitized_s", sanitized_s * scale);
        values.insert("uninstrumented_s", uninstrumented_s * scale);
        println!("{}", u.speed.report());
        return Ok(Outcome {
            tally,
            values,
            samples: u.op_ms.len(),
        });
    }

    // Traced run: the same passes through the counting wrapper, with
    // spans; each EffectiveSan program also runs with null hooks.
    let mut tracer = Tracer::default();
    let mut eff_ops = HashSet::new();
    let mut eff_passes = Vec::new();
    let mut control_run_ns = Vec::new();
    let mut traced_pass_s = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass % 2 == 1 || pass < 2 || start.elapsed().as_secs_f64() < phase_s {
        let k = pass % 2;
        let mut sums = LayerSums::default();
        let first_op = tracer.next_op();
        for (i, input) in inputs.iter().enumerate() {
            if i > 0 {
                tracer.next_op();
            }
            let real = execute(
                &input.program,
                ENTRY,
                &[input.n],
                KINDS[k],
                Backend::Counted(CheckHooks::Real),
                Tier::Default,
                Some(&mut tracer),
            );
            check(
                &mut tally,
                input,
                &real.report,
                Some(&real.output),
                &oracles[i][k],
            );
            let null_run_ns = if k == 0 {
                let id = tracer.enter("probe.null_hooks");
                let null = execute(
                    &input.program,
                    ENTRY,
                    &[input.n],
                    KINDS[k],
                    Backend::Counted(CheckHooks::Null),
                    Tier::Default,
                    None,
                );
                tracer.exit(id);
                null.phases.run_ns
            } else {
                0
            };
            sums.add(&real, null_run_ns);
        }
        let ops: Vec<u64> = (first_op..first_op + inputs.len() as u64).collect();
        let pass_ns = tracer.root_ns(|s| ops.contains(&s.op));
        if k == 0 {
            eff_ops.extend(ops);
            eff_passes.push(sums);
            traced_pass_s.push(pass_ns as f64 / 1e9);
        } else {
            control_run_ns.push(sums.run_ns as f64);
        }
        pass += 1;
    }

    layers::fill(
        &eff_passes,
        Some(median(&control_run_ns)),
        &tracer,
        &eff_ops,
        &mut values,
    );
    let (mut tokens, mut lex, mut parse, mut lower, mut instrs) = (0, 0, 0, 0, 0);
    for input in &inputs {
        let bench = SpecBenchmark::by_name(input.name).expect("generated names exist");
        let (program, t, l, p, w) = compile_phases(&bench.source(Scale::Reference));
        (tokens, lex, parse, lower) = (tokens + t, lex + l, parse + p, lower + w);
        instrs += program.instruction_count();
    }
    values.insert("minic.tokens", tokens as f64);
    values.insert("minic.lex_us", lex as f64 / 1e3);
    values.insert("minic.parse_us", parse as f64 / 1e3);
    values.insert("minic.lower_us", lower as f64 / 1e3);
    values.insert("minic.ir_instrs", instrs as f64);
    values.insert("core.wall_overhead_x", wall_x);
    values.insert("core.cost_overhead_x", cost_x);
    let check_dispatch_ms = values["vm.check_dispatch_ms"];
    values.insert(
        "core.check_dispatch_share",
        check_dispatch_ms / ((sanitized_s - uninstrumented_s) * 1e3),
    );
    let untraced_pass = median(&u.pass_s[0]);
    values.insert(
        "trace.overhead_pct",
        (median(&traced_pass_s) / untraced_pass - 1.0) * 100.0,
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
