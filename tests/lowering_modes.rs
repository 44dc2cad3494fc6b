//! The lowering contract for register variables, run end to end.
//!
//! `minic::lower` lowers each full expression in one of two modes: with
//! no assignment below the expression's root, reads of register
//! variables yield the variables' own slots and a root assignment writes
//! its variable directly; with one, every read and every assigned value
//! is copied.  Either way the program must compute what a left-to-right
//! evaluation computes.  Every case here runs uninstrumented and under
//! EffectiveSan, in the fast tier (`VmConfig::default()`, every activation
//! fast) and in the slow tier (`promote_after_calls: u32::MAX`), as
//! `tiered_differential.rs` builds them, and must return the expected
//! value in all four.
//!
//! The hand-written cases pin assignments nested in expressions,
//! chained assignments, conditions that assign, initialisers from
//! variables and postfix `++`/`--`, whose value is the old one.  The
//! property generates straight-line functions over four `int` register
//! variables and checks each against a small left-to-right evaluator.

use std::sync::Arc;

use effective_san::vm::{Value, Vm, VmConfig};
use effective_san::{instrument, minic, run_program, ErrorKind, RunConfig, SanitizerKind};
use proptest::prelude::*;

/// Run `run(args...)` of `source` under both backends in both tiers and
/// return the four results, labelled.
fn results(source: &str, args: &[i64]) -> Vec<(String, Option<i64>)> {
    let program =
        minic::compile(source).unwrap_or_else(|e| panic!("program must compile: {e}\n{source}"));
    let args: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
    let mut out = Vec::new();
    for kind in [SanitizerKind::None, SanitizerKind::EffectiveFull] {
        let instrumented = Arc::new(instrument(&program, kind));
        for fast in [true, false] {
            let mut config = VmConfig {
                sanitizer: kind,
                ..Default::default()
            };
            if !fast {
                config.promote_after_calls = u32::MAX;
            }
            let mut vm = Vm::new(instrumented.clone(), config);
            let result = vm.run("run", &args);
            let exec = vm.stats();
            if fast {
                assert_eq!(exec.fast_calls, exec.calls, "an activation ran slow");
            } else {
                assert_eq!(exec.fast_calls, 0, "the slow tier ran fast");
            }
            let tier = if fast { "fast" } else { "slow" };
            out.push((
                format!("{kind}/{tier}"),
                match result {
                    Ok(Value::Int(v)) => Some(v),
                    _ => None,
                },
            ));
        }
    }
    out
}

fn assert_returns(source: &str, args: &[i64], expected: i64) {
    for (run, got) in results(source, args) {
        assert_eq!(got, Some(expected), "{run} with args {args:?}:\n{source}");
    }
}

#[test]
fn an_assignment_inside_an_operand_sees_the_operands_read_before_it() {
    assert_returns("int run(int n) { int x = n; return x + (x = 5); }", &[2], 7);
    assert_returns(
        "int run(int n) { int x = n; return (x = x + 1) + x; }",
        &[1],
        4,
    );
    assert_returns(
        "int run(int n) { int x = n; return x + (x = x + 1); }",
        &[1],
        3,
    );
    assert_returns(
        "int g(int a, int b) { return a * 10 + b; }
         int run(int n) { int x = n; return g(x, x = 7); }",
        &[1],
        17,
    );
}

#[test]
fn a_chained_assignment_sets_every_variable() {
    assert_returns(
        "int run(int n) { int a = 0; int b = 0; a = b = n + 1; return a * 100 + b; }",
        &[4],
        505,
    );
}

#[test]
fn a_condition_that_assigns_branches_on_the_new_value() {
    let source = "int g(int v) { return v - 3; }
         int run(int n) {
             int x = 1;
             int r = 0;
             if ((x = g(n))) { r = 1; } else { r = 2; }
             return r * 10 + x;
         }";
    assert_returns(source, &[3], 20);
    assert_returns(source, &[5], 12);
}

#[test]
fn values_copied_out_of_a_variable_survive_its_next_assignment() {
    assert_returns(
        "int run(int n) { int a = n; int b = a; a = 9; return b * 10 + a; }",
        &[4],
        49,
    );
    let ternary = "int run(int n) {
             int x = n;
             int y = 0;
             y = x > 3 ? x : 3;
             x = 0;
             return y * 10 + x;
         }";
    assert_returns(ternary, &[7], 70);
    assert_returns(ternary, &[1], 30);
    let logical = "int run(int n) {
             int x = n;
             int y = (x > 3) && (x < 9);
             int z = 0;
             z = (x < 3) || (x > 9);
             x = 0;
             return y * 100 + z * 10 + x;
         }";
    assert_returns(logical, &[5], 100);
    assert_returns(logical, &[10], 10);
}

#[test]
fn postfix_increment_initialises_with_the_old_value() {
    assert_returns(
        "int run(int n) { int i = n; int a = i++; return a * 10 + i; }",
        &[5],
        56,
    );
}

#[test]
fn postfix_decrement_in_a_condition_tests_the_old_value() {
    assert_returns(
        "int run(int k) { int n = k; int c = 0; while (n-- > 0) c++; return c * 100 + n; }",
        &[3],
        299,
    );
}

#[test]
fn postfix_increment_in_a_subscript_indexes_with_the_old_value() {
    assert_returns(
        "int run(int n) {
             int a[2];
             a[0] = 0;
             a[1] = 0;
             int i = n;
             a[i++] = 7;
             return a[0] * 10 + a[1] + i * 100;
         }",
        &[0],
        170,
    );
}

#[test]
fn postfix_on_memory_and_pointers_yields_the_old_value() {
    assert_returns(
        "int run(int n) {
             int a[3];
             a[0] = n;
             a[1] = 5;
             int *p = a;
             int v = *p++;
             int w = a[1]--;
             return v * 100 + w * 10 + *p;
         }",
        &[4],
        454,
    );
}

#[test]
fn a_returned_pointer_variable_keeps_its_escape_check() {
    // The first `return p` sits above every other use of `p` in the body.
    // With n = 6 the loop walks `p` past the end of its four-`int` object
    // before that return hands it out: an escaping bounds overflow.
    let source = "int *f(int *p, int n) {
             while (n > 0) {
                 if (n == 1) return p;
                 p[0] = 1;
                 p = p + 1;
                 n = n - 1;
             }
             return p;
         }
         int run(int n) {
             int *a = (int *)malloc(4 * sizeof(int));
             int *q = f(a, n);
             free(a);
             return 0;
         }";
    let program = minic::compile(source).expect("compile");
    let report = run_program(
        &program,
        "run",
        &[6],
        &RunConfig::for_sanitizer(SanitizerKind::EffectiveFull),
    );
    assert_eq!(report.errors.issues_of(ErrorKind::EscapeBoundsOverflow), 1);
}

// ---------------------------------------------------------------------
// Property: generated straight-line functions against an evaluator.
// ---------------------------------------------------------------------

const VARS: [&str; 4] = ["a", "b", "c", "d"];
const OPS: [&str; 8] = ["+", "-", "*", "&", "|", "^", "<", "=="];

/// A generated expression over the four variables.
#[derive(Clone, Debug)]
enum G {
    Lit(i64),
    Var(usize),
    Bin(usize, Box<G>, Box<G>),
    Cond(Box<G>, Box<G>, Box<G>),
    And(Box<G>, Box<G>),
    Or(Box<G>, Box<G>),
    Assign(usize, Box<G>),
    Postfix(usize, bool),
}

/// Draws choices from sampled words; an exhausted stream yields zeros,
/// which bottom out in leaves.
struct Draw {
    words: Vec<u64>,
    at: usize,
    /// Variables in scope: the first `in_scope` of [`VARS`].
    in_scope: u64,
}

impl Draw {
    fn below(&mut self, bound: u64) -> u64 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w % bound
    }

    fn var(&mut self) -> usize {
        self.below(self.in_scope) as usize
    }

    fn expr(&mut self, depth: u32) -> G {
        let pick = if depth == 0 {
            self.below(2)
        } else {
            self.below(11)
        };
        let sub = |d: &mut Self| Box::new(d.expr(depth.saturating_sub(1)));
        match pick {
            0 => G::Lit(self.below(10) as i64),
            1 => G::Var(self.var()),
            2..=4 => G::Bin(self.below(8) as usize, sub(self), sub(self)),
            5 => G::Cond(sub(self), sub(self), sub(self)),
            6 => G::And(sub(self), sub(self)),
            7 => G::Or(sub(self), sub(self)),
            8 | 9 => G::Assign(self.var(), sub(self)),
            _ => G::Postfix(self.var(), self.below(2) == 0),
        }
    }
}

fn render(e: &G) -> String {
    match e {
        G::Lit(v) => v.to_string(),
        G::Var(v) => VARS[*v].to_string(),
        G::Bin(op, l, r) => format!("({} {} {})", render(l), OPS[*op], render(r)),
        G::Cond(c, t, f) => format!("({} ? {} : {})", render(c), render(t), render(f)),
        G::And(l, r) => format!("({} && {})", render(l), render(r)),
        G::Or(l, r) => format!("({} || {})", render(l), render(r)),
        G::Assign(v, rhs) => format!("({} = {})", VARS[*v], render(rhs)),
        G::Postfix(v, inc) => format!("({}{})", VARS[*v], if *inc { "++" } else { "--" }),
    }
}

/// Left-to-right evaluation with wrapping `i64` arithmetic and 0/1
/// truth values: the semantics every lowering mode must keep.
fn eval(e: &G, env: &mut [i64; 4]) -> i64 {
    match e {
        G::Lit(v) => *v,
        G::Var(v) => env[*v],
        G::Bin(op, l, r) => {
            let l = eval(l, env);
            let r = eval(r, env);
            match OPS[*op] {
                "+" => l.wrapping_add(r),
                "-" => l.wrapping_sub(r),
                "*" => l.wrapping_mul(r),
                "&" => l & r,
                "|" => l | r,
                "^" => l ^ r,
                "<" => i64::from(l < r),
                _ => i64::from(l == r),
            }
        }
        G::Cond(c, t, f) => {
            if eval(c, env) != 0 {
                eval(t, env)
            } else {
                eval(f, env)
            }
        }
        G::And(l, r) => i64::from(eval(l, env) != 0 && eval(r, env) != 0),
        G::Or(l, r) => i64::from(eval(l, env) != 0 || eval(r, env) != 0),
        G::Assign(v, rhs) => {
            let value = eval(rhs, env);
            env[*v] = value;
            value
        }
        G::Postfix(v, inc) => {
            let old = env[*v];
            env[*v] = if *inc {
                old.wrapping_add(1)
            } else {
                old.wrapping_sub(1)
            };
            old
        }
    }
}

/// One generated function: `c` and `d` are declared from expressions,
/// then plain, chained and increment statements run, and the return value
/// folds in every variable and adds one more expression.  Returns the
/// source and the value the evaluator expects for `run(3, -2)`.
fn generate(words: Vec<u64>) -> (String, i64) {
    let mut draw = Draw {
        words,
        at: 0,
        in_scope: 2,
    };
    let mut env = [3i64, -2, 0, 0];
    let mut body = String::new();
    for v in [2, 3] {
        // An initialiser reads only the variables declared before it.
        let init = draw.expr(3);
        draw.in_scope += 1;
        env[v] = eval(&init, &mut env);
        body.push_str(&format!("    int {} = {};\n", VARS[v], render(&init)));
    }
    for _ in 0..draw.below(6) + 1 {
        match draw.below(4) {
            0 | 1 => {
                let (v, rhs) = (draw.var(), draw.expr(3));
                body.push_str(&format!("    {} = {};\n", VARS[v], render(&rhs)));
                eval(&G::Assign(v, Box::new(rhs)), &mut env);
            }
            2 => {
                let (v, w, rhs) = (draw.var(), draw.var(), draw.expr(2));
                body.push_str(&format!(
                    "    {} = {} = {};\n",
                    VARS[v],
                    VARS[w],
                    render(&rhs)
                ));
                eval(
                    &G::Assign(v, Box::new(G::Assign(w, Box::new(rhs)))),
                    &mut env,
                );
            }
            _ => {
                let (v, inc) = (draw.var(), draw.below(2) == 0);
                body.push_str(&format!(
                    "    {}{};\n",
                    VARS[v],
                    if inc { "++" } else { "--" }
                ));
                eval(&G::Postfix(v, inc), &mut env);
            }
        }
    }
    // ((((0 * 31 + a) * 31 + b) * 31 + c) * 31 + d) + last, left to right.
    let fold = (0..4).fold(G::Lit(0), |acc, v| {
        G::Bin(
            0,
            Box::new(G::Bin(2, Box::new(acc), Box::new(G::Lit(31)))),
            Box::new(G::Var(v)),
        )
    });
    let ret = G::Bin(0, Box::new(fold), Box::new(draw.expr(3)));
    let expected = eval(&ret, &mut env);
    let source = format!(
        "int run(int a, int b) {{\n{body}    return {};\n}}\n",
        render(&ret)
    );
    (source, expected)
}

proptest! {
    /// Generated straight-line functions return what a left-to-right
    /// evaluation computes, under both backends in both tiers.
    #[test]
    fn generated_assignments_match_left_to_right_evaluation(
        words in prop::collection::vec(any::<u64>(), 0..96)
    ) {
        let (source, expected) = generate(words);
        assert_returns(&source, &[3, -2], expected);
    }
}
