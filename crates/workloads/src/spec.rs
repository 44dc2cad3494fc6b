//! Synthetic SPEC CPU2006-like workloads.
//!
//! SPEC2006 is a licensed benchmark suite whose sources cannot be shipped,
//! so each of the 19 C/C++ programs the paper evaluates (Figure 7) is
//! modelled by a synthetic Mini-C/C++ program built from the kernels in
//! [`crate::kernels`]:
//!
//! * the *kernel mix* approximates the real program's dominant memory
//!   behaviour (pointer chasing, hot array loops, float matrices, symbol
//!   tables, class hierarchies), which is what determines its type-check /
//!   bounds-check ratio and therefore its instrumentation overhead;
//! * the *seeded bugs* reproduce the issue classes the paper reports for
//!   that benchmark (§6.1), drawn from [`crate::bugs`];
//! * the paper's own per-benchmark numbers (kilo-sLOC, check counts in
//!   billions, issues found) are recorded alongside so experiment harnesses
//!   can print paper-vs-measured tables.

use serde::Serialize;

use crate::bugs;
use crate::kernels::*;

/// Workload scale (the paper uses the standard SPEC "ref" workloads; the
/// smaller scales keep tests and CI fast).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, serde::Deserialize)]
pub enum Scale {
    /// Tiny inputs for unit tests.
    Test,
    /// Small inputs for integration tests and quick benchmark runs.
    Small,
    /// The default experiment scale.
    Reference,
}

impl Scale {
    /// The `n` parameter passed to each workload's `bench_main`.
    pub fn n(self) -> i64 {
        match self {
            Scale::Test => 24,
            Scale::Small => 120,
            Scale::Reference => 600,
        }
    }

    /// Number of outer repetitions driver loops perform.
    pub fn reps(self) -> i64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 2,
            Scale::Reference => 4,
        }
    }
}

/// Error returned when a string names no [`Scale`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScaleError {
    /// The string that failed to parse.
    pub name: String,
}

impl std::fmt::Display for ParseScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scale `{}` (known: test, small, ref, reference)",
            self.name
        )
    }
}

impl std::error::Error for ParseScaleError {}

impl std::str::FromStr for Scale {
    type Err = ParseScaleError;

    /// Parse `test`, `small`, `ref` or `reference`, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "test" => Ok(Scale::Test),
            "small" => Ok(Scale::Small),
            "ref" | "reference" => Ok(Scale::Reference),
            _ => Err(ParseScaleError {
                name: s.to_string(),
            }),
        }
    }
}

/// Per-kernel driver functions layered over the kernels.
const DRIVER_LIST: &str = r#"
long drive_list(int n) {
    struct node *l = list_build(n);
    long s = list_length(l) + list_sum(l);
    list_free(l);
    return s;
}
"#;

const DRIVER_ARRAY: &str = r#"
long drive_array(int n) {
    int *a = (int *)malloc(n * sizeof(int));
    array_fill(a, n);
    long s = array_sum(a, n);
    int m = n;
    if (m > 200) { m = 200; }
    array_sort(a, m);
    int *h = (int *)calloc(64, sizeof(int));
    array_hist(a, n, h, 64);
    s += h[3];
    free(h);
    free(a);
    return s;
}
"#;

const DRIVER_MATRIX: &str = r#"
long drive_matrix(int n) {
    int dim = 8 + n % 8;
    double *a = (double *)malloc(dim * dim * sizeof(double));
    double *b = (double *)malloc(dim * dim * sizeof(double));
    double *c = (double *)malloc(dim * dim * sizeof(double));
    mat_init(a, dim);
    mat_init(b, dim);
    mat_mul(c, a, b, dim);
    double norm = mat_norm(c, dim);
    free(a);
    free(b);
    free(c);
    return (long)norm;
}
"#;

const DRIVER_HASH: &str = r#"
long drive_hash(int n) {
    struct entry *table = (struct entry *)calloc(256, sizeof(struct entry));
    for (int i = 0; i < n; i++) { table_insert(table, 256, i * 7, i); }
    long s = 0;
    for (int i = 0; i < n; i++) { s += table_lookup(table, 256, i * 7); }
    free(table);
    return s;
}
"#;

const DRIVER_TREE: &str = r#"
long drive_tree(int n) {
    struct tnode *root = NULL;
    int key = 12345;
    for (int i = 0; i < n; i++) {
        key = (key * 1103515245 + 12345) % 100000;
        root = tree_insert(root, key);
    }
    long s = tree_sum(root);
    tree_free(root);
    return s;
}
"#;

const DRIVER_CLASSES: &str = r#"
long drive_classes(int n) {
    long s = 0;
    for (int i = 0; i < n; i++) {
        Shape *sh = make_shape(i % 2, (i % 9) + 1);
        s += shape_area(sh);
        delete sh;
    }
    return s;
}
"#;

const DRIVER_STRING: &str = r#"
long drive_string(int n) {
    char *buf = (char *)malloc(n + 64);
    char *word = (char *)malloc(16);
    for (int i = 0; i < 8; i++) { word[i] = 97 + i; }
    int pos = 0;
    while (pos + 8 < n) { pos = buf_append(buf, pos, word, 8); }
    long h = buf_hash(buf, pos);
    buf_reverse(buf, pos);
    h += buf_hash(buf, pos);
    free(word);
    free(buf);
    return h;
}
"#;

/// The driver source belonging to a kernel.
fn driver_for(kernel: &str) -> &'static str {
    if kernel == KERNEL_LIST {
        DRIVER_LIST
    } else if kernel == KERNEL_ARRAY {
        DRIVER_ARRAY
    } else if kernel == KERNEL_MATRIX {
        DRIVER_MATRIX
    } else if kernel == KERNEL_HASH {
        DRIVER_HASH
    } else if kernel == KERNEL_TREE {
        DRIVER_TREE
    } else if kernel == KERNEL_CLASSES {
        DRIVER_CLASSES
    } else {
        DRIVER_STRING
    }
}

/// Description of one synthetic SPEC2006-like benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct SpecBenchmark {
    /// Benchmark name (matching the paper's Figure 7 rows).
    pub name: &'static str,
    /// Whether the original is a C++ benchmark (marked `++` in Figure 7).
    pub cpp: bool,
    /// Paper-reported source size in kilo-sLOC.
    pub paper_kilo_sloc: f64,
    /// Paper-reported dynamic type checks, in billions.
    pub paper_type_checks_b: f64,
    /// Paper-reported dynamic bounds checks, in billions.
    pub paper_bounds_checks_b: f64,
    /// Paper-reported issues found.
    pub paper_issues: u32,
    /// Seeded-bug ids included in the synthetic workload.
    pub bug_ids: Vec<&'static str>,
    /// Kernels the driver exercises.
    kernels: Vec<&'static str>,
    /// Per-kernel driver calls in the main loop.
    driver_calls: Vec<&'static str>,
}

impl SpecBenchmark {
    /// The 19 benchmarks of Figure 7, in the paper's order.
    pub fn all() -> Vec<SpecBenchmark> {
        let b = |name,
                 cpp,
                 sloc,
                 tchk,
                 bchk,
                 issues,
                 bug_ids: &[&'static str],
                 kernels: &[&'static str],
                 driver_calls: &[&'static str]| {
            SpecBenchmark {
                name,
                cpp,
                paper_kilo_sloc: sloc,
                paper_type_checks_b: tchk,
                paper_bounds_checks_b: bchk,
                paper_issues: issues,
                bug_ids: bug_ids.to_vec(),
                kernels: kernels.to_vec(),
                driver_calls: driver_calls.to_vec(),
            }
        };
        vec![
            b(
                "perlbench",
                false,
                126.4,
                177.9,
                297.7,
                35,
                &[
                    "use-after-free",
                    "reuse-after-free",
                    "pointer-level-confusion",
                    "prefix-inheritance",
                    "double-free",
                ],
                &[KERNEL_LIST, KERNEL_HASH, KERNEL_STRING],
                &["drive_list(n)", "drive_hash(n)", "drive_string(n * 4)"],
            ),
            b(
                "bzip2",
                false,
                5.7,
                70.1,
                644.3,
                1,
                &["fundamental-confusion"],
                &[KERNEL_ARRAY, KERNEL_STRING],
                &["drive_array(n * 8)", "drive_string(n * 8)"],
            ),
            b(
                "gcc",
                false,
                235.8,
                105.2,
                204.1,
                41,
                &[
                    "subobject-overflow-padding",
                    "hash-as-int-array",
                    "phantom-class",
                    "container-cast",
                ],
                &[KERNEL_HASH, KERNEL_TREE, KERNEL_LIST],
                &["drive_hash(n)", "drive_tree(n)", "drive_list(n)"],
            ),
            b(
                "mcf",
                false,
                1.5,
                34.9,
                98.7,
                0,
                &[],
                &[KERNEL_LIST, KERNEL_ARRAY],
                &["drive_list(n)", "drive_array(n * 2)"],
            ),
            b(
                "gobmk",
                false,
                157.6,
                90.9,
                421.3,
                0,
                &[],
                &[KERNEL_TREE, KERNEL_ARRAY],
                &["drive_tree(n)", "drive_array(n * 4)"],
            ),
            b(
                "hmmer",
                false,
                20.7,
                22.0,
                1393.4,
                0,
                &[],
                &[KERNEL_ARRAY, KERNEL_MATRIX],
                &["drive_array(n * 12)", "drive_matrix(n)"],
            ),
            b(
                "sjeng",
                false,
                10.5,
                27.3,
                478.0,
                0,
                &[],
                &[KERNEL_TREE, KERNEL_ARRAY],
                &["drive_tree(n)", "drive_array(n * 6)"],
            ),
            b(
                "libquantum",
                false,
                2.6,
                276.4,
                561.1,
                0,
                &[],
                &[KERNEL_ARRAY, KERNEL_LIST],
                &["drive_array(n * 6)", "drive_list(n * 2)"],
            ),
            b(
                "h264ref",
                false,
                36.1,
                392.5,
                891.5,
                3,
                &["object-overflow", "subobject-overflow-field"],
                &[KERNEL_ARRAY, KERNEL_MATRIX],
                &["drive_array(n * 8)", "drive_matrix(n)"],
            ),
            b(
                "omnetpp",
                true,
                20.0,
                86.5,
                194.7,
                0,
                &[],
                &[KERNEL_CLASSES, KERNEL_LIST],
                &["drive_classes(n)", "drive_list(n)"],
            ),
            b(
                "astar",
                true,
                4.3,
                72.5,
                216.8,
                0,
                &[],
                &[KERNEL_TREE, KERNEL_ARRAY],
                &["drive_tree(n)", "drive_array(n * 3)"],
            ),
            b(
                "xalancbmk",
                true,
                267.4,
                267.8,
                390.6,
                15,
                &["bad-downcast", "container-cast", "phantom-class"],
                &[KERNEL_CLASSES, KERNEL_TREE, KERNEL_HASH, KERNEL_STRING],
                &[
                    "drive_classes(n)",
                    "drive_tree(n)",
                    "drive_hash(n)",
                    "drive_string(n * 2)",
                ],
            ),
            b(
                "milc",
                false,
                9.6,
                29.4,
                347.1,
                1,
                &["fundamental-confusion"],
                &[KERNEL_MATRIX, KERNEL_ARRAY],
                &["drive_matrix(n)", "drive_array(n * 4)"],
            ),
            b(
                "namd",
                true,
                3.9,
                16.1,
                362.6,
                1,
                &["phantom-class"],
                &[KERNEL_MATRIX, KERNEL_CLASSES],
                &["drive_matrix(n)", "drive_classes(n / 2)"],
            ),
            b(
                "dealII",
                true,
                94.4,
                266.1,
                701.3,
                13,
                &["container-cast", "phantom-class", "template-param-cast"],
                &[KERNEL_MATRIX, KERNEL_CLASSES, KERNEL_LIST],
                &["drive_matrix(n)", "drive_classes(n)", "drive_list(n)"],
            ),
            b(
                "soplex",
                true,
                28.3,
                80.8,
                219.8,
                1,
                &["subobject-underflow"],
                &[KERNEL_MATRIX, KERNEL_ARRAY],
                &["drive_matrix(n)", "drive_array(n * 2)"],
            ),
            b(
                "povray",
                true,
                78.7,
                83.2,
                176.0,
                10,
                &["prefix-inheritance", "phantom-class"],
                &[KERNEL_CLASSES, KERNEL_MATRIX],
                &["drive_classes(n)", "drive_matrix(n)"],
            ),
            b(
                "lbm",
                false,
                0.9,
                4.0,
                333.3,
                1,
                &["fundamental-confusion"],
                &[KERNEL_MATRIX],
                &["drive_matrix(n)"],
            ),
            b(
                "sphinx3",
                false,
                13.1,
                89.4,
                903.9,
                2,
                &["hash-as-int-array"],
                &[KERNEL_ARRAY, KERNEL_STRING, KERNEL_MATRIX],
                &[
                    "drive_array(n * 6)",
                    "drive_string(n * 4)",
                    "drive_matrix(n)",
                ],
            ),
        ]
    }

    /// Look up a benchmark by name.
    pub fn by_name(name: &str) -> Option<SpecBenchmark> {
        Self::all().into_iter().find(|b| b.name == name)
    }

    /// Names of all benchmarks, in paper order.
    pub fn names() -> Vec<&'static str> {
        Self::all().into_iter().map(|b| b.name).collect()
    }

    /// The seeded bugs included in this benchmark's source.
    pub fn seeded_bugs(&self) -> Vec<bugs::SeededBug> {
        self.bug_ids.iter().filter_map(|id| bugs::bug(id)).collect()
    }

    /// Generate the benchmark's Mini-C/C++ source.
    ///
    /// The program entry point is `int bench_main(int n)`; the caller passes
    /// `Scale::n()` for `n`.
    pub fn source(&self, scale: Scale) -> String {
        let mut src = String::new();
        src.push_str(&format!(
            "// Synthetic stand-in for SPEC2006 {} ({}; see DESIGN.md)\n",
            self.name,
            if self.cpp { "C++" } else { "C" }
        ));
        // Kernels (deduplicated, keeping order).
        let mut seen = Vec::new();
        for k in &self.kernels {
            if !seen.contains(k) {
                src.push_str(k);
                src.push_str(driver_for(k));
                seen.push(k);
            }
        }
        // Seeded bugs.
        for bug in self.seeded_bugs() {
            src.push_str(bug.decls);
        }
        // Main driver.
        src.push_str("\nint bench_main(int n) {\n    long total = 0;\n");
        src.push_str(&format!(
            "    for (int rep = 0; rep < {}; rep++) {{\n",
            scale.reps()
        ));
        for call in &self.driver_calls {
            src.push_str(&format!("        total += {call};\n"));
        }
        src.push_str("    }\n");
        for bug in self.seeded_bugs() {
            src.push_str(&format!("    {}();\n", bug.entry));
        }
        src.push_str("    return (int)(total % 100000);\n}\n");
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_nineteen_benchmarks_matching_figure7() {
        let all = SpecBenchmark::all();
        assert_eq!(all.len(), 19);
        assert_eq!(all.iter().filter(|b| b.cpp).count(), 7);
        let total_sloc: f64 = all.iter().map(|b| b.paper_kilo_sloc).sum();
        assert!((total_sloc - 1117.5).abs() < 1.0);
        let total_issues: u32 = all.iter().map(|b| b.paper_issues).sum();
        assert_eq!(total_issues, 124);
    }

    #[test]
    fn scale_parses_every_spelling_and_rejects_typos() {
        for (text, scale) in [
            ("test", Scale::Test),
            ("small", Scale::Small),
            ("ref", Scale::Reference),
            ("reference", Scale::Reference),
            ("TEST", Scale::Test),
            ("Small", Scale::Small),
            ("REF", Scale::Reference),
            ("Reference", Scale::Reference),
        ] {
            assert_eq!(text.parse::<Scale>(), Ok(scale), "{text}");
        }
        for typo in ["large", "refrence", "", " ref"] {
            let err = typo.parse::<Scale>().expect_err(typo);
            assert_eq!(err.name, typo);
            let message = err.to_string();
            for spelling in ["test", "small", "ref", "reference"] {
                assert!(message.contains(spelling), "{message}");
            }
        }
    }

    #[test]
    fn every_benchmark_source_compiles() {
        for bench in SpecBenchmark::all() {
            let src = bench.source(Scale::Test);
            minic::compile(&src)
                .unwrap_or_else(|e| panic!("benchmark {} failed to compile: {e}", bench.name));
        }
    }

    #[test]
    fn clean_benchmarks_have_no_seeded_bugs() {
        for name in [
            "mcf",
            "gobmk",
            "hmmer",
            "sjeng",
            "libquantum",
            "omnetpp",
            "astar",
        ] {
            let b = SpecBenchmark::by_name(name).unwrap();
            assert!(b.bug_ids.is_empty(), "{name} should be clean");
            assert_eq!(b.paper_issues, 0);
        }
    }

    #[test]
    fn buggy_benchmarks_include_the_right_classes() {
        let perl = SpecBenchmark::by_name("perlbench").unwrap();
        assert!(perl.bug_ids.contains(&"use-after-free"));
        let xalanc = SpecBenchmark::by_name("xalancbmk").unwrap();
        assert!(xalanc.bug_ids.contains(&"bad-downcast"));
        let soplex = SpecBenchmark::by_name("soplex").unwrap();
        assert!(soplex.bug_ids.contains(&"subobject-underflow"));
        let h264 = SpecBenchmark::by_name("h264ref").unwrap();
        assert!(h264.bug_ids.contains(&"subobject-overflow-field"));
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Test.n() < Scale::Small.n());
        assert!(Scale::Small.n() < Scale::Reference.n());
        assert!(Scale::Test.reps() <= Scale::Reference.reps());
    }

    #[test]
    fn source_embeds_bug_entries_and_driver_calls() {
        let src = SpecBenchmark::by_name("perlbench")
            .unwrap()
            .source(Scale::Test);
        assert!(src.contains("bug_use_after_free();"));
        assert!(src.contains("drive_list(n)"));
        assert!(src.contains("bench_main"));
    }
}
