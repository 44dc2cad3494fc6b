//! Plain-data profile reports: per-check-site outcome counts and
//! per-function instruction and call counts.
//!
//! The VM's opt-in profiler (see `vm::VmConfig::profile`) fills these
//! in; the `table_profile` bench binary merges and renders them.
//! Everything here is ordinary data — no atomics — because the VM is
//! single-threaded per instance and merging happens after runs complete.

use std::collections::BTreeMap;

use crate::json_escape;

/// Outcome counts for one check site (a source location label).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Checks that executed the backend call and passed.
    pub hits: u64,
    /// Checks that executed the backend call and failed (the backend
    /// reported a violation).  Only bounds/access checks report
    /// pass/fail to the VM; type/cast checks count as hits when they
    /// execute.
    pub misses: u64,
}

impl SiteCounts {
    /// Total dynamic occurrences of the site (every one reaches the
    /// backend).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &SiteCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Work done by one function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuncCounts {
    /// Instructions retired (check instructions included).
    pub instructions: u64,
    /// Activations dispatched.
    pub calls: u64,
}

impl FuncCounts {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &FuncCounts) {
        self.instructions += other.instructions;
        self.calls += other.calls;
    }
}

/// A complete profile of one or more runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-check-site outcome counts, keyed by site label.
    pub sites: Vec<(String, SiteCounts)>,
    /// Per-function counts, keyed by function name.
    pub funcs: Vec<(String, FuncCounts)>,
}

impl ProfileReport {
    /// This report with every site label and function name prefixed by
    /// `program/`, so that merging the reports of several programs keeps
    /// their same-named functions and sites in rows of their own.
    pub fn qualified(mut self, program: &str) -> ProfileReport {
        for (label, _) in &mut self.sites {
            *label = format!("{program}/{label}");
        }
        for (name, _) in &mut self.funcs {
            *name = format!("{program}/{name}");
        }
        self
    }

    /// Fold `other` into `self`, summing counts by name.
    pub fn merge(&mut self, other: &ProfileReport) {
        let mut sites: BTreeMap<String, SiteCounts> = self.sites.drain(..).collect();
        for (name, counts) in &other.sites {
            sites.entry(name.clone()).or_default().merge(counts);
        }
        self.sites = sites.into_iter().collect();
        let mut funcs: BTreeMap<String, FuncCounts> = self.funcs.drain(..).collect();
        for (name, counts) in &other.funcs {
            funcs.entry(name.clone()).or_default().merge(counts);
        }
        self.funcs = funcs.into_iter().collect();
    }

    /// The `n` hottest check sites by total dynamic occurrences
    /// (ties broken by label, so the order is deterministic).
    pub fn hot_sites(&self, n: usize) -> Vec<(String, SiteCounts)> {
        let mut sites = self.sites.clone();
        sites.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then_with(|| a.0.cmp(&b.0)));
        sites.truncate(n);
        sites
    }

    /// The `n` hottest functions by total instructions (ties broken by
    /// name).
    pub fn hot_funcs(&self, n: usize) -> Vec<(String, FuncCounts)> {
        let mut funcs = self.funcs.clone();
        funcs.sort_by(|a, b| {
            b.1.instructions
                .cmp(&a.1.instructions)
                .then_with(|| a.0.cmp(&b.0))
        });
        funcs.truncate(n);
        funcs
    }

    /// Render the top-`n` hot-site / hot-function tables as text.
    pub fn render_table(&self, n: usize) -> String {
        let mut out = String::new();
        let rule = "-".repeat(60);
        out.push_str(&format!(
            "{:<38} {:>10} {:>10}\n{rule}\n",
            "check site", "hits", "misses"
        ));
        for (label, c) in self.hot_sites(n) {
            out.push_str(&format!("{:<38} {:>10} {:>10}\n", label, c.hits, c.misses));
        }
        out.push_str(&format!(
            "\n{:<38} {:>10} {:>10}\n{rule}\n",
            "function", "instrs", "calls"
        ));
        for (name, c) in self.hot_funcs(n) {
            out.push_str(&format!(
                "{:<38} {:>10} {:>10}\n",
                name, c.instructions, c.calls
            ));
        }
        out
    }

    /// Render the full report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sites\":[");
        for (i, (label, c)) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"site\":\"{}\",\"hits\":{},\"misses\":{}}}",
                json_escape(label),
                c.hits,
                c.misses
            ));
        }
        out.push_str("],\"funcs\":[");
        for (i, (name, c)) in self.funcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"func\":\"{}\",\"instructions\":{},\"calls\":{}}}",
                json_escape(name),
                c.instructions,
                c.calls
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(hits: u64, misses: u64) -> SiteCounts {
        SiteCounts { hits, misses }
    }

    #[test]
    fn merge_sums_by_name_and_sorts() {
        let mut a = ProfileReport {
            sites: vec![("x.c:2".into(), site(5, 0))],
            funcs: vec![(
                "main".into(),
                FuncCounts {
                    instructions: 10,
                    calls: 1,
                },
            )],
        };
        let b = ProfileReport {
            sites: vec![("a.c:1".into(), site(1, 1)), ("x.c:2".into(), site(2, 0))],
            funcs: vec![(
                "main".into(),
                FuncCounts {
                    instructions: 7,
                    calls: 2,
                },
            )],
        };
        a.merge(&b);
        assert_eq!(a.sites.len(), 2);
        assert_eq!(a.sites[0].0, "a.c:1");
        assert_eq!(a.sites[1].1, site(7, 0));
        assert_eq!(
            a.funcs[0].1,
            FuncCounts {
                instructions: 17,
                calls: 3,
            }
        );
    }

    #[test]
    fn qualified_reports_of_two_programs_keep_their_own_rows() {
        let run = |instructions| ProfileReport {
            sites: vec![("bench_main#1:load".into(), site(1, 0))],
            funcs: vec![(
                "bench_main".into(),
                FuncCounts {
                    instructions,
                    calls: 1,
                },
            )],
        };
        let mut merged = ProfileReport::default();
        merged.merge(&run(47).qualified("mcf"));
        merged.merge(&run(50).qualified("astar"));
        let sites: Vec<&str> = merged.sites.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(sites, ["astar/bench_main#1:load", "mcf/bench_main#1:load"]);
        assert_eq!(
            merged.funcs,
            vec![
                (
                    "astar/bench_main".to_string(),
                    FuncCounts {
                        instructions: 50,
                        calls: 1
                    }
                ),
                (
                    "mcf/bench_main".to_string(),
                    FuncCounts {
                        instructions: 47,
                        calls: 1
                    }
                ),
            ]
        );
    }

    #[test]
    fn hot_sites_order_by_total_then_label() {
        let report = ProfileReport {
            sites: vec![
                ("b".into(), site(4, 0)),
                ("a".into(), site(2, 2)),
                ("c".into(), site(1, 0)),
            ],
            funcs: vec![],
        };
        let hot = report.hot_sites(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, "a");
        assert_eq!(hot[1].0, "b");
    }

    #[test]
    fn json_names_every_site() {
        let report = ProfileReport {
            sites: vec![("w.c:9".into(), site(3, 1))],
            funcs: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"site\":\"w.c:9\""), "{json}");
        assert!(json.contains("\"hits\":3,\"misses\":1"), "{json}");
    }
}
