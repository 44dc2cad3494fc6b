//! The Firefox-like workload and browser benchmark drivers (paper §6.3,
//! Figure 10).
//!
//! Firefox 52 (~7.9 MsLOC) obviously cannot be vendored; what the §6.3
//! experiment needs from it is reproduced synthetically:
//!
//! * a large, allocation-heavy program that creates "large numbers of
//!   temporary objects" (the reason the paper gives for Firefox's higher
//!   relative overhead);
//! * a DOM-like tree, template-typed arrays, string/layout churn and a
//!   custom memory allocator (arena), which are the sources of the type
//!   abuse findings reported for Firefox;
//! * seven independent benchmark drivers standing in for the browser
//!   benchmarks of Figure 10 (Octane, Dromaeo JS, SunSpider, JS V8,
//!   DOM Core, JS Lib, CSS Selector), each with a different mix of the
//!   above so the per-benchmark overhead bars differ;
//! * enough thread-safety that the drivers can run concurrently (the VM
//!   gives each thread its own address space).

use serde::Serialize;

use crate::bugs;
use crate::spec::Scale;

/// The seven browser benchmarks of Figure 10, in paper order.
pub const BROWSER_BENCHMARKS: [&str; 7] = [
    "Octane",
    "DromaeoJS",
    "SunSpider",
    "JSV8",
    "DOMCore",
    "JSLib",
    "CSSSelector",
];

/// Description of the Firefox-like workload.
#[derive(Clone, Debug, Serialize)]
pub struct FirefoxWorkload {
    /// Paper-reported overall overhead of EffectiveSan (full) on Firefox
    /// browser benchmarks (422%).
    pub paper_overall_overhead_pct: f64,
    /// Seeded bug ids (the Firefox findings of §6.3).
    pub bug_ids: Vec<&'static str>,
}

impl Default for FirefoxWorkload {
    fn default() -> Self {
        FirefoxWorkload {
            paper_overall_overhead_pct: 422.0,
            bug_ids: vec![
                "template-param-cast",
                "cma-internal-type",
                "container-cast",
                "hash-as-int-array",
            ],
        }
    }
}

impl FirefoxWorkload {
    /// The entry function for one of the [`BROWSER_BENCHMARKS`].
    pub fn entry(benchmark: &str) -> String {
        format!("bench_{}", benchmark.to_lowercase())
    }

    /// Generate the full Mini-C++ source of the Firefox-like workload.
    pub fn source(&self, scale: Scale) -> String {
        let mut src = String::from(FIREFOX_CORE);
        for id in &self.bug_ids {
            if let Some(bug) = bugs::bug(id) {
                src.push_str(bug.decls);
            }
        }
        src.push_str(&drivers(scale));
        src
    }
}

/// The shared "browser engine": DOM nodes, template-like arrays, an arena
/// CMA, a style/selector matcher and a tiny JS-value model.
const FIREFOX_CORE: &str = r#"
// ---- DOM-like tree -------------------------------------------------
class DomNode {
    virtual int node_type();
    int tag;
    int depth;
    DomNode *first_child;
    DomNode *next_sibling;
    DomNode *parent;
};
class ElementNode : public DomNode { int class_id; int style_id; };
class TextNode : public DomNode { int length; };

DomNode *dom_new_element(int tag, int class_id) {
    ElementNode *e = new ElementNode;
    e->tag = tag;
    e->class_id = class_id;
    e->first_child = NULL;
    e->next_sibling = NULL;
    e->parent = NULL;
    return (DomNode *)e;
}

DomNode *dom_new_text(int length) {
    TextNode *t = new TextNode;
    t->tag = 0;
    t->length = length;
    t->first_child = NULL;
    t->next_sibling = NULL;
    t->parent = NULL;
    return (DomNode *)t;
}

void dom_append(DomNode *parent, DomNode *child) {
    child->parent = parent;
    child->next_sibling = parent->first_child;
    parent->first_child = child;
}

DomNode *dom_build(int fanout, int depth) {
    DomNode *root = dom_new_element(1, depth);
    if (depth <= 0) { return root; }
    for (int i = 0; i < fanout; i++) {
        DomNode *child;
        if (i % 3 == 0) { child = dom_new_text(i * 4); }
        else { child = dom_build(fanout - 1, depth - 1); }
        dom_append(root, child);
    }
    return root;
}

long dom_count(DomNode *node) {
    if (node == NULL) { return 0; }
    long n = 1;
    DomNode *child = node->first_child;
    while (child != NULL) {
        n += dom_count(child);
        child = child->next_sibling;
    }
    return n;
}

void dom_free(DomNode *node) {
    if (node == NULL) { return; }
    DomNode *child = node->first_child;
    while (child != NULL) {
        DomNode *next = child->next_sibling;
        dom_free(child);
        child = next;
    }
    delete node;
}

// ---- nsTArray-like growable array ----------------------------------
struct PtrArray { DomNode **data; int len; int cap; };

struct PtrArray *array_new(int cap) {
    struct PtrArray *a = (struct PtrArray *)malloc(sizeof(struct PtrArray));
    a->data = (DomNode **)malloc(cap * sizeof(DomNode *));
    a->len = 0;
    a->cap = cap;
    return a;
}

void array_push(struct PtrArray *a, DomNode *node) {
    if (a->len == a->cap) {
        int newcap = a->cap * 2;
        DomNode **bigger = (DomNode **)malloc(newcap * sizeof(DomNode *));
        for (int i = 0; i < a->len; i++) { bigger[i] = a->data[i]; }
        free(a->data);
        a->data = bigger;
        a->cap = newcap;
    }
    a->data[a->len] = node;
    a->len = a->len + 1;
}

void array_collect(struct PtrArray *a, DomNode *node) {
    if (node == NULL) { return; }
    array_push(a, node);
    DomNode *child = node->first_child;
    while (child != NULL) {
        array_collect(a, child);
        child = child->next_sibling;
    }
}

void array_delete(struct PtrArray *a) {
    free(a->data);
    free(a);
}

// ---- arena custom memory allocator (XPT_Arena-like) ----------------
struct ArenaBlock { int used; int cap; char *bytes; };

struct ArenaBlock *arena_new(int cap) {
    struct ArenaBlock *a = (struct ArenaBlock *)xmalloc(sizeof(struct ArenaBlock));
    a->used = 0;
    a->cap = cap;
    a->bytes = (char *)xmalloc(cap);
    return a;
}

char *arena_alloc_bytes(struct ArenaBlock *a, int size) {
    if (a->used + size > a->cap) { a->used = 0; }
    char *p = a->bytes + a->used;
    a->used = a->used + size;
    return p;
}

// ---- JS-value-like tagged union -------------------------------------
union JsPayload { double number; DomNode *object; long boolean; };
struct JsValue { int tag; union JsPayload payload; };

double js_number_sum(struct JsValue *vals, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        if (vals[i].tag == 0) { s += vals[i].payload.number; }
    }
    return s;
}

// ---- style / selector matching --------------------------------------
long css_match(struct PtrArray *nodes, int class_id) {
    long matched = 0;
    for (int i = 0; i < nodes->len; i++) {
        DomNode *node = nodes->data[i];
        if (node->tag != 0) {
            ElementNode *e = (ElementNode *)node;
            if (e->class_id % 7 == class_id % 7) { matched++; }
        }
    }
    return matched;
}
"#;

/// The benchmark driver functions, generated with the scale baked in.
fn drivers(scale: Scale) -> String {
    let reps = scale.reps();
    let n = scale.n();
    format!(
        r#"
long engine_layout_pass(int fanout, int depth) {{
    DomNode *root = dom_build(fanout, depth);
    struct PtrArray *all = array_new(16);
    array_collect(all, root);
    long matched = css_match(all, 3);
    long count = dom_count(root);
    array_delete(all);
    dom_free(root);
    return matched + count;
}}

long engine_js_pass(int n) {{
    struct JsValue *vals = (struct JsValue *)malloc(n * sizeof(struct JsValue));
    for (int i = 0; i < n; i++) {{
        vals[i].tag = i % 2;
        if (i % 2 == 0) {{ vals[i].payload.number = i * 0.5; }}
        else {{ vals[i].payload.boolean = i; }}
    }}
    double s = js_number_sum(vals, n);
    free(vals);
    return (long)s;
}}

long engine_string_pass(int n) {{
    struct ArenaBlock *arena = arena_new(4096);
    long h = 5381;
    for (int i = 0; i < n; i++) {{
        char *chunk = arena_alloc_bytes(arena, 24);
        for (int j = 0; j < 24; j++) {{ chunk[j] = (char)(j + i); }}
        h = h * 33 + chunk[i % 24];
    }}
    return h;
}}

int bench_octane(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_js_pass(n * 8);
        total += engine_layout_pass(3, 4);
    }}
    bug_template_param_cast();
    return (int)(total % 100000);
}}

int bench_dromaeojs(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_js_pass(n * 6);
        total += engine_string_pass(n * 2);
    }}
    return (int)(total % 100000);
}}

int bench_sunspider(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_js_pass(n * 4);
        total += engine_string_pass(n);
    }}
    bug_hash_as_int_array();
    return (int)(total % 100000);
}}

int bench_jsv8(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_js_pass(n * 10);
    }}
    return (int)(total % 100000);
}}

int bench_domcore(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_layout_pass(3, 5);
    }}
    bug_container_cast();
    return (int)(total % 100000);
}}

int bench_jslib(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_js_pass(n * 3);
        total += engine_layout_pass(2, 4);
        total += engine_string_pass(n);
    }}
    bug_cma_internal_type();
    return (int)(total % 100000);
}}

int bench_cssselector(int n) {{
    long total = 0;
    for (int rep = 0; rep < {reps}; rep++) {{
        total += engine_layout_pass(4, 4);
    }}
    return (int)(total % 100000);
}}

int bench_main(int n) {{
    long total = 0;
    total += bench_octane(n);
    total += bench_dromaeojs(n);
    total += bench_sunspider(n);
    total += bench_jsv8(n);
    total += bench_domcore(n);
    total += bench_jslib(n);
    total += bench_cssselector(n);
    return (int)((total + {n}) % 100000);
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firefox_workload_compiles_at_every_scale() {
        let wl = FirefoxWorkload::default();
        for scale in [Scale::Test, Scale::Small, Scale::Reference] {
            let src = wl.source(scale);
            minic::compile(&src).unwrap_or_else(|e| panic!("firefox source failed: {e}"));
        }
    }

    #[test]
    fn all_browser_benchmarks_have_entry_points() {
        let wl = FirefoxWorkload::default();
        let src = wl.source(Scale::Test);
        let program = minic::compile(&src).unwrap();
        for bench in BROWSER_BENCHMARKS {
            let entry = FirefoxWorkload::entry(bench);
            assert!(program.function(&entry).is_some(), "missing entry {entry}");
        }
        assert!(program.function("bench_main").is_some());
    }

    #[test]
    fn firefox_includes_the_section_6_3_findings() {
        let wl = FirefoxWorkload::default();
        assert!(wl.bug_ids.contains(&"template-param-cast"));
        assert!(wl.bug_ids.contains(&"cma-internal-type"));
        assert_eq!(wl.paper_overall_overhead_pct, 422.0);
    }
}
