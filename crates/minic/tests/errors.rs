//! Error-path tests for the minic frontend: malformed input must surface
//! as `minic::error::CompileError` diagnostics with the right stage and a
//! usable location — never as a panic.

use minic::{compile, ErrorKind};

/// Compile and expect a diagnostic, returning it for further assertions.
fn expect_error(src: &str) -> minic::CompileError {
    match compile(src) {
        Ok(_) => panic!("source should not compile:\n{src}"),
        Err(e) => e,
    }
}

#[test]
fn malformed_struct_decls_are_parse_errors() {
    for src in [
        // Missing closing brace.
        "struct S { int a;",
        // Missing field name.
        "struct S { int; };",
        // Missing semicolon after the body.
        "struct S { int a; } int main() { return 0; }",
        // Garbage where a field type should be.
        "struct S { 42 a; };",
        // Nested brace soup.
        "struct S { struct { int; };",
    ] {
        let err = expect_error(src);
        assert_eq!(
            err.kind,
            ErrorKind::Parse,
            "wrong stage for:\n{src}\n→ {err}"
        );
        assert!(err.loc.line >= 1, "missing location for:\n{src}");
    }
}

#[test]
fn unterminated_literals_are_lex_errors() {
    for src in [
        "char *s = \"unterminated;",
        "int c = 'x;",
        "int c = ';",
        "char *s = \"bad escape \\",
        "/* comment that never ends",
    ] {
        let err = expect_error(src);
        assert_eq!(err.kind, ErrorKind::Lex, "wrong stage for:\n{src}\n→ {err}");
    }
}

#[test]
fn bad_casts_are_diagnosed_not_panicked() {
    // Casting to a pointer to an undefined struct is fine in C (incomplete
    // type) — but *using* it must be a compile-time diagnostic.
    let err = expect_error(
        "int main() {
             struct nope *p = (struct nope *)malloc(8);
             p->field = 1;
             return 0;
         }",
    );
    assert!(
        err.kind == ErrorKind::Sema || err.kind == ErrorKind::Lower,
        "expected a semantic diagnostic, got {err}"
    );

    // A cast *to* a record type by value is a constraint violation.
    let err = expect_error(
        "struct S { int a; };
         int main() { int x = 1; struct S s = (struct S)x; return 0; }",
    );
    assert_eq!(
        err.kind,
        ErrorKind::Sema,
        "cast-to-record should be sema: {err}"
    );

    // In this dialect a record rvalue decays to its address (like arrays),
    // so casting it onward is well-formed; it must still compile cleanly
    // rather than panic.
    assert!(compile(
        "struct S { int a; };
         int main() { struct S s; int *p = (int *)s; return 0; }",
    )
    .is_ok());

    // Cast with a missing operand.
    let err = expect_error("int main() { int x = (int); return 0; }");
    assert_eq!(err.kind, ErrorKind::Parse);
}

#[test]
fn builtin_calls_with_the_wrong_argument_count_are_rejected() {
    for (call, message) in [
        ("memcpy(a, b)", "`memcpy` expects 3 argument(s), 2 given"),
        ("malloc()", "`malloc` expects 1 argument(s), 0 given"),
        ("rand(1)", "`rand` expects 0 argument(s), 1 given"),
        ("exit()", "`exit` expects 1 argument(s), 0 given"),
    ] {
        let src = format!("int main() {{ char *a; char *b; {call}; return 0; }}");
        let err = expect_error(&src);
        assert_eq!(err.kind, ErrorKind::Sema, "wrong stage for `{call}`: {err}");
        assert_eq!(err.message, message);
    }
    // `exit` and `abort` share one builtin but not one arity.
    for call in ["exit(1)", "abort()"] {
        let src = format!("int main() {{ {call}; return 0; }}");
        assert!(compile(&src).is_ok(), "`{call}` should compile");
    }
}

#[test]
fn diagnostics_render_with_stage_and_location() {
    let err = expect_error("struct S { int a;");
    let rendered = err.to_string();
    assert!(
        rendered.contains("parse error"),
        "rendered diagnostic should name the stage: {rendered}"
    );
    assert!(
        rendered.contains(&format!("{}:{}", err.loc.line, err.loc.col)),
        "rendered diagnostic should include the location: {rendered}"
    );
}

#[test]
fn errors_never_escape_as_panics_on_fuzzy_inputs() {
    // A grab-bag of hostile inputs; every one must return Ok or Err,
    // never panic.
    for src in [
        "",
        ";",
        "}{",
        "int",
        "int main(",
        "int main() { return",
        "int main() { (((((((((( }",
        "struct struct struct",
        "int a = 0x; ",
        "int main() { int x = 1 +; }",
        "\u{0}\u{1}\u{2}",
        "int main() { char *p = \"\\q\"; }",
        "struct S { struct S s; };",
    ] {
        let _ = compile(src);
    }
}
