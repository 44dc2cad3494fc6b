//! # minic
//!
//! A Mini-C/C++ front end and typed IR — the compilation substrate of this
//! EffectiveSan reproduction.
//!
//! The published EffectiveSan instruments C/C++ by modifying clang to emit
//! type-annotated LLVM IR and adding an LLVM instrumentation pass (§6).
//! Re-building that toolchain is out of scope for a Rust reproduction, so
//! this crate provides the equivalent substrate:
//!
//! * a lexer, parser and AST for a C subset with the C++ extensions the
//!   evaluation needs (classes, single/multiple inheritance, virtual-method
//!   markers, `new`/`delete`, named casts);
//! * semantic analysis with the allocation-type inference of Example 1;
//! * a typed, flat IR ([`ir::Instr`]) carrying static type annotations on
//!   every pointer-producing instruction — exactly the information the
//!   Figure 3 instrumentation schema consumes;
//! * pre-declared slots for the instrumentation instructions
//!   (`TypeCheck`, `BoundsCheck`, …) inserted by the `instrument` crate and
//!   executed by the `vm` crate.
//!
//! ## Example
//!
//! ```
//! let program = minic::compile(
//!     "struct node { int value; struct node *next; };
//!      int length(struct node *xs) {
//!          int len = 0;
//!          while (xs != NULL) { len++; xs = xs->next; }
//!          return len;
//!      }",
//! )
//! .unwrap();
//! assert!(program.function("length").is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod token;

pub use error::{CompileError, ErrorKind};
pub use ir::{Builtin, CastKind, Const, Function, Global, Instr, Param, Program, Slot};

/// Compile Mini-C/C++ source text to a typed IR [`Program`].
pub fn compile(source: &str) -> Result<Program, CompileError> {
    let unit = parser::parse(source)?;
    lower::lower(&unit, source.lines().count())
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_end_to_end() {
        let program = super::compile(
            "struct S { int a[3]; char *s; };
             int main() {
                 struct S *p = (struct S *)malloc(sizeof(struct S));
                 p->a[0] = 1;
                 free(p);
                 return 0;
             }",
        )
        .unwrap();
        assert_eq!(program.functions.len(), 1);
        assert!(program.source_lines >= 7);
        assert!(program.instruction_count() > 5);
        assert_eq!(program.check_count(), 0); // not yet instrumented
    }

    #[test]
    fn compile_reports_parse_and_sema_errors() {
        assert!(super::compile("int f( {").is_err());
        assert!(super::compile("int f() { return undefined_var; }").is_err());
    }
}
