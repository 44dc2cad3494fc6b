//! The Mini-C/C++ abstract syntax tree.
//!
//! The AST is deliberately close to the C surface syntax: types are written
//! with declarators, expressions carry no type annotations (semantic
//! analysis adds those during lowering), and the handful of C++ features
//! the evaluation needs (classes, single/multiple inheritance, `new` /
//! `delete`, C++-style casts written as ordinary casts) appear as small
//! extensions.

use effective_types::Type;

use crate::token::Loc;

/// A full translation unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Unit {
    /// Record (struct/class/union) definitions, in order.
    pub records: Vec<RecordDecl>,
    /// Global variable definitions.
    pub globals: Vec<GlobalDecl>,
    /// Function definitions.
    pub functions: Vec<FunctionDecl>,
}

/// struct / class / union in the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKeyword {
    /// `struct`
    Struct,
    /// `class`
    Class,
    /// `union`
    Union,
}

/// A record definition.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordDecl {
    /// Which keyword introduced it.
    pub keyword: RecordKeyword,
    /// The tag.
    pub name: String,
    /// Base classes (classes only).
    pub bases: Vec<String>,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Whether the record declares virtual methods.
    pub has_virtual: bool,
    /// Source location.
    pub loc: Loc,
}

/// A single field declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Field type (already resolved to an `effective_types::Type`).
    pub ty: Type,
    /// Source location.
    pub loc: Loc,
}

/// A global variable definition.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub ty: Type,
    /// Optional constant initialiser.
    pub init: Option<Expr>,
    /// Source location.
    pub loc: Loc,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDecl {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<ParamDecl>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Source location.
    pub loc: Loc,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Source location.
    pub loc: Loc,
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// A local variable declaration with optional initialiser.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Initialiser expression.
        init: Option<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// An expression evaluated for its side effects.
    Expr(Expr),
    /// `if (cond) then else`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch.
        else_body: Vec<Stmt>,
        /// Source location.
        loc: Loc,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location.
        loc: Loc,
    },
    /// `for (init; cond; step) body`
    For {
        /// Init statement (declaration or expression).
        init: Option<Box<Stmt>>,
        /// Condition (absent means `true`).
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location.
        loc: Loc,
    },
    /// `return expr;`
    Return(Option<Expr>, Loc),
    /// `break;`
    Break(Loc),
    /// `continue;`
    Continue(Loc),
    /// A nested block.
    Block(Vec<Stmt>),
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LogicalAnd,
    LogicalOr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

/// How a cast was written in the source.  EffectiveSan-type instruments
/// cast sites; the distinction lets reports mirror the paper's taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastStyle {
    /// A C-style cast `(T)e`.
    CStyle,
    /// C++ `static_cast<T>(e)` (also used for implicit derived→base).
    Static,
    /// C++ `reinterpret_cast<T>(e)`.
    Reinterpret,
    /// C++ `dynamic_cast<T>(e)` — checked downcast.
    Dynamic,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Loc),
    /// Floating-point literal.
    FloatLit(f64, Loc),
    /// String literal (lowered to a global char array).
    StrLit(String, Loc),
    /// `NULL` / `nullptr`.
    Null(Loc),
    /// A variable reference.
    Var(String, Loc),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Assignment `lhs = rhs` (also `+=`, `-=` desugared by the parser).
    Assign {
        /// Assignment target (an lvalue expression).
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Increment or decrement, prefix (`++target`, `--target`) or postfix
    /// (`target++`, `target--`).  Both write `target ± 1`; the prefix
    /// form yields the new value, the postfix form the old one.
    Increment {
        /// [`BinOp::Add`] for `++`, [`BinOp::Sub`] for `--`.
        op: BinOp,
        /// The variable or memory location updated (an lvalue expression).
        target: Box<Expr>,
        /// The postfix form.
        postfix: bool,
        /// Source location.
        loc: Loc,
    },
    /// Array subscript `base[index]`.
    Index {
        /// Base expression (array or pointer).
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Member access `base.field` or `base->field`.
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// True for `->`.
        arrow: bool,
        /// Source location.
        loc: Loc,
    },
    /// Pointer dereference `*ptr`.
    Deref(Box<Expr>, Loc),
    /// Address-of `&lvalue`.
    AddrOf(Box<Expr>, Loc),
    /// A cast `(T)expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// How the cast was written.
        style: CastStyle,
        /// Operand.
        expr: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// A function call `f(args...)`; also used for builtin calls
    /// (`malloc`, `free`, `memcpy`, `print`, …).
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// `sizeof(T)`.
    SizeOf(Type, Loc),
    /// `new T` / `new T[count]`.
    New {
        /// Element type.
        ty: Type,
        /// Element count (absent for scalar `new`).
        count: Option<Box<Expr>>,
        /// Source location.
        loc: Loc,
    },
    /// `delete p` / `delete[] p`.
    Delete {
        /// Pointer operand.
        expr: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Conditional expression `cond ? a : b`.
    Conditional {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
}

impl Expr {
    /// The source location of the expression.
    pub fn loc(&self) -> Loc {
        match self {
            Expr::IntLit(_, l)
            | Expr::FloatLit(_, l)
            | Expr::StrLit(_, l)
            | Expr::Null(l)
            | Expr::Var(_, l)
            | Expr::Deref(_, l)
            | Expr::AddrOf(_, l)
            | Expr::SizeOf(_, l) => *l,
            Expr::Binary { loc, .. }
            | Expr::Unary { loc, .. }
            | Expr::Assign { loc, .. }
            | Expr::Increment { loc, .. }
            | Expr::Index { loc, .. }
            | Expr::Member { loc, .. }
            | Expr::Cast { loc, .. }
            | Expr::Call { loc, .. }
            | Expr::New { loc, .. }
            | Expr::Delete { loc, .. }
            | Expr::Conditional { loc, .. } => *loc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_locations_are_preserved() {
        let l = Loc::new(4, 2);
        assert_eq!(Expr::IntLit(1, l).loc(), l);
        assert_eq!(
            Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::IntLit(1, l)),
                rhs: Box::new(Expr::IntLit(2, l)),
                loc: Loc::new(9, 9),
            }
            .loc(),
            Loc::new(9, 9)
        );
    }
}
