//! # effective-types
//!
//! The C/C++ dynamic type model underlying **EffectiveSan** (Duck & Yap,
//! *EffectiveSan: Type and Memory Error Detection using Dynamically Typed
//! C/C++*, PLDI 2018).
//!
//! This crate provides:
//!
//! * [`Type`] — a qualifier-free representation of every standard C/C++
//!   type (fundamental types, enums, pointers, function pointers, arrays,
//!   structs, classes, unions) plus the special [`Type::Free`] type bound to
//!   deallocated memory (paper §3);
//! * [`TypeRegistry`] — nominal record definitions with computed layouts
//!   (`sizeof`, `alignof`, `offsetof`, base-class embedding, vtable
//!   pointers, flexible array members);
//! * [`layout_at`] — the layout function `L` of Figure 2, mapping an
//!   allocation type and byte offset to the set of valid sub-objects;
//! * [`TypeLayout`] — the O(1) layout hash table of §5 for one allocation
//!   element type, with offset normalisation, tie-breaking and the
//!   `char[]` / `void *` coercion rules;
//! * [`TypeInterner`] / [`TypeId`] — the interning layer that keys the
//!   layout tables by dense ids, so a lookup hashes a `(u32, u64)` pair
//!   with a multiply-rotate hash instead of deep-hashing (and cloning) a
//!   structural type.
//!
//! Everything here is pure data and pure functions; the runtime that binds
//! types to allocations lives in the `effective-runtime` crate.
//!
//! ## Example
//!
//! ```
//! use effective_types::{FieldDef, RecordDef, Type, TypeInterner, TypeLayout, TypeRegistry};
//!
//! // struct account { int number[8]; float balance; };
//! let mut registry = TypeRegistry::new();
//! registry
//!     .define(RecordDef::struct_(
//!         "account",
//!         vec![
//!             FieldDef::new("number", Type::array(Type::int(), 8)),
//!             FieldDef::new("balance", Type::float()),
//!         ],
//!     ))
//!     .unwrap();
//!
//! let mut interner = TypeInterner::new();
//! let table = TypeLayout::build(&registry, &mut interner, &Type::struct_("account")).unwrap();
//! // An `int` access inside `number` is fine...
//! assert!(table.lookup(&interner, &Type::int(), 4).is_some());
//! // ...and the bounds for the `number` array stop before `balance`, so an
//! // overflow from `number` into `balance` is flagged.  Hot paths intern
//! // the static type once and probe by dense id.
//! let int_id = interner.intern(&Type::int());
//! let m = table.lookup_id(&interner, int_id, 0).unwrap();
//! assert_eq!(m.bounds.hi, 32);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod intern;
pub mod layout;
pub mod layout_table;
pub mod registry;
pub mod types;

pub use intern::{TypeId, TypeInterner, TypeTraits};
pub use layout::{layout_at, layout_at_with, type_bounds, LayoutOptions, SubObject};
pub use layout_table::{LayoutMatch, MatchKind, RelBounds, TypeLayout};
pub use registry::{
    BaseDef, FieldDef, MemberLayout, MemberOrigin, RecordDef, RecordLayout, TypeError, TypeRegistry,
};
pub use types::{FunctionType, Primitive, RecordKind, Type};
