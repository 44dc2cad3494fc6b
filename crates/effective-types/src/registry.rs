//! The type registry: nominal record definitions and their memory layout.
//!
//! C/C++ record types (`struct`/`class`/`union`) are nominal; a
//! [`Type::Record`](crate::Type) only names the tag.  The [`TypeRegistry`]
//! owns the definitions and computes a concrete [`RecordLayout`] for each:
//! member offsets, size, alignment, virtual-table pointers for polymorphic
//! classes, base-class sub-objects, and flexible array members (FAMs).
//!
//! The layout rules are a simplified Itanium/SysV model sufficient for the
//! paper's evaluation:
//!
//! * members are laid out in declaration order, each aligned to its natural
//!   alignment; the record is padded to its maximal member alignment;
//! * base classes are embedded members laid out before the derived class's
//!   own fields (the paper: "we consider any base class to be an implicit
//!   embedded member");
//! * a polymorphic class (one that declares virtual methods and has no
//!   polymorphic primary base) gets an 8-byte virtual-table pointer at
//!   offset 0, typed as an array of generic function pointers (§6);
//! * unions place every member at offset 0 (Fig. 2 rule (g));
//! * a flexible array member `U member[]` is laid out as `U member[1]`
//!   (§5), and the registry records its element type so the layout table can
//!   apply the FAM offset normalisation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::types::{RecordKind, Type};

/// Error produced when defining or querying record types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// A record tag was referenced but never defined.
    UndefinedRecord(String),
    /// A record tag was defined twice with different definitions.
    Redefinition(String),
    /// A member has a type whose size cannot be computed (e.g. `void`, an
    /// incomplete array in a non-final position, or a function type).
    IncompleteMember {
        /// Record being defined.
        record: String,
        /// Offending member name.
        member: String,
    },
    /// A base class is not a struct/class record.
    InvalidBase {
        /// Record being defined.
        record: String,
        /// Offending base tag.
        base: String,
    },
    /// The size of an incomplete type was requested.
    IncompleteType(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UndefinedRecord(tag) => write!(f, "undefined record type `{tag}`"),
            TypeError::Redefinition(tag) => write!(f, "conflicting redefinition of `{tag}`"),
            TypeError::IncompleteMember { record, member } => {
                write!(f, "member `{member}` of `{record}` has incomplete type")
            }
            TypeError::InvalidBase { record, base } => {
                write!(f, "`{base}` is not a valid base class of `{record}`")
            }
            TypeError::IncompleteType(t) => write!(f, "size of incomplete type `{t}` requested"),
        }
    }
}

impl std::error::Error for TypeError {}

/// A field in a record definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Field type.  An [`Type::IncompleteArray`] in the final position of a
    /// struct declares a flexible array member.
    pub ty: Type,
}

impl FieldDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        FieldDef {
            name: name.into(),
            ty,
        }
    }
}

/// A base class of a C++ class definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseDef {
    /// Tag of the base record (must be a struct/class).
    pub tag: String,
    /// Whether this is a virtual base.  Virtual bases are laid out once, at
    /// the end of the most-derived object (simplified model).
    pub virtual_base: bool,
}

impl BaseDef {
    /// A non-virtual base.
    pub fn new(tag: impl Into<String>) -> Self {
        BaseDef {
            tag: tag.into(),
            virtual_base: false,
        }
    }

    /// A virtual base.
    pub fn virtual_(tag: impl Into<String>) -> Self {
        BaseDef {
            tag: tag.into(),
            virtual_base: true,
        }
    }
}

/// A record (struct/class/union) definition as written by the programmer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordDef {
    /// The record tag.
    pub tag: String,
    /// struct / class / union.
    pub kind: RecordKind,
    /// Base classes (empty for C structs and unions).
    pub bases: Vec<BaseDef>,
    /// Fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// Whether the record declares (or overrides) virtual methods.
    pub has_virtual_methods: bool,
}

impl RecordDef {
    /// A plain C struct definition.
    pub fn struct_(tag: impl Into<String>, fields: Vec<FieldDef>) -> Self {
        RecordDef {
            tag: tag.into(),
            kind: RecordKind::Struct,
            bases: Vec::new(),
            fields,
            has_virtual_methods: false,
        }
    }

    /// A C union definition.
    pub fn union_(tag: impl Into<String>, fields: Vec<FieldDef>) -> Self {
        RecordDef {
            tag: tag.into(),
            kind: RecordKind::Union,
            bases: Vec::new(),
            fields,
            has_virtual_methods: false,
        }
    }

    /// A C++ class definition.
    pub fn class(
        tag: impl Into<String>,
        bases: Vec<BaseDef>,
        fields: Vec<FieldDef>,
        has_virtual_methods: bool,
    ) -> Self {
        RecordDef {
            tag: tag.into(),
            kind: RecordKind::Class,
            bases,
            fields,
            has_virtual_methods,
        }
    }

    /// The [`Type`] naming this record.
    pub fn ty(&self) -> Type {
        Type::Record(self.kind, Arc::from(self.tag.as_str()))
    }
}

/// Why a member exists in a computed layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberOrigin {
    /// An ordinary declared field.
    Field,
    /// An embedded base-class sub-object.
    Base,
    /// An embedded virtual base-class sub-object.
    VirtualBase,
    /// The virtual-table pointer of a polymorphic class.
    VTablePointer,
    /// A flexible array member, materialised as a one-element array.
    FlexibleArray,
}

/// One member of a computed record layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberLayout {
    /// Member name (base-class members are named after their tag, the
    /// virtual-table pointer is named `__vptr`).
    pub name: String,
    /// The member's type.  For FAMs this is the materialised `U[1]` type.
    pub ty: Type,
    /// Offset from the start of the record, in bytes.
    pub offset: u64,
    /// Size of the member, in bytes.
    pub size: u64,
    /// Why the member exists.
    pub origin: MemberOrigin,
}

/// The computed layout of a record type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordLayout {
    /// The record tag.
    pub tag: String,
    /// struct / class / union.
    pub kind: RecordKind,
    /// Members (fields, embedded bases, vptr, FAM) with their offsets.
    pub members: Vec<MemberLayout>,
    /// Total size in bytes, including trailing padding.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Element type of the flexible array member, if the record has one.
    pub flexible_element: Option<Type>,
    /// True if the class is polymorphic (has a virtual-table pointer
    /// somewhere in its layout).
    pub polymorphic: bool,
}

impl RecordLayout {
    /// Offset of the named member (standard `offsetof`).
    pub fn offset_of(&self, member: &str) -> Option<u64> {
        self.members
            .iter()
            .find(|m| m.name == member)
            .map(|m| m.offset)
    }

    /// The member layout entry with the given name.
    pub fn member(&self, name: &str) -> Option<&MemberLayout> {
        self.members.iter().find(|m| m.name == name)
    }

    /// Iterate over the direct base-class sub-objects.
    pub fn bases(&self) -> impl Iterator<Item = &MemberLayout> {
        self.members
            .iter()
            .filter(|m| matches!(m.origin, MemberOrigin::Base | MemberOrigin::VirtualBase))
    }
}

/// The registry of record definitions and computed layouts.
///
/// A registry is the single source of truth for `sizeof`, `alignof`,
/// `offsetof` and the layout function [`layout_at`](crate::layout::layout_at).
#[derive(Clone, Debug, Default)]
pub struct TypeRegistry {
    defs: HashMap<String, RecordDef>,
    layouts: HashMap<String, Arc<RecordLayout>>,
}

impl TypeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a record type, computing its layout eagerly.
    ///
    /// Returns an error if the tag is already defined with a *different*
    /// definition (identical redefinitions are accepted, mirroring how the
    /// same header may be compiled into many modules), if a member type is
    /// incomplete, or if a base class is unknown.
    pub fn define(&mut self, def: RecordDef) -> Result<Type, TypeError> {
        if let Some(existing) = self.defs.get(&def.tag) {
            if *existing != def {
                return Err(TypeError::Redefinition(def.tag.clone()));
            }
            return Ok(def.ty());
        }
        let layout = self.compute_layout(&def)?;
        let ty = def.ty();
        self.layouts.insert(def.tag.clone(), Arc::new(layout));
        self.defs.insert(def.tag.clone(), def);
        Ok(ty)
    }

    /// Define a record, replacing any previous definition with the same tag.
    ///
    /// This models the `gcc` finding from §6.1 ("incompatible definitions for
    /// the same type"): translation units may genuinely disagree.  The most
    /// recent definition wins for layout purposes.
    pub fn define_or_replace(&mut self, def: RecordDef) -> Result<Type, TypeError> {
        let layout = self.compute_layout(&def)?;
        let ty = def.ty();
        self.layouts.insert(def.tag.clone(), Arc::new(layout));
        self.defs.insert(def.tag.clone(), def);
        Ok(ty)
    }

    /// Look up a record definition by tag.
    pub fn definition(&self, tag: &str) -> Option<&RecordDef> {
        self.defs.get(tag)
    }

    /// Look up a computed record layout by tag.
    pub fn layout(&self, tag: &str) -> Result<&Arc<RecordLayout>, TypeError> {
        self.layouts
            .get(tag)
            .ok_or_else(|| TypeError::UndefinedRecord(tag.to_string()))
    }

    /// Iterate over all defined record tags.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.defs.keys().map(|s| s.as_str())
    }

    /// Number of defined record types.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no records are defined.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// `sizeof(ty)` in bytes.
    ///
    /// Incomplete arrays, `void` and function types have no size and yield
    /// [`TypeError::IncompleteType`].  The `FREE` type has size 1 so that the
    /// layout machinery treats every offset of a freed object uniformly.
    pub fn size_of(&self, ty: &Type) -> Result<u64, TypeError> {
        match ty {
            Type::Prim(p) => {
                if p.size() == 0 {
                    Err(TypeError::IncompleteType(ty.to_string()))
                } else {
                    Ok(p.size())
                }
            }
            Type::Enum(_) => Ok(4),
            Type::Pointer(_) => Ok(8),
            Type::Function(_) => Err(TypeError::IncompleteType(ty.to_string())),
            Type::Array(e, n) => Ok(self.size_of(e)?.saturating_mul(*n)),
            Type::IncompleteArray(_) => Err(TypeError::IncompleteType(ty.to_string())),
            Type::Record(_, tag) => Ok(self.layout(tag)?.size),
            Type::Free => Ok(1),
        }
    }

    /// `alignof(ty)` in bytes.
    pub fn align_of(&self, ty: &Type) -> Result<u64, TypeError> {
        match ty {
            Type::Prim(p) => Ok(p.align()),
            Type::Enum(_) => Ok(4),
            Type::Pointer(_) | Type::Function(_) => Ok(8),
            Type::Array(e, _) | Type::IncompleteArray(e) => self.align_of(e),
            Type::Record(_, tag) => Ok(self.layout(tag)?.align),
            Type::Free => Ok(1),
        }
    }

    /// `offsetof(record, member)` in bytes.
    pub fn offset_of(&self, record_tag: &str, member: &str) -> Result<u64, TypeError> {
        let layout = self.layout(record_tag)?;
        layout
            .offset_of(member)
            .ok_or_else(|| TypeError::UndefinedRecord(format!("{record_tag}::{member}")))
    }

    /// Whether the given type is complete (has a known size).
    pub fn is_complete(&self, ty: &Type) -> bool {
        self.size_of(ty).is_ok()
    }

    fn compute_layout(&self, def: &RecordDef) -> Result<RecordLayout, TypeError> {
        let mut members = Vec::new();
        let mut size: u64 = 0;
        let mut align: u64 = 1;
        let mut polymorphic = false;
        let mut flexible_element = None;

        let place = |members: &mut Vec<MemberLayout>,
                     size: &mut u64,
                     align: &mut u64,
                     name: String,
                     ty: Type,
                     msize: u64,
                     malign: u64,
                     origin: MemberOrigin,
                     is_union: bool| {
            let offset = if is_union { 0 } else { round_up(*size, malign) };
            members.push(MemberLayout {
                name,
                ty,
                offset,
                size: msize,
                origin,
            });
            if is_union {
                *size = (*size).max(msize);
            } else {
                *size = offset + msize;
            }
            *align = (*align).max(malign);
        };

        let is_union = def.kind == RecordKind::Union;

        // Virtual-table pointer: a class that declares virtual methods and
        // whose primary (first non-virtual) base is not already polymorphic
        // gets a vptr at offset 0.
        let primary_base_polymorphic = def
            .bases
            .iter()
            .find(|b| !b.virtual_base)
            .and_then(|b| self.layouts.get(&b.tag))
            .map(|l| l.polymorphic)
            .unwrap_or(false);
        if def.has_virtual_methods && !primary_base_polymorphic && !is_union {
            let vptr_ty = Type::ptr(Type::incomplete_array(Type::generic_fn_ptr()));
            place(
                &mut members,
                &mut size,
                &mut align,
                "__vptr".to_string(),
                vptr_ty,
                8,
                8,
                MemberOrigin::VTablePointer,
                false,
            );
            polymorphic = true;
        }

        // Non-virtual bases, in order.
        for base in def.bases.iter().filter(|b| !b.virtual_base) {
            let bl = self
                .layouts
                .get(&base.tag)
                .ok_or_else(|| TypeError::InvalidBase {
                    record: def.tag.clone(),
                    base: base.tag.clone(),
                })?
                .clone();
            if bl.kind == RecordKind::Union {
                return Err(TypeError::InvalidBase {
                    record: def.tag.clone(),
                    base: base.tag.clone(),
                });
            }
            polymorphic |= bl.polymorphic;
            let bty = Type::Record(bl.kind, Arc::from(base.tag.as_str()));
            place(
                &mut members,
                &mut size,
                &mut align,
                base.tag.clone(),
                bty,
                bl.size,
                bl.align,
                MemberOrigin::Base,
                is_union,
            );
        }

        // Declared fields.
        let nfields = def.fields.len();
        for (i, field) in def.fields.iter().enumerate() {
            let is_last = i + 1 == nfields;
            match &field.ty {
                Type::IncompleteArray(elem) if is_last && !is_union => {
                    // Flexible array member: treated as a one-element array.
                    let esize = self
                        .size_of(elem)
                        .map_err(|_| TypeError::IncompleteMember {
                            record: def.tag.clone(),
                            member: field.name.clone(),
                        })?;
                    let ealign = self.align_of(elem)?;
                    let fam_ty = Type::Array(elem.clone(), 1);
                    place(
                        &mut members,
                        &mut size,
                        &mut align,
                        field.name.clone(),
                        fam_ty,
                        esize,
                        ealign,
                        MemberOrigin::FlexibleArray,
                        false,
                    );
                    flexible_element = Some(elem.as_ref().clone());
                }
                ty => {
                    let msize = self.size_of(ty).map_err(|_| TypeError::IncompleteMember {
                        record: def.tag.clone(),
                        member: field.name.clone(),
                    })?;
                    let malign = self.align_of(ty)?;
                    place(
                        &mut members,
                        &mut size,
                        &mut align,
                        field.name.clone(),
                        ty.clone(),
                        msize,
                        malign,
                        MemberOrigin::Field,
                        is_union,
                    );
                }
            }
        }

        // Virtual bases at the end of the object (simplified model).
        for base in def.bases.iter().filter(|b| b.virtual_base) {
            let bl = self
                .layouts
                .get(&base.tag)
                .ok_or_else(|| TypeError::InvalidBase {
                    record: def.tag.clone(),
                    base: base.tag.clone(),
                })?
                .clone();
            polymorphic |= bl.polymorphic;
            let bty = Type::Record(bl.kind, Arc::from(base.tag.as_str()));
            place(
                &mut members,
                &mut size,
                &mut align,
                base.tag.clone(),
                bty,
                bl.size,
                bl.align,
                MemberOrigin::VirtualBase,
                is_union,
            );
        }

        // An empty record still occupies one byte (C++ rule; practical for C
        // too since zero-sized allocations are rounded up anyway).
        let raw_size = if members.is_empty() { 1 } else { size };
        let size = round_up(raw_size.max(1), align);

        Ok(RecordLayout {
            tag: def.tag.clone(),
            kind: def.kind,
            members,
            size,
            align,
            flexible_element,
            polymorphic,
        })
    }
}

fn round_up(value: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two() || align == 1 || align == 16);
    if align <= 1 {
        return value;
    }
    value.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example from the paper (Example 1):
    /// ```c
    /// struct S { int a[3]; char *s; };
    /// struct T { float f; struct S t; };
    /// ```
    pub fn paper_registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "S",
            vec![
                FieldDef::new("a", Type::array(Type::int(), 3)),
                FieldDef::new("s", Type::char_ptr()),
            ],
        ))
        .unwrap();
        reg.define(RecordDef::struct_(
            "T",
            vec![
                FieldDef::new("f", Type::float()),
                FieldDef::new("t", Type::struct_("S")),
            ],
        ))
        .unwrap();
        reg
    }

    #[test]
    fn paper_example_struct_layout() {
        let reg = paper_registry();
        let s = reg.layout("S").unwrap();
        assert_eq!(s.size, 24); // int[3] (12) + pad (4) + char* (8)
        assert_eq!(s.align, 8);
        assert_eq!(s.offset_of("a"), Some(0));
        assert_eq!(s.offset_of("s"), Some(16));

        let t = reg.layout("T").unwrap();
        // float (4) + pad (4)?  No: S has align 8, so t at offset 8?  The
        // paper's Example 2 places `t` at offset 4, which implies an align-4
        // model for S there (its table uses offset 16 for `s` relative to
        // p).  We follow the real SysV layout here; the layout-function unit
        // tests use a paper-faithful variant with `long`-free members.
        assert_eq!(t.offset_of("f"), Some(0));
        assert_eq!(t.offset_of("t"), Some(8));
        assert_eq!(t.size, 32);
    }

    #[test]
    fn union_members_all_at_offset_zero() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::union_(
            "U",
            vec![
                FieldDef::new("a", Type::array(Type::float(), 10)),
                FieldDef::new("b", Type::array(Type::float(), 20)),
                FieldDef::new("i", Type::int()),
            ],
        ))
        .unwrap();
        let u = reg.layout("U").unwrap();
        for m in &u.members {
            assert_eq!(m.offset, 0);
        }
        assert_eq!(u.size, 80);
        assert_eq!(u.align, 4);
    }

    #[test]
    fn class_with_base_embeds_base_at_offset_zero() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::class(
            "Base",
            vec![],
            vec![
                FieldDef::new("x", Type::int()),
                FieldDef::new("y", Type::float()),
            ],
            false,
        ))
        .unwrap();
        reg.define(RecordDef::class(
            "Derived",
            vec![BaseDef::new("Base")],
            vec![FieldDef::new("z", Type::char_())],
            false,
        ))
        .unwrap();
        let d = reg.layout("Derived").unwrap();
        assert_eq!(d.offset_of("Base"), Some(0));
        assert_eq!(d.offset_of("z"), Some(8));
        assert_eq!(d.size, 12);
        assert_eq!(d.bases().count(), 1);
    }

    #[test]
    fn polymorphic_class_gets_vptr() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::class(
            "Grammar",
            vec![],
            vec![FieldDef::new("kind", Type::int())],
            true,
        ))
        .unwrap();
        let g = reg.layout("Grammar").unwrap();
        assert!(g.polymorphic);
        assert_eq!(g.offset_of("__vptr"), Some(0));
        assert_eq!(g.offset_of("kind"), Some(8));
        assert_eq!(g.size, 16);

        // A derived polymorphic class re-uses the base's vptr.
        reg.define(RecordDef::class(
            "SchemaGrammar",
            vec![BaseDef::new("Grammar")],
            vec![FieldDef::new("extra", Type::double())],
            true,
        ))
        .unwrap();
        let sg = reg.layout("SchemaGrammar").unwrap();
        assert!(sg.polymorphic);
        assert_eq!(sg.offset_of("__vptr"), None);
        assert_eq!(sg.offset_of("Grammar"), Some(0));
        assert_eq!(sg.offset_of("extra"), Some(16));
    }

    #[test]
    fn virtual_base_is_laid_out_at_end() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::class(
            "VBase",
            vec![],
            vec![FieldDef::new("v", Type::int())],
            false,
        ))
        .unwrap();
        reg.define(RecordDef::class(
            "Mid",
            vec![BaseDef::virtual_("VBase")],
            vec![FieldDef::new("m", Type::int())],
            false,
        ))
        .unwrap();
        let mid = reg.layout("Mid").unwrap();
        assert_eq!(mid.offset_of("m"), Some(0));
        assert_eq!(mid.offset_of("VBase"), Some(4));
    }

    #[test]
    fn flexible_array_member_is_materialised() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "Packet",
            vec![
                FieldDef::new("len", Type::int()),
                FieldDef::new("data", Type::incomplete_array(Type::char_())),
            ],
        ))
        .unwrap();
        let p = reg.layout("Packet").unwrap();
        assert_eq!(p.flexible_element, Some(Type::char_()));
        let fam = p.member("data").unwrap();
        assert_eq!(fam.origin, MemberOrigin::FlexibleArray);
        assert_eq!(fam.ty, Type::array(Type::char_(), 1));
        assert_eq!(p.size, 8);
    }

    #[test]
    fn sizeof_and_alignof_basic_types() {
        let reg = paper_registry();
        assert_eq!(reg.size_of(&Type::int()).unwrap(), 4);
        assert_eq!(reg.size_of(&Type::ptr(Type::struct_("S"))).unwrap(), 8);
        assert_eq!(reg.size_of(&Type::array(Type::int(), 100)).unwrap(), 400);
        assert_eq!(reg.size_of(&Type::struct_("S")).unwrap(), 24);
        assert_eq!(reg.align_of(&Type::struct_("S")).unwrap(), 8);
        assert_eq!(reg.size_of(&Type::enum_("E")).unwrap(), 4);
        assert_eq!(reg.size_of(&Type::Free).unwrap(), 1);
        assert!(reg.size_of(&Type::void()).is_err());
        assert!(reg.size_of(&Type::incomplete_array(Type::int())).is_err());
    }

    #[test]
    fn identical_redefinition_is_accepted_but_conflicting_is_not() {
        let mut reg = TypeRegistry::new();
        let def = RecordDef::struct_("S", vec![FieldDef::new("x", Type::int())]);
        reg.define(def.clone()).unwrap();
        assert!(reg.define(def).is_ok());
        let conflicting = RecordDef::struct_("S", vec![FieldDef::new("x", Type::float())]);
        assert_eq!(
            reg.define(conflicting.clone()),
            Err(TypeError::Redefinition("S".to_string()))
        );
        // define_or_replace models gcc's incompatible-definition finding.
        reg.define_or_replace(conflicting).unwrap();
        assert_eq!(
            reg.layout("S").unwrap().member("x").unwrap().ty,
            Type::float()
        );
    }

    #[test]
    fn undefined_record_size_errors() {
        let reg = TypeRegistry::new();
        assert!(matches!(
            reg.size_of(&Type::struct_("Nope")),
            Err(TypeError::UndefinedRecord(_))
        ));
    }

    #[test]
    fn empty_record_has_size_one() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_("Empty", vec![])).unwrap();
        assert_eq!(reg.layout("Empty").unwrap().size, 1);
    }
}
