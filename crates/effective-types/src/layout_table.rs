//! The layout hash table (paper §5, Example 6).
//!
//! The runtime's `type_check` must answer, in O(1), queries of the form
//! "does the object with allocation (dynamic) type `T[]` contain a
//! sub-object of static type `S[]` at byte offset `k`, and if so what are
//! that sub-object's bounds relative to `k`?".  The paper pre-computes a
//! hash table with one entry per `(T, S, k)` triple:
//!
//! ```text
//!   T × S × k  ↦  −δ .. sizeof(S)−δ
//! ```
//!
//! kept finite by normalising offsets to `k mod sizeof(T)` (the allocation's
//! effective type is `T[N]` with `N` determined only at runtime by the
//! allocation size) and, for structures with flexible array members, by the
//! FAM-specific normalisation of §5.
//!
//! This module implements that table per allocation element type
//! ([`TypeLayout`]), including:
//!
//! * the tie-breaking rules (wider bounds preferred, one-past-the-end
//!   matches last);
//! * the `char[]` and `void *` coercions ("sloppy"/"de facto" C, §5–6);
//! * unbounded entries for the containing allocation array itself
//!   (Example 6: `(T, T, 0) ↦ −∞..∞`), later narrowed to the allocation
//!   bounds by the runtime.
//!
//! To keep the probe genuinely O(1), the table is keyed by interned
//! [`TypeId`]s rather than structural [`Type`] values: a lookup hashes a
//! `(u32, u64)` pair, with two multiply-rotate steps (`KeyHasher`),
//! instead of deep-hashing (and cloning) a type, and the coercion probes
//! use the fixed ids [`TypeId::CHAR`] / [`TypeId::VOID_PTR`] with no
//! hashing of the coerced type at all.  A structural reference
//! implementation (the pre-interning code path) is kept under
//! `#[cfg(test)]` and property-tested equal to the interned path.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::intern::{TypeId, TypeInterner, TypeTraits};
use crate::layout::{layout_at, SubObject};
use crate::registry::{TypeError, TypeRegistry};
use crate::types::Type;

/// Sub-object bounds relative to the queried pointer, in bytes.
///
/// `lo` is usually negative or zero (distance back to the sub-object base),
/// `hi` positive (distance to one past the sub-object end).  The sentinels
/// [`RelBounds::UNBOUNDED`] represent the `−∞..∞` entries of Example 6,
/// which the runtime narrows to the allocation bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RelBounds {
    /// Lower bound relative to the queried pointer (inclusive).
    pub lo: i64,
    /// Upper bound relative to the queried pointer (exclusive).
    pub hi: i64,
}

impl RelBounds {
    /// The unbounded range `−∞..∞`.
    pub const UNBOUNDED: RelBounds = RelBounds {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A bounded range.
    pub fn new(lo: i64, hi: i64) -> Self {
        RelBounds { lo, hi }
    }

    /// Width of the range (saturating; unbounded ranges report `u64::MAX`).
    pub fn width(&self) -> u64 {
        if self.is_unbounded() {
            u64::MAX
        } else {
            (self.hi - self.lo).max(0) as u64
        }
    }

    /// Is this the unbounded range?
    pub fn is_unbounded(&self) -> bool {
        self.lo == i64::MIN || self.hi == i64::MAX
    }

    /// Intersection of two relative ranges (the `bounds_narrow` operation).
    pub fn intersect(&self, other: &RelBounds) -> RelBounds {
        RelBounds {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// How a successful layout-table lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// The static type matched a sub-object exactly.
    Exact,
    /// The static type matched the containing allocation array itself
    /// (unbounded entry, narrowed to the allocation by the runtime).
    ContainingArray,
    /// Matched through the `void * ⇄ T *` coercion.
    VoidPointerCoercion,
    /// Matched a `char` sub-object through the `char[] → T[]` coercion
    /// (the paper's second hash-table lookup).
    CharCoercion,
    /// The static type is a character type and no exact match existed; the
    /// access is treated as byte access to the containing object
    /// (`T → char[]` direction; "resets the bounds to the containing
    /// object", §6.1).
    ByteAccess,
    /// The allocation is `FREE` (deallocated memory); every lookup fails
    /// with a use-after-free style type error, so this kind only appears in
    /// diagnostics.
    Free,
}

/// A successful lookup: relative sub-object bounds plus how they were found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutMatch {
    /// Sub-object bounds relative to the queried pointer.
    pub bounds: RelBounds,
    /// How the match was obtained.
    pub kind: MatchKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Candidate {
    bounds: RelBounds,
    /// One-past-the-end match (matched last by tie-breaking).
    is_end: bool,
    /// Entry synthesised for the `void*` wildcard rather than an exact
    /// `void*` sub-object.
    pointer_wildcard: bool,
}

impl Candidate {
    /// Tie-breaking rules (§5): non-end entries beat end entries; wider
    /// bounds beat narrower bounds.
    fn better_than(&self, other: &Candidate) -> bool {
        match (self.is_end, other.is_end) {
            (false, true) => true,
            (true, false) => false,
            _ => self.bounds.width() > other.bounds.width(),
        }
    }
}

/// The structurally keyed layout entries shared by the interned table and
/// the `#[cfg(test)]` structural reference implementation.
struct RawLayout {
    element: Type,
    size: u64,
    fam_element_size: Option<u64>,
    entries: HashMap<(Type, u64), Candidate>,
}

impl RawLayout {
    /// Build the structural entry map for allocation element type
    /// `element` (the pre-interning build path, unchanged).
    fn build(registry: &TypeRegistry, element: &Type) -> Result<Self, TypeError> {
        let element = element.strip_array().clone();
        if element.is_free() {
            return Ok(RawLayout {
                element,
                size: 1,
                fam_element_size: None,
                entries: HashMap::new(),
            });
        }
        let size = registry.size_of(&element)?;
        let fam_element = match &element {
            Type::Record(_, tag) => registry.layout(tag)?.flexible_element.clone(),
            _ => None,
        };
        let fam_element_size = match &fam_element {
            Some(e) => Some(registry.size_of(e)?),
            None => None,
        };

        let mut entries: HashMap<(Type, u64), Candidate> = HashMap::new();

        let mut offsets = BTreeSet::new();
        collect_interesting_offsets(registry, &element, 0, &mut offsets)?;
        offsets.insert(0);
        offsets.insert(size);

        for &k in &offsets {
            if k > size {
                continue;
            }
            let subobjects = layout_at(registry, &element, k)?;
            for so in &subobjects {
                insert_candidates(registry, &mut entries, k, so)?;
            }
        }

        // FAM region: offsets past sizeof(T) normalise into
        // [sizeof(T), sizeof(T) + sizeof(U)); their layout is that of a FAM
        // element, and the FAM array itself is unbounded above (limited only
        // by the allocation size).
        if let (Some(fam_elem), Some(fam_size)) = (&fam_element, fam_element_size) {
            let mut fam_offsets = BTreeSet::new();
            collect_interesting_offsets(registry, fam_elem, 0, &mut fam_offsets)?;
            fam_offsets.insert(0);
            fam_offsets.insert(fam_size);
            for &inner in &fam_offsets {
                if inner > fam_size {
                    continue;
                }
                let k = size + inner;
                let subobjects = layout_at(registry, fam_elem, inner)?;
                for so in &subobjects {
                    insert_candidates(registry, &mut entries, k, so)?;
                }
                // The FAM array itself: matched by the element static type
                // with unbounded upper bounds.
                let key = (fam_elem.strip_array().clone(), k);
                offer(
                    &mut entries,
                    key,
                    Candidate {
                        bounds: RelBounds::UNBOUNDED,
                        is_end: false,
                        pointer_wildcard: false,
                    },
                );
            }
        }

        // The containing allocation array: `(T, T, 0) ↦ −∞..∞` (Example 6).
        let self_key = (element.strip_array().clone(), 0);
        offer(
            &mut entries,
            self_key,
            Candidate {
                bounds: RelBounds::UNBOUNDED,
                is_end: false,
                pointer_wildcard: false,
            },
        );

        Ok(RawLayout {
            element,
            size,
            fam_element_size,
            entries,
        })
    }

    #[cfg(test)]
    fn normalize_offset(&self, k: u64) -> u64 {
        normalize_offset(self.size, self.fam_element_size, k)
    }
}

/// The §5 offset normalisation shared by the interned table and the
/// structural reference implementation.
fn normalize_offset(size: u64, fam_element_size: Option<u64>, k: u64) -> u64 {
    if size == 0 {
        return 0;
    }
    if k < size {
        return k;
    }
    match fam_element_size {
        Some(u) if u > 0 => ((k - size) % u) + size,
        // `k == sizeof(T)` is an element boundary of the effective `T[N]`
        // allocation type: it designates the start of the next element
        // exactly like offset 0 does (and the end-of-object case is
        // recovered by the runtime's narrowing to allocation bounds).
        _ => k % size,
    }
}

/// The hasher of [`TypeLayout`]'s `(TypeId, offset)` keys: the FxHash step,
/// one rotate, xor and multiply per word.
///
/// The keys come only from the program's own type layouts (dense interned
/// ids and offsets inside its types), never from a peer, so the table needs
/// no defence against chosen keys, and std's SipHash would cost more than
/// the rest of the probe.  Nothing iterates the table but the sorted
/// [`TypeLayout::dump`], so the hash decides no observable order.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The pre-computed layout table for one allocation element type `T`,
/// keyed by interned [`TypeId`]s.
#[derive(Clone, Debug)]
pub struct TypeLayout {
    /// The allocation element type this table describes.
    pub element: Type,
    /// `sizeof(T)`; offsets are normalised modulo this.
    pub size: u64,
    /// Flexible-array-member element size, if `T` has a FAM.
    pub fam_element_size: Option<u64>,
    /// `(interned static key type, normalised offset) → best candidate`.
    entries: HashMap<(TypeId, u64), Candidate, BuildHasherDefault<KeyHasher>>,
}

impl TypeLayout {
    /// Build the layout table for allocation element type `element`,
    /// interning every static key type into `interner`.
    pub fn build(
        registry: &TypeRegistry,
        interner: &mut TypeInterner,
        element: &Type,
    ) -> Result<Self, TypeError> {
        let raw = RawLayout::build(registry, element)?;
        // Intern key types in a deterministic order: `raw.entries` is a
        // HashMap whose iteration order varies per instance and per
        // process, and interning order assigns `TypeId`s — which are
        // observable (META header words in simulated memory).
        let mut raw_entries: Vec<((Type, u64), Candidate)> = raw.entries.into_iter().collect();
        raw_entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut entries =
            HashMap::with_capacity_and_hasher(raw_entries.len(), BuildHasherDefault::default());
        for ((ty, k), cand) in raw_entries {
            entries.insert((interner.intern(&ty), k), cand);
        }
        Ok(TypeLayout {
            element: raw.element,
            size: raw.size,
            fam_element_size: raw.fam_element_size,
            entries,
        })
    }

    /// Number of `(S, k)` entries in the table.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Normalise an offset into the range covered by the table:
    /// `k mod sizeof(T)` ordinarily, or the FAM normalisation
    /// `((k − sizeof(T)) mod sizeof(U)) + sizeof(T)` for offsets past the
    /// end of a FAM structure (§5).  Idempotent; every lookup normalises
    /// its offset itself.
    pub fn normalize_offset(&self, k: u64) -> u64 {
        normalize_offset(self.size, self.fam_element_size, k)
    }

    /// Look up the static type `static_ty` at (unnormalised) offset `k`.
    ///
    /// Returns `None` when no sub-object of a compatible type exists at the
    /// offset — a type error.  The static type is canonicalised with
    /// [`Type::strip_array`], matching the paper's convention that static
    /// types are incomplete arrays.  This entry point resolves the type's
    /// id through the interner (one structural hash, no clone); hot paths
    /// that already hold a [`TypeId`] should call
    /// [`lookup_id`](Self::lookup_id) instead.
    pub fn lookup(&self, interner: &TypeInterner, static_ty: &Type, k: u64) -> Option<LayoutMatch> {
        let key_ty = static_ty.strip_array();
        self.lookup_inner(interner.get(key_ty), TypeTraits::of(key_ty), k)
    }

    /// Look up an already interned static type id at (unnormalised or
    /// pre-normalised) offset `k` — the O(1) hot path: no structural
    /// hashing, no cloning.
    pub fn lookup_id(
        &self,
        interner: &TypeInterner,
        static_id: TypeId,
        k: u64,
    ) -> Option<LayoutMatch> {
        self.lookup_inner(Some(static_id), interner.traits(static_id), k)
    }

    fn lookup_inner(
        &self,
        static_id: Option<TypeId>,
        traits: TypeTraits,
        k: u64,
    ) -> Option<LayoutMatch> {
        if self.element.is_free() {
            return None;
        }
        let k = self.normalize_offset(k);

        // 1. Exact lookup (only possible when the static type has ever been
        //    interned; a never-interned type cannot key an entry).
        if let Some(id) = static_id {
            if let Some(c) = self.entries.get(&(id, k)) {
                let kind = if c.bounds.is_unbounded() {
                    MatchKind::ContainingArray
                } else {
                    MatchKind::Exact
                };
                return Some(LayoutMatch {
                    bounds: c.bounds,
                    kind,
                });
            }
        }

        // 2. `void * ⇄ S *` coercion: a static pointer type matches an
        //    exact `void *` sub-object, and a static `void *` matches any
        //    pointer sub-object (the latter is handled by wildcard entries
        //    inserted at build time; the guard below keeps `T*` from
        //    matching `U*` transitively).
        if traits.is_pointer() && !traits.is_void_pointer() {
            if let Some(c) = self.entries.get(&(TypeId::VOID_PTR, k)) {
                if !c.pointer_wildcard {
                    return Some(LayoutMatch {
                        bounds: c.bounds,
                        kind: MatchKind::VoidPointerCoercion,
                    });
                }
            }
        }

        // 3. `char[] → S[]` coercion: the paper's second hash-table lookup
        //    `(T, char, k)`.
        if !traits.is_character() {
            if let Some(c) = self.entries.get(&(TypeId::CHAR, k)) {
                return Some(LayoutMatch {
                    bounds: c.bounds,
                    kind: MatchKind::CharCoercion,
                });
            }
        }

        // 4. `S → char[]` direction: character-typed access to any object is
        //    byte access bounded by the containing allocation.
        if traits.is_character() || traits.is_void() {
            return Some(LayoutMatch {
                bounds: RelBounds::UNBOUNDED,
                kind: MatchKind::ByteAccess,
            });
        }

        None
    }

    /// Dump the table entries, sorted, in the `(T, S, k) ↦ lo..hi` style of
    /// Example 6.  Intended for debugging and documentation tests.
    pub fn dump(&self, interner: &TypeInterner) -> Vec<String> {
        let mut rows: Vec<String> = self
            .entries
            .iter()
            .map(|((s, k), c)| {
                let bounds = if c.bounds.is_unbounded() {
                    "-inf..inf".to_string()
                } else {
                    format!("{}..{}", c.bounds.lo, c.bounds.hi)
                };
                let sname = interner
                    .resolve(*s)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| s.to_string());
                format!("({}, {}, {}) -> {}", self.element, sname, k, bounds)
            })
            .collect();
        rows.sort();
        rows
    }
}

fn offer(entries: &mut HashMap<(Type, u64), Candidate>, key: (Type, u64), cand: Candidate) {
    match entries.get_mut(&key) {
        Some(existing) => {
            if cand.better_than(existing) {
                *existing = cand;
            }
        }
        None => {
            entries.insert(key, cand);
        }
    }
}

fn insert_candidates(
    registry: &TypeRegistry,
    entries: &mut HashMap<(Type, u64), Candidate>,
    k: u64,
    so: &SubObject,
) -> Result<(), TypeError> {
    let (lo, hi) = so.relative_bounds(registry)?;
    let is_end = so.is_end_pointer(registry);
    let key_ty = so.ty.strip_array().clone();
    let cand = Candidate {
        bounds: RelBounds::new(lo, hi),
        is_end,
        pointer_wildcard: false,
    };
    offer(entries, (key_ty.clone(), k), cand);

    // Pointer sub-objects are additionally visible through the `void *`
    // wildcard key so that a static `void *` access matches them.
    if key_ty.is_pointer() && !key_ty.is_void_pointer() {
        offer(
            entries,
            (Type::void_ptr(), k),
            Candidate {
                pointer_wildcard: true,
                ..cand
            },
        );
    }
    Ok(())
}

/// Collect every offset at which some sub-object starts or ends.  These are
/// the only offsets with a non-empty layout, so they are the only offsets
/// that need table entries.
fn collect_interesting_offsets(
    registry: &TypeRegistry,
    ty: &Type,
    base: u64,
    out: &mut BTreeSet<u64>,
) -> Result<(), TypeError> {
    let size = registry.size_of(ty)?;
    out.insert(base);
    out.insert(base + size);
    match ty {
        Type::Array(elem, n) => {
            let esize = registry.size_of(elem)?;
            if esize == 0 {
                return Ok(());
            }
            // One element's interior offsets, replicated across elements.
            let mut inner = BTreeSet::new();
            collect_interesting_offsets(registry, elem, 0, &mut inner)?;
            for i in 0..*n {
                for &o in &inner {
                    out.insert(base + i * esize + o);
                }
            }
        }
        Type::Record(_, tag) => {
            let layout = registry.layout(tag)?.clone();
            for member in &layout.members {
                collect_interesting_offsets(registry, &member.ty, base + member.offset, out)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// The structural reference implementation of the layout table: entries
/// keyed by `(Type, u64)` with deep structural hashing and per-lookup key
/// cloning — the exact pre-interning code path, kept as the oracle for the
/// interned-lookup property tests.
#[cfg(test)]
pub(crate) struct StructuralTypeLayout {
    raw: RawLayout,
}

#[cfg(test)]
impl StructuralTypeLayout {
    pub(crate) fn build(registry: &TypeRegistry, element: &Type) -> Result<Self, TypeError> {
        Ok(StructuralTypeLayout {
            raw: RawLayout::build(registry, element)?,
        })
    }

    /// The original structural lookup, verbatim.
    pub(crate) fn lookup(&self, static_ty: &Type, k: u64) -> Option<LayoutMatch> {
        if self.raw.element.is_free() {
            return None;
        }
        let k = self.raw.normalize_offset(k);
        let key_ty = static_ty.strip_array().clone();

        if let Some(c) = self.raw.entries.get(&(key_ty.clone(), k)) {
            let kind = if c.bounds.is_unbounded() {
                MatchKind::ContainingArray
            } else {
                MatchKind::Exact
            };
            return Some(LayoutMatch {
                bounds: c.bounds,
                kind,
            });
        }

        if key_ty.is_pointer() && !key_ty.is_void_pointer() {
            if let Some(c) = self.raw.entries.get(&(Type::void_ptr(), k)) {
                if !c.pointer_wildcard {
                    return Some(LayoutMatch {
                        bounds: c.bounds,
                        kind: MatchKind::VoidPointerCoercion,
                    });
                }
            }
        }

        if !key_ty.is_character() {
            if let Some(c) = self.raw.entries.get(&(Type::char_(), k)) {
                return Some(LayoutMatch {
                    bounds: c.bounds,
                    kind: MatchKind::CharCoercion,
                });
            }
        }

        if key_ty.is_character() || key_ty.is_void() {
            return Some(LayoutMatch {
                bounds: RelBounds::UNBOUNDED,
                kind: MatchKind::ByteAccess,
            });
        }

        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{FieldDef, RecordDef};

    fn paper_registry() -> TypeRegistry {
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

    fn build(reg: &TypeRegistry, ty: &Type) -> (TypeInterner, TypeLayout) {
        let mut interner = TypeInterner::new();
        let table = TypeLayout::build(reg, &mut interner, ty).unwrap();
        (interner, table)
    }

    #[test]
    fn example6_entries_exist() {
        let reg = paper_registry();
        let (interner, table) = build(&reg, &Type::struct_("T"));
        // (T, T, 0) ↦ −∞..∞
        let m = table.lookup(&interner, &Type::struct_("T"), 0).unwrap();
        assert!(m.bounds.is_unbounded());
        assert_eq!(m.kind, MatchKind::ContainingArray);
        // (T, float, 0) ↦ 0..4
        let m = table.lookup(&interner, &Type::float(), 0).unwrap();
        assert_eq!(m.bounds, RelBounds::new(0, 4));
        assert_eq!(m.kind, MatchKind::Exact);
        // (T, S, off(t)) ↦ 0..24 (paper: 0..20 with its illustrative layout)
        let toff = reg.offset_of("T", "t").unwrap();
        let m = table.lookup(&interner, &Type::struct_("S"), toff).unwrap();
        assert_eq!(m.bounds, RelBounds::new(0, 24));
        // (T, int, off(t)) prefers the int[3] sub-object: 0..12.
        let m = table.lookup(&interner, &Type::int(), toff).unwrap();
        assert_eq!(m.bounds, RelBounds::new(0, 12));
        // (T, int, off(t)+8) ↦ −8..4 (the a[2] position).
        let m = table.lookup(&interner, &Type::int(), toff + 8).unwrap();
        assert_eq!(m.bounds, RelBounds::new(-8, 4));
        // (T, char*, off(t)+16) ↦ 0..8.
        let m = table
            .lookup(&interner, &Type::char_ptr(), toff + 16)
            .unwrap();
        assert_eq!(m.bounds, RelBounds::new(0, 8));
    }

    #[test]
    fn example5_type_check_lookups() {
        // Example 5: q = p + offsetof(t)+8; type_check(q, int[]) matches the
        // int[3] sub-object; type_check(q, double[]) fails.
        let reg = paper_registry();
        let (interner, table) = build(&reg, &Type::struct_("T"));
        let q = reg.offset_of("T", "t").unwrap() + 8;
        assert!(table
            .lookup(&interner, &Type::incomplete_array(Type::int()), q)
            .is_some());
        assert!(table.lookup(&interner, &Type::double(), q).is_none());
    }

    #[test]
    fn lookup_by_id_matches_lookup_by_type() {
        let reg = paper_registry();
        let mut interner = TypeInterner::new();
        let table = TypeLayout::build(&reg, &mut interner, &Type::struct_("T")).unwrap();
        let int_id = interner.intern(&Type::int());
        for k in 0..=40u64 {
            assert_eq!(
                table.lookup_id(&interner, int_id, k),
                table.lookup(&interner, &Type::int(), k),
                "offset {k}"
            );
        }
    }

    #[test]
    fn offsets_are_normalised_modulo_element_size() {
        let reg = paper_registry();
        let (interner, table) = build(&reg, &Type::struct_("T"));
        let size = reg.size_of(&Type::struct_("T")).unwrap();
        let toff = reg.offset_of("T", "t").unwrap();
        // Element 3 of a T[] allocation, field t: same result as element 0.
        let m1 = table.lookup(&interner, &Type::struct_("S"), toff).unwrap();
        let m2 = table
            .lookup(&interner, &Type::struct_("S"), 3 * size + toff)
            .unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn tie_breaking_prefers_wider_non_end_subobjects() {
        // union { float a[10]; float b[20]; } — a float[] check always
        // returns b's bounds (§6, "Limitations").
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::union_(
            "U",
            vec![
                FieldDef::new("a", Type::array(Type::float(), 10)),
                FieldDef::new("b", Type::array(Type::float(), 20)),
            ],
        ))
        .unwrap();
        let (interner, table) = build(&reg, &Type::union_("U"));
        let m = table.lookup(&interner, &Type::float(), 0).unwrap();
        assert_eq!(m.bounds, RelBounds::new(0, 80));
    }

    #[test]
    fn end_pointer_candidates_lose_to_start_candidates() {
        // At an int[] element boundary both "end of element i-1" and
        // "start of element i" match `int`; the array-wide bounds win, and
        // among the element candidates the non-end one is preferred.
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "Two",
            vec![
                FieldDef::new("x", Type::int()),
                FieldDef::new("y", Type::int()),
            ],
        ))
        .unwrap();
        let (interner, table) = build(&reg, &Type::struct_("Two"));
        // Offset 4: end of x, start of y.  Non-end candidate (y: 0..4) wins
        // over end candidate (x: -4..0).
        let m = table.lookup(&interner, &Type::int(), 4).unwrap();
        assert_eq!(m.bounds, RelBounds::new(0, 4));
    }

    #[test]
    fn scalar_allocation_acts_as_unbounded_array() {
        // malloc'd int arrays: type_check(p, int[]) must succeed for any
        // element offset, with bounds narrowed to the allocation later.
        let reg = TypeRegistry::new();
        let (interner, table) = build(&reg, &Type::int());
        for k in [0u64, 4, 400, 4000] {
            let m = table.lookup(&interner, &Type::int(), k).unwrap();
            assert!(m.bounds.is_unbounded());
        }
        // Misaligned access or wrong type is still an error.
        assert!(table.lookup(&interner, &Type::int(), 2).is_none());
        assert!(table.lookup(&interner, &Type::float(), 0).is_none());
    }

    #[test]
    fn char_coercions_work_both_ways() {
        let reg = paper_registry();
        // Static char access to a struct T object: byte access, unbounded
        // (narrowed to allocation by the runtime).
        let (interner, table) = build(&reg, &Type::struct_("T"));
        let m = table.lookup(&interner, &Type::char_(), 5).unwrap();
        assert_eq!(m.kind, MatchKind::ByteAccess);

        // Static float access to a char buffer allocation: matched via the
        // char coercion (second lookup).  `float` was never interned — the
        // coercion must still fire.
        let (interner, table) = build(&reg, &Type::char_());
        let m = table.lookup(&interner, &Type::float(), 0).unwrap();
        assert_eq!(m.kind, MatchKind::CharCoercion);
    }

    #[test]
    fn void_pointer_coercion_is_not_transitive() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "Holder",
            vec![
                FieldDef::new("vp", Type::void_ptr()),
                FieldDef::new("ip", Type::ptr(Type::int())),
            ],
        ))
        .unwrap();
        let (interner, table) = build(&reg, &Type::struct_("Holder"));
        // A static `float *` matches the exact `void *` member...
        let m = table
            .lookup(&interner, &Type::ptr(Type::float()), 0)
            .unwrap();
        assert_eq!(m.kind, MatchKind::VoidPointerCoercion);
        // ...a static `void *` matches the `int *` member...
        let m = table.lookup(&interner, &Type::void_ptr(), 8).unwrap();
        assert_eq!(m.kind, MatchKind::Exact);
        // ...but a static `float *` does NOT match the `int *` member
        // (no transitive coercion through void*).
        assert!(table
            .lookup(&interner, &Type::ptr(Type::float()), 8)
            .is_none());
        // And `T*` vs `T**` confusion (perlbench, §6.1) is still an error.
        assert!(table
            .lookup(&interner, &Type::ptr(Type::ptr(Type::int())), 8)
            .is_none());
    }

    #[test]
    fn fam_offsets_normalise_into_first_element_shape() {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "Packet",
            vec![
                FieldDef::new("len", Type::int()),
                FieldDef::new("data", Type::incomplete_array(Type::int())),
            ],
        ))
        .unwrap();
        let (interner, table) = build(&reg, &Type::struct_("Packet"));
        assert_eq!(table.fam_element_size, Some(4));
        // sizeof(Packet) == 8 (len + data[1]).  Offset 16 is data[3]; it
        // normalises to 8 + ((16-8) mod 4) = 8 and matches int.
        let m = table.lookup(&interner, &Type::int(), 16).unwrap();
        assert!(m.bounds.is_unbounded() || m.bounds.width() >= 4);
        // Non-FAM types keep plain modulo normalisation.
        let (_, plain) = build(&reg, &Type::int());
        assert_eq!(plain.normalize_offset(13), 13 % 4);
    }

    #[test]
    fn free_allocation_type_never_matches() {
        let reg = TypeRegistry::new();
        let (interner, table) = build(&reg, &Type::Free);
        assert!(table.lookup(&interner, &Type::int(), 0).is_none());
        assert!(table.lookup(&interner, &Type::char_(), 0).is_none());
        assert!(table.lookup(&interner, &Type::Free, 0).is_none());
    }

    #[test]
    fn interning_order_is_deterministic_across_builds() {
        // Building the same layout table into two fresh interners must
        // assign identical ids: `TypeId`s are observable (META header
        // words), so the build must not leak HashMap iteration order
        // (which varies per map instance and per process).
        let reg = paper_registry();
        for ty in [
            Type::struct_("T"),
            Type::struct_("S"),
            Type::array(Type::struct_("T"), 4),
        ] {
            let (a, _) = build(&reg, &ty);
            for _ in 0..8 {
                let (b, _) = build(&reg, &ty);
                assert_eq!(a.len(), b.len());
                for raw in 0..a.len() as u32 {
                    let id = TypeId::from_raw(raw);
                    assert_eq!(a.resolve(id), b.resolve(id), "id {id} for {ty}");
                }
            }
        }
    }

    #[test]
    fn dump_is_sorted_and_human_readable() {
        let reg = paper_registry();
        let (interner, table) = build(&reg, &Type::struct_("T"));
        let dump = table.dump(&interner);
        assert!(!dump.is_empty());
        assert!(dump.iter().any(|row| row.contains("-inf..inf")));
        assert!(dump.iter().any(|row| row.contains("struct S")));
        let mut sorted = dump.clone();
        sorted.sort();
        assert_eq!(dump, sorted);
    }

    #[test]
    fn relbounds_arithmetic() {
        let a = RelBounds::new(-8, 4);
        let b = RelBounds::new(0, 4);
        assert_eq!(a.intersect(&b), RelBounds::new(0, 4));
        assert_eq!(a.width(), 12);
        assert!(RelBounds::UNBOUNDED.is_unbounded());
        assert_eq!(RelBounds::UNBOUNDED.intersect(&b), b);
    }

    mod interned_equals_structural {
        //! The satellite property suite: for arbitrary registry types,
        //! static types and offsets, the interned `(TypeId, u64)` lookup
        //! returns exactly the same [`LayoutMatch`] as the structural
        //! reference path.

        use super::*;
        use proptest::prelude::*;

        fn registry() -> TypeRegistry {
            let mut reg = paper_registry();
            reg.define(RecordDef::union_(
                "U",
                vec![
                    FieldDef::new("f", Type::array(Type::float(), 4)),
                    FieldDef::new("p", Type::ptr(Type::int())),
                ],
            ))
            .unwrap();
            reg.define(RecordDef::struct_(
                "Packet",
                vec![
                    FieldDef::new("len", Type::int()),
                    FieldDef::new("tail", Type::incomplete_array(Type::short())),
                ],
            ))
            .unwrap();
            reg
        }

        /// Every allocation / static type shape the suites exercise:
        /// primitives, pointers (incl. `void*`/`char*`), records, unions,
        /// FAM structs, arrays, incomplete arrays, and `FREE`.
        fn type_pool() -> Vec<Type> {
            vec![
                Type::void(),
                Type::char_(),
                Type::short(),
                Type::int(),
                Type::long(),
                Type::float(),
                Type::double(),
                Type::void_ptr(),
                Type::char_ptr(),
                Type::ptr(Type::int()),
                Type::ptr(Type::ptr(Type::int())),
                Type::ptr(Type::struct_("S")),
                Type::struct_("S"),
                Type::struct_("T"),
                Type::union_("U"),
                Type::struct_("Packet"),
                Type::array(Type::int(), 3),
                Type::array(Type::struct_("S"), 2),
                Type::incomplete_array(Type::float()),
                Type::Free,
            ]
        }

        proptest! {
            #[test]
            fn interned_lookup_equals_structural_reference(
                alloc_idx in 0usize..20,
                static_idx in 0usize..20,
                k in 0u64..200,
            ) {
                let reg = registry();
                let pool = type_pool();
                let alloc_ty = &pool[alloc_idx];
                let static_ty = &pool[static_idx];

                let mut interner = TypeInterner::new();
                let structural = StructuralTypeLayout::build(&reg, alloc_ty);
                let table = TypeLayout::build(&reg, &mut interner, alloc_ty);
                let (structural, table) = match (structural, table) {
                    (Ok(s), Ok(t)) => (s, t),
                    // Unlayoutable allocation types (`void`): both paths
                    // must fail with the same error.
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a, b);
                        return Ok(());
                    }
                    (a, b) => {
                        return Err(TestCaseError::new(format!(
                            "build divergence for {}: structural ok={} vs interned ok={}",
                            alloc_ty,
                            a.is_ok(),
                            b.is_ok()
                        )))
                    }
                };

                // The convenience (by-type) entry point...
                prop_assert_eq!(
                    table.lookup(&interner, static_ty, k),
                    structural.lookup(static_ty, k),
                    "lookup({}, {}, {})", alloc_ty, static_ty, k
                );
                // ...and the id-keyed hot path, with the static type
                // interned the way the runtime does it.
                let sid = interner.intern(static_ty);
                prop_assert_eq!(
                    table.lookup_id(&interner, sid, k),
                    structural.lookup(static_ty, k),
                    "lookup_id({}, {}, {})", alloc_ty, static_ty, k
                );
                // Normalisation is idempotent, so a pre-normalised offset
                // sees the same result.
                let k_norm = table.normalize_offset(k);
                prop_assert_eq!(
                    table.lookup_id(&interner, sid, k_norm),
                    structural.lookup(static_ty, k),
                    "lookup_id normalised ({}, {}, {})", alloc_ty, static_ty, k
                );
            }
        }
    }
}
