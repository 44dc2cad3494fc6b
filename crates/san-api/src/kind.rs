//! Sanitizer kinds and the instrumentation configuration they map to.
//!
//! The paper evaluates EffectiveSan in three variants (§6.2) and compares
//! against a set of existing sanitizers (Figure 1).  This module describes
//! every tool as a configuration of the same generic instrumentation pass
//! (`instrument::pass`), so that all tools can be run on identical
//! workloads and the capability matrix / overhead comparison can be
//! regenerated.  [`SanitizerKind`] also selects the backend [`crate::build`]
//! constructs: it parses from and renders to a stable name, so pipelines,
//! bench binaries and workloads can select backends by string.

use std::str::FromStr;

use baselines::BaselineKind;
use serde::{Deserialize, Serialize};

/// What kind of check guards *input pointers* (Fig. 3 rules (a)–(d)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputCheck {
    /// No input-pointer instrumentation.
    None,
    /// Full dynamic type check (`type_check`) — EffectiveSan.
    TypeCheck,
    /// Allocation-bounds query (`bounds_get`) — EffectiveSan-bounds,
    /// SoftBound/LowFat-style tools.
    BoundsGet,
}

/// Which sanitizer a program is instrumented for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SanitizerKind {
    /// No instrumentation (the uninstrumented baseline of Figures 8–10).
    None,
    /// EffectiveSan with full instrumentation.
    EffectiveFull,
    /// EffectiveSan-bounds: object-bounds checking only (§6.2).
    EffectiveBounds,
    /// EffectiveSan-type: cast checking only (§6.2).
    EffectiveType,
    /// EffectiveSan with escape bounds checking disabled — the ablation
    /// that keeps full type/bounds checking on dereferences but drops the
    /// Fig. 3(g) checks on pointer stores, arguments and returns.
    EffectiveEscapesOff,
    /// AddressSanitizer-style red-zones + shadow memory + quarantine.
    AddressSanitizer,
    /// Valgrind/Memcheck-style pure shadow-memory addressability checking.
    Memcheck,
    /// LowFat allocation-bounds checking.
    LowFat,
    /// SoftBound-style per-pointer bounds with sub-object narrowing.
    SoftBound,
    /// Intel-MPX model: allocation-bounds checks through a 4-entry bounds
    /// register file (the paper's ~200% hardware reference point).
    Mpx,
    /// TypeSan/CaVer-style C++ class cast checking.
    TypeSan,
    /// HexType-style cast checking (extends TypeSan to more cast kinds).
    HexType,
    /// CETS-style identifier-based temporal checking.
    Cets,
}

impl SanitizerKind {
    /// All kinds, in the order used by report tables.
    pub const ALL: [SanitizerKind; 13] = [
        SanitizerKind::None,
        SanitizerKind::EffectiveFull,
        SanitizerKind::EffectiveBounds,
        SanitizerKind::EffectiveType,
        SanitizerKind::EffectiveEscapesOff,
        SanitizerKind::AddressSanitizer,
        SanitizerKind::Memcheck,
        SanitizerKind::LowFat,
        SanitizerKind::SoftBound,
        SanitizerKind::Mpx,
        SanitizerKind::TypeSan,
        SanitizerKind::HexType,
        SanitizerKind::Cets,
    ];

    /// Short display name matching the paper's tables.  This is the
    /// canonical name: `name().parse::<SanitizerKind>()` round-trips.
    pub fn name(self) -> &'static str {
        match self {
            SanitizerKind::None => "uninstrumented",
            SanitizerKind::EffectiveFull => "EffectiveSan",
            SanitizerKind::EffectiveBounds => "EffectiveSan-bounds",
            SanitizerKind::EffectiveType => "EffectiveSan-type",
            SanitizerKind::EffectiveEscapesOff => "EffectiveSan-escapes-off",
            SanitizerKind::AddressSanitizer => "AddressSanitizer",
            SanitizerKind::Memcheck => "Memcheck",
            SanitizerKind::LowFat => "LowFat",
            SanitizerKind::SoftBound => "SoftBound",
            SanitizerKind::Mpx => "MPX",
            SanitizerKind::TypeSan => "TypeSan",
            SanitizerKind::HexType => "HexType",
            SanitizerKind::Cets => "CETS",
        }
    }

    /// Is this one of the EffectiveSan variants (full, bounds, type, or the
    /// escapes-off ablation)?
    pub fn is_effective(self) -> bool {
        matches!(
            self,
            SanitizerKind::EffectiveFull
                | SanitizerKind::EffectiveBounds
                | SanitizerKind::EffectiveType
                | SanitizerKind::EffectiveEscapesOff
        )
    }

    /// The comparison-tool runtime this kind is backed by, if it is one of
    /// the baseline sanitizers (§6.2) rather than an EffectiveSan variant.
    pub fn baseline_kind(self) -> Option<BaselineKind> {
        match self {
            SanitizerKind::AddressSanitizer => Some(BaselineKind::AddressSanitizer),
            SanitizerKind::Memcheck => Some(BaselineKind::Memcheck),
            SanitizerKind::LowFat => Some(BaselineKind::LowFat),
            SanitizerKind::SoftBound => Some(BaselineKind::SoftBound),
            SanitizerKind::Mpx => Some(BaselineKind::Mpx),
            SanitizerKind::TypeSan => Some(BaselineKind::TypeSan),
            SanitizerKind::HexType => Some(BaselineKind::HexType),
            SanitizerKind::Cets => Some(BaselineKind::Cets),
            _ => None,
        }
    }

    /// The substrate allocator quarantine (freed blocks whose reuse is
    /// delayed) this tool runs with by default: AddressSanitizer's bounded
    /// quarantine, Memcheck's much larger freelist, and no quarantine for
    /// everything else (the EffectiveSan default — reuse-after-free
    /// detection then relies on the type mismatch alone, §5).
    pub fn default_quarantine_blocks(self) -> usize {
        match self {
            SanitizerKind::AddressSanitizer => baselines::ASAN_QUARANTINE,
            SanitizerKind::Memcheck => baselines::MEMCHECK_FREELIST_BLOCKS,
            _ => 0,
        }
    }

    /// The instrumentation configuration for this sanitizer.
    pub fn config(self) -> PassConfig {
        match self {
            SanitizerKind::None => PassConfig {
                input_check: InputCheck::None,
                ..PassConfig::disabled()
            },
            SanitizerKind::EffectiveFull => PassConfig {
                input_check: InputCheck::TypeCheck,
                narrow_fields: true,
                bounds_check_accesses: true,
                bounds_check_escapes: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::EffectiveBounds => PassConfig {
                input_check: InputCheck::BoundsGet,
                bounds_check_accesses: true,
                bounds_check_escapes: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::EffectiveType => PassConfig {
                cast_check_explicit: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::EffectiveEscapesOff => PassConfig {
                bounds_check_escapes: false,
                ..SanitizerKind::EffectiveFull.config()
            },
            SanitizerKind::AddressSanitizer => PassConfig {
                access_check: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::Memcheck => PassConfig {
                access_check: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::LowFat => PassConfig {
                input_check: InputCheck::BoundsGet,
                bounds_check_accesses: true,
                bounds_check_escapes: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::SoftBound => PassConfig {
                input_check: InputCheck::BoundsGet,
                narrow_fields: true,
                bounds_check_accesses: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::Mpx => PassConfig {
                // MPX checks dereferences against allocation bounds but
                // does not narrow to fields; its bound-table spills are
                // what put it near the paper's ~200% reference point
                // despite hardware support.
                input_check: InputCheck::BoundsGet,
                bounds_check_accesses: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::TypeSan => PassConfig {
                cast_check_explicit: true,
                cast_check_classes_only: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::HexType => PassConfig {
                cast_check_explicit: true,
                cast_check_classes_only: true,
                ..PassConfig::disabled()
            },
            SanitizerKind::Cets => PassConfig {
                access_check: true,
                ..PassConfig::disabled()
            },
        }
    }
}

impl std::fmt::Display for SanitizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a backend name does not match any registered
/// [`SanitizerKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSanitizerKindError {
    /// The name that failed to parse.
    pub name: String,
}

impl std::fmt::Display for ParseSanitizerKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown sanitizer backend `{}` (known: {})",
            self.name,
            SanitizerKind::ALL.map(|k| k.name()).join(", ")
        )
    }
}

impl std::error::Error for ParseSanitizerKindError {}

impl FromStr for SanitizerKind {
    type Err = ParseSanitizerKindError;

    /// Parse a backend name.  Canonical [`SanitizerKind::name`] strings are
    /// accepted case-insensitively, plus the common short aliases used on
    /// bench-binary command lines (`asan`, `full`, `bounds`, `type`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_lowercase().replace('_', "-");
        let kind = match norm.as_str() {
            "uninstrumented" | "none" => SanitizerKind::None,
            "effectivesan" | "effective" | "effective-full" | "effectivesan-full" | "full" => {
                SanitizerKind::EffectiveFull
            }
            "effectivesan-bounds" | "effective-bounds" | "bounds" => SanitizerKind::EffectiveBounds,
            "effectivesan-type" | "effective-type" | "type" => SanitizerKind::EffectiveType,
            "effectivesan-escapes-off" | "effective-escapes-off" | "escapes-off" | "no-escapes" => {
                SanitizerKind::EffectiveEscapesOff
            }
            "addresssanitizer" | "asan" => SanitizerKind::AddressSanitizer,
            "memcheck" | "valgrind" => SanitizerKind::Memcheck,
            "lowfat" | "low-fat" => SanitizerKind::LowFat,
            "softbound" => SanitizerKind::SoftBound,
            "mpx" | "intel-mpx" | "intelmpx" => SanitizerKind::Mpx,
            "typesan" | "caver" => SanitizerKind::TypeSan,
            "hextype" => SanitizerKind::HexType,
            "cets" => SanitizerKind::Cets,
            _ => {
                return Err(ParseSanitizerKindError {
                    name: s.to_string(),
                })
            }
        };
        Ok(kind)
    }
}

/// Configuration of the generic instrumentation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassConfig {
    /// Check inserted for input pointers (Fig. 3 (a)–(d)).
    pub input_check: InputCheck,
    /// Instrument every *explicit* pointer cast with a `cast_check`,
    /// regardless of whether the result is used (EffectiveSan-type,
    /// TypeSan, HexType).
    pub cast_check_explicit: bool,
    /// Restrict cast checks to casts whose target is a class/struct pointer
    /// (TypeSan/CaVer/HexType only understand C++ class hierarchies).
    pub cast_check_classes_only: bool,
    /// Narrow bounds at field accesses (Fig. 3(e)).
    pub narrow_fields: bool,
    /// Bounds-check loads and stores (Fig. 3(g)).
    pub bounds_check_accesses: bool,
    /// Bounds-check pointer escapes (stores of pointers, pointer call
    /// arguments) (Fig. 3(g)).
    pub bounds_check_escapes: bool,
    /// Insert per-access checks with no propagated bounds (AddressSanitizer
    /// / CETS style).
    pub access_check: bool,
}

impl PassConfig {
    /// A configuration with every feature disabled.
    pub fn disabled() -> Self {
        PassConfig {
            input_check: InputCheck::None,
            cast_check_explicit: false,
            cast_check_classes_only: false,
            narrow_fields: false,
            bounds_check_accesses: false,
            bounds_check_escapes: false,
            access_check: false,
        }
    }

    /// Does this configuration insert any instrumentation at all?
    pub fn is_enabled(&self) -> bool {
        self.input_check != InputCheck::None
            || self.cast_check_explicit
            || self.access_check
            || self.bounds_check_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_distinct_name() {
        let names: std::collections::HashSet<_> =
            SanitizerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), SanitizerKind::ALL.len());
    }

    #[test]
    fn all_covers_every_kind() {
        assert_eq!(SanitizerKind::ALL.len(), 13);
    }

    #[test]
    fn display_and_fromstr_round_trip() {
        for kind in SanitizerKind::ALL {
            let rendered = kind.to_string();
            assert_eq!(rendered, kind.name());
            let parsed: SanitizerKind = rendered.parse().unwrap();
            assert_eq!(parsed, kind, "round-trip failed for {rendered}");
            // Case-insensitive.
            assert_eq!(
                rendered.to_uppercase().parse::<SanitizerKind>().unwrap(),
                kind
            );
        }
    }

    #[test]
    fn aliases_parse_and_unknown_names_error() {
        assert_eq!(
            "asan".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::AddressSanitizer
        );
        assert_eq!(
            "full".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::EffectiveFull
        );
        assert_eq!(
            "bounds".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::EffectiveBounds
        );
        assert_eq!(
            "none".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::None
        );
        assert_eq!(
            "valgrind".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::Memcheck
        );
        assert_eq!(
            "intel-mpx".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::Mpx
        );
        assert_eq!(
            "escapes-off".parse::<SanitizerKind>().unwrap(),
            SanitizerKind::EffectiveEscapesOff
        );
        let err = "dataflowsan".parse::<SanitizerKind>().unwrap_err();
        assert!(err.to_string().contains("dataflowsan"));
        assert!(err.to_string().contains("EffectiveSan"));
        assert!(err.to_string().contains("Memcheck"));
    }

    #[test]
    fn baseline_kind_maps_comparison_tools_only() {
        assert_eq!(
            SanitizerKind::AddressSanitizer.baseline_kind(),
            Some(BaselineKind::AddressSanitizer)
        );
        assert_eq!(
            SanitizerKind::Cets.baseline_kind(),
            Some(BaselineKind::Cets)
        );
        assert_eq!(
            SanitizerKind::Memcheck.baseline_kind(),
            Some(BaselineKind::Memcheck)
        );
        assert_eq!(SanitizerKind::Mpx.baseline_kind(), Some(BaselineKind::Mpx));
        assert_eq!(SanitizerKind::EffectiveFull.baseline_kind(), None);
        assert_eq!(SanitizerKind::EffectiveEscapesOff.baseline_kind(), None);
        assert_eq!(SanitizerKind::None.baseline_kind(), None);
    }

    #[test]
    fn escapes_off_is_full_minus_escape_checks() {
        let full = SanitizerKind::EffectiveFull.config();
        let off = SanitizerKind::EffectiveEscapesOff.config();
        assert!(!off.bounds_check_escapes);
        assert_eq!(
            PassConfig {
                bounds_check_escapes: true,
                ..off
            },
            full
        );
        assert!(SanitizerKind::EffectiveEscapesOff.is_effective());
    }

    #[test]
    fn mpx_checks_allocation_bounds_without_narrowing_or_optimizing() {
        let mpx = SanitizerKind::Mpx.config();
        assert_eq!(mpx.input_check, InputCheck::BoundsGet);
        assert!(mpx.bounds_check_accesses);
        assert!(!mpx.narrow_fields);
        assert!(!mpx.bounds_check_escapes);
    }

    #[test]
    fn quarantine_defaults_follow_the_tools_allocators() {
        assert_eq!(
            SanitizerKind::AddressSanitizer.default_quarantine_blocks(),
            baselines::ASAN_QUARANTINE
        );
        assert_eq!(
            SanitizerKind::Memcheck.default_quarantine_blocks(),
            baselines::MEMCHECK_FREELIST_BLOCKS
        );
        assert!(
            SanitizerKind::Memcheck.default_quarantine_blocks()
                > SanitizerKind::AddressSanitizer.default_quarantine_blocks()
        );
        assert_eq!(SanitizerKind::EffectiveFull.default_quarantine_blocks(), 0);
        assert_eq!(SanitizerKind::Cets.default_quarantine_blocks(), 0);
    }

    #[test]
    fn uninstrumented_config_is_disabled() {
        assert!(!SanitizerKind::None.config().is_enabled());
        assert!(SanitizerKind::EffectiveFull.config().is_enabled());
    }

    #[test]
    fn effective_variants_match_the_paper() {
        let full = SanitizerKind::EffectiveFull.config();
        assert_eq!(full.input_check, InputCheck::TypeCheck);
        assert!(full.narrow_fields && full.bounds_check_accesses && full.bounds_check_escapes);

        let bounds = SanitizerKind::EffectiveBounds.config();
        assert_eq!(bounds.input_check, InputCheck::BoundsGet);
        assert!(
            !bounds.narrow_fields,
            "bounds variant protects object bounds only"
        );

        let ty = SanitizerKind::EffectiveType.config();
        assert_eq!(ty.input_check, InputCheck::None);
        assert!(ty.cast_check_explicit);
        assert!(!ty.bounds_check_accesses);
    }

    #[test]
    fn cast_only_tools_are_class_restricted() {
        assert!(SanitizerKind::TypeSan.config().cast_check_classes_only);
        assert!(SanitizerKind::HexType.config().cast_check_classes_only);
        assert!(
            !SanitizerKind::EffectiveType
                .config()
                .cast_check_classes_only
        );
    }

    #[test]
    fn is_effective_classifies_variants() {
        assert!(SanitizerKind::EffectiveFull.is_effective());
        assert!(SanitizerKind::EffectiveType.is_effective());
        assert!(!SanitizerKind::AddressSanitizer.is_effective());
        assert!(!SanitizerKind::None.is_effective());
    }
}
