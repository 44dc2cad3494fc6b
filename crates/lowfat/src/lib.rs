//! # lowfat
//!
//! A simulated 64-bit **low-fat pointer** allocator and address space, the
//! substrate EffectiveSan builds its type meta data on (paper §5).
//!
//! Low-fat pointers encode allocation bounds meta data in the numeric value
//! of a machine pointer: allocations are grouped into per-size-class
//! regions and aligned to their size class, so from any interior pointer
//! both the allocation size (`size(p)`) and allocation base (`base(p)`) are
//! recovered with O(1) arithmetic.  EffectiveSan repurposes the `base()`
//! operation to locate an object's meta-data header.
//!
//! Because this repository reproduces the system on a simulated machine,
//! the crate provides:
//!
//! * [`Ptr`] — simulated 64-bit pointers;
//! * [`size_classes`] — the region/size-class layout and the pure
//!   `base`/`size` operations;
//! * [`Memory`] — a sparse page store standing in for lazily-mapped OS
//!   memory, with resident-set accounting for the memory-overhead
//!   experiment (Figure 9);
//! * [`LowFatAllocator`] — heap/stack/global/legacy allocation with free
//!   lists, an optional quarantine, and statistics.
//!
//! ## Example
//!
//! ```
//! use lowfat::{AllocKind, LowFatAllocator};
//!
//! let mut alloc = LowFatAllocator::default();
//! let p = alloc.alloc(32, AllocKind::Heap);
//! // From any interior pointer the allocation bounds are recoverable:
//! assert_eq!(alloc.size(p.add(10)), Some(32));
//! assert_eq!(alloc.base(p.add(10)), Some(p));
//! // Legacy pointers (uninstrumented code) have no meta data:
//! let q = alloc.alloc(32, AllocKind::Legacy);
//! assert_eq!(alloc.base(q), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod heap;
pub mod memory;
pub mod ptr;
pub mod size_classes;

pub use heap::{AllocKind, AllocatorConfig, AllocatorStats, FrameMark, FreeError, LowFatAllocator};
pub use memory::{Memory, PAGE_SIZE};
pub use ptr::Ptr;
