//! Memory model for the HardBound simulator.
//!
//! Architecturally, HardBound extends *every word of memory* with a sidecar
//! `{base, bound}` pair and a pointer/non-pointer *tag* (paper §3.1, §4.1–
//! 4.2). This crate stores all three planes:
//!
//! * the **data plane** — a sparse, paged, byte-addressed 32-bit space,
//! * the **shadow plane** — one `(base, bound)` pair per aligned word,
//!   architecturally located at `SHADOW_SPACE_BASE + addr * 2` (interleaved
//!   so both words move in one double-word access, paper §4.1),
//! * the **tag plane** — the per-word tag metadata of §4.2/§4.3: either a
//!   1-bit pointer flag or a 4-bit compressed-size code depending on the
//!   active encoding.
//!
//! The planes are plain storage; *policy* (when tags are written, when the
//! shadow is consulted, what the tag values mean) lives in
//! `hardbound-core`. The distinct-page counts behind the paper's Figure 6
//! are not kept here: `hardbound-cache`'s `Hierarchy` takes them at TLB
//! fills, where a page's first touch always lands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memory;

pub use memory::{Memory, WordMeta};
