//! Cache and TLB models for the HardBound memory hierarchy.
//!
//! The paper's simulated hierarchy (§5.1): a 32 KB 4-way set-associative
//! first-level data cache with a 12-cycle miss penalty, a 4 MB 4-way L2
//! with a 200-cycle miss penalty, 4-way 256-entry TLBs with 4 KB pages and
//! a 12-cycle miss penalty, 32-byte blocks everywhere — plus HardBound's
//! **tag metadata cache** (2 KB with 1-bit tags, 8 KB with the external
//! 4-bit encoding), a peer of the L1 that misses into the L2 and has its
//! own TLB (§4.2, Figure 4).
//!
//! [`Cache`] is a generic set-associative LRU array usable for both caches
//! and TLBs; [`Hierarchy`] wires them together and charges stall cycles per
//! access class (`Data`, `Tag`, `Shadow`) so the machine can attribute
//! overhead the way Figure 5 does. It also counts the distinct pages each
//! class touches ([`PageCounts`], Figure 6), at TLB fills.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hierarchy;
mod set_assoc;

pub use hierarchy::{
    AccessClass, HierFastStats, HierPath, Hierarchy, HierarchyConfig, HierarchyStats, PageCounts,
};
pub use set_assoc::{checked_ratio, Cache, CacheStats, FastPathStats};
