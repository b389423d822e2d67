//! Lowering: rewrites the eliminated checks and planned guards back onto
//! the plain [`Uop`] stream.
//!
//! Two shapes come out:
//!
//! - **No guards** (pure RCE): every eliminated access is substituted
//!   in place with its `*Elided` twin. Same length, same indices,
//!   `fallback = 0` — the engine's ordinary fast path runs it.
//! - **With guards**: the optimized stream gets each guard inserted
//!   immediately before the µop it protects, and a verbatim copy of the
//!   original block is appended after it. `fallback` marks the seam. A
//!   guard that fails resumes at `fallback + at` — the original copy of
//!   the exact µop the guard preceded — so everything from that point
//!   (including every previously "eliminated" check) executes as decoded.
//!
//! Resume-index invariant: guards retire no µop, every other µop retires
//! exactly one, so when a guard inserted before original index `at` runs,
//! exactly `at` µops have retired — precisely the state the interpreter
//! would be in at original µop `at`. Diverting to `fallback + at` is
//! therefore transparent.

use crate::uop::{DecodedBlock, Uop};

use super::{Elision, GuardPlan};
use crate::ir::BlockIr;

/// Applies `elision` and `guards` to `block`, producing the new block.
pub(super) fn lower(
    block: &DecodedBlock,
    ir: &BlockIr,
    elision: &[Option<Elision>],
    mut guards: Vec<GuardPlan>,
) -> DecodedBlock {
    let n = block.uops.len();
    let mut subst: Vec<Option<Uop>> = vec![None; n];
    for (a, e) in ir.accesses.iter().zip(elision) {
        if e.is_none() {
            continue;
        }
        subst[a.idx] = Some(match block.uops[a.idx] {
            Uop::LoadHb {
                width,
                rd,
                addr,
                offset,
                pc,
            } => Uop::LoadHbElided {
                width,
                rd,
                addr,
                offset,
                pc,
            },
            Uop::StoreHb {
                width,
                src,
                addr,
                offset,
                pc,
            } => Uop::StoreHbElided {
                width,
                src,
                addr,
                offset,
                pc,
            },
            u => unreachable!("eliminated non-access µop {u:?}"),
        });
    }
    let elided_total = subst.iter().filter(|s| s.is_some()).count() as u32;
    if guards.is_empty() {
        let uops: Vec<Uop> = block
            .uops
            .iter()
            .enumerate()
            .map(|(i, &u)| subst[i].unwrap_or(u))
            .collect();
        return DecodedBlock {
            uops: uops.into_boxed_slice(),
            fallback: 0,
            elided_counts: Box::new([elided_total]),
        };
    }
    guards.sort_by_key(|g| g.at);
    let fallback = (n + guards.len()) as u32;
    let mut uops = Vec::with_capacity(2 * n + guards.len());
    // Elided accesses per guard-free segment, in dispatch order: a guard
    // closes the running segment, the terminator closes the last one.
    let mut counts = Vec::with_capacity(guards.len() + 1);
    let mut seg_count = 0u32;
    let mut gi = 0;
    for (i, (&sub, &orig)) in subst.iter().zip(block.uops.iter()).enumerate() {
        while gi < guards.len() && guards[gi].at == i {
            let g = &guards[gi];
            // Guard j lands at lowered index `at + j`; `next` points at
            // guard j+1's lowered slot, or the optimized-stream terminator.
            let next = guards
                .get(gi + 1)
                .map_or(fallback - 1, |ng| (ng.at + gi + 1) as u32);
            uops.push(Uop::Guard {
                addr: g.addr,
                lo_off: g.lo_off,
                span: g.span,
                resume: fallback + i as u32,
                next,
            });
            counts.push(seg_count);
            seg_count = 0;
            gi += 1;
        }
        seg_count += u32::from(sub.is_some());
        uops.push(sub.unwrap_or(orig));
    }
    counts.push(seg_count);
    debug_assert_eq!(gi, guards.len(), "guard planned past the terminator");
    debug_assert_eq!(counts.iter().sum::<u32>(), elided_total);
    uops.extend_from_slice(&block.uops);
    DecodedBlock {
        uops: uops.into_boxed_slice(),
        fallback,
        elided_counts: counts.into_boxed_slice(),
    }
}
