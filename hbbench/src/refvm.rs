//! Host-normalized time.
//!
//! On a shared machine the host's speed swings by up to 2× over tens of
//! seconds, far more than any change worth measuring. Between units of
//! timed work (cells, artefacts, segments of grids) the benchmark
//! therefore runs a fixed reference computation that belongs to the
//! benchmark, not to the program: a small register-machine interpreter
//! (indirect dispatch over a bytecode loop with loads and stores into a
//! 256 KB memory), the same kind of code the simulator runs. A window of
//! work (a pass, a block of grids, the set-ups) is normalized by the
//! median of the reference timings taken during it: wall time ×
//! [`REFERENCE_S`] ÷ that median is the time the work would have taken on
//! a host where the reference takes [`REFERENCE_S`]. The median over a
//! window tracks the host's slow swings without adding the jitter of a
//! single reference timing. A change to the program cannot move the
//! reference.

use std::hint::black_box;
use std::time::Instant;

use crate::util::median;

/// Reference seconds of the host that normalized times are expressed in
/// (about what the reference takes on the 2-core build host when quiet).
pub const REFERENCE_S: f64 = 0.008;

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    Addi(u8, u32),
    BranchNz(u8, u8),
    Halt,
}

const PROGRAM: [Op; 12] = [
    Op::Addi(1, 1),
    Op::Xor(2, 2, 1),
    Op::Shl(3, 2, 4),
    Op::Add(3, 3, 2),
    Op::Load(5, 3),
    Op::Add(6, 6, 5),
    Op::Xor(7, 6, 1),
    Op::Store(7, 2),
    Op::Add(2, 2, 7),
    Op::Addi(8, u32::MAX),
    Op::BranchNz(8, 0),
    Op::Halt,
];

/// Runs the reference interpreter once and returns its wall seconds.
pub fn reference_s() -> f64 {
    let mut mem = vec![0u32; 1 << 16];
    let mut r = [0u32; 16];
    r[4] = 3;
    r[8] = 300_000;
    let start = Instant::now();
    let mut pc = 0usize;
    loop {
        match black_box(PROGRAM[pc]) {
            Op::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
            Op::Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize],
            Op::Shl(d, a, b) => r[d as usize] = r[a as usize] << (r[b as usize] & 31),
            Op::Load(d, a) => r[d as usize] = mem[(r[a as usize] as usize) & 0xffff],
            Op::Store(s, a) => mem[(r[a as usize] as usize) & 0xffff] = r[s as usize],
            Op::Addi(d, imm) => r[d as usize] = r[d as usize].wrapping_add(imm),
            Op::BranchNz(c, t) => {
                if r[c as usize] != 0 {
                    pc = t as usize;
                    continue;
                }
            }
            Op::Halt => break,
        }
        pc += 1;
    }
    black_box((&mem, r));
    start.elapsed().as_secs_f64()
}

/// Reference timings taken between units of work, and the factors that
/// turn wall seconds of a window of work into reference-host seconds.
pub struct HostClock {
    /// Every reference timing taken, in order.
    pub refs: Vec<f64>,
}

impl HostClock {
    /// A new clock; takes the first reference timing.
    pub fn new() -> HostClock {
        let mut c = HostClock { refs: Vec::new() };
        c.tick();
        c
    }

    /// Takes one reference timing; call it between units of work.
    pub fn tick(&mut self) {
        self.refs.push(reference_s());
    }

    /// The start of a window: the latest reference timing.
    pub fn mark(&self) -> usize {
        self.refs.len() - 1
    }

    /// Reference-host seconds per wall second for the work done since
    /// `mark`: [`REFERENCE_S`] ÷ the median reference timing since then.
    pub fn factor_since(&self, mark: usize) -> f64 {
        REFERENCE_S / median(&self.refs[mark..])
    }

    /// Runs `f` as one unit of work, then ticks; returns the result and
    /// the unit's wall seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_secs_f64();
        self.tick();
        (r, wall)
    }
}
