//! Property suite for the corpus service's program-hash result store.
//!
//! Two invariants carry the whole design:
//!
//! 1. **Replay ≡ recompute.** For any generated program and any
//!    mode/encoding/`MetaPath` perturbation, a warm [`CorpusService`]
//!    answering from its result store returns the byte-identical
//!    [`RunOutcome`] — full `ExecStats` and `HierarchyStats` included —
//!    that a cold service (and the direct engine path) computes.
//! 2. **Keying is exact.** Mutating one program changes exactly its keys:
//!    the mutated image gets new `ProgramId`s, so every one of its cells
//!    misses the store, while every other program's cells still replay.
//!    Nothing is ever invalidated; the store's hit and miss counters show
//!    it.

use hardbound::compiler::Mode;
use hardbound::core::{Machine, MachineConfig, MetaPath, PointerEncoding, RunOutcome};
use hardbound::exec::service::Job;
use hardbound::exec::{CorpusService, Engine, ProgramId};
use hardbound::isa::{layout, FunctionBuilder, Program, Reg, Width};
use hardbound::runtime::machine_config;
use proptest::prelude::*;
use std::collections::HashSet;

/// One generated op over a small bounded working region (a compact cousin
/// of the metadata-fast-path generator: pointer spills, tag-clearing
/// integer/byte stores, loads).
#[derive(Clone, Copy, Debug)]
enum MOp {
    StoreInt(u32, u32),
    StorePtr { slot: u32, target: u32, size: u32 },
    StoreByte(u32, u8),
    LoadWord(u32),
}

const REGION_WORDS: u32 = 2 * 1024 + 1;
const REGION_BYTES: u32 = REGION_WORDS * 4;

fn op() -> impl Strategy<Value = MOp> {
    prop_oneof![
        (0u32..REGION_WORDS, any::<u32>()).prop_map(|(s, v)| MOp::StoreInt(s, v)),
        (
            0u32..REGION_WORDS,
            0u32..REGION_WORDS,
            prop_oneof![4u32..64, 4000u32..6000],
        )
            .prop_map(|(slot, target, size)| MOp::StorePtr { slot, target, size }),
        (0u32..REGION_WORDS, any::<u8>()).prop_map(|(s, v)| MOp::StoreByte(s, v)),
        (0u32..REGION_WORDS).prop_map(MOp::LoadWord),
    ]
}

fn build_program(ops: &[MOp]) -> Program {
    let mut f = FunctionBuilder::new("generated", 0);
    f.li(Reg::A0, layout::HEAP_BASE);
    f.setbound_imm(Reg::A0, Reg::A0, REGION_BYTES as i32);
    for &o in ops {
        match o {
            MOp::StoreInt(slot, v) => {
                f.li(Reg::A1, v);
                f.store(Width::Word, Reg::A1, Reg::A0, (slot * 4) as i32);
            }
            MOp::StorePtr { slot, target, size } => {
                f.li(Reg::A1, layout::HEAP_BASE + target * 4);
                f.setbound_imm(Reg::A1, Reg::A1, size as i32);
                f.store(Width::Word, Reg::A1, Reg::A0, (slot * 4) as i32);
            }
            MOp::StoreByte(slot, v) => {
                f.li(Reg::A1, u32::from(v));
                f.store(Width::Byte, Reg::A1, Reg::A0, (slot * 4) as i32);
            }
            MOp::LoadWord(slot) => {
                f.load(Width::Word, Reg::A2, Reg::A0, (slot * 4) as i32);
            }
        }
    }
    f.li(Reg::A0, 0);
    f.halt();
    Program::with_entry(vec![f.finish()])
}

/// The perturbation axes of one cell: every knob that participates in the
/// result-store key.
fn config_axis() -> impl Strategy<Value = (Mode, PointerEncoding, MetaPath)> {
    (
        prop_oneof![
            Just(Mode::Baseline),
            Just(Mode::MallocOnly),
            Just(Mode::HardBound),
        ],
        prop_oneof![
            Just(PointerEncoding::Extern4),
            Just(PointerEncoding::Intern4),
            Just(PointerEncoding::Intern11),
        ],
        prop_oneof![
            Just(MetaPath::Summary),
            Just(MetaPath::Walk),
            Just(MetaPath::Charge),
        ],
    )
}

fn cell(program: &Program, mode: Mode, encoding: PointerEncoding, meta: MetaPath) -> Job<Mode> {
    Job {
        program: program.clone(),
        config: machine_config(mode, encoding).with_meta_path(meta),
        salt: mode as u64,
        tag: mode,
    }
}

fn build(program: Program, cfg: MachineConfig, _mode: &Mode) -> Machine {
    // Generated programs are raw ISA images (no object table modes in the
    // axis), so construction is plain.
    Machine::new(program, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: a warm service replay is byte-identical to a cold
    /// recompute — and to the direct engine path — across perturbations.
    #[test]
    fn warm_replay_is_byte_identical_to_cold_recompute(
        ops in prop::collection::vec(op(), 1..40),
        axes in prop::collection::vec(config_axis(), 1..6),
    ) {
        let program = build_program(&ops);
        let jobs: Vec<Job<Mode>> = axes
            .iter()
            .map(|&(mode, encoding, meta)| cell(&program, mode, encoding, meta))
            .collect();

        let mut svc = CorpusService::new(2);
        let cold = svc.run_batch(&jobs, build);
        let warm = svc.run_batch(&jobs, build);
        prop_assert_eq!(&cold, &warm, "replay differs from recompute");
        let stats = svc.stats();
        prop_assert!(
            stats.store.hits >= jobs.len() as u64,
            "warm pass must be served by the store: {:?}", stats
        );

        // Cold recompute on a fresh store-less service, and the direct
        // engine path: all byte-identical.
        let mut bare = CorpusService::new(1);
        bare.set_result_cache(false);
        let recompute = bare.run_batch(&jobs, build);
        prop_assert_eq!(&cold, &recompute, "store on/off differ");
        for (job, out) in jobs.iter().zip(&cold) {
            let direct: RunOutcome =
                Engine::new(Machine::new(job.program.clone(), job.config.clone())).run();
            prop_assert_eq!(out, &direct, "service differs from the direct engine");
        }
    }

    /// Invariant 2: a mutated image misses on every cell; every cell of
    /// an unchanged image replays.
    #[test]
    fn mutation_invalidates_exactly_the_mutated_programs_keys(
        ops_a in prop::collection::vec(op(), 1..30),
        ops_b in prop::collection::vec(op(), 1..30),
        axes in prop::collection::vec(config_axis(), 1..4),
    ) {
        let a = build_program(&ops_a);
        // Ensure b is a distinct image even if the generators coincide.
        let mut ops_b = ops_b;
        ops_b.push(MOp::StoreInt(0, 0xb));
        let b = build_program(&ops_b);
        // The mutation: one more store. Its last store differs from b's,
        // so the mutated image is neither a nor b.
        let mut ops_mutated = ops_a;
        ops_mutated.push(MOp::StoreInt(1, 0xa));
        let mutated = build_program(&ops_mutated);

        // Cells alternate: even indices run `p`, odd indices run b.
        let grid = |p: &Program| -> Vec<Job<Mode>> {
            axes.iter()
                .flat_map(|&(mode, encoding, meta)| {
                    [cell(p, mode, encoding, meta), cell(&b, mode, encoding, meta)]
                })
                .collect()
        };
        let mut svc = CorpusService::new(2);
        let first_jobs = grid(&a);
        let first = svc.run_batch(&first_jobs, build);

        // One image owns one ProgramId *per decode identity* (the
        // HardBound extension and the metadata path are part of it); the
        // mutated image shares none of a's.
        let a_pids: HashSet<ProgramId> =
            first_jobs.iter().step_by(2).map(|j| j.key().0).collect();
        let second_jobs = grid(&mutated);
        let mutated_keys: HashSet<_> = second_jobs.iter().step_by(2).map(Job::key).collect();
        prop_assert!(
            mutated_keys.iter().all(|(pid, _)| !a_pids.contains(pid)),
            "the mutated image must get new ProgramIds"
        );

        let before = svc.stats().store;
        let second = svc.run_batch(&second_jobs, build);
        let after = svc.stats().store;
        prop_assert_eq!(
            after.misses - before.misses,
            mutated_keys.len() as u64,
            "every distinct cell of the mutated image executes"
        );
        // Hits: every b cell, plus the in-batch duplicates of the mutated
        // image's cells (they replay their first copy).
        prop_assert_eq!(
            after.hits - before.hits,
            (second_jobs.len() - mutated_keys.len()) as u64,
            "every cell of b replays"
        );
        for k in (1..second.len()).step_by(2) {
            prop_assert_eq!(&first[k], &second[k], "b's replay differs");
        }
    }
}
