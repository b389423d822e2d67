//! `olden-fleet`: the nine Olden ports at full scale, each under
//! `baseline/intern-4` and `hardbound/intern-4` (18 cells), run on one
//! thread in alternating passes — an engine pass (a fresh
//! `Engine::new(Machine::new(..)).run()` per cell, as `hbrun` does) and an
//! interpreter pass (`Machine::run` on the same cells). The seed sets the
//! cell order. Every cell's outcome must equal its golden digest, and the
//! engine's outcome must equal the interpreter's.

use std::collections::BTreeMap;
use std::time::Instant;

use hardbound::compiler::Mode;
use hardbound::core::{Machine, MachineConfig, PointerEncoding, RunOutcome};
use hardbound::exec::Engine;
use hardbound::isa::Program;
use hardbound::runtime::{compile_uncached, machine_config};
use hardbound::telemetry;
use hardbound::workloads::{all, Scale};

use crate::refvm::HostClock;
use crate::trace::Tracer;
use crate::util::{median, outcome_digest, parse_golden, percentile, secs, vm_hwm_mb, Rng};
use crate::Report;

pub const GOLDEN: &str = include_str!("../golden/olden-fleet.txt");

pub struct Cell {
    pub key: String,
    pub program: Program,
    pub config: MachineConfig,
}

/// Compiles the 18 cells (uncached: set-up pays the full compile).
pub fn compile_cells(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in all(scale) {
        for mode in [Mode::Baseline, Mode::HardBound] {
            let program = compile_uncached(&w.source, mode)
                .unwrap_or_else(|e| panic!("{} does not compile under {mode}: {e}", w.name));
            cells.push(Cell {
                key: format!("{}/{mode}/intern-4", w.name),
                program,
                config: machine_config(mode, PointerEncoding::Intern4),
            });
        }
    }
    cells
}

fn machine(cell: &Cell) -> Machine {
    Machine::new(cell.program.clone(), cell.config.clone())
}

/// One engine or interpreter pass over `order`.
pub struct Pass {
    /// Outcomes, indexed like the cells.
    pub outs: Vec<Option<RunOutcome>>,
    /// Normalized seconds per cell, in run order.
    pub cell_s: Vec<f64>,
    /// Wall and normalized seconds of the whole pass (the reference runs
    /// between cells excluded).
    pub wall_s: f64,
    pub norm_s: f64,
    /// Block-cache hits summed over the engine runs (0 on the interpreter).
    pub block_hits: u64,
}

pub fn pass(
    cells: &[Cell],
    order: &[usize],
    engine: bool,
    tr: &mut Tracer,
    clock: &mut HostClock,
) -> Pass {
    let mut p = Pass {
        outs: vec![None; cells.len()],
        cell_s: Vec::with_capacity(order.len()),
        wall_s: 0.0,
        norm_s: 0.0,
        block_hits: 0,
    };
    let mark = clock.mark();
    for &i in order {
        let ((out, hits), wall) = clock.time(|| {
            if engine {
                let mut e = Engine::new(machine(&cells[i]));
                let o = tr.span("exec.engine_run", |_| {
                    let o = e.run();
                    let n = o.stats.uops;
                    (o, n)
                });
                (o, e.stats().cache.hits)
            } else {
                let mut m = machine(&cells[i]);
                let o = tr.span("core.interp_run", |_| {
                    let o = m.run();
                    let n = o.stats.uops;
                    (o, n)
                });
                (o, 0)
            }
        });
        p.block_hits += hits;
        p.wall_s += wall;
        p.cell_s.push(wall);
        p.outs[i] = Some(out);
    }
    let factor = clock.factor_since(mark);
    p.norm_s = p.wall_s * factor;
    for s in &mut p.cell_s {
        *s *= factor;
    }
    p
}

/// Checks every cell of an engine/interpreter pair against each other and
/// against the golden digests.
fn check_pair(
    golden: &BTreeMap<String, u64>,
    cells: &[Cell],
    eng: &Pass,
    int: &Pass,
    rep: &mut Report,
) {
    for (i, cell) in cells.iter().enumerate() {
        let (Some(e), Some(n)) = (&eng.outs[i], &int.outs[i]) else {
            continue;
        };
        rep.attempted += 2;
        let digest = outcome_digest(e);
        let problem = if e != n {
            Some(format!(
                "{}: engine outcome differs from the interpreter's",
                cell.key
            ))
        } else {
            match golden.get(&cell.key) {
                Some(&g) if g == digest => None,
                Some(&g) => Some(format!(
                    "{}: digest {digest:016x}, golden {g:016x}",
                    cell.key
                )),
                None => Some(format!("{}: no golden digest", cell.key)),
            }
        };
        if let Some(msg) = problem {
            rep.fail(2, msg);
        }
    }
}

/// A traced engine/interpreter pair over `order`, setting the `exec`,
/// `core` and `cache` layer metrics the fleet owns. Returns the pair's
/// wall time.
pub fn traced_pair(cells: &[Cell], order: &[usize], tr: &mut Tracer, rep: &mut Report) -> f64 {
    let mut clock = HostClock::new();
    let before = telemetry::global().snapshot();
    let eng = pass(cells, order, true, tr, &mut clock);
    let delta = telemetry::global().snapshot().delta(&before);
    let int = pass(cells, order, false, tr, &mut clock);
    let (mut uops, mut hier) = (0u64, 0u64);
    for o in eng.outs.iter().flatten() {
        uops += o.stats.uops;
        let h = &o.stats.hierarchy;
        hier += h.data_accesses + h.tag_accesses + h.shadow_accesses;
    }
    let hits = delta.counter("hb_hier_fastpath_hits") as f64;
    let misses = delta.counter("hb_hier_fastpath_misses") as f64;
    rep.layer("exec.engine_ns_per_uop", tr.ns_per("exec.engine_run"));
    rep.layer("core.interp_ns_per_uop", tr.ns_per("core.interp_run"));
    rep.layer(
        "exec.block_hits_per_uop",
        eng.block_hits as f64 / uops.max(1) as f64,
    );
    rep.layer(
        "core.hier_accesses_per_uop",
        hier as f64 / uops.max(1) as f64,
    );
    rep.layer("cache.fastpath_ratio", hits / (hits + misses).max(1.0));
    eng.norm_s + int.norm_s
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, golden_text: &str, scale: Scale) -> Report {
    let golden = parse_golden(golden_text);
    let mut rep = Report::default();
    let mut clock = HostClock::new();

    let mut setups = Vec::new();
    let mut cells = Vec::new();
    // Compiling the 18 cells takes milliseconds, so set-up repeats it
    // nine times and reports the median.
    let mark = clock.mark();
    for _ in 0..9 {
        let (c, wall) = clock.time(|| compile_cells(scale));
        cells = c;
        setups.push(wall);
    }
    let setup_s = median(&setups) * clock.factor_since(mark);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    Rng::new(seed).shuffle(&mut order);

    let (mut engine_s, mut interp_s, mut engine_wall) = (Vec::new(), Vec::new(), Vec::new());
    // Normalized milliseconds of each cell, one entry per engine pass.
    let mut cell_ms = vec![Vec::new(); cells.len()];
    let mut uops: u64;
    let started = Instant::now();
    // Another pair starts only if it is expected to end within the run.
    loop {
        let t = Instant::now();
        let eng = pass(&cells, &order, true, &mut Tracer::new(false), &mut clock);
        let int = pass(&cells, &order, false, &mut Tracer::new(false), &mut clock);
        check_pair(&golden, &cells, &eng, &int, &mut rep);
        uops = eng.outs.iter().flatten().map(|o| o.stats.uops).sum();
        for (k, &i) in order.iter().enumerate() {
            cell_ms[i].push(eng.cell_s[k] * 1e3);
        }
        engine_s.push(eng.norm_s);
        engine_wall.push(eng.wall_s);
        interp_s.push(int.norm_s);
        if tr.enabled() || secs(started) + secs(t) > seconds {
            break;
        }
    }
    if tr.enabled() {
        // The pair above ran untraced; this one runs traced, and the
        // ratio of the two is the tracing overhead.
        let untraced = engine_s[0] + interp_s[0];
        let traced = traced_pair(&cells, &order, tr, &mut rep);
        rep.layer("trace_overhead", traced / untraced);
    }

    let pass_s = median(&engine_s);
    let alt_pass_s = median(&interp_s);
    rep.e2e("setup_s", setup_s);
    rep.e2e("pass_s", pass_s);
    rep.e2e("alt_pass_s", alt_pass_s);
    // An operation's latency is its cell's median over the run's engine
    // passes; the percentiles are taken over the 18 cells. Over every
    // single cell run instead, p99 is the slowest of the heaviest cell's
    // few runs, and swings with one moment of host noise.
    let cell_ms: Vec<f64> = cell_ms.iter().map(|v| median(v)).collect();
    // The interpolated median, not the nearest rank: the 18 cells leave a
    // gap between the two middle ones, and the nearest rank would jump
    // across it with noise.
    rep.e2e("op_p50_ms", median(&cell_ms));
    rep.e2e("op_p99_ms", percentile(&cell_ms, 99.0));
    rep.e2e("peak_rss_mb", vm_hwm_mb("self"));
    let m = uops as f64 / 1e6;
    rep.alias("fleet_muops_per_s", m / pass_s, "Muops/s");
    rep.alias("interp_muops_per_s", m / alt_pass_s, "Muops/s");
    rep.alias("muops_per_pass", m, "Muops");
    rep.alias("pass_wall_s", median(&engine_wall), "s");
    rep.alias("passes", engine_s.len() as f64, "count");
    rep.alias("reference_ms", median(&clock.refs) * 1e3, "ms");
    rep
}

/// Golden digests for every fleet cell, from the interpreter.
pub fn golden(scale: Scale) -> String {
    let mut out =
        format!("# olden-fleet: RunOutcome digest per cell (Scale::{scale:?}, interpreter).\n");
    for c in compile_cells(scale) {
        out.push_str(&format!(
            "{} {:016x}\n",
            c.key,
            outcome_digest(&machine(&c).run())
        ));
    }
    out
}
