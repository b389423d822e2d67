//! Per-layer probes: seeded code that replays a workload's own inputs
//! through one crate's public functions, each call batch inside a span.
//! They run after the workload's traced pass and fill every per-layer
//! metric the pass itself did not measure.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hardbound::cache::{AccessClass, Hierarchy, HierarchyConfig};
use hardbound::compiler::Mode;
use hardbound::core::{Machine, MachineConfig, PointerEncoding};
use hardbound::exec::{config_fingerprint, Engine, ProgramId, ResultStore, SharedBlockCache};
use hardbound::isa::{layout, parse_program, BinOp, CmpOp, FuncId, FunctionBuilder, Program, Reg};
use hardbound::mem::Memory;
use hardbound::runtime::{compile_uncached, machine_config};
use hardbound::serve::wire::{decode_outcome, encode_outcome};
use hardbound::serve::{Reader, StoreLog, Writer};
use hardbound::violations::corpus;
use hardbound::workloads::Scale;

use crate::trace::Tracer;
use crate::util::{secs, Rng};
use crate::{fleet, grid, serve, Paths, Report};

/// Every per-layer metric and its unit (`BENCHMARK.json` lists the same,
/// with the direction that is better).
pub const LAYERS: [(&str, &str); 34] = [
    ("exec.engine_ns_per_uop", "ns"),
    ("exec.dispatch_ns_per_uop", "ns"),
    ("exec.block_lookup_ns", "ns"),
    ("exec.block_hits_per_uop", "ratio"),
    ("exec.store_lookup_ns", "ns"),
    ("exec.store_hit_ratio", "ratio"),
    ("exec.program_id_us", "us"),
    ("core.interp_ns_per_uop", "ns"),
    ("core.hier_accesses_per_uop", "ratio"),
    ("cache.access_ns", "ns"),
    ("cache.access_spill_ns", "ns"),
    ("cache.fastpath_ratio", "ratio"),
    ("mem.word_ns", "ns"),
    ("mem.tag_ns", "ns"),
    ("mem.shadow_ns", "ns"),
    ("compiler.compile_us", "us"),
    ("isa.listing_render_us", "us"),
    ("isa.parse_program_us", "us"),
    ("serve.wire_encode_ns", "ns"),
    ("serve.wire_decode_ns", "ns"),
    ("serve.rt_us", "us"),
    ("serve.submit_bytes_per_cell", "B"),
    ("serve.store_open_s", "s"),
    ("serve.log_append_us", "us"),
    ("report.fig5_s", "s"),
    ("report.fig6_s", "s"),
    ("report.fig7_s", "s"),
    ("report.corpus_extern4_s", "s"),
    ("report.corpus_intern4_s", "s"),
    ("report.corpus_intern11_s", "s"),
    ("report.ablation_check_uop_s", "s"),
    ("report.tag_cache_sweep_s", "s"),
    ("report.granularity_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Runs every probe whose metrics `rep` does not hold yet.
pub fn run_missing(seed: u64, rep: &mut Report, tr: &mut Tracer, paths: &Paths<'_>) {
    let missing = |rep: &Report, name: &str| !rep.layers.contains_key(name);
    if missing(rep, "exec.engine_ns_per_uop") {
        tr.span("probe.fleet", |tr| {
            // Two seeded ports, both modes, at full scale.
            let cells = fleet::compile_cells(Scale::Full);
            let mut rng = Rng::new(seed);
            let a = rng.below(9);
            let b = (a + 1 + rng.below(8)) % 9;
            let order = [2 * a, 2 * a + 1, 2 * b, 2 * b + 1];
            fleet::traced_pair(&cells, &order, tr, rep);
            ((), 0)
        });
    }
    dispatch(tr, rep);
    block_lookup(seed, tr, rep);
    store_lookup(tr, rep);
    corpus_front_end(seed, tr, rep);
    hierarchy(seed, tr, rep);
    memory(seed, tr, rep);
    listings_and_wire(seed, tr, rep);
    log_append(seed, paths.work, tr, rep);
    if missing(rep, "serve.rt_us") {
        tr.span("probe.serve", |tr| {
            serve::layer_session(seed, paths, tr, rep);
            ((), 0)
        });
    }
    if missing(rep, "report.fig5_s") {
        tr.span("probe.report", |tr| {
            // In-process and at smoke scale: the grid's own shape, cheaply.
            for name in grid::ARTEFACTS {
                let t = Instant::now();
                let r = tr.span(&format!("report.{name}"), |_| {
                    (grid::artefact(name, Scale::Smoke), 1)
                });
                rep.layer(&format!("report.{name}_s"), secs(t));
                if let Err(e) = r {
                    rep.fail(1, format!("report probe {name}: {e}"));
                }
            }
            ((), 0)
        });
    }
}

/// A memory-free call/ALU loop: leaf calls and straight ALU runs, where
/// per-instruction dispatch dominates.
fn dispatch_loop(iters: i32) -> Program {
    let mut leaf = FunctionBuilder::new("leaf", 0);
    leaf.addi(Reg::A1, Reg::A1, 3);
    leaf.ret();
    let mut main = FunctionBuilder::new("main", 0);
    main.li(Reg::A0, 0);
    main.li(Reg::A1, 1);
    let head = main.bind_label();
    main.call(FuncId(1));
    main.addi(Reg::A2, Reg::A1, 5);
    main.bin(BinOp::Xor, Reg::A3, Reg::A2, Reg::A1);
    main.bin(BinOp::And, Reg::A4, Reg::A3, Reg::A2);
    main.bin(BinOp::Or, Reg::A5, Reg::A4, Reg::A2);
    main.mov(Reg::A6, Reg::A5);
    main.addi(Reg::A0, Reg::A0, 1);
    let done = main.new_label();
    main.branch(CmpOp::Ge, Reg::A0, iters, done);
    main.jump(head);
    main.bind(done);
    main.li(Reg::A0, 0);
    main.halt();
    Program::with_entry(vec![main.finish(), leaf.finish()])
}

fn dispatch(tr: &mut Tracer, rep: &mut Report) {
    let p = dispatch_loop(2_000_000);
    let mut e = Engine::new(Machine::new(p, MachineConfig::baseline()));
    let out = tr.span("exec.dispatch", |_| {
        let o = e.run();
        let n = o.stats.uops;
        (o, n)
    });
    if out.exit_code != Some(0) {
        rep.fail(1, format!("dispatch loop ended with {:?}", out.trap));
    }
    rep.layer("exec.dispatch_ns_per_uop", tr.ns_per("exec.dispatch"));
}

/// `SharedBlockCache::lookup` on hits: one seeded fleet program is run
/// through a shared cache, then every resident block entry is looked up.
fn block_lookup(seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let cells = fleet::compile_cells(Scale::Smoke);
    let cell = &cells[Rng::new(seed).below(cells.len())];
    let mut cache = SharedBlockCache::new(1 << 16);
    Engine::with_shared_cache(
        Machine::new(cell.program.clone(), cell.config.clone()),
        &mut cache,
    )
    .run();
    let pid = ProgramId::of(&cell.program, &cell.config);
    let Some(handle) = cache.handle(pid) else {
        rep.fail(1, "block probe: program not registered".to_owned());
        return;
    };
    let mut keys = Vec::new();
    for (f, func) in cell.program.functions.iter().enumerate() {
        for pc in 0..func.insts.len() as u32 {
            if cache.lookup(handle, FuncId(f as u32), pc).is_some() {
                keys.push((FuncId(f as u32), pc));
            }
        }
    }
    let rounds = (2_000_000 / keys.len().max(1)).max(1);
    tr.span("exec.block_lookup", |_| {
        for _ in 0..rounds {
            for &(f, pc) in &keys {
                black_box(cache.lookup(handle, f, pc));
            }
        }
        ((), (rounds * keys.len()) as u64)
    });
    rep.layer("exec.block_lookup_ns", tr.ns_per("exec.block_lookup"));
}

/// `ResultStore::lookup` on serve-grid's own keys.
fn store_lookup(tr: &mut Tracer, rep: &mut Report) {
    let p = serve::compile_programs();
    let u = serve::universe(&p);
    let keys: Vec<_> = u
        .iter()
        .map(|c| {
            let cfg = c.config();
            (
                ProgramId::of(&p.programs[c.program], &cfg),
                config_fingerprint(&cfg, c.mode as u64),
            )
        })
        .collect();
    let mut m = Machine::new(p.programs[0].clone(), MachineConfig::baseline());
    let outcome = m.run();
    let mut store = ResultStore::with_capacity(ResultStore::DEFAULT_CAPACITY);
    for &k in &keys {
        store.insert(k, outcome.clone());
    }
    let rounds = 20;
    tr.span("exec.store_lookup", |_| {
        for _ in 0..rounds {
            for &k in &keys {
                black_box(store.lookup(k));
            }
        }
        ((), (rounds * keys.len()) as u64)
    });
    rep.layer("exec.store_lookup_ns", tr.ns_per("exec.store_lookup"));
}

/// `compile_uncached` and the first `ProgramId::of` per image, over a
/// seeded sample of the violation corpus (the warm paper-grid pass's
/// front-end work).
fn corpus_front_end(seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let mut cases = corpus();
    Rng::new(seed).shuffle(&mut cases);
    let sources: Vec<&str> = cases
        .iter()
        .take(100)
        .map(|c| c.ok_source.as_str())
        .collect();
    let programs: Vec<Program> = tr.span("compiler.compile", |_| {
        let ps: Vec<Program> = sources
            .iter()
            .filter_map(|s| compile_uncached(s, Mode::HardBound).ok())
            .collect();
        (ps, sources.len() as u64)
    });
    rep.layer("compiler.compile_us", tr.ns_per("compiler.compile") / 1e3);
    let cfg = machine_config(Mode::HardBound, PointerEncoding::Intern4);
    tr.span("exec.program_id", |_| {
        for p in &programs {
            black_box(ProgramId::of(p, &cfg));
        }
        ((), programs.len() as u64)
    });
    rep.layer("exec.program_id_us", tr.ns_per("exec.program_id") / 1e3);
}

/// `Hierarchy::access` over seeded data addresses in an L1-resident
/// (16 KB) and an L2-spilling (16 MB) footprint.
fn hierarchy(seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let n = 2_000_000u64;
    for (name, metric, footprint) in [
        ("cache.access_l1", "cache.access_ns", 16u64 << 10),
        ("cache.access_spill", "cache.access_spill_ns", 16u64 << 20),
    ] {
        let mut rng = Rng::new(seed);
        let addrs: Vec<u64> = (0..1 << 16)
            .map(|_| u64::from(layout::HEAP_BASE) + ((rng.next_u64() % footprint) & !3))
            .collect();
        let mut h = Hierarchy::new(HierarchyConfig::default());
        tr.span(name, |_| {
            let mut stall = 0u64;
            for i in 0..n {
                stall += h.access(AccessClass::Data, addrs[(i as usize) & 0xffff]);
            }
            black_box(stall);
            ((), n)
        });
        rep.layer(metric, tr.ns_per(name));
    }
}

/// `Memory` word, tag and shadow operations at a fleet-sized (4 MB)
/// heap footprint.
fn memory(seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let mut rng = Rng::new(seed ^ 1);
    let addrs: Vec<u32> = (0..1 << 16)
        .map(|_| layout::HEAP_BASE + ((rng.next_u64() % (4 << 20)) as u32 & !3))
        .collect();
    let mut mem = Memory::new();
    let n = 2_000_000usize;
    tr.span("mem.word", |_| {
        let mut acc = 0u32;
        for i in 0..n {
            let a = addrs[i & 0xffff];
            if i & 1 == 0 {
                mem.write_word_tagged(a, i as u32, (i & 3) as u8);
            } else {
                let (v, t) = mem.read_word_tagged(a);
                acc = acc.wrapping_add(v ^ u32::from(t));
            }
        }
        black_box(acc);
        ((), n as u64)
    });
    tr.span("mem.tag", |_| {
        let mut acc = 0u32;
        for i in 0..n {
            let a = addrs[i & 0xffff];
            if i & 1 == 0 {
                mem.set_tag(a, (i & 3) as u8);
            } else {
                acc = acc.wrapping_add(u32::from(mem.tag(a)));
            }
        }
        black_box(acc);
        ((), n as u64)
    });
    tr.span("mem.shadow", |_| {
        let mut acc = 0u32;
        for i in 0..n {
            let a = addrs[i & 0xffff];
            if i & 1 == 0 {
                mem.set_shadow(a, (a, a + 64));
            } else {
                acc = acc.wrapping_add(mem.shadow(a).1);
            }
        }
        black_box(acc);
        ((), n as u64)
    });
    rep.layer("mem.word_ns", tr.ns_per("mem.word"));
    rep.layer("mem.tag_ns", tr.ns_per("mem.tag"));
    rep.layer("mem.shadow_ns", tr.ns_per("mem.shadow"));
}

/// Listing render/parse on serve-grid's programs and the outcome codec on
/// the outcomes serve-grid receives.
fn listings_and_wire(seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let (p, outs) = serve::sample_outcomes(seed, 64);
    let listings = tr.span("isa.render", |_| {
        let l: Vec<String> = p.programs.iter().map(Program::disassemble).collect();
        (l, p.programs.len() as u64)
    });
    rep.layer("isa.listing_render_us", tr.ns_per("isa.render") / 1e3);
    tr.span("isa.parse", |_| {
        for l in &listings {
            black_box(parse_program(l).is_ok());
        }
        ((), listings.len() as u64)
    });
    rep.layer("isa.parse_program_us", tr.ns_per("isa.parse") / 1e3);
    let rounds = 2000;
    let mut bufs = Vec::new();
    tr.span("serve.wire_encode", |_| {
        for _ in 0..rounds {
            bufs.clear();
            for o in &outs {
                let mut w = Writer::new();
                encode_outcome(&mut w, o);
                bufs.push(w.into_bytes());
            }
        }
        ((), (rounds * outs.len()) as u64)
    });
    rep.layer("serve.wire_encode_ns", tr.ns_per("serve.wire_encode"));
    let ok = tr.span("serve.wire_decode", |_| {
        let mut ok = true;
        for _ in 0..rounds {
            for (b, o) in bufs.iter().zip(&outs) {
                ok &= decode_outcome(&mut Reader::new(b)).as_ref() == Ok(o);
            }
        }
        (ok, (rounds * outs.len()) as u64)
    });
    if !ok {
        rep.fail(
            1,
            "wire probe: decoded outcome differs from the encoded one".to_owned(),
        );
    }
    rep.layer("serve.wire_decode_ns", tr.ns_per("serve.wire_decode"));
}

/// `StoreLog::append` of serve-grid outcomes under distinct keys, flushed
/// at the end as `PersistentService` does after each batch.
fn log_append(seed: u64, work: &Path, tr: &mut Tracer, rep: &mut Report) {
    let (_, outs) = serve::sample_outcomes(seed ^ 2, 16);
    let path = work.join("probe-log.bin");
    for ext in ["bin", "lock"] {
        let _ = std::fs::remove_file(path.with_extension(ext));
    }
    let Ok(mut loaded) = StoreLog::open(&path) else {
        rep.fail(1, "log probe: cannot open a store log".to_owned());
        return;
    };
    let n = 4000u64;
    let ok = tr.span("serve.log_append", |_| {
        let mut ok = true;
        for i in 0..n {
            let o = &outs[i as usize % outs.len()];
            ok &= loaded.log.append((ProgramId(i), seed), o).is_ok();
        }
        ok &= loaded.log.flush().is_ok();
        (ok, n)
    });
    if !ok {
        rep.fail(1, "log probe: append failed".to_owned());
    }
    rep.layer("serve.log_append_us", tr.ns_per("serve.log_append") / 1e3);
    drop(loaded);
    for ext in ["bin", "lock"] {
        let _ = std::fs::remove_file(path.with_extension(ext));
    }
}
