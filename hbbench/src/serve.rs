//! `serve-grid`: a closed loop against the `hbserve` binary, started with
//! `--workers 1` and a `--store` in the run's work directory. One client
//! connection submits seeded grids of 1–16 cells, each cell drawn from
//! Smoke-scale Olden × 5 modes × 3 encodings × tag-cache geometries:
//! about 80% of cells come from the warm set the set-up put into the
//! store (reads), about 20% are cells the store has never seen (simulate,
//! then append to the log: writes). Grids go out in blocks of
//! [`BLOCK`]; each block is followed by a replay of the same grids, which
//! by then are all reads; a run sends a number of blocks set by its
//! `--seconds` alone ([`blocks_for`]). Every returned outcome must equal
//! its golden digest; an `ERR` reply, a dropped connection or a missing
//! result fails every cell of its grid.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hardbound::compiler::Mode;
use hardbound::core::{MachineConfig, PointerEncoding, RunOutcome};
use hardbound::isa::Program;
use hardbound::runtime::{build_machine_with_config, compile_uncached, machine_config};
use hardbound::serve::{Client, WireJob};
use hardbound::workloads::{all, Scale};

use crate::refvm::HostClock;
use crate::trace::Tracer;
use crate::util::{median, outcome_digest, percentile, secs, vm_hwm_mb, Rng};
use crate::{Paths, Report};

pub const GOLDEN: &str = include_str!("../golden/serve-grid.txt");

/// Grids per timed block (the unit of `pass_s` / `alt_pass_s`).
pub const BLOCK: usize = 100;
/// Grids between two runs of the host-speed reference.
const SEGMENT: usize = 10;
/// Nominal wall seconds of a block and its replay (about what they take
/// on the 2-core build host). A run of `--seconds S` sends
/// `S / NOMINAL_BLOCK_S` blocks: a number fixed by the run's length,
/// never by the speed of the server, so every build sends the same grids
/// to a store of the same size.
const NOMINAL_BLOCK_S: f64 = 1.4;
/// At least 1,000 mixed grids per run: the samples of `op_p99_ms`.
const MIN_BLOCKS: usize = 10;
/// At most 30 blocks: a block draws about 170 of the 6,723 never-seen
/// cells, so 30 draw about 5,100 and never run out.
const MAX_BLOCKS: usize = 30;
/// Set-ups per run; `setup_s` is their median, and the last one's server
/// runs the loop.
const SETUPS: usize = 5;
/// A server that has not answered the whole loop by then is killed.
const WATCHDOG_S: u64 = 140;

/// Blocks of mixed grids in an untraced run of `seconds`.
fn blocks_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_BLOCK_S).round() as usize).clamp(MIN_BLOCKS, MAX_BLOCKS)
}

/// Tag-cache capacities of the universe (bytes).
const TAG_BYTES: [u64; 14] = [
    1 << 7,
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
];
/// Tag-cache associativities of the universe.
const TAG_WAYS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// The warm set: the paper's tag-cache sweep sizes at 4 ways.
const WARM_BYTES: [u64; 5] = [1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14];

/// One cell of the universe.
#[derive(Clone, Copy)]
pub struct CellId {
    /// Index into the compiled `(workload, mode)` programs.
    pub program: usize,
    pub mode: Mode,
    pub encoding: PointerEncoding,
    pub tag_bytes: u64,
    pub tag_ways: usize,
}

impl CellId {
    /// `workload/mode/encoding`: the cells that share a program image
    /// and pointer encoding.
    pub fn group(&self, names: &[String]) -> String {
        format!("{}/{}", names[self.program], self.encoding)
    }

    pub fn key(&self, names: &[String]) -> String {
        format!(
            "{}/t{}w{}",
            self.group(names),
            self.tag_bytes,
            self.tag_ways
        )
    }

    /// The mode's machine, as `runtime::machine_config` gives it, with
    /// this cell's tag-cache geometry.
    pub fn config(&self) -> MachineConfig {
        let base = machine_config(self.mode, self.encoding);
        let mut h = base.hierarchy;
        h.tag_cache_bytes = self.tag_bytes;
        h.tag_cache_ways = self.tag_ways;
        base.with_hierarchy(h)
    }

    fn is_warm(&self) -> bool {
        self.tag_ways == 4 && WARM_BYTES.contains(&self.tag_bytes)
    }
}

/// The compiled programs, their listings and names.
pub struct Programs {
    pub programs: Vec<Program>,
    pub modes: Vec<Mode>,
    pub names: Vec<String>,
    pub listings: Vec<String>,
}

pub fn compile_programs() -> Programs {
    let mut p = Programs {
        programs: Vec::new(),
        modes: Vec::new(),
        names: Vec::new(),
        listings: Vec::new(),
    };
    for w in all(Scale::Smoke) {
        for mode in Mode::ALL {
            let program = compile_uncached(&w.source, mode)
                .unwrap_or_else(|e| panic!("{} does not compile under {mode}: {e}", w.name));
            p.listings.push(program.disassemble());
            p.programs.push(program);
            p.modes.push(mode);
            p.names.push(format!("{}/{mode}", w.name));
        }
    }
    p
}

/// Every distinct cell, in a fixed order. Modes without HardBound
/// hardware ignore the encoding, so they appear once per geometry.
pub fn universe(p: &Programs) -> Vec<CellId> {
    let mut cells = Vec::new();
    for (program, &mode) in p.modes.iter().enumerate() {
        let encodings: &[PointerEncoding] = match mode {
            Mode::MallocOnly | Mode::HardBound => &PointerEncoding::ALL,
            _ => &[PointerEncoding::Intern4],
        };
        for &encoding in encodings {
            for tag_bytes in TAG_BYTES {
                for tag_ways in TAG_WAYS {
                    let cell = CellId {
                        program,
                        mode,
                        encoding,
                        tag_bytes,
                        tag_ways,
                    };
                    if cell.config().hierarchy.validate().is_ok() {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

pub fn wire_job(p: &Programs, c: &CellId) -> WireJob {
    WireJob {
        listing: p.listings[c.program].clone(),
        config: c.config(),
        salt: c.mode as u64,
        tag: c.mode as u64,
    }
}

/// A running `hbserve` child.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    pub fn start(hbserve: &Path, store: &Path) -> Result<Server, String> {
        for ext in ["bin", "lock"] {
            let _ = std::fs::remove_file(store.with_extension(ext));
        }
        let mut child = Command::new(hbserve)
            .args(["--listen", "127.0.0.1:0", "--workers", "1", "--store"])
            .arg(store)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hbserve.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        match line.trim().strip_prefix("hbserve listening on ") {
            Some(addr) => Ok(Server {
                child,
                addr: addr.to_owned(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("hbserve did not announce its address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` and waits for the process; kills it if that fails.
    pub fn stop(mut self) {
        let asked = Client::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    /// A server dropped on an error path is killed, never left running.
    /// (After [`Server::stop`] the process is already reaped, and this
    /// does nothing.)
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Kills the server process `pid` if `done` is still unset at `deadline`,
/// so a hung server turns into failed grids instead of a hung benchmark.
fn watchdog(pid: u32, deadline: Instant, done: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !done.load(Ordering::SeqCst) {
            if Instant::now() >= deadline {
                let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    })
}

/// Submits `cells` as one grid and collects the outcomes.
fn submit(
    client: &mut Client,
    jobs: &[WireJob],
    tr: &mut Tracer,
) -> Result<Vec<RunOutcome>, String> {
    tr.span("serve.grid", |tr| {
        let ticket = tr.span("serve.submit", |_| (client.submit(jobs), jobs.len() as u64));
        let r = match ticket {
            Ok(ticket) => {
                let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
                tr.span("serve.watch", |_| {
                    (client.watch_into(ticket, &mut results), jobs.len() as u64)
                })
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    results
                        .into_iter()
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| "server omitted results".to_owned())
                })
            }
            Err(e) => Err(e.to_string()),
        };
        (r, jobs.len() as u64)
    })
}

/// Set-up state shared with the probes and the self-test.
pub struct Setup {
    pub programs: Programs,
    pub universe: Vec<CellId>,
    pub warm: Vec<usize>,
    pub server: Server,
    pub store: PathBuf,
}

/// Compiles the inputs, starts `hbserve` on a fresh store and puts the
/// warm set into it.
pub fn setup(hbserve: &Path, work: &Path) -> Result<Setup, String> {
    let programs = compile_programs();
    let universe = universe(&programs);
    let warm: Vec<usize> = (0..universe.len())
        .filter(|&i| universe[i].is_warm())
        .collect();
    let store = work.join("serve-store.bin");
    let server = Server::start(hbserve, &store)?;
    let mut client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut off = Tracer::new(false);
    for chunk in warm.chunks(64) {
        let jobs: Vec<WireJob> = chunk
            .iter()
            .map(|&i| wire_job(&programs, &universe[i]))
            .collect();
        submit(&mut client, &jobs, &mut off)?;
    }
    Ok(Setup {
        programs,
        universe,
        warm,
        server,
        store,
    })
}

/// The seeded grid sequence: each grid holds 1–16 cells; each cell is a
/// warm-set cell with probability 4/5, else the next never-seen cell.
pub struct GridGen {
    rng: Rng,
    fresh: Vec<usize>,
    next_fresh: usize,
}

impl GridGen {
    pub fn new(seed: u64, s: &Setup) -> GridGen {
        let mut rng = Rng::new(seed);
        let mut fresh: Vec<usize> = (0..s.universe.len())
            .filter(|&i| !s.universe[i].is_warm())
            .collect();
        rng.shuffle(&mut fresh);
        GridGen {
            rng,
            fresh,
            next_fresh: 0,
        }
    }

    /// The next grid, or `None` when the never-seen cells run out.
    pub fn next(&mut self, warm: &[usize]) -> Option<Vec<usize>> {
        let n = 1 + self.rng.below(16);
        let mut grid = Vec::with_capacity(n);
        for _ in 0..n {
            if self.rng.chance(4, 5) {
                grid.push(warm[self.rng.below(warm.len())]);
            } else {
                let &i = self.fresh.get(self.next_fresh)?;
                self.next_fresh += 1;
                grid.push(i);
            }
        }
        Some(grid)
    }

    pub fn fresh_used(&self) -> usize {
        self.next_fresh
    }

    pub fn fresh_total(&self) -> usize {
        self.fresh.len()
    }
}

/// Runs one grid and checks every outcome; returns the latency.
fn run_grid(
    client: &mut Client,
    s: &Setup,
    golden: &BTreeMap<String, u64>,
    grid: &[usize],
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let jobs: Vec<WireJob> = grid
        .iter()
        .map(|&i| wire_job(&s.programs, &s.universe[i]))
        .collect();
    let t = Instant::now();
    let result = submit(client, &jobs, tr);
    let lat = secs(t);
    rep.attempted += grid.len() as u64;
    let outs = match result {
        Ok(outs) => outs,
        Err(e) => {
            rep.fail(
                grid.len() as u64,
                format!("grid of {} cells: {e}", grid.len()),
            );
            return Err(e);
        }
    };
    for (&i, out) in grid.iter().zip(&outs) {
        let key = s.universe[i].key(&s.programs.names);
        let d = outcome_digest(out);
        match golden.get(&key) {
            Some(&g) if g == d => {}
            Some(&g) => rep.fail(1, format!("{key}: digest {d:016x}, golden {g:016x}")),
            None => rep.fail(1, format!("{key}: no golden digest")),
        }
    }
    Ok(lat)
}

/// The closed loop. `kill_after` (self-test only) kills the server after
/// that many grids.
pub fn run_with(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    paths: &Paths<'_>,
    golden_text: &str,
    kill_after: Option<usize>,
) -> Report {
    let (hbserve, work) = (paths.hbserve, paths.work);
    let mut clock = HostClock::new();
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut setup_state = None;
    for rep_i in 0..SETUPS {
        match clock.time(|| setup(hbserve, work)) {
            (Ok(s), wall) => {
                setups.push(wall);
                if rep_i + 1 < SETUPS {
                    s.server.stop();
                } else {
                    setup_state = Some(s);
                }
            }
            (Err(e), _) => {
                rep.attempted += 1;
                rep.fail(1, format!("set-up failed: {e}"));
                return rep;
            }
        }
    }
    let setup_s = median(&setups) * clock.factor_since(0);
    let s = setup_state.expect("the set-ups ran");
    // The server's peak memory once it holds the warm set: a fixed amount
    // of work. Later peaks depend on which new cells a seed draws, and on
    // how many grids a run gets through.
    let rss = vm_hwm_mb(&s.server.pid().to_string());
    let golden = expand_golden(golden_text, &s.programs, &s.universe);
    let mut client = match Client::connect(&s.server.addr) {
        Ok(c) => c,
        Err(e) => {
            rep.attempted += 1;
            rep.fail(1, format!("cannot connect: {e}"));
            s.server.stop();
            return rep;
        }
    };
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(
        s.server.pid(),
        Instant::now() + Duration::from_secs(WATCHDOG_S),
        Arc::clone(&done),
    );

    let mut gen = GridGen::new(seed, &s);
    // Normalized seconds of each block of grids and of its replay, and
    // normalized latency of each grid of the blocks.
    let mut block_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut traced_replay_s = None;
    let mut lat_ms = Vec::new();
    let mut cells = 0usize;
    let mut grids = 0usize;
    let mut dead = false;
    let traced = tr.enabled();
    // A traced run sends one block; its replay then runs a second time,
    // traced, and the ratio of the two replays of the same grids is the
    // tracing overhead.
    let blocks = if traced { 1 } else { blocks_for(seconds) };
    let passes: &[(bool, bool)] = if traced {
        &[(false, false), (true, false), (true, true)]
    } else {
        &[(false, false), (true, false)]
    };
    'outer: for _ in 0..blocks {
        let mut block: Vec<Vec<usize>> = Vec::with_capacity(BLOCK);
        for _ in 0..BLOCK {
            match gen.next(&s.warm) {
                Some(g) => block.push(g),
                None => break 'outer,
            }
        }
        for &(replay, trace_this) in passes {
            let mut off = Tracer::new(false);
            let t2: &mut Tracer = if trace_this { &mut *tr } else { &mut off };
            // The reference runs after every SEGMENT grids; the block and
            // each of its grids are normalized by the block's timings.
            let mark = clock.mark();
            let mut lats = Vec::with_capacity(BLOCK);
            for segment in block.chunks(SEGMENT) {
                for grid in segment {
                    if kill_after == Some(grids) {
                        let pid = s.server.pid().to_string();
                        let _ = Command::new("kill").arg("-9").arg(pid).status();
                    }
                    grids += 1;
                    match run_grid(&mut client, &s, &golden, grid, &mut rep, t2) {
                        Ok(l) => {
                            lats.push(l);
                            if !replay {
                                cells += grid.len();
                            }
                        }
                        // Reconnect; a refused reconnect ends the loop.
                        Err(_) => match Client::connect(&s.server.addr) {
                            Ok(c) => client = c,
                            Err(_) => {
                                dead = true;
                                break 'outer;
                            }
                        },
                    }
                }
                clock.tick();
            }
            let factor = clock.factor_since(mark);
            let total = lats.iter().sum::<f64>() * factor;
            if !replay {
                lat_ms.extend(lats.iter().map(|l| l * factor * 1e3));
                block_s.push(total);
            } else if trace_this {
                traced_replay_s = Some(total);
            } else {
                replay_s.push(total);
            }
        }
    }
    let loop_s = block_s.iter().sum::<f64>();
    if dead {
        rep.fail(0, "hbserve went away; the loop stopped".to_owned());
    }
    if gen.fresh_used() >= gen.fresh_total() {
        rep.fail(
            0,
            "the never-seen cells ran out before the run ended".to_owned(),
        );
    }

    if traced {
        if let (Some(t), Some(&u)) = (traced_replay_s, replay_s.first()) {
            rep.layer("trace_overhead", t / u);
        }
        tail_layers(&mut client, &s, &mut gen, &mut rep);
    }
    done.store(true, Ordering::SeqCst);
    let _ = dog.join();
    stop_and_open(s, traced, &mut rep);

    rep.e2e("setup_s", setup_s);
    rep.e2e("pass_s", median(&block_s));
    rep.e2e("alt_pass_s", median(&replay_s));
    rep.e2e("op_p50_ms", median(&lat_ms));
    rep.e2e("op_p99_ms", percentile(&lat_ms, 99.0));
    rep.e2e("peak_rss_mb", rss);
    rep.alias("serve_cells_per_s", cells as f64 / loop_s, "cells/s");
    rep.alias("serve_p50_ms", median(&lat_ms), "ms");
    rep.alias("serve_p99_ms", percentile(&lat_ms, 99.0), "ms");
    rep.alias("latency_samples", lat_ms.len() as f64, "count");
    rep.alias("grids", grids as f64, "count");
    rep.alias("new_cells", gen.fresh_used() as f64, "count");
    rep.alias("reference_ms", median(&clock.refs) * 1e3, "ms");
    rep
}

/// The serve-side layer metrics on this run's own cells: a warm one-cell
/// round trip, the server's store counters and the submission size.
fn tail_layers(client: &mut Client, s: &Setup, gen: &mut GridGen, rep: &mut Report) {
    let one = [wire_job(&s.programs, &s.universe[s.warm[0]])];
    let mut rts = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let r = client.submit(&one).and_then(|tk| {
            let mut r = vec![None];
            client.watch_into(tk, &mut r)
        });
        if r.is_ok() {
            rts.push(secs(t) * 1e6);
        }
    }
    rep.layer("serve.rt_us", median(&rts));
    if let Ok(st) = client.stats() {
        rep.layer(
            "exec.store_hit_ratio",
            st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        );
    }
    let sample: Vec<WireJob> = (0..BLOCK)
        .filter_map(|_| gen.next(&s.warm))
        .flatten()
        .map(|i| wire_job(&s.programs, &s.universe[i]))
        .collect();
    let bytes = hardbound::serve::net::encode_submission2(&sample).len();
    rep.layer(
        "serve.submit_bytes_per_cell",
        bytes as f64 / sample.len().max(1) as f64,
    );
}

/// Stops the server; when traced, times reopening its store as
/// `hbserve --store` would.
fn stop_and_open(s: Setup, traced: bool, rep: &mut Report) {
    let store = s.store.clone();
    s.server.stop();
    if traced {
        let t = Instant::now();
        let opened = hardbound::serve::PersistentService::open(1, &store);
        rep.layer("serve.store_open_s", secs(t));
        drop(opened);
    }
}

/// The serve-side layer metrics for a traced run of another workload: a
/// short session of [`BLOCK`] grids against a fresh server.
pub fn layer_session(seed: u64, paths: &Paths<'_>, tr: &mut Tracer, rep: &mut Report) {
    let s = match setup(paths.hbserve, paths.work) {
        Ok(s) => s,
        Err(e) => {
            rep.fail(1, format!("serve probe set-up: {e}"));
            return;
        }
    };
    let golden = expand_golden(GOLDEN, &s.programs, &s.universe);
    match Client::connect(&s.server.addr) {
        Ok(mut client) => {
            let mut gen = GridGen::new(seed, &s);
            let mut scratch = Report::default();
            for _ in 0..BLOCK {
                let Some(grid) = gen.next(&s.warm) else { break };
                if run_grid(&mut client, &s, &golden, &grid, &mut scratch, tr).is_err() {
                    break;
                }
            }
            if scratch.failed > 0 {
                rep.fail(
                    scratch.failed,
                    format!("serve probe: {}", scratch.problems.join("; ")),
                );
            }
            tail_layers(&mut client, &s, &mut gen, rep);
        }
        Err(e) => rep.fail(1, format!("serve probe: cannot connect: {e}")),
    }
    stop_and_open(s, true, rep);
}

/// Golden digests of every cell of the universe, from the interpreter.
/// One line per `(program, encoding)` group: its cells' digests in
/// universe order, run-length coded as `digest*count` (tag-cache
/// geometries that the program never stresses share one outcome).
pub fn golden() -> String {
    let p = compile_programs();
    let cells = universe(&p);
    let outs = hardbound::exec::batch::map(&cells, |_, c| {
        build_machine_with_config(p.programs[c.program].clone(), c.mode, c.config()).run()
    });
    let mut out = String::from(
        "# serve-grid: RunOutcome digests per (program, encoding) group, in universe\n\
         # order (Scale::Smoke, interpreter), run-length coded as digest*count.\n",
    );
    let mut runs: Vec<(u64, usize)> = Vec::new();
    for (i, (c, o)) in cells.iter().zip(&outs).enumerate() {
        let d = outcome_digest(o);
        match runs.last_mut() {
            Some((last, n)) if *last == d => *n += 1,
            _ => runs.push((d, 1)),
        }
        let group_ends = cells
            .get(i + 1)
            .is_none_or(|n| n.group(&p.names) != c.group(&p.names));
        if group_ends {
            out.push_str(&c.group(&p.names));
            for (d, n) in runs.drain(..) {
                out.push_str(&format!(" {d:016x}*{n}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Expands [`golden`]'s text into one digest per cell key; cells without
/// a digest are simply absent (and fail when returned).
pub fn expand_golden(text: &str, p: &Programs, u: &[CellId]) -> BTreeMap<String, u64> {
    let mut groups: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut words = line.split_whitespace();
        let Some(group) = words.next() else { continue };
        let digests = groups.entry(group).or_default();
        for w in words {
            let Some((d, n)) = w.split_once('*') else {
                continue;
            };
            if let (Ok(d), Ok(n)) = (u64::from_str_radix(d, 16), n.parse::<usize>()) {
                digests.extend(std::iter::repeat_n(d, n));
            }
        }
    }
    let mut next: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for c in u {
        let group = c.group(&p.names);
        let k = next.entry(group.clone()).or_default();
        if let Some(&d) = groups.get(group.as_str()).and_then(|ds| ds.get(*k)) {
            out.insert(c.key(&p.names), d);
        }
        *k += 1;
    }
    out
}

/// Shared helper for the probes: the outcomes serve-grid receives, by
/// running a seeded sample of its cells in-process.
pub fn sample_outcomes(seed: u64, n: usize) -> (Programs, Vec<RunOutcome>) {
    let p = compile_programs();
    let u = universe(&p);
    let mut rng = Rng::new(seed);
    let outs = (0..n)
        .map(|_| {
            let c = u[rng.below(u.len())];
            build_machine_with_config(p.programs[c.program].clone(), c.mode, c.config()).run()
        })
        .collect();
    (p, outs)
}
