//! `paper-grid`: every paper artefact generated through
//! `report::experiments` at full scale with `HB_JOBS=2`, in passes that
//! are each a fresh process:
//!
//! * cold — an empty `HB_STORE_PATH` store is written while the grid runs;
//! * warm — the same grid replays from that store (several passes).
//!
//! The artefacts are the paper's, in the paper's order: the seed does not
//! change them. Each artefact's rendered table must match its golden
//! digest, warm tables must equal cold tables, the §5.2 corpus must be
//! perfect under every encoding and the §6 granularity table must show
//! what `correctness_suite` asserts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use hardbound::compiler::Mode;
use hardbound::core::PointerEncoding;
use hardbound::report::{self, render};
use hardbound::runtime::compile_uncached;
use hardbound::violations::corpus;
use hardbound::workloads::{all, Scale};

use crate::refvm::{HostClock, REFERENCE_S};
use crate::trace::Tracer;
use crate::util::{fnv64, median, parse_golden, percentile, secs, vm_hwm_mb};
use crate::Report;

pub const GOLDEN: &str = include_str!("../golden/paper-grid.txt");

/// The artefacts, in their canonical order.
pub const ARTEFACTS: [&str; 9] = [
    "fig5",
    "fig6",
    "fig7",
    "corpus_extern4",
    "corpus_intern4",
    "corpus_intern11",
    "ablation_check_uop",
    "tag_cache_sweep",
    "granularity",
];

/// Tag-cache sizes of the sweep, as in the `ablation_tag_cache` bench.
const TAG_CACHE_SIZES: [u64; 5] = [1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024];

/// Generates one artefact and returns its rendered table, or the reason
/// its own check failed.
pub fn artefact(name: &str, scale: Scale) -> Result<String, String> {
    let corpus_check = |encoding: PointerEncoding| {
        let r = report::correctness(encoding);
        if r.is_perfect() {
            Ok(r.to_string())
        } else {
            Err(format!("corpus under {encoding} is not perfect:\n{r}"))
        }
    };
    match name {
        "fig5" => Ok(render::fig5_table(&report::fig5(scale))),
        "fig6" => Ok(render::fig6_table(&report::fig6(scale))),
        "fig7" => Ok(render::fig7_table(&report::fig7(scale))),
        "corpus_extern4" => corpus_check(PointerEncoding::Extern4),
        "corpus_intern4" => corpus_check(PointerEncoding::Intern4),
        "corpus_intern11" => corpus_check(PointerEncoding::Intern11),
        "ablation_check_uop" => Ok(render::ablation_table(&report::ablation_check_uop(scale))),
        "tag_cache_sweep" => Ok(render::tag_cache_table(&report::tag_cache_sweep(
            scale,
            &TAG_CACHE_SIZES,
        ))),
        "granularity" => {
            let rows = report::granularity(PointerEncoding::Intern4);
            let hb = &rows[0];
            let ot = &rows[1];
            if hb.scheme != "hardbound"
                || (hb.subobject_detected, hb.other_detected)
                    != (hb.subobject_total, hb.other_total)
            {
                return Err("word granularity must cover the whole corpus".to_owned());
            }
            if ot.subobject_rate() >= 1.0 {
                return Err("the object table must show the sub-object blind spot".to_owned());
            }
            Ok(render::granularity_table(&rows))
        }
        other => Err(format!("unknown artefact {other}")),
    }
}

/// The body of one pass (runs in a fresh child process): every artefact
/// in the paper's order, one `artefact <name> <seconds> <digest|FAIL> <message>`
/// line each, then the process's counters.
pub fn child_pass(scale: Scale, trace_path: Option<&Path>) -> String {
    let mut tr = Tracer::new(trace_path.is_some());
    let mut clock = HostClock::new();
    let mut out = String::new();
    for name in ARTEFACTS {
        let span = format!("report.{name}");
        let (table, wall) = clock.time(|| tr.span(&span, |_| (artefact(name, scale), 1)));
        match table {
            Ok(text) => out.push_str(&format!(
                "artefact {name} {wall} {:016x} ok\n",
                fnv64(text.as_bytes())
            )),
            Err(msg) => out.push_str(&format!(
                "artefact {name} {wall} FAIL {}\n",
                msg.replace('\n', " | ")
            )),
        }
    }
    let svc = hardbound::runtime::service_stats();
    out.push_str(&format!("store_hits {}\n", svc.store.hits));
    out.push_str(&format!("store_misses {}\n", svc.store.misses));
    out.push_str(&format!("peak_rss_mb {}\n", vm_hwm_mb("self")));
    let refs: Vec<String> = clock.refs.iter().map(f64::to_string).collect();
    out.push_str(&format!("refs {}\n", refs.join(" ")));
    if let Some(p) = trace_path {
        let _ = std::fs::write(p, tr.to_jsonl());
    }
    out
}

/// Parsed output of one pass.
struct Pass {
    /// The pass's wall time, the child's reference runs excluded.
    raw_s: f64,
    /// The child's reference timings.
    refs: Vec<f64>,
    /// `raw_s` normalized by the median of `refs`.
    norm_s: f64,
    /// Per artefact: wall seconds and digest (or failure).
    artefacts: BTreeMap<String, (f64, Result<u64, String>)>,
    counters: BTreeMap<String, f64>,
}

/// What every pass of a run shares.
struct PassSpec<'a> {
    exe: PathBuf,
    work: &'a Path,
    scale: Scale,
    golden: BTreeMap<String, u64>,
}

fn spawn_pass(d: &PassSpec<'_>, store: &Path, trace: Option<&Path>) -> Result<Pass, String> {
    let mut cmd = Command::new(&d.exe);
    let scale = if d.scale == Scale::Full {
        "full"
    } else {
        "smoke"
    };
    cmd.arg("grid-pass").arg("--scale").arg(scale);
    if let Some(t) = trace {
        cmd.arg("--trace-out").arg(t);
    }
    // The store and the worker count are the only `HB_*` knobs set (main
    // cleared the others).
    cmd.env("HB_STORE_PATH", store)
        .env("HB_JOBS", "2")
        .current_dir(d.work);
    let t = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn a grid pass: {e}"))?;
    let wall_s = secs(t);
    if !out.status.success() {
        return Err(format!(
            "grid pass exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or("")
        ));
    }
    let mut pass = Pass {
        raw_s: f64::NAN,
        refs: Vec::new(),
        norm_s: f64::NAN,
        artefacts: BTreeMap::new(),
        counters: BTreeMap::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let parts: Vec<&str> = line.splitn(5, ' ').collect();
        match parts.as_slice() {
            ["artefact", name, wall, digest, rest @ ..] => {
                let wall: f64 = wall.parse().unwrap_or(f64::NAN);
                let r = if *digest == "FAIL" {
                    Err(rest.join(" "))
                } else {
                    u64::from_str_radix(digest, 16).map_err(|e| e.to_string())
                };
                pass.artefacts.insert((*name).to_owned(), (wall, r));
            }
            ["refs", rest @ ..] => {
                pass.refs = rest
                    .iter()
                    .flat_map(|r| r.split(' '))
                    .filter_map(|r| r.parse().ok())
                    .collect();
            }
            [k, v] => {
                pass.counters
                    .insert((*k).to_owned(), v.parse().unwrap_or(f64::NAN));
            }
            _ => {}
        }
    }
    pass.raw_s = wall_s - pass.refs.iter().sum::<f64>();
    let factor = REFERENCE_S / median(&pass.refs);
    pass.norm_s = pass.raw_s * factor;
    Ok(pass)
}

/// Cold passes in an untraced run.
const COLD_ROUNDS: usize = 3;

/// Set-up: compile every distinct input program of the grid (the nine
/// Olden ports under each mode and the violation corpus under the modes
/// the corpus artefacts use), uncached.
fn compile_inputs(scale: Scale) {
    for w in all(scale) {
        for mode in Mode::ALL {
            compile_uncached(&w.source, mode).expect("Olden ports compile");
        }
    }
    for case in corpus() {
        for mode in [Mode::HardBound, Mode::ObjectTable, Mode::MallocOnly] {
            for src in [&case.bad_source, &case.ok_source] {
                // A corpus program may legitimately fail to compile under
                // a mode; the artefact checks judge that, not set-up.
                let _ = compile_uncached(src, mode);
            }
        }
    }
}

/// One round, checked: a cold pass on an empty store, then `warm_passes`
/// warm passes replaying it. Returns the cold pass's normalized seconds
/// and the warm passes'.
fn round(
    d: &PassSpec<'_>,
    trace: Option<&Path>,
    rep: &mut Report,
    rss: &mut f64,
    warm_passes: usize,
) -> (f64, Vec<f64>) {
    let store = d.work.join("grid-store.bin");
    for ext in ["bin", "lock"] {
        let _ = std::fs::remove_file(store.with_extension(ext));
    }
    let mut cold = f64::NAN;
    let mut warm = Vec::new();
    let mut warm_refs = Vec::new();
    let mut cold_tables: Option<BTreeMap<String, u64>> = None;
    for k in 0..=warm_passes {
        rep.attempted += ARTEFACTS.len() as u64;
        let pass = match spawn_pass(d, &store, if k == 0 { trace } else { None }) {
            Ok(pass) => pass,
            Err(msg) => {
                rep.fail(ARTEFACTS.len() as u64, msg);
                if k == 0 {
                    // Nothing to replay.
                    break;
                }
                continue;
            }
        };
        if k == 0 {
            cold = pass.norm_s;
        } else {
            warm.push(pass.raw_s);
            warm_refs.extend_from_slice(&pass.refs);
        }
        *rss = rss.max(
            pass.counters
                .get("peak_rss_mb")
                .copied()
                .unwrap_or(f64::NAN),
        );
        let mut tables = BTreeMap::new();
        for name in ARTEFACTS {
            match pass.artefacts.get(name) {
                Some((s, Ok(digest))) => {
                    if k == 0 && trace.is_some() {
                        rep.layer(&format!("report.{name}_s"), *s);
                    }
                    tables.insert(name.to_owned(), *digest);
                    match d.golden.get(name) {
                        Some(g) if g == digest => {}
                        Some(g) => {
                            rep.fail(1, format!("{name}: digest {digest:016x}, golden {g:016x}"));
                        }
                        None => rep.fail(1, format!("{name}: no golden digest")),
                    }
                }
                Some((_, Err(msg))) => rep.fail(1, format!("{name}: {msg}")),
                None => rep.fail(1, format!("{name}: missing from the pass output")),
            }
        }
        let c = &pass.counters;
        let hits = c.get("store_hits").copied().unwrap_or(0.0);
        let misses = c.get("store_misses").copied().unwrap_or(0.0);
        if k == 0 {
            if trace.is_some() {
                rep.layer("exec.store_hit_ratio", hits / (hits + misses).max(1.0));
            }
            cold_tables = Some(tables);
        } else {
            if misses != 0.0 {
                rep.fail(
                    0,
                    format!("a warm pass simulated {misses} cells; the store did not replay"),
                );
            }
            if cold_tables.as_ref().is_some_and(|c| *c != tables) {
                rep.fail(1, "warm tables differ from cold tables".to_owned());
            }
        }
    }
    // A warm pass is too short for its own few reference timings; the
    // warm passes are normalized by all of theirs together.
    let factor = REFERENCE_S / median(&warm_refs);
    (cold, warm.iter().map(|w| w * factor).collect())
}

pub fn run(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    work: &Path,
    golden_text: &str,
    scale: Scale,
) -> Report {
    let d = PassSpec {
        exe: std::env::current_exe().expect("own executable path"),
        work,
        scale,
        golden: parse_golden(golden_text),
    };
    let mut rep = Report::default();

    let mut clock = HostClock::new();
    let mut setups = Vec::new();
    for _ in 0..3 {
        setups.push(clock.time(|| compile_inputs(scale)).1);
    }
    let setup_s = median(&setups) * clock.factor_since(0);

    let mut rss: f64 = 0.0;
    // The number of warm passes follows from the run's length alone, never
    // from how fast the passes go, so the p99 over them (their slowest)
    // means the same in every run of a given length. A traced run keeps
    // to three; its time goes to the traced cold pass and the probes.
    let warm_passes = if tr.enabled() {
        3
    } else {
        ((seconds * 0.4) as usize).max(3)
    };
    // A cold pass is a single sample of about 12 s of two-thread work,
    // which the host's slow phases move by up to a third; an untraced run
    // reports the median of COLD_ROUNDS of them, each on an empty store
    // and followed by its share of the warm passes.
    let rounds = if tr.enabled() { 1 } else { COLD_ROUNDS };
    let (mut colds, mut warm) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        let n = warm_passes / rounds + usize::from(r < warm_passes % rounds);
        let (c, w) = round(&d, None, &mut rep, &mut rss, n);
        colds.push(c);
        warm.extend(w);
    }
    let cold = median(&colds);
    if tr.enabled() {
        // The cold pass above ran untraced; this one runs traced (its spans
        // land in the child's own file), and the ratio of the two is the
        // tracing overhead.
        let spans = work.join(format!("spans-paper-grid-pass-{seed}.jsonl"));
        let (c, _) = round(&d, Some(&spans), &mut rep, &mut rss, 0);
        rep.layer("trace_overhead", c / cold);
        // The cold pass's store, opened as `hbserve --store` would.
        let t = Instant::now();
        let opened = tr.span("serve.store_open", |_| {
            (
                hardbound::serve::PersistentService::open(1, work.join("grid-store.bin")),
                1,
            )
        });
        rep.layer("serve.store_open_s", secs(t));
        drop(opened);
    }

    // An operation here is one warm regeneration of every artefact.
    rep.e2e("setup_s", setup_s);
    rep.e2e("pass_s", cold);
    rep.e2e("alt_pass_s", median(&warm));
    rep.e2e("op_p50_ms", median(&warm) * 1e3);
    rep.e2e("op_p99_ms", percentile(&warm, 99.0) * 1e3);
    rep.e2e("peak_rss_mb", rss);
    rep.alias("grid_cold_s", cold, "s");
    rep.alias("grid_warm_s", median(&warm), "s");
    rep.alias("warm_passes", warm.len() as f64, "count");
    rep
}

/// Golden digests of every artefact's rendered table.
pub fn golden(scale: Scale) -> String {
    let mut out = format!(
        "# paper-grid: FNV-1a digest of each artefact's rendered table (Scale::{scale:?}).\n"
    );
    for name in ARTEFACTS {
        let text = artefact(name, scale).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&format!("{name} {:016x}\n", fnv64(text.as_bytes())));
    }
    out
}
