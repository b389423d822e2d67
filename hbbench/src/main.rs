//! `hbbench` — the repository's benchmark. See `LAYERS.md` beside this
//! package for the workloads, metrics and what each per-layer metric
//! should move.
//!
//! ```text
//! hbbench run --workload <olden-fleet|paper-grid|serve-grid> --seed N
//!             --seconds S --trace 0|1 --hbserve PATH --work DIR
//! hbbench golden --workload W          # print golden digests
//! hbbench selftest --hbserve PATH --work DIR
//! hbbench grid-pass --scale full|smoke [--trace-out FILE]   # one paper-grid pass
//! ```
//!
//! `run` prints a summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! untraced, every per-layer metric traced.

mod fleet;
mod grid;
mod probes;
mod refvm;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hardbound::workloads::Scale;
use trace::Tracer;
use util::{host_facts, Json};

/// End-to-end metrics, reported by every workload: name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("alt_pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

pub const WORKLOADS: [&str; 3] = ["olden-fleet", "paper-grid", "serve-grid"];

/// What one run found: operations attempted and failed (with reasons),
/// the end-to-end metrics, the workload's own names for them, and the
/// per-layer metrics of a traced run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: BTreeMap<String, f64>,
    pub aliases: Vec<(String, f64, String)>,
    pub layers: BTreeMap<String, f64>,
}

impl Report {
    /// Records `n` failed operations (0 for a failure of the run itself,
    /// which still makes the run incorrect).
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.problems.push(msg);
    }

    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.to_owned(), v);
    }

    pub fn alias(&mut self, name: &str, v: f64, unit: &str) {
        self.aliases.push((name.to_owned(), v, unit.to_owned()));
    }

    /// Records a per-layer metric. The first value wins: the workload's
    /// own traced pass sets its metrics before the probes fill the rest.
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.entry(name.to_owned()).or_insert(v);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    cmd: String,
    opts: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next().ok_or("missing command")?;
        let mut opts = BTreeMap::new();
        while let Some(k) = it.next() {
            let k = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{k}`"))?
                .to_owned();
            let v = it.next().ok_or_else(|| format!("--{k} needs a value"))?;
            opts.insert(k, v);
        }
        Ok(Args { cmd, opts })
    }

    fn get(&self, k: &str) -> Result<&str, String> {
        self.opts
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.get(k)?
            .parse()
            .map_err(|_| format!("--{k} is not a valid number"))
    }
}

fn workload_name(a: &Args) -> Result<&str, String> {
    let w = a.get("workload")?;
    if WORKLOADS.contains(&w) {
        Ok(w)
    } else {
        Err(format!(
            "unknown workload `{w}` (one of {})",
            WORKLOADS.join(", ")
        ))
    }
}

/// Where the run finds `hbserve` and keeps its scratch files.
pub struct Paths<'a> {
    pub hbserve: &'a Path,
    pub work: &'a Path,
}

/// Runs workload `w` against `golden`. The benchmark runs olden-fleet and
/// paper-grid at full scale; the self-test runs them at smoke scale.
fn run_workload(
    w: &str,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    paths: &Paths<'_>,
    golden: &str,
    scale: Scale,
) -> Report {
    match w {
        "olden-fleet" => fleet::run(seed, seconds, tr, golden, scale),
        "paper-grid" => grid::run(seed, seconds, tr, paths.work, golden, scale),
        _ => serve::run_with(seed, seconds, tr, paths, golden, None),
    }
}

/// The committed golden digests of workload `w`.
fn committed_golden(w: &str) -> &'static str {
    match w {
        "olden-fleet" => fleet::GOLDEN,
        "paper-grid" => grid::GOLDEN,
        _ => serve::GOLDEN,
    }
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    let w = workload_name(a)?;
    let seed: u64 = a.num("seed")?;
    let seconds: f64 = a.num("seconds")?;
    let traced = match a.get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got `{t}`")),
    };
    let hbserve = PathBuf::from(a.get("hbserve")?);
    let work = PathBuf::from(a.get("work")?);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;

    let mut host = host_facts(seed);
    host.str("workload", w);
    host.num("seconds", seconds);
    host.num("trace", f64::from(u8::from(traced)));
    println!("host {}", host.render());

    let paths = Paths {
        hbserve: &hbserve,
        work: &work,
    };
    let mut tr = Tracer::new(traced);
    let golden = committed_golden(w);
    let mut rep = run_workload(w, seed, seconds, &mut tr, &paths, golden, Scale::Full);
    if traced {
        probes::run_missing(seed, &mut rep, &mut tr, &paths);
        let spans = work.join(format!("spans-{w}-{seed}.jsonl"));
        std::fs::write(&spans, tr.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        println!("spans written to {}", spans.display());
    }

    let mut metrics = Json::object();
    if traced {
        for (name, unit) in probes::LAYERS {
            let v = rep.layers.get(name).copied().unwrap_or(f64::NAN);
            println!("layer {name} {v} {unit}");
            if !v.is_finite() {
                rep.fail(0, format!("per-layer metric {name} was not measured"));
            }
            metrics.obj(name, value(v, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = rep.e2e.get(name).copied().unwrap_or(f64::NAN);
            println!("metric {name} {v} {unit}");
            if !(v.is_finite() && v > 0.0) {
                rep.fail(0, format!("end-to-end metric {name} was not measured"));
            }
            metrics.obj(name, value(v, unit));
        }
        for (name, v, unit) in &rep.aliases {
            println!("metric {name} {v} {unit}");
        }
    }
    println!(
        "metric error_rate {} fraction ({} of {} operations failed)",
        rep.error_rate(),
        rep.failed,
        rep.attempted
    );
    for p in rep.problems.iter().take(20) {
        println!("problem: {p}");
        eprintln!("problem: {p}");
    }
    let mut out = Json::object();
    out.raw("correct", rep.correct().to_string());
    out.num("attempted", rep.attempted.max(1) as f64);
    out.num("failed", rep.failed as f64);
    out.obj("metrics", metrics);
    println!("{}", out.render());
    Ok(true)
}

fn value(v: f64, unit: &str) -> Json {
    let mut j = Json::object();
    j.num("value", v);
    j.str("unit", unit);
    j
}

/// Checks that the benchmark's own checks pass what they must and catch
/// what they must, on every workload at smoke scale: golden digests
/// generated here must pass, the same digests with one bit flipped must
/// fail operations, and a server killed in the middle of a serve-grid run
/// must fail operations too. Prints one line per case.
fn cmd_selftest(a: &Args) -> Result<bool, String> {
    let hbserve = PathBuf::from(a.get("hbserve")?);
    let work = PathBuf::from(a.get("work")?);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let paths = Paths {
        hbserve: &hbserve,
        work: &work,
    };
    let mut all_ok = true;
    let mut check = |case: &str, rep: &Report, want_clean: bool| {
        let clean = rep.correct() && rep.failed == 0;
        let caught = !rep.correct() && rep.failed > 0 && rep.error_rate() > 0.0;
        let ok = if want_clean { clean } else { caught };
        println!(
            "selftest {case}: {} (attempted {}, failed {}, error_rate {:.4})",
            match (ok, want_clean) {
                (true, true) => "passed",
                (true, false) => "caught",
                (false, true) => "FAILED",
                (false, false) => "MISSED",
            },
            rep.attempted,
            rep.failed,
            rep.error_rate()
        );
        for p in rep.problems.iter().take(3) {
            println!("  problem: {p}");
        }
        all_ok &= ok;
    };
    for w in WORKLOADS {
        let golden = match w {
            "olden-fleet" => fleet::golden(Scale::Smoke),
            "paper-grid" => grid::golden(Scale::Smoke),
            _ => serve::GOLDEN.to_owned(),
        };
        let mut off = Tracer::new(false);
        let rep = run_workload(w, 1, 1.0, &mut off, &paths, &golden, Scale::Smoke);
        check(&format!("{w} against its golden digests"), &rep, true);
        let corrupted = corrupt_first_digest(&golden);
        let rep = run_workload(w, 1, 1.0, &mut off, &paths, &corrupted, Scale::Smoke);
        check(
            &format!("{w} with one golden digest corrupted"),
            &rep,
            false,
        );
    }
    let rep = serve::run_with(
        1,
        1.0,
        &mut Tracer::new(false),
        &paths,
        serve::GOLDEN,
        Some(50),
    );
    check("serve-grid with hbserve killed after 50 grids", &rep, false);
    Ok(all_ok)
}

/// Flips one bit in the first golden digest.
fn corrupt_first_digest(text: &str) -> String {
    let mut done = false;
    text.lines()
        .map(|l| {
            if done || l.starts_with('#') || l.trim().is_empty() {
                return format!("{l}\n");
            }
            done = true;
            // `key digest[*count] ...`: corrupt the first digest.
            let (k, rest) = l.split_once(' ').expect("key digest");
            let (v, tail) = rest.split_at(16);
            let d = u64::from_str_radix(v, 16).expect("hex digest") ^ 1;
            format!("{k} {d:016x}{tail}\n")
        })
        .collect()
}

fn main() -> ExitCode {
    let args = Args::parse();
    // Every `HB_*` knob is cleared, so that what is measured is the
    // defaults; the processes the benchmark starts inherit the cleared
    // environment. A grid pass keeps the store and worker count its
    // parent set for it.
    if args.as_ref().is_ok_and(|a| a.cmd != "grid-pass") {
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("HB_") {
                std::env::remove_var(k);
            }
        }
    }
    let result = args.and_then(|a| match a.cmd.as_str() {
        "run" => cmd_run(&a),
        "selftest" => cmd_selftest(&a),
        "golden" => {
            let w = workload_name(&a)?;
            print!(
                "{}",
                match w {
                    "olden-fleet" => fleet::golden(Scale::Full),
                    "paper-grid" => grid::golden(Scale::Full),
                    _ => serve::golden(),
                }
            );
            Ok(true)
        }
        "grid-pass" => {
            let scale = match a.get("scale")? {
                "full" => Scale::Full,
                "smoke" => Scale::Smoke,
                s => return Err(format!("--scale must be full or smoke, got `{s}`")),
            };
            let trace = a.opts.get("trace-out").map(PathBuf::from);
            print!("{}", grid::child_pass(scale, trace.as_deref()));
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hbbench: {e}");
            ExitCode::from(2)
        }
    }
}
