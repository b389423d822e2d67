//! Small shared pieces: the seeded generator, outcome digests, order
//! statistics, process facts and a minimal JSON writer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hardbound::core::RunOutcome;

/// SplitMix64: a tiny, well-mixed generator. Every input of every
/// workload comes from one of these, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of every observable field of a run: exit code, trap, each
/// simulated statistic, console output and the `print_int` stream. The
/// fields are listed by name, so the digest does not depend on any byte
/// format of the program; a change that only speeds the simulator up
/// must leave it unchanged.
pub fn outcome_digest(o: &RunOutcome) -> u64 {
    let s = &o.stats;
    let h = &s.hierarchy;
    let text = format!(
        "exit={:?};trap={:?};uops={};setbound={};meta={};check={};bounds={};loads={};\
         stores={};pst={};cpst={};pld={};cpld={};objt={};hd={}/{};ht={}/{};hs={}/{};\
         pages={}/{}/{};out={:?};ints={:?}",
        o.exit_code,
        o.trap,
        s.uops,
        s.setbound_uops,
        s.meta_uops,
        s.check_uops,
        s.bounds_checks,
        s.loads,
        s.stores,
        s.ptr_stores,
        s.compressed_ptr_stores,
        s.ptr_loads,
        s.compressed_ptr_loads,
        s.objtable_cycles,
        h.data_accesses,
        h.data_stall_cycles,
        h.tag_accesses,
        h.tag_stall_cycles,
        h.shadow_accesses,
        h.shadow_stall_cycles,
        s.data_pages,
        s.tag_pages,
        s.shadow_pages,
        o.output,
        o.ints,
    );
    fnv64(text.as_bytes())
}

/// Golden digests, one `key digest` pair per line (`#` starts a comment).
pub fn parse_golden(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_owned(), u64::from_str_radix(v.trim(), 16).ok()?))
        })
        .collect()
}

/// Nearest-rank percentile of an unsorted sample (`p` in `0..=100`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `cmd` and returns its trimmed stdout, or `unknown`.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The facts that make two results comparable: core count, toolchain,
/// source revision, seed and the 1-minute load average at the start.
pub fn host_facts(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    let mut j = Json::object();
    j.num("nproc", nproc as f64);
    j.str("rustc", &command_output("rustc", &["-V"]));
    j.str(
        "git_rev",
        &command_output("git", &["rev-parse", "--short=12", "HEAD"]),
    );
    j.num("seed", seed as f64);
    j.num("loadavg_1m", load1);
    j
}

/// A JSON object built field by field (the benchmark has no serde).
#[derive(Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    pub fn object() -> Json {
        Json::default()
    }

    pub fn num(&mut self, key: &str, v: f64) {
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_owned()
        };
        self.fields.push((key.to_owned(), text));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.fields.push((key.to_owned(), quote(v)));
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_owned(), json));
    }

    pub fn obj(&mut self, key: &str, v: Json) {
        self.fields.push((key.to_owned(), v.render()));
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push('}');
        out
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
