//! Plumbing shared by the workloads: the run header, the working
//! directory, peak-RSS reading, timing helpers and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::{Args, CONFIRM_SEED, DEV_SEED, END_TO_END, PER_LAYER};

pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` and return its result with the wall time it took, in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// CPU time the hypervisor has taken from the machine since boot, in ms
/// summed over its CPUs (the `steal` column of `/proc/stat`, in 100 Hz
/// ticks), and the number of CPUs. `(0, 1)` where the kernel reports none.
fn stolen_ms() -> (f64, usize) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 1);
    };
    let steal = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 10.0);
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    (steal, cpus.max(1))
}

/// A stopwatch for compute-bound work on a shared virtual machine: wall
/// time minus the CPU time the hypervisor stole from the machine
/// meanwhile, shared evenly over its CPUs (a CPU accrues steal only while
/// it has work to run). On a shared two-vCPU virtual machine, steal took
/// 0–30 % of a CPU and, uncorrected, made identical training runs differ
/// by 40 %.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    stolen: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            stolen: stolen_ms().0,
        }
    }

    /// Milliseconds since `start`, net of stolen time.
    pub fn ms(&self) -> f64 {
        let (stolen, cpus) = stolen_ms();
        (ms_since(self.wall) - (stolen - self.stolen) / cpus as f64).max(0.0)
    }
}

/// Process-lifetime peak resident set in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fail(&format!("read /proc/self/status: {e}")));
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail("no VmHWM in /proc/self/status"));
    kib / 1024.0
}

/// A source fingerprint for checkouts that are not git repositories:
/// FNV-1a over the path and bytes of every file under `crates/` and
/// `perfbench/src/`, in sorted path order.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run header: what was measured, where, and how it was built.
pub fn print_header(args: &Args) {
    let rev = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(source_fingerprint);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let seed_role = match args.seed {
        DEV_SEED => "development",
        CONFIRM_SEED => "confirmation",
        _ => "other",
    };
    println!(
        "# perfbench {} trace={}",
        args.workload,
        u8::from(args.trace)
    );
    println!(
        "# rev={rev} nproc={} lasagne_par_threads={} profile={profile} rustc=\"{rustc}\" \
         seed={} seed_role={seed_role} seconds={}",
        nproc(),
        lasagne_par::current_threads(),
        args.seed,
        args.seconds
    );
}

/// A per-run scratch directory inside the build directory, removed when
/// dropped.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create(args: &Args) -> WorkDir {
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"));
        let path = root.join("perfbench-work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| fail(&format!("create {}: {e}", path.display())));
        WorkDir { path }
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates by name; any `false` makes the run incorrect.
    pub gates: Vec<(String, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.gates.push((name.to_string(), ok));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .any(|(n, _)| *n == name);
        assert!(known, "metric '{name}' is not declared");
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Print the human-readable report, then the result line.
    pub fn print(&self, args: &Args, wall_s: f64) {
        for l in &self.lines {
            println!("{l}");
        }
        for (name, ok) in &self.gates {
            println!("gate {name}: {}", if *ok { "pass" } else { "FAIL" });
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac = {failed_frac} fraction ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                // A layer this workload never enters did no work there.
                None if args.trace => 0.0,
                None => fail(&format!("end-to-end metric '{name}' was not measured")),
            };
            if !value.is_finite() {
                fail(&format!("metric '{name}' is not finite: {value}"));
            }
            println!("{name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!("# wall {wall_s:.1} s");
        let correct =
            self.attempted > 0 && self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok);
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Bitwise equality of two f32 slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
