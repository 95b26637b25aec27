//! The repository benchmark.
//!
//! ```text
//! cargo run --release -p han-benchmark -- run [--workload W] [--seed S]
//!     [--seconds T] [--trace [0|1]] [--out FILE]
//! cargo run --release -p han-benchmark -- compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures one workload (or all four in turn). Every repetition
//! runs in its own cold child process, so set-up time and peak memory are
//! per workload. An untraced run reports the end-to-end metrics; a traced
//! run (`--trace`) reports the per-layer metrics from one traced child
//! beside one untraced child, whose wall-time difference is the tracing
//! overhead. Every output is checked; the last stdout line is one JSON
//! object `{correct, attempted, failed, metrics}` and a failed check
//! makes the exit code non-zero. Each run also appends a record (with
//! `nproc`, the git commit and the seed) to `--out`, by default
//! `$CARGO_TARGET_DIR/han-benchmark/results.jsonl`.
//!
//! `compare` applies a paired, noise-aware decision rule to two such
//! files, pairing their runs in order.

mod child;
mod compare;
mod imb_paper;
mod metrics;
mod serve_mixed;
mod stats;
mod synth;
mod trace;
mod tune_sweep;

use child::Child;
use serde::Value;
use stats::median;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The benchmark's workloads; `BENCHMARK.json` says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TuneSweep,
    ImbPaper,
    Synth,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TuneSweep,
        Workload::ImbPaper,
        Workload::Synth,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneSweep => "tune-sweep",
            Workload::ImbPaper => "imb-paper",
            Workload::Synth => "synth",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One repetition in this process; `None` when only set-up ran.
    pub fn run(self, cx: &mut Child) -> Option<child::Rep> {
        match self {
            Workload::TuneSweep => tune_sweep::run(cx),
            Workload::ImbPaper => imb_paper::run(cx),
            Workload::Synth => synth::run(cx),
            Workload::ServeMixed => serve_mixed::run(cx),
        }
    }
}

/// The repository root, which holds `BENCHMARK.json` and `results/`.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Where results and span files go: under the cargo target directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(REPO_ROOT).join("target"), PathBuf::from)
        .join("han-benchmark")
}

/// Repetitions per untraced run even when they overrun `--seconds`: the
/// median of three discards one repetition slowed by a busy host.
const MIN_REPS: usize = 3;
/// Set-up samples per untraced run; repetitions supply some, set-up-only
/// children the rest.
const SETUP_SAMPLES: usize = 7;
/// A child that has not finished by then is killed and the run fails.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    spawned_at: u128,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        setup_only: false,
        spawned_at: 0,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                o.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                o.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    o.trace = v == "1";
                }
            }
            "--out" => o.out = Some(value("--out")?.into()),
            "--setup-only" => o.setup_only = true,
            "--spawned-at" => {
                o.spawned_at = value("--spawned-at")?
                    .parse()
                    .map_err(|e| format!("--spawned-at: {e}"))?
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

/// What one child process reported.
struct ChildOut {
    setup_s: f64,
    peak_rss_mb: f64,
    wall_s: Option<f64>,
    sim_latency_us: Option<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    layers: Value,
    self_s: Value,
}

/// Wall-clock nanoseconds, comparable across processes.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// Run one repetition in a fresh child process and wait for it.
fn spawn_child(w: Workload, o: &Opts, traced: bool, setup_only: bool) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if setup_only {
        cmd.arg("--setup-only");
    }
    cmd.args(["--spawned-at", &unix_ns().to_string()]);
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = proc.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match proc.try_wait() {
            Ok(Some(st)) => break Ok(st),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            waited => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(match waited {
                    Err(e) => format!("{} child: {e}", w.name()),
                    _ => format!("{} child exceeded {CHILD_DEADLINE:?}", w.name()),
                });
            }
        }
    };
    let text = reader.join().expect("stdout reader");
    let (status, text) = (status?, text.map_err(|e| e.to_string())?);
    if !status.success() {
        return Err(format!("{} child failed: {status}", w.name()));
    }
    let line = text.lines().last().ok_or("child printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("child report: {e}"))?;
    Ok(ChildOut {
        setup_s: v["setup_s"].as_f64().unwrap_or(0.0),
        peak_rss_mb: v["peak_rss_mb"].as_f64().unwrap_or(0.0),
        wall_s: v["wall_s"].as_f64(),
        sim_latency_us: v["sim_latency_us"].as_f64(),
        attempted: v["attempted"].as_u64().unwrap_or(0),
        failed: v["failed"].as_u64().unwrap_or(0),
        failures: v["failures"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default(),
        layers: v["layers"].clone(),
        self_s: v["self_s"].clone(),
    })
}

/// The outcome of one workload run, as printed and recorded.
struct RunResult {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
    children: usize,
}

/// Fold one child's outcome into the run; a child that failed to report
/// makes the run incorrect.
fn absorb(r: &mut RunResult, c: Result<ChildOut, String>) -> Option<ChildOut> {
    r.children += 1;
    match c {
        Ok(c) => {
            r.attempted += c.attempted;
            r.failed += c.failed;
            r.notes.extend(c.failures.iter().cloned());
            Some(c)
        }
        Err(e) => {
            r.correct = false;
            r.notes.push(e);
            None
        }
    }
}

fn run_workload(w: Workload, o: &Opts) -> RunResult {
    let mut r = RunResult {
        workload: w,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        children: 0,
    };
    if o.trace {
        let base = absorb(&mut r, spawn_child(w, o, false, false));
        let traced = absorb(&mut r, spawn_child(w, o, true, false));
        if let (Some(base), Some(traced)) = (base, traced) {
            let (bw, tw) = (base.wall_s.unwrap_or(0.0), traced.wall_s.unwrap_or(0.0));
            for m in metrics::PER_LAYER {
                let v = match m.name {
                    "trace.wall_s" => tw,
                    "trace.overhead_s" => tw - bw,
                    name => traced.layers[name].as_f64().unwrap_or(0.0),
                };
                r.metrics.push((m.name, m.unit, v));
            }
            let mut self_s: Vec<(String, f64)> = match &traced.self_s {
                Value::Map(entries) => entries
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect(),
                _ => Vec::new(),
            };
            self_s.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (name, s) in self_s {
                eprintln!("[han-benchmark] {} self time {name}: {s:.4} s", w.name());
            }
        }
    } else {
        let t0 = Instant::now();
        let budget = Duration::from_secs(o.seconds);
        let mut setups = Vec::new();
        let mut reps: Vec<ChildOut> = Vec::new();
        let mut rep_s = Vec::new();
        loop {
            let t = Instant::now();
            let Some(c) = absorb(&mut r, spawn_child(w, o, false, false)) else {
                break;
            };
            rep_s.push(t.elapsed().as_secs_f64());
            setups.push(c.setup_s);
            reps.push(c);
            let next = median(&rep_s).unwrap_or(0.0);
            if reps.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + next > budget.as_secs_f64() {
                break;
            }
        }
        while setups.len() < SETUP_SAMPLES && r.correct {
            if let Some(c) = absorb(&mut r, spawn_child(w, o, false, true)) {
                setups.push(c.setup_s);
            }
        }
        let walls: Vec<f64> = reps.iter().filter_map(|c| c.wall_s).collect();
        let rss: Vec<f64> = reps.iter().map(|c| c.peak_rss_mb).collect();
        let sims: Vec<f64> = reps.iter().filter_map(|c| c.sim_latency_us).collect();
        r.attempted += 1;
        if sims.windows(2).any(|p| p[0] != p[1]) {
            r.failed += 1;
            r.notes.push(format!(
                "simulated latency differs between repetitions: {sims:?}"
            ));
        }
        let values = [
            median(&setups),
            median(&walls),
            median(&rss),
            sims.first().copied(),
        ];
        for (m, v) in metrics::END_TO_END.iter().zip(values) {
            r.metrics.push((m.name, m.unit, v.unwrap_or(0.0)));
        }
        eprintln!(
            "[han-benchmark] {}: {} repetition(s), wall {:?} s, set-up {:?} s",
            w.name(),
            walls.len(),
            walls,
            setups
        );
    }
    if r.failed > 0 {
        r.correct = false;
    }
    r
}

/// The checked-out commit, read from `.git` at the repository root
/// ("unknown" outside a git checkout).
fn git_commit() -> String {
    let git = Path::new(REPO_ROOT).join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let head = read(&git.join("HEAD")).unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(&git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(String::from))
            }),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(r: &RunResult, prefix: bool) -> Vec<(String, Value)> {
    r.metrics
        .iter()
        .map(|&(name, unit, v)| {
            let key = if prefix {
                format!("{}/{name}", r.workload.name())
            } else {
                name.to_string()
            };
            let m = Value::Map(vec![
                ("value".into(), Value::Float(v)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (key, m)
        })
        .collect()
}

fn record(r: &RunResult, o: &Opts, commit: &str) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    Value::Map(vec![
        ("workload".into(), Value::Str(r.workload.name().into())),
        ("seed".into(), Value::UInt(o.seed)),
        ("seconds".into(), Value::UInt(o.seconds)),
        ("trace".into(), Value::Bool(o.trace)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("commit".into(), Value::Str(commit.into())),
        ("children".into(), Value::UInt(r.children as u64)),
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::UInt(r.attempted)),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), Value::Map(metrics_json(r, false))),
    ])
}

fn append_record(path: &Path, rec: &Value) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{}",
        serde_json::to_string(rec).expect("record serializes")
    )
}

fn run(args: &[String]) -> i32 {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("han-benchmark: {e}");
            return 2;
        }
    };
    let workloads: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let commit = git_commit();
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.jsonl"));
    let results: Vec<RunResult> = workloads.iter().map(|&w| run_workload(w, &o)).collect();
    for r in &results {
        eprintln!(
            "[han-benchmark] {} ({} children, {}/{} checks failed, seed {}, commit {commit})",
            r.workload.name(),
            r.children,
            r.failed,
            r.attempted,
            o.seed
        );
        for (name, unit, v) in &r.metrics {
            eprintln!("  {name:<40} {v:>16.6} {unit}");
        }
        for n in r.notes.iter().take(10) {
            eprintln!("  FAILED: {n}");
        }
        if let Err(e) = append_record(&out, &record(r, &o, &commit)) {
            eprintln!("han-benchmark: could not append to {}: {e}", out.display());
        }
    }
    let correct = results.iter().all(|r| r.correct);
    let metrics: Vec<(String, Value)> = results
        .iter()
        .flat_map(|r| metrics_json(r, results.len() > 1))
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::UInt(results.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed".into(),
            Value::UInt(results.iter().map(|r| r.failed).sum()),
        ),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    if correct {
        0
    } else {
        1
    }
}

fn child_main(args: &[String]) -> i32 {
    match parse_opts(args) {
        Ok(Opts {
            workload: Some(w),
            seed,
            trace,
            setup_only,
            spawned_at,
            ..
        }) => {
            child::main(w, seed, trace, setup_only, spawned_at);
            0
        }
        Ok(_) => {
            eprintln!("han-benchmark child: --workload is required");
            2
        }
        Err(e) => {
            eprintln!("han-benchmark child: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!(
                "usage: han-benchmark run [--workload W] [--seed S] [--seconds T] \
                 [--trace [0|1]] [--out FILE]\n       han-benchmark compare A.jsonl B.jsonl"
            );
            2
        }
    };
    std::process::exit(code);
}
