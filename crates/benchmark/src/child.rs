//! The child side: one cold process runs one repetition of one workload
//! and reports it as a single JSON line on stdout.
//!
//! Set-up time is measured from the moment the parent spawned this
//! process (passed in as wall-clock nanoseconds) to the first timed
//! operation, so it includes process start as a user pays it.

use crate::trace::{self_time_by_name, Tracer};
use crate::Workload;
use han_sim::EngineStats;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One measured repetition.
pub struct Rep {
    /// Host seconds of the timed operation.
    pub wall_s: f64,
    /// Geometric mean, in simulated microseconds, of the collective
    /// latencies the workload produced.
    pub sim_latency_us: f64,
}

/// Most failure messages a child reports (the count is always exact).
const MAX_FAILURE_NOTES: usize = 20;

/// Per-process state handed to a workload.
pub struct Child {
    pub seed: u64,
    pub tracer: Tracer,
    setup_only: bool,
    spawned_unix_ns: u128,
    setup_s: Option<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
}

impl Child {
    fn new(seed: u64, traced: bool, setup_only: bool, spawned_unix_ns: u128) -> Self {
        Child {
            seed,
            tracer: Tracer::new(traced),
            setup_only,
            spawned_unix_ns,
            setup_s: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// End of set-up: records its duration and returns the start of the
    /// timed operation, or `None` when this child only measures set-up.
    pub fn setup_done(&mut self) -> Option<Instant> {
        let since_spawn = crate::unix_ns().saturating_sub(self.spawned_unix_ns);
        self.setup_s = Some(since_spawn as f64 / 1e9);
        (!self.setup_only).then(Instant::now)
    }

    /// Count one output check; a failing one is noted with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(what());
            }
        }
    }

    /// Record a per-layer metric (traced runs report these).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer catalogue"
        );
        self.layers.insert(name, value);
    }

    /// Record the `sim.*` metrics from an engine-totals delta and check
    /// that no event was clamped (a simulator bug).
    pub fn engine(&mut self, before: &EngineStats, after: &EngineStats) {
        let pops = after.pops - before.pops;
        let clamped = after.clamped - before.clamped;
        self.check(clamped == 0, || format!("{clamped} event(s) clamped"));
        self.layer("sim.events", pops as f64);
        self.layer(
            "sim.batched_pop_ratio",
            ratio(after.batched_pops - before.batched_pops, pops),
        );
        self.layer("sim.max_queue_depth", after.max_depth as f64);
        self.layer("sim.clamped", clamped as f64);
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Child entry point: run, then print the report line.
pub fn main(w: Workload, seed: u64, traced: bool, setup_only: bool, spawned: u128) {
    let mut cx = Child::new(seed, traced, setup_only, spawned);
    let rep = w.run(&mut cx);
    let self_s = self_time_by_name(cx.tracer.spans());
    if rep.is_some() && traced {
        // Share of the workload's root span that its layer spans cover.
        let root = cx.tracer.total_s(w.name());
        let uncovered = self_s.get(w.name()).copied().unwrap_or(root);
        cx.layer(
            "trace.coverage",
            if root > 0.0 {
                1.0 - uncovered / root
            } else {
                0.0
            },
        );
    }
    let mut out = vec![
        (
            "setup_s".to_string(),
            Value::Float(cx.setup_s.unwrap_or(0.0)),
        ),
        ("peak_rss_mb".to_string(), Value::Float(peak_rss_mb())),
        ("attempted".to_string(), Value::UInt(cx.attempted)),
        ("failed".to_string(), Value::UInt(cx.failed)),
        (
            "failures".to_string(),
            Value::Seq(cx.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if let Some(rep) = rep {
        out.push(("wall_s".into(), Value::Float(rep.wall_s)));
        out.push(("sim_latency_us".into(), Value::Float(rep.sim_latency_us)));
    }
    if traced {
        let layers = cx
            .layers
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Float(*v)))
            .collect();
        out.push(("layers".into(), Value::Map(layers)));
        let self_s = self_s
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Float(v)))
            .collect();
        out.push(("self_s".into(), Value::Map(self_s)));
        let path = crate::out_dir().join(format!("spans-{}-seed{seed}.json", w.name()));
        let spans = cx.tracer.to_json(w.name(), &format!("seed{seed}"));
        let written = std::fs::create_dir_all(crate::out_dir()).and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string(&spans).expect("spans serialize"),
            )
        });
        if let Err(e) = written {
            eprintln!("[han-benchmark] could not write {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Map(out)).expect("report serializes")
    );
}
