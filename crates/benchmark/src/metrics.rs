//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names and units (a unit test keeps the two in step).

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Does `a` read strictly better than `b`?
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by every untraced run, for every workload; medians over the
/// run's child processes.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("sim_latency_geomean", "us-simulated", Lower),
];

/// The catalogue entry called `name`.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Reported by every traced run, for every workload; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("sim.events", "count", Lower),
    m("sim.batched_pop_ratio", "ratio", Higher),
    m("sim.max_queue_depth", "count", Lower),
    m("sim.clamped", "count", Lower),
    m("mpi.exec_s", "s", Lower),
    m("mpi.exec_events_per_s", "1/s", Higher),
    m("mpi.ops", "count", Lower),
    m("colls.build_s", "s", Lower),
    m("colls.build_ns_per_op", "ns", Lower),
    m("colls.template_hit_ratio", "ratio", Higher),
    m("tuner.strategy_s.exhaustive", "s", Lower),
    m("tuner.strategy_s.exhaustive_heuristic", "s", Lower),
    m("tuner.strategy_s.task_based", "s", Lower),
    m("tuner.strategy_s.task_based_heuristic", "s", Lower),
    m("tuner.candidates", "count", Lower),
    m("tuner.simulated", "count", Lower),
    m("tuner.pruned", "count", Higher),
    m("tuner.prune_ratio", "ratio", Higher),
    m("tuner.cache_hit_ratio", "ratio", Higher),
    m("tuner.bound_s", "s", Lower),
    m("tuner.delta_s", "s", Lower),
    m("tuner.delta_hit_ratio", "ratio", Higher),
    m("tuner.replay_coverage", "ratio", Higher),
    m("tuner.retune_s", "s", Lower),
    m("synth.search_s", "s", Lower),
    m("synth.oracle_s", "s", Lower),
    m("synth.candidates", "count", Lower),
    m("synth.simulated", "count", Lower),
    m("synth.pruned", "count", Higher),
    m("synth.beamed", "count", Lower),
    m("synth.front_points", "count", Higher),
    m("synth.strict_wins", "count", Higher),
    m("decide.resolve_ns", "ns", Lower),
    m("serve.server_resolve_ns", "ns", Lower),
    m("serve.wire_share", "ratio", Lower),
    m("serve.client_hit_ns", "ns", Lower),
    m("serve.lookup_p50_us.r2k", "us", Lower),
    m("serve.lookup_p90_us.r2k", "us", Lower),
    m("serve.lookup_p50_us.r12k", "us", Lower),
    m("serve.lookup_p90_us.r12k", "us", Lower),
    m("serve.rtt_p99_us.r12k", "us", Lower),
    m("serve.lookups_per_s", "1/s", Higher),
    m("serve.retune_publish_s", "s", Lower),
    m("serve.server_batches", "count", Lower),
    m("serve.server_lookups", "count", Lower),
    m("serve.generator_late_ms", "ms", Lower),
    m("serve.publish_s", "s", Lower),
    m("trace.wall_s", "s", Lower),
    m("trace.overhead_s", "s", Lower),
    m("trace.coverage", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` must describe exactly the metrics this binary
    /// prints, in the same order, with the same units and directions.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = std::path::Path::new(crate::REPO_ROOT).join("BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc[key].as_array().expect(key);
            let names: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|e| {
                    (
                        e["name"].as_str().unwrap(),
                        e["unit"].as_str().unwrap(),
                        e["better"].as_str().unwrap(),
                    )
                })
                .collect();
            let want: Vec<(&str, &str, &str)> = catalogue
                .iter()
                .map(|m| {
                    let b = match m.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (m.name, m.unit, b)
                })
                .collect();
            assert_eq!(names, want, "{key}");
        }
    }
}
