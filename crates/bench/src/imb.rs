//! IMB-style collective benchmarking.
//!
//! The paper reports IMB numbers — the maximum completion time across
//! processes — over "small messages up to 128K … and large messages up to
//! 128MB". This harness sweeps any message-size list over any set of MPI
//! stacks on one simulated machine.

use han_colls::stack::{time_coll_on, Coll, MpiStack};
use han_machine::{Machine, MachinePreset};
use han_sim::Time;

/// One sweep row: a message size and each stack's latency. A stack that
/// does not implement the collective contributes `None` — the sweep skips
/// it and keeps the row, rather than aborting the whole comparison.
#[derive(Debug, Clone)]
pub struct ImbRow {
    pub bytes: u64,
    /// `(stack name, latency)` in the order the stacks were given;
    /// `None` marks an unsupported collective for that stack.
    pub results: Vec<(String, Option<Time>)>,
}

impl ImbRow {
    /// Latency of the named stack (`None` if absent or unsupported).
    pub fn of(&self, name: &str) -> Option<Time> {
        self.results
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, t)| *t)
    }

    /// Speedup of `a` over `b` (>1 means `a` is faster).
    pub fn speedup(&self, a: &str, b: &str) -> Option<f64> {
        let (ta, tb) = (self.of(a)?, self.of(b)?);
        Some(tb.as_ps() as f64 / ta.as_ps().max(1) as f64)
    }
}

/// Sweep `coll` over `sizes` for every stack.
pub fn imb_sweep(
    stacks: &[&dyn MpiStack],
    preset: &MachinePreset,
    coll: Coll,
    sizes: &[u64],
) -> Vec<ImbRow> {
    let mut machine = Machine::from_preset(preset);
    sizes
        .iter()
        .map(|&bytes| ImbRow {
            bytes,
            results: stacks
                .iter()
                .map(|s| {
                    (
                        s.name(),
                        time_coll_on(*s, &mut machine, preset, coll, bytes, 0).ok(),
                    )
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::TunedOpenMpi;
    use han_core::{Han, HanConfig};
    use han_machine::mini;

    #[test]
    fn sweep_shape_and_monotonicity() {
        let preset = mini(2, 4);
        let han = Han::with_config(HanConfig::default());
        let stacks: [&dyn MpiStack; 2] = [&han, &TunedOpenMpi];
        let rows = imb_sweep(&stacks, &preset, Coll::Bcast, &[1024, 64 * 1024, 1 << 20]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.results.len(), 2);
            assert!(row.of("HAN").unwrap() > Time::ZERO);
        }
        // Latency grows with message size for every stack.
        for name in ["HAN", "default Open MPI"] {
            let ts: Vec<Time> = rows.iter().map(|r| r.of(name).unwrap()).collect();
            assert!(ts.windows(2).all(|w| w[0] < w[1]), "{name} not monotone");
        }
    }

    #[test]
    fn speedup_direction() {
        let row = ImbRow {
            bytes: 8,
            results: vec![
                ("A".into(), Some(Time::from_us(10))),
                ("B".into(), Some(Time::from_us(20))),
                ("C-unsupported".into(), None),
            ],
        };
        assert_eq!(row.speedup("A", "B"), Some(2.0));
        assert_eq!(row.speedup("B", "A"), Some(0.5));
        assert_eq!(row.speedup("A", "C"), None);
        // An unsupported stack reads as absent, never as a zero latency.
        assert_eq!(row.of("C-unsupported"), None);
        assert_eq!(row.speedup("A", "C-unsupported"), None);
    }
}
