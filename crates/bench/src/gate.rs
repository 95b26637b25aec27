//! Exit-code gating for the `repro` and `hansim` binaries.
//!
//! Sweeps skip-and-report collectives a stack declines
//! ([`han_colls::stack::Unsupported`]) instead of panicking — correct for
//! exploratory runs, but silent in CI: a regression that makes a tuned
//! sweep skip work it used to do would still exit 0. The [`SkipGate`]
//! collects every skip a binary observes, subtracts the explicitly
//! expected ones, and turns the rest (plus any recorded hard failures,
//! e.g. guideline violations) into a nonzero exit code.

use han_colls::stack::Unsupported;
use std::sync::Mutex;

/// Exit code for "the run completed but reported unexpected skips or
/// failures" — distinct from [`USAGE_EXIT_CODE`].
pub const GATE_EXIT_CODE: i32 = 3;

/// Exit code for a bad command line.
pub const USAGE_EXIT_CODE: i32 = 2;

/// Print `msg` and exit with [`USAGE_EXIT_CODE`].
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(USAGE_EXIT_CODE)
}

/// The value `choices` maps `value` of `--flag` to. Any other value is a
/// usage error that lists the accepted ones.
pub fn choose<T: Copy>(flag: &str, value: &str, choices: &[(&str, T)]) -> T {
    match choices.iter().find(|(name, _)| *name == value) {
        Some(&(_, v)) => v,
        None => {
            let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
            usage_error(format!(
                "--{flag} must be one of {}, got '{value}'",
                names.join("|")
            ))
        }
    }
}

/// Collects unexpected [`Unsupported`] skips and other recorded failures.
#[derive(Debug, Default)]
pub struct SkipGate {
    /// `(stack name, collective name)` pairs that are allowed to skip.
    expected: Vec<(String, String)>,
    /// Everything that was not allowed.
    unexpected: Vec<String>,
}

impl SkipGate {
    pub const fn new() -> Self {
        SkipGate {
            expected: Vec::new(),
            unexpected: Vec::new(),
        }
    }

    /// Register an expected skip: `stack` may decline `coll`.
    pub fn allow(&mut self, stack: &str, coll: &str) {
        self.expected.push((stack.to_string(), coll.to_string()));
    }

    /// Record one observed skip; returns `true` if it was unexpected.
    pub fn note(&mut self, skip: &Unsupported) -> bool {
        let expected = self
            .expected
            .iter()
            .any(|(s, c)| *s == skip.stack && c == skip.coll.name());
        if !expected {
            self.unexpected.push(skip.to_string());
        }
        !expected
    }

    /// Record a non-skip failure (e.g. guideline violations) that must
    /// also fail the run.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.unexpected.push(reason.into());
    }

    /// Record an engine's clamped-event count (`EngineStats::clamped`:
    /// events scheduled in the past and snapped to the current virtual
    /// time — always a scheduling bug). Returns `true` if the gate
    /// tripped.
    pub fn note_clamped(&mut self, context: &str, count: u64) -> bool {
        if count == 0 {
            return false;
        }
        self.unexpected.push(format!(
            "{context}: {count} event(s) scheduled in the past were clamped \
             to the current virtual time"
        ));
        true
    }

    pub fn unexpected(&self) -> &[String] {
        &self.unexpected
    }

    /// `0` when clean, [`GATE_EXIT_CODE`] otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.unexpected.is_empty() {
            0
        } else {
            GATE_EXIT_CODE
        }
    }
}

static GATE: Mutex<SkipGate> = Mutex::new(SkipGate::new());

/// Register an expected skip on the process-wide gate.
pub fn allow(stack: &str, coll: &str) {
    GATE.lock().unwrap().allow(stack, coll);
}

/// Record an observed skip on the process-wide gate; returns `true` if it
/// was unexpected.
pub fn note(skip: &Unsupported) -> bool {
    GATE.lock().unwrap().note(skip)
}

/// Record a non-skip failure on the process-wide gate.
pub fn fail(reason: impl Into<String>) {
    GATE.lock().unwrap().fail(reason)
}

/// Record a clamped-event count on the process-wide gate; returns `true`
/// if it tripped.
pub fn note_clamped(context: &str, count: u64) -> bool {
    GATE.lock().unwrap().note_clamped(context, count)
}

/// Print any unexpected entries to stderr and return the exit code the
/// binary must end with.
pub fn finish(binary: &str) -> i32 {
    let gate = GATE.lock().unwrap();
    for u in gate.unexpected() {
        eprintln!("[{binary}] UNEXPECTED: {u}");
    }
    gate.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::stack::Coll;

    fn skip(stack: &str, coll: Coll) -> Unsupported {
        Unsupported {
            stack: stack.to_string(),
            coll,
        }
    }

    #[test]
    fn clean_gate_exits_zero() {
        let g = SkipGate::new();
        assert_eq!(g.exit_code(), 0);
        assert!(g.unexpected().is_empty());
    }

    #[test]
    fn unexpected_skip_trips_the_gate() {
        let mut g = SkipGate::new();
        assert!(g.note(&skip("tuned", Coll::Gather)));
        assert_eq!(g.exit_code(), GATE_EXIT_CODE);
        assert_eq!(g.unexpected().len(), 1);
        assert!(g.unexpected()[0].contains("tuned"));
    }

    #[test]
    fn allowed_skip_passes() {
        let mut g = SkipGate::new();
        g.allow("tuned", "gather");
        assert!(!g.note(&skip("tuned", Coll::Gather)));
        assert_eq!(g.exit_code(), 0);
        // The allowance is exact: a different collective still trips it.
        assert!(g.note(&skip("tuned", Coll::Scatter)));
        assert_eq!(g.exit_code(), GATE_EXIT_CODE);
    }

    #[test]
    fn recorded_failures_trip_the_gate() {
        let mut g = SkipGate::new();
        g.fail("3 guideline violations");
        assert_eq!(g.exit_code(), GATE_EXIT_CODE);
    }

    #[test]
    fn clamped_events_trip_the_gate() {
        let mut g = SkipGate::new();
        assert!(!g.note_clamped("engine", 0));
        assert_eq!(g.exit_code(), 0);
        assert!(g.note_clamped("engine", 7));
        assert_eq!(g.exit_code(), GATE_EXIT_CODE);
        assert!(g.unexpected()[0].contains("7 event(s)"));
    }
}
