//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while the workload runs and are written out once
//! at exit. Nothing here instruments the program itself: a span covers
//! one public call (a `build_coll`, an `execute`, a `tune_with_opts`…)
//! as seen from the caller.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the untraced run times the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::open`]; spans close innermost
    /// first.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// The spans as JSON records `{name, start, end, parent, workload,
    /// run}`, times in nanoseconds.
    pub fn to_json(&self, workload: &str, run: &str) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start".into(), Value::UInt(s.start_ns)),
                        ("end".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("workload".into(), Value::Str(workload.into())),
                        ("run".into(), Value::Str(run.into())),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) ⊃ build [10,30) and exec [40,90) ⊃ queue [50,60).
        let spans = vec![
            span("run", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("exec", 40, 90, Some(0)),
            span("queue", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["run"] - 30e-9).abs() < 1e-18);
        // Self times add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 60, Some(0)),
        ];
        // Covered: [10,40) ∪ [45,50) = 35 of the root's 40.
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut tr = Tracer::new(true);
        let outer = tr.open("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.span("inner", || ());
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(tr.total_s("inner") >= 0.002);
        assert!(tr.total_s("outer") >= tr.total_s("inner"));
        let json = tr.to_json("w", "r");
        assert_eq!(json[1]["parent"], Value::UInt(0));
        assert_eq!(json[0]["workload"], Value::Str("w".into()));

        let mut off = Tracer::new(false);
        let o = off.open("x");
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
