//! Execution tracing: per-op timelines in Chrome trace format.
//!
//! `chrome://tracing` / Perfetto can open the exported JSON, giving the
//! same visual insight into HAN's pipelines that the paper's Fig. 1/5
//! sketches describe — each rank is a "thread", each op a duration event,
//! so `sbib`'s overlapping `ib` and `sb` show up literally side by side.
//!
//! Tracing wraps [`crate::exec::execute`]: it re-derives per-op start
//! times from the dependency-adjusted finish times. Start here means
//! "became ready" (queueing on resources is inside the span), which is
//! the honest picture for pipeline analysis: a span is the time from
//! eligibility to completion.

use crate::exec::{execute, ExecOpts, Report};
use crate::program::{OpId, OpKind, Program};
use han_machine::Machine;
use han_sim::Time;
use std::fmt::Write as _;

/// One traced op span.
#[derive(Debug, Clone)]
pub struct Span {
    pub rank: u32,
    pub name: String,
    pub start: Time,
    pub end: Time,
}

/// A complete execution trace.
#[derive(Debug, Clone)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub makespan: Time,
}

pub(crate) fn op_name(prog: &Program, idx: usize) -> String {
    match &prog.ops[idx].kind {
        OpKind::Nop => "join".into(),
        OpKind::Delay { .. } => "overhead".into(),
        OpKind::Sleep { .. } => "sleep".into(),
        OpKind::Copy { bytes, .. } => format!("copy {bytes}B"),
        OpKind::CrossCopy { from, bytes, .. } => format!("pull {bytes}B from r{from}"),
        OpKind::Reduce { bytes, .. } => format!("reduce {bytes}B"),
        OpKind::ReduceFrom { from, bytes, .. } => format!("reduce {bytes}B from r{from}"),
        OpKind::Send { msg } => {
            let m = prog.msg(*msg);
            format!("send {}B -> r{}", m.bytes, m.dst)
        }
        OpKind::Recv { msg } => {
            let m = prog.msg(*msg);
            format!("recv {}B <- r{}", m.bytes, m.src)
        }
    }
}

/// Execute `prog` and build a trace from the report.
pub fn trace_execution(machine: &mut Machine, prog: &Program, opts: &ExecOpts) -> (Report, Trace) {
    let report = execute(machine, prog, opts);
    // Start of op = max over dependencies' finishes (its readiness time);
    // roots start at the rank's start time.
    let mut spans = Vec::with_capacity(prog.ops.len());
    for (i, op) in prog.ops.iter().enumerate() {
        let id = OpId(i as u32);
        let start = prog
            .deps(id)
            .iter()
            .map(|d| report.finish(*d))
            .max()
            .unwrap_or_else(|| {
                opts.start_times
                    .as_ref()
                    .map(|s| s[op.rank as usize])
                    .unwrap_or(Time::ZERO)
            });
        let end = report.finish(id);
        spans.push(Span {
            rank: op.rank,
            name: op_name(prog, i),
            start,
            end: end.max(start),
        });
    }
    let makespan = report.makespan;
    (report, Trace { spans, makespan })
}

impl Trace {
    /// Spans belonging to one rank, in start order.
    pub fn rank_spans(&self, rank: u32) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.rank == rank).collect();
        v.sort_by_key(|s| s.start);
        v
    }

    /// Total busy (non-degenerate span) time per rank; a cheap utilization
    /// signal for pipeline debugging. Overlapping spans double-count by
    /// design (concurrent `ib`/`sb` is the interesting case).
    pub fn rank_busy(&self, rank: u32) -> Time {
        self.spans
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Serialize as a Chrome trace ("traceEvents" array of complete
    /// events; timestamps in microseconds as the format requires).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if s.end == s.start {
                continue; // zero-length joins only add noise
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{:?},\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.rank,
                s.start.as_us_f64(),
                (s.end - s.start).as_us_f64()
            );
        }
        out.push_str("]}");
        out
    }

    /// Write the Chrome trace to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use han_machine::{mini, Flavor};

    fn run_traced(b: ProgramBuilder) -> Trace {
        let prog = b.build();
        let mut m = Machine::from_preset(&mini(2, 2));
        let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());
        trace_execution(&mut m, &prog, &opts).1
    }

    #[test]
    fn spans_cover_all_ops_and_are_ordered() {
        let mut b = ProgramBuilder::new(4);
        let a = b.delay(0, Time::from_us(2), &[]);
        b.delay(0, Time::from_us(3), &[a]);
        b.send_recv(0, 2, 4096, None, None, &[a], &[]);
        let trace = run_traced(b);
        assert_eq!(trace.spans.len(), 4);
        let r0 = trace.rank_spans(0);
        assert_eq!(r0.len(), 3);
        // The dependent delay starts exactly when its parent finishes.
        assert_eq!(r0[1].start, r0[0].end);
        assert!(trace.makespan >= r0.last().unwrap().end);
    }

    #[test]
    fn chrome_json_shape() {
        let mut b = ProgramBuilder::new(2);
        b.delay(1, Time::from_us(5), &[]);
        let trace = run_traced(b);
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":1"));
        // Valid JSON (serde parse).
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert!(v["traceEvents"].as_array().unwrap().len() == 1);
    }

    #[test]
    fn busy_time_accounts_span_durations() {
        let mut b = ProgramBuilder::new(1);
        b.delay(0, Time::from_us(2), &[]);
        b.sleep(0, Time::from_us(7), &[]);
        let trace = run_traced(b);
        assert_eq!(trace.rank_busy(0), Time::from_us(9));
        assert_eq!(trace.rank_busy(99), Time::ZERO);
    }

    #[test]
    fn pipeline_overlap_visible_in_trace() {
        // Two independent sends from different ranks: spans overlap in
        // time, which is what the trace is for.
        let mut b = ProgramBuilder::new(4);
        b.send_recv(0, 2, 1 << 20, None, None, &[], &[]);
        b.send_recv(1, 3, 1 << 20, None, None, &[], &[]);
        let trace = run_traced(b);
        let s0 = trace.rank_spans(2)[0].clone();
        let s1 = trace.rank_spans(3)[0].clone();
        assert!(s0.start < s1.end && s1.start < s0.end, "spans must overlap");
    }
}
