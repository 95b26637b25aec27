//! Execution tracing: per-op timelines in Chrome trace format.
//!
//! `chrome://tracing` / Perfetto can open the exported JSON, giving the
//! same visual insight into HAN's pipelines that the paper's Fig. 1/5
//! sketches describe — each rank is a "thread", each op a duration event,
//! so `sbib`'s overlapping `ib` and `sb` show up literally side by side.
//!
//! Tracing wraps [`crate::exec::execute`]: it re-derives per-op start
//! times from the finish times with the executor's own release rule
//! (cross-rank dependencies pay the flag latency of the level linking the
//! ranks, and no op starts before its rank's start time). Start here means
//! "became ready" (queueing on resources is inside the span), which is
//! the honest picture for pipeline analysis: a span is the time from
//! eligibility to completion.

use crate::exec::{execute, ExecOpts, Ranks, Report};
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
    match prog.kind(OpId(idx as u32)) {
        OpKind::Nop => "join".into(),
        OpKind::Delay { .. } => "overhead".into(),
        OpKind::Sleep { .. } => "sleep".into(),
        OpKind::Copy { src, .. } => format!("copy {}B", src.len),
        OpKind::CrossCopy { from, src, .. } => format!("pull {}B from r{from}", src.len),
        OpKind::Reduce { src, .. } => format!("reduce {}B", src.len),
        OpKind::ReduceFrom { from, src, .. } => format!("reduce {}B from r{from}", src.len),
        OpKind::Send { msg } => {
            let m = prog.msg(msg);
            format!("send {}B -> r{}", m.bytes, m.dst)
        }
        OpKind::Recv { msg } => {
            let m = prog.msg(msg);
            format!("recv {}B <- r{}", m.bytes, m.src)
        }
    }
}

/// Execute `prog` and build a trace from the report.
pub fn trace_execution(machine: &mut Machine, prog: &Program, opts: &ExecOpts) -> (Report, Trace) {
    let report = execute(machine, prog, opts);
    let mut ranks = Ranks::default();
    ranks.resolve(machine, prog.nranks);
    // Start of op = its readiness time: the latest release by one of its
    // dependencies, floored at the rank's start time.
    let mut spans = Vec::with_capacity(prog.ops.len());
    for (i, op) in prog.ops.iter().enumerate() {
        let id = OpId(i as u32);
        let start = prog
            .deps(id)
            .map(|d| {
                let from = prog.ops[d.0 as usize].rank;
                ranks.release(machine, from, op.rank, report.finish(d))
            })
            .fold(opts.start_time(op.rank), Time::max);
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
        b.signal(0, 2, 4096, &[a], &[]);
        let trace = run_traced(b);
        assert_eq!(trace.spans.len(), 4);
        let r0 = trace.rank_spans(0);
        assert_eq!(r0.len(), 3);
        // The dependent delay starts exactly when its parent finishes.
        assert_eq!(r0[1].start, r0[0].end);
        assert!(trace.makespan >= r0.last().unwrap().end);
    }

    #[test]
    fn span_starts_when_the_executor_readies_the_op() {
        // A 2 us Delay on rank 1 waits for a 1 us Delay on rank 0.
        let mut b = ProgramBuilder::new(2);
        let a = b.delay(0, Time::from_us(1), &[]);
        b.delay(1, Time::from_us(2), &[a]);
        let prog = b.build();
        let mut m = Machine::from_preset(&mini(1, 2));
        let flag = m.node.flag_latency;
        assert_eq!(flag, Time::from_ns(150));
        let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());
        // Without skew the cross-rank dependency pays the flag latency.
        let (_, trace) = trace_execution(&mut m, &prog, &opts);
        let span = &trace.spans[1];
        assert_eq!(span.start, Time::from_us(1) + flag);
        assert_eq!(span.end, span.start + Time::from_us(2));
        // Rank 1 arriving at 10 us starts the Delay then, not when its
        // dependency finished.
        let skewed = opts.with_skew(vec![Time::ZERO, Time::from_us(10)]);
        let (_, trace) = trace_execution(&mut m, &prog, &skewed);
        let span = &trace.spans[1];
        assert_eq!(span.start, Time::from_us(10));
        assert_eq!(span.end, Time::from_us(12));
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
        b.signal(0, 2, 1 << 20, &[], &[]);
        b.signal(1, 3, 1 << 20, &[], &[]);
        let trace = run_traced(b);
        let s0 = trace.rank_spans(2)[0].clone();
        let s1 = trace.rank_spans(3)[0].clone();
        assert!(s0.start < s1.end && s1.start < s0.end, "spans must overlap");
    }
}
