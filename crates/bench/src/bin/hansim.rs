//! hansim — ad-hoc collective exploration on the simulated cluster.
//!
//! ```text
//! hansim --nodes 8 --ppn 32 --coll bcast --bytes 4194304 \
//!        [--stack han|tuned|cray|intel|mvapich2] [--fs 524288]
//!        [--smod sm|solo] [--imod libnbc|adapt] [--alg chain|binary|binomial]
//!        [--machine shaheen2|stampede2|mini] [--trace out.json]
//!        [--levels 8,2,4]
//! ```
//!
//! Prints the virtual latency (and per-stack comparison when `--stack all`),
//! optionally dumping a Chrome trace of the execution for inspection in
//! `chrome://tracing` / Perfetto. In the `--stack all` comparison, a stack
//! that does not implement the requested collective is reported as
//! `unsupported` and skipped; when one stack is requested *explicitly*,
//! an unsupported combination is an error and the process exits with
//! code 3 (see `han_bench::gate`). An unknown flag, or an unknown or
//! malformed flag value, exits with code 2 and names the accepted flags
//! or values.
//!
//! `--levels` replaces the `--nodes`/`--ppn` pair with an explicit
//! level-extent vector, outermost first — e.g. `--levels 8,2,4` simulates
//! 8 nodes of 2 sockets × 4 ranks, with a cross-socket bus derating.

use han_bench::gate::{choose, usage_error};
use han_colls::stack::{build_coll, Coll, MpiStack};
use han_colls::{InterAlg, InterModule, IntraModule, TunedOpenMpi, VendorMpi};
use han_core::{Han, HanConfig};
use han_machine::{mini, shaheen2_ppn, stampede2_ppn, Machine, MachinePreset, Topology};
use han_mpi::{trace_execution, ExecOpts};

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["serve"];
/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "nodes", "ppn", "coll", "bytes", "stack", "fs", "smod", "imod", "alg", "machine", "trace",
    "levels", "addr",
];

fn parse_args() -> std::collections::HashMap<String, String> {
    let mut map = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                map.insert(key.to_string(), "1".to_string());
                continue;
            }
            if !VALUE_FLAGS.contains(&key) {
                let accepted: Vec<&str> = VALUE_FLAGS.iter().chain(BOOL_FLAGS).copied().collect();
                usage_error(format!(
                    "unknown flag --{key}; accepted flags: --{}",
                    accepted.join(" --")
                ));
            }
            let val = args
                .next()
                .unwrap_or_else(|| usage_error(format!("missing value for --{key}")));
            map.insert(key.to_string(), val);
        }
    }
    map
}

/// `hansim --serve [--addr HOST:PORT]`: the tuning daemon. Binds the
/// address, kicks off background re-tunes of the standard presets so the
/// store warms up while already accepting connections, and serves until
/// a client sends `Shutdown` (or the process is killed).
fn run_serve(addr: &str) -> ! {
    let store = std::sync::Arc::new(han_serve::TableStore::new());
    let mut server = match han_serve::serve(addr, std::sync::Arc::clone(&store)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hansim --serve: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    println!("hansim: serving decisions on {}", server.addr());
    for preset in han_verify::standard_presets() {
        let (fp, _worker) = han_serve::spawn_retune(std::sync::Arc::clone(&store), preset);
        println!("hansim: tuning table {fp:016x} in the background");
    }
    server.wait();
    println!("hansim: daemon shut down");
    std::process::exit(0);
}

/// `value` of `--flag` as a number; anything else is a usage error.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        usage_error(format!(
            "--{flag} expects a non-negative integer, got '{value}'"
        ))
    })
}

fn stack_by_name(name: &str, cfg: HanConfig) -> Box<dyn MpiStack> {
    match name {
        "han" => Box::new(Han::with_config(cfg)),
        "tuned" => Box::new(TunedOpenMpi),
        "cray" => Box::new(VendorMpi::cray()),
        "intel" => Box::new(VendorMpi::intel()),
        "mvapich2" => Box::new(VendorMpi::mvapich2()),
        other => usage_error(format!(
            "--stack must be one of all|han|tuned|cray|intel|mvapich2, got '{other}'"
        )),
    }
}

fn main() {
    let args = parse_args();
    if args.contains_key("serve") {
        run_serve(
            &args
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        );
    }
    let get = |k: &str, d: &str| args.get(k).cloned().unwrap_or_else(|| d.to_string());

    let nodes: usize = number("nodes", &get("nodes", "4"));
    let ppn: usize = number("ppn", &get("ppn", "8"));
    let bytes: u64 = number("bytes", &get("bytes", "1048576"));
    let colls = Coll::ALL.map(|c| (c.name(), c));
    let coll = choose("coll", &get("coll", "bcast"), &colls);
    let mut preset: MachinePreset = match get("machine", "mini").as_str() {
        "mini" => mini(nodes, ppn),
        "shaheen2" => shaheen2_ppn(nodes, ppn),
        "stampede2" => stampede2_ppn(nodes, ppn),
        other => usage_error(format!(
            "--machine must be one of mini|shaheen2|stampede2, got '{other}'"
        )),
    };
    if let Some(spec) = args.get("levels") {
        let extents: Vec<usize> = spec
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    usage_error(format!(
                        "--levels expects comma-separated extents, got '{spec}'"
                    ))
                })
            })
            .collect();
        preset.topology = Topology::from_levels(&extents);
        if preset.topology.depth() > 2 && preset.node.xsocket_bus_factor <= 1.0 {
            // Make the extra level observable: cross-domain transfers pay
            // a QPI-like derating unless the preset already sets one.
            preset.node.xsocket_bus_factor = 1.5;
        }
    }

    let mut cfg = HanConfig::default();
    if let Some(fs) = args.get("fs") {
        cfg.fs = number("fs", fs);
    }
    if let Some(s) = args.get("smod") {
        let smods = [("sm", IntraModule::Sm), ("solo", IntraModule::Solo)];
        cfg.smod = choose("smod", s, &smods);
    }
    if let Some(s) = args.get("imod") {
        let imods = [
            ("adapt", InterModule::Adapt),
            ("libnbc", InterModule::Libnbc),
        ];
        cfg.imod = choose("imod", s, &imods);
    }
    if let Some(a) = args.get("alg") {
        let algs = [
            ("chain", InterAlg::Chain),
            ("binary", InterAlg::Binary),
            ("binomial", InterAlg::Binomial),
        ];
        let alg = choose("alg", a, &algs);
        cfg.ibalg = alg;
        cfg.iralg = alg;
    }

    let which = get("stack", "all");
    let names: Vec<&str> = if which == "all" {
        vec!["han", "tuned", "cray", "intel", "mvapich2"]
    } else {
        vec![which.as_str()]
    };

    println!(
        "{} on {} (levels {:?} = {} ranks), {} bytes",
        coll.name(),
        preset.name,
        preset.topology.levels(),
        preset.topology.world_size(),
        bytes
    );
    println!("HAN config: {cfg}\n");
    for name in names {
        let stack = stack_by_name(name, cfg);
        let prog = match build_coll(stack.as_ref(), &preset, coll, bytes, 0) {
            Ok(p) => p,
            Err(e) => {
                println!("{:>18}: unsupported ({e})", stack.name());
                // Skips are expected when comparing `all` stacks, but an
                // explicitly requested stack that cannot run the
                // requested collective must fail the invocation.
                if which != "all" {
                    han_bench::gate::note(&e);
                }
                continue;
            }
        };
        let mut machine = Machine::from_preset(&preset);
        let opts = ExecOpts::timing(stack.flavor().p2p());
        let (report, trace) = trace_execution(&mut machine, &prog, &opts);
        println!(
            "{:>18}: {:>12}  ({} ops, {} events)",
            stack.name(),
            report.makespan.to_string(),
            prog.len(),
            report.events
        );
        println!(
            "{:>18}  engine: {} pushes / {} pops ({} batched, max burst {}), \
             max queue depth {}",
            "",
            report.engine.pushes,
            report.engine.pops,
            report.engine.batched_pops,
            report.engine.max_batch,
            report.engine.max_depth
        );
        if report.engine.clamped > 0 {
            eprintln!(
                "{:>18}  WARNING: {} event(s) scheduled in the past were clamped \
                 to the current virtual time",
                "", report.engine.clamped
            );
            han_bench::gate::note_clamped(
                &format!("{} engine", stack.name()),
                report.engine.clamped,
            );
        }
        if let Some(path) = args.get("trace") {
            let p = if which == "all" {
                format!("{name}_{path}")
            } else {
                path.clone()
            };
            trace.save(std::path::Path::new(&p)).expect("write trace");
            println!("{:>18}  trace written to {p}", "");
        }
    }
    let code = han_bench::gate::finish("hansim");
    if code != 0 {
        std::process::exit(code);
    }
}
