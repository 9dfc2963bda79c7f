//! The dsnet benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <field_50k|mobile_10k|serve_mixed|paper_campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *passes* until `--seconds` have gone by (and at least
//! [`MIN_PASSES`] passes ran). A pass sets the workload up from scratch
//! (timed as `setup_s`), then runs its fixed, seed-determined op script
//! (each op timed). Every pass replays the same script, so its exact
//! counters must repeat; every op's output is validated and a mismatch
//! counts as a failed op.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced passes, records spans around the benchmark's calls
//! into each crate during the traced ones, and prints the per-layer
//! metrics: layer self times, the unattributed remainder, and the tracing
//! overhead (traced minus untraced op p50 of the same run). The spans are
//! written to `perfbench/out/` when the run ends.
//!
//! The last stdout line is the JSON result; the line before it carries
//! the exact counters and the run's digest.

mod alloc;
mod campaign;
mod field;
mod mobile;
mod serve;
mod shape;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quantile, Counters, Digest};
use trace::Trace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Passes a run makes at the least: enough for a median set-up time, and
/// in a traced run for two traced and two untraced passes.
const MIN_PASSES: usize = 4;

/// Where traced runs write their spans, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

/// The crates a span can be attributed to.
const LAYERS: &[&str] = &[
    "geom",
    "graph",
    "cluster",
    "protocols",
    "radio",
    "mobility",
    "campaign",
    "codec",
    "netio",
    "server",
    "core",
];

/// Session command kinds the serve workload issues.
pub const KINDS: &[&str] = &[
    "broadcast",
    "multicast",
    "snapshot",
    "mobility",
    "move_in",
    "move_out",
    "kill",
    "repair",
];

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Wall time of the pass's set-up, seconds.
    pub setup_s: f64,
    /// Per-op latency, milliseconds, in op order.
    pub op_ms: Vec<f64>,
    /// Ops whose output failed validation or came back as an error.
    pub failed: u64,
    /// Exact counters of the pass.
    pub counters: Counters,
    /// Digest over the canonical bytes of every op's output.
    pub digest: Digest,
}

/// A benchmark workload: inputs are generated from the seed when it is
/// constructed; each pass sets up and runs the same op script again.
pub trait Workload {
    fn pass(&mut self, traced: bool) -> PassResult;

    /// Workload-specific per-layer metrics from the traced passes' spans
    /// and the first pass's counters.
    fn layer_metrics(&self, trace: &Trace, counters: &Counters, m: &mut BTreeMap<String, f64>);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn make_workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "field_50k" => Box::new(field::Field::new(seed)),
        "mobile_10k" => Box::new(mobile::Mobile::new(seed)),
        "serve_mixed" => Box::new(serve::Serve::new(seed)),
        "paper_campaign" => Box::new(campaign::Campaign::new(seed)),
        _ => return None,
    })
}

/// Peak resident set of this process, MiB (from `/proc/self/status`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(m: &BTreeMap<String, f64>, units: &[(String, &str)]) -> String {
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every per-layer metric, with its unit, in the order `BENCHMARK.json`
/// lists them. A workload that does not exercise a layer reports 0.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for l in LAYERS {
        out.push((format!("{l}.self_ms"), "ms"));
        out.push((format!("{l}.allocs"), "count"));
        out.push((format!("{l}.alloc_bytes"), "B"));
    }
    let fixed: &[(&str, &str)] = &[
        ("unattributed.op_ms", "ms"),
        ("unattributed.share", "ratio"),
        ("trace.overhead_ms", "ms"),
        ("trace.op_p50_ms", "ms"),
        ("trace.untraced_op_p50_ms", "ms"),
        ("setup.allocs", "count"),
        ("setup.alloc_bytes", "B"),
        ("geom.deploy_ms", "ms"),
        ("graph.unit_disk_ms", "ms"),
        ("graph.nodes", "count"),
        ("graph.edges", "count"),
        ("graph.degree_mean", "degree"),
        ("graph.degree_max", "count"),
        ("graph.backbone_degree_max", "count"),
        ("cluster.replay_ms", "ms"),
        ("cluster.backbone_nodes", "count"),
        ("cluster.height", "count"),
        ("cluster.delta_b", "count"),
        ("cluster.delta_l", "count"),
        ("cluster.repair_ms", "ms"),
        ("cluster.slots_ms", "ms"),
        ("cluster.audit_ms", "ms"),
        ("cluster.reconfigs", "count"),
        ("cluster.rehomed", "count"),
        ("cluster.slot_churn", "count"),
        ("cluster.audit_scope", "count"),
        ("protocols.knowledge_build_ms", "ms"),
        ("protocols.knowledge_hit_us", "us"),
        ("protocols.probe_ms", "ms"),
        ("protocols.cache_misses", "count"),
        ("protocols.knowledge_patches", "count"),
        ("protocols.knowledge_fallbacks", "count"),
        ("protocols.knowledge_scope", "count"),
        ("radio.broadcast_ms", "ms"),
        ("radio.rounds", "count"),
        ("radio.delivered", "count"),
        ("radio.awake_node_rounds", "count"),
        ("radio.probe_rounds", "count"),
        ("radio.collisions", "count"),
        ("mobility.step_ms", "ms"),
        ("mobility.diff_ms", "ms"),
        ("mobility.edge_events", "count"),
        ("core.build_ms", "ms"),
        ("core.build_self_ms", "ms"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for k in KINDS {
        out.push((format!("core.session_apply_us.{k}"), "us"));
    }
    for k in KINDS {
        out.push((format!("server.host_apply_us.{k}"), "us"));
    }
    for k in KINDS {
        out.push((format!("server.rtt_us.{k}"), "us"));
    }
    let tail: &[(&str, &str)] = &[
        ("server.cmd_wall_us", "us"),
        ("server.rejected", "count"),
        ("codec.json.encode_us", "us"),
        ("codec.json.decode_us", "us"),
        ("codec.json.req_bytes", "B"),
        ("codec.json.resp_bytes", "B"),
        ("codec.binary.encode_us", "us"),
        ("codec.binary.decode_us", "us"),
        ("codec.binary.req_bytes", "B"),
        ("codec.binary.resp_bytes", "B"),
        ("netio.wire_us", "us"),
        ("campaign.trial_ms", "ms"),
        ("campaign.journal_append_us", "us"),
        ("campaign.engine_us", "us"),
        ("campaign.journal_appends", "count"),
    ];
    out.extend(tail.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

fn end_to_end_units() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("op_p50_ms", "ms"),
        ("op_p90_ms", "ms"),
        ("peak_rss_mb", "MiB"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// Allocations of one set-up: the named set-up spans, summed over the
/// traced passes and divided by their number (one `names[0]` span per
/// pass).
pub fn setup_allocs(trace: &Trace, names: &[&str], m: &mut BTreeMap<String, f64>) {
    let spans = || trace.spans.iter().filter(|s| s.op == 0);
    let passes = spans().filter(|s| s.name == names[0]).count().max(1) as f64;
    let (allocs, bytes) = spans()
        .filter(|s| names.contains(&s.name))
        .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes));
    m.insert("setup.allocs".into(), allocs as f64 / passes);
    m.insert("setup.alloc_bytes".into(), bytes as f64 / passes);
}

fn write_trace(workload: &str, seed: u64, trace: &Trace) {
    let path = format!("{OUT_DIR}/{workload}-seed{seed}.spans.jsonl");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace.render_jsonl()));
    match written {
        Ok(()) => eprintln!("perfbench: wrote {} spans to {path}", trace.spans.len()),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <field_50k|mobile_10k|serve_mixed|paper_campaign> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = make_workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    trace::set_thread(0);

    let start = Instant::now();
    let (mut setup_s, mut op_ms, mut traced_op_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(Counters, Digest)> = None;
    let mut passes = 0usize;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes % 2 == 1;
        trace::set_enabled(traced);
        let r = w.pass(traced);
        trace::set_enabled(false);
        alloc::trim();
        eprintln!(
            "perfbench: pass {passes}{}: set-up {:.4} s, {} ops, op p50 {:.4} ms",
            if traced { " (traced)" } else { "" },
            r.setup_s,
            r.op_ms.len(),
            median(&r.op_ms)
        );
        attempted += r.op_ms.len() as u64;
        failed += r.failed;
        match &first {
            None => first = Some((r.counters, r.digest)),
            Some((c, d)) => {
                if *c != r.counters || *d != r.digest {
                    eprintln!("perfbench: pass {passes} counters or digest differ from pass 0");
                    failed += 1;
                }
            }
        }
        if traced {
            traced_op_ms.extend(r.op_ms);
        } else {
            setup_s.push(r.setup_s);
            op_ms.extend(r.op_ms);
        }
        passes += 1;
    }
    let (counters, digest) = first.expect("at least one pass");

    let rendered: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "counters: {{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{}\", {}}}",
        args.workload,
        args.seed,
        digest.hex(),
        rendered.join(", ")
    );
    eprintln!(
        "perfbench: {} passes, {attempted} ops, {failed} failed, {:.1} s",
        passes,
        start.elapsed().as_secs_f64()
    );

    let metrics = if args.trace {
        let trace = trace::take();
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let n_ops = traced_op_ms.len().max(1) as f64;
        let costs = trace.op_self_costs();
        for (layer, c) in &costs {
            m.insert(format!("{layer}.self_ms"), c.ns as f64 / 1e6 / n_ops);
            m.insert(format!("{layer}.allocs"), c.allocs as f64 / n_ops);
            m.insert(format!("{layer}.alloc_bytes"), c.alloc_bytes as f64 / n_ops);
        }
        // Round trips are timed from the client: their self time holds the
        // reactor, loopback and server-side dispatch and codec, which the
        // benchmark cannot split from outside, so it stays unattributed.
        let op_total_ns: f64 = traced_op_ms.iter().sum::<f64>() * 1e6;
        let wire_ns = costs.get("netio").map_or(0, |c| c.ns) as f64;
        let unattributed = (op_total_ns - trace.op_covered_ns() as f64).max(0.0) + wire_ns;
        m.insert("unattributed.op_ms".into(), unattributed / 1e6 / n_ops);
        m.insert(
            "unattributed.share".into(),
            if op_total_ns > 0.0 {
                unattributed / op_total_ns
            } else {
                0.0
            },
        );
        let (p_traced, p_plain) = (median(&traced_op_ms), median(&op_ms));
        m.insert("trace.op_p50_ms".into(), p_traced);
        m.insert("trace.untraced_op_p50_ms".into(), p_plain);
        m.insert("trace.overhead_ms".into(), p_traced - p_plain);
        w.layer_metrics(&trace, &counters, &mut m);
        write_trace(&args.workload, args.seed, &trace);
        metric(&m, &per_layer_units())
    } else {
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        m.insert("setup_s".into(), median(&setup_s));
        m.insert("op_p50_ms".into(), quantile(&op_ms, 0.5));
        m.insert("op_p90_ms".into(), quantile(&op_ms, 0.9));
        m.insert("peak_rss_mb".into(), peak_rss_mb());
        eprintln!(
            "perfbench: {} set-ups, {} untraced op samples ({} beyond p90)",
            setup_s.len(),
            op_ms.len(),
            op_ms.len() / 10
        );
        metric(&m, &end_to_end_units())
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
