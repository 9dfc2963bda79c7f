//! `field_50k`: build a density-scaled 50k-node field end to end, then
//! broadcast from the sink with improved CFF on the sharded engine path.
//!
//! Set-up is `NetworkBuilder::build` plus the cold `knowledge()` build.
//! Ops are sink broadcasts over the warm knowledge cache at engine
//! `threads = 1`. Traced passes also rebuild the field from its parts
//! (deploy, unit-disk graph, `McNet::move_in` replay) so each part gets
//! its own span, and check the replay against the builder's stats.

use std::collections::BTreeMap;
use std::time::Instant;

use dsnet::cluster::McNet;
use dsnet::geom::{Deployment, DeploymentConfig};
use dsnet::graph::{unit_disk, NodeId};
use dsnet::protocols::runner::{self, BroadcastOutcome, RunConfig};
use dsnet::radio::StopReason;
use dsnet::{NetworkBuilder, Protocol};

use crate::shape::{counters_to_metrics, Shape};
use crate::stats::{bump, median, Counters};
use crate::trace::{self, Trace};
use crate::{PassResult, Workload};

const NODES: usize = 50_000;
/// Density 5 nodes per unit area, as the perf ledger's scaled fields.
const DENSITY: f64 = 5.0;
/// Broadcasts per pass.
const OPS: usize = 40;
/// Shard cells of the sharded delivery path.
const SHARD_CELLS: usize = 64;

pub struct Field {
    seed: u64,
}

impl Field {
    pub fn new(seed: u64) -> Field {
        Field { seed }
    }

    fn side() -> f64 {
        (NODES as f64 / DENSITY).sqrt()
    }

    /// The builder's steps done one at a time, each in its own span.
    fn replay_in_parts(&self) -> Shape {
        let d = trace::span("geom.deploy", || {
            Deployment::generate(DeploymentConfig::paper_field(
                Self::side(),
                NODES,
                self.seed,
            ))
        });
        let g = trace::span("graph.unit_disk", || unit_disk::graph_of_deployment(&d));
        let mc = trace::span("cluster.replay", || {
            let mut mc = McNet::with_defaults();
            for i in 0..d.len() {
                let u = NodeId(i as u32);
                let earlier: Vec<NodeId> =
                    g.neighbors(u).iter().copied().filter(|&v| v < u).collect();
                mc.move_in(&earlier, &[])
                    .expect("incremental deployments replay");
            }
            mc
        });
        Shape::of(mc.net())
    }
}

fn valid(o: &BroadcastOutcome) -> bool {
    o.delivered == o.targets && o.rounds <= o.bound && o.stop == StopReason::AllDone
}

impl Workload for Field {
    fn pass(&mut self, traced: bool) -> PassResult {
        let mut r = PassResult::default();
        trace::set_op(0);
        let t = Instant::now();
        let net = trace::span("core.build", || {
            NetworkBuilder::paper_field(Self::side(), NODES, self.seed).build()
        })
        .expect("incremental deployments always build");
        trace::span("protocols.knowledge_build", || net.knowledge());
        let cfg = RunConfig {
            record_trace: false,
            shards: Some(net.shard_plan(SHARD_CELLS)),
            threads: 1,
            ..RunConfig::default()
        };
        r.setup_s = t.elapsed().as_secs_f64();

        let shape = Shape::of(net.net());
        if shape != Shape::of_stats(&net.stats()) {
            r.failed += 1;
        }
        if traced && self.replay_in_parts() != shape {
            eprintln!("field_50k: part-by-part replay differs from the builder");
            r.failed += 1;
        }
        shape.count_into(&mut r.counters);

        let sink = net.sink();
        let mut first: Option<(u64, usize, u64)> = None;
        for i in 0..OPS {
            trace::set_op(i as u64 + 1);
            let t = Instant::now();
            let out = if traced {
                let k = trace::span("protocols.knowledge_hit", || net.knowledge());
                trace::span("radio.broadcast", || {
                    runner::run_improved_with(net.net(), &k, sink, &cfg)
                })
            } else {
                net.broadcast_from(Protocol::ImprovedCff, sink, &cfg)
            };
            r.op_ms.push(t.elapsed().as_secs_f64() * 1e3);

            let awake = out.energy.total_tx + out.energy.total_listen;
            let key = (out.rounds, out.delivered, awake);
            if !valid(&out) || *first.get_or_insert(key) != key {
                r.failed += 1;
            }
            bump(&mut r.counters, "radio.rounds", out.rounds as i64);
            bump(&mut r.counters, "radio.delivered", out.delivered as i64);
            bump(&mut r.counters, "radio.targets", out.targets as i64);
            bump(&mut r.counters, "radio.awake_node_rounds", awake as i64);
            r.digest.int(out.rounds as i64);
            r.digest.int(out.delivered as i64);
            r.digest.int(out.energy.max_awake as i64);
            r.digest.int(awake as i64);
        }
        bump(&mut r.counters, "ops", OPS as i64);
        let (hits, misses, _) = net.knowledge_stats();
        bump(&mut r.counters, "protocols.cache_hits", hits as i64);
        bump(&mut r.counters, "protocols.cache_misses", misses as i64);
        trace::set_op(0);
        r
    }

    fn layer_metrics(&self, trace: &Trace, counters: &Counters, m: &mut BTreeMap<String, f64>) {
        counters_to_metrics(counters, m);
        let med = |name: &str| median(&trace.durations_ms(name));
        let (build, deploy, udg, replay) = (
            med("core.build"),
            med("geom.deploy"),
            med("graph.unit_disk"),
            med("cluster.replay"),
        );
        m.insert("core.build_ms".into(), build);
        m.insert("geom.deploy_ms".into(), deploy);
        m.insert("graph.unit_disk_ms".into(), udg);
        m.insert("cluster.replay_ms".into(), replay);
        m.insert("core.build_self_ms".into(), build - deploy - udg - replay);
        m.insert(
            "protocols.knowledge_build_ms".into(),
            med("protocols.knowledge_build"),
        );
        m.insert(
            "protocols.knowledge_hit_us".into(),
            med("protocols.knowledge_hit") * 1e3,
        );
        m.insert("radio.broadcast_ms".into(), med("radio.broadcast"));
        crate::setup_allocs(trace, &["core.build", "protocols.knowledge_build"], m);
    }
}
