//! `mobile_10k`: 10k-node density-10 fields in which a few pure-member
//! leaves walk at pedestrian speed (sparse, pause-free random waypoint).
//!
//! A pass drives [`FIELDS`] fields in turn, each derived from the seed,
//! so a run averages over several fields and mover sets instead of
//! resting on one. Set-up deploys a field and grows its live structure
//! (`MobileNetwork::new`); the pass's set-up time sums its fields. Ops
//! are `MobileNetwork::step` epochs with a sink broadcast probe every
//! epoch and the default dirty-scoped invariant audit. A step is one
//! call into `dsnet-mobility`; traced passes split it into children from
//! the epoch's own `MaintenanceTimings` (diff, repair, slots, audit,
//! probe).

use std::collections::BTreeMap;
use std::time::Instant;

use dsnet::cluster::NodeStatus;
use dsnet::geom::rng::derive_seed;
use dsnet::geom::{Deployment, DeploymentConfig};
use dsnet::mobility::{
    EpochRecord, MobileNetwork, MobilityConfig, RandomWaypoint, SparseMotion, WaypointParams,
};

use crate::shape::{counters_to_metrics, Shape};
use crate::stats::{bump, median, Counters};
use crate::trace::{self, Trace};
use crate::{PassResult, Workload};

const NODES: usize = 10_000;
const DENSITY: f64 = 10.0;
/// Fields driven per pass.
const FIELDS: usize = 8;
/// Pure-member leaves that move in each field.
const MOVERS: usize = 10;
/// Epochs per field.
const EPOCHS: usize = 13;

/// One field of the pass: its seed and its movers' logical ids, picked
/// from the initial structure's pure members, spread evenly over the
/// arrival order.
struct Scenario {
    seed: u64,
    movers: Vec<usize>,
}

pub struct Mobile {
    scenarios: Vec<Scenario>,
    /// The first pass's epoch records; later passes must repeat them.
    expected: Vec<EpochRecord>,
}

fn deployment(seed: u64) -> Deployment {
    let side = (NODES as f64 / DENSITY).sqrt();
    Deployment::generate(DeploymentConfig::paper_field(side, NODES, seed))
}

fn waypoints(d: &Deployment, seed: u64) -> RandomWaypoint {
    RandomWaypoint::new(
        d.positions.clone(),
        d.config.region,
        WaypointParams {
            v_min: 0.01,
            v_max: 0.03,
            pause_epochs: 0,
        },
        derive_seed(seed, 0x6D0B),
    )
}

impl Mobile {
    pub fn new(seed: u64) -> Mobile {
        let scenarios = (0..FIELDS)
            .map(|j| {
                let seed = derive_seed(seed, 0xF1E1D + j as u64);
                let d = deployment(seed);
                let boot = MobileNetwork::new(&d, Box::new(waypoints(&d, seed)))
                    .expect("incremental deployments arrive connected");
                let members: Vec<usize> = (0..NODES)
                    .filter(|&i| boot.net().status(boot.node_of(i)) == NodeStatus::PureMember)
                    .collect();
                assert!(
                    members.len() >= MOVERS,
                    "field too small for {MOVERS} movers"
                );
                let movers = (0..MOVERS)
                    .map(|k| members[members.len() * (2 * k + 1) / (2 * MOVERS)])
                    .collect();
                Scenario { seed, movers }
            })
            .collect();
        Mobile {
            scenarios,
            expected: Vec::new(),
        }
    }
}

impl Workload for Mobile {
    fn pass(&mut self, _traced: bool) -> PassResult {
        let mut r = PassResult::default();
        let cfg = MobilityConfig {
            broadcast_every: 1,
            ..MobilityConfig::default()
        };
        let first_pass = self.expected.is_empty();
        let mut shape = Shape::default();
        for (j, sc) in self.scenarios.iter().enumerate() {
            trace::set_op(0);
            let t = Instant::now();
            let d = trace::span("geom.deploy", || deployment(sc.seed));
            let model = SparseMotion::new(waypoints(&d, sc.seed), &sc.movers);
            let mut mob = trace::span("mobility.build", || MobileNetwork::new(&d, Box::new(model)))
                .expect("incremental deployments arrive connected");
            r.setup_s += t.elapsed().as_secs_f64();
            shape = shape.merge(Shape::of(mob.net()));

            for e in 0..EPOCHS {
                let op = j * EPOCHS + e;
                trace::set_op(op as u64 + 1);
                let t = Instant::now();
                let step = trace::span("mobility.step", || {
                    let step = mob.step(&cfg);
                    if let Ok(rec) = &step {
                        let tm = &rec.timings;
                        trace::child("mobility.diff", tm.diff_ns);
                        trace::child("cluster.repair", tm.repair_ns);
                        trace::child("cluster.slots", tm.slots_ns);
                        trace::child("cluster.audit", tm.audit_ns);
                        trace::child("protocols.probe", tm.probe_ns);
                    }
                    step
                });
                r.op_ms.push(t.elapsed().as_secs_f64() * 1e3);

                // An audit failure comes back as an error: a failed op.
                let Ok(rec) = step else {
                    r.failed += 1;
                    continue;
                };
                let probe_ok = rec.broadcast.is_some_and(|b| b.completed());
                if first_pass {
                    self.expected.push(rec);
                }
                if !probe_ok || self.expected.get(op) != Some(&rec) {
                    r.failed += 1;
                }
                count_epoch(&rec, &mut r);
            }
        }
        shape.count_into(&mut r.counters);
        bump(&mut r.counters, "ops", (FIELDS * EPOCHS) as i64);
        trace::set_op(0);
        r
    }

    fn layer_metrics(&self, trace: &Trace, counters: &Counters, m: &mut BTreeMap<String, f64>) {
        counters_to_metrics(counters, m);
        let med = |name: &str| median(&trace.durations_ms(name));
        m.insert("geom.deploy_ms".into(), med("geom.deploy"));
        m.insert("mobility.step_ms".into(), med("mobility.step"));
        m.insert("mobility.diff_ms".into(), med("mobility.diff"));
        m.insert("cluster.repair_ms".into(), med("cluster.repair"));
        m.insert("cluster.slots_ms".into(), med("cluster.slots"));
        m.insert("cluster.audit_ms".into(), med("cluster.audit"));
        m.insert("protocols.probe_ms".into(), med("protocols.probe"));
        crate::setup_allocs(trace, &["geom.deploy", "mobility.build"], m);
    }
}

fn count_epoch(rec: &EpochRecord, r: &mut PassResult) {
    let tm = &rec.timings;
    let (rounds, delivered, targets) = rec
        .broadcast
        .map_or((0, 0, 0), |b| (b.rounds, b.delivered, b.targets));
    let pairs = [
        ("mobility.moved", rec.moved as i64),
        (
            "mobility.edge_events",
            (rec.edges_appeared + rec.edges_disappeared) as i64,
        ),
        ("cluster.reconfigs", rec.reconfigs as i64),
        ("cluster.rehomed", rec.rehomed as i64),
        ("cluster.deferred", rec.deferred as i64),
        ("cluster.slot_churn", rec.slot_churn as i64),
        ("cluster.audit_scope", tm.audit_scope as i64),
        ("cluster.full_audits", i64::from(tm.full_audits)),
        ("protocols.cache_hits", tm.cache_hits as i64),
        ("protocols.cache_misses", tm.cache_misses as i64),
        ("protocols.knowledge_patches", tm.knowledge_patches as i64),
        ("protocols.knowledge_scope", tm.knowledge_scope as i64),
        (
            "protocols.knowledge_fallbacks",
            tm.knowledge_fallbacks as i64,
        ),
        ("radio.probe_rounds", rounds as i64),
        ("radio.delivered", delivered as i64),
        ("radio.targets", targets as i64),
    ];
    for (k, v) in pairs {
        bump(&mut r.counters, k, v);
        r.digest.int(v);
    }
    for v in [rec.backbone, rec.height, rec.delta_b, rec.delta_l] {
        r.digest.int(v as i64);
    }
}
