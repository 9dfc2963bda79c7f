//! An independent oracle for the production engine.
//!
//! `reference_run` below is the radio model written the plain way: every
//! round it consults every live program, and every listener pulls over
//! its own adjacency row, counting the neighbours that transmit on its
//! channel. It has no wake calendar, no sleep batching, no cells, no
//! workers and no transmitter-driven delivery. The property test runs
//! it beside the production [`Engine`] — unsharded, and over random
//! partitions on 1, 2 and 3 worker threads — and requires the same
//! event stream, energy meters, final program states and outcome.
//!
//! The scripted programs give truthful `next_wake` hints (on a random
//! subset of nodes), finish via `done()` once they have heard a quota
//! of messages, schedule a relay transmission when they first hear
//! something (so a hint shortened by `on_receive` is exercised), and
//! may hold one late action past the calendar ring, which the engine
//! files in its far heap. Runs cover k ∈ {1, 2, 3} channels, traced
//! channel loss (so the `LinkDrop` order is checked), node and link
//! failure plans, and round limits below and beyond the late actions.

use dsnet_graph::{Graph, NodeId};
use dsnet_radio::{
    Action, Channel, EnergyMeter, Engine, EngineConfig, FailurePlan, LossModel, NodeCtx,
    NodeProgram, Round, RunOutcome, ShardPlan, StopReason, TraceEvent,
};
use proptest::prelude::*;

const ROUNDS: usize = 10;
const SIDE: f64 = 10.0;
const RANGE: f64 = 3.5;
/// Late actions land at `LATE_BASE + x`, on both sides of the engine's
/// 256-round calendar ring.
const LATE_BASE: Round = 200;

#[derive(Debug, Clone, PartialEq)]
struct Scripted {
    script: Vec<Action<u32>>,
    /// One optional action far in the future.
    late: Option<(Round, Action<u32>)>,
    /// Relay transmission scheduled by the first reception.
    relay: Option<Round>,
    channels: u8,
    heard: Vec<(Round, NodeId, u32)>,
    /// Non-sleep actions taken; sleeping rounds must not mutate state.
    awake_acts: u32,
    /// `done()` once this many messages were heard.
    quota: usize,
    hints: bool,
}

impl Scripted {
    fn action_at(&self, round: Round) -> Action<u32> {
        if self.relay == Some(round) {
            return Action::Transmit {
                channel: (round % self.channels as Round) as Channel,
                msg: 900_000 + round as u32,
            };
        }
        if let Some((at, a)) = &self.late {
            if *at == round {
                return a.clone();
            }
        }
        self.script
            .get(round as usize - 1)
            .cloned()
            .unwrap_or(Action::Sleep)
    }
}

impl NodeProgram for Scripted {
    type Msg = u32;

    fn act(&mut self, ctx: &NodeCtx) -> Action<u32> {
        let a = self.action_at(ctx.round);
        if !matches!(a, Action::Sleep) {
            self.awake_acts += 1;
        }
        a
    }

    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, msg: &u32) {
        self.heard.push((ctx.round, from, *msg));
        if self.relay.is_none() {
            self.relay = Some(ctx.round + 2);
        }
    }

    fn done(&self) -> bool {
        self.heard.len() >= self.quota
    }

    fn next_wake(&self, now: Round) -> Option<Round> {
        if !self.hints {
            return None;
        }
        let mut wake = (now + 1..=ROUNDS as Round)
            .find(|&r| !matches!(self.action_at(r), Action::Sleep))
            .unwrap_or(Round::MAX);
        for r in [self.relay, self.late.as_ref().map(|l| l.0)]
            .into_iter()
            .flatten()
        {
            if r > now {
                wake = wake.min(r);
            }
        }
        Some(wake)
    }
}

/// Raw script entry: 0 = sleep, 1..=2 transmit, 3..=4 listen.
fn decode(raw: u8, node: u32, round: usize, channels: u8) -> Action<u32> {
    match raw % 5 {
        0 => Action::Sleep,
        1 | 2 => Action::Transmit {
            channel: (raw / 5) % channels,
            msg: node * 1000 + round as u32,
        },
        _ => Action::Listen {
            channel: (raw / 5) % channels,
        },
    }
}

fn unit_disk(points: &[(f64, f64)]) -> Graph {
    let n = points.len();
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
            if (dx * dx + dy * dy).sqrt() <= RANGE {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    g
}

#[derive(Debug, PartialEq)]
struct RunResult {
    outcome: RunOutcome,
    events: Vec<TraceEvent>,
    meters: Vec<EnergyMeter>,
    programs: Vec<Option<Scripted>>,
}

/// The naive model: consult everyone every round, listeners pull.
fn reference_run(
    g: &Graph,
    mut programs: Vec<Option<Scripted>>,
    channels: u8,
    max_rounds: Round,
    loss: LossModel,
    failures: &FailurePlan,
) -> RunResult {
    let n = g.capacity();
    let mut meters = vec![EnergyMeter::default(); n];
    let mut events = Vec::new();
    let mut outcome = RunOutcome {
        rounds: max_rounds,
        stop: StopReason::RoundLimit,
    };
    for round in 1..=max_rounds {
        for i in 0..n {
            let node = NodeId(i as u32);
            if failures.dies_at(node, round) {
                events.push(TraceEvent::NodeDeath { round, node });
            } else if failures.revives_at(node, round) {
                events.push(TraceEvent::NodeRevive { round, node });
            }
        }
        let actions: Vec<Option<Action<u32>>> = (0..n)
            .map(|i| {
                let id = NodeId(i as u32);
                let p = programs[i].as_mut()?;
                if failures.node_dead(id, round) {
                    return None;
                }
                Some(p.act(&NodeCtx {
                    id,
                    round,
                    channels,
                }))
            })
            .collect();
        for i in 0..n {
            let id = NodeId(i as u32);
            let ch = match &actions[i] {
                None => continue,
                Some(Action::Sleep) => {
                    meters[i].record_sleep();
                    continue;
                }
                Some(Action::Transmit { channel, .. }) => {
                    meters[i].record_tx(round);
                    events.push(TraceEvent::Transmit {
                        round,
                        node: id,
                        channel: *channel,
                    });
                    continue;
                }
                Some(Action::Listen { channel }) => *channel,
            };
            meters[i].record_listen(round);
            let mut heard = Vec::new();
            for &v in g.neighbors(id) {
                let Some(Action::Transmit { channel, msg }) = &actions[v.index()] else {
                    continue;
                };
                if *channel != ch || failures.link_dead(id, v, round) {
                    continue;
                }
                if loss.dropped(v, id, round) {
                    events.push(TraceEvent::LinkDrop {
                        round,
                        from: v,
                        to: id,
                        channel: ch,
                    });
                    continue;
                }
                heard.push((v, *msg));
            }
            match heard.as_slice() {
                [] => {}
                [(from, msg)] => {
                    events.push(TraceEvent::Deliver {
                        round,
                        from: *from,
                        to: id,
                        channel: ch,
                    });
                    let ctx = NodeCtx {
                        id,
                        round,
                        channels,
                    };
                    programs[i].as_mut().unwrap().on_receive(&ctx, *from, msg);
                }
                many => events.push(TraceEvent::Collision {
                    round,
                    node: id,
                    channel: ch,
                    transmitters: many.len() as u32,
                }),
            }
        }
        // Nodes dead in the next round don't block completion.
        let done = programs.iter().enumerate().all(|(i, p)| {
            p.as_ref()
                .is_none_or(|p| p.done() || failures.node_dead(NodeId(i as u32), round + 1))
        });
        if done {
            outcome = RunOutcome {
                rounds: round,
                stop: StopReason::AllDone,
            };
            break;
        }
    }
    RunResult {
        outcome,
        events,
        meters,
        programs,
    }
}

fn engine_run(
    g: &Graph,
    programs: &[Option<Scripted>],
    channels: u8,
    max_rounds: Round,
    loss: LossModel,
    failures: &FailurePlan,
    shards: Option<(&ShardPlan, usize)>,
) -> RunResult {
    let config = EngineConfig {
        channels,
        max_rounds,
        record_trace: true,
    };
    let mut engine = Engine::new(g, config, |u| programs[u.index()].clone().unwrap());
    engine.set_loss(loss);
    engine.set_failures(failures.clone());
    if let Some((plan, threads)) = shards {
        engine.set_shards(plan, threads);
    }
    let outcome = engine.run();
    let meters = (0..g.capacity())
        .map(|i| *engine.meter(NodeId(i as u32)))
        .collect();
    let (trace, programs) = engine.into_parts();
    RunResult {
        outcome,
        events: trace.events().to_vec(),
        meters,
        programs,
    }
}

fn assert_same(label: &str, want: &RunResult, got: &RunResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.outcome, got.outcome, "{}: outcome diverged", label);
    prop_assert_eq!(
        &want.events,
        &got.events,
        "{}: event stream diverged",
        label
    );
    prop_assert_eq!(
        &want.meters,
        &got.meters,
        "{}: energy meters diverged",
        label
    );
    prop_assert_eq!(
        &want.programs,
        &got.programs,
        "{}: program states diverged",
        label
    );
    Ok(())
}

type FailureOp = (u8, u8, u8, Round, Round);

fn failure_plan(ops: &[FailureOp], n: usize) -> FailurePlan {
    let mut plan = FailurePlan::new();
    for &(kind, a, b, at, len) in ops {
        let (a, b) = (NodeId(a as u32 % n as u32), NodeId(b as u32 % n as u32));
        match kind % 3 {
            0 => plan.kill_node_for(a, at, len),
            1 => plan.kill_node(a, at),
            _ => plan.kill_link(a, b, at),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_naive_reference(
        points in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 3..20),
        scripts in prop::collection::vec(prop::collection::vec(any::<u8>(), ROUNDS), 3..20),
        late in prop::collection::vec((any::<bool>(), 0u64..120, any::<u8>()), 20),
        quotas in prop::collection::vec(0usize..4, 20),
        hinted in prop::collection::vec(any::<bool>(), 20),
        channels in 1u8..=3,
        long_run in any::<bool>(),
        loss_sel in 0u8..3,
        loss_seed in any::<u64>(),
        failure_ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), 1u64..(ROUNDS as u64), 1u64..4),
            0..3,
        ),
        cells in 1usize..5,
        assign in prop::collection::vec(any::<u8>(), 20),
    ) {
        let n = points.len();
        let g = unit_disk(&points);
        // Short runs stop between the script and the late actions, so
        // late wakes lie past the horizon; long runs reach them.
        let max_rounds = if long_run { LATE_BASE + 130 } else { ROUNDS as Round + 3 };
        let programs: Vec<Option<Scripted>> = (0..n)
            .map(|i| {
                let script = &scripts[i % scripts.len()];
                Some(Scripted {
                    script: (0..ROUNDS)
                        .map(|r| decode(script[r], i as u32, r, channels))
                        .collect(),
                    late: late[i].0.then(|| {
                        let at = LATE_BASE + late[i].1;
                        (at, decode(late[i].2, i as u32, at as usize, channels))
                    }),
                    relay: None,
                    channels,
                    heard: Vec::new(),
                    awake_acts: 0,
                    // Quota 0 would be done before the first round.
                    quota: if quotas[i] == 0 { usize::MAX } else { quotas[i] },
                    hints: hinted[i],
                })
            })
            .collect();
        let loss = LossModel::from_ppm([0u32, 150_000, 400_000][loss_sel as usize], loss_seed);
        let failures = failure_plan(&failure_ops, n);

        let want = reference_run(&g, programs.clone(), channels, max_rounds, loss, &failures);
        let got = engine_run(&g, &programs, channels, max_rounds, loss, &failures, None);
        assert_same("unsharded", &want, &got)?;

        // A random partition padded with an empty cell.
        let mut partition: Vec<Vec<NodeId>> = vec![Vec::new(); cells + 1];
        for i in 0..n {
            partition[assign[i] as usize % cells].push(NodeId(i as u32));
        }
        let plan = ShardPlan::from_cells(partition);
        for threads in [1usize, 2, 3] {
            let got = engine_run(
                &g, &programs, channels, max_rounds, loss, &failures, Some((&plan, threads)),
            );
            assert_same(&format!("{cells} cells, {threads} thread(s)"), &want, &got)?;
        }
    }
}
