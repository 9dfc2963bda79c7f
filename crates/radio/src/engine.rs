//! The lock-step execution engine.
//!
//! # Round structure
//!
//! A round costs what is awake, not what exists. With `W` workers, `d`
//! nodes due this round and `T` the transmitters among them, one round
//! costs
//!
//! ```text
//! O(d + W · Σ_{v ∈ T} deg(v) + f · log F)
//! ```
//!
//! where `f` of the `F` far-calendar entries (below) fall due, plus the
//! trace merge's `O(d log d)` sort when a trace is recorded. Nothing in
//! a round scans all `n` nodes or a listener's adjacency row. (With a
//! failure plan installed every node is due every round, so `d = n`
//! there anyway, and while some node is not done the done check also
//! scans the compact per-node done flags for nodes dead next round.)
//!
//! Every round runs in three passes over the node-id cells of the
//! installed [`ShardPlan`] (a single implicit cell unless one is set):
//!
//! 1. **Act** — each cell takes the nodes due this round off its wake
//!    calendar and consults them. `act()` fills flat struct-of-arrays
//!    scratch tables: `tx_on` (transmit channel per id), `listen_on`,
//!    `tx_msg` (the message, stored only for transmitters) and the
//!    worker's list of this round's transmitters.
//! 2. **Deliver** — transmitter-driven: every transmitter walks its own
//!    adjacency row and, for each neighbour listening on its channel
//!    over a live link that loss did not drop, bumps the neighbour's
//!    `rx_count` and sets its `rx_from`. Each consulted node then
//!    meters its energy, applies `on_receive` when it listened and
//!    exactly one transmitter reached it, and files itself under its
//!    next wake round.
//! 3. **Merge** — the workers' buffers (consulted nodes, dropped
//!    receptions, done-count deltas) are serialised into the trace in
//!    canonical global id order and the done counters are aggregated.
//!
//! # Wake calendar
//!
//! Programs may implement [`NodeProgram::next_wake`] to declare the
//! next round they could possibly act in. The engine keeps each node's
//! next consult round in `wake[]` and indexes it with one calendar per
//! cell: a ring of 256 round slots, each the head of an intrusive
//! list threaded through the id-indexed `next` links, plus a min-heap
//! for wakes that lie a full ring or more ahead. A round drains its own
//! slot and pops the heap entries that fell due, so only due nodes are
//! consulted; skipped rounds are credited to the sleep meter in one
//! batch at the next consult (and at run end). Because a skipped node
//! neither transmits, listens nor mutates state, the run is
//! observationally identical to consulting it every round — per
//! Theorem 1 a CFF node is awake O(δ·k + Δ) rounds, so simulation cost
//! tracks *energy*, not `n × rounds`.
//!
//! Programs without hints, and every node while a failure plan is
//! installed (dead rounds must not be mis-credited as sleep), are the
//! "due next round" case of the same calendar. Wakes past
//! `max_rounds` are dropped. Calendar memory is 256 slots per cell,
//! one link per node and one heap entry per far-sleeping node — bounded
//! by `n`, whatever `max_rounds` or the hint distance — and no round
//! allocates once the heaps and the per-worker lists have grown. The
//! calendar is an index over `wake[]`: installing a shard plan rebuilds
//! it from `wake[]` at the next run.
//!
//! # One driver, owner-filtered workers
//!
//! [`Engine::run`] is the only round loop. Cell `c` belongs to worker
//! `c % W`; the calling thread is worker 0 and `W - 1` scoped threads
//! join it behind barriers only when `W > 1`, so the sequential run is
//! the one-worker case of the same loop. In the deliver pass every
//! worker walks every transmitter's row but writes only the listeners
//! of cells it owns, so all writes stay owner-disjoint without atomic
//! read-modify-write; cross-worker reads (`listen_on`, the transmitter
//! lists, `tx_msg`) only touch values frozen by the act barrier. A
//! worker that panics poisons the round barrier, so the others stop
//! waiting and the panic reaches the caller of [`Engine::run`].
//!
//! Delivery is a pure function of the transmit table, graph, failure
//! plan and the stateless per-(seed, link, round) loss hash, so the
//! cell structure and worker count are invisible in every output: the
//! event stream, energy meters and counters are byte-identical across
//! 1 cell, N cells, 1 thread and N threads. A dropped reception keeps
//! the sort key `(to, pos)`, `pos` being the sender's index in the
//! listener's sorted row (a binary search paid only when the drop is
//! traced), so the merge emits link drops in the listener's row order.

use crate::action::Action;
use crate::barrier::{Barrier, Poisoned};
use crate::energy::{EnergyMeter, EnergyReport};
use crate::failure::FailurePlan;
use crate::loss::LossModel;
use crate::shard::ShardPlan;
use crate::trace::{Trace, TraceEvent};
use crate::Round;
use dsnet_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Read-only per-callback context handed to node programs.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx {
    /// The node this callback concerns.
    pub id: NodeId,
    /// Current round, 1-based.
    pub round: Round,
    /// Number of available radio channels `k`.
    pub channels: u8,
}

/// A per-node protocol state machine.
///
/// Programs only see their own callbacks — all coordination must go through
/// transmitted messages, exactly as on real hardware. Collisions are
/// silent: a round in which two neighbours transmit simultaneously is
/// indistinguishable from a round in which nobody did.
pub trait NodeProgram {
    /// Message type carried over the air.
    type Msg: Clone;

    /// Decide this round's action. Called once per round while the node is
    /// alive.
    fn act(&mut self, ctx: &NodeCtx) -> Action<Self::Msg>;

    /// Called when the node was listening and exactly one neighbour
    /// transmitted on its channel. `from` models the sender id carried in
    /// every packet header.
    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, msg: &Self::Msg);

    /// Whether this node considers the protocol locally complete. The run
    /// ends early once every live node is done.
    fn done(&self) -> bool {
        false
    }

    /// Earliest future round in which this node might do anything other
    /// than sleep, given its state after the `now` callbacks. Returning
    /// `Some(w)` promises that every `act()` between `now` and `w`
    /// (exclusive) would return [`Action::Sleep`] *without mutating any
    /// state* — the engine then skips those calls and batch-credits the
    /// sleep meter. `None` (the default) means "consult me every round".
    ///
    /// The hint is consulted again after every callback, so a program
    /// woken early by `on_receive` can shorten its own schedule. Hints
    /// are ignored while a failure plan is installed.
    fn next_wake(&self, now: Round) -> Option<Round> {
        let _ = now;
        None
    }
}

/// Engine settings.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of radio channels `k ≥ 1`.
    pub channels: u8,
    /// Hard round limit (the run fails over to [`StopReason::RoundLimit`]).
    pub max_rounds: Round,
    /// Record a full event trace.
    ///
    /// Defaults to `true` (matching `RunConfig` in `dsnet-protocols`):
    /// collision counts are only measurable from the trace, and a silent
    /// zero from an unrecorded run is worse than the memory cost of
    /// recording. Large sweeps that don't need collision data should
    /// disable it explicitly.
    pub record_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            channels: 1,
            max_rounds: 1_000_000,
            record_trace: true,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every live node reported `done()`.
    AllDone,
    /// `max_rounds` elapsed first.
    RoundLimit,
}

/// Result of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Rounds actually executed.
    pub rounds: Round,
    /// Why the run ended.
    pub stop: StopReason,
}

/// Sentinel in the per-round transmit-channel table: "not transmitting".
/// Valid channels are `< config.channels ≤ 255`, so 255 never collides.
const NO_TX: u8 = u8::MAX;

/// Wake sentinel: never consulted again (no program, or a program whose
/// hint is `Round::MAX`).
const NEVER: Round = Round::MAX;

/// Rounds covered by a calendar's ring. Wakes at least this far ahead
/// wait in the cell's far heap instead.
const RING: usize = 256;

/// End of a calendar list / empty ring slot.
const NIL: u32 = u32::MAX;

/// Cell sentinel for id slots without a program.
const NO_CELL: u32 = u32::MAX;

/// A reception destroyed by channel loss, buffered per worker during
/// the deliver pass. `pos` is the index of `from` in `to`'s sorted
/// adjacency row, so sorting by `(to, pos)` reproduces the order a
/// listener-by-listener row scan would have emitted the drops in.
#[derive(Debug, Clone, Copy)]
struct DropRec {
    to: u32,
    pos: u32,
    from: u32,
}

/// One transmitter of the current round.
#[derive(Debug, Clone, Copy)]
struct TxRec {
    node: u32,
    channel: u8,
}

/// Wake calendar of one cell, an index over `wake[]` for the cell's
/// nodes. Touched only by the worker that owns the cell.
#[derive(Debug)]
struct Calendar {
    /// `ring[r % RING]` heads the list (threaded through the engine's
    /// `next` links) of nodes due in round `r`, for rounds less than
    /// `RING` ahead.
    ring: [u32; RING],
    /// `(wake, node)` for wakes `RING` or more rounds ahead.
    far: BinaryHeap<Reverse<(Round, u32)>>,
}

impl Calendar {
    fn new() -> Self {
        Self {
            ring: [NIL; RING],
            far: BinaryHeap::new(),
        }
    }

    /// File node `i` (whose calendar link is `link`) under round `wake`,
    /// seen from round `now < wake`. Wakes past `horizon` are dropped:
    /// the run ends before they fall due.
    fn file(&mut self, i: u32, link: &mut u32, wake: Round, now: Round, horizon: Round) {
        if wake > horizon {
            return;
        }
        if wake - now < RING as Round {
            let head = &mut self.ring[wake as usize % RING];
            *link = *head;
            *head = i;
        } else {
            self.far.push(Reverse((wake, i)));
        }
    }
}

/// One worker's round scratch, reused across rounds. Written only by
/// its worker; read by the main thread during the merge pass.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Nodes consulted this round.
    active: Vec<u32>,
    /// Dropped receptions at this worker's listeners.
    drops: Vec<DropRec>,
    /// Net change this round to the global not-yet-done count.
    undone_delta: i64,
}

/// Raw views of the per-node struct-of-arrays tables, the cell
/// calendars and the worker scratch, shared by every worker of a run.
/// Each node id belongs to exactly one cell and each cell to exactly one
/// worker, so all writes through these pointers are disjoint; the
/// cross-worker *reads* (`listen_on`, `txs`, `tx_msg`) only target
/// values frozen by the act barrier.
struct Tables<P: NodeProgram> {
    programs: *mut Option<P>,
    meters: *mut EnergyMeter,
    wake: *mut Round,
    next: *mut u32,
    last_acct: *mut Round,
    done_flag: *mut bool,
    tx_on: *mut u8,
    listen_on: *mut u8,
    tx_msg: *mut Option<P::Msg>,
    rx_count: *mut u32,
    rx_from: *mut u32,
    cals: *mut Calendar,
    crew: *mut WorkerScratch,
    /// Per worker: the transmitters its act pass found this round.
    txs: *mut Vec<TxRec>,
}

impl<P: NodeProgram> Clone for Tables<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: NodeProgram> Copy for Tables<P> {}

// SAFETY: every field points into a table the engine owns for the whole
// run. The per-node tables (`programs`, `meters`, `wake`, `next`,
// `last_acct`, `done_flag`, `tx_on`, `listen_on`, `tx_msg`, `rx_count`,
// `rx_from`) and the cell calendars (`cals`) are written only by the
// worker that owns the node's cell, the worker scratch (`crew`, `txs`)
// only by its worker, and the main thread touches any of them only
// while every worker is parked at a barrier. The barriers order each
// cross-worker read (`listen_on`, `txs`, `tx_msg`) after the act-pass
// writes it observes. `P: Send` lets `&mut P` callbacks run on a worker
// thread; `P::Msg: Send + Sync` covers cross-thread `&Msg` reads and
// the final drop of buffered messages on the main thread.
unsafe impl<P: NodeProgram + Send> Send for Tables<P> where P::Msg: Send + Sync {}
unsafe impl<P: NodeProgram + Send> Sync for Tables<P> where P::Msg: Send + Sync {}

/// Shared read-only inputs of a run.
struct PassEnv<'a> {
    graph: &'a Graph,
    /// Cell of every node id ([`NO_CELL`] without a program).
    cell_of: &'a [u32],
    n_cells: usize,
    workers: usize,
    failures: &'a FailurePlan,
    failures_empty: bool,
    loss: LossModel,
    channels: u8,
    /// Last round of the run; later wakes are dropped.
    horizon: Round,
    /// Sleep-skip hints honoured (no failure plan installed).
    hints: bool,
    trace_enabled: bool,
}

/// One worker's share of a round: clear its previous round, act over
/// its cells, wait for every worker's act pass, then deliver to and
/// resolve its own listeners. Fails, skipping the deliver pass, if
/// another worker panicked.
///
/// # Safety
///
/// `t` points into live engine tables sized for `env`, `w < env.workers`,
/// every worker of the round calls this with a distinct `w`, and `sync`
/// is a barrier over exactly those workers.
unsafe fn worker_round<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    w: usize,
    round: Round,
    sync: &Barrier,
) -> Result<(), Poisoned> {
    {
        let ws = &mut *t.crew.add(w);
        let txs = &mut *t.txs.add(w);
        for &iu in &ws.active {
            let i = iu as usize;
            *t.tx_on.add(i) = NO_TX;
            *t.listen_on.add(i) = NO_TX;
        }
        ws.active.clear();
        ws.drops.clear();
        ws.undone_delta = 0;
        txs.clear();
        for c in (w..env.n_cells).step_by(env.workers) {
            pass_act(env, t, &mut *t.cals.add(c), ws, txs, round);
        }
    }
    if env.workers > 1 {
        sync.wait()?;
    }
    pass_deliver(env, t, w, round);
    Ok(())
}

/// Act pass over one cell: take every node due this round off the
/// cell's calendar, consult it and fill the transmit/listen tables.
///
/// # Safety
///
/// As for [`worker_round`]; the caller is the worker owning the cell
/// behind `cal`, and `ws`/`txs` are its own scratch.
unsafe fn pass_act<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    cal: &mut Calendar,
    ws: &mut WorkerScratch,
    txs: &mut Vec<TxRec>,
    round: Round,
) {
    let mut cursor = std::mem::replace(&mut cal.ring[round as usize % RING], NIL);
    loop {
        let iu = if cursor != NIL {
            let iu = cursor;
            cursor = *t.next.add(iu as usize);
            iu
        } else {
            match cal.far.peek() {
                Some(&Reverse((wake, iu))) if wake <= round => {
                    cal.far.pop();
                    iu
                }
                _ => break,
            }
        };
        let i = iu as usize;
        let id = NodeId(iu);
        if !env.failures_empty && env.failures.node_dead(id, round) {
            *t.wake.add(i) = round + 1;
            cal.file(iu, &mut *t.next.add(i), round + 1, round, env.horizon);
            continue;
        }
        if env.hints {
            let last = *t.last_acct.add(i);
            if round > last + 1 {
                // Rounds skipped on a wake hint are, by contract, sleep.
                (*t.meters.add(i)).sleep_rounds += round - last - 1;
            }
        }
        *t.last_acct.add(i) = round;
        let ctx = NodeCtx {
            id,
            round,
            channels: env.channels,
        };
        let program = (*t.programs.add(i)).as_mut();
        let program = program.expect("calendars hold only program-bearing nodes");
        let action = program.act(&ctx);
        match action {
            Action::Transmit { channel, msg } => {
                assert!(
                    channel < env.channels,
                    "node {id} used channel {channel} but only {} exist",
                    env.channels
                );
                *t.tx_on.add(i) = channel;
                *t.tx_msg.add(i) = Some(msg);
                txs.push(TxRec { node: iu, channel });
            }
            Action::Listen { channel } => {
                assert!(
                    channel < env.channels,
                    "node {id} used channel {channel} but only {} exist",
                    env.channels
                );
                *t.listen_on.add(i) = channel;
                *t.rx_count.add(i) = 0;
            }
            Action::Sleep => {}
        }
        ws.active.push(iu);
    }
}

/// Deliver pass of worker `w`: walk every transmitter's row, count
/// receptions at the listeners `w` owns, then resolve the nodes `w`
/// consulted — meter energy, apply clean receptions, refile each under
/// its next wake and refresh its done flag.
///
/// # Safety
///
/// As for [`worker_round`]; every worker's act pass of this round must
/// be complete.
unsafe fn pass_deliver<P: NodeProgram>(env: &PassEnv<'_>, t: Tables<P>, w: usize, round: Round) {
    let ws = &mut *t.crew.add(w);
    for k in 0..env.workers {
        for &TxRec { node, channel } in (*t.txs.add(k)).iter() {
            let v = NodeId(node);
            for &u in env.graph.neighbors(v) {
                let ui = u.index();
                // The flat `listen_on` byte table filters out every
                // neighbour not tuned to this channel before any owner,
                // failure or loss check.
                if *t.listen_on.add(ui) != channel {
                    continue;
                }
                if env.workers > 1 && env.cell_of[ui] as usize % env.workers != w {
                    continue;
                }
                if !env.failures_empty && env.failures.link_dead(u, v, round) {
                    continue;
                }
                if env.loss.dropped(v, u, round) {
                    if env.trace_enabled {
                        let pos = env.graph.neighbors(u).binary_search(&v);
                        let pos = pos.expect("adjacency is symmetric");
                        ws.drops.push(DropRec {
                            to: u.0,
                            pos: pos as u32,
                            from: node,
                        });
                    }
                    continue;
                }
                *t.rx_count.add(ui) += 1;
                *t.rx_from.add(ui) = node;
            }
        }
    }
    for &iu in &ws.active {
        let i = iu as usize;
        let id = NodeId(iu);
        let program = (*t.programs.add(i)).as_mut();
        let program = program.expect("consulted nodes have programs");
        if *t.tx_on.add(i) != NO_TX {
            (*t.meters.add(i)).record_tx(round);
        } else if *t.listen_on.add(i) == NO_TX {
            (*t.meters.add(i)).record_sleep();
        } else {
            (*t.meters.add(i)).record_listen(round);
            if *t.rx_count.add(i) == 1 {
                // Hand the message over by reference straight out of the
                // sender's slot — no per-delivery clone. The slot was
                // filled this round (the sender is on the air) and no act
                // pass runs concurrently with delivery.
                let from = *t.rx_from.add(i);
                let msg = (*t.tx_msg.add(from as usize)).as_ref();
                let msg = msg.expect("the sender transmitted this round");
                let ctx = NodeCtx {
                    id,
                    round,
                    channels: env.channels,
                };
                program.on_receive(&ctx, NodeId(from), msg);
            }
        }
        let wake = match env.hints.then(|| program.next_wake(round)).flatten() {
            Some(w) => w.max(round + 1),
            None => round + 1,
        };
        *t.wake.add(i) = wake;
        let cal = &mut *t.cals.add(env.cell_of[i] as usize);
        cal.file(iu, &mut *t.next.add(i), wake, round, env.horizon);
        let now_done = program.done();
        let flag = &mut *t.done_flag.add(i);
        if now_done != *flag {
            ws.undone_delta += if now_done { -1 } else { 1 };
            *flag = now_done;
        }
    }
}

/// Merge pass (main thread): serialise the workers' buffers into the
/// trace in canonical global id order — per active node either its
/// `Transmit`, or, for listeners, its `LinkDrop`s in adjacency-row
/// order followed by its `Deliver`/`Collision`.
///
/// # Safety
///
/// `t` points into live engine tables with `workers` worker scratch
/// entries, and no worker runs concurrently.
unsafe fn emit_round<P: NodeProgram>(
    t: Tables<P>,
    workers: usize,
    trace: &mut Trace,
    order: &mut Vec<u32>,
    drop_buf: &mut Vec<DropRec>,
    round: Round,
) {
    order.clear();
    drop_buf.clear();
    for w in 0..workers {
        let ws = &*t.crew.add(w);
        order.extend_from_slice(&ws.active);
        drop_buf.extend_from_slice(&ws.drops);
    }
    order.sort_unstable();
    drop_buf.sort_unstable_by_key(|d| (d.to, d.pos));
    let mut next_drop = 0usize;
    for &iu in order.iter() {
        let i = iu as usize;
        let id = NodeId(iu);
        let txc = *t.tx_on.add(i);
        if txc != NO_TX {
            trace.push(TraceEvent::Transmit {
                round,
                node: id,
                channel: txc,
            });
            continue;
        }
        let ch = *t.listen_on.add(i);
        if ch == NO_TX {
            continue;
        }
        while next_drop < drop_buf.len() && drop_buf[next_drop].to == iu {
            trace.push(TraceEvent::LinkDrop {
                round,
                from: NodeId(drop_buf[next_drop].from),
                to: id,
                channel: ch,
            });
            next_drop += 1;
        }
        match *t.rx_count.add(i) {
            0 => {}
            1 => trace.push(TraceEvent::Deliver {
                round,
                from: NodeId(*t.rx_from.add(i)),
                to: id,
                channel: ch,
            }),
            n => trace.push(TraceEvent::Collision {
                round,
                node: id,
                channel: ch,
                transmitters: n,
            }),
        }
    }
}

/// Death/revival notifications (trace only — the network can't observe
/// them), in the id order `set_failures` precomputed.
fn trace_failures(trace: &mut Trace, failures: &FailurePlan, affected: &[NodeId], round: Round) {
    if trace.is_enabled() {
        for &node in affected {
            if failures.dies_at(node, round) {
                trace.push(TraceEvent::NodeDeath { round, node });
            } else if failures.revives_at(node, round) {
                trace.push(TraceEvent::NodeRevive { round, node });
            }
        }
    }
}

/// Lock-step simulator binding one [`NodeProgram`] to each live graph node.
pub struct Engine<'g, P: NodeProgram> {
    graph: &'g Graph,
    config: EngineConfig,
    programs: Vec<Option<P>>,
    meters: Vec<EnergyMeter>,
    failures: FailurePlan,
    /// Cached `failures.is_empty()` — lets the per-node liveness and link
    /// checks skip HashMap probes entirely on the (common) clean runs.
    failures_empty: bool,
    /// Failure-affected nodes in id order, precomputed once per plan so the
    /// round loop never re-collects/re-sorts HashMap keys.
    affected_sorted: Vec<NodeId>,
    loss: LossModel,
    trace: Trace,
    round: Round,
    /// Cell of every program-bearing node id (0 until a plan is set),
    /// [`NO_CELL`] for id slots without a program. Doubles as the
    /// compact "has a program" test, which spares whole-table scans a
    /// walk over the (large) program slots.
    cell_of: Vec<u32>,
    /// Number of cells of the installed plan (1 until set).
    n_cells: usize,
    /// Worker threads requested for [`Engine::run`].
    threads: usize,
    /// Scratch: this round's transmit channel per node id ([`NO_TX`] =
    /// silent).
    tx_on: Vec<u8>,
    /// Scratch: this round's listen channel per node id ([`NO_TX`] = not
    /// listening).
    listen_on: Vec<u8>,
    /// Scratch: in-flight message per *transmitting* node id. Stale slots
    /// of earlier rounds are never read (only this round's transmitters
    /// are ever named by `rx_from`).
    tx_msg: Vec<Option<P::Msg>>,
    /// Scratch: resolved transmitter count / sole sender per listener.
    rx_count: Vec<u32>,
    rx_from: Vec<u32>,
    /// Next round each node must be consulted in ([`NEVER`] = never).
    wake: Vec<Round>,
    /// Calendar links: the node after this one in its calendar list.
    next: Vec<u32>,
    /// Last round accounted in the node's energy meter (sleep batching).
    last_acct: Vec<Round>,
    /// Cached `done()` per node, maintained incrementally.
    done_flag: Vec<bool>,
    /// Number of program-bearing nodes with `done_flag == false`.
    undone: usize,
    /// Per-cell wake calendars; empty until the first run after
    /// construction or a plan install builds them from `wake`.
    cals: Vec<Calendar>,
    /// Per-worker round scratch.
    crew: Vec<WorkerScratch>,
    /// Per-worker transmitters of the current round.
    txs: Vec<Vec<TxRec>>,
    /// Merge-pass scratch (id order / sorted drops).
    order: Vec<u32>,
    drop_buf: Vec<DropRec>,
}

impl<'g, P: NodeProgram> Engine<'g, P> {
    /// Create an engine over `graph`, instantiating a program for every
    /// live node via `make`.
    pub fn new(graph: &'g Graph, config: EngineConfig, mut make: impl FnMut(NodeId) -> P) -> Self {
        assert!(config.channels >= 1, "at least one radio channel required");
        let cap = graph.capacity();
        let mut programs: Vec<Option<P>> = Vec::with_capacity(cap);
        let mut wake = vec![NEVER; cap];
        let mut done_flag = vec![false; cap];
        let mut cell_of = vec![NO_CELL; cap];
        let mut undone = 0usize;
        for i in 0..cap {
            let id = NodeId(i as u32);
            let p = graph.is_live(id).then(|| make(id));
            if let Some(p) = &p {
                wake[i] = 1;
                cell_of[i] = 0;
                done_flag[i] = p.done();
                if !done_flag[i] {
                    undone += 1;
                }
            }
            programs.push(p);
        }
        Self {
            graph,
            config,
            programs,
            meters: vec![EnergyMeter::default(); cap],
            failures: FailurePlan::new(),
            failures_empty: true,
            affected_sorted: Vec::new(),
            loss: LossModel::none(),
            trace: if config.record_trace {
                // Typical runs log a handful of events per node per phase;
                // reserving up-front avoids growth reallocations mid-run.
                Trace::enabled_with_capacity(cap * 4)
            } else {
                Trace::disabled()
            },
            round: 0,
            cell_of,
            n_cells: 1,
            threads: 1,
            tx_on: vec![NO_TX; cap],
            listen_on: vec![NO_TX; cap],
            tx_msg: (0..cap).map(|_| None).collect(),
            rx_count: vec![0; cap],
            rx_from: vec![0; cap],
            wake,
            next: vec![NIL; cap],
            last_acct: vec![0; cap],
            done_flag,
            undone,
            cals: Vec::new(),
            crew: Vec::new(),
            txs: Vec::new(),
            order: Vec::new(),
            drop_buf: Vec::new(),
        }
    }

    /// Install a failure schedule (replaces any previous one).
    pub fn set_failures(&mut self, plan: FailurePlan) {
        self.failures_empty = plan.is_empty();
        self.affected_sorted = plan.affected_nodes().collect();
        // HashMap iteration order is arbitrary; the trace must not be.
        self.affected_sorted.sort_unstable();
        self.failures = plan;
    }

    /// Install a lossy-channel model (replaces any previous one).
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
    }

    /// Install a cell partition and a worker-thread count for
    /// [`Engine::run`]. The plan must cover exactly the program-bearing
    /// node ids; the engine keeps only its per-node cell map. The
    /// partition and thread count are invisible in every output — they
    /// only change *where* each node's round is resolved.
    pub fn set_shards(&mut self, plan: &ShardPlan, threads: usize) {
        let cap = self.cell_of.len();
        let mut cell_of = vec![NO_CELL; cap];
        for (c, cell) in plan.cells().iter().enumerate() {
            for &iu in cell {
                let i = iu as usize;
                assert!(
                    i < cap && self.cell_of[i] != NO_CELL,
                    "shard plan names node {iu} which has no program"
                );
                cell_of[i] = c as u32;
            }
        }
        for (i, (&old, &new)) in self.cell_of.iter().zip(&cell_of).enumerate() {
            assert!(
                (old == NO_CELL) == (new == NO_CELL),
                "shard plan misses live node {i}"
            );
        }
        self.cell_of = cell_of;
        self.n_cells = plan.cell_count().max(1);
        self.threads = threads.max(1);
        // The calendars are per cell: rebuild them from `wake` next run.
        self.cals.clear();
    }

    /// The connectivity graph the engine runs against.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Rounds executed so far.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The (possibly disabled) event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Energy meter of one node.
    pub fn meter(&self, id: NodeId) -> &EnergyMeter {
        &self.meters[id.index()]
    }

    /// Energy report over all nodes that have a program.
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport::from_meters(
            self.meters
                .iter()
                .zip(&self.cell_of)
                .filter(|(_, &c)| c != NO_CELL)
                .map(|(m, _)| m),
        )
    }

    /// Immutable view of a node's program (None for dead-id slots).
    pub fn program(&self, id: NodeId) -> Option<&P> {
        self.programs.get(id.index()).and_then(|p| p.as_ref())
    }

    /// Consume the engine, returning every node's final program state.
    pub fn into_programs(self) -> Vec<Option<P>> {
        self.programs
    }

    /// Consume the engine, returning the trace and every node's final
    /// program state — for callers that need both without cloning the
    /// (possibly large) event log.
    pub fn into_parts(self) -> (Trace, Vec<Option<P>>) {
        (self.trace, self.programs)
    }

    /// Build every cell's calendar from `wake`. Ids are filed in
    /// descending order so each list comes out ascending.
    fn build_calendar(&mut self) {
        self.cals = (0..self.n_cells).map(|_| Calendar::new()).collect();
        let now = self.round;
        for i in (0..self.wake.len()).rev() {
            if self.wake[i] != NEVER {
                let wake = self.wake[i].max(now + 1);
                self.cals[self.cell_of[i] as usize].file(
                    i as u32,
                    &mut self.next[i],
                    wake,
                    now,
                    self.config.max_rounds,
                );
            }
        }
    }

    /// Credit every remaining hinted-away round as sleep, so meters read
    /// identically to a run that consulted each node every round.
    fn flush_sleep(&mut self) {
        if !self.failures_empty {
            return;
        }
        let end = self.round;
        for (i, &cell) in self.cell_of.iter().enumerate() {
            if cell != NO_CELL && end > self.last_acct[i] {
                self.meters[i].sleep_rounds += end - self.last_acct[i];
                self.last_acct[i] = end;
            }
        }
    }

    /// Run until all live nodes are done or the round limit is hit, on
    /// the installed worker count (see [`Engine::set_shards`]). Traces,
    /// meters and outcomes are byte-identical for every worker count and
    /// partition.
    pub fn run(&mut self) -> RunOutcome
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        if self.cals.is_empty() {
            self.build_calendar();
        }
        let n_cells = self.cals.len();
        let workers = self.threads.min(n_cells);
        // Fresh crew: clear the marks of the last round a previous run
        // left behind, then size the per-worker scratch.
        for ws in &mut self.crew {
            for &iu in &ws.active {
                self.tx_on[iu as usize] = NO_TX;
                self.listen_on[iu as usize] = NO_TX;
            }
            ws.active.clear();
        }
        self.crew.resize_with(workers, WorkerScratch::default);
        self.txs.resize_with(workers, Vec::new);
        let t = Tables {
            programs: self.programs.as_mut_ptr(),
            meters: self.meters.as_mut_ptr(),
            wake: self.wake.as_mut_ptr(),
            next: self.next.as_mut_ptr(),
            last_acct: self.last_acct.as_mut_ptr(),
            done_flag: self.done_flag.as_mut_ptr(),
            tx_on: self.tx_on.as_mut_ptr(),
            listen_on: self.listen_on.as_mut_ptr(),
            tx_msg: self.tx_msg.as_mut_ptr(),
            rx_count: self.rx_count.as_mut_ptr(),
            rx_from: self.rx_from.as_mut_ptr(),
            cals: self.cals.as_mut_ptr(),
            crew: self.crew.as_mut_ptr(),
            txs: self.txs.as_mut_ptr(),
        };
        let env = PassEnv {
            graph: self.graph,
            cell_of: &self.cell_of,
            n_cells,
            workers,
            failures: &self.failures,
            failures_empty: self.failures_empty,
            loss: self.loss,
            channels: self.config.channels,
            horizon: self.config.max_rounds,
            hints: self.failures_empty,
            trace_enabled: self.trace.is_enabled(),
        };
        let trace = &mut self.trace;
        let order = &mut self.order;
        let drop_buf = &mut self.drop_buf;
        let affected = &self.affected_sorted;
        let max_rounds = self.config.max_rounds;
        let mut round = self.round;
        let mut undone = self.undone as i64;
        let mut stop = StopReason::RoundLimit;
        // Each round passes the barrier three times (start, after the
        // act pass, end), and only for `workers > 1`: the one-worker
        // run takes the same loop without a synchronisation call. A
        // panicking worker poisons the barrier, the others leave the
        // loop, and the panic is re-raised here on the caller.
        let round_now = AtomicU64::new(round);
        let stop_flag = AtomicBool::new(false);
        let sync = Barrier::new(workers);
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers)
                .map(|w| {
                    let (env, round_now, stop_flag, sync) = (&env, &round_now, &stop_flag, &sync);
                    s.spawn(move || {
                        let _poison = sync.poison_on_panic();
                        while sync.wait().is_ok() && !stop_flag.load(Ordering::Acquire) {
                            let round = round_now.load(Ordering::Acquire);
                            // SAFETY: `t` outlives the scope; this thread is
                            // the only worker `w`, running between the
                            // round's barriers.
                            let acted = unsafe { worker_round(env, t, w, round, sync) };
                            if acted.is_err() || sync.wait().is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            let _poison = (workers > 1).then(|| sync.poison_on_panic());
            while round < max_rounds {
                round += 1;
                trace_failures(trace, env.failures, affected, round);
                if workers > 1 {
                    round_now.store(round, Ordering::Release);
                    if sync.wait().is_err() {
                        break;
                    }
                }
                // SAFETY: the calling thread is worker 0; the helpers run
                // the other worker indices between the same barriers.
                if unsafe { worker_round(&env, t, 0, round, &sync) }.is_err()
                    || (workers > 1 && sync.wait().is_err())
                {
                    break;
                }
                if trace.is_enabled() {
                    // SAFETY: every helper is parked at the next start.
                    unsafe { emit_round(t, workers, trace, order, drop_buf, round) };
                }
                // `done_flag` is exact for every node: a program only
                // changes state while consulted, and each consult
                // refreshes its flag.
                // SAFETY: every helper is parked at the next start.
                let done = unsafe {
                    for w in 0..workers {
                        undone += (*t.crew.add(w)).undone_delta;
                    }
                    // Nodes dead in `round + 1` don't block completion
                    // while they're dark.
                    undone == 0
                        || (!env.failures_empty
                            && (0..env.cell_of.len()).all(|i| {
                                env.cell_of[i] == NO_CELL
                                    || *t.done_flag.add(i)
                                    || env.failures.node_dead(NodeId(i as u32), round + 1)
                            }))
                };
                if done {
                    stop = StopReason::AllDone;
                    break;
                }
            }
            if workers > 1 {
                stop_flag.store(true, Ordering::Release);
                let _ = sync.wait();
            }
            for helper in helpers {
                if let Err(panic) = helper.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        self.round = round;
        self.undone = undone as usize;
        self.flush_sleep();
        RunOutcome {
            rounds: round,
            stop,
        }
    }
}
