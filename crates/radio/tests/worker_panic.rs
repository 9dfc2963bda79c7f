//! A panic inside a node program must reach the caller of
//! [`Engine::run`] at any worker count, not leave the other workers
//! parked at a barrier for ever.
//!
//! Each case runs the engine on its own thread and waits for it with a
//! watchdog, so a regression fails the test instead of hanging the
//! suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use dsnet_graph::{Graph, NodeId};
use dsnet_radio::{Action, Engine, EngineConfig, NodeCtx, NodeProgram, ShardPlan};

/// Listens on channel 0 every round, except the faulty node, which
/// transmits on channel 5 — out of range with one channel, so the
/// engine's channel assert fires inside the faulty node's worker.
struct Node {
    faulty: bool,
}

impl NodeProgram for Node {
    type Msg = u32;
    fn act(&mut self, _ctx: &NodeCtx) -> Action<u32> {
        if self.faulty {
            Action::Transmit { channel: 5, msg: 1 }
        } else {
            Action::Listen { channel: 0 }
        }
    }
    fn on_receive(&mut self, _ctx: &NodeCtx, _from: NodeId, _msg: &u32) {}
    fn done(&self) -> bool {
        false
    }
}

/// Run a 4-node path split into cells {0, 1} (worker 0, the calling
/// thread) and {2, 3} (worker 1, a helper) on 2 threads, with `faulty`
/// misbehaving, and return the panic message `Engine::run` raised.
fn run_expecting_panic(faulty: u32) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        let config = EngineConfig {
            channels: 1,
            max_rounds: 8,
            record_trace: true,
        };
        let mut engine = Engine::new(&g, config, |u| Node {
            faulty: u.0 == faulty,
        });
        let cells = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]];
        engine.set_shards(&ShardPlan::from_cells(cells), 2);
        let result = catch_unwind(AssertUnwindSafe(|| engine.run()));
        let message = match result {
            Ok(outcome) => format!("no panic: {outcome:?}"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        };
        let _ = tx.send(message);
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("Engine::run hung after a worker panicked")
}

#[test]
fn helper_worker_panic_reaches_the_caller() {
    let message = run_expecting_panic(2);
    assert!(
        message.contains("node n2 used channel 5"),
        "unexpected outcome: {message}"
    );
}

#[test]
fn calling_worker_panic_releases_the_helpers() {
    let message = run_expecting_panic(1);
    assert!(
        message.contains("node n1 used channel 5"),
        "unexpected outcome: {message}"
    );
}
