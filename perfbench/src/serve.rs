//! `serve_mixed`: an in-process reactor daemon on loopback TCP with one
//! shard, hosting many small tenants, driven by a closed loop over two
//! client connections.
//!
//! Each connection owns half of the tenants, so every tenant's counters
//! are independent of how the two interleave. One connection speaks JSON
//! frames, the other negotiates binary. The command mix per tenant is
//! half radio reads (broadcast, multicast), a quarter `Snapshot` reads
//! of the knowledge cache and a quarter writes (mobility epochs,
//! move-in, move-out, kill then repair).
//!
//! The script is generated from the seed against a library-direct
//! `NetSession` per tenant, which also yields the expected record of
//! every command: each reply must equal it, timing stripped.
//!
//! Set-up starts the daemon, connects, negotiates and creates every
//! tenant. The client encodes and decodes frames itself so the traced
//! passes can time the codec apart from the round trip.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Instant;

use dsnet::cluster::repair::RepairConfig;
use dsnet::geom::rng::{derive_seed, rng_from_seed, Rng};
use dsnet::geom::Point2;
use dsnet::graph::NodeId;
use dsnet::{CommandRecord, CommandStatus, NetSession, Protocol, SessionCommand, SessionSpec};
use dsnet_server::json::Json;
use dsnet_server::protocol::{
    decode_response_bytes, encode_request_bytes, read_frame_bytes, write_frame_bytes, Body,
    FrameFormat, Op, Request,
};
use dsnet_server::{Host, HostConfig, ServeOptions, Server};
use rand::Rng as _;

use crate::shape::{counters_to_metrics, Shape};
use crate::stats::{bump, median, Counters, Digest};
use crate::trace::{self, Trace};
use crate::{PassResult, Workload, KINDS};

const TENANTS: usize = 200;
const NODES_PER_TENANT: usize = 200;
const GROUPS: u16 = 2;
/// Commands per tenant: three cycles of eight.
const SCRIPT_LEN: usize = 24;
/// Client connections (each driven by its own thread).
const CONNECTIONS: usize = 2;
const FIELD_MILLI: u32 = 10_000;

/// Span names per command kind, indexed like [`KINDS`].
const RTT_SPANS: [&str; 8] = [
    "netio.rtt.broadcast",
    "netio.rtt.multicast",
    "netio.rtt.snapshot",
    "netio.rtt.mobility",
    "netio.rtt.move_in",
    "netio.rtt.move_out",
    "netio.rtt.kill",
    "netio.rtt.repair",
];
const HOST_SPANS: [&str; 8] = [
    "server.host_apply.broadcast",
    "server.host_apply.multicast",
    "server.host_apply.snapshot",
    "server.host_apply.mobility",
    "server.host_apply.move_in",
    "server.host_apply.move_out",
    "server.host_apply.kill",
    "server.host_apply.repair",
];
const SESSION_SPANS: [&str; 8] = [
    "core.session_apply.broadcast",
    "core.session_apply.multicast",
    "core.session_apply.snapshot",
    "core.session_apply.mobility",
    "core.session_apply.move_in",
    "core.session_apply.move_out",
    "core.session_apply.kill",
    "core.session_apply.repair",
];

fn kind_index(kind: &str) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("known kind")
}

/// One scripted command with the record the library gave for it.
struct Step {
    cmd: SessionCommand,
    expected: CommandRecord,
    /// A broadcast run while no node was killed must reach every target.
    lossless: bool,
}

struct Tenant {
    name: String,
    spec: SessionSpec,
    steps: Vec<Step>,
}

fn spec_of(seed: u64, t: usize) -> SessionSpec {
    SessionSpec {
        nodes: NODES_PER_TENANT,
        seed: derive_seed(seed, 0x5E55_0000 + t as u64),
        field_milli: FIELD_MILLI,
        groups: GROUPS,
        membership_ppm: 200_000,
    }
}

fn attached_non_sink(s: &NetSession) -> Vec<NodeId> {
    let net = s.network();
    let sink = net.sink();
    net.net().tree().nodes().filter(|&u| u != sink).collect()
}

/// Pick the next write of the tenant's write cycle, checking on a copy
/// of the network that it will apply.
fn write_command(
    slot: usize,
    s: &NetSession,
    rng: &mut Rng,
    killed: &mut Option<u32>,
) -> SessionCommand {
    let nodes = attached_non_sink(s);
    match slot % 6 {
        0 | 5 => SessionCommand::Mobility {
            epochs: 1,
            movers: 2,
            step_milli: 300,
        },
        1 => loop {
            let anchor = s
                .network()
                .position(nodes[rng.random_range(0..nodes.len())]);
            let jitter = |rng: &mut Rng| rng.random_range(0..501) as i64 - 250;
            let x = ((anchor.x * 1000.0) as i64 + jitter(rng)).clamp(0, i64::from(FIELD_MILLI));
            let y = ((anchor.y * 1000.0) as i64 + jitter(rng)).clamp(0, i64::from(FIELD_MILLI));
            let groups = if rng.random_bool(0.5) {
                vec![0]
            } else {
                vec![]
            };
            let mut probe = s.network().clone();
            let p = Point2::new(x as f64 / 1000.0, y as f64 / 1000.0);
            if probe.join(p, &groups).is_ok() {
                break SessionCommand::MoveIn {
                    x_milli: x,
                    y_milli: y,
                    groups,
                };
            }
        },
        2 => loop {
            let u = nodes[rng.random_range(0..nodes.len())];
            if s.network().net().can_move_out(u).is_ok() {
                break SessionCommand::MoveOut { node: u.0 };
            }
        },
        3 => {
            let u = nodes[rng.random_range(0..nodes.len())].0;
            *killed = Some(u);
            SessionCommand::Kill { node: u }
        }
        _ => {
            let node = killed.take().expect("a kill precedes each repair");
            let mut probe = s.network().clone();
            probe
                .repair_crash(NodeId(node), &RepairConfig::default())
                .expect("killed nodes stay attached until repaired");
            SessionCommand::Repair { node }
        }
    }
}

/// Build one tenant's script against its library-direct session.
fn tenant_script(seed: u64, t: usize) -> (Tenant, Shape) {
    let spec = spec_of(seed, t);
    let mut s = NetSession::new(spec.clone()).expect("incremental deployments build");
    let shape = Shape::of(s.network().net());
    let mut rng = rng_from_seed(derive_seed(seed, 0xC0DE_0000 + t as u64));
    let mut killed: Option<u32> = None;
    let mut steps = Vec::with_capacity(SCRIPT_LEN);
    for i in 0..SCRIPT_LEN {
        let cmd = match i % 8 {
            0 => broadcast(None),
            4 => {
                let nodes = attached_non_sink(&s);
                let src = nodes[rng.random_range(0..nodes.len())].0;
                broadcast(Some(src).filter(|&u| killed != Some(u)))
            }
            1 | 5 => SessionCommand::Snapshot,
            2 | 6 => SessionCommand::Multicast {
                group: (i % 8 / 4) as u16,
                source: None,
            },
            _ => write_command(i / 4, &s, &mut rng, &mut killed),
        };
        let lossless = killed.is_none();
        let expected = s.apply(&cmd);
        steps.push(Step {
            cmd,
            expected,
            lossless,
        });
    }
    let name = format!("t{t:04}");
    (Tenant { name, spec, steps }, shape)
}

fn broadcast(source: Option<u32>) -> SessionCommand {
    SessionCommand::Broadcast {
        protocol: Protocol::ImprovedCff,
        source,
        channels: 1,
        loss_ppm: 0,
        retries: 0,
        min_delivery_ppm: 0,
    }
}

/// Whether a reply equals the library's record, timing stripped, and a
/// broadcast run with no killed node reached every target.
fn reply_ok(reply: &Json, step: &Step) -> bool {
    let e = &step.expected;
    if e.status != CommandStatus::Applied {
        return false;
    }
    let same = reply.get("seq").and_then(Json::as_i64) == Some(e.seq as i64)
        && reply.get("cmd").and_then(Json::as_str) == Some(e.kind)
        && reply.get("attempts").and_then(Json::as_i64) == Some(i64::from(e.attempts))
        && match reply.get("fields") {
            Some(Json::Obj(pairs)) => {
                pairs.len() == e.fields.len()
                    && pairs
                        .iter()
                        .zip(&e.fields)
                        .all(|((k, v), (ek, ev))| k == ek && v.as_i64() == Some(*ev))
            }
            _ => false,
        };
    let field = |k: &str| e.fields.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
    // The paper's multicast prunes the broadcast schedule and only
    // mostly delivers; a broadcast with no crashed node must reach all.
    let reads_all =
        !(step.lossless && e.kind == "broadcast") || field("delivered") == field("targets");
    same && reads_all
}

/// Linux `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
#[repr(C)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confine the calling thread, and every thread it starts afterwards
/// (the daemon's and the second client's), to the first CPU it may use.
/// On a shared virtual machine a loopback round trip between two vCPUs
/// waits for a cross-CPU wake-up whose cost the hypervisor sets, not the
/// code under test; on one CPU the round trip is the two processes'
/// work and two context switches.
fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed = CpuSet([0; 16]);
        // SAFETY: `allowed` is a writable cpu_set_t of `size` bytes.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return;
        }
        let Some(word) = allowed.0.iter().position(|&w| w != 0) else {
            return;
        };
        let mut one = CpuSet([0; 16]);
        one.0[word] = 1 << allowed.0[word].trailing_zeros();
        // SAFETY: `one` is a readable cpu_set_t of `size` bytes.
        if unsafe { sched_setaffinity(0, size, &one) } != 0 {
            eprintln!("serve_mixed: could not pin to one CPU; running unpinned");
        }
    }
}

pub struct Serve {
    tenants: Vec<Tenant>,
    shape: Shape,
    /// The in-process host and bare-session replays run once, in the
    /// first traced pass.
    replayed: bool,
    /// Timing-dependent samples of the traced passes (reply sizes carry
    /// `wall_us` digits).
    samples: BTreeMap<String, Vec<f64>>,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        pin_to_one_cpu();
        let mut shape = Shape::default();
        let tenants = (0..TENANTS)
            .map(|t| {
                let (tenant, s) = tenant_script(seed, t);
                shape = shape.merge(s);
                tenant
            })
            .collect();
        Serve {
            tenants,
            shape,
            replayed: false,
            samples: BTreeMap::new(),
        }
    }

    fn record_timing(&mut self, label: &str, resp_bytes: u64, wall_us: &[f64]) {
        let per_conn_ops = (TENANTS / CONNECTIONS * SCRIPT_LEN) as f64;
        self.samples
            .entry(format!("codec.{label}.resp_bytes"))
            .or_default()
            .push(resp_bytes as f64 / per_conn_ops);
        self.samples
            .entry("server.cmd_wall_us".into())
            .or_default()
            .extend_from_slice(wall_us);
    }

    fn timing(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    /// Replay the script on an in-process `Host` and on bare
    /// `NetSession`s, one span per command (set-up spans, op 0).
    fn replay_in_process(&self) {
        let host = Host::new(HostConfig {
            max_sessions: TENANTS,
        });
        for t in &self.tenants {
            host.create(&t.name, t.spec.clone()).expect("tenant builds");
            let mut s = NetSession::new(t.spec.clone()).expect("tenant builds");
            for step in &t.steps {
                let k = kind_index(step.cmd.kind());
                trace::span(HOST_SPANS[k], || host.apply(&t.name, &step.cmd))
                    .expect("scripted commands apply");
                trace::span(SESSION_SPANS[k], || s.apply(&step.cmd));
            }
        }
    }
}

/// What one connection's thread measured.
#[derive(Default)]
struct ConnResult {
    op_ms: Vec<f64>,
    failed: u64,
    digest: Digest,
    counters: Counters,
    wall_us: Vec<f64>,
    req_bytes: u64,
    resp_bytes: u64,
}

fn roundtrip(stream: &mut TcpStream, req: &Request, format: FrameFormat) -> Option<Json> {
    let bytes = encode_request_bytes(req, format);
    write_frame_bytes(stream, &bytes).ok()?;
    let payload = read_frame_bytes(stream).ok()?;
    match decode_response_bytes(&payload, format).ok()?.body {
        Body::Ok(v) => Some(v),
        _ => None,
    }
}

/// Drive one connection's tenants through the script, step-major.
fn drive(
    stream: &mut TcpStream,
    format: FrameFormat,
    tenants: &[&Tenant],
    thread: u32,
    traced: bool,
) -> ConnResult {
    trace::set_thread(thread);
    trace::set_enabled(traced);
    let (encode, decode) = match format {
        FrameFormat::Json => ("codec.json.encode", "codec.json.decode"),
        FrameFormat::Binary => ("codec.binary.encode", "codec.binary.decode"),
    };
    let mut r = ConnResult::default();
    let mut id = 100u64;
    for i in 0..SCRIPT_LEN {
        for t in tenants {
            let step = &t.steps[i];
            let k = kind_index(step.cmd.kind());
            id += 1;
            // The request is built outside the timed op: it is input.
            let req = Request {
                id,
                op: Op::Cmd {
                    session: t.name.clone(),
                    cmd: step.cmd.clone(),
                },
            };
            trace::set_op(id);
            let start = Instant::now();
            let bytes = trace::span(encode, || encode_request_bytes(&req, format));
            let payload = trace::span(RTT_SPANS[k], || {
                write_frame_bytes(stream, &bytes).ok()?;
                read_frame_bytes(stream).ok()
            });
            let resp = payload
                .as_ref()
                .and_then(|p| trace::span(decode, || decode_response_bytes(p, format).ok()));
            r.op_ms.push(start.elapsed().as_secs_f64() * 1e3);

            r.req_bytes += bytes.len() as u64;
            r.resp_bytes += payload.as_ref().map_or(0, |p| p.len() as u64);
            let reply = match resp {
                Some(resp) if resp.id == id => match resp.body {
                    Body::Ok(v) => Some(v),
                    _ => None,
                },
                _ => None,
            };
            let Some(reply) = reply else {
                r.failed += 1;
                bump(&mut r.counters, "server.rejected", 1);
                continue;
            };
            let wall = reply.get("wall_us").and_then(Json::as_i64).unwrap_or(0);
            trace::child_of_last(RTT_SPANS[k], "core.session_apply", wall as u64 * 1000);
            r.wall_us.push(wall as f64);
            if !reply_ok(&reply, step) {
                r.failed += 1;
            }
            bump(
                &mut r.counters,
                &format!("commands.{}", step.expected.kind),
                1,
            );
            let radio = matches!(step.expected.kind, "broadcast" | "multicast");
            for (name, v) in &step.expected.fields {
                match name.as_str() {
                    "rounds" if radio => bump(&mut r.counters, "radio.rounds", *v),
                    "delivered" if radio => bump(&mut r.counters, "radio.delivered", *v),
                    "collisions" => bump(&mut r.counters, "radio.collisions", *v),
                    _ => {}
                }
            }
            // The digest covers the reply's deterministic fields in
            // per-tenant order, which interleaving cannot change.
            r.digest.int(id as i64);
            if let Some(Json::Obj(pairs)) = reply.get("fields") {
                for (_, v) in pairs {
                    r.digest.int(v.as_i64().unwrap_or(i64::MIN));
                }
            }
        }
    }
    r
}

impl Workload for Serve {
    fn pass(&mut self, traced: bool) -> PassResult {
        let mut r = PassResult::default();
        trace::set_op(0);
        let t = Instant::now();
        let server = trace::span("server.start", || {
            Server::start(&ServeOptions {
                tcp: Some("127.0.0.1:0".into()),
                shards: 1,
                max_sessions: TENANTS,
                ..ServeOptions::default()
            })
        })
        .expect("loopback listener binds");
        let addr = server.tcp_addr().expect("tcp listener");
        let formats = [FrameFormat::Json, FrameFormat::Binary];
        let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
            .map(|_| {
                let s = TcpStream::connect(addr).expect("loopback connect");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s
            })
            .collect();
        let mut setup_ok = true;
        let mut id = 1u64;
        let owned: Vec<Vec<&Tenant>> = (0..CONNECTIONS)
            .map(|c| self.tenants.iter().skip(c).step_by(CONNECTIONS).collect())
            .collect();
        for (c, stream) in streams.iter_mut().enumerate() {
            if formats[c] == FrameFormat::Binary {
                let op = Op::Frames {
                    format: FrameFormat::Binary,
                };
                setup_ok &= roundtrip(stream, &Request { id, op }, FrameFormat::Json).is_some();
                id += 1;
            }
            for tenant in &owned[c] {
                let op = Op::Create {
                    session: tenant.name.clone(),
                    spec: tenant.spec.clone(),
                };
                setup_ok &= trace::span("server.create", || {
                    roundtrip(stream, &Request { id, op }, formats[c]).is_some()
                });
                id += 1;
            }
        }
        r.setup_s = t.elapsed().as_secs_f64();
        if !setup_ok {
            r.failed += 1;
        }

        let (first, rest) = streams.split_at_mut(1);
        let results: Vec<ConnResult> = std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                let res = drive(&mut rest[0], formats[1], &owned[1], 1, traced);
                (res, trace::take())
            });
            let mine = drive(&mut first[0], formats[0], &owned[0], 0, traced);
            let (theirs, spans) = other.join().expect("client thread");
            trace::absorb(spans);
            vec![mine, theirs]
        });
        trace::set_thread(0);
        drop(streams);
        server.begin_shutdown();
        server.wait();

        if traced && !self.replayed {
            trace::set_op(0);
            self.replay_in_process();
            self.replayed = true;
        }

        self.shape.count_into(&mut r.counters);
        for (c, res) in results.into_iter().enumerate() {
            r.op_ms.extend(res.op_ms);
            r.failed += res.failed;
            r.digest.int(res.digest.0 as i64);
            for (k, v) in res.counters {
                bump(&mut r.counters, &k, v);
            }
            let label = formats[c].label();
            bump(
                &mut r.counters,
                &format!("codec.{label}.req_bytes"),
                res.req_bytes as i64,
            );
            if traced {
                self.record_timing(label, res.resp_bytes, &res.wall_us);
            }
        }
        r
    }

    fn layer_metrics(&self, trace: &Trace, counters: &Counters, m: &mut BTreeMap<String, f64>) {
        counters_to_metrics(counters, m);
        let med_us = |name: &str| median(&trace.durations_ms(name)) * 1e3;
        for (k, kind) in KINDS.iter().enumerate() {
            m.insert(format!("server.rtt_us.{kind}"), med_us(RTT_SPANS[k]));
            m.insert(
                format!("server.host_apply_us.{kind}"),
                med_us(HOST_SPANS[k]),
            );
            m.insert(
                format!("core.session_apply_us.{kind}"),
                med_us(SESSION_SPANS[k]),
            );
        }
        let per_conn_ops = (TENANTS / CONNECTIONS * SCRIPT_LEN) as f64;
        for label in ["json", "binary"] {
            for what in ["encode", "decode"] {
                m.insert(
                    format!("codec.{label}.{what}_us"),
                    med_us(&format!("codec.{label}.{what}")),
                );
            }
            let req = counters
                .get(&format!("codec.{label}.req_bytes"))
                .copied()
                .unwrap_or(0);
            m.insert(
                format!("codec.{label}.req_bytes"),
                req as f64 / per_conn_ops,
            );
            m.insert(
                format!("codec.{label}.resp_bytes"),
                self.timing(&format!("codec.{label}.resp_bytes")),
            );
        }
        m.insert(
            "server.cmd_wall_us".into(),
            self.timing("server.cmd_wall_us"),
        );
        let costs = trace.op_self_costs();
        let wire_ns = costs.get("netio").map_or(0, |c| c.ns) as f64;
        let rtts: usize = RTT_SPANS.iter().map(|s| trace.durations_ms(s).len()).sum();
        m.insert("netio.wire_us".into(), wire_ns / 1e3 / rtts.max(1) as f64);
        let creates = trace.durations_ms("server.create");
        m.insert("core.build_ms".into(), median(&creates));
        crate::setup_allocs(trace, &["server.start", "server.create"], m);
    }
}
