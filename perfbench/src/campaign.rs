//! `paper_campaign`: the paper's Fig. 8/9 sweep on the 10×10 field —
//! n ∈ {100..500}, improved CFF, CFF-1 and DFO — through
//! `campaign::run_resumable` at `threads = 1` with the crash-consistent
//! journal on.
//!
//! Set-up expands the spec, creates the journal and runs one warm-up
//! trial per size. Ops are trials, timed between successive progress
//! callbacks (so an op holds the journal's intent and commit appends as
//! well as the trial). Records must equal an in-memory run of the same
//! spec without the journal, and the journal must hold every commit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use dsnet::campaign::{run_resumable, run_trial};
use dsnet::campaign_engine::{
    read_journal, run_campaign_resumable, spec_fingerprint, CampaignSpec, Journal, Progress,
    ProtocolSpec, Trial, TrialRecord,
};
use dsnet::geom::rng::derive_seed;
use dsnet::NetworkBuilder;

use crate::shape::{counters_to_metrics, Shape};
use crate::stats::{bump, median, Counters};
use crate::trace::{self, Trace};
use crate::{PassResult, Workload, OUT_DIR};

const NS: [usize; 5] = [100, 200, 300, 400, 500];
const REPS: u64 = 16;
/// Appends timed on a scratch journal in the traced run.
const SCRATCH_APPENDS: usize = 64;

pub struct Campaign {
    spec: CampaignSpec,
    /// The in-memory run's records (no journal), trial order.
    reference: Vec<TrialRecord>,
    shape: Shape,
    passes: usize,
    /// Per traced op: op time minus the trial's span, milliseconds.
    outside_trial_ms: Vec<f64>,
}

impl Campaign {
    pub fn new(seed: u64) -> Campaign {
        let mut spec = CampaignSpec::new("perfbench-paper");
        spec.field_side = 10.0;
        spec.ns = NS.to_vec();
        spec.reps = REPS;
        spec.base_seed = seed;
        spec.protocols = vec![
            ProtocolSpec::ImprovedCff,
            ProtocolSpec::BasicCff,
            ProtocolSpec::Dfo,
        ];
        let reference = dsnet::campaign::run(&spec, 1, None).records;
        // The repetition-0 field of every size, as the trials build it.
        let shape = NS
            .iter()
            .map(|&n| {
                let seed = derive_seed(spec.base_seed, (n as u64) << 20);
                let net = NetworkBuilder::paper_field(spec.field_side, n, seed)
                    .build()
                    .expect("incremental deployments always build");
                Shape::of(net.net())
            })
            .fold(Shape::default(), Shape::merge);
        Campaign {
            spec,
            reference,
            shape,
            passes: 0,
            outside_trial_ms: Vec::new(),
        }
    }

    fn journal_path(&self, what: &str) -> PathBuf {
        PathBuf::from(format!(
            "{OUT_DIR}/{what}-{}-{}.journal",
            std::process::id(),
            self.passes
        ))
    }

    /// Time `record_intent`/`record_commit` on a scratch journal.
    fn time_appends(&self) {
        let path = self.journal_path("scratch");
        let fp = spec_fingerprint(&self.spec);
        let journal = Journal::create(&path, fp, SCRATCH_APPENDS).expect("scratch journal");
        for i in 0..SCRATCH_APPENDS / 2 {
            trace::span("campaign.journal_append", || journal.record_intent(i))
                .expect("journal append");
            trace::span("campaign.journal_append", || {
                journal.record_commit(i, &self.reference[i])
            })
            .expect("journal append");
        }
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }
}

fn valid(r: &TrialRecord) -> bool {
    r.delivered == r.targets && r.rounds <= r.bound
}

impl Workload for Campaign {
    fn pass(&mut self, traced: bool) -> PassResult {
        let mut r = PassResult::default();
        trace::set_op(0);
        std::fs::create_dir_all(OUT_DIR).expect("output directory");
        let path = self.journal_path("campaign");
        let _ = std::fs::remove_file(&path);

        let t = Instant::now();
        let trials = self.spec.expand();
        let journal = Journal::create(&path, spec_fingerprint(&self.spec), trials.len())
            .expect("fresh journal");
        for &n in &NS {
            let warm = trials
                .iter()
                .find(|t| t.n == n)
                .expect("every size has trials");
            if run_trial(warm) != self.reference[warm.index] {
                r.failed += 1;
            }
        }
        r.setup_s = t.elapsed().as_secs_f64();

        // Progress callbacks run on the engine's worker; they stamp the
        // end of each trial.
        let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::with_capacity(trials.len()));
        let on_progress = |_: Progress<'_>| {
            stamps.lock().expect("stamp lock").push(Instant::now());
        };
        let spans: Mutex<Trace> = Mutex::new(Trace::default());
        let start = Instant::now();
        let result = if traced {
            // The same engine call `run_resumable` makes, with the trial
            // runner wrapped in a span on the worker thread.
            let runner = |trial: &Trial| {
                trace::set_enabled(true);
                trace::set_op(trial.index as u64 + 1);
                let rec = trace::span("campaign.trial", || run_trial(trial));
                spans.lock().expect("span lock").merge(trace::take());
                rec
            };
            run_campaign_resumable(
                &self.spec,
                &runner,
                1,
                Some(&on_progress),
                Some(&journal),
                None,
            )
        } else {
            run_resumable(&self.spec, 1, Some(&on_progress), Some(&journal), None)
        };
        let stamps = stamps.into_inner().expect("stamp lock");
        let mut prev = start;
        for s in &stamps {
            r.op_ms.push(s.duration_since(prev).as_secs_f64() * 1e3);
            prev = *s;
        }
        let spans = spans.into_inner().expect("span lock");
        if traced {
            let trial_ms = spans.durations_ms("campaign.trial");
            for (op, trial) in r.op_ms.iter().zip(&trial_ms) {
                self.outside_trial_ms.push(op - trial);
            }
            trace::absorb(spans);
            trace::set_op(0);
            self.time_appends();
        }

        bump(
            &mut r.counters,
            "campaign.journal_appends",
            journal.appends() as i64,
        );
        drop(journal);
        let journaled = read_journal(&path).map(|c| c.completed());
        let _ = std::fs::remove_file(&path);
        let committed: Vec<Option<TrialRecord>> =
            self.reference.iter().cloned().map(Some).collect();
        if journaled.ok() != Some(committed) {
            eprintln!("paper_campaign: journal does not hold every committed record");
            r.failed += 1;
        }

        if stamps.len() != trials.len() {
            r.failed += (trials.len() - stamps.len().min(trials.len())) as u64;
        }
        for (rec, want) in result.records.iter().zip(&self.reference) {
            if rec != want || !valid(rec) {
                r.failed += 1;
            }
            bump(&mut r.counters, "radio.rounds", rec.rounds as i64);
            bump(&mut r.counters, "radio.delivered", rec.delivered as i64);
            bump(&mut r.counters, "radio.targets", rec.targets as i64);
            bump(&mut r.counters, "radio.max_awake", rec.max_awake as i64);
            bump(
                &mut r.counters,
                "radio.collisions",
                rec.collisions.unwrap_or(0) as i64,
            );
            for v in [
                rec.rounds,
                rec.delivered,
                rec.targets,
                rec.max_awake,
                rec.nodes,
            ] {
                r.digest.int(v as i64);
            }
            r.digest.int(rec.mean_awake.to_bits() as i64);
        }
        bump(
            &mut r.counters,
            "campaign.trials",
            result.records.len() as i64,
        );
        bump(&mut r.counters, "campaign.cells", result.cells.len() as i64);
        self.shape.count_into(&mut r.counters);
        self.passes += 1;
        r
    }

    fn layer_metrics(&self, trace: &Trace, counters: &Counters, m: &mut BTreeMap<String, f64>) {
        counters_to_metrics(counters, m);
        let append_us = median(&trace.durations_ms("campaign.journal_append")) * 1e3;
        m.insert(
            "campaign.trial_ms".into(),
            median(&trace.durations_ms("campaign.trial")),
        );
        m.insert("campaign.journal_append_us".into(), append_us);
        m.insert(
            "campaign.engine_us".into(),
            median(&self.outside_trial_ms) * 1e3 - 2.0 * append_us,
        );
    }
}
