//! Crash-consistent campaign journal with verifiable resume.
//!
//! Schema `dsnet-campaign-journal/1`: an append-only file of
//! length-prefixed, CRC-checked records that lets `dsnet campaign
//! --resume` skip every trial whose result is already durable and still
//! emit artifacts **byte-identical** to an uninterrupted run — the
//! engine's thread-invariance contract makes resume correctness
//! provable, not assumed.
//!
//! # File format
//!
//! A journal is a sequence of *frames*:
//!
//! ```text
//! ┌───────────────┬───────────────┬─────────────────────┐
//! │ len: u32 BE   │ crc32: u32 BE │ payload (len bytes)  │
//! └───────────────┴───────────────┴─────────────────────┘
//! ```
//!
//! Every payload is one compact, integer-only JSON document (the
//! [`dsnet_codec`] model — the same codec as the wire protocol, so no
//! float-formatting divergence can creep into the journal). The first
//! frame is the **header**; each subsequent frame is an `intent` or
//! `commit` record:
//!
//! * `{"record":"header","schema":"dsnet-campaign-journal/1",
//!   "fingerprint":F,"trials":N}` — `F` is the [`spec_fingerprint`] of
//!   the fully-expanded spec (as two's-complement `i64`), `N` the
//!   expanded trial count.
//! * `{"record":"intent","trial":i}` — a worker is about to execute
//!   trial `i`.
//! * `{"record":"commit","trial":i,"digest":D,"data":{..}}` — trial `i`
//!   finished with the embedded [`TrialRecord`]; `D` is an FNV-1a hash
//!   of the rendered `data` document, re-verified on read.
//!
//! Appends are a single `write(2)` of the assembled frame followed by
//! `fdatasync`, so a crash can only tear the **tail** frame. The reader
//! tolerates exactly that: the first frame that fails to frame, CRC, or
//! parse marks the torn tail and everything from its offset on is
//! discarded (resume truncates it away before appending). A trial is
//! *done* iff a commit frame survived; `intent` without `commit` means
//! "started but not durable" and is re-executed.
//!
//! # Fingerprint rules
//!
//! [`spec_fingerprint`] hashes the schema name, the dsnet-campaign crate
//! version, the (thread-invariant) axis expansion order, every spec
//! scalar, and every expanded trial including its derived seeds. Any
//! mutation of the spec — or a binary whose expansion or seed derivation
//! changed — yields a different fingerprint, and [`Journal::resume`]
//! refuses the journal rather than silently mixing incompatible results.
//!
//! # Crash-point fault injection
//!
//! Setting `DSNET_CAMPAIGN_CRASH_AFTER=<n>` aborts the process
//! immediately after the `n`-th intent/commit append becomes durable
//! (the header does not count). The integration suite uses it to kill
//! campaigns at randomized append counts and assert the resumed
//! artifacts diff clean against an uninterrupted baseline.

use crate::spec::{repair_label, CampaignSpec, TrialRecord};
use dsnet_codec::{obj, parse, Json};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Journal schema identifier, recorded in (and required of) the header.
pub const JOURNAL_SCHEMA: &str = "dsnet-campaign-journal/1";

/// Environment variable: abort the process after the `n`-th durable
/// intent/commit append (deterministic crash-point fault injection).
pub const CRASH_AFTER_ENV: &str = "DSNET_CAMPAIGN_CRASH_AFTER";

const LEN_LIMIT: u32 = 1 << 20; // 1 MiB — far above any real record

/// Why a journal could not be created, read, or resumed.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Refusing to overwrite an existing journal file.
    Exists(PathBuf),
    /// The header frame is missing, damaged, or not a header.
    NoHeader,
    /// The header names a schema this build does not speak.
    SchemaMismatch(String),
    /// The journal was written for a different spec or binary.
    FingerprintMismatch {
        /// Fingerprint of the spec being resumed.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
    /// The header's trial count disagrees with the spec's expansion.
    TrialCountMismatch {
        /// `spec.trial_count()` of the spec being resumed.
        expected: usize,
        /// Count recorded in the journal header.
        found: usize,
    },
    /// A non-tail record is semantically invalid (out-of-range trial
    /// index, digest mismatch, unknown record kind).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// Every trial is already committed — there is nothing to resume.
    AlreadyComplete {
        /// Committed (= total) trial count.
        trials: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Exists(p) => write!(
                f,
                "journal {} already exists; resume it with --resume or remove it first",
                p.display()
            ),
            JournalError::NoHeader => {
                write!(
                    f,
                    "journal has no readable header frame (not a campaign journal?)"
                )
            }
            JournalError::SchemaMismatch(s) => write!(
                f,
                "journal schema {s:?} is not {JOURNAL_SCHEMA:?}; this build cannot resume it"
            ),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "spec fingerprint mismatch: journal was recorded for {found:#018x}, this \
                 campaign expands to {expected:#018x} — the spec flags or the dsnet binary \
                 changed; resume requires the exact original campaign"
            ),
            JournalError::TrialCountMismatch { expected, found } => write!(
                f,
                "journal records {found} trials but the spec expands to {expected}"
            ),
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            JournalError::AlreadyComplete { trials } => write!(
                f,
                "journal already commits all {trials} trials; nothing to resume \
                 (rerun without --resume to recompute from scratch)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Hashing primitives
// ---------------------------------------------------------------------

/// FNV-1a 64-bit accumulator: tiny, dependency-free, and stable across
/// platforms — all the journal needs from a digest.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_be_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Bitwise — journal
/// payloads are tens of bytes, so no table is worth its cache lines.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

/// Fingerprint of a fully-expanded campaign: the resume compatibility
/// key. Covers the schema, this crate's version, the axis expansion
/// order, every spec scalar, and every expanded trial with its derived
/// seeds — so a journal binds to one exact (spec, binary) pair.
pub fn spec_fingerprint(spec: &CampaignSpec) -> u64 {
    let mut h = Fnv::new();
    h.write(JOURNAL_SCHEMA.as_bytes());
    h.write(env!("CARGO_PKG_VERSION").as_bytes());
    // The thread-invariant axis order of CampaignSpec::expand — part of
    // the identity: reordering expansion renumbers every trial.
    h.write(b"protocol,channels,failure,churn,loss,repair,mobility,n,rep");
    h.write(spec.name.as_bytes());
    h.write_u64(spec.field_side.to_bits());
    h.write_u64(spec.reps);
    h.write_u64(spec.base_seed);
    h.write_u64(spec.max_retries as u64);
    h.write_u64(spec.record_trace as u64);
    for trial in spec.expand() {
        h.write_u64(trial.index as u64);
        h.write(trial.protocol.name().as_bytes());
        h.write_u64(trial.channels as u64);
        h.write(trial.failure.label().as_bytes());
        h.write(trial.churn.label().as_bytes());
        h.write(trial.loss.label().as_bytes());
        h.write(repair_label(trial.repair).as_bytes());
        h.write(trial.mobility.label().as_bytes());
        h.write_u64(trial.n as u64);
        h.write_u64(trial.rep);
        h.write_u64(trial.scenario_seed);
        h.write_u64(trial.stream_seed);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, |v| Json::Int(v as i64))
}

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key)?.as_i64().map(|v| v as u64)
}

fn get_opt_u64(j: &Json, key: &str) -> Option<Option<u64>> {
    match j.get(key)? {
        Json::Null => Some(None),
        Json::Int(v) => Some(Some(*v as u64)),
        _ => None,
    }
}

/// Encode a [`TrialRecord`] as an integer-only JSON object. The one
/// float, `mean_awake`, travels as its exact IEEE-754 bit pattern
/// (`mean_awake_bits`), so the round-trip is lossless and the codec
/// stays float-free.
fn record_to_json(rec: &TrialRecord) -> Json {
    obj(vec![
        ("rounds", Json::Int(rec.rounds as i64)),
        ("delivered", Json::Int(rec.delivered as i64)),
        ("targets", Json::Int(rec.targets as i64)),
        ("targets_alive", Json::Int(rec.targets_alive as i64)),
        ("delivered_alive", Json::Int(rec.delivered_alive as i64)),
        ("t50", opt_u64(rec.t50)),
        ("t90", opt_u64(rec.t90)),
        ("t_full", opt_u64(rec.t_full)),
        ("repair_rounds", opt_u64(rec.repair_rounds)),
        ("max_awake", Json::Int(rec.max_awake as i64)),
        (
            "mean_awake_bits",
            Json::Int(rec.mean_awake.to_bits() as i64),
        ),
        ("collisions", opt_u64(rec.collisions)),
        ("bound", Json::Int(rec.bound as i64)),
        ("nodes", Json::Int(rec.nodes as i64)),
        ("reconfigs", opt_u64(rec.reconfigs)),
        ("slot_churn", opt_u64(rec.slot_churn)),
    ])
}

fn record_from_json(j: &Json) -> Option<TrialRecord> {
    Some(TrialRecord {
        rounds: get_u64(j, "rounds")?,
        delivered: get_u64(j, "delivered")?,
        targets: get_u64(j, "targets")?,
        targets_alive: get_u64(j, "targets_alive")?,
        delivered_alive: get_u64(j, "delivered_alive")?,
        t50: get_opt_u64(j, "t50")?,
        t90: get_opt_u64(j, "t90")?,
        t_full: get_opt_u64(j, "t_full")?,
        repair_rounds: get_opt_u64(j, "repair_rounds")?,
        max_awake: get_u64(j, "max_awake")?,
        mean_awake: f64::from_bits(get_u64(j, "mean_awake_bits")?),
        collisions: get_opt_u64(j, "collisions")?,
        bound: get_u64(j, "bound")?,
        nodes: get_u64(j, "nodes")?,
        reconfigs: get_opt_u64(j, "reconfigs")?,
        slot_churn: get_opt_u64(j, "slot_churn")?,
    })
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&crc32(payload).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

fn header_payload(fingerprint: u64, trials: usize) -> Vec<u8> {
    obj(vec![
        ("record", Json::Str("header".into())),
        ("schema", Json::Str(JOURNAL_SCHEMA.into())),
        ("fingerprint", Json::Int(fingerprint as i64)),
        ("trials", Json::Int(trials as i64)),
    ])
    .render()
    .into_bytes()
}

fn intent_payload(trial: usize) -> Vec<u8> {
    obj(vec![
        ("record", Json::Str("intent".into())),
        ("trial", Json::Int(trial as i64)),
    ])
    .render()
    .into_bytes()
}

fn commit_payload(trial: usize, rec: &TrialRecord) -> Vec<u8> {
    let data = record_to_json(rec).render();
    let mut digest = Fnv::new();
    digest.write(data.as_bytes());
    let mut out = String::with_capacity(data.len() + 64);
    out.push_str("{\"record\":\"commit\",\"trial\":");
    out.push_str(&trial.to_string());
    out.push_str(",\"digest\":");
    out.push_str(&(digest.finish() as i64).to_string());
    out.push_str(",\"data\":");
    out.push_str(&data);
    out.push('}');
    out.into_bytes()
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Everything a journal file durably records, as recovered by
/// [`read_journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// Spec fingerprint from the header.
    pub fingerprint: u64,
    /// Expanded trial count from the header.
    pub trials: usize,
    /// Trials with a durable intent record (started).
    pub intents: Vec<usize>,
    /// Trials with a durable commit record, with their results.
    pub commits: Vec<(usize, TrialRecord)>,
    /// Byte offset where the valid prefix ends (= where a resumed
    /// writer continues appending).
    pub valid_len: u64,
    /// Bytes of torn tail discarded after `valid_len`.
    pub torn_bytes: u64,
}

impl JournalContents {
    /// Per-trial committed results, indexed by trial identity — the
    /// prefill the engine uses to skip completed work.
    pub fn completed(&self) -> Vec<Option<TrialRecord>> {
        let mut done: Vec<Option<TrialRecord>> = vec![None; self.trials];
        for (i, rec) in &self.commits {
            done[*i] = Some(rec.clone());
        }
        done
    }

    /// Number of distinct committed trials.
    pub fn committed_count(&self) -> usize {
        self.completed().iter().filter(|r| r.is_some()).count()
    }
}

/// One parsed frame, or the reason the tail is considered torn.
enum Parsed {
    Frame { payload: Json, next_offset: u64 },
    Torn,
}

fn parse_frame(bytes: &[u8], offset: u64) -> Parsed {
    let at = offset as usize;
    let Some(head) = bytes.get(at..at + 8) else {
        return Parsed::Torn; // truncated inside the length/CRC prefix
    };
    let len = u32::from_be_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(head[4..8].try_into().expect("4 bytes"));
    if len as u32 > LEN_LIMIT {
        return Parsed::Torn; // absurd length: a torn or scribbled prefix
    }
    let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
        return Parsed::Torn; // frame extends past EOF
    };
    if crc32(payload) != crc {
        return Parsed::Torn;
    }
    let Ok(text) = std::str::from_utf8(payload) else {
        return Parsed::Torn;
    };
    match parse(text) {
        Ok(doc) => Parsed::Frame {
            payload: doc,
            next_offset: (at + 8 + len) as u64,
        },
        Err(_) => Parsed::Torn,
    }
}

/// Read a journal file, validating the header and every intact record.
///
/// The **tail** may be torn (a crash mid-append): the first frame that
/// fails to frame, checksum, or parse ends the valid prefix, and the
/// bytes from there to EOF are reported as `torn_bytes` — never
/// mis-parsed into records. Semantic damage *before* the tail (digest
/// mismatch, out-of-range trial index) is real corruption and is an
/// error: single-write + fsync appends cannot produce it.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    // Header frame: required, and never considered "torn" — a journal
    // without a durable header recorded nothing worth resuming.
    let (header, mut offset) = match parse_frame(&bytes, 0) {
        Parsed::Frame {
            payload,
            next_offset,
        } => (payload, next_offset),
        Parsed::Torn => return Err(JournalError::NoHeader),
    };
    if header.get("record").and_then(Json::as_str) != Some("header") {
        return Err(JournalError::NoHeader);
    }
    let schema = header
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    if schema != JOURNAL_SCHEMA {
        return Err(JournalError::SchemaMismatch(schema));
    }
    let fingerprint = get_u64(&header, "fingerprint").ok_or(JournalError::NoHeader)?;
    let trials = get_u64(&header, "trials").ok_or(JournalError::NoHeader)? as usize;

    let mut intents = Vec::new();
    let mut commits: Vec<(usize, TrialRecord)> = Vec::new();
    while (offset as usize) < bytes.len() {
        let frame_at = offset;
        let doc = match parse_frame(&bytes, frame_at) {
            Parsed::Frame {
                payload,
                next_offset,
            } => {
                offset = next_offset;
                payload
            }
            Parsed::Torn => break, // discard frame_at..EOF
        };
        let corrupt = |reason: &str| JournalError::Corrupt {
            offset: frame_at,
            reason: reason.into(),
        };
        let trial =
            get_u64(&doc, "trial").ok_or_else(|| corrupt("record without trial index"))? as usize;
        if trial >= trials {
            return Err(corrupt(&format!(
                "trial index {trial} out of range ({trials} trials)"
            )));
        }
        match doc.get("record").and_then(Json::as_str) {
            Some("intent") => intents.push(trial),
            Some("commit") => {
                let data = doc
                    .get("data")
                    .ok_or_else(|| corrupt("commit without data"))?;
                let rendered = data.render();
                let mut digest = Fnv::new();
                digest.write(rendered.as_bytes());
                if Some(digest.finish()) != get_u64(&doc, "digest") {
                    return Err(corrupt("commit digest mismatch"));
                }
                let rec = record_from_json(data)
                    .ok_or_else(|| corrupt("commit data is not a trial record"))?;
                commits.push((trial, rec));
            }
            _ => return Err(corrupt("unknown record kind")),
        }
    }

    Ok(JournalContents {
        fingerprint,
        trials,
        intents,
        commits,
        valid_len: offset,
        torn_bytes: bytes.len() as u64 - offset,
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// An open, append-only campaign journal.
///
/// Appends are serialized under a mutex, written with a single
/// `write_all` of the assembled frame, and made durable with
/// `sync_data` before the append returns — the invariant the torn-tail
/// reader depends on. Shared by reference with every engine worker.
pub struct Journal {
    file: Mutex<File>,
    appends: AtomicU64,
    crash_after: Option<u64>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("appends", &self.appends.load(Ordering::Relaxed))
            .field("crash_after", &self.crash_after)
            .finish()
    }
}

/// The crash-injection threshold from [`CRASH_AFTER_ENV`], if set.
pub fn crash_after_from_env() -> Option<u64> {
    std::env::var(CRASH_AFTER_ENV).ok()?.parse().ok()
}

impl Journal {
    /// Create a fresh journal for a campaign with `trials` expanded
    /// trials and the given [`spec_fingerprint`]. Refuses to overwrite
    /// an existing file — a leftover journal is either resumable or
    /// evidence, never something to clobber silently.
    pub fn create(path: &Path, fingerprint: u64, trials: usize) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::AlreadyExists {
                    JournalError::Exists(path.to_path_buf())
                } else {
                    JournalError::Io(e)
                }
            })?;
        let journal = Journal {
            file: Mutex::new(file),
            appends: AtomicU64::new(0),
            crash_after: crash_after_from_env(),
        };
        {
            let mut file = journal.file.lock().expect("journal lock");
            file.write_all(&frame(&header_payload(fingerprint, trials)))?;
            file.sync_data()?;
        }
        Ok(journal)
    }

    /// Open an existing journal for resume: validate it against the
    /// resuming spec, truncate any torn tail, and return the writer
    /// plus the per-trial committed results to prefill.
    ///
    /// Fails with a precise error when the journal belongs to a
    /// different spec or binary ([`JournalError::FingerprintMismatch`])
    /// or when every trial is already committed
    /// ([`JournalError::AlreadyComplete`]).
    pub fn resume(
        path: &Path,
        fingerprint: u64,
        trials: usize,
    ) -> Result<(Journal, Vec<Option<TrialRecord>>), JournalError> {
        let contents = read_journal(path)?;
        if contents.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                expected: fingerprint,
                found: contents.fingerprint,
            });
        }
        if contents.trials != trials {
            return Err(JournalError::TrialCountMismatch {
                expected: trials,
                found: contents.trials,
            });
        }
        let completed = contents.completed();
        if completed.iter().all(Option::is_some) {
            return Err(JournalError::AlreadyComplete { trials });
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(contents.valid_len)?; // drop the torn tail
        file.sync_data()?;
        let mut file = file;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                appends: AtomicU64::new(0),
                crash_after: crash_after_from_env(),
            },
            completed,
        ))
    }

    /// Record that a worker is about to execute `trial`.
    pub fn record_intent(&self, trial: usize) -> Result<(), JournalError> {
        self.append(&intent_payload(trial))
    }

    /// Record that `trial` finished with `rec` (the durable "done" mark
    /// resume skips by).
    pub fn record_commit(&self, trial: usize, rec: &TrialRecord) -> Result<(), JournalError> {
        self.append(&commit_payload(trial, rec))
    }

    /// Intent/commit appends made through this writer (the crash
    /// injector's clock).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    fn append(&self, payload: &[u8]) -> Result<(), JournalError> {
        let buf = frame(payload);
        let mut file = self.file.lock().expect("journal lock");
        file.write_all(&buf)?;
        file.sync_data()?;
        // Count and fire the crash point while the lock is held: no
        // other worker can make a frame durable between the nth append
        // and the abort, so "crash after append n" is exact at any
        // thread count.
        let count = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_after == Some(count) {
            // Fault injection: die *after* the nth append is durable,
            // without unwinding — exactly the crash model the resume
            // machinery must survive.
            eprintln!("journal: crash injection after append {count}");
            std::process::abort();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, ProtocolSpec};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsnet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn rec(h: u64) -> TrialRecord {
        TrialRecord {
            rounds: 10 + h % 90,
            delivered: 40 - h % 3,
            targets: 40,
            targets_alive: 39,
            delivered_alive: 39 - h % 3,
            t50: h.is_multiple_of(2).then_some(3 + h % 5),
            t90: Some(8 + h % 5),
            t_full: None,
            repair_rounds: h.is_multiple_of(3).then_some(h % 7),
            max_awake: 5 + h % 20,
            mean_awake: (h % 1000) as f64 / 7.0,
            collisions: (h % 2 == 1).then_some(h % 4),
            bound: 120,
            nodes: 40,
            reconfigs: None,
            slot_churn: h.is_multiple_of(5).then_some(h % 100),
        }
    }

    fn spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("journal-test");
        spec.protocols = vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo];
        spec.ns = vec![30];
        spec.reps = 2;
        spec
    }

    #[test]
    fn records_roundtrip_exactly() {
        for h in [0, 1, 7, 12345, u64::from(u32::MAX)] {
            let r = rec(h);
            let json = record_to_json(&r);
            assert_eq!(record_from_json(&json), Some(r.clone()), "h={h}");
            // Through the renderer/parser too (the on-disk path).
            let reparsed = parse(&json.render()).expect("valid json");
            assert_eq!(record_from_json(&reparsed), Some(r));
        }
    }

    #[test]
    fn journal_roundtrips_intents_and_commits() {
        let path = tmp("roundtrip.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path, 0xFEED, 4).expect("create");
        j.record_intent(0).unwrap();
        j.record_commit(0, &rec(1)).unwrap();
        j.record_intent(2).unwrap();
        j.record_commit(2, &rec(2)).unwrap();
        j.record_intent(3).unwrap(); // started, not durable-done
        drop(j);
        let c = read_journal(&path).expect("read");
        assert_eq!(c.fingerprint, 0xFEED);
        assert_eq!(c.trials, 4);
        assert_eq!(c.intents, vec![0, 2, 3]);
        assert_eq!(c.commits.len(), 2);
        assert_eq!(c.torn_bytes, 0);
        let done = c.completed();
        assert_eq!(done[0], Some(rec(1)));
        assert!(done[1].is_none());
        assert_eq!(done[2], Some(rec(2)));
        assert!(done[3].is_none());
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let path = tmp("exists.journal");
        let _ = std::fs::remove_file(&path);
        Journal::create(&path, 1, 1).expect("create");
        assert!(matches!(
            Journal::create(&path, 1, 1),
            Err(JournalError::Exists(_))
        ));
    }

    #[test]
    fn torn_tail_is_discarded_not_misparsed() {
        let path = tmp("torn.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path, 7, 4).expect("create");
        j.record_intent(0).unwrap();
        j.record_commit(0, &rec(9)).unwrap();
        j.record_intent(1).unwrap();
        drop(j);
        let full = std::fs::read(&path).expect("read file");
        assert_eq!(read_journal(&path).expect("intact").torn_bytes, 0);
        // Offset of the final frame, by walking the frame chain.
        let tail_start = {
            let mut off = 0usize;
            let mut last = 0usize;
            while off < full.len() {
                last = off;
                let len = u32::from_be_bytes(full[off..off + 4].try_into().unwrap()) as usize;
                off += 8 + len;
            }
            last
        };
        // Truncate at every point from the final frame's start to EOF.
        for cut in tail_start..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let c = read_journal(&path).expect("torn tail tolerated");
            assert_eq!(c.commits.len(), 1, "cut={cut}");
            assert_eq!(c.commits[0].1, rec(9));
        }
        // Flip each byte of the final frame in place.
        for at in tail_start..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0x41;
            std::fs::write(&path, &bytes).expect("corrupt");
            let c = read_journal(&path).expect("corrupt tail tolerated");
            assert_eq!(c.commits.len(), 1, "at={at}");
            assert_eq!(c.commits[0].1, rec(9));
            assert!(c.torn_bytes > 0, "at={at}");
        }
    }

    #[test]
    fn resume_prefills_truncates_and_appends() {
        let path = tmp("resume.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path, 11, 3).expect("create");
        j.record_intent(0).unwrap();
        j.record_commit(0, &rec(4)).unwrap();
        j.record_intent(1).unwrap();
        drop(j);
        // Tear the tail by appending garbage (a half-written frame).
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF, 0xFF, 0x00]).unwrap();
        }
        let (j, completed) = Journal::resume(&path, 11, 3).expect("resume");
        assert_eq!(completed[0], Some(rec(4)));
        assert!(completed[1].is_none() && completed[2].is_none());
        j.record_intent(1).unwrap();
        j.record_commit(1, &rec(5)).unwrap();
        j.record_intent(2).unwrap();
        j.record_commit(2, &rec(6)).unwrap();
        drop(j);
        let c = read_journal(&path).expect("read after resume");
        assert_eq!(c.torn_bytes, 0, "torn tail was truncated away");
        assert_eq!(c.committed_count(), 3);
        // A fully-committed journal refuses a second resume.
        assert!(matches!(
            Journal::resume(&path, 11, 3),
            Err(JournalError::AlreadyComplete { trials: 3 })
        ));
    }

    #[test]
    fn resume_refuses_wrong_fingerprint_and_count() {
        let path = tmp("fingerprint.journal");
        let _ = std::fs::remove_file(&path);
        Journal::create(&path, 42, 2).expect("create");
        assert!(matches!(
            Journal::resume(&path, 43, 2),
            Err(JournalError::FingerprintMismatch {
                expected: 43,
                found: 42
            })
        ));
        assert!(matches!(
            Journal::resume(&path, 42, 5),
            Err(JournalError::TrialCountMismatch {
                expected: 5,
                found: 2
            })
        ));
    }

    #[test]
    fn fingerprint_binds_to_the_expanded_spec() {
        let base = spec_fingerprint(&spec());
        assert_eq!(base, spec_fingerprint(&spec()), "deterministic");
        let mut mutated = spec();
        mutated.ns = vec![31];
        assert_ne!(base, spec_fingerprint(&mutated));
        let mut mutated = spec();
        mutated.reps = 3;
        assert_ne!(base, spec_fingerprint(&mutated));
        let mut mutated = spec();
        mutated.base_seed += 1;
        assert_ne!(base, spec_fingerprint(&mutated));
        let mut mutated = spec();
        mutated.protocols = vec![ProtocolSpec::Dfo, ProtocolSpec::ImprovedCff];
        assert_ne!(base, spec_fingerprint(&mutated), "axis order matters");
        let mut mutated = spec();
        mutated.record_trace = false;
        assert_ne!(base, spec_fingerprint(&mutated));
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let path = tmp("garbage.journal");
        std::fs::write(&path, b"this is not a journal").unwrap();
        assert!(matches!(read_journal(&path), Err(JournalError::NoHeader)));
        std::fs::write(&path, frame(b"{\"record\":\"intent\",\"trial\":0}")).unwrap();
        assert!(matches!(read_journal(&path), Err(JournalError::NoHeader)));
    }

    #[test]
    fn error_messages_are_actionable() {
        let msg = JournalError::FingerprintMismatch {
            expected: 1,
            found: 2,
        }
        .to_string();
        assert!(msg.contains("fingerprint mismatch"), "{msg}");
        assert!(msg.contains("spec flags or the dsnet binary"), "{msg}");
        let msg = JournalError::AlreadyComplete { trials: 8 }.to_string();
        assert!(msg.contains("all 8 trials"), "{msg}");
        assert!(msg.contains("nothing to resume"), "{msg}");
    }
}
