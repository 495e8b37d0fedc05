//! Durable KB enrichment: an append-only, checksummed write-ahead
//! journal with checkpoint/compaction and crash recovery.
//!
//! The serving path (see `katara-serve`) clones the KB per request so
//! enrichment never leaks between tenants — which also means every
//! crowd-confirmed fact dies with the request. This module makes
//! enrichment durable without giving up that isolation: the pipeline
//! emits an [`EnrichmentDelta`] (captured by
//! [`Kb::begin_delta_capture`]), the daemon appends it to a [`Journal`]
//! and fsyncs *before* acking, and only then applies it to the shared
//! store via [`Kb::apply_delta`].
//!
//! On-disk layout inside the journal directory:
//!
//! * `checkpoint.nt` — the full store serialized as N-Triples, preceded
//!   by one comment line `# katara-checkpoint/v1 seq=S version=V
//!   name=N` carrying the journal sequence number and KB version the
//!   checkpoint covers. The N-Triples parser skips `#` lines, so the
//!   file loads with plain [`ntriples::parse`].
//! * `journal.log` — a 24-byte header (`KATARAJ1` magic, the
//!   checkpoint sequence this journal continues from, the base
//!   version), then length-prefixed records: `[len: u32 LE]
//!   [crc32: u32 LE] [payload]`. The payload is a line-oriented text
//!   encoding of one delta (`d\tSEQ`, then one `E`/`T`/`F`/`L` line
//!   per op, fields tab-separated and backslash-escaped).
//! * `checkpoint.nt.tmp` — transient; checkpoints are written here,
//!   fsynced, then atomically renamed over `checkpoint.nt`.
//!
//! Failure model (DESIGN.md §5h):
//!
//! * **Transient append/fsync errors** retry with bounded backoff; each
//!   attempt first rewinds the file to the last committed length so a
//!   half-written record never precedes a committed one.
//! * **Torn tails** (crash mid-append, power loss) are detected on
//!   replay by the length prefix and CRC and truncated — the quarantine
//!   convention from lenient ingestion, applied to our own files.
//! * **Stale records** (crash between checkpoint rename and journal
//!   reset) carry sequence numbers at or below the checkpoint's and are
//!   skipped on replay.
//! * **Unrecoverable writers** (a rewind itself fails) mark the journal
//!   broken: appends refuse with [`JournalError::Broken`], the daemon
//!   degrades (206 + `enrichment_dropped`) instead of lying about
//!   durability.
//!
//! The [`FaultWriter`] injects seeded write/fsync failures, short
//! writes, and silent torn writes underneath a [`Journal`], mirroring
//! `katara_crowd::FaultPlan`, so every branch above is exercised
//! in-process; real-process SIGKILL coverage lives in the CLI's
//! crash-recovery suite.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::error::KbError;
use crate::ntriples;
use crate::store::Kb;

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"KATARAJ1";
/// Header length: magic + checkpoint seq (u64 LE) + base version (u64 LE).
pub const JOURNAL_HEADER_LEN: u64 = 24;
/// Largest record payload [`scan`] will accept; anything bigger is
/// treated as a corrupt length prefix (and tail-truncated).
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

const CHECKPOINT_FILE: &str = "checkpoint.nt";
const CHECKPOINT_TMP: &str = "checkpoint.nt.tmp";
const JOURNAL_FILE: &str = "journal.log";
const META_PREFIX: &str = "# katara-checkpoint/v1 ";

// ---- CRC32 (IEEE, reflected) ------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes` — the checksum
/// guarding every journal record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---- Delta model ------------------------------------------------------

/// One enrichment write, recorded by name (not id) so it replays onto
/// any store that knows the referenced schema.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaOp {
    /// A brand-new entity (`Kb::add_entity` that actually created one).
    Entity {
        /// Canonical (unique) resource name.
        name: String,
        /// Human-readable label.
        label: String,
    },
    /// A new direct type assertion (`Kb::add_type` that changed state).
    Type {
        /// Canonical resource name.
        resource: String,
        /// Class name.
        class: String,
    },
    /// A new resource-object fact (`Kb::add_fact` that changed state).
    Fact {
        /// Subject resource name.
        subject: String,
        /// Property name.
        property: String,
        /// Object resource name.
        object: String,
    },
    /// A new literal fact (`Kb::add_literal_fact` that changed state).
    LiteralFact {
        /// Subject resource name.
        subject: String,
        /// Property name.
        property: String,
        /// The literal value, verbatim.
        literal: String,
    },
}

/// An ordered batch of enrichment writes — what one cleaning run
/// learned. Applying a delta to the store it was captured from (or any
/// byte-identical one) via [`Kb::apply_delta`] reproduces the exact
/// post-enrichment state, including the version counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnrichmentDelta {
    /// The writes, in capture order. Order matters: entity creation
    /// must precede facts that reference it.
    pub ops: Vec<DeltaOp>,
}

impl EnrichmentDelta {
    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was learned.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

// ---- Errors -----------------------------------------------------------

/// Everything that can go wrong journaling or recovering.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O failure that survived the bounded retries.
    Io(io::Error),
    /// A structurally invalid journal or record (bad magic, bad escape,
    /// unknown op tag). Torn *tails* are not errors — they truncate.
    Corrupt {
        /// What was wrong, for diagnostics.
        detail: String,
    },
    /// The checkpoint file is missing, unreadable, or fails to parse.
    Checkpoint {
        /// What was wrong, for diagnostics.
        detail: String,
    },
    /// A replayed op referenced a name the store does not know.
    Apply(KbError),
    /// A fault-plan rate outside `[0, 1]`.
    InvalidRate {
        /// Which knob.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The journal was marked broken after an unrecoverable writer
    /// failure; appends are refused until the daemon restarts.
    Broken,
    /// Recovery verification failed: the recovered store does not
    /// round-trip to the same bytes.
    VerifyMismatch,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { detail } => write!(f, "corrupt journal: {detail}"),
            JournalError::Checkpoint { detail } => write!(f, "bad checkpoint: {detail}"),
            JournalError::Apply(e) => write!(f, "replayed op failed to apply: {e}"),
            JournalError::InvalidRate { what, value } => {
                write!(f, "{what} must be within [0, 1], got {value}")
            }
            JournalError::Broken => write!(f, "journal is broken (previous writer failure)"),
            JournalError::VerifyMismatch => {
                write!(f, "recovered store does not round-trip byte-identically")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Apply(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<KbError> for JournalError {
    fn from(e: KbError) -> Self {
        JournalError::Apply(e)
    }
}

// ---- Record encoding --------------------------------------------------

fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_field(s: &str) -> Result<String, JournalError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(JournalError::Corrupt {
                    detail: format!("bad escape sequence \\{other:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// Encode one delta as a record payload (no framing).
fn encode_payload(seq: u64, delta: &EnrichmentDelta) -> Vec<u8> {
    let mut out = format!("d\t{seq}\n");
    for op in &delta.ops {
        match op {
            DeltaOp::Entity { name, label } => {
                out.push_str(&format!(
                    "E\t{}\t{}\n",
                    escape_field(name),
                    escape_field(label)
                ));
            }
            DeltaOp::Type { resource, class } => {
                out.push_str(&format!(
                    "T\t{}\t{}\n",
                    escape_field(resource),
                    escape_field(class)
                ));
            }
            DeltaOp::Fact {
                subject,
                property,
                object,
            } => {
                out.push_str(&format!(
                    "F\t{}\t{}\t{}\n",
                    escape_field(subject),
                    escape_field(property),
                    escape_field(object)
                ));
            }
            DeltaOp::LiteralFact {
                subject,
                property,
                literal,
            } => {
                out.push_str(&format!(
                    "L\t{}\t{}\t{}\n",
                    escape_field(subject),
                    escape_field(property),
                    escape_field(literal)
                ));
            }
        }
    }
    out.into_bytes()
}

/// Frame a payload: `[len][crc][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn decode_payload(bytes: &[u8]) -> Result<(u64, EnrichmentDelta), JournalError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JournalError::Corrupt {
        detail: format!("record payload is not UTF-8: {e}"),
    })?;
    let mut lines = text.lines();
    let head = lines.next().ok_or_else(|| JournalError::Corrupt {
        detail: "empty record payload".to_string(),
    })?;
    let seq = head
        .strip_prefix("d\t")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| JournalError::Corrupt {
            detail: format!("bad record head {head:?}"),
        })?;
    let mut delta = EnrichmentDelta::default();
    for line in lines {
        let mut parts = line.split('\t');
        let tag = parts.next().unwrap_or("");
        let mut field = |what: &'static str| -> Result<String, JournalError> {
            parts
                .next()
                .ok_or_else(|| JournalError::Corrupt {
                    detail: format!("op line missing {what}: {line:?}"),
                })
                .and_then(unescape_field)
        };
        let op = match tag {
            "E" => DeltaOp::Entity {
                name: field("name")?,
                label: field("label")?,
            },
            "T" => DeltaOp::Type {
                resource: field("resource")?,
                class: field("class")?,
            },
            "F" => DeltaOp::Fact {
                subject: field("subject")?,
                property: field("property")?,
                object: field("object")?,
            },
            "L" => DeltaOp::LiteralFact {
                subject: field("subject")?,
                property: field("property")?,
                literal: field("literal")?,
            },
            other => {
                return Err(JournalError::Corrupt {
                    detail: format!("unknown op tag {other:?}"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(JournalError::Corrupt {
                detail: format!("trailing fields on op line {line:?}"),
            });
        }
        delta.ops.push(op);
    }
    Ok((seq, delta))
}

// ---- Scanning (replay side) -------------------------------------------

/// A structural scan of raw journal bytes: the longest intact prefix.
///
/// Never panics on arbitrary input (the fuzz suite's contract). A
/// malformed header yields an error; a malformed or torn *record* ends
/// the scan — everything before it is returned, everything from its
/// first byte on counts as `truncated_bytes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Sequence number of the checkpoint this journal continues from.
    pub checkpoint_seq: u64,
    /// KB version at that checkpoint.
    pub base_version: u64,
    /// Intact, CRC-verified records in file order.
    pub records: Vec<(u64, EnrichmentDelta)>,
    /// Byte offset of the end of the last intact record (where a
    /// repairing writer should truncate to).
    pub intact_len: u64,
    /// Bytes after `intact_len` (the torn tail).
    pub truncated_bytes: u64,
}

/// Scan raw journal bytes into the longest intact record prefix.
pub fn scan(bytes: &[u8]) -> Result<JournalScan, JournalError> {
    if bytes.len() < JOURNAL_HEADER_LEN as usize {
        return Err(JournalError::Corrupt {
            detail: format!("journal shorter than its header ({} bytes)", bytes.len()),
        });
    }
    if &bytes[..8] != JOURNAL_MAGIC {
        return Err(JournalError::Corrupt {
            detail: "bad journal magic".to_string(),
        });
    }
    let checkpoint_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let base_version = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let mut out = JournalScan {
        checkpoint_seq,
        base_version,
        intact_len: JOURNAL_HEADER_LEN,
        ..JournalScan::default()
    };
    let mut pos = JOURNAL_HEADER_LEN as usize;
    loop {
        if pos + 8 > bytes.len() {
            break; // torn or absent frame header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break; // implausible length: treat as a torn tail
        }
        let start = pos + 8;
        let Some(end) = start.checked_add(len as usize) else {
            break;
        };
        if end > bytes.len() {
            break; // payload torn
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // bit flip or torn overwrite: stop at the last good record
        }
        let Ok(record) = decode_payload(payload) else {
            break; // checksum ok but structurally bad: same treatment
        };
        out.records.push(record);
        pos = end;
        out.intact_len = pos as u64;
    }
    out.truncated_bytes = (bytes.len() as u64).saturating_sub(out.intact_len);
    Ok(out)
}

// ---- Checkpoint files -------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct CheckpointMeta {
    seq: u64,
    version: u64,
    name: String,
}

fn checkpoint_text(kb: &Kb, seq: u64) -> String {
    format!(
        "{META_PREFIX}seq={seq} version={} name={}\n{}",
        kb.version(),
        escape_field(kb.name()),
        ntriples::to_string(kb)
    )
}

fn parse_checkpoint(text: &str) -> Result<(Kb, CheckpointMeta), JournalError> {
    let first = text.lines().next().unwrap_or("");
    let meta_body = first
        .strip_prefix(META_PREFIX)
        .ok_or_else(|| JournalError::Checkpoint {
            detail: format!("missing meta line (got {first:?})"),
        })?;
    let mut seq = None;
    let mut version = None;
    let mut name = None;
    for part in meta_body.split(' ') {
        if let Some(v) = part.strip_prefix("seq=") {
            seq = v.parse::<u64>().ok();
        } else if let Some(v) = part.strip_prefix("version=") {
            version = v.parse::<u64>().ok();
        } else if let Some(v) = part.strip_prefix("name=") {
            name = unescape_field(v).ok();
        }
    }
    let (Some(seq), Some(version), Some(name)) = (seq, version, name) else {
        return Err(JournalError::Checkpoint {
            detail: format!("incomplete meta line {first:?}"),
        });
    };
    // The parser skips `#` lines, so the whole file (meta included) is
    // valid N-Triples input.
    let mut kb = ntriples::parse(&name, text).map_err(|e| JournalError::Checkpoint {
        detail: format!("checkpoint does not parse: {e}"),
    })?;
    kb.advance_version_to(version);
    Ok((kb, CheckpointMeta { seq, version, name }))
}

// ---- Writer abstraction + fault injection -----------------------------

/// The journal's view of its backing file: positional append, fsync,
/// and truncate-back. Implemented by [`File`] for production and by
/// [`FaultWriter`] for the crash-fault harness.
pub trait JournalFile: Send {
    /// Append `bytes` at the current end (write-all semantics).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Flush data to stable storage (`fsync`/`fdatasync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate to `len` bytes and reposition the cursor there — the
    /// repair step after a failed append.
    fn rewind_to(&mut self, len: u64) -> io::Result<()>;
}

impl JournalFile for File {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(|_| ())
    }
}

/// An in-memory [`JournalFile`] — handy for tests that want to corrupt
/// or inspect the raw bytes without touching disk.
#[derive(Debug, Default)]
pub struct MemFile {
    /// The file contents.
    pub data: Vec<u8>,
}

impl JournalFile for MemFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        self.data.truncate(len as usize);
        Ok(())
    }
}

/// Seeded fault plan for journal writes, mirroring
/// `katara_crowd::FaultPlan`: rates in `[0, 1]`, all-zero default, and
/// the same seed always yields the same fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteFaultPlan {
    /// Probability an append fails cleanly (no bytes written).
    pub write_error_rate: f64,
    /// Probability an append writes only a prefix, then errors — the
    /// transient partial failure the rewind-and-retry path repairs.
    pub short_write_rate: f64,
    /// Probability an append writes only a prefix but *claims success* —
    /// the power-loss-shaped corruption only replay-time CRCs catch.
    pub torn_write_rate: f64,
    /// Probability an fsync fails.
    pub sync_error_rate: f64,
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
}

impl WriteFaultPlan {
    /// True when the plan injects nothing (the default).
    pub fn is_inert(&self) -> bool {
        self.write_error_rate == 0.0
            && self.short_write_rate == 0.0
            && self.torn_write_rate == 0.0
            && self.sync_error_rate == 0.0
    }

    /// Reject rates outside `[0, 1]` (and NaN).
    pub fn validate(&self) -> Result<(), JournalError> {
        for (what, value) in [
            ("write_error_rate", self.write_error_rate),
            ("short_write_rate", self.short_write_rate),
            ("torn_write_rate", self.torn_write_rate),
            ("sync_error_rate", self.sync_error_rate),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(JournalError::InvalidRate { what, value });
            }
        }
        Ok(())
    }
}

/// Counts of faults a [`FaultWriter`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Clean append failures (no bytes written).
    pub write_errors: u64,
    /// Partial appends that errored.
    pub short_writes: u64,
    /// Partial appends that claimed success.
    pub torn_writes: u64,
    /// fsync failures.
    pub sync_errors: u64,
}

/// A [`JournalFile`] wrapper that injects seeded faults per a
/// [`WriteFaultPlan`]. `rewind_to` always passes through — it is the
/// repair path, and a harness that breaks the repair path only tests
/// its own despair.
pub struct FaultWriter {
    inner: Box<dyn JournalFile>,
    plan: WriteFaultPlan,
    rng: u64,
    counters: FaultCounters,
}

impl FaultWriter {
    /// Wrap `inner` with a validated plan.
    pub fn new(
        inner: Box<dyn JournalFile>,
        plan: WriteFaultPlan,
    ) -> Result<FaultWriter, JournalError> {
        plan.validate()?;
        let rng = plan.seed;
        Ok(FaultWriter {
            inner,
            plan,
            rng,
            counters: FaultCounters::default(),
        })
    }

    /// Faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, seedable, good enough for a fault schedule.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, rate: f64) -> bool {
        rate > 0.0 && ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }

    fn prefix_len(&mut self, total: usize) -> usize {
        if total == 0 {
            0
        } else {
            (self.next_u64() as usize) % total
        }
    }
}

impl JournalFile for FaultWriter {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.chance(self.plan.write_error_rate) {
            self.counters.write_errors += 1;
            return Err(io::Error::other("injected write error"));
        }
        if self.chance(self.plan.short_write_rate) {
            self.counters.short_writes += 1;
            let n = self.prefix_len(bytes.len());
            self.inner.append(&bytes[..n])?;
            return Err(io::Error::other("injected short write"));
        }
        if self.chance(self.plan.torn_write_rate) {
            self.counters.torn_writes += 1;
            let n = self.prefix_len(bytes.len());
            // Lie: persist a prefix, report success. Only the replay
            // CRC will notice.
            return self.inner.append(&bytes[..n]);
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.chance(self.plan.sync_error_rate) {
            self.counters.sync_errors += 1;
            return Err(io::Error::other("injected fsync error"));
        }
        self.inner.sync()
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.rewind_to(len)
    }
}

// ---- The journal ------------------------------------------------------

/// Retries after a failed append+fsync (total attempts = 1 + this).
const APPEND_RETRIES: u32 = 3;

/// Backoff before retry `n` is `RETRY_BACKOFF * n`.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Journal tuning knobs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Auto-compact ([`Journal::maybe_compact`]) once this many records
    /// accumulated since the last checkpoint.
    pub compact_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            compact_every: 1024,
        }
    }
}

/// Cumulative journal activity, exposed so callers (the daemon) can
/// publish deltas to their own metrics sink — `katara-kb` itself stays
/// dependency-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records durably appended (fsynced) and acked.
    pub appends: u64,
    /// fsync calls issued (journal and checkpoint files).
    pub fsyncs: u64,
    /// Retry attempts after transient append/fsync failures.
    pub retries: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Records replayed at open.
    pub replayed_records: u64,
}

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Sequence number the checkpoint covered.
    pub checkpoint_seq: u64,
    /// KB version at the checkpoint.
    pub checkpoint_version: u64,
    /// Journal records applied on top of the checkpoint.
    pub replayed_records: u64,
    /// Individual ops inside those records.
    pub replayed_ops: u64,
    /// Records skipped as stale (seq at or below the checkpoint's —
    /// crash residue between checkpoint rename and journal reset).
    pub skipped_stale: u64,
    /// Torn-tail bytes discarded (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// Highest sequence number applied (checkpoint seq if none).
    pub last_seq: u64,
    /// `version()` of the recovered store.
    pub final_version: u64,
}

/// The write-ahead journal for one KB's enrichment stream.
///
/// Open with [`Journal::open`] (which replays any existing state into
/// the caller's store), append deltas with [`Journal::append`] —
/// durable when it returns `Ok` — and compact with
/// [`Journal::checkpoint`] / [`Journal::maybe_compact`].
pub struct Journal {
    dir: PathBuf,
    file: Box<dyn JournalFile>,
    /// Bytes of journal file known durable — the rewind target after a
    /// failed append.
    committed_len: u64,
    /// Sequence number the next append will carry.
    next_seq: u64,
    /// Sequence covered by the on-disk checkpoint.
    checkpoint_seq: u64,
    config: JournalConfig,
    stats: JournalStats,
    broken: bool,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("committed_len", &self.committed_len)
            .field("next_seq", &self.next_seq)
            .field("checkpoint_seq", &self.checkpoint_seq)
            .field("broken", &self.broken)
            .finish_non_exhaustive()
    }
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable. Best-effort on
    // platforms where opening a directory fails.
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

impl Journal {
    /// Open (or create) the journal in `dir` and bring `kb` to the
    /// journal-prescribed state.
    ///
    /// * Fresh directory: a checkpoint of `kb` is written first, then
    ///   `kb` is **reloaded from that checkpoint** — so the live store
    ///   and every future recovery share byte-identical provenance
    ///   (same serialization, same id assignment).
    /// * Existing directory: the checkpoint is loaded, intact journal
    ///   records after it replay onto it, any torn tail is truncated on
    ///   disk, and the journal auto-compacts so a freshly restarted
    ///   daemon reports zero lag.
    pub fn open(
        dir: &Path,
        kb: &mut Kb,
        config: JournalConfig,
    ) -> Result<(Journal, ReplayReport), JournalError> {
        fs::create_dir_all(dir)?;
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let mut report = ReplayReport::default();
        if checkpoint_path.exists() {
            let (recovered, rep) = recover_dir(dir)?;
            *kb = recovered;
            report = rep;
        } else {
            report.checkpoint_version = kb.version();
        }
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            file: Box::new(open_journal_file(dir)?),
            committed_len: 0,
            next_seq: report.last_seq.max(report.checkpoint_seq) + 1,
            checkpoint_seq: report.checkpoint_seq,
            config,
            stats: JournalStats {
                replayed_records: report.replayed_records,
                ..JournalStats::default()
            },
            broken: false,
        };
        // Compact whatever we replayed (or write the first checkpoint):
        // after open, the checkpoint alone reproduces the store, the
        // journal is empty (lag 0), and `kb` has been reloaded from the
        // checkpoint bytes — live and recovered stores share provenance.
        journal.checkpoint(kb)?;
        journal.stats.checkpoints = 0; // boot compaction is bookkeeping, not activity
        report.final_version = kb.version();
        Ok((journal, report))
    }

    /// Append one delta; when this returns `Ok`, the record is fsynced.
    /// Empty deltas are a no-op. Transient failures retry up to
    /// `APPEND_RETRIES` times with linear backoff, rewinding to
    /// the last committed length first so the file never holds a
    /// half-record before a committed one.
    pub fn append(&mut self, delta: &EnrichmentDelta) -> Result<u64, JournalError> {
        if self.broken {
            return Err(JournalError::Broken);
        }
        if delta.is_empty() {
            return Ok(self.next_seq - 1);
        }
        let seq = self.next_seq;
        let bytes = frame(&encode_payload(seq, delta));
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..=APPEND_RETRIES {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(RETRY_BACKOFF * attempt);
            }
            let result = self.file.append(&bytes).and_then(|()| {
                self.stats.fsyncs += 1;
                self.file.sync()
            });
            match result {
                Ok(()) => {
                    self.committed_len += bytes.len() as u64;
                    self.next_seq += 1;
                    self.stats.appends += 1;
                    return Ok(seq);
                }
                Err(e) => {
                    // Scrub the partial write before retrying (or
                    // giving up): unacked records must be cleanly
                    // absent, not torn.
                    if let Err(rewind_err) = self.file.rewind_to(self.committed_len) {
                        self.broken = true;
                        return Err(JournalError::Io(rewind_err));
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(JournalError::Io(last_err.unwrap_or_else(|| {
            io::Error::other("append failed with no underlying error")
        })))
    }

    /// Write a checkpoint of `kb`, reset the journal behind it, and
    /// **reload `kb` from the checkpoint bytes**.
    ///
    /// The reload is what makes recovery byte-identical by
    /// construction: the live store and the on-disk base are the same
    /// parse of the same bytes, so deltas recorded from here on replay
    /// onto exactly the state they were captured against (same names,
    /// same id assignment, same serialization). Without it, a plain
    /// entity name like `Madrid` serializes as `<kb:Madrid>` and a
    /// post-crash replay of a later delta would miss it.
    ///
    /// The checkpoint is durable before the journal is touched (tmp
    /// write + fsync + atomic rename + dir fsync); a crash between the
    /// rename and the journal reset leaves stale records that replay
    /// skips by sequence number.
    pub fn checkpoint(&mut self, kb: &mut Kb) -> Result<(), JournalError> {
        if self.broken {
            return Err(JournalError::Broken);
        }
        let seq = self.next_seq - 1;
        let text = write_checkpoint_file(&self.dir, kb, seq, &mut self.stats)?;
        let (loaded, _meta) = parse_checkpoint(&text)?;
        *kb = loaded;
        self.checkpoint_seq = seq;
        if let Err(e) = self.reset_journal_file(seq, kb.version()) {
            self.broken = true;
            return Err(e);
        }
        self.stats.checkpoints += 1;
        Ok(())
    }

    fn reset_journal_file(&mut self, seq: u64, version: u64) -> Result<(), JournalError> {
        self.file.rewind_to(0)?;
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN as usize);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&seq.to_le_bytes());
        header.extend_from_slice(&version.to_le_bytes());
        self.file.append(&header)?;
        self.stats.fsyncs += 1;
        self.file.sync()?;
        self.committed_len = JOURNAL_HEADER_LEN;
        Ok(())
    }

    /// Checkpoint (see [`Journal::checkpoint`], including the reload of
    /// `kb`) if `compact_every` records accumulated since the last one.
    /// Returns whether a checkpoint was written.
    pub fn maybe_compact(&mut self, kb: &mut Kb) -> Result<bool, JournalError> {
        if self.lag() >= self.config.compact_every {
            self.checkpoint(kb)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Records appended since the last checkpoint — what would replay
    /// on a crash right now.
    pub fn lag(&self) -> u64 {
        (self.next_seq - 1).saturating_sub(self.checkpoint_seq)
    }

    /// Highest sequence number durably appended (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Sequence number the on-disk checkpoint covers.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// True after an unrecoverable writer failure; appends are refused.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Swap the backing file for a fault-injecting wrapper (testing
    /// only — there is deliberately no way to unwrap it).
    pub fn set_fault_plan(&mut self, plan: WriteFaultPlan) -> Result<(), JournalError> {
        plan.validate()?;
        let inner = std::mem::replace(&mut self.file, Box::new(MemFile::default()));
        self.file = Box::new(FaultWriter::new(inner, plan)?);
        Ok(())
    }
}

fn open_journal_file(dir: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join(JOURNAL_FILE))
}

fn write_checkpoint_file(
    dir: &Path,
    kb: &Kb,
    seq: u64,
    stats: &mut JournalStats,
) -> Result<String, JournalError> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let text = checkpoint_text(kb, seq);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        stats.fsyncs += 1;
        f.sync_data()?;
    }
    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    sync_dir(dir)?;
    Ok(text)
}

/// Read-only recovery: load the checkpoint, replay intact journal
/// records after it, and return the recovered store plus a report.
/// Nothing on disk is modified (torn tails are reported, not
/// truncated) — safe to run against a live daemon's directory.
pub fn recover_dir(dir: &Path) -> Result<(Kb, ReplayReport), JournalError> {
    let checkpoint_path = dir.join(CHECKPOINT_FILE);
    let text = fs::read_to_string(&checkpoint_path).map_err(|e| JournalError::Checkpoint {
        detail: format!("cannot read {}: {e}", checkpoint_path.display()),
    })?;
    let (mut kb, meta) = parse_checkpoint(&text)?;
    let mut report = ReplayReport {
        checkpoint_seq: meta.seq,
        checkpoint_version: meta.version,
        last_seq: meta.seq,
        ..ReplayReport::default()
    };
    let journal_path = dir.join(JOURNAL_FILE);
    if journal_path.exists() {
        let mut bytes = Vec::new();
        File::open(&journal_path)?.read_to_end(&mut bytes)?;
        if !bytes.is_empty() {
            let scanned = scan(&bytes)?;
            report.truncated_bytes = scanned.truncated_bytes;
            for (seq, delta) in scanned.records {
                if seq <= meta.seq {
                    report.skipped_stale += 1;
                    continue;
                }
                report.replayed_ops += kb.apply_delta(&delta)? as u64;
                report.replayed_records += 1;
                report.last_seq = seq;
            }
        }
    }
    report.final_version = kb.version();
    Ok((kb, report))
}

/// [`recover_dir`] plus a round-trip check: the recovered store must
/// serialize, re-parse, and re-serialize to identical bytes.
pub fn verify_dir(dir: &Path) -> Result<(Kb, ReplayReport), JournalError> {
    let (kb, report) = recover_dir(dir)?;
    let first = ntriples::to_string(&kb);
    let reparsed = ntriples::parse(kb.name(), &first).map_err(|e| JournalError::Checkpoint {
        detail: format!("recovered store does not re-parse: {e}"),
    })?;
    if ntriples::to_string(&reparsed) != first {
        return Err(JournalError::VerifyMismatch);
    }
    Ok((kb, report))
}

impl Kb {
    /// Recover the KB a journal directory prescribes: checkpoint plus
    /// intact journal suffix. Read-only; see [`recover_dir`].
    pub fn recover(dir: &Path) -> Result<(Kb, ReplayReport), JournalError> {
        recover_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;

    fn mini_kb() -> Kb {
        let mut b = KbBuilder::new().with_name("mini");
        let person = b.class("person");
        let country = b.class("country");
        let nationality = b.property("nationality");
        let rossi = b.entity("Rossi", &[person]);
        let italy = b.entity("Italy", &[country]);
        b.fact(rossi, nationality, italy);
        b.finalize()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "katara-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_delta(n: u64) -> EnrichmentDelta {
        EnrichmentDelta {
            ops: vec![
                DeltaOp::Entity {
                    name: format!("P{n}"),
                    label: format!("P{n}"),
                },
                DeltaOp::Type {
                    resource: format!("P{n}"),
                    class: "person".to_string(),
                },
                DeltaOp::Fact {
                    subject: format!("P{n}"),
                    property: "nationality".to_string(),
                    object: "Italy".to_string(),
                },
                DeltaOp::LiteralFact {
                    subject: format!("P{n}"),
                    property: "nationality".to_string(),
                    literal: format!("lit {n}\twith\nescapes\\"),
                },
            ],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_round_trip_with_escapes() {
        let delta = sample_delta(7);
        let payload = encode_payload(42, &delta);
        let (seq, decoded) = decode_payload(&payload).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded, delta);
    }

    #[test]
    fn scan_returns_intact_prefix_on_torn_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        for seq in 1..=3u64 {
            bytes.extend_from_slice(&frame(&encode_payload(seq, &sample_delta(seq))));
        }
        let full = scan(&bytes).unwrap();
        assert_eq!(full.records.len(), 3);
        assert_eq!(full.truncated_bytes, 0);
        // Tear the last record: drop 5 bytes.
        let torn = &bytes[..bytes.len() - 5];
        let scanned = scan(torn).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert!(scanned.truncated_bytes > 0);
        // Flip a bit in the last record's payload.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 3] ^= 0x40;
        let scanned = scan(&flipped).unwrap();
        assert_eq!(scanned.records.len(), 2, "CRC catches the flip");
    }

    #[test]
    fn scan_rejects_bad_magic_and_short_header() {
        assert!(matches!(
            scan(b"NOTMAGIC0000000000000000"),
            Err(JournalError::Corrupt { .. })
        ));
        assert!(matches!(
            scan(b"KATARAJ1"),
            Err(JournalError::Corrupt { .. })
        ));
    }

    #[test]
    fn open_append_recover_round_trip() {
        let dir = temp_dir("round-trip");
        let mut kb = mini_kb();
        let (mut journal, report) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 0);
        // `open` reloaded the store from its checkpoint, so names are
        // the canonical serialized ones (`kb:` prefix on plain names).
        let mut capture = kb.clone();
        capture.begin_delta_capture();
        let p = capture.add_entity("Pirlo", "Pirlo", &[]);
        let person = capture.class_by_name("kb:person").unwrap();
        let nat = capture.property_by_name("kb:nationality").unwrap();
        let italy = capture.resource_by_name("kb:Italy").unwrap();
        capture.add_type(p, person);
        capture.add_fact(p, nat, italy);
        let delta = capture.take_delta();
        assert_eq!(delta.len(), 3);

        journal.append(&delta).unwrap();
        kb.apply_delta(&delta).unwrap();
        assert_eq!(journal.lag(), 1);

        let (recovered, rep) = Kb::recover(&dir).unwrap();
        assert_eq!(rep.replayed_records, 1);
        assert_eq!(rep.final_version, kb.version());
        assert_eq!(ntriples::to_string(&recovered), ntriples::to_string(&kb));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_lag_and_recovery_still_matches() {
        let dir = temp_dir("checkpoint");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        for n in 0..5 {
            let mut capture = kb.clone();
            capture.begin_delta_capture();
            capture.add_entity(&format!("P{n}"), &format!("P{n}"), &[]);
            let delta = capture.take_delta();
            journal.append(&delta).unwrap();
            kb.apply_delta(&delta).unwrap();
        }
        assert_eq!(journal.lag(), 5);
        journal.checkpoint(&mut kb).unwrap();
        assert_eq!(journal.lag(), 0);
        let (recovered, rep) = Kb::recover(&dir).unwrap();
        assert_eq!(rep.replayed_records, 0, "all compacted away");
        assert_eq!(ntriples::to_string(&recovered), ntriples::to_string(&kb));
        assert_eq!(recovered.version(), kb.version());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_replays_and_compacts_to_zero_lag() {
        let dir = temp_dir("reopen");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        let mut capture = kb.clone();
        capture.begin_delta_capture();
        capture.add_entity("Totti", "Totti", &[]);
        let delta = capture.take_delta();
        journal.append(&delta).unwrap();
        kb.apply_delta(&delta).unwrap();
        let live = ntriples::to_string(&kb);
        drop(journal);

        // "Restart": a fresh store is brought up from the directory.
        let mut kb2 = mini_kb();
        let (journal2, report) = Journal::open(&dir, &mut kb2, JournalConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(journal2.lag(), 0, "boot auto-compacts");
        assert_eq!(ntriples::to_string(&kb2), live);
        assert_eq!(kb2.version(), kb.version());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_write_errors_retry_and_succeed() {
        let dir = temp_dir("retry");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        journal
            .set_fault_plan(WriteFaultPlan {
                write_error_rate: 0.4,
                seed: 7,
                ..WriteFaultPlan::default()
            })
            .unwrap();
        for n in 0..20 {
            let mut capture = kb.clone();
            capture.begin_delta_capture();
            capture.add_entity(&format!("R{n}"), &format!("R{n}"), &[]);
            let delta = capture.take_delta();
            // With 3 retries at 40% failure, all 20 should make it
            // through (p(fail) per record ≈ 0.4^4 ≈ 2.6%; seed 7 happens
            // to clear them all — the point is determinism, not luck).
            if journal.append(&delta).is_ok() {
                kb.apply_delta(&delta).unwrap();
            }
        }
        assert!(journal.stats().retries > 0, "faults actually fired");
        let (recovered, _) = Kb::recover(&dir).unwrap();
        assert_eq!(ntriples::to_string(&recovered), ntriples::to_string(&kb));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_writes_never_leave_torn_committed_state() {
        let dir = temp_dir("short");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        journal
            .set_fault_plan(WriteFaultPlan {
                short_write_rate: 0.5,
                seed: 1234,
                ..WriteFaultPlan::default()
            })
            .unwrap();
        let mut acked = 0u64;
        for n in 0..30 {
            let mut capture = kb.clone();
            capture.begin_delta_capture();
            capture.add_entity(&format!("S{n}"), &format!("S{n}"), &[]);
            let delta = capture.take_delta();
            if journal.append(&delta).is_ok() {
                kb.apply_delta(&delta).unwrap();
                acked += 1;
            }
        }
        assert!(acked > 0);
        // Every acked record recovers; rewind scrubbed the rest.
        let (recovered, rep) = Kb::recover(&dir).unwrap();
        assert_eq!(rep.replayed_records, acked);
        assert_eq!(rep.truncated_bytes, 0, "rewind leaves no torn bytes");
        assert_eq!(ntriples::to_string(&recovered), ntriples::to_string(&kb));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_writes_truncate_to_the_intact_prefix_on_replay() {
        let dir = temp_dir("torn");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        // A torn write claims success, poisoning the tail from that
        // point on. Everything before the first tear must recover.
        journal
            .set_fault_plan(WriteFaultPlan {
                torn_write_rate: 0.2,
                seed: 99,
                ..WriteFaultPlan::default()
            })
            .unwrap();
        let mut pre_tear: Option<String> = None;
        let mut tear_seen = false;
        for n in 0..10 {
            let mut capture = kb.clone();
            capture.begin_delta_capture();
            capture.add_entity(&format!("T{n}"), &format!("T{n}"), &[]);
            let delta = capture.take_delta();
            journal.append(&delta).unwrap();
            kb.apply_delta(&delta).unwrap();
            let stats_before = tear_seen;
            tear_seen = journal_has_tear(&dir, &journal);
            if !tear_seen && !stats_before {
                pre_tear = Some(ntriples::to_string(&kb));
            }
        }
        assert!(tear_seen, "seed 99 must tear at least once in 10 appends");
        let (recovered, rep) = Kb::recover(&dir).unwrap();
        assert!(rep.truncated_bytes > 0);
        assert_eq!(
            ntriples::to_string(&recovered),
            pre_tear.expect("at least one clean append before the tear"),
            "recovery yields exactly the pre-tear prefix"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn journal_has_tear(dir: &Path, journal: &Journal) -> bool {
        let bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let scanned = scan(&bytes).unwrap();
        scanned.truncated_bytes > 0 || (scanned.records.len() as u64) < journal.lag()
    }

    #[test]
    fn sync_failures_exhausting_retries_refuse_the_append() {
        let dir = temp_dir("sync-fail");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        journal
            .set_fault_plan(WriteFaultPlan {
                sync_error_rate: 1.0,
                seed: 1,
                ..WriteFaultPlan::default()
            })
            .unwrap();
        let mut capture = kb.clone();
        capture.begin_delta_capture();
        capture.add_entity("Nope", "Nope", &[]);
        let delta = capture.take_delta();
        let err = journal.append(&delta).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err}");
        assert!(!journal.is_broken(), "rewind worked; journal still usable");
        // The unacked record is cleanly absent.
        let (recovered, rep) = Kb::recover(&dir).unwrap();
        assert_eq!(rep.replayed_records, 0);
        assert_eq!(ntriples::to_string(&recovered), ntriples::to_string(&kb));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_mirrors_crowd_conventions() {
        assert!(WriteFaultPlan::default().is_inert());
        let knobs = [
            WriteFaultPlan {
                write_error_rate: 0.1,
                ..WriteFaultPlan::default()
            },
            WriteFaultPlan {
                short_write_rate: 0.1,
                ..WriteFaultPlan::default()
            },
            WriteFaultPlan {
                torn_write_rate: 0.1,
                ..WriteFaultPlan::default()
            },
            WriteFaultPlan {
                sync_error_rate: 0.1,
                ..WriteFaultPlan::default()
            },
        ];
        for plan in knobs {
            assert!(!plan.is_inert());
            assert!(plan.validate().is_ok());
        }
        let bad = WriteFaultPlan {
            torn_write_rate: 1.5,
            ..WriteFaultPlan::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(JournalError::InvalidRate {
                what: "torn_write_rate",
                ..
            })
        ));
    }

    #[test]
    fn fault_writer_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut w = FaultWriter::new(
                Box::new(MemFile::default()),
                WriteFaultPlan {
                    write_error_rate: 0.3,
                    short_write_rate: 0.2,
                    sync_error_rate: 0.25,
                    seed,
                    ..WriteFaultPlan::default()
                },
            )
            .unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..50 {
                outcomes.push(w.append(b"0123456789").is_ok());
                outcomes.push(w.sync().is_ok());
            }
            (outcomes, w.counters())
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42).0, run(43).0, "different seed, different schedule");
        let (_, counters) = run(42);
        assert!(counters.write_errors > 0);
        assert!(counters.short_writes > 0);
        assert!(counters.sync_errors > 0);
    }

    #[test]
    fn stale_records_after_checkpoint_are_skipped() {
        let dir = temp_dir("stale");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        let mut capture = kb.clone();
        capture.begin_delta_capture();
        capture.add_entity("Zola", "Zola", &[]);
        let delta = capture.take_delta();
        journal.append(&delta).unwrap();
        kb.apply_delta(&delta).unwrap();
        journal.checkpoint(&mut kb).unwrap();
        // Simulate the crash window: rewrite the journal to contain the
        // pre-checkpoint record again (seq 1 <= checkpoint seq 1).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&frame(&encode_payload(1, &delta)));
        fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        let (recovered, rep) = Kb::recover(&dir).unwrap();
        assert_eq!(rep.skipped_stale, 1);
        assert_eq!(rep.replayed_records, 0);
        assert_eq!(ntriples::to_string(&recovered), ntriples::to_string(&kb));
        assert_eq!(recovered.version(), kb.version());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_dir_round_trips() {
        let dir = temp_dir("verify");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        let mut capture = kb.clone();
        capture.begin_delta_capture();
        capture.add_entity("Vieri", "Vieri", &[]);
        let delta = capture.take_delta();
        journal.append(&delta).unwrap();
        kb.apply_delta(&delta).unwrap();
        let (kb2, rep) = verify_dir(&dir).unwrap();
        assert_eq!(rep.replayed_records, 1);
        assert_eq!(ntriples::to_string(&kb2), ntriples::to_string(&kb));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn maybe_compact_triggers_on_threshold() {
        let dir = temp_dir("auto-compact");
        let mut kb = mini_kb();
        let config = JournalConfig { compact_every: 3 };
        let (mut journal, _) = Journal::open(&dir, &mut kb, config).unwrap();
        for n in 0..3 {
            let mut capture = kb.clone();
            capture.begin_delta_capture();
            capture.add_entity(&format!("C{n}"), &format!("C{n}"), &[]);
            let delta = capture.take_delta();
            journal.append(&delta).unwrap();
            kb.apply_delta(&delta).unwrap();
        }
        assert_eq!(journal.lag(), 3);
        assert!(journal.maybe_compact(&mut kb).unwrap());
        assert_eq!(journal.lag(), 0);
        assert!(!journal.maybe_compact(&mut kb).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn broken_journal_refuses_appends() {
        struct DoomedRewind;
        impl JournalFile for DoomedRewind {
            fn append(&mut self, _: &[u8]) -> io::Result<()> {
                Err(io::Error::other("append always fails"))
            }
            fn sync(&mut self) -> io::Result<()> {
                Ok(())
            }
            fn rewind_to(&mut self, _: u64) -> io::Result<()> {
                Err(io::Error::other("rewind also fails"))
            }
        }
        let dir = temp_dir("broken");
        let mut kb = mini_kb();
        let (mut journal, _) = Journal::open(&dir, &mut kb, JournalConfig::default()).unwrap();
        journal.file = Box::new(DoomedRewind);
        let mut capture = kb.clone();
        capture.begin_delta_capture();
        capture.add_entity("Baggio", "Baggio", &[]);
        let delta = capture.take_delta();
        assert!(matches!(journal.append(&delta), Err(JournalError::Io(_))));
        assert!(journal.is_broken());
        assert!(matches!(journal.append(&delta), Err(JournalError::Broken)));
        assert!(matches!(
            journal.checkpoint(&mut kb),
            Err(JournalError::Broken)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_and_sources() {
        let e = JournalError::from(io::Error::other("disk on fire"));
        assert!(e.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&e).is_some());
        let e = JournalError::InvalidRate {
            what: "sync_error_rate",
            value: 2.0,
        };
        assert!(e.to_string().contains("sync_error_rate"));
        assert!(JournalError::Broken.to_string().contains("broken"));
    }
}
