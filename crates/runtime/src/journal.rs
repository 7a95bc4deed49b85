//! Crash-resumable fleet runs on the write-ahead journal.
//!
//! [`Runtime::run_journaled`] wraps [`Runtime::run`] with durability:
//! before any job's result is surfaced, a `JobDone` record carrying its
//! disposition and canonical digest line is appended and flushed to an
//! append-only journal ([`bios_recover::journal`]). If the process dies
//! mid-fleet — `kill -9`, OOM, power loss — [`Runtime::resume`] replays
//! the journal, verifies it belongs to the same run (fleet
//! fingerprint), skips every journaled job, executes only the
//! remainder, and merges the two halves into the **byte-identical**
//! digest an uninterrupted run would have produced, at any worker
//! count.
//!
//! ```
//! use bios_core::catalog;
//! use bios_runtime::{Fleet, Runtime};
//!
//! let dir = std::env::temp_dir();
//! let path = dir.join(format!("bios-doc-{}.journal", std::process::id()));
//! let fleet = Fleet::builder("doc")
//!     .sensors(catalog::glucose_sensors())
//!     .seed(7)
//!     .build();
//! let runtime = Runtime::with_workers(2);
//! let report = runtime.run_journaled(&fleet, &path)?;
//! // The journal is sealed; "resuming" it replays without re-running.
//! let resumed = Runtime::with_workers(1).resume(&fleet, &path)?;
//! assert_eq!(resumed.summaries_digest(), report.summaries_digest());
//! assert_eq!(resumed.executed_jobs, 0);
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), bios_runtime::journal::JournalError>(())
//! ```

// A durability module: an indexing panic on a torn frame would lose
// the journal or snapshot mid-write, so index with `.get(..)`.
#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;
use std::path::Path;

use bios_recover::codec::CodecError;
use bios_recover::fnv1a;
use bios_recover::journal::{Disposition, JournalReader, JournalWriter, Record, RunHeader};
use bios_recover::sim::is_sim_crash;

pub use bios_recover::journal::JournalError;

use crate::fleet::{Fleet, FleetOutcome, FleetReport, Job, JobResult};
use crate::{Runtime, RuntimeMetrics};

/// Whether a journal error is a simulated process crash — the one IO
/// failure that must *not* be absorbed by graceful degradation: the
/// "process" is gone, so the error propagates and the torture harness
/// resumes against the surviving disk.
fn is_crash(e: &JournalError) -> bool {
    matches!(e, JournalError::Io(io_err) if is_sim_crash(io_err))
}

/// Knobs for [`Runtime::run_journaled_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalOptions {
    /// Abort the whole process (as `kill -9` would) immediately after
    /// the Nth `JobDone` record is durably written. This is the
    /// deterministic crash-injection hook the crash-resume gate in CI
    /// uses; `None` (the default) never crashes.
    pub crash_after_jobs: Option<u64>,
}

/// What [`Runtime::resume`] reconstructed: journaled results merged
/// with the freshly executed remainder, in job-index order.
#[derive(Debug)]
pub struct ResumeReport {
    /// Name of the fleet that was resumed.
    pub fleet: String,
    /// Total jobs in the fleet.
    pub total_jobs: usize,
    /// Jobs skipped because the journal already held their results.
    pub resumed_jobs: usize,
    /// Jobs executed fresh by this process.
    pub executed_jobs: usize,
    /// Merged quorum triage across journaled and fresh jobs.
    pub outcome: FleetOutcome,
    /// The fresh sub-run's report, when anything was left to execute.
    pub fresh: Option<FleetReport>,
    digest: String,
}

impl ResumeReport {
    /// The canonical per-job digest of the *whole* fleet — journaled
    /// lines and fresh lines merged in job-index order. Byte-identical
    /// to [`FleetReport::summaries_digest`] of an uninterrupted run.
    #[must_use]
    pub fn summaries_digest(&self) -> &str {
        &self.digest
    }

    /// FNV-1a of [`ResumeReport::summaries_digest`], matching the
    /// digest recorded in the journal's seal.
    #[must_use]
    pub fn digest_fnv(&self) -> u64 {
        fnv1a(self.digest.as_bytes())
    }
}

/// Triage of one result into the journal's three-way disposition.
fn disposition_of(result: &JobResult) -> Disposition {
    if result.outcome.is_err() {
        Disposition::Failed
    } else if result.is_degraded() {
        Disposition::Degraded
    } else {
        Disposition::Completed
    }
}

/// Folds one disposition into a [`FleetOutcome`].
fn tally(outcome: &mut FleetOutcome, disposition: Disposition) {
    match disposition {
        Disposition::Completed => outcome.completed += 1,
        Disposition::Degraded => outcome.degraded += 1,
        Disposition::Failed => outcome.failed += 1,
    }
}

/// The one write-ahead sink both journaled paths feed, and so the one
/// place the storage trichotomy (DESIGN.md §17) is decided for an
/// append or a seal:
///
/// * a result whose produce-time checksum no longer matches is refused
///   ([`JournalError::Corrupt`]) — corruption never becomes durable;
/// * an append or seal that fails past the writer's bounded retries
///   *retires* the journal: `journal_lost` increments and the fleet
///   finishes non-durably with the correct digest;
/// * a simulated crash propagates — the "process" is dead, and resume
///   runs against the surviving bytes.
///
/// Records and IO retries are metered once, when the writer retires
/// or seals.
struct JournalSink<'rt> {
    metrics: &'rt RuntimeMetrics,
    /// `None` once retired (or when no journal could be opened).
    writer: Option<JournalWriter>,
    /// The first crash or integrity failure; later results are ignored.
    fatal: Option<JournalError>,
    /// `JobDone` records appended by this sink.
    appended: u64,
    /// [`JournalOptions::crash_after_jobs`].
    crash_after_jobs: Option<u64>,
}

impl<'rt> JournalSink<'rt> {
    fn new(
        metrics: &'rt RuntimeMetrics,
        writer: Option<JournalWriter>,
        crash_after_jobs: Option<u64>,
    ) -> JournalSink<'rt> {
        JournalSink {
            metrics,
            writer,
            fatal: None,
            appended: 0,
            crash_after_jobs,
        }
    }

    /// Write-ahead point for one completed result, journaled under the
    /// fleet index `index`.
    fn append(&mut self, index: u64, result: &JobResult) {
        if self.fatal.is_some() {
            return; // the run is already doomed; don't pile on
        }
        // End-to-end integrity: the checksum stamped when the result
        // was produced must still match its payload at the
        // journal-append hop. A mismatch means the result mutated in
        // flight — refuse to make the corruption durable.
        if !result.verify_integrity() {
            self.metrics.record_corruption_caught(1);
            self.fatal = Some(JournalError::Corrupt(CodecError::ChecksumMismatch {
                stored: result.integrity,
                computed: result.payload_checksum(),
            }));
            return;
        }
        let Some(w) = self.writer.as_mut() else {
            return; // journal retired: non-durable mode
        };
        let record = Record::job_done(
            index,
            disposition_of(result),
            u64::from(result.attempts),
            result.digest_line(),
        );
        match w.append(&record) {
            Ok(()) => {
                self.appended += 1;
                if self.crash_after_jobs == Some(self.appended) {
                    // The record above is flushed: die exactly as hard
                    // as `kill -9` would, leaving the journal for
                    // `resume` to pick up.
                    std::process::abort();
                }
            }
            Err(e) if is_crash(&e) => self.fatal = Some(e),
            // Transient retries exhausted or the disk is full: retire
            // the journal and let the fleet finish non-durably.
            Err(_) => {
                meter_writer(self.metrics, w, true);
                self.writer = None;
            }
        }
    }

    /// Ends the run: a recorded crash or integrity failure wins;
    /// otherwise a live journal is sealed with `jobs` and the digest
    /// FNV (a failed seal retires it).
    fn seal(self, jobs: u64, digest_fnv: u64) -> Result<(), JournalError> {
        if let Some(e) = self.fatal {
            return Err(e);
        }
        let Some(mut w) = self.writer else {
            return Ok(());
        };
        match w.seal(jobs, digest_fnv) {
            Ok(()) => meter_writer(self.metrics, &w, false),
            Err(e) if is_crash(&e) => return Err(e),
            Err(_) => meter_writer(self.metrics, &w, true),
        }
        Ok(())
    }
}

/// Meters a finished writer's records and IO retries; `retired` also
/// counts the journal as lost.
fn meter_writer(metrics: &RuntimeMetrics, w: &JournalWriter, retired: bool) {
    metrics.record_journal_records(w.records_written());
    metrics.record_journal_retries(w.io_retries());
    if retired {
        metrics.record_journal_lost();
    }
}

impl Runtime {
    /// [`Runtime::run`] with a write-ahead journal at `path` on the
    /// runtime's storage: every result is durably recorded *before* it
    /// is surfaced, and the journal is sealed when the fleet completes.
    /// A run killed mid-fleet leaves a valid, resumable journal behind
    /// — hand it to [`Runtime::resume`].
    ///
    /// # Errors
    ///
    /// As [`Runtime::run_journaled_with`].
    pub fn run_journaled(
        &self,
        fleet: &Fleet,
        path: impl AsRef<Path>,
    ) -> Result<FleetReport, JournalError> {
        self.run_journaled_with(fleet, path, JournalOptions::default())
    }

    /// [`Runtime::run_journaled`] with explicit [`JournalOptions`].
    /// A journal that cannot be **created** is a typed error and
    /// nothing runs; append and seal failures follow the sink's
    /// trichotomy (retire and finish non-durably, or propagate a
    /// simulated crash).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on create failure or simulated crash;
    /// [`JournalError::Corrupt`] when a result fails its in-flight
    /// integrity check.
    pub fn run_journaled_with(
        &self,
        fleet: &Fleet,
        path: impl AsRef<Path>,
        options: JournalOptions,
    ) -> Result<FleetReport, JournalError> {
        let header = RunHeader {
            fleet: fleet.name().to_owned(),
            fingerprint: fleet.fingerprint(),
            jobs: fleet.len() as u64,
        };
        let writer = JournalWriter::create_with(self.storage.as_ref(), path.as_ref(), &header)?;
        let mut sink = JournalSink::new(&self.metrics, Some(writer), options.crash_after_jobs);
        let report = self.run_with_observer(fleet, |result| {
            sink.append(result.index as u64, result);
        });
        let jobs = sink.appended;
        sink.seal(jobs, fnv1a(report.summaries_digest().as_bytes()))?;
        Ok(report)
    }

    /// Resumes a journaled run from the runtime's storage: verifies
    /// the journal belongs to `fleet` (fingerprint over sensors,
    /// protocols, seeds, and fault plan), skips every job the journal
    /// already holds, executes only the remainder, appends their
    /// records, and seals. The merged digest is byte-identical to an
    /// uninterrupted run at any worker count. A journal that is already
    /// sealed replays without executing anything; a failed re-open
    /// retires the journal (the remainder still runs, metered by
    /// `journal_lost`).
    ///
    /// # Errors
    ///
    /// * [`JournalError::BadMagic`] / [`JournalError::HeaderMissing`] /
    ///   [`JournalError::Corrupt`] — the file is not a usable journal;
    /// * [`JournalError::FingerprintMismatch`] — the journal belongs to
    ///   a different run and resuming would alias its results;
    /// * [`JournalError::Io`] — storage failure or simulated crash.
    pub fn resume(
        &self,
        fleet: &Fleet,
        path: impl AsRef<Path>,
    ) -> Result<ResumeReport, JournalError> {
        let io = self.storage.as_ref();
        let path = path.as_ref();
        let loaded = JournalReader::load_with(io, path)?;
        // A corrupt *body* record is not the benign torn tail a crash
        // leaves: its frame checksum failed, so the file was damaged at
        // rest. Surface the checksum error instead of silently
        // truncating and re-executing over untrusted provenance.
        if let Some(e) = loaded.corrupt_error.clone() {
            return Err(JournalError::Corrupt(e));
        }
        let current = fleet.fingerprint();
        if loaded.header.fingerprint != current {
            return Err(JournalError::FingerprintMismatch {
                journal: loaded.header.fingerprint,
                current,
            });
        }
        // Last record wins on (impossible in practice) duplicate
        // indexes; indexes beyond the fleet are ignored rather than
        // trusted.
        let mut done = BTreeMap::new();
        for job in &loaded.jobs {
            if (job.index as usize) < fleet.len() {
                done.insert(job.index, job.clone());
            }
        }
        self.metrics.record_resumed_jobs(done.len() as u64);

        // A sealed journal is terminal — it replays as-is, never
        // re-executes, and is never reopened. Otherwise reopen it for
        // the remainder's records and the seal (even when nothing is
        // left: a crash after the last `JobDone` still needs the seal).
        let writer = if loaded.sealed {
            None
        } else {
            match JournalWriter::open_resume_with(io, path, loaded.valid_len) {
                Ok(w) => Some(w),
                Err(e) if is_crash(&e) => return Err(e),
                Err(_) => {
                    // The journal survived the crash but the disk now
                    // refuses the re-open: execute the remainder
                    // non-durably rather than losing the run.
                    self.metrics.record_journal_lost();
                    None
                }
            }
        };
        let mut sink = JournalSink::new(&self.metrics, writer, None);

        // Build the not-yet-journaled remainder as a dense sub-fleet
        // (the runtime collects by index, so indexes must be 0..k) and
        // keep the mapping back to original fleet indexes.
        let mut orig_of: Vec<usize> = Vec::new();
        let mut sub_jobs: Vec<Job> = Vec::new();
        if !loaded.sealed {
            for job in fleet.jobs() {
                if !done.contains_key(&(job.index as u64)) {
                    orig_of.push(job.index);
                    sub_jobs.push(Job {
                        index: sub_jobs.len(),
                        entry: job.entry.clone(),
                        seed: job.seed,
                    });
                }
            }
        }
        let fresh = (!sub_jobs.is_empty()).then(|| {
            self.run_with_observer(&fleet.with_jobs(sub_jobs), |result| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "result.index < sub_fleet.len() (= orig_of.len()) by worker-pool contract"
                )]
                sink.append(orig_of[result.index] as u64, result);
            })
        });

        // Merge journaled and fresh results into index order.
        let mut fresh_lines: BTreeMap<usize, (Disposition, String)> = BTreeMap::new();
        for result in fresh.iter().flat_map(|report| &report.results) {
            #[expect(
                clippy::indexing_slicing,
                reason = "result.index < sub_fleet.len() (= orig_of.len()) by worker-pool contract"
            )]
            fresh_lines.insert(
                orig_of[result.index],
                (disposition_of(result), result.digest_line()),
            );
        }
        let mut outcome = FleetOutcome::default();
        let mut digest = String::new();
        for job in fleet.jobs() {
            let (disposition, line) = match done.get(&(job.index as u64)) {
                Some(journaled) => (journaled.disposition, journaled.digest_line.clone()),
                None => match fresh_lines.remove(&job.index) {
                    Some(entry) => entry,
                    // Unreachable: every non-journaled job ran fresh.
                    None => continue,
                },
            };
            tally(&mut outcome, disposition);
            digest.push_str(&line);
            digest.push('\n');
        }
        sink.seal(fleet.len() as u64, fnv1a(digest.as_bytes()))?;
        Ok(ResumeReport {
            fleet: fleet.name().to_owned(),
            total_jobs: fleet.len(),
            resumed_jobs: done.len(),
            executed_jobs: orig_of.len(),
            outcome,
            fresh,
            digest,
        })
    }
}
