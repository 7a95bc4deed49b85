//! Run metrics: lock-free atomic counters.
//!
//! The runtime keeps its observability surface deliberately light —
//! relaxed atomic counters on the job path — so metering never
//! perturbs the throughput it measures. Wall-clock timing belongs to
//! the `perfbench` harness, not to the runtime.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, lock-free counters updated by every worker.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
    budget_rejections: AtomicU64,
    worker_respawns: AtomicU64,
    journal_records: AtomicU64,
    journal_lost: AtomicU64,
    journal_retries: AtomicU64,
    resumed_jobs: AtomicU64,
    stalled_workers: AtomicU64,
    deadline_kills: AtomicU64,
    nonfinite_quarantined: AtomicU64,
    corruption_caught: AtomicU64,
}

impl RuntimeMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> RuntimeMetrics {
        RuntimeMetrics::default()
    }

    /// Records a submitted job.
    pub fn record_submitted(&self, n: u64) {
        self.jobs_submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one finished job: success/failure and cache disposition.
    pub fn record_finished(&self, ok: bool, from_cache: bool) {
        if ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        if from_cache {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one retry of a transiently-failed job.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` faults injected into a job by an armed plan.
    pub fn record_faults_injected(&self, n: u64) {
        if n > 0 {
            self.faults_injected.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one job rejected by the per-job sample budget.
    pub fn record_budget_rejection(&self) {
        self.budget_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` dead workers replaced by the pool's healing pass.
    pub fn record_worker_respawns(&self, n: u64) {
        if n > 0 {
            self.worker_respawns.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` records durably appended to a run journal.
    pub fn record_journal_records(&self, n: u64) {
        if n > 0 {
            self.journal_records.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one journal retired mid-run: IO failed past its retry
    /// budget, so the fleet finished non-durably (metered graceful
    /// degradation, never silent).
    pub fn record_journal_lost(&self) {
        self.journal_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` transient journal-IO retries absorbed by bounded
    /// deterministic backoff before the write eventually succeeded.
    pub fn record_journal_retries(&self, n: u64) {
        if n > 0 {
            self.journal_retries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` jobs skipped on resume because the journal already
    /// held their completed results.
    pub fn record_resumed_jobs(&self, n: u64) {
        if n > 0 {
            self.resumed_jobs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one worker that went silent past its deadline and was
    /// retired by the watchdog.
    pub fn record_stalled_worker(&self) {
        self.stalled_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one job cancelled at its soft deadline.
    pub fn record_deadline_kill(&self) {
        self.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one job whose result contained NaN/±Inf and was
    /// quarantined before reaching the cache or journal.
    pub fn record_nonfinite_quarantined(&self) {
        self.nonfinite_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` results caught by an integrity-checksum hop (journal
    /// append, shard completion) before they could reach the journal or
    /// a vote. Quorum vote catches are reported by the quorum layer.
    pub fn record_corruption_caught(&self, n: u64) {
        if n > 0 {
            self.corruption_caught.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A consistent-enough point-in-time copy of every counter.
    /// `cache_evictions` lives in the cache, not here; the runtime
    /// merges it in when it assembles a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            budget_rejections: self.budget_rejections.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            cache_evictions: 0,
            journal_records: self.journal_records.load(Ordering::Relaxed),
            journal_lost: self.journal_lost.load(Ordering::Relaxed),
            journal_retries: self.journal_retries.load(Ordering::Relaxed),
            resumed_jobs: self.resumed_jobs.load(Ordering::Relaxed),
            stalled_workers: self.stalled_workers.load(Ordering::Relaxed),
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            cache_corrupt_dropped: 0,
            nonfinite_quarantined: self.nonfinite_quarantined.load(Ordering::Relaxed),
            corruption_caught: self.corruption_caught.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the runtime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs handed to the pool since runtime creation.
    pub jobs_submitted: u64,
    /// Jobs finished successfully.
    pub jobs_completed: u64,
    /// Jobs finished with a per-job error.
    pub jobs_failed: u64,
    /// Jobs served from the memo cache.
    pub cache_hits: u64,
    /// Jobs that had to run the simulation.
    pub cache_misses: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Individual faults injected by armed plans, across all jobs.
    pub faults_injected: u64,
    /// Jobs rejected by the per-job sample budget.
    pub budget_rejections: u64,
    /// Dead workers replaced by the pool's healing pass.
    pub worker_respawns: u64,
    /// Memo-cache entries evicted by the capacity bound (merged in
    /// from the cache by the runtime; 0 in raw [`RuntimeMetrics`]
    /// snapshots).
    pub cache_evictions: u64,
    /// Records durably appended to run journals (headers, job
    /// completions, and seals).
    pub journal_records: u64,
    /// Journals retired mid-run after IO failed past its retry budget;
    /// the fleet completed non-durably (metered graceful degradation).
    pub journal_lost: u64,
    /// Transient journal-IO retries absorbed by bounded deterministic
    /// backoff before the write eventually succeeded or gave up.
    pub journal_retries: u64,
    /// Jobs skipped on resume because the journal already held their
    /// completed results.
    pub resumed_jobs: u64,
    /// Workers retired by the watchdog after going silent past the
    /// job deadline.
    pub stalled_workers: u64,
    /// Jobs cancelled at their soft deadline.
    pub deadline_kills: u64,
    /// Persisted-cache entries dropped at load time for failing
    /// checksum or validation (merged in from the cache by the
    /// runtime; 0 in raw [`RuntimeMetrics`] snapshots).
    pub cache_corrupt_dropped: u64,
    /// Jobs quarantined for producing NaN/±Inf results.
    pub nonfinite_quarantined: u64,
    /// Results whose produce-time checksum failed at an integrity hop
    /// (journal append, shard completion).
    pub corruption_caught: u64,
}

impl MetricsSnapshot {
    /// Fraction of finished jobs served from cache, in `[0, 1]`;
    /// zero when nothing has finished.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.record_submitted(3);
        m.record_finished(true, false);
        m.record_finished(true, true);
        m.record_finished(false, false);
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 3);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert!((s.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = RuntimeMetrics::new().snapshot();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.faults_injected, 0);
        assert_eq!(s.budget_rejections, 0);
        assert_eq!(s.worker_respawns, 0);
        assert_eq!(s.cache_evictions, 0);
    }

    #[test]
    fn robustness_counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.record_retry();
        m.record_retry();
        m.record_faults_injected(3);
        m.record_faults_injected(0); // no-op
        m.record_budget_rejection();
        m.record_worker_respawns(2);
        m.record_corruption_caught(3);
        m.record_corruption_caught(0); // no-op
        let s = m.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.faults_injected, 3);
        assert_eq!(s.budget_rejections, 1);
        assert_eq!(s.worker_respawns, 2);
        assert_eq!(s.corruption_caught, 3);
    }

    #[test]
    fn journal_loss_counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.record_journal_lost();
        m.record_journal_retries(4);
        m.record_journal_retries(0); // no-op
        m.record_journal_records(7);
        let s = m.snapshot();
        assert_eq!(s.journal_lost, 1);
        assert_eq!(s.journal_retries, 4);
        assert_eq!(s.journal_records, 7);
    }
}
