//! The memoizing result cache.
//!
//! Catalog calibrations are pure functions of `(sensor configuration,
//! seed, armed fault plan)`: the same entry calibrated under the same
//! seed and plan produces the same [`CalibrationOutcome`] bit for bit.
//! Benches, tables, and examples re-run the same configurations
//! constantly, so the runtime memoizes outcomes behind a sharded map
//! keyed by `(sensor id, protocol fingerprint, plan fingerprint, seed)`.
//!
//! The protocol fingerprint ([`bios_core::catalog::CatalogEntry::protocol_fingerprint`])
//! covers every field that feeds the calibration — electrode, film
//! recipe, technique, sweep — so two entries sharing an id but differing
//! in recipe can never alias each other's results. The plan fingerprint
//! ([`bios_faults::FaultPlan::fingerprint`]) does the same for injected
//! faults: a faulted outcome can never masquerade as a healthy one
//! (jobs whose realization is healthy store under plan fingerprint 0,
//! because their outcome *is* the healthy outcome).
//!
//! The cache is **bounded**: each shard evicts its least-recently-used
//! entry once it exceeds its share of the configured capacity, so a
//! long-lived runtime sweeping thousands of seeds cannot grow without
//! limit. Evictions are counted and surfaced through the runtime
//! metrics.
//!
//! The cache is also **persistable**: [`ResultCache::save`] writes every
//! entry to a checksummed snapshot file (same frame discipline as the
//! run journal) and [`ResultCache::load`] reads one back, *dropping and
//! counting* — never serving — any entry that fails its checksum or
//! decodes to non-finite physics.

// A durability module: an indexing panic on a torn frame would lose
// the journal or snapshot mid-write, so index with `.get(..)`.
#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bios_analytics::{CalibrationCurve, CalibrationPoint, CalibrationSummary};
use bios_core::catalog::CalibrationOutcome;
use bios_recover::codec::{read_frame, write_frame, FrameRead};
use bios_recover::sim::{RealIo, StorageIo};
use bios_recover::{ByteReader, ByteWriter, CodecError, Fnv1a};
use bios_units::{Amperes, ConcentrationRange, Molar, Sensitivity, SquareCm};

/// First bytes of a cache snapshot file.
const CACHE_MAGIC: &[u8; 8] = b"BIOSCSH1";

/// Snapshot format version carried in the header frame.
const CACHE_VERSION: u32 = 1;

/// Number of independent shards; a small power of two keeps lock
/// contention negligible at any plausible worker count.
const SHARDS: usize = 16;

/// Default total capacity (entries across all shards) when the caller
/// does not configure one.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The cache key: which sensor, which exact protocol, which fault
/// plan, which seed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Catalog id of the sensor (e.g. `"glucose/ours"`).
    pub sensor: String,
    /// Fingerprint of the full calibration recipe.
    pub protocol: u64,
    /// Fingerprint of the armed fault plan, or 0 when the job ran
    /// healthy (no plan, or a plan that realized nothing for this job).
    pub plan: u64,
    /// The noise seed of the run.
    pub seed: u64,
}

/// One shard: the map plus a monotonic touch counter. An entry's stamp
/// is the shard tick at its last get/insert, so the minimum stamp is
/// the least-recently-used entry. The third field is the entry's
/// integrity checksum, stamped at insert and re-verified at every
/// serve (see [`outcome_checksum`]).
#[derive(Debug, Default)]
struct Shard {
    map: BTreeMap<CacheKey, (Arc<CalibrationOutcome>, u64, u64)>,
    tick: u64,
}

/// Integrity checksum of a memoized outcome: FNV-1a over the exact
/// `{:?}` rendering of its summary that the fleet digest hashes. A
/// cache hit whose recomputed checksum no longer matches its insert
/// stamp was corrupted *at rest* — it is dropped and counted, never
/// served, because a finite-but-wrong summary would sail through
/// `NonFinite` quarantine and poison every later run that hits it.
fn outcome_checksum(outcome: &CalibrationOutcome) -> u64 {
    Fnv1a::hash_fmt(format_args!("{:?}", outcome.summary))
}

/// A sharded, thread-safe, bounded memo table of calibration outcomes.
///
/// Outcomes are stored behind `Arc` so a cache hit is a pointer clone,
/// not a deep copy of the calibration curve.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound; `usize::MAX` when unbounded.
    shard_capacity: usize,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
}

/// What [`ResultCache::load`] did with a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Entries that passed checksum + validation and were inserted.
    pub loaded: u64,
    /// Entries dropped for failing their checksum, decoding badly, or
    /// carrying non-finite/inconsistent physics. Never served.
    pub corrupt_dropped: u64,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new()
    }
}

impl ResultCache {
    /// Creates an empty cache bounded at [`DEFAULT_CAPACITY`] entries.
    #[must_use]
    pub fn new() -> ResultCache {
        ResultCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` total entries
    /// (0 means unbounded). The bound is enforced per shard, so the
    /// effective total can exceed `capacity` by at most `SHARDS − 1`
    /// rounding entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> ResultCache {
        let shard_capacity = if capacity == 0 {
            usize::MAX
        } else {
            capacity.div_ceil(SHARDS).max(1)
        };
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`% SHARDS` keeps the index in bounds"
    )]
    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Looks up a memoized outcome, refreshing its recency stamp. The
    /// entry's integrity checksum is re-verified before it is served; a
    /// mismatch drops the entry (counted in
    /// [`ResultCache::corrupt_dropped`]) and reports a miss, so the
    /// caller recomputes instead of consuming rotten bytes.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CalibrationOutcome>> {
        let mut shard = self.shard(key).lock().ok()?;
        shard.tick += 1;
        let tick = shard.tick;
        let served = {
            let (outcome, stamp, sum) = shard.map.get_mut(key)?;
            if outcome_checksum(outcome) == *sum {
                *stamp = tick;
                Some(Arc::clone(outcome))
            } else {
                None
            }
        };
        if served.is_none() {
            shard.map.remove(key);
            self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        }
        served
    }

    /// Stores an outcome, returning the shared handle. Evicts the
    /// shard's least-recently-used entry when the shard is over
    /// capacity.
    pub fn insert(&self, key: CacheKey, outcome: CalibrationOutcome) -> Arc<CalibrationOutcome> {
        let sum = outcome_checksum(&outcome);
        let outcome = Arc::new(outcome);
        if let Ok(mut shard) = self.shard(&key).lock() {
            shard.tick += 1;
            let tick = shard.tick;
            shard.map.insert(key, (Arc::clone(&outcome), tick, sum));
            while shard.map.len() > self.shard_capacity {
                let oldest = shard
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp, _))| *stamp)
                    .map(|(k, _)| k.clone());
                match oldest {
                    Some(k) => {
                        shard.map.remove(&k);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        outcome
    }

    /// Number of memoized outcomes across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map_or(0, |shard| shard.map.len()))
            .sum()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the capacity bound since creation.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Snapshot entries dropped by [`ResultCache::load`] for corruption
    /// or failed validation since creation.
    #[must_use]
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped.load(Ordering::Relaxed)
    }

    /// Test hook: swaps the stored outcome under `key` *without*
    /// updating its integrity checksum — simulating silent at-rest
    /// corruption of a resident entry.
    #[cfg(test)]
    fn tamper(&self, key: &CacheKey, outcome: CalibrationOutcome) {
        if let Ok(mut shard) = self.shard(key).lock() {
            if let Some(entry) = shard.map.get_mut(key) {
                entry.0 = Arc::new(outcome);
            }
        }
    }

    /// Drops every memoized outcome (does not count as evictions).
    pub fn clear(&self) {
        for shard in &self.shards {
            if let Ok(mut shard) = shard.lock() {
                shard.map.clear();
            }
        }
    }

    /// Writes every entry to `path` as a checksummed snapshot and
    /// returns the entry count. Entries are written in recency order
    /// (least-recently-used first, per shard), so reloading them in file
    /// order reproduces each shard's eviction order.
    ///
    /// The replace is **atomic**: the snapshot is written to
    /// `<path>.tmp`, synced to stable storage, and renamed over the
    /// destination — a crash at any point leaves either the previous
    /// good snapshot or the new one, never a half-written file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the cache itself cannot fail.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<u64> {
        self.save_with(&RealIo, path)
    }

    /// [`ResultCache::save`] on an explicit storage backend.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::save`].
    pub fn save_with(&self, backend: &dyn StorageIo, path: impl AsRef<Path>) -> io::Result<u64> {
        let path = path.as_ref();
        let mut entries: Vec<(CacheKey, Arc<CalibrationOutcome>)> = Vec::new();
        for shard in &self.shards {
            let Ok(shard) = shard.lock() else { continue };
            let mut in_shard: Vec<_> = shard
                .map
                .iter()
                .map(|(k, (outcome, stamp, _))| (*stamp, k.clone(), Arc::clone(outcome)))
                .collect();
            in_shard.sort_by_key(|(stamp, _, _)| *stamp);
            entries.extend(in_shard.into_iter().map(|(_, k, o)| (k, o)));
        }
        // Serialize fully in memory first: the file sees whole frames
        // only, so a short write can never interleave with encoding.
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        buf.extend_from_slice(CACHE_MAGIC);
        let mut header = ByteWriter::new();
        header.put_u32(CACHE_VERSION);
        header.put_u64(entries.len() as u64);
        write_frame(&mut buf, header.bytes())?;
        for (key, outcome) in &entries {
            write_frame(&mut buf, &encode_entry(key, outcome))?;
        }
        let tmp = snapshot_tmp_path(path);
        let mut file = backend.create(&tmp)?;
        file.write_all(&buf)?;
        file.flush()?;
        file.sync_all()?;
        drop(file);
        backend.rename(&tmp, path)?;
        Ok(entries.len() as u64)
    }

    /// Loads a snapshot written by [`ResultCache::save`] into this
    /// cache, inserting entries in file order. Any entry that fails its
    /// checksum, decodes badly, or carries non-finite physics is
    /// dropped and counted — it can never be served. Framing after the
    /// first torn or corrupt frame is untrusted, so loading stops there
    /// and the undelivered remainder counts as dropped.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as-is; a file that is not a cache
    /// snapshot at all (bad magic, unreadable header, or unknown
    /// version) is [`io::ErrorKind::InvalidData`].
    pub fn load(&self, path: impl AsRef<Path>) -> io::Result<CacheLoadReport> {
        self.load_with(&RealIo, path)
    }

    /// [`ResultCache::load`] on an explicit storage backend.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::load`].
    pub fn load_with(
        &self,
        backend: &dyn StorageIo,
        path: impl AsRef<Path>,
    ) -> io::Result<CacheLoadReport> {
        let bytes = backend.read_all(path.as_ref())?;
        let mut r = io::Cursor::new(bytes);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| invalid_snapshot("file too short for a cache snapshot"))?;
        if &magic != CACHE_MAGIC {
            return Err(invalid_snapshot("not a cache snapshot (bad magic)"));
        }
        let header = match read_frame(&mut r)? {
            FrameRead::Payload(p) => p,
            _ => return Err(invalid_snapshot("cache snapshot header unreadable")),
        };
        let mut hr = ByteReader::new(&header);
        let (version, declared) = match (hr.get_u32(), hr.get_u64()) {
            (Ok(v), Ok(n)) => (v, n),
            _ => return Err(invalid_snapshot("cache snapshot header truncated")),
        };
        if version != CACHE_VERSION {
            return Err(invalid_snapshot("unknown cache snapshot version"));
        }
        let mut loaded = 0u64;
        let mut dropped = 0u64;
        for _ in 0..declared {
            match read_frame(&mut r)? {
                FrameRead::Payload(payload) => match decode_entry(&payload) {
                    Ok((key, outcome)) => {
                        self.insert(key, outcome);
                        loaded += 1;
                    }
                    Err(_) => dropped += 1,
                },
                // Torn or corrupt framing: nothing after it can be
                // trusted, so the rest of the declared entries are lost.
                FrameRead::Eof | FrameRead::TornTail | FrameRead::Corrupt(_) => {
                    dropped += declared - loaded - dropped;
                    break;
                }
            }
        }
        self.corrupt_dropped.fetch_add(dropped, Ordering::Relaxed);
        Ok(CacheLoadReport {
            loaded,
            corrupt_dropped: dropped,
        })
    }
}

fn invalid_snapshot(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// `<path>.tmp` — the staging file of the atomic snapshot replace.
fn snapshot_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Serializes one cache entry. Every float travels as its IEEE-754 bit
/// pattern, so a load is bit-exact and a reloaded cache serves the same
/// bytes the original computed.
fn encode_entry(key: &CacheKey, outcome: &CalibrationOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&key.sensor);
    w.put_u64(key.protocol);
    w.put_u64(key.plan);
    w.put_u64(key.seed);
    let s = &outcome.summary;
    w.put_f64(s.sensitivity.as_micro_amps_per_milli_molar_square_cm());
    w.put_f64(s.linear_range.low().as_molar());
    w.put_f64(s.linear_range.high().as_molar());
    w.put_f64(s.detection_limit.as_molar());
    w.put_f64(s.r_squared);
    let curve = &outcome.curve;
    w.put_f64(curve.electrode_area().as_square_cm());
    w.put_f64(curve.blank_sigma().as_amps());
    w.put_u32(curve.points().len() as u32);
    for point in curve.points() {
        w.put_f64(point.concentration().as_molar());
        w.put_u32(point.replicates().len() as u32);
        for i in point.replicates() {
            w.put_f64(i.as_amps());
        }
    }
    w.into_bytes()
}

/// Deserializes and *validates* one cache entry. Checksummed framing
/// already rules out random damage; this guards the semantic layer —
/// non-finite floats, inverted ranges, or empty replicate sets — so a
/// snapshot written by a buggy or hostile writer still cannot poison
/// the cache.
fn decode_entry(payload: &[u8]) -> Result<(CacheKey, CalibrationOutcome), CodecError> {
    let mut r = ByteReader::new(payload);
    let key = CacheKey {
        sensor: r.get_str()?,
        protocol: r.get_u64()?,
        plan: r.get_u64()?,
        seed: r.get_u64()?,
    };
    let sensitivity = finite(r.get_f64()?)?;
    let low = finite(r.get_f64()?)?;
    let high = finite(r.get_f64()?)?;
    let detection_limit = finite(r.get_f64()?)?;
    let r_squared = finite(r.get_f64()?)?;
    let linear_range = ConcentrationRange::new(Molar::from_molar(low), Molar::from_molar(high))
        .map_err(|_| CodecError::Truncated)?;
    let summary = CalibrationSummary {
        sensitivity: Sensitivity::new(sensitivity),
        linear_range,
        detection_limit: Molar::from_molar(detection_limit),
        r_squared,
    };
    let area = finite(r.get_f64()?)?;
    let blank_sigma = finite(r.get_f64()?)?;
    let n_points = r.get_u32()? as usize;
    let mut points = Vec::with_capacity(n_points.min(1024));
    for _ in 0..n_points {
        let concentration = finite(r.get_f64()?)?;
        let n_reps = r.get_u32()? as usize;
        if n_reps == 0 {
            // `CalibrationPoint::new` panics on empty replicates; a
            // snapshot can never be allowed to trigger that.
            return Err(CodecError::Truncated);
        }
        let mut replicates = Vec::with_capacity(n_reps.min(1024));
        for _ in 0..n_reps {
            replicates.push(Amperes::from_amps(finite(r.get_f64()?)?));
        }
        points.push(CalibrationPoint::new(
            Molar::from_molar(concentration),
            replicates,
        ));
    }
    if r.remaining() != 0 {
        return Err(CodecError::Truncated);
    }
    let curve = CalibrationCurve::new(
        points,
        SquareCm::from_square_cm(area),
        Amperes::from_amps(blank_sigma),
    );
    Ok((key, CalibrationOutcome { summary, curve }))
}

/// Rejects NaN/±Inf at the decode boundary.
fn finite(v: f64) -> Result<f64, CodecError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(CodecError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use bios_core::catalog;

    use super::*;

    fn key(seed: u64) -> CacheKey {
        let entry = catalog::our_glucose_sensor();
        CacheKey {
            sensor: entry.id().to_owned(),
            protocol: entry.protocol_fingerprint(),
            plan: 0,
            seed,
        }
    }

    #[test]
    fn round_trips_an_outcome() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        assert!(cache.get(&key(7)).is_none());
        cache.insert(key(7), outcome.clone());
        let hit = cache.get(&key(7)).expect("hit");
        assert_eq!(hit.summary, outcome.summary);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinguishes_seeds() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        cache.insert(key(7), outcome);
        assert!(cache.get(&key(8)).is_none());
    }

    #[test]
    fn distinguishes_fault_plans() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        cache.insert(key(7), outcome);
        let mut faulted = key(7);
        faulted.plan = 0xDEAD_BEEF;
        assert!(
            cache.get(&faulted).is_none(),
            "a faulted job must never be served the healthy outcome"
        );
    }

    #[test]
    fn tampered_entry_is_dropped_at_serve_never_served() {
        let cache = ResultCache::new();
        let entry = catalog::our_glucose_sensor();
        let honest = entry.run_calibration(7).unwrap();
        cache.insert(key(7), honest.clone());
        assert!(cache.get(&key(7)).is_some(), "sanity: entry serves");
        // Swap in a different (finite, plausible) outcome behind the
        // checksum's back: exactly the silent corruption NonFinite
        // quarantine cannot see.
        let impostor = entry.run_calibration(8).unwrap();
        assert_ne!(
            format!("{:?}", honest.summary),
            format!("{:?}", impostor.summary)
        );
        cache.tamper(&key(7), impostor);
        assert!(
            cache.get(&key(7)).is_none(),
            "tampered entry must be a miss, not a serve"
        );
        assert_eq!(cache.corrupt_dropped(), 1);
        assert!(
            cache.get(&key(7)).is_none(),
            "the rotten entry is gone, not re-served"
        );
        assert_eq!(cache.corrupt_dropped(), 1, "dropped exactly once");
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        for seed in 0..40 {
            cache.insert(key(seed), outcome.clone());
        }
        assert_eq!(cache.len(), 40);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 0, "clear is not eviction");
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        // Capacity 16 → one entry per shard; every shard over-fills
        // quickly with 200 distinct seeds.
        let cache = ResultCache::with_capacity(16);
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        for seed in 0..200 {
            cache.insert(key(seed), outcome.clone());
        }
        assert!(cache.len() <= 16, "len {} exceeds capacity", cache.len());
        assert!(cache.evictions() >= 184, "evictions {}", cache.evictions());
    }

    #[test]
    fn recently_touched_entries_survive_eviction() {
        // 64 entries → 4 per shard: room for the hot entry plus churn.
        let cache = ResultCache::with_capacity(64);
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        cache.insert(key(0), outcome.clone());
        // Keep touching seed 0 while flooding; it must stay resident
        // even as its shard cycles through colliding keys.
        for seed in 1..400 {
            let _ = cache.get(&key(0));
            cache.insert(key(seed), outcome.clone());
        }
        assert!(cache.get(&key(0)).is_some(), "hot entry was evicted");
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bios-cache-{tag}-{}.snap", std::process::id()))
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let cache = ResultCache::new();
        let entry = catalog::our_glucose_sensor();
        for seed in 0..5 {
            cache.insert(key(seed), entry.run_calibration(seed).unwrap());
        }
        let path = temp_path("roundtrip");
        assert_eq!(cache.save(&path).unwrap(), 5);
        let restored = ResultCache::new();
        let report = restored.load(&path).unwrap();
        assert_eq!(report.loaded, 5);
        assert_eq!(report.corrupt_dropped, 0);
        assert_eq!(restored.len(), 5);
        for seed in 0..5 {
            let orig = cache.get(&key(seed)).unwrap();
            let loaded = restored.get(&key(seed)).unwrap();
            // Bit-exact: the digest contract depends on it.
            assert_eq!(
                format!("{:?}", orig.summary),
                format!("{:?}", loaded.summary)
            );
            assert_eq!(orig.curve, loaded.curve);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupted_snapshot_entries_are_dropped_and_counted_never_served() {
        let cache = ResultCache::new();
        let entry = catalog::our_glucose_sensor();
        for seed in 0..4 {
            cache.insert(key(seed), entry.run_calibration(seed).unwrap());
        }
        let path = temp_path("corrupt");
        cache.save(&path).unwrap();
        // Flip one byte well past the header: at least one entry frame
        // fails its checksum, and everything after it is untrusted.
        let mut bytes = std::fs::read(&path).unwrap();
        let k = bytes.len() / 2;
        bytes[k] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let restored = ResultCache::new();
        let report = restored.load(&path).unwrap();
        assert!(report.corrupt_dropped >= 1, "damage must be counted");
        assert_eq!(report.loaded + report.corrupt_dropped, 4);
        assert_eq!(restored.len() as u64, report.loaded);
        assert_eq!(restored.corrupt_dropped(), report.corrupt_dropped);
        // Every entry that *was* served must be intact.
        for seed in 0..4 {
            if let Some(loaded) = restored.get(&key(seed)) {
                let orig = cache.get(&key(seed)).unwrap();
                assert_eq!(orig.curve, loaded.curve);
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_snapshot_loads_surviving_prefix() {
        let cache = ResultCache::new();
        let entry = catalog::our_glucose_sensor();
        for seed in 0..4 {
            cache.insert(key(seed), entry.run_calibration(seed).unwrap());
        }
        let path = temp_path("torn");
        cache.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let restored = ResultCache::new();
        let report = restored.load(&path).unwrap();
        assert_eq!(report.loaded, 3, "torn last frame drops exactly one");
        assert_eq!(report.corrupt_dropped, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn non_snapshot_file_is_invalid_data_not_a_panic() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let cache = ResultCache::new();
        let err = cache.load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(cache.is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn nonfinite_snapshot_floats_are_quarantined() {
        let cache = ResultCache::new();
        let entry = catalog::our_glucose_sensor();
        cache.insert(key(1), entry.run_calibration(1).unwrap());
        let path = temp_path("nonfinite");
        cache.save(&path).unwrap();
        // Rewrite the single entry frame with its r_squared replaced by
        // NaN and a *recomputed* checksum: framing-valid, semantically
        // poisonous. Layout after the key: 4 f64s then r_squared.
        let bytes = std::fs::read(&path).unwrap();
        let mut cursor = std::io::Cursor::new(&bytes[8..]);
        let FrameRead::Payload(header) = read_frame(&mut cursor).unwrap() else {
            panic!("header frame");
        };
        let FrameRead::Payload(mut payload) = read_frame(&mut cursor).unwrap() else {
            panic!("entry frame");
        };
        let sensor_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let r2_at = 4 + sensor_len + 3 * 8 + 4 * 8;
        payload[r2_at..r2_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut rewritten = Vec::new();
        rewritten.extend_from_slice(CACHE_MAGIC);
        write_frame(&mut rewritten, &header).unwrap();
        write_frame(&mut rewritten, &payload).unwrap();
        std::fs::write(&path, &rewritten).unwrap();
        let restored = ResultCache::new();
        let report = restored.load(&path).unwrap();
        assert_eq!(report.loaded, 0, "NaN entry must never be served");
        assert_eq!(report.corrupt_dropped, 1);
        assert!(restored.is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let cache = ResultCache::with_capacity(0);
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        for seed in 0..300 {
            cache.insert(key(seed), outcome.clone());
        }
        assert_eq!(cache.len(), 300);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn snapshot_tmp_path_appends_suffix() {
        assert_eq!(
            snapshot_tmp_path(Path::new("/var/run/bios.cache")),
            PathBuf::from("/var/run/bios.cache.tmp")
        );
    }

    #[test]
    fn crash_at_every_save_op_never_destroys_the_previous_snapshot() {
        use bios_recover::sim::{is_sim_crash, IoFaultScript, SimIo};
        let entry = catalog::our_glucose_sensor();
        let path = PathBuf::from("/sim/bios.cache");
        let old = ResultCache::new();
        old.insert(key(1), entry.run_calibration(1).unwrap());
        let newer = ResultCache::new();
        newer.insert(key(1), entry.run_calibration(1).unwrap());
        newer.insert(key(2), entry.run_calibration(2).unwrap());

        // Count the ops one save costs (create, write, sync, rename).
        let probe = SimIo::perfect(0);
        old.save_with(&probe, &path).unwrap();
        let save_ops = probe.op_count();
        assert!(save_ops >= 4, "expected at least create/write/sync/rename");

        for k in 0..save_ops {
            // Fresh disk holding the old snapshot, then a save of the
            // newer cache that crashes at its k-th op.
            let io = SimIo::perfect(k);
            old.save_with(&io, &path).unwrap();
            io.set_script(IoFaultScript::crash_at(k, save_ops + k));
            let err = newer.save_with(&io, &path).unwrap_err();
            assert!(is_sim_crash(&err), "op {k} must die by simulated crash");
            io.reboot();
            let loader = ResultCache::new();
            let report = loader.load_with(&io, &path).unwrap();
            assert_eq!(
                report.corrupt_dropped, 0,
                "crash at op {k} must never leave a half-written snapshot served"
            );
            assert_eq!(
                report.loaded, 1,
                "old snapshot must survive every pre-rename crash point (op {k})"
            );
        }

        // And with no crash, the replace commits the new snapshot.
        let io = SimIo::perfect(99);
        old.save_with(&io, &path).unwrap();
        newer.save_with(&io, &path).unwrap();
        let loader = ResultCache::new();
        assert_eq!(loader.load_with(&io, &path).unwrap().loaded, 2);
        assert!(!io.exists(Path::new("/sim/bios.cache.tmp")));
    }
}
