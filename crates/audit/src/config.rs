//! The rule set and its path-scoping table.
//!
//! Each rule belongs to one of five families keyed to this repo's
//! invariants (DESIGN.md §11 and §16). Panic-freedom, durability-module
//! indexing and `unsafe` are not here: clippy and rustc enforce them
//! from the root `Cargo.toml` lint wall, and the audit keeps only what
//! the toolchain cannot express.
//!
//! * **D — determinism**: digest/fingerprint/cache/journal/codec
//!   modules must not observe iteration order, wall clocks, or thread
//!   identity.
//! * **F — float hygiene**: solver and analytics code must not compare
//!   floats with `==`/`!=` or truncate `f64` to `f32` with `as`.
//! * **U — API hygiene**: public `fn`s in the physics crates must
//!   carry a doc comment naming physical units.
//! * **G — graph rules** (semantic, cross-file): `G-taint` proves the
//!   D bans *transitively* over the approximate call graph from the
//!   digest/fingerprint/journal entry points; `G-layer` proves the
//!   crate layering (physics never depends on serving, `prng`/`faults`
//!   stay leaf-reachable, no cycles).
//! * **L — lock & channel discipline**: no `.lock()`/`.recv()`/
//!   `.join()` while a `MutexGuard` binding is live in the same block;
//!   no `send` on a channel endpoint whose pair was explicitly
//!   dropped.
//!
//! Scoping is anchored to `crates/`-relative prefixes (see
//! [`Config::in_scope`]): an entry with a `/` must prefix-match the
//! path relative to `crates/` (with the crate segment optionally
//! skipped, so `src/cache` reads "any crate's cache module"), and an
//! entry without a `/` must appear in the file name itself. A rule
//! with an empty scope list applies everywhere.

/// Identifier of a single audit rule. The waiver grammar accepts
/// either this exact id or the one-letter family prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// D: `HashMap`/`HashSet` in a digest-path module (iteration order
    /// is nondeterministic; use `BTreeMap`/`BTreeSet`).
    DHash,
    /// D: `Instant::now`/`SystemTime::now` in a digest-path module.
    DTime,
    /// D: `thread::current()` (thread identity) in a digest-path module.
    DThread,
    /// F: `==`/`!=` against a float expression in solver/analytics code.
    FEq,
    /// F: `as f32` truncation in solver/analytics code.
    FNarrow,
    /// U: public `fn` without a unit-naming doc comment in a physics
    /// crate.
    UDoc,
    /// G: a D-banned API transitively reachable from a determinism
    /// entry point (`digest`/`fingerprint`/journal `append`/`seal`).
    GTaint,
    /// G: a crate-layering violation — physics depending on serving,
    /// a leaf crate growing dependencies, or a dependency cycle.
    GLayer,
    /// L: `.lock()`/`.recv()`/`.join()` while a `MutexGuard` binding
    /// is live in the same block.
    LLock,
    /// L: `send` on a channel endpoint after an explicit `drop` of its
    /// pair.
    LSend,
    /// W: a waiver comment that is malformed (missing reason) or did
    /// not suppress any finding.
    WWaiver,
}

impl Rule {
    /// The stable id printed in findings and accepted in waivers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DHash => "D-hash",
            Rule::DTime => "D-time",
            Rule::DThread => "D-thread",
            Rule::FEq => "F-eq",
            Rule::FNarrow => "F-narrow",
            Rule::UDoc => "U-doc",
            Rule::GTaint => "G-taint",
            Rule::GLayer => "G-layer",
            Rule::LLock => "L-lock",
            Rule::LSend => "L-send",
            Rule::WWaiver => "W-waiver",
        }
    }

    /// One-letter family prefix (`D`, `F`, `U`, `G`, `L`, `W`).
    pub fn family(self) -> &'static str {
        match self {
            Rule::DHash | Rule::DTime | Rule::DThread => "D",
            Rule::FEq | Rule::FNarrow => "F",
            Rule::UDoc => "U",
            Rule::GTaint | Rule::GLayer => "G",
            Rule::LLock | Rule::LSend => "L",
            Rule::WWaiver => "W",
        }
    }

    /// Every enforceable rule, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::DHash,
        Rule::DTime,
        Rule::DThread,
        Rule::FEq,
        Rule::FNarrow,
        Rule::UDoc,
        Rule::GTaint,
        Rule::GLayer,
        Rule::LLock,
        Rule::LSend,
    ];

    /// Parse a stable rule id (`D-hash`, `G-taint`, …) back to the
    /// rule. Used by `audit --explain <rule-id>`.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .chain(std::iter::once(&Rule::WWaiver))
            .copied()
            .find(|r| r.id() == id)
    }

    /// The rationale behind the rule plus an example waiver, printed
    /// by `audit --explain <rule-id>`.
    pub fn explain(self) -> String {
        let rationale = match self {
            Rule::DHash => {
                "HashMap/HashSet iteration order varies per process (SipHash keys are \
                 randomized), so any digest, fingerprint, journal frame, or cached \
                 outcome built from one drifts across runs. Use BTreeMap/BTreeSet in \
                 digest-path modules."
            }
            Rule::DTime => {
                "Instant::now()/SystemTime::now() read the wall clock; bytes derived \
                 from them can never replay identically. Digest-path modules must be \
                 pure in (config, trace, tick)."
            }
            Rule::DThread => {
                "thread::current() exposes scheduler identity. The workspace's core \
                 theorem is that digests are byte-identical at any (shard × worker) \
                 layout — thread identity in a digest path breaks it by construction."
            }
            Rule::FEq => {
                "==/!= on floats is almost never the intended comparison after any \
                 arithmetic; use an epsilon comparison (bios_units::approx)."
            }
            Rule::FNarrow => {
                "`as f32` silently drops half the mantissa in solver/analytics code; \
                 keep f64 end-to-end through the numeric path."
            }
            Rule::UDoc => {
                "Public fns in the physics crates that pass bare floats must name \
                 physical units in their doc comment or signature (the bios-units \
                 newtype is the unit) — an undimensioned float at a crate boundary \
                 is how calibration errors are born."
            }
            Rule::GTaint => {
                "The D bans are proven *transitively*: every function reachable from \
                 a determinism entry point (digest, digest_fnv, summaries_digest, \
                 digest_line, fingerprint, journal append/seal) over the approximate \
                 workspace call graph must be free of HashMap/HashSet/Instant::now/\
                 SystemTime::now/thread::current wherever it lives — per-module \
                 scoping cannot see a nondeterministic helper one call away. The \
                 finding message carries the full call chain from the entry point."
            }
            Rule::GLayer => {
                "Architecture layering, statically proven: physics crates (core, \
                 units, enzyme, electrochem, nanomaterial, labelfree, instrument) \
                 must never depend on serving crates (runtime, gateway, shard, \
                 stream, quorum, recover) — the sensor models stay deployable \
                 without the serving stack; prng and faults stay leaf-reachable so \
                 every crate can use them without import cycles; and any dependency \
                 cycle in the crate graph is a finding."
            }
            Rule::LLock => {
                "Calling .lock()/.recv()/.join() while a MutexGuard binding is live \
                 in the same block is the workspace's only deadlock shape: a second \
                 lock can invert order, and a blocking recv/join under a held lock \
                 starves every other thread contending for it. Drop the guard (or \
                 let it leave scope) before blocking."
            }
            Rule::LSend => {
                "Sending on a channel endpoint after its pair was explicitly dropped \
                 can only return Err — the code is either dead or silently dropping \
                 data."
            }
            Rule::WWaiver => {
                "Waivers are audited too: a waiver with no reason, or one that no \
                 longer suppresses a finding, is itself a finding so the allow-list \
                 can never rot."
            }
        };
        format!(
            "{id} ({family} family)\n\n{rationale}\n\nExample waiver (own line, \
             above or on the offending line):\n  // bios-audit: allow({id}) — <why \
             this specific site is sound>\n",
            id = self.id(),
            family = self.family(),
            rationale = rationale,
        )
    }
}

/// Path scoping plus the semantic-pass tables (layer sets and taint
/// entry points). Scope entries are `crates/`-relative prefixes (see
/// [`Config::in_scope`]); an empty list means every file.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scope of the D family: modules whose bytes feed digests,
    /// fingerprints, cached outcomes, or durable journal frames.
    pub digest_paths: Vec<String>,
    /// Scope of the F family: solver and analytics code.
    pub float_paths: Vec<String>,
    /// Scope of `U-doc`: crates whose public API quantifies physics.
    pub doc_paths: Vec<String>,
    /// Substrings of words that satisfy the "doc names physical units"
    /// requirement, matched case-sensitively against the doc text.
    pub unit_vocabulary: Vec<String>,
    /// Lowercased fragments that mark an identifier in a `fn`
    /// signature as unit-bearing (`k0_cm_per_s`, `Molar`, `as_volts`).
    /// A signature that names its units this way satisfies `U-doc`
    /// without repeating them in prose — in this workspace the newtype
    /// *is* the unit.
    pub signature_unit_fragments: Vec<String>,
    /// Physics-layer crates (`G-layer`): sensor models and their
    /// supporting math. May never depend on the serving layer.
    pub physics_crates: Vec<String>,
    /// Serving-layer crates (`G-layer`): execution, routing,
    /// durability, redundancy.
    pub serving_crates: Vec<String>,
    /// Leaf-reachable crates (`G-layer`): `(crate, allowed deps)` —
    /// anything else they depend on is a finding.
    pub leaf_crates: Vec<(String, Vec<String>)>,
    /// Function names that start the `G-taint` reachability pass:
    /// digest/fingerprint/journal/codec entry points.
    pub taint_entries: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            digest_paths: vec![
                "src/cache".into(),
                "src/journal".into(),
                "src/codec".into(),
                // File-name entries: no file is named like this today;
                // they cover a future `digest.rs` or `fingerprint.rs`.
                "digest".into(),
                "fingerprint".into(),
                // The gateway's decision machines: every shed/trip/
                // brownout verdict feeds the overload digest, so wall
                // clocks and unordered maps are banned here too.
                "gateway/src/bucket".into(),
                "gateway/src/breaker".into(),
                // The stream layer's deterministic core: cohort
                // generation, the tick loop, and epoch swaps all feed
                // StreamReport::digest, which the gate binary pins
                // across worker counts.
                "stream/src/cohort".into(),
                "stream/src/engine".into(),
                "stream/src/epoch".into(),
                // The sharded layer's placement machinery: routing,
                // quarantine folds, and report merging must stay pure
                // in (config, trace, tick) or the gate binary's shard
                // digest pin across (shard × worker) layouts breaks.
                "shard/src/route".into(),
                "shard/src/supervisor".into(),
                "shard/src/merge".into(),
                // The redundancy layer's deciding machinery: ballot
                // clustering, the majority vote, and the suspect
                // scoreboard must stay pure in (config, plan, job
                // stream) or quorum verdicts drift across layouts and
                // the gate binary's quorum digest pin breaks.
                "quorum/src/vote".into(),
                "quorum/src/suspect".into(),
                // The simulated disk: fault decisions and surviving-
                // prefix lengths must be pure in (seed, op-index) or
                // torture schedules stop replaying byte-identically.
                "recover/src/sim".into(),
            ],
            float_paths: vec![
                "analytics/src/".into(),
                "electrochem/src/".into(),
                "enzyme/src/".into(),
                "labelfree/src/".into(),
                "nanomaterial/src/".into(),
            ],
            doc_paths: vec![
                "electrochem/src/".into(),
                "enzyme/src/".into(),
                "units/src/".into(),
            ],
            unit_vocabulary: unit_vocabulary(),
            signature_unit_fragments: signature_unit_fragments(),
            physics_crates: [
                "core",
                "units",
                "enzyme",
                "electrochem",
                "nanomaterial",
                "labelfree",
                "instrument",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            serving_crates: ["runtime", "gateway", "shard", "stream", "quorum", "recover"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            leaf_crates: vec![
                ("prng".to_string(), vec![]),
                (
                    "faults".to_string(),
                    vec!["prng".to_string(), "units".to_string()],
                ),
            ],
            taint_entries: [
                "digest",
                "digest_fnv",
                "summaries_digest",
                "digest_line",
                "fingerprint",
                "append",
                "seal",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        }
    }
}

impl Config {
    /// Is `path` (normalized, forward slashes) in scope for `rule`?
    ///
    /// Scope entries are anchored to the `crates/`-relative path, not
    /// matched as bare substrings (a bare match would let
    /// `tests/shard/src/merge_fixture.rs` satisfy the
    /// `shard/src/merge` scope):
    ///
    /// * an entry containing `/` must prefix the path relative to
    ///   `crates/`, either as written (`shard/src/merge`) or with the
    ///   crate segment skipped (`src/cache` ⇒ any crate's cache
    ///   module); the workspace facade's own `src/` matches directly;
    /// * an entry without `/` (`digest`, `fingerprint`) must appear in
    ///   the file name itself.
    pub fn in_scope(&self, rule: Rule, path: &str) -> bool {
        let scopes: &[String] = match rule {
            Rule::DHash | Rule::DTime | Rule::DThread => &self.digest_paths,
            Rule::FEq | Rule::FNarrow => &self.float_paths,
            Rule::UDoc => &self.doc_paths,
            Rule::GTaint | Rule::GLayer | Rule::LLock | Rule::LSend | Rule::WWaiver => return true,
        };
        scopes.iter().any(|s| scope_matches(s, path))
    }

    /// FNV-1a fingerprint of the whole rule table plus the tool
    /// version. Any change to either invalidates the per-file facts
    /// cache.
    pub fn fingerprint(&self) -> u64 {
        let rendered = format!("v{}|{:?}", env!("CARGO_PKG_VERSION"), self);
        crate::graph::fnv1a(rendered.as_bytes())
    }
}

/// Anchored scope matching (see [`Config::in_scope`]).
fn scope_matches(entry: &str, path: &str) -> bool {
    if entry.contains('/') {
        if let Some(rel) = path.strip_prefix("crates/") {
            return rel.starts_with(entry)
                || rel
                    .split_once('/')
                    .map(|(_, rest)| rest.starts_with(entry))
                    .unwrap_or(false);
        }
        // The facade package's own `src/` tree.
        return path.starts_with(entry);
    }
    let file = path.rsplit('/').next().unwrap_or(path);
    (path.starts_with("crates/") || path.starts_with("src/")) && file.contains(entry)
}

/// Words whose presence in a doc comment counts as "naming physical
/// units". The typed-quantity names count too: in this workspace a doc
/// that says "the applied [`Volts`]" *has* named the unit, because the
/// newtype is the unit.
fn unit_vocabulary() -> Vec<String> {
    [
        // SI spellings and common abbreviations used in the docs.
        "µA",
        "µM",
        "µm",
        "mM",
        "nA",
        "nM",
        "mV",
        "cm",
        "nm",
        "mol",
        "Hz",
        "kHz",
        "ohm",
        "Ω",
        "kelvin",
        "Kelvin",
        "volt",
        "Volt",
        "amp",
        "Amp",
        "second",
        "Second",
        "molar",
        "Molar",
        "M⁻¹",
        "s⁻¹",
        "cm²",
        "cm⁻²",
        "A·",
        "V·",
        "V/s",
        "A/cm",
        // Typed quantities from bios-units: naming the type names the unit.
        "Amperes",
        "Volts",
        "SquareCm",
        "Centimeters",
        "Seconds",
        "Kelvin",
        "Sensitivity",
        "CurrentDensity",
        "SurfaceLoading",
        "DiffusionCoefficient",
        "RateConstant",
        "ScanRate",
        "ConcentrationRange",
        // Spelled-out unit names.
        "Celsius",
        "celsius",
        "radian",
        "farad",
        "Farad",
        "siemens",
        "decade",
        "minute",
        "hour",
        // Dimensionless quantities must say so (either capitalization).
        "unitless",
        "dimensionless",
        "unit",
        "fraction",
        "ratio",
        "factor",
        "multiplier",
        "count",
        "index",
        "percent",
        "%",
        "boolean",
        "flag",
        "identifier",
        "name",
        "label",
        "Unitless",
        "Dimensionless",
        "Unit",
        "Fraction",
        "Ratio",
        "Factor",
        "Multiplier",
        "Count",
        "Index",
        "Percent",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// Lowercased substrings that mark a signature identifier as
/// unit-bearing: typed quantities from bios-units and conventional
/// unit-suffixed parameter names.
fn signature_unit_fragments() -> Vec<String> {
    [
        // bios-units typed quantities (lowercased type names).
        "molar",
        "amperes",
        "volts",
        "squarecm",
        "centimeters",
        "seconds",
        "kelvin",
        "sensitivity",
        "currentdensity",
        "surfaceloading",
        "diffusioncoefficient",
        "rateconstant",
        "scanrate",
        "concentrationrange",
        // Unit-suffixed identifier fragments (`k0_cm_per_s`, `f_per_cm2`,
        // `lod_micro_molar`, `as_volts`, `drift_volts`).
        "_per_",
        "per_s",
        "_cm",
        "cm2",
        "cm_",
        "_volt",
        "volt_",
        "_amp",
        "amp_",
        "_sec",
        "_micros",
        "_millis",
        "_nanos",
        "micro_",
        "milli_",
        "nano_",
        "_hz",
        "hz_",
        "_kelvin",
        "_celsius",
        "farads",
        "_ohm",
        "ohm_",
        "radians",
        "_molar",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}
