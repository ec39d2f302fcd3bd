//! Statically-keyed pipeline metrics: counters, gauges, and
//! log2-bucketed histograms.
//!
//! The flight recorder ([`crate::events`]) answers "where did the time
//! go"; this module answers "how much work happened" — cache hits,
//! interner allocations, parser recoveries, thunks forced. The design
//! constraints mirror the recorder's:
//!
//! * **Static keys.** Every metric is a variant of [`CounterId`],
//!   [`GaugeId`], or [`HistogramId`], with its name and unit in a
//!   compile-time catalog. No string hashing on the hot path, no way
//!   for two call sites to disagree about a metric's spelling.
//! * **One branch + one add when enabled.** The registry stores dense
//!   fixed-size arrays indexed by the id enums; recording is an array
//!   write behind a single `Option` check.
//! * **Zero allocation when disabled.** [`MetricsRegistry::off`] holds
//!   `None`; every record call is a branch and nothing else.
//!   [`MetricsRegistry::allocates_nothing`] asserts this in tests.
//!
//! Histograms use log2 bucketing: value `v` lands in bucket
//! `bit_length(v)` (0 for `v = 0`), so bucket `i >= 1` covers
//! `[2^(i-1), 2^i - 1]` and 65 buckets span all of `u64`. Counters
//! saturate instead of wrapping, so a pathological run can never make
//! a counter lie small.

use crate::json::JsonWriter;

/// Monotonically increasing event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Resolution goals answered by the memo table in O(1).
    ResolveCacheHits,
    /// Cacheable resolution goals derived from scratch.
    ResolveCacheMisses,
    /// Memo-table entries discarded to stay under a capacity cap.
    ResolveCacheEvictions,
    /// Goals entering the resolver (including subgoals).
    ResolveGoals,
    /// Fresh `FromInstance` derivation nodes built.
    ResolveDictsConstructed,
    /// Type-node interning requests answered by the hash-cons table.
    InternHits,
    /// Type nodes interned fresh (table growth).
    InternFresh,
    /// Type nodes visited by the type store's rebuilding walks (mapping
    /// variables, applying a substitution).
    InternMapVisits,
    /// Links the substitution followed from a bound variable to its
    /// binding.
    SubstLinks,
    /// Parser error-recovery skips (sync to the next declaration).
    ParseRecoveries,
    /// Shared `$sh…` dictionary bindings hoisted by the CSE pass.
    ShareDictsHoisted,
    /// Dictionary construction occurrences rewritten to a shared ref.
    ShareOccurrencesShared,
    /// Call-by-need suspensions created by the evaluator.
    EvalThunksCreated,
    /// Thunk forces, including cache-hit re-forces.
    EvalForces,
    /// Evaluation steps consumed.
    EvalFuelUsed,
    /// Requests admitted to the serve queue.
    ServeRequests,
    /// Serve requests answered with a successful pipeline outcome.
    ServeOk,
    /// Serve requests that panicked and were isolated (`error:internal`).
    ServeErrInternal,
    /// Serve requests cancelled by their deadline (`error:deadline`).
    ServeErrDeadline,
    /// Serve requests shed at admission (`error:overloaded`).
    ServeErrOverloaded,
    /// Serve requests rejected as malformed (`error:bad-request`).
    ServeErrBadRequest,
    /// Requests whose optional traces were shed under queue pressure.
    ServeDegradedTraces,
    /// Requests whose resolve-cache capacity was shrunk under pressure.
    ServeDegradedCache,
    /// Faults injected by the deterministic fault plan.
    ServeFaultsInjected,
    /// Requests fully processed by this worker (per-worker registries
    /// each count their own; the fleet merge sums them).
    ServeProcessed,
    /// Flight-recorder traces retained by the tail sampler.
    ServeTracesRetained,
    /// Retained traces discarded because the retention store was full.
    ServeTracesDropped,
    /// Instances examined by the coherence checker.
    CoherenceInstancesChecked,
    /// Instance-head pairs put through pairwise unification.
    CoherencePairsUnified,
    /// Class-law programs generated and evaluated by the law harness.
    CoherenceLawsRun,
    /// Law programs that evaluated to a counterexample (`False`).
    CoherenceLawsFailed,
}

impl CounterId {
    pub const ALL: [CounterId; 31] = [
        CounterId::ResolveCacheHits,
        CounterId::ResolveCacheMisses,
        CounterId::ResolveCacheEvictions,
        CounterId::ResolveGoals,
        CounterId::ResolveDictsConstructed,
        CounterId::InternHits,
        CounterId::InternFresh,
        CounterId::InternMapVisits,
        CounterId::SubstLinks,
        CounterId::ParseRecoveries,
        CounterId::ShareDictsHoisted,
        CounterId::ShareOccurrencesShared,
        CounterId::EvalThunksCreated,
        CounterId::EvalForces,
        CounterId::EvalFuelUsed,
        CounterId::ServeRequests,
        CounterId::ServeOk,
        CounterId::ServeErrInternal,
        CounterId::ServeErrDeadline,
        CounterId::ServeErrOverloaded,
        CounterId::ServeErrBadRequest,
        CounterId::ServeDegradedTraces,
        CounterId::ServeDegradedCache,
        CounterId::ServeFaultsInjected,
        CounterId::ServeProcessed,
        CounterId::ServeTracesRetained,
        CounterId::ServeTracesDropped,
        CounterId::CoherenceInstancesChecked,
        CounterId::CoherencePairsUnified,
        CounterId::CoherenceLawsRun,
        CounterId::CoherenceLawsFailed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CounterId::ResolveCacheHits => "resolve.cache.hits",
            CounterId::ResolveCacheMisses => "resolve.cache.misses",
            CounterId::ResolveCacheEvictions => "resolve.cache.evictions",
            CounterId::ResolveGoals => "resolve.goals",
            CounterId::ResolveDictsConstructed => "resolve.dicts_constructed",
            CounterId::InternHits => "intern.hits",
            CounterId::InternFresh => "intern.fresh",
            CounterId::InternMapVisits => "intern.map_visits",
            CounterId::SubstLinks => "subst.links",
            CounterId::ParseRecoveries => "parse.recoveries",
            CounterId::ShareDictsHoisted => "share.dicts_hoisted",
            CounterId::ShareOccurrencesShared => "share.occurrences_shared",
            CounterId::EvalThunksCreated => "eval.thunks_created",
            CounterId::EvalForces => "eval.forces",
            CounterId::EvalFuelUsed => "eval.fuel_used",
            CounterId::ServeRequests => "serve.requests",
            CounterId::ServeOk => "serve.ok",
            CounterId::ServeErrInternal => "serve.err.internal",
            CounterId::ServeErrDeadline => "serve.err.deadline",
            CounterId::ServeErrOverloaded => "serve.err.overloaded",
            CounterId::ServeErrBadRequest => "serve.err.bad_request",
            CounterId::ServeDegradedTraces => "serve.degraded.traces",
            CounterId::ServeDegradedCache => "serve.degraded.cache",
            CounterId::ServeFaultsInjected => "serve.faults_injected",
            CounterId::ServeProcessed => "serve.processed",
            CounterId::ServeTracesRetained => "serve.traces.retained",
            CounterId::ServeTracesDropped => "serve.traces.dropped",
            CounterId::CoherenceInstancesChecked => "coherence.instances_checked",
            CounterId::CoherencePairsUnified => "coherence.pairs_unified",
            CounterId::CoherenceLawsRun => "coherence.laws_run",
            CounterId::CoherenceLawsFailed => "coherence.laws_failed",
        }
    }

    pub fn unit(self) -> &'static str {
        match self {
            CounterId::ResolveCacheHits
            | CounterId::ResolveCacheMisses
            | CounterId::ResolveGoals => "goals",
            CounterId::ResolveCacheEvictions => "entries",
            CounterId::ResolveDictsConstructed | CounterId::ShareDictsHoisted => "dicts",
            CounterId::InternHits | CounterId::InternFresh | CounterId::InternMapVisits => "nodes",
            CounterId::SubstLinks => "links",
            CounterId::ParseRecoveries => "events",
            CounterId::ShareOccurrencesShared => "sites",
            CounterId::EvalThunksCreated => "thunks",
            CounterId::EvalForces => "forces",
            CounterId::EvalFuelUsed => "fuel",
            CounterId::ServeRequests
            | CounterId::ServeOk
            | CounterId::ServeErrInternal
            | CounterId::ServeErrDeadline
            | CounterId::ServeErrOverloaded
            | CounterId::ServeErrBadRequest
            | CounterId::ServeDegradedTraces
            | CounterId::ServeDegradedCache
            | CounterId::ServeProcessed => "requests",
            CounterId::ServeFaultsInjected => "faults",
            CounterId::ServeTracesRetained | CounterId::ServeTracesDropped => "traces",
            CounterId::CoherenceInstancesChecked => "instances",
            CounterId::CoherencePairsUnified => "pairs",
            CounterId::CoherenceLawsRun | CounterId::CoherenceLawsFailed => "laws",
        }
    }
}

/// Point-in-time level measurements (last write wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Distinct type nodes in the resolver's hash-cons table.
    InternTableSize,
    /// Derivations currently tabled in the resolution memo table.
    ResolveCacheEntries,
}

impl GaugeId {
    pub const ALL: [GaugeId; 2] = [GaugeId::InternTableSize, GaugeId::ResolveCacheEntries];

    pub fn name(self) -> &'static str {
        match self {
            GaugeId::InternTableSize => "intern.table_size",
            GaugeId::ResolveCacheEntries => "resolve.cache.entries",
        }
    }

    pub fn unit(self) -> &'static str {
        match self {
            GaugeId::InternTableSize => "nodes",
            GaugeId::ResolveCacheEntries => "entries",
        }
    }
}

/// Log2-bucketed value distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramId {
    /// Backward-chaining depth at which each resolution goal ran.
    ResolveGoalDepth,
    /// Shared bindings per hoisted `letrec` introduced by the CSE pass.
    ShareLetSize,
    /// Fuel attributed to each top-level binding by the evaluator.
    EvalBindingFuel,
    /// End-to-end serve request latency, admission to response.
    ServeLatencyUs,
    /// Serve queue occupancy sampled at each admission.
    ServeQueueDepth,
    /// Latency of requests answered `ok` (including compile errors).
    ServeLatencyOkUs,
    /// Latency of requests that panicked (`error:internal`).
    ServeLatencyInternalUs,
    /// Latency of requests killed by their deadline (`error:deadline`).
    ServeLatencyDeadlineUs,
    /// Latency of requests shed at admission (`error:overloaded`).
    ServeLatencyOverloadedUs,
}

impl HistogramId {
    pub const ALL: [HistogramId; 9] = [
        HistogramId::ResolveGoalDepth,
        HistogramId::ShareLetSize,
        HistogramId::EvalBindingFuel,
        HistogramId::ServeLatencyUs,
        HistogramId::ServeQueueDepth,
        HistogramId::ServeLatencyOkUs,
        HistogramId::ServeLatencyInternalUs,
        HistogramId::ServeLatencyDeadlineUs,
        HistogramId::ServeLatencyOverloadedUs,
    ];

    /// The per-outcome-class latency histograms, paired with the class
    /// label used in `stats` output.
    pub const LATENCY_CLASSES: [(HistogramId, &'static str); 4] = [
        (HistogramId::ServeLatencyOkUs, "ok"),
        (HistogramId::ServeLatencyInternalUs, "internal"),
        (HistogramId::ServeLatencyDeadlineUs, "deadline"),
        (HistogramId::ServeLatencyOverloadedUs, "overloaded"),
    ];

    pub fn name(self) -> &'static str {
        match self {
            HistogramId::ResolveGoalDepth => "resolve.goal_depth",
            HistogramId::ShareLetSize => "share.let_size",
            HistogramId::EvalBindingFuel => "eval.binding_fuel",
            HistogramId::ServeLatencyUs => "serve.latency_us",
            HistogramId::ServeQueueDepth => "serve.queue_depth",
            HistogramId::ServeLatencyOkUs => "serve.latency.ok_us",
            HistogramId::ServeLatencyInternalUs => "serve.latency.internal_us",
            HistogramId::ServeLatencyDeadlineUs => "serve.latency.deadline_us",
            HistogramId::ServeLatencyOverloadedUs => "serve.latency.overloaded_us",
        }
    }

    pub fn unit(self) -> &'static str {
        match self {
            HistogramId::ResolveGoalDepth => "depth",
            HistogramId::ShareLetSize => "bindings",
            HistogramId::EvalBindingFuel => "fuel",
            HistogramId::ServeLatencyUs
            | HistogramId::ServeLatencyOkUs
            | HistogramId::ServeLatencyInternalUs
            | HistogramId::ServeLatencyDeadlineUs
            | HistogramId::ServeLatencyOverloadedUs => "us",
            HistogramId::ServeQueueDepth => "requests",
        }
    }
}

/// Number of log2 buckets: bucket 0 for zero, buckets 1..=64 for the
/// 64 possible bit lengths of a nonzero `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length (0 for 0). Bucket
/// `i >= 1` covers `[2^(i-1), 2^i - 1]`; `u64::MAX` lands in bucket 64.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive lower bound of a bucket (0 for bucket 0, else
/// `2^(i-1)`).
pub fn bucket_lo(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// One log2-bucketed distribution: per-bucket counts plus exact count
/// and (saturating) sum, so means stay available after bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        let b = bucket_index(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean of observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the highest nonempty bucket (`None` when empty).
    pub fn max_bucket_lo(&self) -> Option<u64> {
        self.buckets.iter().rposition(|&c| c > 0).map(bucket_lo)
    }

    /// The change between two readings of the same histogram: every
    /// bucket count, the total count, and the sum as saturating
    /// differences (`self` is the later reading). Because the
    /// differences saturate at zero, a delta's quantiles — computed
    /// from the differenced buckets exactly like any histogram's —
    /// can never go negative, even if the readings were swapped.
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::default();
        for (slot, (&new, &old)) in d
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *slot = new.saturating_sub(old);
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum = self.sum.saturating_sub(earlier.sum);
        d
    }

    /// Fold another histogram's mass into this one (bucket-wise
    /// saturating add) — the inverse of [`Histogram::delta`]:
    /// `earlier.absorb(&later.delta(&earlier))` reconstructs `later`.
    pub fn absorb(&mut self, other: &Histogram) {
        for (slot, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot = slot.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the observed distribution,
    /// estimated by linear interpolation within the containing log2
    /// bucket. Exact when the containing bucket has a single
    /// representable value (buckets 0 and 1); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let through = below.saturating_add(c);
            if through as f64 >= target {
                let lo = bucket_lo(i) as f64;
                // Inclusive upper bound: 2^i - 1, via u128 so bucket 64
                // (which tops out at u64::MAX) does not overflow.
                let hi = if i == 0 {
                    0.0
                } else {
                    ((u128::from(bucket_lo(i)) * 2) - 1) as f64
                };
                let pos = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * pos);
            }
            below = through;
        }
        self.max_bucket_lo().map(|lo| lo as f64)
    }
}

/// A point-in-time reading of one histogram, for delta arithmetic
/// between successive readings of a live registry. A snapshot *is* a
/// histogram — the same buckets, count, and sum — so every rendering
/// and quantile routine applies to deltas unchanged.
pub type HistogramSnapshot = Histogram;

/// A point-in-time reading of a whole [`MetricsRegistry`] (or a fleet
/// merge of several), detached from the live arrays so successive
/// readings can be differenced. This is the unit of the serve `watch`
/// stream: each tick ships `later.delta(&earlier)` — counters as
/// differences, histograms via [`HistogramSnapshot::delta`] — and a
/// consumer reconstructs any absolute reading by absorbing deltas in
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::ALL.len()],
    gauges: [u64; GaugeId::ALL.len()],
    histograms: [HistogramSnapshot; HistogramId::ALL.len()],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; CounterId::ALL.len()],
            gauges: [0; GaugeId::ALL.len()],
            histograms: [HistogramSnapshot::default(); HistogramId::ALL.len()],
        }
    }
}

impl MetricsSnapshot {
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize]
    }

    pub fn histogram(&self, id: HistogramId) -> &HistogramSnapshot {
        &self.histograms[id as usize]
    }

    /// True iff nothing happened: every counter, gauge, and histogram
    /// slot is zero. `later.delta(&earlier)` of two equal readings is
    /// zero (property-tested below).
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self
                .histograms
                .iter()
                .all(|h| h.count == 0 && h.sum == 0 && h.buckets.iter().all(|&b| b == 0))
    }

    /// The change between two readings: every slot as a saturating
    /// difference, `self` being the later reading. Saturation means a
    /// delta can never go negative — swapped arguments yield zeros,
    /// not garbage. Gauges are levels, but between two readings of a
    /// monotone run their increase is their difference, and
    /// [`MetricsSnapshot::absorb`] adds it back.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut d = MetricsSnapshot::default();
        for (slot, (&new, &old)) in d
            .counters
            .iter_mut()
            .zip(self.counters.iter().zip(earlier.counters.iter()))
        {
            *slot = new.saturating_sub(old);
        }
        for (slot, (&new, &old)) in d
            .gauges
            .iter_mut()
            .zip(self.gauges.iter().zip(earlier.gauges.iter()))
        {
            *slot = new.saturating_sub(old);
        }
        for (slot, (new, old)) in d
            .histograms
            .iter_mut()
            .zip(self.histograms.iter().zip(earlier.histograms.iter()))
        {
            *slot = new.delta(old);
        }
        d
    }

    /// Fold a delta back in (element-wise saturating add) — the
    /// inverse of [`MetricsSnapshot::delta`]:
    /// `earlier.absorb(&later.delta(&earlier))` reconstructs `later`
    /// exactly for any monotone pair of readings, so a `watch`
    /// consumer summing every tick holds the server's absolute
    /// snapshot.
    pub fn absorb(&mut self, delta: &MetricsSnapshot) {
        for (slot, &v) in self.counters.iter_mut().zip(delta.counters.iter()) {
            *slot = slot.saturating_add(v);
        }
        for (slot, &v) in self.gauges.iter_mut().zip(delta.gauges.iter()) {
            *slot = slot.saturating_add(v);
        }
        for (slot, h) in self.histograms.iter_mut().zip(delta.histograms.iter()) {
            slot.absorb(h);
        }
    }

    /// Serialize sparsely as three fields (`"counters"`, `"gauges"`,
    /// `"histograms"`) of the writer's current object: only nonzero
    /// counters/gauges and nonempty histograms appear, so an idle
    /// watch tick is a few bytes, not the whole catalog.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object_field("counters");
        for &id in &CounterId::ALL {
            let v = self.counter(id);
            if v > 0 {
                w.field_u64(id.name(), v);
            }
        }
        w.end_object();
        w.begin_object_field("gauges");
        for &id in &GaugeId::ALL {
            let v = self.gauge(id);
            if v > 0 {
                w.field_u64(id.name(), v);
            }
        }
        w.end_object();
        w.begin_object_field("histograms");
        for &id in &HistogramId::ALL {
            let h = self.histogram(id);
            if h.count == 0 {
                continue;
            }
            w.begin_object_field(id.name());
            w.field_u64("count", h.count);
            w.field_u64("sum", h.sum);
            w.begin_object_field("buckets");
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    w.field_u64(&bucket_lo(i).to_string(), c);
                }
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
    }

    /// Parse a snapshot (or delta) written by
    /// [`MetricsSnapshot::write_json`]. Unknown metric names are
    /// ignored — a newer server may ship counters an older consumer
    /// has no slot for — and missing fields read as zero.
    pub fn from_json(v: &crate::json::Value) -> Result<MetricsSnapshot, String> {
        let mut s = MetricsSnapshot::default();
        if let Some(obj) = v.get("counters").and_then(|c| c.as_object()) {
            for (name, val) in obj {
                if let Some(id) = CounterId::ALL.iter().find(|id| id.name() == name.as_str()) {
                    s.counters[*id as usize] =
                        val.as_u64().ok_or_else(|| format!("counter `{name}`"))?;
                }
            }
        }
        if let Some(obj) = v.get("gauges").and_then(|c| c.as_object()) {
            for (name, val) in obj {
                if let Some(id) = GaugeId::ALL.iter().find(|id| id.name() == name.as_str()) {
                    s.gauges[*id as usize] =
                        val.as_u64().ok_or_else(|| format!("gauge `{name}`"))?;
                }
            }
        }
        if let Some(obj) = v.get("histograms").and_then(|c| c.as_object()) {
            for (name, val) in obj {
                let Some(id) = HistogramId::ALL
                    .iter()
                    .find(|id| id.name() == name.as_str())
                else {
                    continue;
                };
                let h = &mut s.histograms[*id as usize];
                h.count = val
                    .get("count")
                    .and_then(|n| n.as_u64())
                    .ok_or_else(|| format!("histogram `{name}`: missing count"))?;
                h.sum = val
                    .get("sum")
                    .and_then(|n| n.as_u64())
                    .ok_or_else(|| format!("histogram `{name}`: missing sum"))?;
                if let Some(buckets) = val.get("buckets").and_then(|b| b.as_object()) {
                    for (lo, c) in buckets {
                        let lo: u64 = lo
                            .parse()
                            .map_err(|_| format!("histogram `{name}`: bad bucket `{lo}`"))?;
                        let c = c
                            .as_u64()
                            .ok_or_else(|| format!("histogram `{name}`: bad bucket count"))?;
                        h.buckets[bucket_index(lo)] = c;
                    }
                }
            }
        }
        Ok(s)
    }
}

/// Dense storage behind an enabled registry: one slot per catalog
/// entry, indexed by the id enums' discriminants via `ALL` position.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MetricsData {
    counters: [u64; CounterId::ALL.len()],
    gauges: [u64; GaugeId::ALL.len()],
    histograms: [Histogram; HistogramId::ALL.len()],
}

impl Default for MetricsData {
    fn default() -> Self {
        MetricsData {
            counters: [0; CounterId::ALL.len()],
            gauges: [0; GaugeId::ALL.len()],
            histograms: [Histogram::default(); HistogramId::ALL.len()],
        }
    }
}

/// The metrics handle threaded through one pipeline run. Disabled (the
/// default) it is a single `None` — recording costs one branch and
/// allocates nothing; enabled it is one boxed block of dense arrays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    data: Option<Box<MetricsData>>,
}

impl MetricsRegistry {
    /// An enabled registry (one allocation, the dense metric block).
    pub fn new() -> Self {
        MetricsRegistry {
            data: Some(Box::default()),
        }
    }

    /// The disabled registry: records nothing, allocates nothing.
    pub fn off() -> Self {
        MetricsRegistry::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.data.is_some()
    }

    /// True iff the registry is disabled and holds no heap memory —
    /// the zero-cost-when-off guarantee, asserted by tests.
    pub fn allocates_nothing(&self) -> bool {
        self.data.is_none()
    }

    /// Add to a counter (saturating). No-op when disabled.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        if let Some(d) = self.data.as_mut() {
            let slot = &mut d.counters[id as usize];
            *slot = slot.saturating_add(delta);
        }
    }

    /// Increment a counter by one. No-op when disabled.
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Set a gauge to its current level. No-op when disabled.
    pub fn set_gauge(&mut self, id: GaugeId, value: u64) {
        if let Some(d) = self.data.as_mut() {
            d.gauges[id as usize] = value;
        }
    }

    /// Record one observation into a histogram. No-op when disabled.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        if let Some(d) = self.data.as_mut() {
            d.histograms[id as usize].observe(value);
        }
    }

    /// Current counter value (0 when disabled).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.data.as_ref().map_or(0, |d| d.counters[id as usize])
    }

    /// Current gauge level (0 when disabled).
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.data.as_ref().map_or(0, |d| d.gauges[id as usize])
    }

    /// A histogram's current state (`None` when disabled).
    pub fn histogram(&self, id: HistogramId) -> Option<&Histogram> {
        self.data.as_ref().map(|d| &d.histograms[id as usize])
    }

    /// A detached point-in-time reading of every metric, for delta
    /// arithmetic between successive readings ([`MetricsSnapshot`]).
    /// A disabled registry reads as all-zero.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.data.as_ref() {
            None => MetricsSnapshot::default(),
            Some(d) => MetricsSnapshot {
                counters: d.counters,
                gauges: d.gauges,
                histograms: d.histograms,
            },
        }
    }

    /// Nonzero counters as `(name, value)` pairs, catalog order. Used
    /// by bench reports, which want compact deterministic output.
    pub fn counters_snapshot(&self) -> Vec<(&'static str, u64)> {
        CounterId::ALL
            .iter()
            .map(|&id| (id.name(), self.counter(id)))
            .filter(|&(_, v)| v > 0)
            .collect()
    }

    /// Fold another registry's counts into this one: counters add,
    /// gauges take the elementwise max, histograms merge bucket-wise.
    /// Every operation is commutative and associative, so fleet-wide
    /// merges give the same answer in any order (property-tested
    /// below). No-op when either side is disabled.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        let Some(theirs) = other.data.as_ref() else {
            return;
        };
        let Some(ours) = self.data.as_mut() else {
            return;
        };
        for (slot, v) in ours.counters.iter_mut().zip(theirs.counters.iter()) {
            *slot = slot.saturating_add(*v);
        }
        for (slot, v) in ours.gauges.iter_mut().zip(theirs.gauges.iter()) {
            *slot = (*slot).max(*v);
        }
        for (h, o) in ours.histograms.iter_mut().zip(theirs.histograms.iter()) {
            for (b, c) in h.buckets.iter_mut().zip(o.buckets.iter()) {
                *b = b.saturating_add(*c);
            }
            h.count = h.count.saturating_add(o.count);
            h.sum = h.sum.saturating_add(o.sum);
        }
    }

    /// Human-readable metrics table, sorted by metric name:
    ///
    /// ```text
    /// metric                           kind         value unit
    /// eval.forces                      counter        312 forces
    /// resolve.goal_depth               histogram  n=41 mean=1.2 max<8 depth
    /// ```
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(&'static str, String, String, &'static str)> = Vec::new();
        for &id in &CounterId::ALL {
            rows.push((
                id.name(),
                "counter".to_string(),
                self.counter(id).to_string(),
                id.unit(),
            ));
        }
        for &id in &GaugeId::ALL {
            rows.push((
                id.name(),
                "gauge".to_string(),
                self.gauge(id).to_string(),
                id.unit(),
            ));
        }
        for &id in &HistogramId::ALL {
            let cell = match self.histogram(id) {
                Some(h) if h.count > 0 => format!(
                    "n={} mean={:.1} p50={:.1} p99={:.1} max<{}",
                    h.count,
                    h.mean(),
                    h.quantile(0.5).unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                    h.max_bucket_lo()
                        .map_or(0u128, |lo| u128::from(lo).saturating_mul(2))
                ),
                _ => "n=0".to_string(),
            };
            rows.push((id.name(), "histogram".to_string(), cell, id.unit()));
        }
        rows.sort_by_key(|r| r.0);
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:<9} {:>24} unit", "metric", "kind", "value");
        for (name, kind, value, unit) in rows {
            let _ = writeln!(out, "{name:<28} {kind:<9} {value:>24} {unit}");
        }
        out
    }

    /// Serialize as three fields (`"counters"`, `"gauges"`,
    /// `"histograms"`) of the writer's current object. Histogram
    /// buckets are emitted sparsely, keyed by bucket lower bound.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object_field("counters");
        for &id in &CounterId::ALL {
            w.field_u64(id.name(), self.counter(id));
        }
        w.end_object();
        w.begin_object_field("gauges");
        for &id in &GaugeId::ALL {
            w.field_u64(id.name(), self.gauge(id));
        }
        w.end_object();
        w.begin_object_field("histograms");
        for &id in &HistogramId::ALL {
            w.begin_object_field(id.name());
            let (count, sum) = self.histogram(id).map_or((0, 0), |h| (h.count, h.sum));
            w.field_u64("count", count);
            w.field_u64("sum", sum);
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                match self.histogram(id).and_then(|h| h.quantile(q)) {
                    Some(v) => w.field_f64(label, v, 1),
                    None => w.field_null(label),
                }
            }
            w.begin_object_field("buckets");
            if let Some(h) = self.histogram(id) {
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c > 0 {
                        w.field_u64(&bucket_lo(i).to_string(), c);
                    }
                }
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn bucket_boundaries_are_analytic() {
        // v = 0 is its own bucket; v = 1 is bucket 1; each power of two
        // opens a new bucket and 2^k + 1 stays inside it.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..63 {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p - 1), k, "2^{k} - 1");
            assert_eq!(bucket_index(p), k + 1, "2^{k}");
            assert_eq!(bucket_index(p + 1), k + 1, "2^{k} + 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        // Lower bounds invert the mapping.
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(4), 8);
        assert_eq!(bucket_lo(64), 1u64 << 63);
        for v in [0u64, 1, 2, 3, 7, 8, 9, 1023, 1024, u64::MAX] {
            let b = bucket_index(v);
            assert!(bucket_lo(b) <= v, "{v}");
            if b < 64 {
                assert!(v < bucket_lo(b + 1), "{v}");
            }
        }
    }

    #[test]
    fn histogram_observation_lands_in_expected_buckets() {
        let mut m = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 4, u64::MAX] {
            m.observe(HistogramId::ResolveGoalDepth, v);
        }
        let h = m.histogram(HistogramId::ResolveGoalDepth).unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[64], 1); // u64::MAX
        assert_eq!(h.sum, u64::MAX); // saturated by the MAX observation
        assert_eq!(h.max_bucket_lo(), Some(1u64 << 63));
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut m = MetricsRegistry::new();
        m.add(CounterId::EvalFuelUsed, u64::MAX - 1);
        m.add(CounterId::EvalFuelUsed, 5);
        assert_eq!(m.counter(CounterId::EvalFuelUsed), u64::MAX);
        m.incr(CounterId::EvalFuelUsed);
        assert_eq!(m.counter(CounterId::EvalFuelUsed), u64::MAX);
        // Histogram count/sum saturate too.
        m.observe(HistogramId::EvalBindingFuel, u64::MAX);
        m.observe(HistogramId::EvalBindingFuel, u64::MAX);
        let h = m.histogram(HistogramId::EvalBindingFuel).unwrap();
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn off_registry_allocates_nothing_and_records_nothing() {
        let mut m = MetricsRegistry::off();
        assert!(!m.is_enabled());
        assert!(m.allocates_nothing());
        m.incr(CounterId::ResolveGoals);
        m.add(CounterId::InternFresh, 10);
        m.set_gauge(GaugeId::InternTableSize, 42);
        m.observe(HistogramId::ShareLetSize, 7);
        assert!(m.allocates_nothing(), "recording must not allocate");
        assert_eq!(m.counter(CounterId::ResolveGoals), 0);
        assert_eq!(m.gauge(GaugeId::InternTableSize), 0);
        assert!(m.histogram(HistogramId::ShareLetSize).is_none());
        assert!(m.counters_snapshot().is_empty());
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        a.add(CounterId::EvalForces, 3);
        a.observe(HistogramId::EvalBindingFuel, 2);
        let mut b = MetricsRegistry::new();
        b.add(CounterId::EvalForces, 4);
        b.set_gauge(GaugeId::ResolveCacheEntries, 9);
        b.observe(HistogramId::EvalBindingFuel, 1000);
        a.merge(&b);
        assert_eq!(a.counter(CounterId::EvalForces), 7);
        assert_eq!(a.gauge(GaugeId::ResolveCacheEntries), 9);
        let h = a.histogram(HistogramId::EvalBindingFuel).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1002);
        // Merging into or from a disabled registry is a no-op.
        let mut off = MetricsRegistry::off();
        off.merge(&a);
        assert!(off.allocates_nothing());
        a.merge(&MetricsRegistry::off());
        assert_eq!(a.counter(CounterId::EvalForces), 7);
    }

    #[test]
    fn quantile_is_exact_when_mass_sits_in_one_single_value_bucket() {
        // Buckets 0 ([0,0]) and 1 ([1,1]) each hold a single
        // representable value, so any quantile is exact.
        let mut m = MetricsRegistry::new();
        for _ in 0..17 {
            m.observe(HistogramId::ServeLatencyUs, 1);
        }
        let h = m.histogram(HistogramId::ServeLatencyUs).unwrap();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(1.0), "q={q}");
        }
        let mut z = MetricsRegistry::new();
        z.observe(HistogramId::ServeQueueDepth, 0);
        let h = z.histogram(HistogramId::ServeQueueDepth).unwrap();
        assert_eq!(h.quantile(0.5), Some(0.0));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket_and_ranks_across_buckets() {
        // 10 observations in bucket 3 ([4,7]): p50 lands mid-bucket.
        let mut m = MetricsRegistry::new();
        for _ in 0..10 {
            m.observe(HistogramId::EvalBindingFuel, 4);
        }
        let h = *m.histogram(HistogramId::EvalBindingFuel).unwrap();
        let p50 = h.quantile(0.5).unwrap();
        assert!((4.0..=7.0).contains(&p50), "{p50}");
        assert!((p50 - 5.5).abs() < 1e-9, "midpoint of [4,7]: {p50}");
        // Across buckets: 90 observations of 1, 10 of 1000 — p50 is
        // exactly 1, p99 lands in 1000's bucket [512,1023].
        let mut m = MetricsRegistry::new();
        for _ in 0..90 {
            m.observe(HistogramId::ServeLatencyUs, 1);
        }
        for _ in 0..10 {
            m.observe(HistogramId::ServeLatencyUs, 1000);
        }
        let h = *m.histogram(HistogramId::ServeLatencyUs).unwrap();
        assert_eq!(h.quantile(0.5), Some(1.0));
        let p99 = h.quantile(0.99).unwrap();
        assert!((512.0..=1023.0).contains(&p99), "{p99}");
        // Monotone in q.
        let mut last = f64::MIN;
        for i in 0..=20 {
            let v = h.quantile(i as f64 / 20.0).unwrap();
            assert!(v >= last, "quantile must be monotone: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        // A disabled registry has no histogram at all.
        let m = MetricsRegistry::off();
        assert!(m.histogram(HistogramId::ServeLatencyUs).is_none());
    }

    /// xorshift64* — deterministic, dependency-free randomness for the
    /// merge property tests.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn random_registry(seed: u64) -> MetricsRegistry {
        let mut s = seed.max(1);
        let mut m = MetricsRegistry::new();
        for &id in &CounterId::ALL {
            m.add(id, xorshift(&mut s) >> 32);
        }
        for &id in &GaugeId::ALL {
            m.set_gauge(id, xorshift(&mut s) >> 40);
        }
        for &id in &HistogramId::ALL {
            for _ in 0..(xorshift(&mut s) % 8) {
                m.observe(id, xorshift(&mut s) >> (xorshift(&mut s) % 60));
            }
        }
        m
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        // 32 random triples: a ⊔ b == b ⊔ a and (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        // across counters (saturating add), gauges (max), and
        // histograms (bucket-wise saturating add).
        for trial in 0..32u64 {
            let a = random_registry(trial * 3 + 1);
            let b = random_registry(trial * 3 + 2);
            let c = random_registry(trial * 3 + 3);

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative (trial {trial})");

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "merge must be associative (trial {trial})");
        }
    }

    #[test]
    fn catalog_names_are_distinct_and_table_is_sorted() {
        let mut names: Vec<&str> = CounterId::ALL
            .iter()
            .map(|c| c.name())
            .chain(GaugeId::ALL.iter().map(|g| g.name()))
            .chain(HistogramId::ALL.iter().map(|h| h.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");

        let m = MetricsRegistry::new();
        let table = m.render_table();
        let rows: Vec<&str> = table
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(rows, sorted, "table rows must be name-sorted:\n{table}");
        assert_eq!(rows.len(), total);
    }

    /// Apply a burst of random *monotone* activity to a live registry:
    /// counters add, histograms observe, gauges only ever rise. This
    /// models successive readings of one server between watch ticks.
    fn grow(m: &mut MetricsRegistry, seed: u64) {
        let mut s = seed.max(1);
        for &id in &CounterId::ALL {
            m.add(id, xorshift(&mut s) >> 48);
        }
        for &id in &GaugeId::ALL {
            let bump = xorshift(&mut s) >> 52;
            m.set_gauge(id, m.gauge(id) + bump);
        }
        for &id in &HistogramId::ALL {
            for _ in 0..(xorshift(&mut s) % 6) {
                m.observe(id, xorshift(&mut s) >> (xorshift(&mut s) % 60));
            }
        }
    }

    #[test]
    fn snapshot_delta_of_equal_readings_is_zero() {
        for trial in 0..16u64 {
            let a = random_registry(trial + 1).snapshot();
            assert!(a.delta(&a).is_zero(), "delta(a, a) must be zero");
        }
        assert!(MetricsSnapshot::default().is_zero());
        assert!(MetricsRegistry::off().snapshot().is_zero());
    }

    #[test]
    fn absorbing_a_delta_reconstructs_the_later_reading() {
        // a + delta(b, a) == b for successive readings of one live
        // registry — the invariant that lets a watch consumer sum tick
        // deltas into the server's absolute snapshot.
        for trial in 0..16u64 {
            let mut live = random_registry(trial * 7 + 1);
            let earlier = live.snapshot();
            grow(&mut live, trial * 7 + 2);
            grow(&mut live, trial * 7 + 3);
            let later = live.snapshot();
            let delta = later.delta(&earlier);
            let mut rebuilt = earlier.clone();
            rebuilt.absorb(&delta);
            assert_eq!(rebuilt, later, "absorb must invert delta (trial {trial})");
        }
        // Chained: summing every tick's delta from a zero start equals
        // the final absolute reading.
        let mut live = MetricsRegistry::new();
        let mut held = MetricsSnapshot::default();
        let mut prev = live.snapshot();
        for tick in 0..5u64 {
            grow(&mut live, tick + 100);
            let now = live.snapshot();
            held.absorb(&now.delta(&prev));
            prev = now;
        }
        assert_eq!(held, live.snapshot());
    }

    #[test]
    fn delta_quantiles_come_from_differenced_buckets_and_never_go_negative() {
        // 50 fast observations, snapshot, then 50 slow ones: the
        // delta's quantiles describe only the slow window, not the
        // all-time mix.
        let mut live = MetricsRegistry::new();
        for _ in 0..50 {
            live.observe(HistogramId::ServeLatencyUs, 1);
        }
        let earlier = live.snapshot();
        for _ in 0..50 {
            live.observe(HistogramId::ServeLatencyUs, 1000);
        }
        let later = live.snapshot();
        let all_time = later.histogram(HistogramId::ServeLatencyUs);
        assert_eq!(all_time.quantile(0.5), Some(1.0), "all-time p50 is fast");
        let window = later
            .histogram(HistogramId::ServeLatencyUs)
            .delta(earlier.histogram(HistogramId::ServeLatencyUs));
        assert_eq!(window.count, 50);
        let p50 = window.quantile(0.5).unwrap();
        assert!(
            (512.0..=1023.0).contains(&p50),
            "window p50 must see only the slow bucket: {p50}"
        );
        // Never negative — including for swapped (non-monotone)
        // arguments, where saturation yields an empty histogram.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert!(window.quantile(q).unwrap() >= 0.0, "q={q}");
        }
        let swapped = earlier
            .histogram(HistogramId::ServeLatencyUs)
            .delta(later.histogram(HistogramId::ServeLatencyUs));
        assert_eq!(swapped.count, 0);
        assert_eq!(swapped.quantile(0.5), None, "swapped delta is empty");
        for trial in 0..8u64 {
            let mut live = random_registry(trial + 40);
            let a = live.snapshot();
            grow(&mut live, trial + 50);
            let d = live.snapshot().delta(&a);
            for &id in &HistogramId::ALL {
                for q in [0.1, 0.5, 0.99] {
                    if let Some(v) = d.histogram(id).quantile(q) {
                        assert!(v >= 0.0, "delta quantile negative: {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_json_roundtrips_sparsely() {
        let mut live = MetricsRegistry::new();
        live.add(CounterId::ServeOk, 7);
        live.set_gauge(GaugeId::ResolveCacheEntries, 12);
        live.observe(HistogramId::ServeLatencyUs, 300);
        live.observe(HistogramId::ServeLatencyUs, 5);
        let snap = live.snapshot();
        let mut w = JsonWriter::new();
        w.begin_object();
        snap.write_json(&mut w);
        w.end_object();
        let s = w.finish();
        json::check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        // Sparse: untouched counters are absent entirely.
        assert!(s.contains("\"serve.ok\": 7"), "{s}");
        assert!(!s.contains("serve.err.internal"), "{s}");
        let parsed =
            MetricsSnapshot::from_json(&json::parse(&s).unwrap()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(parsed, snap, "write_json/from_json must round-trip");
        // An empty snapshot round-trips to empty.
        let zero = MetricsSnapshot::default();
        let mut w = JsonWriter::new();
        w.begin_object();
        zero.write_json(&mut w);
        w.end_object();
        let parsed = MetricsSnapshot::from_json(&json::parse(&w.finish()).unwrap()).unwrap();
        assert!(parsed.is_zero());
    }

    #[test]
    fn metrics_json_is_well_formed() {
        let mut m = MetricsRegistry::new();
        m.add(CounterId::ResolveCacheHits, 12);
        m.set_gauge(GaugeId::InternTableSize, 40);
        m.observe(HistogramId::ResolveGoalDepth, 0);
        m.observe(HistogramId::ResolveGoalDepth, 5);
        let mut w = JsonWriter::new();
        w.begin_object();
        m.write_json(&mut w);
        w.end_object();
        let s = w.finish();
        json::check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert!(s.contains("\"resolve.cache.hits\": 12"), "{s}");
        assert!(s.contains("\"intern.table_size\": 40"), "{s}");
        // Sparse buckets: 0 -> bucket "0", 5 -> bucket lo 4.
        assert!(s.contains("\"0\": 1"), "{s}");
        assert!(s.contains("\"4\": 1"), "{s}");
    }
}
