//! Observability layer for the Medea scheduling pipeline.
//!
//! Medea's evaluation (§7 of the paper) is entirely about *measured*
//! scheduling behavior — placement latency, ILP solve time versus cluster
//! size, violation counts. This crate is the cross-cutting substrate that
//! makes those measurements first-class in the reproduction, the way
//! Omega- and Borg-style systems expose per-scheduler-cycle metrics:
//!
//! - [`MetricsRegistry`] — a named collection of metric series. Handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s resolved once and
//!   then updated **lock-free** (plain atomics); the registry lock is only
//!   taken at registration and snapshot time, never on the hot path.
//! - [`Histogram`] — log-bucketed (power-of-two majors with 4 linear
//!   sub-buckets each, ≤ 6.25% relative width) with p50/p90/p99/max
//!   reconstruction by in-bucket interpolation.
//! - [`Timer`] — scoped RAII timers that record elapsed microseconds into
//!   a histogram on drop.
//! - [`MetricsRegistry::snapshot`]/[`MetricsRegistry::snapshot_json`] —
//!   point-in-time export, suitable for printing at the end of a bench
//!   run or scraping from a service endpoint.
//!
//! # Metric naming scheme
//!
//! Series are dot-separated `component.metric[_unit]` names, with the
//! component being the pipeline layer that emits them:
//!
//! | prefix    | layer                                           |
//! |-----------|-------------------------------------------------|
//! | `solver.` | MILP branch-and-bound + simplex (`medea-solver`)|
//! | `core.`   | the Medea scheduling cycle (`medea-core`)       |
//! | `task.`   | the task-based scheduler (`medea-core`)         |
//! | `sim.`    | the discrete-event driver (`medea-sim`)         |
//!
//! Counters end in `_total`, latency histograms in `_us` (microseconds)
//! or `_ticks` (simulated time), gauges carry no suffix.
//!
//! # Examples
//!
//! ```
//! use medea_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let cycles = registry.counter("core.cycles_total");
//! let depth = registry.gauge("core.queue_depth");
//! let cycle_time = registry.histogram("core.cycle_time_us");
//!
//! depth.set(3);
//! {
//!     let _t = cycle_time.start_timer(); // records on drop
//!     cycles.inc();
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("core.cycles_total"), Some(1));
//! assert!(registry.snapshot_json().contains("core.queue_depth"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A monotonically increasing event count (lock-free).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (lock-free).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Exact buckets for values `0..EXACT`; beyond that, each power-of-two
/// major is split into [`SUB_BUCKETS`] linear sub-buckets.
const EXACT: u64 = 8;
/// Linear sub-buckets per power-of-two major bucket.
const SUB_BUCKETS: u64 = 4;
/// Total bucket count: 8 exact + 4 per major for majors 3..=63.
const NUM_BUCKETS: usize = (EXACT + (64 - 3) * SUB_BUCKETS) as usize;

/// Returns the bucket index of a value.
fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= 3 here
    let sub = (v >> (msb - 2)) & (SUB_BUCKETS - 1);
    (EXACT + (msb - 3) * SUB_BUCKETS + sub) as usize
}

/// Returns the inclusive lower bound and width of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < EXACT {
        return (idx, 1);
    }
    let msb = 3 + (idx - EXACT) / SUB_BUCKETS;
    let sub = (idx - EXACT) % SUB_BUCKETS;
    let width = 1u64 << (msb - 2);
    ((1u64 << msb) + sub * width, width)
}

/// A lock-free log-bucketed histogram of non-negative integer samples
/// (typically microseconds of latency).
///
/// Relative bucket width is at most 1/16 of the value (4 sub-buckets per
/// octave), so interpolated percentiles are within ~6% of the true
/// sample, which is ample for latency reporting.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Starts a scoped timer that records elapsed microseconds into this
    /// histogram when dropped.
    pub fn start_timer(self: &Arc<Self>) -> Timer {
        Timer {
            histogram: Arc::clone(self),
            start: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Reads a consistent-enough snapshot of the bucket counts.
    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the owning bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from(&self.bucket_counts(), self.count(), self.max(), q)
    }
}

/// Quantile estimation shared by the live histogram and its snapshot.
fn quantile_from(buckets: &[u64], count: u64, max: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target sample, 1-based.
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (idx, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let (lo, width) = bucket_bounds(idx);
            let into = (rank - seen) as f64 / c as f64;
            // The max is tracked exactly; never report beyond it.
            return (lo as f64 + into * width as f64).min(max as f64);
        }
        seen += c;
    }
    max as f64
}

/// Scoped RAII timer: records elapsed microseconds into its histogram on
/// drop (including early returns and panics).
#[derive(Debug)]
pub struct Timer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl Timer {
    /// Stops the timer early, recording the elapsed time now.
    pub fn observe(self) {
        drop(self);
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

/// One registered series.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metric series.
///
/// Cloneable handle semantics come from wrapping in [`Arc`] at the call
/// site ([`MetricsRegistry::new`] returns an `Arc`); updates through
/// resolved handles are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry behind an [`Arc`] for cheap sharing
    /// across pipeline layers.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Metric>> {
        self.series.read().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Metric>> {
        self.series.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves (registering on first use) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Metric::Counter(c)) = self.lock_read().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.lock_write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Metric::Gauge(g)) = self.lock_read().get(name) {
            return Arc::clone(g);
        }
        let mut map = self.lock_write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Resolves (registering on first use) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = self.lock_read().get(name) {
            return Arc::clone(h);
        }
        let mut map = self.lock_write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.lock_read().len()
    }

    /// Whether the registry has no series.
    pub fn is_empty(&self) -> bool {
        self.lock_read().is_empty()
    }

    /// Takes a point-in-time snapshot of every series, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock_read();
        let series = map
            .iter()
            .map(|(name, m)| match m {
                Metric::Counter(c) => SeriesSnapshot {
                    name: name.clone(),
                    value: SeriesValue::Counter(c.get()),
                },
                Metric::Gauge(g) => SeriesSnapshot {
                    name: name.clone(),
                    value: SeriesValue::Gauge(g.get()),
                },
                Metric::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let count = h.count();
                    let max = h.max();
                    SeriesSnapshot {
                        name: name.clone(),
                        value: SeriesValue::Histogram(HistogramSummary {
                            count,
                            sum: h.sum(),
                            p50: quantile_from(&buckets, count, max, 0.50),
                            p90: quantile_from(&buckets, count, max, 0.90),
                            p99: quantile_from(&buckets, count, max, 0.99),
                            max,
                        }),
                    }
                }
            })
            .collect();
        Snapshot { series }
    }

    /// Serializes [`MetricsRegistry::snapshot`] as a JSON object.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Aggregate view of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 90th percentile.
    pub p90: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
    /// Exact maximum sample.
    pub max: u64,
}

/// Snapshot value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Series name (`component.metric_unit`).
    pub name: String,
    /// Captured value.
    pub value: SeriesValue,
}

/// A point-in-time snapshot of a whole registry, sorted by series name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All captured series.
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.value {
                SeriesValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.value {
                SeriesValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match &s.value {
                SeriesValue::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// Serializes the snapshot as JSON (stable key order, no external
    /// dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"type\":\"counter\",\"value\":{v}}}",
                        json_string(&s.name)
                    );
                }
                SeriesValue::Gauge(v) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"type\":\"gauge\",\"value\":{v}}}",
                        json_string(&s.name)
                    );
                }
                SeriesValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                        json_string(&s.name),
                        h.count,
                        h.sum,
                        json_f64(h.p50),
                        json_f64(h.p90),
                        json_f64(h.p99),
                        h.max
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// Declares a struct of pre-resolved metric handles, naming each handle
/// once: `field: Kind = "series.name"`. Generates the struct (each field
/// an `Arc` of its kind), `new(&MetricsRegistry)` resolving every series,
/// and `NAMES`, the series the struct registers.
///
/// ```
/// medea_obs::metric_handles! {
///     /// Handles of a toy layer.
///     pub struct ToyMetrics {
///         rounds: Counter = "toy.rounds_total",
///         depth: Gauge = "toy.depth",
///     }
/// }
/// let registry = medea_obs::MetricsRegistry::new();
/// let m = ToyMetrics::new(&registry);
/// m.rounds.inc();
/// m.depth.set(2);
/// assert_eq!(ToyMetrics::NAMES, ["toy.rounds_total", "toy.depth"]);
/// assert_eq!(registry.len(), 2);
/// ```
#[macro_export]
macro_rules! metric_handles {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($fvis:vis $field:ident: $kind:ident = $series:literal,)*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($fvis $field: ::std::sync::Arc<$crate::$kind>,)*
        }

        impl $name {
            /// Every series this struct resolves, in declaration order.
            $vis const NAMES: &'static [&'static str] = &[$($series),*];

            /// Resolves (registering on first use) every handle.
            $vis fn new(registry: &$crate::MetricsRegistry) -> Self {
                $name {
                    $($field: $crate::metric_handles!(@resolve registry, $kind, $series),)*
                }
            }
        }
    };
    (@resolve $registry:ident, Counter, $series:literal) => {
        $registry.counter($series)
    };
    (@resolve $registry:ident, Gauge, $series:literal) => {
        $registry.gauge($series)
    };
    (@resolve $registry:ident, Histogram, $series:literal) => {
        $registry.histogram($series)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain() {
        let mut last = 0usize;
        for v in [0u64, 1, 2, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last || v < 8, "index must not decrease");
            let (lo, width) = bucket_bounds(idx);
            // The final bucket's exclusive upper bound is 2^64, which
            // has no u64 representation: checked_add returning None
            // means every remaining value is contained.
            let below_upper = match lo.checked_add(width) {
                Some(upper) => v < upper,
                None => true,
            };
            assert!(
                v >= lo && below_upper,
                "value {v} outside bucket [{lo}, {lo}+{width})"
            );
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::new();
        let c = r.counter("a.x_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Resolving again returns the same underlying series.
        assert_eq!(r.counter("a.x_total").get(), 5);
        let g = r.gauge("a.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("a.b");
        r.gauge("a.b");
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.lat_us");
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Log-bucketing guarantees <= 1/16 relative error per bucket edge.
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.10, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.10, "p99 {p99}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.empty_us");
        assert_eq!(h.quantile(0.5), 0.0);
        let snap = r.snapshot();
        let s = snap.histogram("t.empty_us").unwrap();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn quantiles_never_exceed_max() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.one_us");
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 1_000_000.0);
        assert_eq!(h.quantile(1.0), 1_000_000.0);
    }

    #[test]
    fn timer_records_on_drop() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.scope_us");
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000, "2ms sleep must record >= 1000us");
    }

    #[test]
    fn snapshot_json_shape() {
        let r = MetricsRegistry::new();
        r.counter("z.c_total").add(3);
        r.gauge("a.g").set(-4);
        r.histogram("m.h_us").record(42);
        let json = r.snapshot_json();
        // Sorted by name: a.g before m.h_us before z.c_total.
        let a = json.find("a.g").unwrap();
        let m = json.find("m.h_us").unwrap();
        let z = json.find("z.c_total").unwrap();
        assert!(a < m && m < z);
        assert!(json.contains("\"type\":\"gauge\",\"value\":-4"));
        assert!(json.contains("\"type\":\"counter\",\"value\":3"));
        assert!(json.contains("\"count\":1"));
        assert!(json.starts_with("{\"series\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let r = MetricsRegistry::new();
        let c = r.counter("t.par_total");
        let h = r.histogram("t.par_us");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 512);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
