//! The observer trait and ready-made sinks.
//!
//! [`ObsSink`] is generic over the delta payload `D` so this crate never
//! names the simulator's stats type — the simulator instantiates
//! `ObsSink<SimStats>` and stays the only place that knows what a stats
//! delta means. All callbacks have empty default bodies: a sink implements
//! only what it cares about, and the simulator pays nothing for callbacks a
//! sink ignores beyond the virtual call.

use std::sync::{Arc, Mutex};

use crate::metrics::Log2Hist;

/// One sampling interval's worth of telemetry: the delta of the full stats
/// between two interval boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample<D> {
    /// 0-based interval index within the run.
    pub index: u64,
    /// First cycle covered by this interval (inclusive).
    pub start_cycle: u64,
    /// Cycle at the interval's end boundary (exclusive; `end_cycle -
    /// start_cycle` is the interval length, shorter than the configured
    /// period only for the final flush).
    pub end_cycle: u64,
    /// Stats delta accumulated over `[start_cycle, end_cycle)`. Summing
    /// the deltas of all intervals reconstructs the run's final stats
    /// exactly — the simulator's tests enforce this field by field.
    pub delta: D,
}

/// One contiguous span of cycles the simulator skipped arithmetically
/// instead of stepping. Spans may cross interval boundaries; the simulator
/// attributes the skipped cycles to each interval in closed form, so a
/// span's `len` can exceed the sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipSpan {
    /// First skipped cycle.
    pub start_cycle: u64,
    /// Number of cycles skipped.
    pub len: u64,
    /// Why the span was provably idle (the simulator's idle classification,
    /// rendered to a static name so this crate stays simulator-agnostic).
    pub label: &'static str,
}

/// Observer interface the simulator drives. `D` is the stats-delta payload.
pub trait ObsSink<D> {
    /// An interval boundary was crossed; `sample.delta` covers exactly the
    /// cycles since the previous boundary (or run start).
    fn on_interval(&mut self, sample: &IntervalSample<D>) {
        let _ = sample;
    }

    /// Point-in-time gauge readings at an interval boundary (queue depths
    /// and other instantaneous state that has no meaningful delta).
    fn on_gauges(&mut self, cycle: u64, gauges: &[(&'static str, f64)]) {
        let _ = (cycle, gauges);
    }

    /// A span of provably idle cycles was skipped arithmetically.
    fn on_skip_span(&mut self, span: &SkipSpan) {
        let _ = span;
    }

    /// The run finished: `total` is the final stats, `cycles` the final
    /// cycle count. Fired after the trailing partial interval (if any).
    fn on_finish(&mut self, total: &D, cycles: u64) {
        let _ = (total, cycles);
    }
}

/// A sink that records everything in memory, for tests and offline export.
#[derive(Debug, Clone)]
pub struct MemSink<D> {
    /// All interval samples, in emission order.
    pub intervals: Vec<IntervalSample<D>>,
    /// All gauge snapshots, in emission order.
    pub gauges: Vec<(u64, Vec<(&'static str, f64)>)>,
    /// All skip spans, in emission order.
    pub skip_spans: Vec<SkipSpan>,
    /// Histogram of skip-span lengths.
    pub skip_hist: Log2Hist,
    /// Final `(total, cycles)` from [`ObsSink::on_finish`], if fired.
    pub finished: Option<(D, u64)>,
}

impl<D> Default for MemSink<D> {
    fn default() -> Self {
        MemSink {
            intervals: Vec::new(),
            gauges: Vec::new(),
            skip_spans: Vec::new(),
            skip_hist: Log2Hist::new(),
            finished: None,
        }
    }
}

impl<D> MemSink<D> {
    /// New empty sink.
    pub fn new() -> Self {
        MemSink::default()
    }
}

impl<D: Clone> ObsSink<D> for MemSink<D> {
    fn on_interval(&mut self, sample: &IntervalSample<D>) {
        self.intervals.push(sample.clone());
    }

    fn on_gauges(&mut self, cycle: u64, gauges: &[(&'static str, f64)]) {
        self.gauges.push((cycle, gauges.to_vec()));
    }

    fn on_skip_span(&mut self, span: &SkipSpan) {
        self.skip_spans.push(*span);
        self.skip_hist.record(span.len);
    }

    fn on_finish(&mut self, total: &D, cycles: u64) {
        self.finished = Some((total.clone(), cycles));
    }
}

/// Shared handle to a sink: the simulator takes ownership of the observer
/// it is given, so a caller that wants to read the collected telemetry
/// afterwards attaches a `Shared<MemSink<_>>` clone and keeps the other.
#[derive(Debug, Default)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Wrap a sink in a shared handle.
    pub fn new(inner: T) -> Self {
        Shared(Arc::new(Mutex::new(inner)))
    }

    /// Run `f` with the inner sink locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.lock().expect("obs sink poisoned"))
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<D, T: ObsSink<D>> ObsSink<D> for Shared<T> {
    fn on_interval(&mut self, sample: &IntervalSample<D>) {
        self.with(|s| s.on_interval(sample));
    }

    fn on_gauges(&mut self, cycle: u64, gauges: &[(&'static str, f64)]) {
        self.with(|s| s.on_gauges(cycle, gauges));
    }

    fn on_skip_span(&mut self, span: &SkipSpan) {
        self.with(|s| s.on_skip_span(span));
    }

    fn on_finish(&mut self, total: &D, cycles: u64) {
        self.with(|s| s.on_finish(total, cycles));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> IntervalSample<u64> {
        IntervalSample {
            index: i,
            start_cycle: i * 10,
            end_cycle: (i + 1) * 10,
            delta: i + 1,
        }
    }

    #[test]
    fn mem_sink_records_everything() {
        let mut s = MemSink::<u64>::new();
        s.on_interval(&sample(0));
        s.on_interval(&sample(1));
        s.on_gauges(10, &[("ready", 3.0)]);
        s.on_skip_span(&SkipSpan {
            start_cycle: 4,
            len: 6,
            label: "frontend-starved",
        });
        s.on_finish(&3, 20);
        assert_eq!(s.intervals.len(), 2);
        assert_eq!(s.gauges, vec![(10, vec![("ready", 3.0)])]);
        assert_eq!(s.skip_spans.len(), 1);
        assert_eq!(s.skip_hist.count(), 1);
        assert_eq!(s.finished, Some((3, 20)));
    }

    #[test]
    fn shared_delegates_and_is_readable_after() {
        let handle = Shared::new(MemSink::<u64>::new());
        let mut observer = handle.clone();
        observer.on_interval(&sample(0));
        observer.on_finish(&1, 10);
        assert_eq!(handle.with(|s| s.intervals.len()), 1);
        assert_eq!(handle.with(|s| s.finished), Some((1, 10)));
    }
}
