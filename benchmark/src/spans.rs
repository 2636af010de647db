//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer, named `<layer>.<call>`. Spans stay in memory as durations per
//! name and are summarised when the run ends. Service stages the
//! benchmark cannot wrap (queue wait, solve) come from the timings each
//! response carries instead.

use crate::report::Samples;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct Tracer {
    by_name: BTreeMap<&'static str, Samples>,
    spans: usize,
}

impl Tracer {
    /// Records a finished span.
    pub fn record(&mut self, name: &'static str, dur: Duration) {
        self.by_name
            .entry(name)
            .or_default()
            .push(dur.as_nanos() as f64);
        self.spans += 1;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start.elapsed());
        r
    }

    /// Durations of every span called `name`, in µs.
    pub fn micros(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        if let Some(ns) = self.by_name.get(name) {
            for &x in ns.values() {
                s.push(x / 1e3);
            }
        }
        s
    }

    pub fn len(&self) -> usize {
        self.spans
    }

    /// Cost of recording one span, measured by timing a burst of
    /// throw-away recordings into a spare tracer.
    pub fn per_span_cost_ns() -> f64 {
        const N: usize = 20_000;
        let mut spare = Tracer::default();
        let start = Instant::now();
        for i in 0..N {
            std::hint::black_box(spare.time("x", || i));
        }
        start.elapsed().as_nanos() as f64 / N as f64
    }
}
