//! Metric records, quantiles over raw samples, and the result line.

use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from (`None` for counts and
    /// single measurements).
    pub samples: Option<usize>,
    /// Free-text qualifier printed beside the value (which percentile,
    /// "computed", "n/a on this workload", ...).
    pub note: String,
}

/// What one run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check passed (books balance, answers match
    /// their oracle). Failed operations are counted, not fatal.
    pub correct: bool,
    /// Check failures, printed before the result line.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// End-to-end figures that do not fit the gated set
    /// (serve-only or zero-valued); printed, never gated.
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.correct = false;
        self.problems.push(msg.into());
    }
}

/// Adds metrics to a list with less ceremony.
pub struct Sink<'a>(pub &'a mut Vec<Metric>);

impl Sink<'_> {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: None,
            note: String::new(),
        });
    }

    pub fn put_n(&mut self, name: &str, unit: &'static str, value: f64, n: usize, note: &str) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: Some(n),
            note: note.to_string(),
        });
    }

    /// A quantile of raw samples, with the sample count and the
    /// percentile beside it.
    pub fn quantile(&mut self, name: &str, unit: &'static str, s: &Samples, q: f64) {
        let note = format!("p{}", fmt_pct(q));
        self.put_n(name, unit, s.quantile(q), s.len(), &note);
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least ten
    /// samples beyond it, named in the note.
    pub fn tail(&mut self, name: &str, unit: &'static str, s: &Samples) {
        self.quantile(name, unit, s, tail_quantile(s.len()));
    }

    /// A metric that does not apply to this workload: reported as 0 so
    /// every workload prints the same set.
    pub fn absent(&mut self, name: &str, unit: &'static str) {
        self.put_n(name, unit, 0.0, 0, "n/a on this workload");
    }
}

/// Candidate tail percentiles, lowest first; also the quantiles
/// [`print_spread`] shows.
const TAIL_LADDER: [f64; 7] = [0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999];

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it (p50 when even p90 does not).
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

fn fmt_pct(q: f64) -> String {
    let s = format!("{:.2}", q * 100.0);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Raw samples; quantiles are taken from the sorted values, never from
/// histogram bins.
#[derive(Default, Clone)]
pub struct Samples {
    v: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.v.push(x);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.v
    }

    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.v.iter().sum::<f64>() / self.v.len() as f64
    }

    /// Linear interpolation between closest ranks; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.v, q)
    }
}

pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// One line of quantiles, for reading the shape of a distribution.
pub fn print_spread(what: &str, s: &Samples) {
    let mut line = format!("# {what} (n={}):", s.len());
    for q in TAIL_LADDER {
        let _ = write!(line, " p{}={:.4}", fmt_pct(q), s.quantile(q));
    }
    println!("{line}");
}

/// Peak resident set size in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time of the whole process so far (every thread, exited ones
/// included), in seconds, from `utime + stime` in `/proc/self/stat`.
pub fn cpu_seconds() -> Result<f64, String> {
    /// `/proc` counts CPU time in USER_HZ ticks, 100 per second.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The fields after the parenthesised command name start at `state`;
    // utime and stime are the 12th and 13th of them.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse::<f64>().ok())
        .collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) / TICKS_PER_S),
        _ => Err("no utime/stime in /proc/self/stat".into()),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn print_group(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  n={n}"));
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{:<36} {:>16.6} {:<6}{n}{note}", m.name, m.value, m.unit);
    }
}

/// Prints the human-readable report and, as the last line of standard
/// output, the result object.
pub fn emit(out: &Outcome, traced: bool) {
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    print_group("end-to-end", &out.end_to_end);
    print_group("end-to-end, ungated", &out.info);
    if traced {
        print_group("per-layer", &out.per_layer);
    }
    let chosen = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut metrics = String::new();
    for (i, m) in chosen.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
}
