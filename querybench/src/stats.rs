//! Quantiles and the named metric set a run reports.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nanoseconds of a duration, saturating (a run never lasts 584 years).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Sample quantiles of one timing series, in nanoseconds.
pub struct Quantiles {
    sorted: Vec<u64>,
}

impl Quantiles {
    pub fn new(mut samples: Vec<u64>) -> Quantiles {
        samples.sort_unstable();
        Quantiles { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q` quantile with linear interpolation between order
    /// statistics; 0 for an empty series.
    pub fn at(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] as f64 * (1.0 - frac) + self.sorted[hi] as f64 * frac
    }

    pub fn sum(&self) -> u64 {
        self.sorted.iter().sum()
    }
}

/// Indices of the records that completed in each whole `span` of a loop,
/// given each record's completion time since the loop started. A trailing
/// partial span is dropped.
fn windows(
    done_ns: impl Iterator<Item = u64>,
    span: Duration,
    elapsed: Duration,
) -> Vec<Vec<usize>> {
    let span_ns = nanos(span).max(1);
    let whole = (nanos(elapsed) / span_ns) as usize;
    let mut out = vec![Vec::new(); whole];
    for (i, t) in done_ns.enumerate() {
        if let Some(w) = out.get_mut((t / span_ns) as usize) {
            w.push(i);
        }
    }
    out
}

/// Span of the windows a measured loop is cut into. End-to-end figures
/// are medians over windows, so a burst of interference from other tenants
/// of a shared machine moves a window or two, not the reported value.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One request of a measured loop, as the end-to-end metrics see it.
pub struct Timing {
    /// Completion time since the loop started.
    pub done_ns: u64,
    pub quote_ns: u64,
    pub request_ns: u64,
    pub ok: bool,
}

/// The loop's end-to-end metrics: throughput and quote/request p50/p90 as
/// medians over [`WINDOW`]s, and the share of requests that completed ok.
pub fn loop_metrics(requests: &[Timing], elapsed: Duration, values: &mut Values) {
    let spans = windows(requests.iter().map(|r| r.done_ns), WINDOW, elapsed);
    let over_windows =
        |f: &dyn Fn(&[usize]) -> f64| median(&spans.iter().map(|w| f(w)).collect::<Vec<_>>());
    let quantile = |w: &[usize], q: f64, pick: fn(&Timing) -> u64| {
        Quantiles::new(w.iter().map(|&i| pick(&requests[i])).collect()).at(q) / 1e6
    };
    // Completions per second between a window's first and last completion:
    // not quantised to whole requests per window.
    let rate = |w: &[usize]| {
        let done = || w.iter().map(|&i| requests[i].done_ns);
        match (done().min(), done().max()) {
            (Some(a), Some(b)) if b > a => share((w.len() - 1) as f64, (b - a) as f64 / 1e9),
            _ => w.len() as f64 / WINDOW.as_secs_f64(),
        }
    };
    values.insert("throughput_rps", over_windows(&rate));
    values.insert(
        "quote_p50_ms",
        over_windows(&|w| quantile(w, 0.5, |r| r.quote_ns)),
    );
    values.insert(
        "quote_p90_ms",
        over_windows(&|w| quantile(w, 0.9, |r| r.quote_ns)),
    );
    values.insert(
        "request_p50_ms",
        over_windows(&|w| quantile(w, 0.5, |r| r.request_ns)),
    );
    values.insert(
        "request_p90_ms",
        over_windows(&|w| quantile(w, 0.9, |r| r.request_ns)),
    );
    let ok = requests.iter().filter(|r| r.ok).count();
    values.insert("ok_share", share(ok as f64, requests.len() as f64));
}

/// Median of a few values (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `part / whole`, or 0 when nothing was measured.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Metric values of one run by name. Units live with the declared metric
/// lists in `main.rs`, which also fill in layers a workload does not use.
pub type Values = BTreeMap<&'static str, f64>;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let q = Quantiles::new(vec![40, 10, 30, 20]);
        assert_eq!(q.at(0.0), 10.0);
        assert_eq!(q.at(1.0), 40.0);
        assert_eq!(q.at(0.5), 25.0);
        assert_eq!(Quantiles::new(Vec::new()).at(0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
