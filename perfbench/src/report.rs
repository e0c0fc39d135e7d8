//! What one workload run reports: the end-to-end metrics, the sample
//! count behind each percentile, and the output-check verdict.

use std::fmt::Write as _;

use crate::engine::Tally;
use crate::stats::{median, peak_rss_mb, percentile};

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures (empty when every check passed).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Metrics recorded in the run record only (not gated: reported on
    /// some workloads only, or identically zero on a healthy run).
    pub extra: Vec<Metric>,
    /// Sample count behind each percentile metric.
    pub samples: Vec<(&'static str, usize)>,
}

impl Report {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_owned(), unit, value });
    }

    pub fn push_extra(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.extra.push(Metric { name: name.into(), unit, value });
    }

    /// Records a failed check (the run then exits non-zero).
    pub fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line, printed last.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust prints (shortest round-trip);
/// non-finite values, which JSON cannot carry, become 0.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Throughput as the median over up to ten contiguous blocks of units, so
/// one descheduled stretch moves one block, not the figure.
#[must_use]
pub fn median_block_rate(units: &[(u64, f64)]) -> f64 {
    let blocks = units.len().clamp(1, 10);
    let per = units.len().div_ceil(blocks).max(1);
    let rates: Vec<f64> = units
        .chunks(per)
        .map(|c| {
            let n: u64 = c.iter().map(|u| u.0).sum();
            let s: f64 = c.iter().map(|u| u.1).sum();
            n as f64 / s.max(1e-12)
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// The `q`-quantile as the median over up to ten contiguous blocks of
/// the samples (in arrival order), for the same reason as
/// [`median_block_rate`].
#[must_use]
pub fn median_block_percentile(samples: &[f64], q: f64) -> f64 {
    let blocks = samples.len().clamp(1, 10);
    let per = samples.len().div_ceil(blocks).max(1);
    let qs: Vec<f64> = samples.chunks(per).filter_map(|c| percentile(c, q)).collect();
    median(&qs).unwrap_or(0.0)
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, plus the record-only ones.
pub fn end_to_end(report: &mut Report, tally: &Tally, setups: &[f64], lifecycle: bool) {
    let lat = &tally.latency_us;
    report.push("throughput_ips", "1/s", median_block_rate(&tally.units));
    report.push("latency_p50_us", "us", median_block_percentile(lat, 0.5));
    report.push("latency_p90_us", "us", median_block_percentile(lat, 0.9));
    report.push("setup_s", "s", median(setups).unwrap_or(0.0));
    let q = tally.quality_results.max(1) as f64;
    report.push("quality_error", "error", tally.quality_error_sum / q);
    report.push("fix_share", "share", tally.quality_fired as f64 / q);
    report.push("peak_rss_mb", "MB", peak_rss_mb());
    report.samples.push(("latency", lat.len()));
    report.samples.push(("latency_blocks", lat.len().clamp(1, 10)));
    report.samples.push(("throughput_blocks", tally.units.len().clamp(1, 10)));
    report.samples.push(("quality_results", tally.quality_results as usize));
    report.samples.push(("setup", setups.len()));
    if lifecycle {
        let lc = &tally.lifecycle_ms;
        report.push_extra("lifecycle_p50_ms", "ms", median_block_percentile(lc, 0.5));
        report.push_extra("lifecycle_p90_ms", "ms", median_block_percentile(lc, 0.9));
        report.samples.push(("lifecycle", lc.len()));
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed();
    report.push_extra("fail_share", "share", tally.failed() as f64 / tally.attempted.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rate_is_a_median_of_blocks() {
        // Nine steady blocks at 100/s and one stalled block.
        let mut units: Vec<(u64, f64)> = (0..9).map(|_| (100, 1.0)).collect();
        units.push((100, 50.0));
        assert!((median_block_rate(&units) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn block_percentiles_ignore_one_bad_block() {
        let mut lat: Vec<f64> = (0..900).map(|i| f64::from(i % 100)).collect();
        lat.extend(std::iter::repeat_n(1e6, 100));
        assert!((median_block_percentile(&lat, 0.5) - 49.5).abs() < 1e-9);
        assert!((median_block_percentile(&lat, 0.9) - 89.1).abs() < 1e-9);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.push("setup_s", "s", 0.5);
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.require(false, "mismatch");
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
