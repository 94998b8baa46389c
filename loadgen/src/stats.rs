//! Percentiles and the Prometheus-exposition scraper.

/// Nearest-rank `pct`-th percentile of ascending `sorted` (non-empty).
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `pct`-th percentile position.
/// A tail percentile is reported only when at least ten samples lie
/// beyond it; fewer make it a guess at the maximum.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    n - (pct * n).div_ceil(100)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50)
}

/// A parsed `{"cmd":"metrics"}` exposition: `(series name, labels,
/// value)` per sample line.
#[derive(Default)]
pub struct Exposition {
    samples: Vec<(String, String, f64)>,
}

impl Exposition {
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("exposition line without a value: {line:?}"))?;
            let (name, labels) = series.split_at(series.find('{').unwrap_or(series.len()));
            let value = value
                .parse::<f64>()
                .map_err(|e| format!("bad sample value in {line:?}: {e}"))?;
            samples.push((name.to_string(), labels.to_string(), value));
        }
        Ok(Exposition { samples })
    }

    /// Sum of every sample of series `name`, across label values (0 when
    /// the series was never registered).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Adds `other`'s samples to this one, so a cluster's expositions
    /// read as one.
    pub fn merge(mut self, other: Exposition) -> Exposition {
        self.samples.extend(other.samples);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::envelope;
    use gcco_api::serve::{fetch_metrics, serve, submit_batch, ServeConfig};
    use gcco_api::{Engine, EvalRequest, ModelSpec};
    use gcco_store::Store;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[3.0], 90), 3.0);
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(samples_beyond(10, 50), 5);
    }

    #[test]
    fn scraper_reads_a_live_serve_exposition() {
        let dir = std::env::temp_dir().join(format!("gcco-loadgen-scrape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("store opens"));
        let server =
            serve(&ServeConfig::default(), Engine::new().with_store(store)).expect("server binds");
        let addr = server.local_addr();
        let req = EvalRequest::BerPoint {
            spec: ModelSpec::paper_table1(),
            sj: None,
        };
        let timeout = Duration::from_secs(60);
        for id in 1..=2 {
            let replies = submit_batch(&addr, &[envelope(id, req.clone())], timeout)
                .expect("request answered");
            assert!(replies[0].result.is_ok());
        }
        let metrics = Exposition::parse(&fetch_metrics(&addr, timeout).expect("metrics"))
            .expect("exposition parses");
        assert_eq!(metrics.sum("gcco_serve_requests_total"), 2.0);
        assert_eq!(metrics.sum("gcco_engine_request_seconds_count"), 2.0);
        assert!(metrics.sum("gcco_engine_request_seconds_sum") > 0.0);
        assert_eq!(metrics.sum("gcco_store_misses_total"), 1.0);
        assert_eq!(metrics.sum("gcco_store_hits_total"), 1.0);
        assert_eq!(metrics.sum("gcco_serve_queue_wait_seconds_count"), 2.0);
        assert_eq!(metrics.sum("gcco_no_such_series"), 0.0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
