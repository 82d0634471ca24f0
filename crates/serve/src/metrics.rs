//! Request metrics: counts, latency histograms, cache effectiveness.
//!
//! Rendered by `GET /metrics` in a Prometheus-style text exposition —
//! counters and cumulative histogram buckets — so the endpoint can feed
//! a real scrape pipeline unchanged. Recording is lock-light: one mutex
//! over a small per-endpoint table, taken once per request after the
//! response is written.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Duration;

/// Cumulative latency bucket upper bounds, µs. The last bucket is +Inf.
pub const LATENCY_BUCKETS_US: [u64; 7] = [100, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Per-endpoint counters.
#[derive(Debug, Default, Clone)]
struct EndpointStats {
    requests: u64,
    errors: u64,
    /// Cumulative counts per `LATENCY_BUCKETS_US` bound (+ one for Inf).
    buckets: [u64; LATENCY_BUCKETS_US.len() + 1],
    total_us: u64,
}

/// Server-wide metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: Mutex<BTreeMap<&'static str, EndpointStats>>,
    /// Connections answered with a shed `503` by the accept thread
    /// because the worker queue stayed saturated past the shed wait.
    sheds: AtomicU64,
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one served request against `endpoint` (a static route
    /// label, not the raw path — cardinality stays bounded).
    pub fn record(&self, endpoint: &'static str, latency: Duration, is_error: bool) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let mut map = self.endpoints.lock().unwrap_or_else(|e| e.into_inner());
        let e = map.entry(endpoint).or_default();
        e.requests += 1;
        if is_error {
            e.errors += 1;
        }
        e.total_us = e.total_us.saturating_add(us);
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            if us <= *bound {
                e.buckets[i] += 1;
            }
        }
        *e.buckets.last_mut().expect("bucket array non-empty") += 1;
    }

    /// Counts one connection shed with `503` before reaching a worker.
    pub fn record_shed(&self) {
        self.sheds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Connections shed so far.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total requests recorded across all endpoints.
    pub fn total_requests(&self) -> u64 {
        let map = self.endpoints.lock().unwrap_or_else(|e| e.into_inner());
        map.values().map(|e| e.requests).sum()
    }

    /// Renders the Prometheus-style exposition, including the cache
    /// section from `cache` and the store section from `store`. The
    /// store's resident bytes and evictions are the report cache's
    /// retained body bytes and budget evictions.
    pub fn render(
        &self,
        cache: &crate::cache::CacheStats,
        store: &crate::store::StoreStats,
    ) -> String {
        use std::fmt::Write;
        use std::sync::atomic::Ordering;
        let mut s = String::new();
        let map = self.endpoints.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(s, "# TYPE vex_requests_total counter");
        for (name, e) in map.iter() {
            let _ = writeln!(s, "vex_requests_total{{endpoint=\"{name}\"}} {}", e.requests);
        }
        let _ = writeln!(s, "# TYPE vex_request_errors_total counter");
        for (name, e) in map.iter() {
            let _ = writeln!(s, "vex_request_errors_total{{endpoint=\"{name}\"}} {}", e.errors);
        }
        let _ = writeln!(s, "# TYPE vex_requests_shed_total counter");
        let _ = writeln!(s, "vex_requests_shed_total {}", self.sheds());
        let _ = writeln!(s, "# TYPE vex_request_duration_us histogram");
        for (name, e) in map.iter() {
            for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "vex_request_duration_us_bucket{{endpoint=\"{name}\",le=\"{bound}\"}} {}",
                    e.buckets[i]
                );
            }
            let _ = writeln!(
                s,
                "vex_request_duration_us_bucket{{endpoint=\"{name}\",le=\"+Inf\"}} {}",
                e.buckets[LATENCY_BUCKETS_US.len()]
            );
            let _ = writeln!(
                s,
                "vex_request_duration_us_sum{{endpoint=\"{name}\"}} {}",
                e.total_us
            );
            let _ = writeln!(
                s,
                "vex_request_duration_us_count{{endpoint=\"{name}\"}} {}",
                e.requests
            );
        }
        drop(map);
        let hits = cache.hits.load(Ordering::Relaxed);
        let misses = cache.misses.load(Ordering::Relaxed);
        let coalesced = cache.coalesced.load(Ordering::Relaxed);
        let evictions = cache.evictions.load(Ordering::Relaxed);
        let _ = writeln!(s, "# TYPE vex_cache counter");
        let _ = writeln!(s, "vex_cache_hits_total {hits}");
        let _ = writeln!(s, "vex_cache_misses_total {misses}");
        let _ = writeln!(s, "vex_cache_coalesced_total {coalesced}");
        let _ = writeln!(s, "vex_cache_evictions_total {evictions}");
        let _ = writeln!(s, "# TYPE vex_cache_hit_rate gauge");
        let _ = writeln!(s, "vex_cache_hit_rate {:.6}", cache.hit_rate());
        let _ = writeln!(s, "# TYPE vex_store gauge");
        let _ = writeln!(s, "vex_store_resident_bytes {}", cache.bytes.load(Ordering::Relaxed));
        let _ = writeln!(
            s,
            "vex_store_memory_budget_bytes {}",
            store.memory_budget_bytes.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            s,
            "vex_store_quarantined_traces {}",
            store.quarantined.load(Ordering::Relaxed)
        );
        let _ = writeln!(s, "# TYPE vex_store_ops counter");
        let _ = writeln!(
            s,
            "vex_store_decodes_total {}",
            store.decodes_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            s,
            "vex_store_evictions_total {}",
            cache.budget_evictions.load(Ordering::Relaxed)
        );
        let _ =
            writeln!(s, "vex_ingest_total {}", store.ingested_total.load(Ordering::Relaxed));
        let _ = writeln!(
            s,
            "vex_ingest_errors_total {}",
            store.ingest_errors_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            s,
            "vex_ingest_bytes_total {}",
            store.ingested_bytes_total.load(Ordering::Relaxed)
        );
        let _ =
            writeln!(s, "vex_deletes_total {}", store.deleted_total.load(Ordering::Relaxed));
        let _ = writeln!(
            s,
            "vex_store_orphans_swept_total {}",
            store.orphans_swept.load(Ordering::Relaxed)
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use std::sync::atomic::Ordering;

    #[test]
    fn records_counts_and_buckets() {
        let m = Metrics::new();
        m.record("report", Duration::from_micros(50), false);
        m.record("report", Duration::from_micros(700), false);
        m.record("report", Duration::from_secs(10), true);
        m.record("healthz", Duration::from_micros(10), false);
        m.record_shed();
        m.record_shed();
        assert_eq!(m.total_requests(), 4);
        assert_eq!(m.sheds(), 2);

        let stats = CacheStats::default();
        stats.hits.fetch_add(3, Ordering::Relaxed);
        stats.misses.fetch_add(1, Ordering::Relaxed);
        stats.bytes.store(12345, Ordering::Relaxed);
        stats.budget_evictions.store(2, Ordering::Relaxed);
        let store = crate::store::StoreStats::default();
        store.ingested_total.store(7, Ordering::Relaxed);
        let text = m.render(&stats, &store);
        assert!(text.contains("vex_requests_total{endpoint=\"report\"} 3"), "{text}");
        assert!(text.contains("vex_request_errors_total{endpoint=\"report\"} 1"), "{text}");
        // 50us lands in every bucket; 10s only in +Inf.
        assert!(
            text.contains("vex_request_duration_us_bucket{endpoint=\"report\",le=\"100\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("vex_request_duration_us_bucket{endpoint=\"report\",le=\"1000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("vex_request_duration_us_bucket{endpoint=\"report\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("vex_cache_hits_total 3"), "{text}");
        assert!(text.contains("vex_cache_hit_rate 0.75"), "{text}");
        assert!(text.contains("vex_store_resident_bytes 12345"), "{text}");
        assert!(text.contains("vex_store_evictions_total 2"), "{text}");
        assert!(text.contains("vex_ingest_total 7"), "{text}");
        assert!(text.contains("vex_store_memory_budget_bytes 0"), "{text}");
        assert!(text.contains("vex_requests_shed_total 2"), "{text}");
    }

    /// The lines vexbench's `scrape` parses, each as `name value`: a
    /// missing one would only show as a failed benchmark run.
    #[test]
    fn benchmark_scrape_lines_are_present() {
        let text = Metrics::new().render(&CacheStats::default(), &Default::default());
        for name in [
            "vex_cache_hits_total",
            "vex_cache_misses_total",
            "vex_store_decodes_total",
            "vex_store_evictions_total",
            "vex_requests_shed_total",
        ] {
            let value = text
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("no `{name} value` line in:\n{text}"));
            assert!(value.trim().parse::<f64>().is_ok(), "{name} {value}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        for us in [50u64, 400, 900, 4000, 20_000] {
            m.record("e", Duration::from_micros(us), false);
        }
        let text = m.render(&CacheStats::default(), &crate::store::StoreStats::default());
        let count_for = |bound: &str| -> u64 {
            let needle =
                format!("vex_request_duration_us_bucket{{endpoint=\"e\",le=\"{bound}\"}} ");
            let line = text
                .lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("no bucket {bound}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        assert_eq!(count_for("100"), 1);
        assert_eq!(count_for("500"), 2);
        assert_eq!(count_for("1000"), 3);
        assert_eq!(count_for("5000"), 4);
        assert_eq!(count_for("25000"), 5);
        assert_eq!(count_for("+Inf"), 5);
    }
}
