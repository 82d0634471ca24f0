//! The report cache: bounded LRU + single-flight computation.
//!
//! A report streams and replays its whole trace, so the server caches
//! rendered bodies keyed by `(trace incarnation, endpoint, params)` —
//! the trace's id plus its [`crate::store::TraceEntry::generation`], so
//! an id reused after a delete never aliases the old entries. Two
//! production behaviours matter beyond the map itself:
//!
//! * **LRU bound** — at most `capacity` entries, holding at most
//!   `budget` body bytes, stay resident; the least recently *used* entry
//!   is evicted, so a hot report stays hot however many cold ones pass
//!   through. A body larger than the whole budget is returned but not
//!   kept.
//! * **Single-flight** — when N requests for the same cold key arrive
//!   concurrently, exactly one thread computes; the rest block on the
//!   flight and share its result. A thundering herd on a cold cache runs
//!   the analysis once, not N times.
//!
//! `capacity == 0` disables retention but keeps single-flight: concurrent
//! duplicates still coalesce, nothing is kept afterwards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A computed response body, or the status and message of a failed
/// computation, shared between the cache and its readers.
pub type CachedValue = Arc<Result<crate::http::Response, (crate::http::Status, String)>>;

/// One in-flight computation; completed exactly once, then read by every
/// coalesced waiter.
struct Flight {
    slot: Mutex<Option<CachedValue>>,
    done: Condvar,
}

struct CacheState {
    /// key → (value, last-use tick).
    entries: HashMap<String, (CachedValue, u64)>,
    inflight: HashMap<String, Arc<Flight>>,
    tick: u64,
    /// Body bytes of `entries`.
    bytes: u64,
}

/// Counters the `/metrics` endpoint exposes.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: AtomicU64,
    /// Requests that ran the computation.
    pub misses: AtomicU64,
    /// Requests that waited on another request's in-flight computation.
    pub coalesced: AtomicU64,
    /// Entries evicted to stay within capacity.
    pub evictions: AtomicU64,
    /// Entries evicted to stay within the byte budget.
    pub budget_evictions: AtomicU64,
    /// Body bytes currently retained (gauge).
    pub bytes: AtomicU64,
}

impl CacheStats {
    /// Hit rate over all lookups (coalesced waits count as hits: the
    /// analysis did not run again for them).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed) + self.coalesced.load(Ordering::Relaxed);
        let total = hits + self.misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Bounded LRU cache with single-flight computation.
pub struct ReportCache {
    state: Mutex<CacheState>,
    capacity: usize,
    budget: u64,
    stats: CacheStats,
}

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("ReportCache")
            .field("capacity", &self.capacity)
            .field("budget", &self.budget)
            .field("entries", &st.entries.len())
            .field("inflight", &st.inflight.len())
            .finish()
    }
}

impl ReportCache {
    /// A cache holding at most `capacity` entries and at most `budget`
    /// body bytes (`None` = no byte bound).
    pub fn new(capacity: usize, budget: Option<u64>) -> Self {
        ReportCache {
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                inflight: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            capacity,
            budget: budget.unwrap_or(u64::MAX),
            stats: CacheStats::default(),
        }
    }

    /// Lookup/compute counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// a miss. Concurrent callers with the same key coalesce onto one
    /// computation.
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<crate::http::Response, (crate::http::Status, String)>,
    ) -> CachedValue {
        // Fast path + flight registration under one lock.
        let flight = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.tick += 1;
            let tick = st.tick;
            if let Some((value, last_use)) = st.entries.get_mut(key) {
                *last_use = tick;
                let value = value.clone();
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return value;
            }
            if let Some(flight) = st.inflight.get(key) {
                let flight = flight.clone();
                drop(st);
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                return Self::wait(&flight);
            }
            let flight = Arc::new(Flight { slot: Mutex::new(None), done: Condvar::new() });
            st.inflight.insert(key.to_owned(), flight.clone());
            flight
        };

        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the cache lock so unrelated keys proceed.
        let value: CachedValue = Arc::new(compute());

        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.inflight.remove(key);
            // Only successful computations are retained; errors are
            // returned to the coalesced waiters but not cached, so a
            // transient failure does not poison the key.
            if self.capacity > 0 && value.is_ok() && body_bytes(&value) <= self.budget {
                st.tick += 1;
                let tick = st.tick;
                st.bytes += body_bytes(&value);
                st.entries.insert(key.to_owned(), (value.clone(), tick));
                // The entry just inserted is the newest and fits the
                // budget alone, so it is never the one evicted.
                while st.entries.len() > self.capacity || st.bytes > self.budget {
                    let over_capacity = st.entries.len() > self.capacity;
                    let coldest = st
                        .entries
                        .iter()
                        .min_by_key(|(_, (_, t))| *t)
                        .map(|(k, _)| k.clone())
                        .expect("non-empty over its bounds");
                    if let Some((evicted, _)) = st.entries.remove(&coldest) {
                        st.bytes -= body_bytes(&evicted);
                    }
                    let counter = if over_capacity {
                        &self.stats.evictions
                    } else {
                        &self.stats.budget_evictions
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.bytes.store(st.bytes, Ordering::Relaxed);
            }
        }

        let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(value.clone());
        drop(slot);
        flight.done.notify_all();
        value
    }

    fn wait(flight: &Flight) -> CachedValue {
        let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = slot.as_ref() {
                return value.clone();
            }
            slot = flight.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Body bytes of a cached value (errors are never cached).
fn body_bytes(value: &CachedValue) -> u64 {
    value.as_ref().as_ref().map_or(0, |r| r.body.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Response, Status};
    use std::sync::atomic::AtomicUsize;

    fn body(s: &str) -> Result<Response, (Status, String)> {
        Ok(Response::text(Status::Ok, s))
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = ReportCache::new(4, None);
        let a = cache.get_or_compute("k", || body("v"));
        let b = cache.get_or_compute("k", || panic!("must be cached"));
        assert_eq!(a.as_ref().as_ref().unwrap().body, b"v");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
        assert!(cache.stats().hit_rate() > 0.49);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ReportCache::new(2, None);
        cache.get_or_compute("a", || body("a"));
        cache.get_or_compute("b", || body("b"));
        cache.get_or_compute("a", || panic!("a is hot")); // touch a
        cache.get_or_compute("c", || body("c")); // evicts b
        assert_eq!(cache.len(), 2);
        cache.get_or_compute("a", || panic!("a survived"));
        let recomputed = AtomicUsize::new(0);
        cache.get_or_compute("b", || {
            recomputed.fetch_add(1, Ordering::Relaxed);
            body("b2")
        });
        assert_eq!(recomputed.load(Ordering::Relaxed), 1, "b was evicted");
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn byte_budget_evicts_lru_and_skips_oversized_bodies() {
        let cache = ReportCache::new(8, Some(6));
        cache.get_or_compute("a", || body("aaa"));
        cache.get_or_compute("b", || body("bbb"));
        assert_eq!(cache.stats().bytes.load(Ordering::Relaxed), 6);
        cache.get_or_compute("a", || panic!("a is hot")); // touch a
        cache.get_or_compute("c", || body("cc")); // evicts b
        assert_eq!(cache.stats().bytes.load(Ordering::Relaxed), 5);
        assert_eq!(cache.stats().budget_evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 0);
        cache.get_or_compute("a", || panic!("a survived"));
        // Larger than the whole budget: served, not kept, nothing evicted.
        let big = cache.get_or_compute("big", || body("0123456"));
        assert_eq!(big.as_ref().as_ref().unwrap().body, b"0123456");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().bytes.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn zero_capacity_never_retains() {
        let cache = ReportCache::new(0, None);
        cache.get_or_compute("k", || body("1"));
        let ran = AtomicUsize::new(0);
        cache.get_or_compute("k", || {
            ran.fetch_add(1, Ordering::Relaxed);
            body("2")
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_returned_but_not_cached() {
        let cache = ReportCache::new(4, None);
        let v = cache.get_or_compute("k", || Err((Status::NotFound, "boom".into())));
        assert_eq!(v.as_ref().as_ref().unwrap_err(), &(Status::NotFound, "boom".to_owned()));
        assert!(cache.is_empty());
        let v = cache.get_or_compute("k", || body("recovered"));
        assert!(v.as_ref().is_ok());
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        let cache = Arc::new(ReportCache::new(4, None));
        let computations = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let computations = computations.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let v = cache.get_or_compute("hot", || {
                    computations.fetch_add(1, Ordering::Relaxed);
                    // Give the herd time to pile onto the flight.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    body("shared")
                });
                assert_eq!(v.as_ref().as_ref().unwrap().body, b"shared");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            computations.load(Ordering::Relaxed),
            1,
            "the herd must coalesce onto one computation"
        );
        let s = cache.stats();
        assert_eq!(s.misses.load(Ordering::Relaxed), 1);
        assert_eq!(s.hits.load(Ordering::Relaxed) + s.coalesced.load(Ordering::Relaxed), 7);
    }
}
