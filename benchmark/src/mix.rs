//! The serve-mix traffic: a seeded request plan and the load generator
//! that plays it against a running `vex serve`.
//!
//! The plan is dealt from shuffled decks rather than drawn independently,
//! so every seed yields the same request composition in a different
//! order. Each block of [`SESSION`] requests holds three index reads,
//! four reports, one flowgraph, one diff and one write (seven writes in
//! ten are ingests, three are deletes). Two of the four reports come
//! from a small hot set of keys and two from a larger cold set. Keys are
//! dealt cyclically, so a hot key, a flowgraph and a diff return after
//! fewer distinct keys than the 16-entry report cache holds and always
//! hit, while a cold key returns only after the whole cold set and always
//! misses. Cold keys come in the corpus's own order for every seed, so
//! every run pays the same decode-and-evict pattern. Run-to-run spread
//! then comes from ordering and arrival times, not from a different mix
//! or a different hit ratio.

use crate::spans::Tracer;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use vex_workloads::XorShift;

/// Requests per block of the plan, and per closed-loop session.
pub const SESSION: usize = 10;

/// Request class, the unit of the per-class latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Index-only reads: the listing, objects and kernels.
    Index,
    /// `GET /traces/{id}/report`.
    Report,
    /// `GET /traces/{id}/flowgraph`.
    Flowgraph,
    /// `GET /traces/{a}/diff/{b}`.
    Diff,
    /// `POST /ingest/{id}`.
    Ingest,
    /// `DELETE /traces/{id}`.
    Delete,
}

/// What a response body must equal, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RefKey {
    /// The text report of trace `id` under query `params`.
    Report {
        /// Trace whose bytes the report is computed from.
        id: String,
        /// Query string (`""` for the defaults).
        params: String,
    },
    /// The default DOT flowgraph of trace `id`.
    Flowgraph {
        /// Trace id.
        id: String,
    },
    /// The default text diff of `a` against `b`.
    Diff {
        /// Before side.
        a: String,
        /// After side.
        b: String,
    },
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Send time, seconds after the open loop starts (open loop only).
    pub due_s: f64,
    /// Request class.
    pub class: Class,
    /// HTTP method.
    pub method: &'static str,
    /// Request target (path and query).
    pub target: String,
    /// Body reference, for requests whose bodies are checked.
    pub key: Option<RefKey>,
    /// Expected status code.
    pub expect: u16,
    /// Earlier plan entries that must complete before this one is sent
    /// (an ingest before reads of the id, reads before its delete).
    pub deps: Vec<usize>,
}

/// The traces a mix runs against.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Trace ids present at startup.
    pub ids: Vec<String>,
    /// Before/after pairs the diff requests compare.
    pub pairs: Vec<(String, String)>,
    /// Hot report keys, (trace id, query string).
    pub hot: Vec<(String, String)>,
    /// Cold report keys; more than the hot ones, flowgraphs and diffs
    /// leave room for in the report cache.
    pub cold: Vec<(String, String)>,
    /// Traces whose flowgraphs the mix requests.
    pub flowgraphs: Vec<String>,
    /// The trace whose bytes ingests push; cold reports of it target the
    /// newest ingested copy when one exists.
    pub ingest_source: String,
    /// Prefix of ingested trace ids.
    pub ingest_prefix: String,
}

impl Corpus {
    /// Requests in one pass over the cold keys (two per block).
    pub fn cycle_len(&self) -> usize {
        SESSION * self.cold.len().div_ceil(2).max(1)
    }

    /// The requests that fill the report cache with every key the mix
    /// expects to hit: the hot reports, the flowgraphs and the diffs.
    pub fn warm_targets(&self) -> Vec<String> {
        let hot = self.hot.iter().map(|(id, q)| report_target(id, q));
        let flows = self.flowgraphs.iter().map(|id| format!("/traces/{id}/flowgraph"));
        let diffs = self.pairs.iter().map(|(a, b)| format!("/traces/{a}/diff/{b}"));
        hot.chain(flows).chain(diffs).collect()
    }
}

fn report_target(id: &str, query: &str) -> String {
    if query.is_empty() {
        format!("/traces/{id}/report")
    } else {
        format!("/traces/{id}/report?{query}")
    }
}

/// A deck of cards dealt in shuffled order.
struct Deck<T: Clone> {
    cards: Vec<T>,
    pos: usize,
    /// Shuffle again each time the deck runs out; otherwise the first
    /// shuffled order repeats, so every card comes back exactly one deck
    /// length later.
    reshuffle: bool,
    shuffled: bool,
}

impl<T: Clone> Deck<T> {
    /// A deck shuffled afresh on every pass.
    fn new(cards: Vec<T>) -> Self {
        assert!(!cards.is_empty(), "a deck needs cards");
        Deck { cards, pos: 0, reshuffle: true, shuffled: false }
    }

    /// A deck shuffled once, then dealt cyclically.
    fn cycle(cards: Vec<T>) -> Self {
        Deck { reshuffle: false, ..Deck::new(cards) }
    }

    /// A deck dealt cyclically in the given order.
    fn fixed(cards: Vec<T>) -> Self {
        Deck { shuffled: true, ..Deck::cycle(cards) }
    }

    fn deal(&mut self, rng: &mut XorShift) -> T {
        if self.pos == 0 && (self.reshuffle || !self.shuffled) {
            self.shuffled = true;
            for i in (1..self.cards.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
        }
        let card = self.cards[self.pos].clone();
        self.pos = (self.pos + 1) % self.cards.len();
        card
    }
}

/// Uniform float in `(0, 1]`.
fn unit_open(rng: &mut XorShift) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// A slot of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Card {
    Index,
    Hot,
    Cold,
    Flowgraph,
    Diff,
    Write,
}

/// Plans `open + closed` requests for `seed`: the first `open` carry
/// Poisson arrival times at `rate` requests per second, the rest are for
/// the closed loop and carry none. Both counts are rounded up to whole
/// blocks, so every class appears in each part and closed-loop sessions
/// line up with blocks; an `open` of whole [`Corpus::cycle_len`] passes
/// gives every seed the same open-loop requests.
pub fn plan(seed: u64, corpus: &Corpus, rate: f64, open: usize, closed: usize) -> Vec<Planned> {
    let open = open.div_ceil(SESSION) * SESSION;
    let closed = closed.div_ceil(SESSION) * SESSION;
    let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBE7C);
    use Card::*;
    let mut block =
        Deck::new(vec![Index, Index, Index, Hot, Hot, Cold, Cold, Flowgraph, Diff, Write]);
    debug_assert_eq!(block.cards.len(), SESSION);
    let mut writes = Deck::new([[Class::Ingest; 7].as_slice(), &[Class::Delete; 3]].concat());
    let mut index_targets = vec!["/traces".to_owned()];
    for id in &corpus.ids {
        index_targets.push(format!("/traces/{id}/objects"));
        index_targets.push(format!("/traces/{id}/kernels"));
    }
    let mut index = Deck::cycle(index_targets);
    let mut hot = Deck::cycle(corpus.hot.clone());
    let mut cold = Deck::fixed(corpus.cold.clone());
    let mut flows = Deck::cycle(corpus.flowgraphs.clone());
    let mut diffs = Deck::cycle(corpus.pairs.clone());

    let mut out: Vec<Planned> = Vec::with_capacity(open + closed);
    // Ingested ids the plan has not deleted yet, oldest first, with the
    // index of their ingest; and the reads planned against each.
    let mut live: VecDeque<(String, usize)> = VecDeque::new();
    let mut readers: HashMap<String, Vec<usize>> = HashMap::new();
    let mut ingested = 0usize;
    let mut t = 0.0;
    for i in 0..open + closed {
        let due_s = if i < open {
            t += -unit_open(&mut rng).ln() / rate;
            t
        } else {
            0.0
        };
        let card = block.deal(&mut rng);
        let mut class = match card {
            Index => Class::Index,
            Hot | Cold => Class::Report,
            Flowgraph => Class::Flowgraph,
            Diff => Class::Diff,
            Write => writes.deal(&mut rng),
        };
        // A delete needs a spare ingested trace (the newest one stays for
        // reports); without one it becomes an ingest.
        if class == Class::Delete && live.len() < 2 {
            class = Class::Ingest;
        }
        let (method, target, key, expect, deps) = match class {
            Class::Index => ("GET", index.deal(&mut rng), None, 200, Vec::new()),
            Class::Report => {
                let (id, params) =
                    if card == Hot { hot.deal(&mut rng) } else { cold.deal(&mut rng) };
                // Cold reports of the ingest source read its newest
                // ingested copy, a key no earlier request cached.
                let (target_id, deps) = match live.back() {
                    Some((newest, at)) if card == Cold && id == corpus.ingest_source => {
                        readers.entry(newest.clone()).or_default().push(i);
                        (newest.clone(), vec![*at])
                    }
                    _ => (id.clone(), Vec::new()),
                };
                let target = report_target(&target_id, &params);
                ("GET", target, Some(RefKey::Report { id, params }), 200, deps)
            }
            Class::Flowgraph => {
                let id = flows.deal(&mut rng);
                let target = format!("/traces/{id}/flowgraph");
                ("GET", target, Some(RefKey::Flowgraph { id }), 200, Vec::new())
            }
            Class::Diff => {
                let (a, b) = diffs.deal(&mut rng);
                let target = format!("/traces/{a}/diff/{b}");
                ("GET", target, Some(RefKey::Diff { a, b }), 200, Vec::new())
            }
            Class::Ingest => {
                let id = format!("{}{ingested}", corpus.ingest_prefix);
                ingested += 1;
                live.push_back((id.clone(), i));
                ("POST", format!("/ingest/{id}"), None, 201, Vec::new())
            }
            Class::Delete => {
                let (id, at) = live.pop_front().expect("a delete is planned only with spares");
                let mut deps = readers.remove(&id).unwrap_or_default();
                deps.push(at);
                ("DELETE", format!("/traces/{id}"), None, 200, deps)
            }
        };
        out.push(Planned { due_s, class, method, target, key, expect, deps });
    }
    out
}

/// Sends one request on a fresh connection and returns the status code
/// and body. The server answers with `Connection: close`.
///
/// # Errors
///
/// Connection and I/O failures, and responses that are not HTTP/1.1.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let bad =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    conn.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: vexbench\r\n");
    if method != "GET" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    conn.write_all(head.as_bytes())?;
    conn.write_all(body)?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let status = std::str::from_utf8(&raw[..end])
        .ok()
        .and_then(|h| h.strip_prefix("HTTP/1.1 "))
        .and_then(|h| h.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("response without an HTTP/1.1 status line"))?;
    raw.drain(..end + 4);
    Ok((status, raw))
}

/// The result of one played request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Request class.
    pub class: Class,
    /// Milliseconds from the due time to the send (open loop; 0 in the
    /// closed loop).
    pub late_ms: f64,
    /// Milliseconds from the due time (open loop) or the send (closed
    /// loop) to the last response byte.
    pub latency_ms: f64,
    /// Status matched and the body matched every earlier body of the
    /// same key.
    pub ok: bool,
}

/// One closed-loop session: a block of requests one client sent in
/// sequence.
#[derive(Debug, Clone)]
pub struct Session {
    /// Index of the block within the loop (0 for its first block).
    pub block: usize,
    /// Milliseconds from the first send to the last response byte.
    pub latency_ms: f64,
    /// Whether the session ran inside a span.
    pub traced: bool,
}

/// How a closed loop ends and which of its sessions it traces.
#[derive(Clone, Copy)]
pub struct ClosedLoop<'t> {
    /// Client threads, each with one connection at a time.
    pub threads: usize,
    /// Seconds after which no new session starts...
    pub seconds: f64,
    /// ...once the next block index is a nonzero multiple of this; with
    /// one thread, the loop plays a whole number of such stretches, at
    /// least one.
    pub whole: usize,
    /// With a tracer, sessions run inside spans in alternate stretches
    /// of this many blocks, starting with a traced one.
    pub tracer: Option<(&'t Tracer, usize)>,
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Plays a plan against one server with a fixed number of client
/// threads (each one connection at a time).
pub struct Player<'a> {
    addr: SocketAddr,
    plan: &'a [Planned],
    ingest_body: &'a [u8],
    resident_bytes: &'a (dyn Fn() -> u64 + Sync),
    done: Vec<AtomicBool>,
    gate: Mutex<()>,
    finished: Condvar,
    /// First body seen per key, and how many requests asked for it.
    bodies: Mutex<BTreeMap<RefKey, (Vec<u8>, u64)>>,
    resident_max: AtomicU64,
}

impl<'a> Player<'a> {
    /// A player for `plan` against `addr`; `resident_bytes` samples the
    /// server's decoded-tier size after each request.
    pub fn new(
        addr: SocketAddr,
        plan: &'a [Planned],
        ingest_body: &'a [u8],
        resident_bytes: &'a (dyn Fn() -> u64 + Sync),
    ) -> Self {
        Player {
            addr,
            plan,
            ingest_body,
            resident_bytes,
            done: plan.iter().map(|_| AtomicBool::new(false)).collect(),
            gate: Mutex::new(()),
            finished: Condvar::new(),
            bodies: Mutex::new(BTreeMap::new()),
            resident_max: AtomicU64::new(0),
        }
    }

    /// Plays `range` as an open loop: each request is sent at its due
    /// time (or as soon as a client thread frees up) and timed from
    /// that due time. With a tracer, every request records a span.
    pub fn play_open(
        &self,
        range: Range<usize>,
        threads: usize,
        tracer: Option<&Tracer>,
    ) -> Vec<Outcome> {
        let start = Instant::now();
        let next = AtomicUsize::new(range.start);
        let outcomes = Mutex::new(Vec::with_capacity(range.len()));
        std::thread::scope(|s| {
            for _ in 0..threads.max(1) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= range.end {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(self.plan[i].due_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let span = tracer.map(|t| (t, None, t.new_op()));
                    let out = self.play_one(i, due, span);
                    outcomes.lock().expect("a client thread panicked").push(out);
                });
            }
        });
        outcomes.into_inner().expect("a client thread panicked")
    }

    /// Plays `range` as a closed loop of sessions: each client thread
    /// takes the next block of [`SESSION`] requests, sends them one after
    /// another, and takes the next block, until `how` says to stop. A
    /// traced session runs inside a `serve.session` span with its
    /// requests' spans under it. Returns the request outcomes, the
    /// sessions and the elapsed seconds.
    pub fn play_closed(
        &self,
        range: Range<usize>,
        how: ClosedLoop<'_>,
    ) -> (Vec<Outcome>, Vec<Session>, f64) {
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(how.seconds);
        let next = AtomicUsize::new(range.start);
        let played = Mutex::new((Vec::with_capacity(range.len()), Vec::new()));
        std::thread::scope(|s| {
            for _ in 0..how.threads.max(1) {
                s.spawn(|| loop {
                    let first = next.fetch_add(SESSION, Ordering::SeqCst);
                    let block = (first - range.start) / SESSION;
                    let due = block > 0
                        && block.is_multiple_of(how.whole.max(1))
                        && Instant::now() >= stop;
                    if first >= range.end || due {
                        break;
                    }
                    let requests = first..(first + SESSION).min(range.end);
                    let play_block = |parent: Option<(&Tracer, u64, u64)>| {
                        requests
                            .clone()
                            .map(|i| {
                                let span = parent.map(|(t, id, op)| (t, Some(id), op));
                                self.play_one(i, Instant::now(), span)
                            })
                            .collect::<Vec<_>>()
                    };
                    let t0 = Instant::now();
                    let traced = how
                        .tracer
                        .filter(|&(_, stretch)| (block / stretch.max(1)).is_multiple_of(2))
                        .map(|(t, _)| t);
                    let outcomes = match traced {
                        Some(t) => {
                            let op = t.new_op();
                            t.span("serve.session", None, op, |id| {
                                play_block(Some((t, id, op)))
                            })
                        }
                        None => play_block(None),
                    };
                    let latency_ms = ms_between(t0, Instant::now());
                    let session = Session { block, latency_ms, traced: traced.is_some() };
                    let mut played = played.lock().expect("a client thread panicked");
                    played.0.extend(outcomes);
                    played.1.push(session);
                });
            }
        });
        let (outcomes, sessions) = played.into_inner().expect("a client thread panicked");
        (outcomes, sessions, start.elapsed().as_secs_f64())
    }

    /// Sends request `i` once its dependencies are done and times it from
    /// `from`; with `span`, records a span of its class.
    fn play_one(
        &self,
        i: usize,
        from: Instant,
        span: Option<(&Tracer, Option<u64>, u64)>,
    ) -> Outcome {
        let p = &self.plan[i];
        self.wait_for(&p.deps);
        let sent = Instant::now();
        let body: &[u8] = if p.class == Class::Ingest { self.ingest_body } else { &[] };
        let response = request(self.addr, p.method, &p.target, body);
        let end = Instant::now();
        self.resident_max.fetch_max((self.resident_bytes)(), Ordering::Relaxed);
        let ok = match response {
            Ok((status, body)) => status == p.expect && self.matches_earlier(p, body),
            Err(_) => false,
        };
        self.done[i].store(true, Ordering::SeqCst);
        {
            let _gate = self.gate.lock().expect("a client thread panicked");
            self.finished.notify_all();
        }
        if let Some((t, parent, op)) = span {
            t.record(class_span(p.class), parent, op, from, end);
        }
        Outcome {
            class: p.class,
            late_ms: ms_between(from, sent),
            latency_ms: ms_between(from, end),
            ok,
        }
    }

    fn wait_for(&self, deps: &[usize]) {
        let mut gate = self.gate.lock().expect("a client thread panicked");
        while !deps.iter().all(|&d| self.done[d].load(Ordering::SeqCst)) {
            gate = self.finished.wait(gate).expect("a client thread panicked");
        }
    }

    /// Keeps the first body of each key and reports whether `body`
    /// equals it.
    fn matches_earlier(&self, p: &Planned, body: Vec<u8>) -> bool {
        let Some(key) = &p.key else { return true };
        let mut bodies = self.bodies.lock().expect("a client thread panicked");
        match bodies.get_mut(key) {
            Some((first, n)) => {
                *n += 1;
                *first == body
            }
            None => {
                bodies.insert(key.clone(), (body, 1));
                true
            }
        }
    }

    /// The first body seen for each key, with the number of requests
    /// that asked for it; check them against references after the run.
    pub fn bodies(&self) -> BTreeMap<RefKey, (Vec<u8>, u64)> {
        self.bodies.lock().expect("a client thread panicked").clone()
    }

    /// Largest decoded-tier size sampled so far, bytes.
    pub fn resident_max(&self) -> u64 {
        self.resident_max.load(Ordering::Relaxed)
    }
}

/// Span name of a request class.
pub fn class_span(class: Class) -> &'static str {
    match class {
        Class::Index => "serve.index",
        Class::Report => "serve.report",
        Class::Flowgraph => "serve.flowgraph",
        Class::Diff => "serve.diff",
        Class::Ingest => "serve.ingest",
        Class::Delete => "serve.delete",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(id, q)| (id.to_string(), q.to_string())).collect()
    }

    /// Six traces, two hot keys and six cold ones: a 30-request cycle.
    fn corpus() -> Corpus {
        Corpus {
            ids: ["backprop", "backprop-opt", "bfs", "hotspot", "LAMMPS", "LAMMPS-opt"]
                .map(String::from)
                .to_vec(),
            pairs: vec![
                ("backprop".into(), "backprop-opt".into()),
                ("LAMMPS".into(), "LAMMPS-opt".into()),
            ],
            hot: keys(&[("backprop", ""), ("bfs", "fine=1")]),
            cold: keys(&[
                ("backprop", "fine=1"),
                ("bfs", ""),
                ("hotspot", ""),
                ("hotspot", "fine=1"),
                ("LAMMPS", "fine=1&races=1"),
                ("LAMMPS-opt", "fine=1&reuse=64"),
            ]),
            flowgraphs: vec!["bfs".into(), "LAMMPS".into()],
            ingest_source: "hotspot".into(),
            ingest_prefix: "ing1-".into(),
        }
    }

    fn report_key(r: &Planned) -> Option<(String, String)> {
        match &r.key {
            Some(RefKey::Report { id, params }) => Some((id.clone(), params.clone())),
            _ => None,
        }
    }

    #[test]
    fn hot_keys_recur_and_cold_keys_cycle() {
        let c = corpus();
        let p = plan(5, &c, 8.0, 60, 0);
        assert_eq!(p.len(), 60, "two whole cold cycles");
        for block in p.chunks(10) {
            let hot = block.iter().filter_map(report_key).filter(|k| c.hot.contains(k)).count();
            assert_eq!(hot, 2, "two hot reports per block");
        }
        // Each cold key once per cycle, in the same order every cycle,
        // whatever trace its request was retargeted to.
        let cold: Vec<(String, String)> =
            p.iter().filter_map(report_key).filter(|k| !c.hot.contains(k)).collect();
        assert_eq!(cold.len(), 12);
        let first: std::collections::BTreeSet<_> = cold[..6].iter().collect();
        assert_eq!(first.len(), 6);
        assert_eq!(cold[..6], cold[6..]);
        let hot: Vec<(String, String)> =
            p.iter().filter_map(report_key).filter(|k| c.hot.contains(k)).collect();
        assert!(hot.windows(3).all(|w| w[0] == w[2]), "hot keys alternate");
        let warm = c.warm_targets();
        assert_eq!(warm.len(), 2 + 2 + 2);
        assert!(warm.contains(&"/traces/bfs/report?fine=1".to_owned()));
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = plan(7, &corpus(), 8.0, 90, 50);
        let b = plan(7, &corpus(), 8.0, 90, 50);
        assert_eq!(a, b);
        let c = plan(8, &corpus(), 8.0, 90, 50);
        assert_ne!(a, c, "another seed reorders the plan");
    }

    #[test]
    fn open_loop_arrivals_are_poisson_at_the_rate() {
        let p = plan(3, &corpus(), 8.0, 990, 0);
        assert_eq!(p.len(), 990);
        assert!(p.windows(2).all(|w| w[0].due_s < w[1].due_s));
        let mean_gap = p.last().unwrap().due_s / 990.0;
        assert!((mean_gap - 0.125).abs() < 0.0125, "mean gap {mean_gap}");
    }

    #[test]
    fn every_seed_deals_the_same_composition() {
        for seed in 1..5 {
            let p = plan(seed, &corpus(), 8.0, 85, 0);
            assert_eq!(p.len(), 90, "rounded up to whole blocks");
            let count = |c| p.iter().filter(|r| r.class == c).count();
            assert_eq!(count(Class::Index), 27);
            assert_eq!(count(Class::Report), 36);
            assert_eq!(count(Class::Flowgraph), 9);
            assert_eq!(count(Class::Diff), 9);
            // Deletes without a spare ingested trace turn into ingests.
            assert_eq!(count(Class::Ingest) + count(Class::Delete), 9);
            for block in p.chunks(10) {
                assert!(block.iter().any(|r| r.class == Class::Diff));
                assert!(block.iter().any(|r| r.class == Class::Flowgraph));
            }
        }
    }

    #[test]
    fn deletes_wait_for_their_ingest_and_readers() {
        let p = plan(11, &corpus(), 8.0, 390, 0);
        assert!(p.iter().any(|r| r.class == Class::Delete));
        for (i, r) in p.iter().enumerate() {
            assert!(r.deps.iter().all(|&d| d < i), "deps point backwards");
            if r.class == Class::Delete {
                let id = r.target.strip_prefix("/traces/").unwrap();
                let ingest = format!("/ingest/{id}");
                assert!(r.deps.iter().any(|&d| p[d].target == ingest));
                for (j, q) in p.iter().enumerate().take(i) {
                    if q.target.starts_with(&format!("/traces/{id}/")) {
                        assert!(r.deps.contains(&j), "delete of {id} waits for read {j}");
                    }
                }
            }
            if r.target.starts_with("/traces/ing1-") && r.class == Class::Report {
                assert_eq!(r.deps.len(), 1);
                assert_eq!(p[r.deps[0]].class, Class::Ingest);
            }
        }
    }
}
