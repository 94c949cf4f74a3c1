//! `service_short`: the daemon request path — a closed loop of two
//! connections, one per client thread and tenant, sending short
//! queries through an in-process `sapad` at its defaults.
//!
//! With 20–60-residue queries a good share of each request is spent
//! outside the engines (parse, admission, dispatch, thread hand-offs,
//! socket I/O, render). Striped requests take the cached-profile path;
//! blast and fasta are the benchmark's only heuristic-engine traffic.
//! The `sw` and anti-diagonal engines stay out: one `sw` request costs
//! about 25 striped ones and would own the tail.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use sapa_core::align::engine::{
    search_with, Engine, Prefilter, SearchRequest, SearchResponse, StripedEngine,
};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::profile::ProfileCache;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::rng::Xoshiro256;
use sapa_core::bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_service::json::{self, Json};
use sapa_service::protocol::{parse_request, render_result, Request};
use sapa_service::{admission, serve, Client, Limits, SearchParams, ServiceConfig, ServiceHandle};

use crate::stats::Digest;
use crate::trace::{self, Tracer};
use crate::{Args, Measured, Sample, Traced};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Seed of the fixed request order.
const ORDER_SEED: u64 = 0x5EED_0003;
/// Distinct query windows; each is sent to every engine.
const WINDOWS: usize = 100;
const MIN_WINDOW: usize = 20;
const MAX_WINDOW: usize = 60;
/// `loadgen`'s default engine mix.
const ENGINES: [&str; 3] = ["striped", "blast", "fasta"];
/// Connections (= client threads = tenants): `nproc` of the two-core
/// host the benchmark is tuned for.
const CONNS: usize = 2;
const TOP_K: usize = 10;
const TIMEOUT: Duration = Duration::from_secs(60);
/// `tail_ms`: the median over five equal stretches of the run of each
/// stretch's p99.8. The daemon's slowest replies come in bursts of host
/// scheduling delay that fill some stretches and miss others, so one
/// burst-heavy stretch would otherwise set a whole run's p99.9 and the
/// run-to-run spread would measure the bursts, not the program. A 40 s
/// run holds ~48,000 replies: p99.8 keeps ten beyond it in every
/// stretch even when a host phase lets 40% fewer complete.
const TAIL_PERMILLE: u32 = 998;
const TAIL_WINDOWS: usize = 5;
/// In-process replays per traced request (see the traced run).
const REPLAYS: usize = 5;

/// One distinct request: a query window sent to one engine.
struct Class {
    name: String,
    engine: &'static str,
    query: String,
}

/// The request pool: `WINDOWS` distinct windows of the Table II
/// queries, lengths spread evenly over 20–60 residues, start offsets
/// from `seed`; every window goes to every engine.
fn pool(seed: u64) -> Vec<Class> {
    let queries = QuerySet::paper();
    let mut rng = Xoshiro256::new(seed ^ 0x5E41);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for i in 0..WINDOWS {
        let q = &queries.queries()[i % queries.queries().len()];
        let len = MIN_WINDOW + (MAX_WINDOW - MIN_WINDOW) * i / (WINDOWS - 1);
        let text = loop {
            let start = rng.next_below((q.len() - len + 1) as u64) as usize;
            let text: String = q.residues()[start..start + len]
                .iter()
                .map(|a| a.to_char())
                .collect();
            if seen.insert(text.clone()) {
                break text;
            }
        };
        for engine in ENGINES {
            out.push(Class {
                name: format!("{engine}/{}/{len}aa#{i}", q.id()),
                engine,
                query: text.clone(),
            });
        }
    }
    out
}

/// The request line of class `c` for `tenant`; the id is the class
/// index, so every reply to a class has the same bytes.
fn line(c: usize, class: &Class, tenant: &str) -> String {
    SearchParams {
        id: c as u64,
        tenant,
        engine: class.engine,
        query: &class.query,
        top_k: TOP_K,
        min_score: 1,
        deadline_cells: None,
        deadline_ms: None,
    }
    .render()
}

fn tenant(conn: usize) -> String {
    format!("tenant{conn}")
}

fn digest(reply: &str) -> u64 {
    Digest::default().bytes(reply.as_bytes()).finish()
}

/// A running daemon with its client connections open and its profile
/// cache filled.
struct Daemon {
    handle: ServiceHandle,
    clients: Vec<Client>,
    /// Digest of each warm-up reply, by class.
    warm: Vec<u64>,
}

/// Set-up: start the daemon, open and confirm both connections (the
/// accept loop polls every 5 ms), then send every distinct request
/// once.
fn setup(classes: &[Class]) -> Result<Daemon, String> {
    let handle = serve(ServiceConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let mut c = Client::connect(handle.addr(), TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        c.request(r#"{"op":"ping"}"#)
            .map_err(|e| format!("ping: {e}"))?;
        clients.push(c);
    }
    let mut warm = Vec::with_capacity(classes.len());
    for (c, class) in classes.iter().enumerate() {
        let conn = c % CONNS;
        let reply = clients[conn]
            .request(&line(c, class, &tenant(conn)))
            .map_err(|e| format!("warm-up: {e}"))?;
        warm.push(digest(&reply));
    }
    Ok(Daemon {
        handle,
        clients,
        warm,
    })
}

/// Closes the connections, stops the daemon and checks its accounting.
fn shutdown(d: Daemon, errors: &mut Vec<String>) -> sapa_service::Snapshot {
    drop(d.clients);
    let snap = d.handle.shutdown();
    if !snap.balances() {
        errors.push(format!("daemon accounting does not balance: {snap:?}"));
    }
    if snap.rejected() + snap.quarantined_requests > 0 {
        errors.push(format!(
            "daemon rejected {} and quarantined {} requests",
            snap.rejected(),
            snap.quarantined_requests
        ));
    }
    snap
}

/// The daemon's request pipeline replayed in-process over the served
/// corpus, one layer call at a time.
struct Replay<'a> {
    subjects: Vec<&'a [AminoAcid]>,
    lens: Vec<usize>,
    matrix: SubstitutionMatrix,
    limits: Limits,
    profiles: ProfileCache,
}

impl<'a> Replay<'a> {
    fn new(handle: &'a ServiceHandle) -> Self {
        let subjects: Vec<&[AminoAcid]> = handle.subjects().iter().map(Vec::as_slice).collect();
        let lens = subjects.iter().map(|s| s.len()).collect();
        Replay {
            subjects,
            lens,
            matrix: SubstitutionMatrix::blosum62(),
            limits: Limits::default(),
            profiles: ProfileCache::new(),
        }
    }

    /// Parses, prices, searches and renders one request line, each call
    /// under its own span; returns the engine and the reply line.
    fn run(&mut self, t: &mut Tracer, line: &str) -> Result<(Engine, String), String> {
        let parsed = t
            .span("service.parse", |_| parse_request(line, &self.limits))
            .map_err(|r| r.render())?;
        let Request::Search(frame) = parsed else {
            return Err("not a search request".into());
        };
        let lens = &self.lens;
        t.span("service.price", |_| {
            admission::price(
                frame.engine,
                frame.query.len(),
                lens.iter().copied(),
                frame.deadline_cells,
            )
        });
        let req = SearchRequest {
            query: &frame.query,
            matrix: &self.matrix,
            gaps: GapPenalties::paper(),
            top_k: frame.top_k,
            min_score: frame.min_score,
            deadline: frame.deadline(),
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let (subjects, profiles) = (&self.subjects, &mut self.profiles);
        let resp: SearchResponse = match frame.engine {
            Engine::Striped => t.span("service.search.striped", |_| {
                let profile = profiles.get_or_build(&frame.query, req.matrix, 8);
                let engine = StripedEngine::<16, 8>::with_profile(profile, req.gaps);
                search_with(Engine::Striped, &engine, &req, subjects, 1)
            }),
            Engine::Blast => t.span("service.search.blast", |_| {
                Engine::Blast.search(&req, subjects, 1)
            }),
            Engine::Fasta => t.span("service.search.fasta", |_| {
                Engine::Fasta.search(&req, subjects, 1)
            }),
            other => return Err(format!("engine {other} is not in the mix")),
        };
        let reply = t.span("service.render", |_| render_result(frame.id, &resp));
        Ok((frame.engine, reply))
    }
}

/// Digest of the in-process reply to every class.
fn expected(replay: &mut Replay<'_>, classes: &[Class]) -> Result<Vec<u64>, String> {
    let mut t = Tracer::new();
    classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            replay
                .run(&mut t, &line(c, class, &tenant(0)))
                .map(|(_, r)| digest(&r))
        })
        .collect()
}

/// Ops per second and connection the op log holds without growing: four
/// times the rate measured on the two-core host the benchmark is tuned
/// for.
const LOGGED_OPS_PER_S: f64 = 2500.0;

/// What one connection's client thread records in the measured phase,
/// in memory that does not grow with the number of replies, so that a
/// faster daemon does not read as a larger resident set.
struct ConnLog {
    /// `(start, latency)` of each op, in seconds and in order; the
    /// buffer is written through before the phase.
    ops: Vec<(f32, f32)>,
    /// Digest of the first reply to each class.
    first: Vec<Option<u64>>,
    /// Ops whose reply differed from the first reply to their class,
    /// with its digest.
    odd: Vec<(usize, u64)>,
    /// Whether the last op failed (the connection stops there).
    failed_last: bool,
    /// When the thread stopped.
    end: Option<Instant>,
}

impl ConnLog {
    fn new(capacity: usize, classes: usize) -> Self {
        // Written with non-zero values, so that the writes cannot be
        // folded into a lazily zeroed allocation.
        let mut ops = Vec::with_capacity(capacity);
        ops.extend((0..capacity).map(|i| (i as f32, 1.0)));
        ops.clear();
        ConnLog {
            ops,
            first: vec![None; classes],
            odd: Vec::new(),
            failed_last: false,
            end: None,
        }
    }

    /// Notes the reply digest of op `i`, of class `c`.
    fn note(&mut self, i: usize, c: usize, d: u64) {
        match self.first[c] {
            None => self.first[c] = Some(d),
            Some(f) if f != d => self.odd.push((i, d)),
            Some(_) => {}
        }
    }

    /// The reply digest of op `i`, of class `c`.
    fn digest(&self, i: usize, c: usize) -> Option<u64> {
        match self.odd.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(at) => Some(self.odd[at].1),
            Err(_) => self.first[c],
        }
    }
}

/// The end-to-end run.
pub fn measure(args: &Args) -> Measured {
    let mut m = Measured::default();
    let classes = pool(args.seed);
    let mut daemon = None;
    for r in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            shutdown(d, &mut m.errors);
        }
        let start = Instant::now();
        match setup(&classes) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                m.errors.push(format!("set-up {r}: {e}"));
                return m;
            }
        }
        m.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("set-up ran");

    let order = crate::permutation(classes.len(), ORDER_SEED);
    let lines: Vec<Vec<String>> = (0..CONNS)
        .map(|k| {
            classes
                .iter()
                .enumerate()
                .map(|(c, class)| line(c, class, &tenant(k)))
                .collect()
        })
        .collect();
    let run_for = Duration::from_secs_f64(args.seconds);
    let capacity = (args.seconds * LOGGED_OPS_PER_S) as usize;
    let mut logs: Vec<ConnLog> = (0..CONNS)
        .map(|_| ConnLog::new(capacity, classes.len()))
        .collect();
    // Op `i` of connection `k` sends class `order[(k + CONNS * i) % len]`.
    let class_of = |k: usize, i: usize| order[(k + CONNS * i) % order.len()];
    let start = Instant::now();
    std::thread::scope(|s| {
        for (k, (client, log)) in daemon.clients.iter_mut().zip(&mut logs).enumerate() {
            let lines = &lines[k];
            s.spawn(move || {
                while start.elapsed() < run_for {
                    let i = log.ops.len();
                    let c = class_of(k, i);
                    let t = Instant::now();
                    let reply = client.request(&lines[c]);
                    let secs = t.elapsed().as_secs_f32();
                    log.ops.push((t.duration_since(start).as_secs_f32(), secs));
                    match reply {
                        Ok(r) => log.note(i, c, digest(&r)),
                        Err(_) => {
                            log.failed_last = true;
                            break;
                        }
                    }
                }
                log.end = Some(Instant::now());
            });
        }
    });
    m.wall_s = logs
        .iter()
        .filter_map(|l| l.end)
        .map(|end| end.duration_since(start).as_secs_f64())
        .fold(0.0, f64::max);
    m.peak_rss_mb = crate::host::peak_rss_mb();
    m.tail_permille = TAIL_PERMILLE;
    m.tail_windows = TAIL_WINDOWS;

    let want = {
        let mut replay = Replay::new(&daemon.handle);
        expected(&mut replay, &classes)
    };
    if let Err(e) = &want {
        m.errors.push(format!("in-process replay: {e}"));
    }
    for (c, &w) in daemon.warm.iter().enumerate() {
        if want.as_ref().map_or(true, |want| want[c] != w) {
            m.errors
                .push(format!("warm-up reply to {} differs", classes[c].name));
        }
    }
    // Every op in start order, with whether its reply is the in-process
    // one.
    let mut ops: Vec<(Sample, bool)> = Vec::new();
    for (k, log) in logs.iter().enumerate() {
        for (i, &(at, secs)) in log.ops.iter().enumerate() {
            let c = class_of(k, i);
            let ok = !(log.failed_last && i + 1 == log.ops.len());
            let right = want
                .as_ref()
                .is_ok_and(|want| log.digest(i, c) == Some(want[c]));
            let sample = Sample {
                at: f64::from(at),
                secs: f64::from(secs),
                class: c,
                ok,
            };
            ops.push((sample, ok && !right));
        }
    }
    ops.sort_by(|a, b| a.0.at.total_cmp(&b.0.at));
    for (i, (sample, mismatched)) in ops.into_iter().enumerate() {
        m.samples.push(sample);
        if mismatched {
            m.mismatched.push(i);
        }
    }
    let snap = shutdown(daemon, &mut m.errors);
    m.classes = classes.iter().map(|c| c.name.clone()).collect();
    m.meta
        .push(("daemon_submitted".into(), snap.submitted.to_string()));
    m.meta.push(("conns".into(), CONNS.to_string()));
    m
}

/// The traced run: whole passes over the request pool until the run
/// length is reached. Each request is sent once untraced and once
/// traced; the traced op then replays it in-process through the four
/// layer calls, and what they leave of the round trip is the residual
/// (queue wait, hand-offs, socket I/O). The replay must reproduce the
/// reply byte for byte.
pub fn traced(args: &Args) -> Traced {
    let mut out = Traced::default();
    let classes = pool(args.seed);
    let mut daemon = match setup(&classes) {
        Ok(d) => d,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let order = crate::permutation(classes.len(), ORDER_SEED);
    let lines: Vec<String> = classes
        .iter()
        .enumerate()
        .map(|(c, class)| line(c, class, &tenant(0)))
        .collect();
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut engines = Vec::new();
    {
        let mut replay = Replay::new(&daemon.handle);
        // Fill the replay's own profile cache, as set-up filled the
        // daemon's.
        if let Err(e) = expected(&mut replay, &classes) {
            out.errors.push(format!("in-process replay: {e}"));
        }
        let client = &mut daemon.clients[0];
        let run_for = Duration::from_secs_f64(args.seconds);
        let start = Instant::now();
        let mut op = 0u64;
        while op == 0 || start.elapsed() < run_for {
            for &c in &order {
                let t = Instant::now();
                let plain = client.request(&lines[c]);
                untraced.push(t.elapsed().as_secs_f64());
                op += 1;
                tracer.set_op(op);
                let t0 = Instant::now();
                let reply = client.request(&lines[c]);
                tracer.record("service.roundtrip", t0, Instant::now());
                // The replay runs beside the daemon, not inside it, and
                // a sub-millisecond request is easily disturbed by a host
                // hiccup (~70 us) that lands between two layer calls or
                // inflates the residual. Of a few runs keep the fastest
                // one whose layer calls explain its wall time; a layer the
                // spans miss would leave every run short and still fail
                // the coverage check.
                let mut best: Option<(bool, f64, Tracer)> = None;
                let mut replayed = Err(String::new());
                for _ in 0..REPLAYS {
                    let mut t = Tracer::new();
                    t.set_op(op);
                    replayed = t.span("op", |t| replay.run(t, &lines[c]));
                    let layers = trace::op_layers(t.spans(), "op");
                    let Some(o) = layers.values().next() else {
                        continue;
                    };
                    let covered = (0.95..=1.05).contains(&o.coverage());
                    let better = best
                        .as_ref()
                        .is_none_or(|(bc, bw, _)| (covered, -o.wall) > (*bc, -*bw));
                    if better {
                        best = Some((covered, o.wall, t));
                    }
                }
                if let Some((_, _, t)) = best {
                    tracer.append(&t);
                }
                out.attempted += 1;
                match (plain, reply, replayed) {
                    (Ok(a), Ok(b), Ok((engine, r))) if a == b && b == r => engines.push(engine),
                    (Ok(_), Ok(_), Ok((engine, _))) => {
                        engines.push(engine);
                        out.failed += 1;
                        out.errors
                            .push(format!("{}: reply differs from replay", classes[c].name));
                    }
                    (a, b, r) => {
                        out.failed += 1;
                        out.errors.push(format!(
                            "{}: request failed: {:?} {:?} {:?}",
                            classes[c].name,
                            a.err(),
                            b.err(),
                            r.err()
                        ));
                        return out;
                    }
                }
            }
        }
        match client.request(r#"{"op":"stats"}"#).map(|s| json::parse(&s)) {
            Ok(Ok(stats)) => {
                let count = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                out.layers
                    .push(("service.rejected", count("rejected") as f64));
                out.layers
                    .push(("service.quarantined", count("quarantined_requests") as f64));
            }
            other => out.errors.push(format!("stats op: {other:?}")),
        }
    }
    shutdown(daemon, &mut out.errors);

    let spans = tracer.spans();
    let ops = trace::op_layers(spans, "op");
    let n = ops.len().max(1) as f64;
    let roundtrips: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "service.roundtrip")
        .map(|s| s.end - s.start)
        .collect();
    // What the four calls do not explain: queue wait, hand-offs, socket
    // I/O. Per request it can read below zero when the host slows the
    // replay more than the round trip; the mean is what is reported.
    let calls: f64 = ops.values().map(|o| o.layers.values().sum::<f64>()).sum();
    let residual = roundtrips.iter().sum::<f64>() - calls;
    let below_zero = ops
        .values()
        .zip(&roundtrips)
        .filter(|(o, &rt)| o.layers.values().sum::<f64>() > rt)
        .count();
    out.meta.push((
        "residual_below_zero_share".into(),
        format!("{:.4}", below_zero as f64 / n),
    ));
    let mean_us = |name: &str| trace::total(spans, name) / n * 1e6;
    out.layers
        .push(("service.parse_us", mean_us("service.parse")));
    out.layers
        .push(("service.price_us", mean_us("service.price")));
    out.layers
        .push(("service.render_us", mean_us("service.render")));
    for (engine, name, metric) in [
        (
            Engine::Striped,
            "service.search.striped",
            "service.search_ms.striped",
        ),
        (
            Engine::Blast,
            "service.search.blast",
            "service.search_ms.blast",
        ),
        (
            Engine::Fasta,
            "service.search.fasta",
            "service.search_ms.fasta",
        ),
    ] {
        let k = engines.iter().filter(|&&e| e == engine).count().max(1);
        out.layers
            .push((metric, trace::total(spans, name) / k as f64 * 1e3));
    }
    out.layers.push(("service.residual_us", residual / n * 1e6));
    crate::coverage_and_overhead(&mut out, &ops, &roundtrips, &untraced, args);
    if let Err(e) = tracer
        .write_tsv(&crate::out_dir().join(format!("{}-seed{}.spans.tsv", args.workload, args.seed)))
    {
        out.errors.push(format!("writing spans: {e}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_log_recovers_every_reply_digest() {
        let mut log = ConnLog::new(4, 3);
        assert_eq!(log.ops.capacity(), 4);
        // Class of each op and its reply digest; op 3 answered class 0
        // differently from op 0.
        let replies = [(0, 10), (1, 20), (2, 30), (0, 11), (1, 20), (0, 10)];
        for (i, &(c, d)) in replies.iter().enumerate() {
            log.note(i, c, d);
        }
        for (i, &(c, d)) in replies.iter().enumerate() {
            assert_eq!(log.digest(i, c), Some(d), "op {i}");
        }
        assert_eq!(log.odd, [(3, 11)]);
    }
}
