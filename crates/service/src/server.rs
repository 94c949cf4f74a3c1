//! The alignment search daemon.
//!
//! [`serve`] binds a `TcpListener` over a synthetic protein corpus and
//! multiplexes many concurrent line-protocol clients over the engine
//! layer. The moving parts, and what each protects:
//!
//! * **Connection threads** (one per accepted socket) parse frames
//!   under [`crate::protocol::Limits`] with read/write timeouts and a
//!   bounded line buffer, so a slow, half-closed, or hostile client
//!   costs one thread and a few KiB — never the service.
//! * The **admission gate** ([`crate::admission`]) prices every search
//!   in DP cells before it queues; over-budget requests bounce
//!   immediately with a typed `overloaded` error.
//! * **Tenant fairness** ([`crate::quota`]): optional token-bucket
//!   quotas (`throttled`) plus deficit-round-robin dispatch, so one
//!   flooding tenant cannot starve the rest of the queue.
//! * A fixed **worker pool** executes searches via
//!   [`sapa_align::engine::search_with`], reusing striped query
//!   profiles, at the width [`striped_dispatch`] picks, through a
//!   shared [`ProfileCache`], which evicts the least
//!   recently used past [`sapa_bioseq::profile::PROFILE_CACHE_BYTES`]
//!   so distinct queries cannot grow the daemon without bound. Worker panics are
//!   quarantined at two levels: per-subject by the parallel pipeline's
//!   `catch_unwind`, and per-request by a second `catch_unwind` here —
//!   a panic answers *that* request with `internal` and the process
//!   lives on.
//! * **Deadlines** flow straight through to the engine layer
//!   ([`sapa_align::engine::Deadline`]); timed-out scans come back as
//!   deterministic partial results with `completed`/`coverage`/
//!   `truncated_by` set, not as errors.
//!
//! Fault injection: arming [`FaultPlan`] sites in
//! [`ServiceConfig::fault_plan`] wraps every engine in a
//! [`FaultyEngine`], whose trigger decisions are content-keyed — the
//! same corpus subjects quarantine on every run, which is what lets the
//! chaos suite do exact quarantine accounting.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sapa_align::engine::{
    search_with, striped_dispatch, AlignmentEngine, Engine, EngineVisitor, Prefilter,
    SearchRequest, SearchResponse,
};
use sapa_bioseq::db::DatabaseBuilder;
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::ProfileCache;
use sapa_bioseq::queries::QuerySet;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_core::fault::{FaultPlan, FaultyEngine};

use crate::admission::{CorpusPrice, Gate};
use crate::metrics::{Counters, Snapshot};
use crate::protocol::{
    parse_request, render_error, render_ok, render_pong, render_result, ErrorCode, Limits, Request,
    SearchFrame,
};
use crate::quota::{DrrQueue, TokenBucket};

/// Per-tenant token-bucket quota settings.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Burst capacity per tenant, in cells.
    pub capacity_cells: u64,
    /// Continuous refill rate per tenant, in cells per second.
    pub refill_cells_per_sec: f64,
}

/// Everything [`serve`] needs to bring a daemon up.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Worker threads executing searches.
    pub workers: usize,
    /// Threads *per search* inside the engine pipeline. The container
    /// this suite targets is single-core, so the default is 1;
    /// concurrency comes from the worker pool.
    pub search_threads: usize,
    /// Admission budget: max total cost (queued + running), in cells.
    pub budget_cells: u64,
    /// Max queued (not yet running) requests.
    pub max_queued: usize,
    /// Deficit-round-robin quantum, in cells.
    pub quantum_cells: u64,
    /// Optional per-tenant rate quota; `None` disables throttling.
    pub quota: Option<QuotaConfig>,
    /// Protocol limits.
    pub limits: Limits,
    /// Per-connection socket read timeout (idle clients are dropped).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout (unread responses to slow
    /// clients fail the write instead of wedging a thread).
    pub write_timeout: Duration,
    /// Fault injection plan for chaos runs; [`FaultPlan::DISABLED`] in
    /// production.
    pub fault_plan: FaultPlan,
    /// Synthetic corpus size, in sequences.
    pub db_seqs: usize,
    /// Corpus generator seed.
    pub db_seed: u64,
    /// Corpus median sequence length.
    pub db_median_len: f64,
    /// Fraction of corpus sequences mutated from the paper's default
    /// query, so real homology exists to find.
    pub db_homolog_fraction: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            search_threads: 1,
            budget_cells: 256_000_000,
            max_queued: 64,
            quantum_cells: 4_000_000,
            quota: None,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            fault_plan: FaultPlan::DISABLED,
            db_seqs: 400,
            db_seed: 42,
            db_median_len: 110.0,
            db_homolog_fraction: 0.1,
        }
    }
}

/// One admitted search waiting for a worker.
struct Job {
    frame: SearchFrame,
    reply: mpsc::Sender<String>,
}

/// Dispatch state guarded by one mutex: the DRR queue plus the cost
/// currently executing, which together are what the admission gate
/// charges against.
struct QueueState {
    drr: DrrQueue<Job>,
    in_flight_cells: u64,
    in_flight_requests: usize,
}

struct State {
    cfg: ServiceConfig,
    gate: Gate,
    subjects: Vec<Vec<AminoAcid>>,
    prices: CorpusPrice,
    matrix: SubstitutionMatrix,
    gaps: GapPenalties,
    profiles: Mutex<ProfileCache>,
    counters: Counters,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    tenants: Mutex<HashMap<String, TokenBucket>>,
    shutdown: AtomicBool,
}

/// Locks a mutex, riding through poisoning: a panicking worker must
/// never wedge the whole daemon, and every structure behind these locks
/// is valid after any partial update (counters and queues, no
/// invariants spanning the panic point).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running daemon: its bound address plus join handles for an
/// orderly stop.
pub struct ServiceHandle {
    addr: SocketAddr,
    state: Arc<State>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of sequences in the served corpus.
    pub fn db_seqs(&self) -> usize {
        self.state.subjects.len()
    }

    /// The served corpus itself, for harnesses that predict
    /// content-keyed fault decisions (the chaos suite's exact
    /// quarantine accounting needs the subject bytes).
    pub fn subjects(&self) -> &[Vec<AminoAcid>] {
        &self.state.subjects
    }

    /// A live counter snapshot (for in-process harnesses; remote
    /// clients use the `stats` op).
    pub fn counters(&self) -> Snapshot {
        self.state.counters.snapshot()
    }

    /// Requests shutdown, drains queued work, joins every thread, and
    /// returns the final counter snapshot.
    pub fn shutdown(self) -> Snapshot {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.work_ready.notify_all();
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.state.counters.snapshot()
    }

    /// Blocks until a client's `shutdown` op stops the daemon (the
    /// daemon binary's main loop), then joins and returns the final
    /// snapshot.
    pub fn wait(self) -> Snapshot {
        let _ = self.accept.join();
        self.state.work_ready.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        self.state.counters.snapshot()
    }
}

/// Builds the corpus, binds the listener, and starts the daemon.
///
/// # Errors
///
/// Propagates socket bind/configuration failures.
pub fn serve(cfg: ServiceConfig) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let template = QuerySet::paper().default_query().clone();
    let db = DatabaseBuilder::new()
        .seed(cfg.db_seed)
        .sequences(cfg.db_seqs)
        .median_length(cfg.db_median_len)
        .homolog_template(template)
        .homolog_fraction(cfg.db_homolog_fraction)
        .build();
    let subjects: Vec<Vec<AminoAcid>> = db
        .sequences()
        .iter()
        .map(|s| s.residues().to_vec())
        .collect();
    let prices = CorpusPrice::new(subjects.iter().map(Vec::len));

    let gate = Gate {
        budget_cells: cfg.budget_cells,
        max_queued: cfg.max_queued,
    };
    let quantum = cfg.quantum_cells;
    let workers = cfg.workers.max(1);
    let state = Arc::new(State {
        gate,
        subjects,
        prices,
        matrix: SubstitutionMatrix::blosum62(),
        gaps: GapPenalties::paper(),
        profiles: Mutex::new(ProfileCache::new()),
        counters: Counters::new(),
        queue: Mutex::new(QueueState {
            drr: DrrQueue::new(quantum),
            in_flight_cells: 0,
            in_flight_requests: 0,
        }),
        work_ready: Condvar::new(),
        tenants: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        cfg,
    });

    let worker_handles = (0..workers)
        .map(|i| {
            let st = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("sapad-worker-{i}"))
                .spawn(move || worker_loop(&st))
                .expect("spawn worker thread")
        })
        .collect();
    let accept = {
        let st = Arc::clone(&state);
        thread::Builder::new()
            .name("sapad-accept".to_string())
            .spawn(move || accept_loop(&listener, &st))
            .expect("spawn accept thread")
    };

    Ok(ServiceHandle {
        addr,
        state,
        accept,
        workers: worker_handles,
    })
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        if state.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let st = Arc::clone(state);
                // Connection threads are detached: they die with their
                // socket (EOF/timeout) or when shutdown is observed.
                let _ = thread::Builder::new()
                    .name("sapad-conn".to_string())
                    .spawn(move || connection_loop(&st, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// What one bounded read attempt produced.
enum FrameRead {
    /// One complete line (newline stripped, `\r\n` tolerated).
    Line(Vec<u8>),
    /// Orderly end of stream.
    Eof,
    /// The client exceeded the line limit mid-frame.
    Oversized,
    /// The read timeout elapsed (idle or wedged client).
    TimedOut,
}

fn read_frame(stream: &mut TcpStream, pending: &mut Vec<u8>, max: usize) -> io::Result<FrameRead> {
    loop {
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = pending.drain(..=pos).collect();
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            // An over-limit line is oversized even when its newline
            // arrived in the same chunk as the overflow bytes.
            if line.len() > max {
                return Ok(FrameRead::Oversized);
            }
            return Ok(FrameRead::Line(line));
        }
        if pending.len() > max {
            return Ok(FrameRead::Oversized);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(FrameRead::TimedOut)
            }
            Err(e) => return Err(e),
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn connection_loop(state: &Arc<State>, mut stream: TcpStream) {
    Counters::inc(&state.counters.connections);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let mut pending = Vec::new();
    loop {
        if state.shutting_down() {
            return;
        }
        match read_frame(&mut stream, &mut pending, state.cfg.limits.max_line_bytes) {
            Ok(FrameRead::Line(line)) => {
                if !handle_line(state, &mut stream, &line) {
                    return;
                }
            }
            Ok(FrameRead::Oversized) => {
                Counters::inc(&state.counters.oversized);
                Counters::inc(&state.counters.protocol_errors);
                let detail = format!(
                    "frame exceeds {} bytes; closing (framing lost)",
                    state.cfg.limits.max_line_bytes
                );
                let _ = write_line(
                    &mut stream,
                    &render_error(None, ErrorCode::Oversized, &detail),
                );
                return;
            }
            Ok(FrameRead::Eof) | Ok(FrameRead::TimedOut) | Err(_) => return,
        }
    }
}

/// Handles one complete frame; returns whether the connection should
/// stay open. Invariant: every received line is answered with exactly
/// one line (or the connection closes), keeping request/response
/// streams in lockstep for exact accounting.
fn handle_line(state: &Arc<State>, stream: &mut TcpStream, line: &[u8]) -> bool {
    Counters::inc(&state.counters.frames);
    let text = match std::str::from_utf8(line) {
        Ok(t) => t,
        Err(_) => {
            Counters::inc(&state.counters.protocol_errors);
            return send(
                state,
                stream,
                &render_error(None, ErrorCode::Malformed, "frame is not utf-8"),
            );
        }
    };
    match parse_request(text, &state.cfg.limits) {
        Err(reject) => {
            Counters::inc(&state.counters.protocol_errors);
            send(state, stream, &reject.render())
        }
        Ok(Request::Ping { id }) => send(state, stream, &render_pong(id)),
        Ok(Request::Stats { id }) => {
            let mut stats = state.counters.snapshot().to_json();
            if let crate::json::Json::Obj(pairs) = &mut stats {
                if let Some(id) = id {
                    pairs.insert(0, ("id".to_string(), crate::json::Json::num_u64(id)));
                }
                pairs.insert(0, ("type".to_string(), crate::json::Json::str("stats")));
                pairs.push((
                    "db_seqs".to_string(),
                    crate::json::Json::num_u64(state.subjects.len() as u64),
                ));
                pairs.push((
                    "budget_cells".to_string(),
                    crate::json::Json::num_u64(state.cfg.budget_cells),
                ));
            }
            send(state, stream, &stats.render())
        }
        Ok(Request::Shutdown { id }) => {
            let _ = write_line(stream, &render_ok(id, "shutdown"));
            state.shutdown.store(true, Ordering::SeqCst);
            state.work_ready.notify_all();
            false
        }
        Ok(Request::Search(frame)) => handle_search(state, stream, *frame),
    }
}

fn send(state: &Arc<State>, stream: &mut TcpStream, line: &str) -> bool {
    if write_line(stream, line).is_err() {
        Counters::inc(&state.counters.write_failures);
        false
    } else {
        true
    }
}

fn handle_search(state: &Arc<State>, stream: &mut TcpStream, frame: SearchFrame) -> bool {
    Counters::inc(&state.counters.submitted);
    let cost = state
        .prices
        .price(frame.engine, frame.query.len(), frame.deadline_cells);

    if let Some(q) = &state.cfg.quota {
        let now = Instant::now();
        let mut tenants = lock_unpoisoned(&state.tenants);
        let bucket = tenants
            .entry(frame.tenant.clone())
            .or_insert_with(|| TokenBucket::new(q.capacity_cells, q.refill_cells_per_sec, now));
        if !bucket.try_take(cost, now) {
            let available = bucket.available();
            drop(tenants);
            Counters::inc(&state.counters.rejected_throttled);
            let detail = format!(
                "tenant '{}' quota: {cost} cells requested, {available} available; retry later",
                frame.tenant
            );
            return send(
                state,
                stream,
                &render_error(Some(frame.id), ErrorCode::Throttled, &detail),
            );
        }
    }

    let (tx, rx) = mpsc::channel();
    {
        let mut q = lock_unpoisoned(&state.queue);
        if state.shutting_down() {
            Counters::inc(&state.counters.rejected_unavailable);
            drop(q);
            let _ = write_line(
                stream,
                &render_error(
                    Some(frame.id),
                    ErrorCode::Unavailable,
                    "server is shutting down",
                ),
            );
            return false;
        }
        let committed = q.drr.queued_cost() + q.in_flight_cells;
        if let Err(detail) = state.gate.check(q.drr.len(), committed, cost) {
            drop(q);
            Counters::inc(&state.counters.rejected_overloaded);
            return send(
                state,
                stream,
                &render_error(Some(frame.id), ErrorCode::Overloaded, &detail),
            );
        }
        let tenant = frame.tenant.clone();
        q.drr.push(&tenant, cost, Job { frame, reply: tx });
        state.work_ready.notify_one();
    }

    match rx.recv() {
        Ok(reply) => send(state, stream, &reply),
        Err(_) => {
            // Unreachable by construction (workers always reply before
            // releasing a job), kept so a future bug degrades to one
            // typed error in the quarantine bucket instead of a hang.
            Counters::inc(&state.counters.quarantined_requests);
            Counters::inc(&state.counters.request_panics);
            send(
                state,
                stream,
                &render_error(None, ErrorCode::Internal, "worker dropped the request"),
            )
        }
    }
}

fn worker_loop(state: &Arc<State>) {
    // Built once: every search scans the whole corpus.
    let slices: Vec<&[AminoAcid]> = state.subjects.iter().map(Vec::as_slice).collect();
    loop {
        let popped = {
            let mut q = lock_unpoisoned(&state.queue);
            loop {
                if let Some((_tenant, cost, job)) = q.drr.pop() {
                    q.in_flight_cells += cost;
                    q.in_flight_requests += 1;
                    break Some((cost, job));
                }
                // Drain-then-exit: queued work admitted before shutdown
                // is still answered.
                if state.shutting_down() {
                    break None;
                }
                let (guard, _) = state
                    .work_ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        let Some((cost, job)) = popped else { return };
        let reply = execute(state, &slices, &job.frame);
        let _ = job.reply.send(reply);
        let mut q = lock_unpoisoned(&state.queue);
        q.in_flight_cells -= cost;
        q.in_flight_requests -= 1;
    }
}

/// Executes one admitted search and renders its reply line, absorbing
/// any panic into a typed `internal` error.
fn execute(state: &Arc<State>, slices: &[&[AminoAcid]], frame: &SearchFrame) -> String {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_search(state, slices, frame)));
    let c = &state.counters;
    match outcome {
        Ok(resp) => {
            if !resp.completed {
                Counters::inc(&c.partial);
            }
            if resp.stats.quarantined.is_empty() {
                Counters::inc(&c.served_clean);
            } else {
                Counters::inc(&c.quarantined_requests);
                Counters::add(&c.quarantined_subjects, resp.stats.quarantined.len() as u64);
            }
            render_result(frame.id, &resp)
        }
        Err(_) => {
            Counters::inc(&c.quarantined_requests);
            Counters::inc(&c.request_panics);
            render_error(
                Some(frame.id),
                ErrorCode::Internal,
                "search panicked; request quarantined",
            )
        }
    }
}

fn run_search(state: &Arc<State>, slices: &[&[AminoAcid]], frame: &SearchFrame) -> SearchResponse {
    let req = SearchRequest {
        query: &frame.query,
        matrix: &state.matrix,
        gaps: state.gaps,
        top_k: frame.top_k,
        min_score: frame.min_score,
        deadline: frame.deadline(),
        report_alignments: false,
        prefilter: Prefilter::Off,
    };
    struct Exec<'r> {
        req: &'r SearchRequest<'r>,
        slices: &'r [&'r [AminoAcid]],
        threads: usize,
        plan: FaultPlan,
    }
    impl EngineVisitor for Exec<'_> {
        type Out = SearchResponse;
        fn visit<E: AlignmentEngine>(self, id: Engine, engine: &E) -> SearchResponse {
            if self.plan.is_disabled() {
                search_with(id, engine, self.req, self.slices, self.threads)
            } else {
                search_with(
                    id,
                    &FaultyEngine::new(engine, self.plan),
                    self.req,
                    self.slices,
                    self.threads,
                )
            }
        }
    }
    let exec = Exec {
        req: &req,
        slices,
        threads: state.cfg.search_threads.max(1),
        plan: state.cfg.fault_plan,
    };
    if frame.engine != Engine::Striped {
        return frame.engine.dispatch(&req, exec);
    }
    // The hot path: striped searches share query profiles across
    // requests instead of rebuilding them per scan.
    striped_dispatch(
        frame.query.len(),
        req.gaps,
        |word_lanes| {
            lock_unpoisoned(&state.profiles).get_or_build(&frame.query, &state.matrix, word_lanes)
        },
        exec,
    )
}

/// Installs a process-wide panic hook that silences panics whose
/// message contains `"injected fault"` (chaos-run noise) while passing
/// every real panic through to the default hook. Harnesses that arm a
/// [`FaultPlan`] call this once; idempotent in effect, cheap to call.
pub fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str);
        if msg.is_some_and(|m| m.contains("injected fault")) {
            return;
        }
        if info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fault"))
        {
            return;
        }
        default(info);
    }));
}
