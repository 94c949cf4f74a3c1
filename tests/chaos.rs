//! Chaos suite: deterministic fault injection across the whole stack.
//!
//! Every test here follows one discipline: inject faults from a seeded
//! [`FaultPlan`], let the pipeline degrade gracefully, and then assert
//! that what survived is *exactly* reproducible — same quarantine
//! report, same scores, same rendered output — at 1, 2, and 4 worker
//! threads. Fault decisions are keyed on subject content, never on
//! scheduling, so these assertions are exact equalities, not
//! tolerances.

use std::collections::BTreeMap;
use std::sync::{Arc, Once};
use std::time::Duration;

use sapa_core::align::engine::{
    AlignmentEngine, Deadline, Engine, Prefilter, SearchRequest, SwEngine,
};
use sapa_core::align::parallel::{
    engine_scores, engine_search, engine_search_bounded, QUARANTINED_SCORE,
};
use sapa_core::bioseq::compose::{sample_residue, swissprot_cdf};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::rng::Xoshiro256;
use sapa_core::bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_core::cpu::config::MemConfig;
use sapa_core::cpu::{run_jobs_isolated, SimConfig, Simulator, SweepJob};
use sapa_core::fault::{
    corrupt_packed, subject_key, truncate_fasta, FaultPlan, FaultSite, FaultyEngine,
};
use sapa_core::isa::PackedTrace;
use sapa_core::workloads::{StandardInputs, Workload};
use sapa_service::json::{self, Json};
use sapa_service::{serve, Client, SearchParams, ServiceConfig, ServiceHandle};

/// Silences panic backtraces for *injected* faults only, so the chaos
/// runs don't bury real failures in hundreds of expected panic dumps.
/// Genuine panics still print through the previous hook.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected fault") {
                previous(info);
            }
        }));
    });
}

/// A deterministic 2000-subject synthetic database, 24–56 residues per
/// subject (small enough that full Smith-Waterman over the whole set
/// stays fast on one core).
fn database() -> Vec<Vec<AminoAcid>> {
    let cdf = swissprot_cdf();
    let mut rng = Xoshiro256::new(0x5A5A_2006);
    (0..2000)
        .map(|_| {
            let len = 24 + (rng.next_below(33) as usize);
            (0..len)
                .map(|_| sample_residue(&cdf, rng.next_f64()))
                .collect()
        })
        .collect()
}

fn query() -> Vec<AminoAcid> {
    let cdf = swissprot_cdf();
    let mut rng = Xoshiro256::new(0xBEEF);
    (0..32)
        .map(|_| sample_residue(&cdf, rng.next_f64()))
        .collect()
}

/// The acceptance-scenario plan: every site armed, 5% per decision.
fn plan() -> FaultPlan {
    FaultPlan::new(2006, 0.05)
}

#[test]
fn faulted_search_survives_and_is_thread_count_invariant() {
    quiet_injected_panics();
    let db = database();
    let subjects: Vec<&[AminoAcid]> = db.iter().map(Vec::as_slice).collect();
    let q = query();
    let matrix = SubstitutionMatrix::blosum62();

    let run = |threads: usize| {
        let engine = FaultyEngine::new(SwEngine::new(&q, &matrix, GapPenalties::paper()), plan());
        let (results, mut stats) = engine_search(&engine, &subjects, threads, 50, 1);
        stats.threads = 0; // normalize the only legitimately varying field
                           // Render to a string: "byte-identical output" is the contract.
        let mut text = String::new();
        for h in results.hits() {
            text.push_str(&format!("{} {}\n", h.seq_index, h.score));
        }
        for qn in &stats.quarantined {
            text.push_str(&format!("Q {} {}\n", qn.index, qn.cause));
        }
        (results, stats, text)
    };

    let (_, stats1, text1) = run(1);
    assert!(
        !stats1.quarantined.is_empty(),
        "a 5% panic rate over 2000 subjects must quarantine some"
    );
    assert!(stats1.quarantined.len() < 400, "rate wildly off");
    for q in &stats1.quarantined {
        assert!(q.cause.contains("injected fault"), "cause: {}", q.cause);
    }
    for threads in [2usize, 4] {
        let (_, stats_n, text_n) = run(threads);
        assert_eq!(stats1, stats_n, "stats differ at {threads} threads");
        assert_eq!(text1, text_n, "output differs at {threads} threads");
    }
}

#[test]
fn non_faulted_scores_are_bit_identical_to_a_clean_run() {
    quiet_injected_panics();
    let db = database();
    let subjects: Vec<&[AminoAcid]> = db.iter().map(Vec::as_slice).collect();
    let q = query();
    let matrix = SubstitutionMatrix::blosum62();

    let clean_engine = SwEngine::new(&q, &matrix, GapPenalties::paper());
    let (clean, _) = engine_scores(&clean_engine, &subjects, 2);

    let faulty = FaultyEngine::new(SwEngine::new(&q, &matrix, GapPenalties::paper()), plan());
    let (scores, stats) = engine_scores(&faulty, &subjects, 2);

    let quarantined: Vec<usize> = stats.quarantined.iter().map(|q| q.index).collect();
    for (i, (&got, &want)) in scores.iter().zip(&clean).enumerate() {
        if quarantined.contains(&i) {
            assert_eq!(got, QUARANTINED_SCORE, "subject {i}");
        } else {
            assert_eq!(got, want, "subject {i} drifted under fault injection");
        }
    }
    // The plan's panic decisions are content-keyed: every quarantined
    // index must actually be one the plan faults.
    for &i in &quarantined {
        assert!(plan().triggers(FaultSite::WorkerPanic, subject_key(subjects[i])));
    }
}

#[test]
fn rescore_storms_change_accounting_not_scores() {
    let db = database();
    let subjects: Vec<&[AminoAcid]> = db.iter().map(Vec::as_slice).collect();
    let q = query();
    let matrix = SubstitutionMatrix::blosum62();

    let clean_engine = SwEngine::new(&q, &matrix, GapPenalties::paper());
    let (clean, _) = engine_scores(&clean_engine, &subjects, 2);

    let stormy = FaultyEngine::new(
        SwEngine::new(&q, &matrix, GapPenalties::paper()),
        FaultPlan::only(99, 0.2, FaultSite::RescoreStorm),
    );
    let run = |threads: usize| engine_scores(&stormy, &subjects, threads);
    let (scores, stats) = run(1);
    assert_eq!(scores, clean, "storms must never alter scores");
    assert!(stats.rescored > 0, "a 20% storm rate must fire");
    assert!(stats.quarantined.is_empty());
    // Storm counts ride in per-workspace counters; the graveyard merge
    // keeps the total exact at any thread count.
    for threads in [2usize, 4] {
        assert_eq!(run(threads).1.rescored, stats.rescored);
    }
}

#[test]
fn cell_budget_partial_search_is_deterministic_across_threads() {
    let db = database();
    let subjects: Vec<&[AminoAcid]> = db.iter().map(Vec::as_slice).collect();
    let q = query();
    let matrix = SubstitutionMatrix::blosum62();
    let engine = SwEngine::new(&q, &matrix, GapPenalties::paper());
    let total: u64 = subjects.iter().map(|s| engine.cost(s)).sum();

    let run = |threads: usize| {
        engine_search_bounded(
            &engine,
            &subjects,
            threads,
            50,
            1,
            Some(Deadline::Cells(total / 3)),
        )
    };
    let one = run(1);
    assert!(!one.completed);
    assert!(one.stats.subjects > 0 && one.stats.subjects < subjects.len());
    for threads in [2usize, 4] {
        let n = run(threads);
        assert_eq!(n.completed, one.completed);
        assert_eq!(n.stats.subjects, one.stats.subjects);
        assert_eq!(n.results.hits(), one.results.hits());
    }
}

#[test]
fn deadline_and_quarantine_compose_in_the_request_layer() {
    quiet_injected_panics();
    let db = database();
    let subjects: Vec<&[AminoAcid]> = db.iter().map(Vec::as_slice).collect();
    let q = query();
    let matrix = SubstitutionMatrix::blosum62();
    let req = SearchRequest {
        query: &q,
        matrix: &matrix,
        gaps: GapPenalties::paper(),
        top_k: 25,
        min_score: 1,
        deadline: Some(Deadline::Cells(200_000)),
        report_alignments: false,
        prefilter: Prefilter::Off,
    };
    let run = |threads: usize| {
        let mut resp = Engine::Sw.search(&req, &subjects, threads);
        resp.stats.threads = 0;
        resp
    };
    let one = run(1);
    assert!(!one.completed);
    assert_eq!(one.coverage, one.stats.subjects);
    assert_eq!(run(2), one);
    assert_eq!(run(4), one);
}

#[test]
fn corrupted_packed_traces_are_rejected_not_replayed() {
    let inputs = StandardInputs::with_db_size(12, 1);
    let bundle = Workload::Blast.trace(&inputs);
    let packed = PackedTrace::from_trace(&bundle.trace);
    assert!(packed.check().is_ok(), "clean trace must validate");

    let sim = Simulator::new(SimConfig::four_way());
    // Verified by its first replay: the corrupted copies below must not
    // inherit that verdict.
    assert!(sim.try_run_packed(&packed).is_ok());
    for seed in 0..8 {
        let bad = corrupt_packed(&packed, &FaultPlan::new(seed, 0.001));
        let err = sim
            .try_run_packed(&bad)
            .expect_err("corruption must be detected before replay");
        assert_eq!(bad.verify(), Err(err.clone()));
        assert!(!format!("{err}").is_empty());
    }
    // And the clean trace still replays after all that.
    assert!(sim.try_run_packed(&packed).is_ok());
}

#[test]
fn sweep_batch_finishes_around_a_poisoned_job() {
    let inputs = StandardInputs::with_db_size(12, 1);
    let packed = PackedTrace::from_trace(&Workload::Fasta34.trace(&inputs).trace);
    let bad = corrupt_packed(&packed, &FaultPlan::new(3, 0.01));

    let clean = std::sync::Arc::new(packed);
    let poisoned = std::sync::Arc::new(bad);
    let jobs: Vec<SweepJob> = (0..5)
        .map(|i| {
            let trace = if i == 2 {
                std::sync::Arc::clone(&poisoned)
            } else {
                std::sync::Arc::clone(&clean)
            };
            SweepJob::new(trace, SimConfig::four_way())
        })
        .collect();
    for threads in [1usize, 2, 4] {
        let outcomes = run_jobs_isolated(&jobs, threads);
        assert_eq!(outcomes.len(), 5);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 2 {
                let cause = &o.as_ref().unwrap_err().cause;
                assert!(cause.contains("trace error"), "cause: {cause}");
            } else {
                assert!(o.is_ok(), "clean job {i} failed at {threads} threads");
            }
        }
    }
}

#[test]
fn a_shared_corrupted_trace_fails_every_job_alike_at_any_thread_count() {
    let inputs = StandardInputs::with_db_size(12, 1);
    let blast = PackedTrace::from_trace(&Workload::Blast.trace(&inputs).trace);
    let fasta = PackedTrace::from_trace(&Workload::Fasta34.trace(&inputs).trace);
    let machines: Vec<SimConfig> = [
        SimConfig::four_way(),
        SimConfig::eight_way(),
        SimConfig::sixteen_way(),
    ]
    .into_iter()
    .flat_map(|cfg| {
        [MemConfig::me1(), MemConfig::meinf()].map(|mem| SimConfig { mem, ..cfg.clone() })
    })
    .collect();
    let serial: Vec<_> = machines
        .iter()
        .map(|cfg| Simulator::new(cfg.clone()).run_packed(&fasta))
        .collect();

    let mut causes = Vec::new();
    for threads in [1usize, 2] {
        // Fresh, unverified traces each round: at two threads the
        // workers race to verify the shared copies first.
        let bad = Arc::new(corrupt_packed(&blast, &FaultPlan::new(11, 0.001)));
        let clean = Arc::new(fasta.clone());
        let jobs: Vec<SweepJob> = machines
            .iter()
            .flat_map(|cfg| [&bad, &clean].map(|t| SweepJob::new(Arc::clone(t), cfg.clone())))
            .collect();
        let outcomes = run_jobs_isolated(&jobs, threads);
        for (m, pair) in outcomes.chunks(2).enumerate() {
            let cause = &pair[0]
                .as_ref()
                .expect_err("corrupted BLAST replayed")
                .cause;
            assert!(cause.starts_with("trace error: "), "{cause}");
            causes.push(cause.clone());
            assert_eq!(pair[1].as_ref().ok(), Some(&serial[m]), "threads={threads}");
        }
    }
    assert_eq!(causes.len(), 12);
    assert!(causes.iter().all(|c| *c == causes[0]), "{causes:?}");
}

// ---------------------------------------------------------------------------
// Service chaos: the same discipline, one layer up. The daemon gets the
// seeded fault plan, concurrent hostile clients, and deadline storms,
// and must come out with exact accounting — never a restart.
// ---------------------------------------------------------------------------

const SERVICE_TIMEOUT: Duration = Duration::from_secs(60);

/// Short queries keep a 1000-request debug-mode run affordable; every
/// residue is a standard amino acid.
const SERVICE_QUERIES: [&str; 3] = [
    "MKWVTFISLLFLFSSAYSRGVFRRDA",
    "HEAGAWGHEEAEHGAWGHEEFGSATW",
    "PAWHEAEWHEAPAWHEAEKLMNPQRS",
];
const SERVICE_ENGINES: [&str; 3] = ["striped", "blast", "fasta"];

fn service_config(fault: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        db_seqs: 48,
        db_median_len: 50.0,
        fault_plan: fault,
        ..ServiceConfig::default()
    }
}

fn service_params(id: u64) -> SearchParams<'static> {
    SearchParams {
        id,
        tenant: ["t0", "t1", "t2", "t3"][(id % 4) as usize],
        engine: SERVICE_ENGINES[(id % 3) as usize],
        query: SERVICE_QUERIES[(id % 3) as usize],
        top_k: 10,
        min_score: 1,
        deadline_cells: None,
        deadline_ms: None,
    }
}

/// The plan's worker-panic decisions are keyed on subject content, so
/// the exact quarantine set is computable from the served corpus alone.
fn predicted_quarantine(server: &ServiceHandle, plan: &FaultPlan) -> Vec<u64> {
    server
        .subjects()
        .iter()
        .enumerate()
        .filter(|(_, s)| plan.triggers(FaultSite::WorkerPanic, subject_key(s)))
        .map(|(i, _)| i as u64)
        .collect()
}

fn reply_quarantined(reply: &Json) -> Vec<u64> {
    reply
        .get("quarantined")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default()
}

/// Fires `total` requests over `conns` concurrent connections and
/// returns every reply keyed by request id.
fn fire(
    addr: std::net::SocketAddr,
    total: u64,
    conns: u64,
    mutate: fn(&mut SearchParams<'static>),
) -> BTreeMap<u64, String> {
    let threads: Vec<_> = (0..conns)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, SERVICE_TIMEOUT).expect("chaos client connect");
                let mut replies = Vec::new();
                let mut id = conn;
                while id < total {
                    let mut params = service_params(id);
                    mutate(&mut params);
                    let reply = client
                        .search(&params)
                        .unwrap_or_else(|e| panic!("request {id} died: {e}"));
                    replies.push((id, reply));
                    id += conns;
                }
                replies
            })
        })
        .collect();
    let mut all = BTreeMap::new();
    for t in threads {
        for (id, reply) in t.join().expect("chaos client thread") {
            assert!(all.insert(id, reply).is_none(), "duplicate reply id");
        }
    }
    all
}

/// The acceptance scenario: a 1000-request mixed-tenant, mixed-engine
/// run at the 5% worker-panic plan. Every reply must carry *exactly*
/// the quarantine set predicted from subject content, the counters must
/// balance to the request, and the daemon must still serve afterwards —
/// all without a restart.
#[test]
fn service_survives_a_thousand_requests_at_five_percent_panic_rate() {
    quiet_injected_panics();
    let server = serve(service_config(plan())).expect("bind chaos service");
    let addr = server.addr();
    let predicted = predicted_quarantine(&server, &plan());
    assert!(
        !predicted.is_empty(),
        "the seeded plan must fault some of the {} subjects",
        server.db_seqs()
    );

    const TOTAL: u64 = 1000;
    let replies = fire(addr, TOTAL, 8, |_| {});
    assert_eq!(replies.len() as u64, TOTAL);
    for (id, reply) in &replies {
        let v = json::parse(reply).expect("reply parses");
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some("result"),
            "id {id}: {reply}"
        );
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(*id));
        assert_eq!(v.get("completed").and_then(Json::as_bool), Some(true));
        // Exact quarantine accounting: content-keyed decisions mean the
        // set is identical for every engine and every request.
        assert_eq!(
            reply_quarantined(&v),
            predicted,
            "id {id} quarantine set drifted"
        );
    }

    // Still alive, still serving — the probe rides the same daemon.
    let mut probe = Client::connect(addr, SERVICE_TIMEOUT).unwrap();
    let pong = probe.request(r#"{"op":"ping","id":424242}"#).unwrap();
    assert!(pong.contains("\"pong\""), "probe after storm: {pong}");
    drop(probe);

    let snap = server.shutdown();
    assert_eq!(snap.submitted, TOTAL);
    assert_eq!(
        snap.request_panics, 0,
        "per-subject quarantine must absorb every panic"
    );
    assert_eq!(snap.quarantined_requests, TOTAL);
    assert_eq!(snap.served_clean, 0);
    assert_eq!(snap.quarantined_subjects, TOTAL * predicted.len() as u64);
    assert_eq!(snap.rejected(), 0);
    assert!(snap.balances(), "accounting must balance: {snap:?}");
}

/// Clients that vanish mid-response (immediate drop, or a half-close
/// while a search is in flight) cost the daemon a failed write at most:
/// execution buckets never move on delivery failure, and the process
/// keeps serving.
#[test]
fn client_disconnects_mid_response_leave_the_daemon_serving() {
    let server = serve(service_config(FaultPlan::DISABLED)).expect("bind service");
    let addr = server.addr();

    // Wave 1: submit and vanish without reading the reply.
    for id in 0..10u64 {
        let mut c = Client::connect(addr, SERVICE_TIMEOUT).unwrap();
        c.send_line(&service_params(id).render()).unwrap();
        drop(c);
    }
    // Wave 2: half-close the write side mid-request; the reply must
    // still arrive on the read side.
    for id in 10..15u64 {
        let mut c = Client::connect(addr, SERVICE_TIMEOUT).unwrap();
        c.send_line(&service_params(id).render()).unwrap();
        c.shutdown_write().unwrap();
        let reply = c
            .recv_line()
            .expect("read after half-close")
            .expect("reply after half-close");
        let v = json::parse(&reply).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(v.get("type").and_then(Json::as_str), Some("result"));
    }

    // The daemon answered (or tried to answer) every submission and
    // still serves; dropped sockets moved no accounting buckets.
    let mut probe = Client::connect(addr, SERVICE_TIMEOUT).unwrap();
    let reply = probe.search(&service_params(99)).unwrap();
    assert!(reply.contains("\"type\":\"result\""));
    let deadline = std::time::Instant::now() + SERVICE_TIMEOUT;
    loop {
        // Wave-1 workers may still be finishing; wait for the counters
        // to converge rather than racing them.
        let snap = server.counters();
        if snap.served_clean == 16 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "stuck at {snap:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = server.shutdown();
    assert_eq!(snap.submitted, 16);
    assert_eq!(snap.served_clean, 16);
    assert!(snap.balances(), "accounting must balance: {snap:?}");
}

/// A deadline storm: every request carries a cell budget far below the
/// scan cost. Degradation must be graceful (partial results, not
/// errors), typed (`truncated_by: "cells"`), and deterministic — the
/// same request truncates at the same subject every time.
#[test]
fn deadline_storm_degrades_gracefully_and_deterministically() {
    let server = serve(service_config(FaultPlan::DISABLED)).expect("bind service");
    let addr = server.addr();
    let db = server.db_seqs() as u64;

    let storm = |params: &mut SearchParams<'static>| {
        // Exact engines only: heuristic scan costs are not DP cells.
        params.engine = ["striped", "sw"][(params.id % 2) as usize];
        params.deadline_cells = Some(2_000);
    };
    const TOTAL: u64 = 100;
    let first = fire(addr, TOTAL, 4, storm);
    for (id, reply) in &first {
        let v = json::parse(reply).expect("reply parses");
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some("result"),
            "id {id}: {reply}"
        );
        assert_eq!(v.get("completed").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("truncated_by").and_then(Json::as_str), Some("cells"));
        let coverage = v.get("coverage").and_then(Json::as_u64).expect("coverage");
        assert!(
            coverage < db,
            "id {id} covered the whole corpus under a tiny budget"
        );
    }
    // Determinism: an identical storm produces byte-identical replies.
    assert_eq!(fire(addr, TOTAL, 4, storm), first);

    let snap = server.shutdown();
    assert_eq!(snap.submitted, 2 * TOTAL);
    assert_eq!(snap.partial, 2 * TOTAL);
    assert_eq!(snap.served_clean, 2 * TOTAL);
    assert!(snap.balances(), "accounting must balance: {snap:?}");
}

/// Concurrency must be invisible in the payload: the same request set
/// fired serially over one connection and concurrently over eight
/// produces byte-identical replies, id for id — with the fault plan
/// armed, so quarantine reporting is covered too.
#[test]
fn concurrent_and_serial_service_runs_are_byte_identical() {
    quiet_injected_panics();
    let server = serve(service_config(plan())).expect("bind service");
    let addr = server.addr();

    const TOTAL: u64 = 120;
    let serial = fire(addr, TOTAL, 1, |_| {});
    let concurrent = fire(addr, TOTAL, 8, |_| {});
    assert_eq!(serial.len() as u64, TOTAL);
    for (id, reply) in &serial {
        assert_eq!(
            concurrent.get(id),
            Some(reply),
            "id {id} differs between serial and concurrent runs"
        );
    }

    let snap = server.shutdown();
    assert_eq!(snap.submitted, 2 * TOTAL);
    assert!(snap.balances(), "accounting must balance: {snap:?}");
}

#[test]
fn truncated_fasta_never_panics() {
    use sapa_core::bioseq::fasta::{read_fasta, write_fasta};
    use sapa_core::bioseq::Sequence;

    let seqs = vec![
        Sequence::from_str("a", "MKWVTFISLLFLFSSAYS").unwrap(),
        Sequence::from_str("b", "HEAGAWGHEE").unwrap(),
        Sequence::from_str("c", "PAWHEAE").unwrap(),
    ];
    let mut bytes = Vec::new();
    write_fasta(&mut bytes, &seqs).unwrap();

    // Every seeded cut, and for good measure every prefix length, must
    // yield Ok(shorter set) or Err — never a panic.
    for seed in 0..32 {
        let plan = FaultPlan::only(seed, 1.0, FaultSite::FastaTruncate);
        let cut = truncate_fasta(&bytes, &plan);
        let _ = read_fasta(&cut[..]);
    }
    for n in 0..bytes.len() {
        let _ = read_fasta(&bytes[..n]);
    }
}
