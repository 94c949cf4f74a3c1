//! Parallel simulation sweeps: many configurations replaying shared
//! traces concurrently, with results identical to a serial run.
//!
//! The paper's figures are produced by sweeping one simulator over a
//! grid of microarchitectures (width × memory hierarchy × predictor).
//! Every point is an independent pure function of `(trace, config)`,
//! so the grid is embarrassingly parallel — the same shape as the
//! batched database scans in `sapa_align::parallel`, and the same
//! work-claiming idiom is used here: scoped worker threads pull job
//! indices off a shared atomic cursor and record `(index, report)`
//! pairs, which are merged back in job order. The output is therefore
//! byte-identical for any thread count, including 1.
//!
//! Traces are shared as [`Arc<PackedTrace>`] so a five-workload,
//! 45-configuration sweep holds five compact traces in memory — not 45
//! copies, and not the 2–2.5× larger array-of-structs form.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sapa_isa::packed::PackedTrace;

use crate::config::SimConfig;
use crate::pipeline::{DecodeBuf, Simulator};
use crate::stats::SimReport;

/// One unit of sweep work: replay `trace` through `config`.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The shared input trace.
    pub trace: Arc<PackedTrace>,
    /// The microarchitecture to model.
    pub config: SimConfig,
}

impl SweepJob {
    /// Convenience constructor.
    pub fn new(trace: Arc<PackedTrace>, config: SimConfig) -> Self {
        SweepJob { trace, config }
    }

    fn run_with(&self, buf: &mut DecodeBuf) -> SimReport {
        Simulator::new(self.config.clone()).run_packed_with(&self.trace, buf)
    }

    /// Panic-isolated, validated run: the trace is verified
    /// ([`Simulator::try_run_packed`]; the first job to replay a shared
    /// trace verifies it for all of them) and any panic from an invalid
    /// configuration or a simulator bug is caught and converted into a
    /// [`JobFailure`], so one poisoned grid point cannot abort a sweep.
    pub fn try_run(&self) -> Result<SimReport, JobFailure> {
        self.try_run_with(&mut DecodeBuf::new())
    }

    /// [`SweepJob::try_run`] with a caller-owned [`DecodeBuf`]; each
    /// sweep worker thread keeps one buffer across its whole job stream.
    pub fn try_run_with(&self, buf: &mut DecodeBuf) -> Result<SimReport, JobFailure> {
        // UnwindSafe: the decode buffer is pure scratch — every fill
        // overwrites it before the engine reads it — so a job that
        // panics mid-replay cannot leave state the next job observes.
        let call = std::panic::AssertUnwindSafe(move || {
            Simulator::new(self.config.clone()).try_run_packed_with(&self.trace, buf)
        });
        match std::panic::catch_unwind(call) {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(JobFailure {
                cause: format!("trace error: {e}"),
            }),
            Err(payload) => Err(JobFailure {
                cause: panic_cause(payload),
            }),
        }
    }
}

/// Why one sweep job produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Human-readable cause: a rendered `TraceError` or panic payload.
    pub cause: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.cause)
    }
}

impl std::error::Error for JobFailure {}

fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every job and returns the reports in job order.
///
/// With `threads <= 1` (or fewer than two jobs) the jobs run serially
/// on the calling thread. Otherwise `threads` scoped workers claim job
/// indices from a shared cursor; since each job is a pure function of
/// its trace and configuration, the merged result is identical to the
/// serial run — determinism is a property of the engine, not of
/// scheduling luck. Jobs are claimed one at a time because a single
/// simulation is orders of magnitude coarser than the claim overhead.
///
/// # Panics
///
/// Propagates a panic from any job (invalid configuration, simulator
/// watchdog).
pub fn run_jobs(jobs: &[SweepJob], threads: usize) -> Vec<SimReport> {
    let threads = threads.max(1).min(jobs.len());
    if threads <= 1 {
        let mut buf = DecodeBuf::new();
        return jobs.iter().map(|j| j.run_with(&mut buf)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut partials: Vec<Vec<(usize, SimReport)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                // One decode buffer per worker, reused across every job
                // it claims from the shared Arc<PackedTrace> inputs.
                let mut buf = DecodeBuf::new();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    local.push((i, jobs[i].run_with(&mut buf)));
                }
                local
            }));
        }
        for h in handles {
            partials.push(h.join().expect("sweep worker panicked"));
        }
    });

    let mut reports: Vec<Option<SimReport>> = vec![None; jobs.len()];
    for part in partials {
        for (i, r) in part {
            reports[i] = Some(r);
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("every job index claimed exactly once"))
        .collect()
}

/// [`run_jobs`] with per-job fault isolation: every job yields either a
/// report or a [`JobFailure`], in job order, and one corrupted trace or
/// panicking simulation never takes down the rest of the grid. Results
/// are identical for any thread count, failures included.
pub fn run_jobs_isolated(jobs: &[SweepJob], threads: usize) -> Vec<Result<SimReport, JobFailure>> {
    let threads = threads.max(1).min(jobs.len());
    if threads <= 1 {
        let mut buf = DecodeBuf::new();
        return jobs.iter().map(|j| j.try_run_with(&mut buf)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut partials: Vec<Vec<(usize, Result<SimReport, JobFailure>)>> =
        Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut buf = DecodeBuf::new();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    local.push((i, jobs[i].try_run_with(&mut buf)));
                }
                local
            }));
        }
        for h in handles {
            partials.push(h.join().expect("sweep worker panicked"));
        }
    });

    let mut outcomes: Vec<Option<Result<SimReport, JobFailure>>> = vec![None; jobs.len()];
    for part in partials {
        for (i, r) in part {
            outcomes[i] = Some(r);
        }
    }
    outcomes
        .into_iter()
        .map(|r| r.expect("every job index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_isa::reg;
    use sapa_isa::trace::Tracer;

    fn test_trace() -> Arc<PackedTrace> {
        let mut t = Tracer::new();
        let mut x = 7u32;
        for i in 0..4_000u32 {
            x = x.wrapping_mul(48271).wrapping_add(11);
            t.iload(i % 64, reg::gpr(1), 0x2000_0000 + (x % 65536), 4, &[]);
            t.ialu(64 + i % 64, reg::gpr(2), &[reg::gpr(1), reg::gpr(2)]);
            t.branch(128 + i % 8, x & 3 == 0, 0, &[reg::gpr(2)]);
        }
        Arc::new(PackedTrace::from_trace(&t.finish()))
    }

    fn grid(trace: &Arc<PackedTrace>) -> Vec<SweepJob> {
        [
            SimConfig::four_way(),
            SimConfig::eight_way(),
            SimConfig::sixteen_way(),
            {
                let mut c = SimConfig::four_way();
                c.branch = crate::config::BranchConfig::perfect();
                c
            },
            {
                let mut c = SimConfig::four_way();
                c.mem = crate::config::MemConfig::meinf();
                c
            },
        ]
        .into_iter()
        .map(|cfg| SweepJob::new(Arc::clone(trace), cfg))
        .collect()
    }

    #[test]
    fn parallel_results_equal_serial_for_any_thread_count() {
        let trace = test_trace();
        let jobs = grid(&trace);
        let serial = run_jobs(&jobs, 1);
        for threads in [2, 4, 7] {
            let parallel = run_jobs(&jobs, threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn reports_come_back_in_job_order() {
        let trace = test_trace();
        let jobs = grid(&trace);
        let reports = run_jobs(&jobs, 4);
        assert_eq!(reports.len(), jobs.len());
        // The 16-way run (index 2) must beat the 4-way baseline
        // (index 0); order confusion would scramble this.
        assert!(reports[2].cycles <= reports[0].cycles);
        // The ideal-memory run (index 4) has zero DL1 misses.
        assert_eq!(reports[4].dl1.misses, 0);
        assert!(reports[0].dl1.misses > 0);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let trace = test_trace();
        let jobs = vec![SweepJob::new(Arc::clone(&trace), SimConfig::four_way())];
        let reports = run_jobs(&jobs, 16);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn empty_job_list_returns_empty() {
        assert!(run_jobs(&[], 8).is_empty());
    }

    #[test]
    fn isolated_run_matches_plain_run_on_clean_jobs() {
        let trace = test_trace();
        let jobs = grid(&trace);
        let plain = run_jobs(&jobs, 2);
        let isolated = run_jobs_isolated(&jobs, 2);
        for (p, i) in plain.iter().zip(&isolated) {
            assert_eq!(Ok(p), i.as_ref());
        }
    }

    #[test]
    fn one_corrupted_trace_fails_alone() {
        let trace = test_trace();
        // The clean trace's verdict must not carry over to the copy.
        assert_eq!(trace.verify(), Ok(()));
        let bad = Arc::new(trace.with_corrupted_byte(37, 0xA5));
        let mut jobs = grid(&trace);
        jobs.insert(2, SweepJob::new(bad, SimConfig::four_way()));
        for threads in [1, 2, 4] {
            let outcomes = run_jobs_isolated(&jobs, threads);
            assert_eq!(outcomes.len(), jobs.len());
            for (i, o) in outcomes.iter().enumerate() {
                if i == 2 {
                    let failure = o.as_ref().unwrap_err();
                    assert!(failure.cause.contains("trace error"), "{failure}");
                } else {
                    assert!(o.is_ok(), "job {i} should have survived");
                }
            }
        }
    }

    #[test]
    fn invalid_configuration_is_isolated_too() {
        let trace = test_trace();
        let mut broken = SimConfig::four_way();
        broken.cpu.fetch_width = 0; // fails SimConfig::validate -> Simulator::new panics
        let jobs = vec![
            SweepJob::new(Arc::clone(&trace), SimConfig::four_way()),
            SweepJob::new(Arc::clone(&trace), broken),
        ];
        let outcomes = run_jobs_isolated(&jobs, 2);
        assert!(outcomes[0].is_ok());
        let failure = outcomes[1].as_ref().unwrap_err();
        assert!(
            failure.cause.contains("invalid simulator configuration"),
            "{failure}"
        );
    }

    #[test]
    fn packed_replay_matches_unpacked_replay() {
        let trace = test_trace();
        let sim = Simulator::new(SimConfig::four_way());
        let packed = sim.run_packed(&trace);
        let unpacked = sim.run(&trace.to_trace());
        assert_eq!(packed, unpacked);
    }
}
