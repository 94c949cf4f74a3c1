//! Cost-based admission control.
//!
//! Every search is priced *before* it runs, in the same deterministic
//! unit the engine layer budgets with: DP cells, via
//! [`Engine::scan_cost`] over the corpus length table ([`price`]), which
//! a daemon sums once at start-up ([`CorpusPrice`]). The gate keeps
//! the sum of queued plus in-flight cost under a fixed budget, so an
//! overload turns into fast typed `overloaded` rejections instead of
//! unbounded queueing and collapse. Two consequences worth stating:
//!
//! * A request carrying `deadline_cells` is priced at
//!   `min(full scan, budgeted cells)` — a deadline is a *promise* the
//!   engine enforces ([`sapa_align::engine::Deadline::Cells`] admits a
//!   subject prefix within the budget), so clients can always buy
//!   admission for a huge query by bounding it.
//! * A request whose price exceeds the whole budget can never be
//!   admitted, idle or not; the rejection detail says so explicitly so
//!   the client knows to shrink the request rather than retry.

use sapa_align::engine::Engine;

/// Prices one search: the engine's full scan cost over the corpus
/// lengths, capped by the client's `deadline_cells` bound, floored at
/// one cell so no request is free.
pub fn price(
    engine: Engine,
    query_len: usize,
    subject_lens: impl IntoIterator<Item = usize>,
    deadline_cells: Option<u64>,
) -> u64 {
    let full = engine.scan_cost(query_len, subject_lens);
    deadline_cells.map_or(full, |b| full.min(b)).max(1)
}

/// [`price`] for one fixed corpus, in constant time: the length table
/// is summed once, when the corpus is built.
///
/// Every engine's [`Engine::cost_len`] is its cost for a one-residue
/// subject times `max(len, 1)`, so a scan costs that unit cost times
/// Σ max(len, 1) — the same saturating total [`price`] adds up subject
/// by subject.
#[derive(Debug, Clone, Copy)]
pub struct CorpusPrice {
    /// Σ max(len, 1) over the corpus.
    padded_residues: u64,
}

impl CorpusPrice {
    /// Sums the corpus's subject lengths.
    pub fn new(subject_lens: impl IntoIterator<Item = usize>) -> Self {
        CorpusPrice {
            padded_residues: subject_lens
                .into_iter()
                .fold(0u64, |acc, l| acc.saturating_add(l.max(1) as u64)),
        }
    }

    /// [`price`] of one search over the corpus.
    pub fn price(&self, engine: Engine, query_len: usize, deadline_cells: Option<u64>) -> u64 {
        let full = engine
            .cost_len(query_len, 1)
            .saturating_mul(self.padded_residues);
        deadline_cells.map_or(full, |b| full.min(b)).max(1)
    }
}

/// The admission gate: a cell budget and a queue-depth cap.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Maximum total cost (queued + in-flight) the server will hold.
    pub budget_cells: u64,
    /// Maximum queued (not yet running) requests, a backstop against
    /// many tiny requests hiding behind a large cell budget.
    pub max_queued: usize,
}

impl Gate {
    /// Decides admission for a request of `cost` cells given the
    /// currently `queued` request count and `committed_cells`
    /// (queued + in-flight cost).
    ///
    /// # Errors
    ///
    /// Returns the human-readable rejection detail for the
    /// `overloaded` error when the request does not fit.
    pub fn check(&self, queued: usize, committed_cells: u64, cost: u64) -> Result<(), String> {
        if queued >= self.max_queued {
            return Err(format!(
                "queue full: {queued} requests waiting (max {})",
                self.max_queued
            ));
        }
        if cost > self.budget_cells {
            return Err(format!(
                "request cost {cost} cells exceeds the whole {}-cell budget; \
                 bound it with deadline_cells or shrink the query",
                self.budget_cells
            ));
        }
        if committed_cells.saturating_add(cost) > self.budget_cells {
            return Err(format!(
                "cell budget exhausted: {committed_cells} committed + {cost} requested \
                 > {} budget",
                self.budget_cells
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_is_scan_cost_capped_by_deadline() {
        let lens = [100usize, 200, 300];
        let q = 50;
        let full: u64 = lens.iter().map(|&l| (q * l) as u64).sum();
        assert_eq!(price(Engine::Sw, q, lens, None), full);
        assert_eq!(price(Engine::Sw, q, lens, Some(1_000)), 1_000);
        assert_eq!(price(Engine::Sw, q, lens, Some(full * 2)), full);
        // Zero-cell deadlines still cost one cell: no free requests.
        assert_eq!(price(Engine::Sw, q, lens, Some(0)), 1);
        // Heuristics are subject-scan priced, far below DP cost.
        assert_eq!(price(Engine::Blast, q, lens, None), 600);
    }

    #[test]
    fn corpus_price_equals_price_over_the_length_table() {
        // The daemon's corpus lengths, with empty and one-residue
        // subjects added, whose cost floors at one residue.
        let mut lens: Vec<usize> = sapa_bioseq::db::DatabaseBuilder::new()
            .seed(42)
            .sequences(400)
            .median_length(110.0)
            .build()
            .iter()
            .map(|s| s.len())
            .collect();
        lens.extend([0, 1, 0]);
        let table = CorpusPrice::new(lens.iter().copied());
        for engine in Engine::ALL {
            for query_len in 0..=4096 {
                let full = price(engine, query_len, lens.iter().copied(), None);
                for cap in [
                    None,
                    Some(0),
                    Some(1),
                    Some(full - 1),
                    Some(full),
                    Some(full + 1),
                    Some(u64::MAX),
                ] {
                    assert_eq!(
                        table.price(engine, query_len, cap),
                        price(engine, query_len, lens.iter().copied(), cap),
                        "{engine} query {query_len} cap {cap:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_enforces_budget_and_depth() {
        let gate = Gate {
            budget_cells: 1_000,
            max_queued: 2,
        };
        assert!(gate.check(0, 0, 400).is_ok());
        assert!(gate.check(1, 900, 100).is_ok(), "exactly filling fits");
        let over = gate.check(1, 900, 101).unwrap_err();
        assert!(over.contains("budget exhausted"), "{over}");
        let deep = gate.check(2, 0, 1).unwrap_err();
        assert!(deep.contains("queue full"), "{deep}");
        let huge = gate.check(0, 0, 1_001).unwrap_err();
        assert!(
            huge.contains("whole"),
            "inadmissible-ever is called out: {huge}"
        );
    }
}
