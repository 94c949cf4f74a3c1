//! End-to-end tests for the on-disk database path: `dbbuild`-style
//! index construction to a real file, `IndexReader::open`, and
//! `Engine::search_indexed` across every exact engine, with and
//! without the k-mer seed prefilter; what the reader reads from its
//! source, and how it fails on a corrupted shard or seed index.

use std::cell::Cell;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::rc::Rc;

use sapa_core::align::engine::{Deadline, Engine, Prefilter, SearchRequest, SearchResponse};
use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::index::{IndexBuilder, IndexReader, ShardBuf, DEFAULT_WORD_LEN};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, Error, Sequence, SubstitutionMatrix};

fn corpus(seed: u64, n: usize) -> Vec<Sequence> {
    let query = QuerySet::paper().default_query().clone();
    DatabaseBuilder::new()
        .seed(seed)
        .sequences(n)
        .homolog_template(query)
        .homolog_fraction(0.05)
        .build()
        .sequences()
        .to_vec()
}

/// Writes `seqs` to a throwaway index file and opens it, exercising
/// the same file-backed path `protein_search --db` uses.
fn open_on_disk(name: &str, seqs: &[Sequence]) -> IndexReader<std::io::BufReader<std::fs::File>> {
    let dir = std::env::temp_dir().join("sapa_db_search_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    IndexBuilder::new()
        .shard_residues(16 * 1024)
        .write_file(seqs, &path)
        .unwrap();
    IndexReader::open(&path).unwrap()
}

fn request<'a>(
    query: &'a [AminoAcid],
    matrix: &'a SubstitutionMatrix,
    prefilter: Prefilter,
) -> SearchRequest<'a> {
    SearchRequest {
        query,
        matrix,
        gaps: GapPenalties::paper(),
        top_k: 50,
        // Equivalence between the seed prefilter and the exhaustive
        // scan is asserted above the chance-alignment noise floor;
        // see the rationale in `sapa_align::indexed`.
        min_score: 60,
        deadline: None,
        report_alignments: false,
        prefilter,
    }
}

/// Every exact engine must produce the identical ranked hit list on
/// the file-backed indexed path: exhaustive matches the in-memory
/// reference, and the default seed prefilter matches exhaustive.
#[test]
fn every_exact_engine_agrees_on_disk_with_and_without_prefilter() {
    let seqs = corpus(71, 150);
    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("exact_engines.sapadb", &seqs);

    // In-memory reference over the reader's own (length-sorted) order.
    let sorted = db.read_all().unwrap();
    let slices: Vec<&[AminoAcid]> = sorted.iter().map(|s| s.residues()).collect();
    let off = request(query.residues(), &m, Prefilter::Off);
    let reference = Engine::Striped.search(&off, &slices, 1);
    assert!(
        !reference.hits.is_empty(),
        "corpus must contain significant hits"
    );

    for engine in Engine::ALL {
        if !engine.is_exact() {
            continue;
        }
        let exhaustive = engine.search_indexed(&off, &mut db, 1).unwrap();
        assert_eq!(
            exhaustive.hits,
            reference.hits,
            "{} exhaustive indexed scan differs from in-memory striped",
            engine.name()
        );

        let seeded_req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
        let seeded = engine.search_indexed(&seeded_req, &mut db, 1).unwrap();
        assert!(
            seeded.stats.pruned > 0,
            "{} prefilter must prune on this corpus",
            engine.name()
        );
        assert_eq!(
            seeded.hits,
            exhaustive.hits,
            "{} seed prefilter lost ranked hits",
            engine.name()
        );
    }
}

/// Subjects shorter than the seed word length can never share a word
/// with the query; the prefilter must admit them unconditionally
/// rather than silently drop them.
#[test]
fn short_subjects_survive_the_prefilter_on_disk() {
    let mut seqs = corpus(73, 60);
    // Plant a perfect short match for a short probe query.
    seqs.push(Sequence::from_str("tiny1", "MKW").unwrap());
    seqs.push(Sequence::from_str("tiny2", "WWWW").unwrap());
    let mut db = open_on_disk("short_subjects.sapadb", &seqs);
    assert!(
        (db.lengths()[0] as usize) < DEFAULT_WORD_LEN,
        "length-sorted order must put the short subjects first"
    );

    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
    req.min_score = 1; // count everything, even tiny scores
    let resp = Engine::Sw.search_indexed(&req, &mut db, 1).unwrap();
    // The short subjects were scored (attempted), not pruned.
    assert_eq!(
        resp.stats.subjects + resp.stats.pruned,
        seqs.len(),
        "every subject is scored or pruned"
    );
    assert!(resp.stats.subjects >= 2, "short subjects must be admitted");
}

/// The x-drop gated `SeedExtend` prefilter is a documented heuristic:
/// it may drop hits, but whatever it reports must be a subset of the
/// exhaustive ranking with identical scores.
#[test]
fn seed_extend_reports_a_subset_of_the_exhaustive_ranking() {
    let seqs = corpus(79, 150);
    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("seed_extend.sapadb", &seqs);

    let off = request(query.residues(), &m, Prefilter::Off);
    let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 1).unwrap();
    let ext_req = request(
        query.residues(),
        &m,
        Prefilter::SeedExtend {
            min_diag_seeds: 1,
            x: 20,
            min_extended: 15,
        },
    );
    let extended = Engine::Striped
        .search_indexed(&ext_req, &mut db, 1)
        .unwrap();

    let mut exhaustive_iter = exhaustive.hits.iter();
    for hit in &extended.hits {
        assert!(
            exhaustive_iter.any(|h| h == hit),
            "SeedExtend produced a hit absent from the exhaustive ranking: {hit:?}"
        );
    }
    assert!(extended.stats.pruned >= exhaustive.stats.pruned);
}

/// The indexed path must be bit-for-bit deterministic in the worker
/// thread count, like the in-memory pipeline.
#[test]
fn indexed_file_search_is_thread_count_invariant() {
    let seqs = corpus(83, 100);
    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("threads.sapadb", &seqs);
    let req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);

    let one = Engine::Vmx128.search_indexed(&req, &mut db, 1).unwrap();
    for threads in [2, 3] {
        let mut resp: SearchResponse = Engine::Vmx128
            .search_indexed(&req, &mut db, threads)
            .unwrap();
        assert_eq!(resp.stats.threads, threads);
        resp.stats.threads = one.stats.threads;
        assert_eq!(resp, one, "threads={threads}");
    }
}

/// Two builds of the same corpus are byte-identical, and the reported
/// survival statistics add up: scored + pruned = database size.
#[test]
fn build_is_deterministic_and_survival_accounting_is_closed() {
    let seqs = corpus(89, 80);
    let mut a = Vec::new();
    let mut b = Vec::new();
    IndexBuilder::new().write(&seqs, &mut a).unwrap();
    IndexBuilder::new().write(&seqs, &mut b).unwrap();
    assert_eq!(a, b, "index bytes must be deterministic");

    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("accounting.sapadb", &seqs);
    let req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
    let resp = Engine::Striped.search_indexed(&req, &mut db, 2).unwrap();
    assert_eq!(resp.stats.subjects + resp.stats.pruned, seqs.len());
    assert_eq!(resp.coverage, seqs.len());
    assert!(resp.completed);
}

/// `(missed, exhaustive)`: the exhaustive hits of the homolog queries
/// in `seed_prefilter_recall_on_homolog_queries_is_pinned`, and how
/// many of them the default seed prefilter loses.
const HOMOLOG_QUERY_MISSES: (usize, usize) = (31, 66);

/// The default seed prefilter is exact only for subjects that share a
/// seed word with the query. Two 55%-identity mutants of the GST query
/// are only ~30% identical to each other and often share no 5-mer, so
/// a search whose query is itself a homolog loses exhaustive hits to
/// the prefilter. This pins how many: the seeded hits stay a subset of
/// the exhaustive ones, and the count of exhaustive hits the seeded
/// ranking lacks moves only if the set of surviving subjects does.
#[test]
fn seed_prefilter_recall_on_homolog_queries_is_pinned() {
    let seqs = corpus(97, 300);
    let gst = QuerySet::paper().default_query().clone();
    let queries = DatabaseBuilder::new()
        .seed(0x9057)
        .sequences(6)
        .homolog_template(gst)
        .homolog_fraction(1.0)
        .build();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("homolog_recall.sapadb", &seqs);

    let mut exhaustive_hits = 0;
    let mut missed = 0;
    for q in queries.sequences() {
        let mut off = request(q.residues(), &m, Prefilter::Off);
        // Above any possible hit count, so truncation cannot hide a miss.
        off.top_k = seqs.len() + 1;
        let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 1).unwrap();
        let seeded_req = SearchRequest {
            prefilter: Prefilter::DEFAULT_SEED,
            ..off
        };
        let seeded = Engine::Striped
            .search_indexed(&seeded_req, &mut db, 1)
            .unwrap();
        let all: Vec<(usize, i32)> = exhaustive
            .hits
            .iter()
            .map(|h| (h.seq_index, h.score))
            .collect();
        for h in &seeded.hits {
            assert!(
                all.contains(&(h.seq_index, h.score)),
                "{}: seeded hit {h:?} is not an exhaustive hit",
                q.id()
            );
        }
        exhaustive_hits += exhaustive.hits.len();
        missed += exhaustive.hits.len() - seeded.hits.len();
    }
    assert_eq!(
        (missed, exhaustive_hits),
        HOMOLOG_QUERY_MISSES,
        "seeded searches missed {missed} of {exhaustive_hits} exhaustive hits"
    );
}

/// Index bytes for `seqs` in the shard size of `open_on_disk`.
fn index_bytes(seqs: &[Sequence]) -> Vec<u8> {
    let mut bytes = Vec::new();
    IndexBuilder::new()
        .shard_residues(16 * 1024)
        .write(seqs, &mut bytes)
        .unwrap();
    bytes
}

/// A `Read + Seek` source that counts the bytes read through it.
struct CountingSource {
    inner: Cursor<Vec<u8>>,
    read: Rc<Cell<u64>>,
}

impl Read for CountingSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.set(self.read.get() + n as u64);
        Ok(n)
    }
}

impl Seek for CountingSource {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Opening reads the metadata only, each shard blob is read from the
/// source at most once across searches of every kind, and repeating a
/// search reads nothing — with responses equal to a fresh reader's.
#[test]
fn each_shard_blob_is_read_from_the_source_at_most_once() {
    let seqs = corpus(103, 150);
    let bytes = index_bytes(&seqs);
    let read = Rc::new(Cell::new(0));
    let mut db = IndexReader::from_reader(CountingSource {
        inner: Cursor::new(bytes.clone()),
        read: Rc::clone(&read),
    })
    .unwrap();
    let metadata = db.shards()[0].data_offset;
    assert_eq!(read.get(), metadata, "open must stop before the blobs");
    let blobs: u64 = db.shards().iter().map(|s| s.data_len).sum();
    assert!(db.shards().len() > 2, "want several shards");
    let blob_reads = || read.get() - metadata;

    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let seeded = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
    let off = request(query.residues(), &m, Prefilter::Off);
    let fresh = || IndexReader::from_reader(Cursor::new(bytes.clone())).unwrap();

    let first = Engine::Striped.search_indexed(&seeded, &mut db, 1).unwrap();
    assert_eq!(
        first,
        Engine::Striped
            .search_indexed(&seeded, &mut fresh(), 1)
            .unwrap()
    );
    let after_seeded = blob_reads();
    assert!(after_seeded > 0 && after_seeded <= blobs);
    assert_eq!(
        Engine::Striped.search_indexed(&seeded, &mut db, 1).unwrap(),
        first
    );
    assert_eq!(
        blob_reads(),
        after_seeded,
        "a repeated search reads nothing"
    );

    // The exhaustive scan needs every shard: exactly the blob bytes, so
    // no blob was read twice.
    let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 2).unwrap();
    assert_eq!(blob_reads(), blobs);
    let mut expect = Engine::Striped
        .search_indexed(&off, &mut fresh(), 1)
        .unwrap();
    expect.stats.threads = 2;
    assert_eq!(exhaustive, expect);
    for req in [&off, &seeded] {
        for engine in [Engine::Striped, Engine::Sw] {
            engine.search_indexed(req, &mut db, 1).unwrap();
        }
    }
    let mut buf = ShardBuf::new();
    for shard in 0..db.shards().len() {
        db.read_shard(shard, &mut buf).unwrap();
    }
    assert_eq!(db.read_all().unwrap(), fresh().read_all().unwrap());
    assert_eq!(blob_reads(), blobs, "every blob was read exactly once");
}

/// A corrupted shard fails every search and read that touches it, as
/// often as it is asked for, while searches confined to other shards
/// keep succeeding before and after; no residue of it is handed out.
#[test]
fn a_corrupted_shard_fails_every_search_that_touches_it() {
    let seqs = corpus(107, 150);
    let mut bytes = index_bytes(&seqs);
    let mut clean = IndexReader::from_reader(Cursor::new(bytes.clone())).unwrap();
    let last = clean.shards().len() - 1;
    assert!(last >= 2, "want several shards");
    // Blobs are stored last, in shard order: the file's last byte is in
    // the last shard's blob.
    *bytes.last_mut().unwrap() ^= 0xff;
    let mut db = IndexReader::from_reader(Cursor::new(bytes)).unwrap();

    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    // A cell budget that admits shard 0's subjects only (Sw's cost is
    // query × subject cells).
    let first = 0..clean.shards()[0].seq_count;
    let budget: u64 = clean.lengths()[first.clone()]
        .iter()
        .map(|&l| (query.len() * l as usize) as u64)
        .sum();
    let mut confined = request(query.residues(), &m, Prefilter::Off);
    confined.deadline = Some(Deadline::Cells(budget));
    let expect = Engine::Sw.search_indexed(&confined, &mut clean, 1).unwrap();
    assert_eq!(expect.stats.subjects, first.len());
    // A query taken from the last shard shares its words with itself.
    let last_start = clean.shards()[last].seq_start;
    let own = clean.read_all().unwrap()[last_start].clone();
    let off = request(query.residues(), &m, Prefilter::Off);
    let seeded = request(own.residues(), &m, Prefilter::DEFAULT_SEED);

    let is_checksum_error =
        |e: &Error| matches!(e, Error::InvalidIndex { reason } if reason.contains("checksum"));
    let mut buf = ShardBuf::new();
    for _ in 0..2 {
        assert_eq!(
            Engine::Sw.search_indexed(&confined, &mut db, 1).unwrap(),
            expect
        );
        for req in [&off, &seeded] {
            for engine in [Engine::Striped, Engine::Sw] {
                let err = engine.search_indexed(req, &mut db, 1).unwrap_err();
                assert!(is_checksum_error(&err), "{err}");
            }
        }
        db.read_shard(0, &mut buf).unwrap();
        let err = db.read_shard(last, &mut buf).unwrap_err();
        assert!(is_checksum_error(&err), "{err}");
        assert_eq!(buf.seq_count(), 0, "a failed read leaves the buffer empty");
        db.read_shard(0, &mut buf).unwrap();
        let err = db.read_sequences(last, [last_start], &mut buf).unwrap_err();
        assert!(is_checksum_error(&err), "{err}");
        assert_eq!(buf.seq_count(), 0);
        assert!(db.read_all().is_err());
    }
}

/// A seed index whose postings point past their sequences is rejected
/// at open: searched, it would send the `SeedExtend` gate's x-drop
/// extension to a subject position out of bounds.
#[test]
fn seed_postings_outside_their_sequences_fail_at_open() {
    let seqs = corpus(109, 30);
    let mut bytes = index_bytes(&seqs);
    let (postings_at, n) = {
        let db = IndexReader::from_reader(Cursor::new(bytes.clone())).unwrap();
        let n = db.seed_index().posting_count();
        (db.shards()[0].data_offset as usize - 8 * n, n)
    };
    assert!(n > 0);
    // Every posting is `(seq: u32, pos: u32)`; move every word to
    // position 60000, past the end of every sequence.
    for i in 0..n {
        let pos = postings_at + 8 * i + 4;
        bytes[pos..pos + 4].copy_from_slice(&60_000u32.to_le_bytes());
    }
    match IndexReader::from_reader(Cursor::new(bytes)) {
        Err(Error::InvalidIndex { .. }) => {}
        Err(e) => panic!("wrong error class: {e}"),
        Ok(mut db) => {
            let query = QuerySet::paper().default_query().clone();
            let m = SubstitutionMatrix::blosum62();
            let req = request(
                query.residues(),
                &m,
                Prefilter::SeedExtend {
                    min_diag_seeds: 1,
                    x: 20,
                    min_extended: 15,
                },
            );
            let resp = Engine::Striped.search_indexed(&req, &mut db, 1);
            panic!("a corrupted seed index opened; the search returned {resp:?}");
        }
    }
}
