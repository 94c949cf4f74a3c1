//! Golden daemon replies: a fixed request set sent through
//! `serve(ServiceConfig::default())`, each reply reduced to a 64-bit
//! FNV-1a digest of its bytes and compared with a recorded constant.
//!
//! Daemon replies are part of the bit-identity contract. The request
//! set is 30 query windows of 20–60 residues, each sent to the
//! striped, blast and fasta engines. Ten of them are 47–56-residue
//! windows of the GST query (P14942), whose planted homologs in the
//! default corpus give BLAST and FASTA their longest scans.
//!
//! Any change to an engine's scores, the ranking, the statistics or the
//! reply format changes a digest here. Such a change must update
//! `GOLDEN` in the same commit: on a mismatch the test prints the
//! complete table as it now stands, ready to paste. The windows all
//! stay below the striped width rule's threshold, so these replies come
//! from the 128-bit kernels; a second test checks long striped queries,
//! which the daemon runs at 256 bits on a CPU with AVX2, against the
//! 128-bit engine.

use std::time::Duration;

use sapa_core::align::engine::{search_with, Engine, Prefilter, SearchRequest, StripedEngine};
use sapa_core::align::striped;
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::rng::Xoshiro256;
use sapa_core::bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_service::protocol::render_result;
use sapa_service::{serve, Client, SearchParams, ServiceConfig};

const ENGINES: [&str; 3] = ["striped", "blast", "fasta"];

/// Windows cycling over the Table II queries, lengths spread evenly
/// over 20–60 residues.
const SPREAD_WINDOWS: usize = 20;
/// GST windows, one per length from 47 to 56 residues.
const GST_WINDOWS: usize = 10;

/// The query windows, as residue text; start offsets come from a fixed
/// seed.
fn windows() -> Vec<String> {
    let queries = QuerySet::paper();
    let mut rng = Xoshiro256::new(0x5E41_0018);
    let mut window = |residues: &[sapa_core::bioseq::AminoAcid], len: usize| -> String {
        let start = rng.next_below((residues.len() - len + 1) as u64) as usize;
        residues[start..start + len]
            .iter()
            .map(|a| a.to_char())
            .collect()
    };
    let mut out = Vec::new();
    for i in 0..SPREAD_WINDOWS {
        let q = &queries.queries()[i % queries.queries().len()];
        let len = 20 + 40 * i / (SPREAD_WINDOWS - 1);
        out.push(window(q.residues(), len));
    }
    let gst = queries.default_query();
    for i in 0..GST_WINDOWS {
        out.push(window(gst.residues(), 47 + i));
    }
    out
}

/// 64-bit FNV-1a.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reply digests by window, in `ENGINES` order. Debug and optimized
/// builds render the same bytes.
const GOLDEN: [[u64; 3]; SPREAD_WINDOWS + GST_WINDOWS] = [
    [0xc56572da49d99ade, 0xa3051db83d7ff6f5, 0x3c317306a986c4a1],
    [0x1909b8c42b69d14b, 0x977e0824e0758d5e, 0x30d43ee6357bdb8d],
    [0x791fd7774ddec539, 0x522008c60e5d7e4b, 0x16a2ace01fb38d21],
    [0xd732b0bc466f85a0, 0xfd3777b62e1761a6, 0xb1d97812231a6798],
    [0xb80d182c3eeb820b, 0x20e36d7ac11ab0b7, 0xec498afa32dddec6],
    [0x51c3d17a3db74fcc, 0xf6909c8e05d7754c, 0x5a4bd4c2755ac7e0],
    [0x135e2261ccbc01ac, 0x871f42349ff6e515, 0xdf1160e5402dd251],
    [0x28bb5f3d7698af87, 0x767ac26055cad4f9, 0x25fe15ac8ab6b1f3],
    [0xcc4cd3621a1d6b56, 0xfdca5185fb503694, 0x68de93d396e6b92b],
    [0x67615a1e38201c35, 0x44bf3c9e00b9c765, 0x9ae58067ccb33f7c],
    [0x820eb4ef593105f8, 0xa718acd98967c60b, 0x820f5a6173d330ae],
    [0x5fb2e173df666bf4, 0x1b2521769a1067ed, 0x29997985912d589d],
    [0x329224f65de7f8d6, 0x5eb79ba10d15d553, 0x2045ba5258201323],
    [0x7d84a874dc14ce6a, 0xe7e3cfb6773f06df, 0x7f27c7d51c1e34cb],
    [0xc41cc30f473bddd1, 0x7d2beb693755224c, 0x7a1edbc1edb5778e],
    [0x8a08a8674f88a842, 0x12657891e22e8053, 0x0c7da2c6d6fa2bd1],
    [0x2d7eb139a51e7289, 0x602d5e61e67ca599, 0x303c1d4d11d5588b],
    [0xf928e6b5a9c4485a, 0xa00210fadbad624d, 0xa339ed357380cb96],
    [0x59037a55fdf0c7e3, 0x7c44cdd9ad033bea, 0x42f124f76d7f6738],
    [0xa60be8da01985f51, 0x251fedec9ba10888, 0x4bb46c90f88b1d3d],
    [0xa8d17a8331c08ffa, 0x998cc3818e9075b0, 0x5f49e47d65aba2c6],
    [0xa7480f07a47bda16, 0xb2ff6ce7f4c1930a, 0xe43eda0b927c58d6],
    [0xe821b2f5704f49de, 0x5222475a2d4c8224, 0xebfbb3438631e8ff],
    [0xf562259e0db474cd, 0x622970f13b842c66, 0x32c39a2235572cde],
    [0xed0de13e48900061, 0x6cdb309c90f5dd6b, 0x771494be71bded76],
    [0xee4eea197b3bf4f7, 0x9a6e5e93f3f1771f, 0xcc48dd9b2db7a8bf],
    [0x7de8981c83aeb8f5, 0x8a8f9da036ab7b53, 0xc9b3f6691829cb82],
    [0x9fb88032422e3816, 0xc08cc231fea3159e, 0xaf8cd1d495695132],
    [0xf67e0772e48ecd8d, 0xa6ee4c5a3a0fde27, 0x52f26ceea8ef87aa],
    [0x0d621e4f8719cb91, 0x7099eb55791631e1, 0x20c7fd6abab52b2c],
];

#[test]
fn daemon_replies_match_the_recorded_digests() {
    let handle = serve(ServiceConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).expect("connect");
    let windows = windows();
    let mut got = Vec::with_capacity(windows.len());
    for (w, query) in windows.iter().enumerate() {
        let mut row = [0u64; 3];
        for (e, engine) in ENGINES.into_iter().enumerate() {
            let line = SearchParams {
                id: (w * ENGINES.len() + e) as u64,
                tenant: "golden",
                engine,
                query,
                top_k: 10,
                min_score: 1,
                deadline_cells: None,
                deadline_ms: None,
            }
            .render();
            let reply = client.request(&line).expect("reply");
            assert!(reply.contains(r#""type":"result""#), "{engine}: {reply}");
            row[e] = digest(reply.as_bytes());
        }
        got.push(row);
    }
    drop(client);
    let snap = handle.shutdown();
    assert!(snap.balances(), "accounting: {snap:?}");

    if got != GOLDEN {
        let mut table = String::new();
        for row in &got {
            table.push_str(&format!(
                "    [{:#018x}, {:#018x}, {:#018x}],\n",
                row[0], row[1], row[2]
            ));
        }
        let differing: Vec<String> = got
            .iter()
            .zip(&GOLDEN)
            .enumerate()
            .flat_map(|(w, (g, want))| {
                (0..3)
                    .filter(move |&e| g[e] != want[e])
                    .map(move |e| format!("window {w} {}", ENGINES[e]))
            })
            .collect();
        panic!(
            "{} daemon replies changed ({}); the table now reads:\n{table}",
            differing.len(),
            differing.join(", ")
        );
    }
}

/// Table II queries above the striped width rule's threshold, sent with
/// engine `striped`: on a CPU with AVX2 the daemon scans them at 256
/// bits, and each reply must still equal, byte for byte, the rendered
/// response of the 128-bit engine over the same corpus.
#[test]
fn long_striped_queries_reply_like_the_128_bit_engine() {
    let handle = serve(ServiceConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).expect("connect");
    let subjects: Vec<&[AminoAcid]> = handle.subjects().iter().map(Vec::as_slice).collect();
    let matrix = SubstitutionMatrix::blosum62();
    let queries = QuerySet::paper();
    for (id, accession) in [(1, "P01111"), (2, "P14942"), (3, "P03435")] {
        let query = queries.by_accession(accession).expect("Table II query");
        assert!(
            striped::use_256_bit(query.len(), true),
            "{accession} is below the width threshold"
        );
        let text: String = query.residues().iter().map(|a| a.to_char()).collect();
        let params = SearchParams {
            id,
            tenant: "wide",
            engine: "striped",
            query: &text,
            top_k: 10,
            min_score: 1,
            deadline_cells: None,
            deadline_ms: None,
        };
        let reply = client.request(&params.render()).expect("reply");
        let req = SearchRequest {
            query: query.residues(),
            matrix: &matrix,
            gaps: GapPenalties::paper(),
            top_k: params.top_k,
            min_score: params.min_score,
            deadline: None,
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let narrow = StripedEngine::<16, 8>::from_query(query.residues(), &matrix, req.gaps);
        let expect = search_with(Engine::Striped, &narrow, &req, &subjects, 1);
        assert!(!expect.hits.is_empty(), "{accession}: no hits");
        assert_eq!(reply, render_result(id, &expect), "{accession}");
    }
    drop(client);
    assert!(handle.shutdown().balances());
}
