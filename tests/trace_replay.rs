//! Integration tests for the trace capture/replay subsystem — the PR's
//! acceptance criteria:
//!
//! 1. a trace captured from the synthetic generator replays to
//!    **bit-identical** committed-uop counts and IPC for every steering
//!    scheme;
//! 2. the text and binary codecs round-trip a ≥100 k-uop stream
//!    losslessly;
//! 3. the committed corpus under `results/traces/` stays readable (format
//!    stability: breaking these files means `FORMAT_VERSION` must be
//!    bumped and the corpus regenerated).

use std::path::PathBuf;

use virtclust::core::{record_point, replay_compare, replay_trace, run_point, Configuration};
use virtclust::sim::RunLimits;
use virtclust::trace::{Codec, TraceReader, TraceWriter};
use virtclust::uarch::{MachineConfig, TraceSource};
use virtclust::workloads::{spec2000_points, TracePoint};

fn point(name: &str) -> TracePoint {
    spec2000_points()
        .into_iter()
        .find(|p| p.name == name)
        .expect("suite point")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("virtclust-it-{}-{name}", std::process::id()))
}

#[test]
fn captured_trace_replays_bit_identically_under_every_scheme() {
    let machine = MachineConfig::paper_2cluster();
    let p = point("gzip-1");
    let budget = 8_000;
    let path = tmp("gzip1-accept.vctb");
    assert_eq!(
        record_point(&p, budget, Codec::Binary, &path).unwrap(),
        budget
    );
    // Every Table 3 scheme plus the extra ablation policies: the stored
    // stream must be indistinguishable from the live expander everywhere.
    let mut schemes = Configuration::table3().to_vec();
    schemes.extend([
        Configuration::OpParallel,
        Configuration::OpNoStall,
        Configuration::ModN { slice: 64 },
    ]);
    for config in schemes {
        let live = run_point(&p, &config, &machine, budget);
        let replayed = replay_trace(&path, &config, &machine, &RunLimits::unlimited()).unwrap();
        assert_eq!(
            live.committed_uops,
            replayed.committed_uops,
            "{}",
            config.name(2)
        );
        assert_eq!(live.ipc(), replayed.ipc(), "{}", config.name(2));
        // And in fact the whole statistics block, not just the headline.
        assert_eq!(live, replayed, "{}", config.name(2));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_is_bit_identical_on_the_four_cluster_machine() {
    let machine = MachineConfig::paper_4cluster();
    let p = point("galgel");
    let budget = 5_000;
    let path = tmp("galgel-4c.vct");
    record_point(&p, budget, Codec::Text, &path).unwrap();
    for config in [
        Configuration::Op,
        Configuration::Vc { num_vcs: 2 },
        Configuration::Vc { num_vcs: 4 },
    ] {
        let live = run_point(&p, &config, &machine, budget);
        let replayed = replay_trace(&path, &config, &machine, &RunLimits::unlimited()).unwrap();
        assert_eq!(live, replayed, "{}", config.name(4));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn codecs_roundtrip_a_100k_uop_stream_losslessly() {
    use virtclust::uarch::DynUop;
    let p = point("gcc-1");
    let program = p.build_program();
    let n: u64 = 120_000;
    let mut uops: Vec<DynUop> = Vec::with_capacity(n as usize);
    let mut expander = p.expander(&program);
    for _ in 0..n {
        uops.push(expander.next_uop().expect("endless stream"));
    }
    for codec in [Codec::Text, Codec::Binary] {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &program, codec, Some(n)).unwrap();
        for u in &uops {
            w.write_uop(u).unwrap();
        }
        assert_eq!(w.finish().unwrap(), n);
        let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(reader.program(), &program, "{codec:?}");
        assert_eq!(reader.len_hint(), Some(n));
        let back = reader.read_all().unwrap();
        assert_eq!(back.len() as u64, n);
        assert_eq!(back, uops, "{codec:?} codec must be lossless at scale");
    }
}

#[test]
fn committed_corpus_stays_readable_and_replayable() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/traces");
    let machine = MachineConfig::paper_2cluster();
    for (file, expect_uops) in [
        ("gzip-1.vct", 2_000),
        ("galgel.vctb", 4_000),
        ("dotprod.vct", 1_000),
        ("smoke8.vct", 1_500),
    ] {
        let path = corpus.join(file);
        let mut reader = TraceReader::open(&path).unwrap_or_else(|e| {
            panic!("{file} no longer parses ({e}); bump FORMAT_VERSION and regenerate")
        });
        assert_eq!(reader.len_hint(), Some(expect_uops), "{file}");
        let uops = reader.read_all().unwrap();
        assert_eq!(uops.len() as u64, expect_uops, "{file}");

        // Cross-scheme compare over the stored stream commits identically.
        let rows = replay_compare(&path, &Configuration::table3(), &machine).unwrap();
        let commits: Vec<u64> = rows.iter().map(|(_, s)| s.committed_uops).collect();
        assert!(
            commits.iter().all(|&c| c == commits[0]),
            "{file}: {commits:?}"
        );
    }

    // The 8-cluster smoke cell (ROADMAP "8-cluster runs"): the smoke8
    // kernel's eight chains spread over all eight clusters, exercising
    // location/wakeup masks beyond 4 bits end to end.
    let eight = MachineConfig::paper_8cluster();
    let rows = replay_compare(corpus.join("smoke8.vct"), &Configuration::table3(), &eight).unwrap();
    let commits: Vec<u64> = rows.iter().map(|(_, s)| s.committed_uops).collect();
    assert!(
        commits.iter().all(|&c| c == 1_500),
        "smoke8 at 8 clusters: {commits:?}"
    );
}

#[test]
fn corpus_kernel_still_imports() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/traces");
    let program = virtclust::trace::import_kernel_file(corpus.join("dotprod.kernel")).unwrap();
    assert_eq!(program.name, "dotprod");
    assert_eq!(program.static_len(), 7);
    // The committed dotprod.vct embeds exactly this program.
    let reader = TraceReader::open(corpus.join("dotprod.vct")).unwrap();
    assert_eq!(reader.program(), &program);
}
