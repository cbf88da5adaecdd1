//! Golden-stats regression suite: a committed snapshot of **full**
//! [`SimStats`] for a 30-cell subset of the `probe_ipc` matrix (2/4/8
//! clusters × the five Table 3 schemes × two suite points, at the fixed
//! 20 k-uop budget `results/BASELINES.md` pins). Any machine-model change —
//! intended or not — shows up as a textual diff against
//! `results/golden/probe_ipc_20k.txt`.
//!
//! Regenerate (one command, after an *intended* model change):
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test golden_stats
//! ```
//!
//! then commit the rewritten snapshot together with the change that caused
//! it. The test fails when the env var is unset and any cell diverges.

use std::fmt::Write as _;
use std::path::PathBuf;

use virtclust::core::{run_point, run_point_on, Configuration};
use virtclust::sim::SimSession;
use virtclust::uarch::MachineConfig;
use virtclust::workloads::spec2000_points;

/// The fixed per-cell micro-op budget (matches `results/BASELINES.md`).
const BUDGET: u64 = 20_000;

/// Suite points in the subset: one integer-heavy, one FP-heavy.
const POINTS: [&str; 2] = ["gzip-1", "galgel"];

/// Cluster counts spanning the full matrix (2-bit to 8-bit cluster masks).
const CLUSTERS: [usize; 3] = [2, 4, 8];

fn preset(clusters: usize) -> MachineConfig {
    match clusters {
        2 => MachineConfig::paper_2cluster(),
        4 => MachineConfig::paper_4cluster(),
        8 => MachineConfig::paper_8cluster(),
        _ => unreachable!("CLUSTERS only lists paper presets"),
    }
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden")
        .join("probe_ipc_20k.txt")
}

/// Run every cell of the subset and render the whole snapshot text.
fn render_snapshot() -> String {
    let points = spec2000_points();
    let mut out = String::from(
        "# Golden SimStats snapshot: probe_ipc subset, 20000 uops/cell.\n\
         # Regenerate with: GOLDEN_REGEN=1 cargo test --test golden_stats\n",
    );
    for clusters in CLUSTERS {
        let machine = preset(clusters);
        for point_name in POINTS {
            let point = points
                .iter()
                .find(|p| p.name == point_name)
                .expect("subset point exists in the suite");
            for config in Configuration::table3() {
                let stats = run_point(point, &config, &machine, BUDGET);
                let _ = writeln!(
                    out,
                    "\n[cell point={point_name} scheme={} clusters={clusters} uops={BUDGET}]",
                    config.name(clusters as u32)
                );
                stats.write_canonical(&mut out).unwrap();
            }
        }
    }
    out
}

/// Report the first line where `actual` diverges from `expected`.
fn first_divergence(expected: &str, actual: &str) -> Option<(usize, String, String)> {
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut line_no = 0;
    loop {
        line_no += 1;
        match (exp.next(), act.next()) {
            (None, None) => return None,
            (e, a) if e != a => {
                return Some((
                    line_no,
                    e.unwrap_or("<end of snapshot>").to_string(),
                    a.unwrap_or("<end of run>").to_string(),
                ))
            }
            _ => {}
        }
    }
}

#[test]
fn golden_stats_match_the_committed_snapshot() {
    let actual = render_snapshot();
    let path = snapshot_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create results/golden");
        std::fs::write(&path, &actual).expect("write snapshot");
        println!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read the golden snapshot {}: {e}\n\
             (create it with GOLDEN_REGEN=1 cargo test --test golden_stats)",
            path.display()
        )
    });
    if let Some((line, exp, act)) = first_divergence(&expected, &actual) {
        panic!(
            "golden stats diverged from {} at line {line}:\n\
             expected: {exp}\n\
             actual:   {act}\n\
             If this change is intended, regenerate with:\n\
             GOLDEN_REGEN=1 cargo test --test golden_stats",
            path.display()
        );
    }
}

#[test]
fn golden_diff_detects_any_stats_perturbation() {
    // The harness's teeth: perturbing any single serialized counter of any
    // cell must be caught by the comparison. (The "fails on intentional
    // perturbation" acceptance check, kept as a durable test instead of a
    // one-off manual experiment.)
    let machine = preset(2);
    let points = spec2000_points();
    let point = points.iter().find(|p| p.name == POINTS[0]).unwrap();
    let stats = run_point(point, &Configuration::Op, &machine, 2_000);
    let mut reference = String::new();
    stats.write_canonical(&mut reference).unwrap();

    let mut perturbed = stats.clone();
    perturbed.cycles += 1;
    let mut text = String::new();
    perturbed.write_canonical(&mut text).unwrap();
    assert!(
        first_divergence(&reference, &text).is_some(),
        "a cycles perturbation must diff"
    );

    let mut perturbed = stats.clone();
    perturbed.clusters[1].issued += 1;
    let mut text = String::new();
    perturbed.write_canonical(&mut text).unwrap();
    let (line, exp, act) = first_divergence(&reference, &text).expect("per-cluster diff");
    assert_ne!(exp, act);
    assert!(line > 0);

    // Truncation (a vanished cluster) is also caught.
    let mut perturbed = stats.clone();
    perturbed.clusters.pop();
    let mut text = String::new();
    perturbed.write_canonical(&mut text).unwrap();
    assert!(first_divergence(&reference, &text).is_some());
}

/// Extract one cell's serialized stats block from the full snapshot text.
fn expected_cell(full: &str, header: &str) -> String {
    let start = full
        .find(header)
        .unwrap_or_else(|| panic!("cell {header} missing from the golden snapshot"))
        + header.len();
    let rest = &full[start..];
    let end = rest.find("\n[cell").unwrap_or(rest.len());
    rest[..end].trim().to_string()
}

/// Pins, doubled: the pure-view `StaticFollow` changed *which* cycles
/// OB and RHOP may replicate arithmetically (policy-stall epochs are
/// skippable for them), so the busy-heavy 8-cluster gzip-1 cells
/// of exactly those schemes are re-run here in **both cover modes** —
/// skipping forced off (every cycle stepped through the real stage
/// bodies) and forced on — and both must serialize bit-for-bit to the
/// committed snapshot cell. A divergence in the skip=true leg with a
/// clean skip=false leg convicts the replication machinery specifically.
#[test]
fn gzip1_8cluster_ob_rhop_pin_in_both_cover_modes() {
    let points = spec2000_points();
    let point = points
        .iter()
        .find(|p| p.name == "gzip-1")
        .expect("gzip-1 is a suite point");
    let machine = preset(8);
    let full = std::fs::read_to_string(snapshot_path()).unwrap_or_else(|e| {
        panic!(
            "cannot read the golden snapshot {}: {e}\n\
             (create it with GOLDEN_REGEN=1 cargo test --test golden_stats)",
            snapshot_path().display()
        )
    });
    for config in Configuration::table3() {
        let name = config.name(8);
        if name != "OB" && name != "RHOP" {
            continue;
        }
        let header = format!("[cell point=gzip-1 scheme={name} clusters=8 uops={BUDGET}]");
        let expected = expected_cell(&full, &header);
        for skip in [false, true] {
            let mut session = SimSession::new(&machine);
            session.set_cycle_skipping(skip);
            let stats = run_point_on(&mut session, point, &config, &machine, BUDGET);
            let mut actual = String::new();
            stats.write_canonical(&mut actual).unwrap();
            assert_eq!(
                expected,
                actual.trim(),
                "{name} at 8 clusters diverged from the pin (skip={skip})"
            );
        }
    }
}
