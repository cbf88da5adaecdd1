//! `trace_replay intervals --timeline`: the Chrome trace comes from the
//! same observed run the skip-summary line describes. Its slices are
//! exactly the summarised idle spans, and asking for the file adds one
//! line to stdout and changes nothing else.

use std::process::Command;

const TRACE_REPLAY: &str = env!("CARGO_BIN_EXE_trace_replay");

/// Stdout of `trace_replay intervals` over the committed galgel trace
/// under OP, with `extra` arguments; the run must succeed.
fn intervals(extra: &[&str]) -> String {
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/traces/galgel.vctb"
    );
    let out = Command::new(TRACE_REPLAY)
        .args(["intervals", trace, "--scheme", "op"])
        .args(["--every", "500", "--uops", "3000"])
        .args(extra)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "intervals {extra:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// The integer value of `"key":` in one serialized event.
fn field(event: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = event
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {event}"))
        + pat.len();
    let digits: String = event[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn timeline_slices_are_the_summarised_skip_spans() {
    let dir = std::env::temp_dir().join(format!("virtclust-timeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.json");
    let plain = intervals(&[]);
    let timed = intervals(&["--timeline", path.to_str().unwrap()]);

    let added = timed
        .strip_prefix(plain.as_str())
        .unwrap_or_else(|| panic!("--timeline changed the output:\n{plain}\nvs\n{timed}"));
    assert_eq!(added.lines().count(), 1, "{added}");
    assert!(added.contains("written"), "{added}");

    // "skip summary: N idle spans, R of C cycles replicated (…), …"
    let summary = plain
        .lines()
        .find(|l| l.starts_with("skip summary:"))
        .unwrap_or_else(|| panic!("no skip summary in\n{plain}"));
    let words: Vec<&str> = summary.split_whitespace().collect();
    let spans: usize = words[2].parse().unwrap();
    let replicated: u64 = words[5].parse().unwrap();
    assert!(spans > 0, "{summary}");

    let json = std::fs::read_to_string(&path).unwrap();
    let slices: Vec<&str> = json
        .lines()
        .filter(|e| e.contains("\"ph\":\"X\""))
        .collect();
    assert_eq!(slices.len(), spans, "{summary}");
    let dur: u64 = slices.iter().map(|e| field(e, "dur")).sum();
    assert_eq!(dur, replicated, "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}
