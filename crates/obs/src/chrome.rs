//! Chrome-trace-event JSON builder.
//!
//! Emits the object form (`{"traceEvents": [...]}`) of the trace-event
//! format, loadable in `chrome://tracing` and <https://ui.perfetto.dev>.
//! Timestamps and durations are in microseconds; the simulator maps one
//! cycle to one microsecond so a timeline reads directly in cycles.
//!
//! Hand-rolled serialization keeps the crate zero-dependency; the format's
//! subset used here (complete `X`, counter `C`, instant `i`, metadata `M`
//! events with flat string/number args) needs only string escaping.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Escape a string for embedding in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Format an `f64` as JSON (no NaN/Inf — clamp to 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Trim to a compact fixed precision; traces do not need full f64.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_string()
        } else {
            s.to_string()
        }
    } else {
        "0".to_string()
    }
}

/// Builder accumulating trace events; serialize with [`ChromeTrace::to_json`]
/// or write to disk with [`ChromeTrace::save`].
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// New empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    #[allow(clippy::too_many_arguments)]
    fn push_event(
        &mut self,
        ph: char,
        name: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: Option<u64>,
        args: &[(&str, ArgValue<'_>)],
    ) {
        let mut e = String::with_capacity(96);
        e.push_str("{\"name\":\"");
        escape_into(&mut e, name);
        let _ = write!(
            e,
            "\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}"
        );
        if let Some(d) = dur {
            let _ = write!(e, ",\"dur\":{d}");
        }
        if ph == 'i' {
            // Instant events need a scope; thread scope renders as a tick.
            e.push_str(",\"s\":\"t\"");
        }
        if !args.is_empty() {
            e.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    e.push(',');
                }
                e.push('"');
                escape_into(&mut e, k);
                e.push_str("\":");
                match v {
                    ArgValue::Str(s) => {
                        e.push('"');
                        escape_into(&mut e, s);
                        e.push('"');
                    }
                    ArgValue::Num(n) => e.push_str(&fmt_f64(*n)),
                    ArgValue::Int(n) => {
                        let _ = write!(e, "{n}");
                    }
                }
            }
            e.push('}');
        }
        e.push('}');
        self.events.push(e);
    }

    /// A complete (`ph:"X"`) slice: `name` on track `(pid, tid)` covering
    /// `[ts, ts+dur)` microseconds, with integer args.
    pub fn complete(
        &mut self,
        name: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        args: &[(&str, u64)],
    ) {
        let args: Vec<(&str, ArgValue<'_>)> =
            args.iter().map(|&(k, v)| (k, ArgValue::Int(v))).collect();
        self.push_event('X', name, pid, tid, ts, Some(dur), &args);
    }

    /// A counter (`ph:"C"`) sample: each `(series, value)` pair becomes a
    /// stacked series on the counter track `name`.
    pub fn counter(&mut self, name: &str, pid: u64, ts: u64, series: &[(&str, f64)]) {
        let args: Vec<(&str, ArgValue<'_>)> =
            series.iter().map(|&(k, v)| (k, ArgValue::Num(v))).collect();
        self.push_event('C', name, pid, 0, ts, None, &args);
    }

    /// An instant (`ph:"i"`) marker on track `(pid, tid)`.
    pub fn instant(&mut self, name: &str, pid: u64, tid: u64, ts: u64) {
        self.push_event('i', name, pid, tid, ts, None, &[]);
    }

    /// Name a process track (`chrome://tracing` group header).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.push_event(
            'M',
            "process_name",
            pid,
            0,
            0,
            None,
            &[("name", ArgValue::Str(name))],
        );
    }

    /// Name a thread track within a process.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.push_event(
            'M',
            "thread_name",
            pid,
            tid,
            0,
            None,
            &[("name", ArgValue::Str(name))],
        );
    }

    /// Serialize to the `{"traceEvents":[...]}` object form.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(32 + self.events.iter().map(|e| e.len() + 2).sum::<usize>());
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the serialized trace to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

enum ArgValue<'a> {
    Str(&'a str),
    Num(f64),
    Int(u64),
}

impl std::fmt::Debug for ArgValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::Str(s) => write!(f, "Str({s:?})"),
            ArgValue::Num(n) => write!(f, "Num({n})"),
            ArgValue::Int(n) => write!(f, "Int({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_event_shape() {
        let mut t = ChromeTrace::new();
        t.complete("fetch", 1, 2, 100, 50, &[("uops", 7)]);
        let json = t.to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(
            "{\"name\":\"fetch\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":100,\"dur\":50,\"args\":{\"uops\":7}}"
        ));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn counter_event_shape() {
        let mut t = ChromeTrace::new();
        t.counter("ipc", 1, 1000, &[("ipc", 2.125)]);
        assert!(t
            .to_json()
            .contains("\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1000,\"args\":{\"ipc\":2.125}"));
    }

    #[test]
    fn metadata_and_instant_events() {
        let mut t = ChromeTrace::new();
        t.process_name(3, "scheme op");
        t.thread_name(3, 1, "skip");
        t.instant("deadlock?", 3, 1, 77);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"scheme op\"}"));
        assert!(json.contains("\"args\":{\"name\":\"skip\"}"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn strings_are_escaped() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "a\"b\\c\nd");
        assert!(t.to_json().contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn floats_are_compact_and_finite() {
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(-0.125), "-0.125");
    }

    #[test]
    fn output_parses_as_json() {
        // Minimal structural validation: balanced braces/brackets and no
        // bare control characters — a cheap stand-in for a JSON parser.
        let mut t = ChromeTrace::new();
        t.process_name(1, "p");
        t.complete("s", 1, 1, 0, 10, &[]);
        t.counter("c", 1, 0, &[("v", 1.0)]);
        let json = t.to_json();
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                c if (c as u32) < 0x20 && in_str => panic!("raw control char in string"),
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
