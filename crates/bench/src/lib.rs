//! # virtclust-bench
//!
//! The harness that regenerates every table and figure of Cai et al.,
//! IPDPS 2008. Five binaries live under `src/bin/`:
//!
//! * `paper` — the tables, figures and ablations, one subcommand each;
//! * `probe_ipc` — per-point IPC and bottleneck stats, and the JSON matrix
//!   the CI bit-identity gate diffs;
//! * `trace_replay` — trace capture, replay and batched replay, and the
//!   observed run (`intervals`: per-interval stats, the skip summary and
//!   a Chrome-trace timeline);
//! * `serve` and `loadgen` — the evaluation-service daemon and its load
//!   generator.
//!
//! Performance is measured by the benchmark under `vcbench/` (declared in
//! `BENCHMARK.json`), end to end and per layer under one schema; the
//! wall-clock figures `loadgen` prints are a quick look on one host, not
//! a reference.
//!
//! Each binary declares its flags to one parser ([`Cli`]). Parsing is
//! strict: an unknown, repeated or valueless flag, an unexpected operand,
//! or a malformed flag value or `VIRTCLUST_*` variable is a usage error
//! that names the flag or variable. Exit codes: 0 success, 2 usage error,
//! 1 run failure.
//!
//! `VIRTCLUST_UOPS` sets the micro-ops per (point × configuration) cell
//! ([`uop_budget`]; the paper's PinPoints slices are 10 M instructions),
//! `VIRTCLUST_THREADS` the worker threads ([`threads`]), and
//! `VIRTCLUST_FAILPOINTS` a chaos schedule ([`Args::resilience`]). Every
//! result `paper` prints is also written under `results/` in the working
//! directory ([`write_result`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use virtclust_core::{fault, ResilientOptions};
use virtclust_uarch::MachineConfig;

/// The flags [`Args::resilience`] reads.
pub const RESILIENCE_FLAGS: &str = "--retries --deadline-ms --chaos";

/// Report a usage error as `<binary>: <msg>` on stderr and exit 2.
fn usage_exit(msg: &str) -> ! {
    let argv0 = std::env::args_os().next().unwrap_or_default();
    let bin = Path::new(&argv0).file_name().unwrap_or_default();
    eprintln!("{}: {msg}", bin.to_string_lossy());
    std::process::exit(2)
}

/// Parse `text`, the value of the flag or variable `name`.
fn parse_as<T: FromStr>(name: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse()
        .map_err(|e| format!("{name}: cannot parse '{text}': {e}"))
}

/// Parse `text`, the value of environment variable `var`; a malformed
/// value is a usage error.
fn env_value<T: FromStr>(var: &str, text: &str) -> T
where
    T::Err: Display,
{
    parse_as(var, text).unwrap_or_else(|e| usage_exit(&e))
}

/// Micro-op budget per simulation cell: `VIRTCLUST_UOPS` (`_` separators
/// allowed) or `default`.
pub fn uop_budget(default: u64) -> u64 {
    const VAR: &str = "VIRTCLUST_UOPS";
    std::env::var(VAR).map_or(default, |v| env_value(VAR, &v.replace('_', "")))
}

/// Worker threads: `VIRTCLUST_THREADS`, or 0 (one per CPU) when unset.
pub fn threads() -> usize {
    const VAR: &str = "VIRTCLUST_THREADS";
    std::env::var(VAR).map_or(0, |v| env_value(VAR, &v))
}

/// The command line a binary accepts. Flag lists are space-separated.
pub struct Cli {
    /// Usage text, printed after every usage error.
    pub usage: &'static str,
    /// Flags without a value.
    pub switches: &'static str,
    /// Flags that take the next argument as their value.
    pub values: &'static str,
    /// Whether operands (arguments that are not flags) are accepted.
    pub operands: bool,
}

impl Cli {
    /// Parse the process's arguments; a usage error exits 2.
    pub fn parse(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        self.try_parse(&argv)
            .unwrap_or_else(|e| usage_exit(&format!("{e}\n\n{}", self.usage)))
    }

    fn try_parse(&self, argv: &[String]) -> Result<Args, String> {
        let declared = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
        let mut args = Args {
            usage: self.usage,
            flags: Vec::new(),
            operands: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if !self.operands {
                    return Err(format!("unexpected argument {arg}"));
                }
                args.operands.push(arg.clone());
                continue;
            }
            let value = if declared(self.switches, arg) {
                None
            } else if declared(self.values, arg) {
                // A value never starts with `--`: `--unix --verify` is a
                // missing path, not a socket named `--verify`.
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{arg} needs a value")),
                }
            } else {
                return Err(format!("unknown flag {arg}"));
            };
            if args.has(arg) {
                return Err(format!("{arg} given twice"));
            }
            args.flags.push((arg.clone(), value));
        }
        Ok(args)
    }
}

/// A command line parsed by [`Cli::parse`]. The typed accessors exit 2
/// on a malformed value, naming the flag.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    flags: Vec<(String, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Report a usage error (with the usage text) and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_exit(&format!("{msg}\n\n{}", self.usage))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// Fail if any of `flags` (space-separated) was given: they only
    /// apply to `mode`.
    pub fn only_in(&self, mode: &str, flags: &str) {
        if let Some(flag) = flags.split_whitespace().find(|f| self.has(f)) {
            self.fail(&format!("{flag} only applies to {mode}"));
        }
    }

    /// The value of `flag`, as given.
    pub fn str(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// The value of `flag`, parsed as a `T`.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let text = self.str(flag)?;
        Some(parse_as(flag, text).unwrap_or_else(|e| self.fail(&e)))
    }

    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The paper machine `--clusters` names: 2 (Table 2 baseline, the
    /// default), 4 (Sec. 5.4 scaling) or 8 (the sweep extrapolation, with
    /// location and wakeup masks beyond 4 bits).
    pub fn machine(&self) -> MachineConfig {
        match self.value::<usize>("--clusters") {
            None | Some(2) => MachineConfig::paper_2cluster(),
            Some(4) => MachineConfig::paper_4cluster(),
            Some(8) => MachineConfig::paper_8cluster(),
            Some(n) => self.fail(&format!("--clusters must be 2, 4 or 8, got {n}")),
        }
    }

    /// The batch resilience flags `--retries N`, `--deadline-ms MS` and
    /// `--chaos SCHEDULE`. Arms the failpoint registry from `--chaos`, or
    /// else from `VIRTCLUST_FAILPOINTS`; arming is process-wide, because
    /// the whole process is the chaos experiment. `Some` when a flag was
    /// given or the environment armed the registry: the binary then runs
    /// its batch through `EvalDriver::run_resilient` and reports degraded
    /// completion instead of failing on the first error.
    pub fn resilience(&self) -> Option<ResilientOptions> {
        let retries = self.value("--retries");
        let deadline = self.value("--deadline-ms").map(Duration::from_millis);
        let armed = match self.str("--chaos") {
            Some(text) => {
                let schedule = fault::FaultSchedule::parse(text)
                    .unwrap_or_else(|e| self.fail(&format!("--chaos: {e}")));
                fault::arm_global(&schedule);
                true
            }
            None => fault::arm_from_env()
                .unwrap_or_else(|e| usage_exit(&format!("VIRTCLUST_FAILPOINTS: {e}")))
                .is_some(),
        };
        let mut opts = ResilientOptions::new().retries(retries.unwrap_or(0));
        opts.deadline = deadline;
        (retries.is_some() || deadline.is_some() || armed).then_some(opts)
    }
}

/// Write `content` to `<name>` in `results/` under the working directory
/// (created if needed), returning the path. Run the binaries from the root
/// of a checkout to write into its `results/`.
pub fn write_result(name: &str, content: &str) -> PathBuf {
    let mut path = PathBuf::from("results");
    std::fs::create_dir_all(&path).expect("create results dir");
    path.push(name);
    std::fs::write(&path, content).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let cli = Cli {
            usage: "usage: test",
            switches: "--json",
            values: "--uops --clusters",
            operands: argv.first() == Some(&"batch"),
        };
        cli.try_parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn declared_flags_and_operands_parse() {
        let args = parse(&["batch", "a.vct", "--uops", "9", "--json", "b.vct"]).unwrap();
        assert!(args.has("--json") && !args.has("--clusters"));
        assert_eq!(args.str("--uops"), Some("9"));
        assert_eq!(args.operands(), ["batch", "a.vct", "b.vct"]);
    }

    #[test]
    fn usage_errors_name_the_flag() {
        let err = |argv: &[&str]| parse(argv).unwrap_err();
        assert_eq!(err(&["--cluster", "4"]), "unknown flag --cluster");
        assert_eq!(err(&["--json", "--json"]), "--json given twice");
        assert_eq!(err(&["--uops", "1", "--uops", "2"]), "--uops given twice");
        assert_eq!(err(&["--uops"]), "--uops needs a value");
        assert_eq!(err(&["--uops", "--json"]), "--uops needs a value");
        assert_eq!(err(&["stray"]), "unexpected argument stray");
    }

    #[test]
    fn malformed_values_name_the_flag_or_variable() {
        assert_eq!(parse_as::<u64>("--uops", "20000"), Ok(20_000));
        let e = parse_as::<u64>("--uops", "x").unwrap_err();
        assert!(e.starts_with("--uops: cannot parse 'x'"), "{e}");
        let e = parse_as::<usize>("VIRTCLUST_THREADS", "two").unwrap_err();
        assert!(e.starts_with("VIRTCLUST_THREADS: cannot parse 'two'"));
    }

    #[test]
    fn budget_defaults_when_env_unset() {
        std::env::remove_var("VIRTCLUST_UOPS");
        assert_eq!(uop_budget(1234), 1234);
    }
}
