//! Command line of the virtclust benchmark.
//!
//! ```sh
//! vcbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a virtclust checkout (it reads the committed trace
//! corpus under `results/traces` and writes temporary files under
//! `.bench_work/`). Prints one line per metric, then the JSON result as
//! the last line. Exits 1 if any output was wrong, 2 if the run could not
//! be carried out.

use std::path::PathBuf;
use std::process::ExitCode;

use vcbench::plan::Workload;
use vcbench::report::{incorrect_json, END_TO_END, PER_LAYER};
use vcbench::run::{run, Args};

fn usage(msg: &str) -> String {
    format!(
        "vcbench: {msg}\nusage: vcbench --serve-bin PATH --workload {} --seed N --seconds S --trace 0|1",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| usage(&format!("{flag} is required")))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let number = |flag: &str| -> Result<f64, String> {
        let v = value(flag)?;
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| usage(&format!("{flag} must be a non-negative number, got {v}")))
    };
    let workload = value("--workload")?;
    let seconds = number("--seconds")?;
    if seconds <= 0.0 {
        return Err(usage("--seconds must be positive"));
    }
    let seed = value("--seed")?;
    Ok(Args {
        serve_bin: PathBuf::from(value("--serve-bin")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| usage(&format!("unknown workload {workload}")))?,
        seed: seed
            .parse()
            .map_err(|_| usage(&format!("--seed must be an unsigned integer, got {seed}")))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(usage(&format!("--trace must be 0 or 1, got {other}"))),
        },
        work: PathBuf::from(".bench_work").join(std::process::id().to_string()),
        corpus: PathBuf::from("results/traces"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !args.corpus.is_dir() {
        eprintln!(
            "vcbench: {} not found; run from the root of a virtclust checkout",
            args.corpus.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("vcbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("vcbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    if !out.mismatches.is_empty() {
        for m in &out.mismatches {
            eprintln!("vcbench: MISMATCH {m}");
        }
        println!("{}", incorrect_json(out.attempted, out.failed));
        return ExitCode::from(1);
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        if let Some(v) = out.metrics.get(name) {
            println!("  {name} = {v} {unit}");
        }
    }
    match out.metrics.to_json(catalogue, out.attempted, out.failed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vcbench: {e}");
            ExitCode::from(2)
        }
    }
}
