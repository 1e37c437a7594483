//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary line, then the JSON result as the last line of
//! standard output. A traced run writes its span file to
//! `wallbench/out/spans-<workload>-<seed>.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use wallbench::bench::{self, Options};
use wallbench::gen::Workload;

#[global_allocator]
static ALLOC: wallbench::alloc::Counting = wallbench::alloc::Counting;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside [0, 3600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let spans_out = trace.then(|| {
        PathBuf::from(format!(
            "wallbench/out/spans-{}-{seed}.json",
            workload.name()
        ))
    });
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = bench::run(&opts);
    for p in &report.gate.problems {
        eprintln!("wallbench: {p}");
    }
    let notes: String = report
        .notes
        .iter()
        .map(|(k, v)| format!(" {k}={v:.6}"))
        .collect();
    println!(
        "# workload={} seed={} trace={} jobs={} correct={}{notes}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        report.jobs,
        report.gate.correct()
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
