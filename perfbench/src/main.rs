//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, runs them for the given
//! time, checks every output, and prints each metric with its unit. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans and obs snapshots to `.bench_out/`. Exits non-zero if
//! any output was wrong.

use perfbench::bench::{self, Workload, E2E, LAYERS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    if argv.len() != 8 {
        return Err("expected four flags".into());
    }
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed: not a u64".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Prints each metric of `table` that `values` holds, one per line.
fn print_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in table {
        if let Some(v) = values.get(name) {
            println!("  {name:<28} {v:>16.4} {unit}");
        }
    }
}

/// The `metrics` object of the result line.
fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut parts = Vec::new();
    for (name, unit) in table {
        if let Some(v) = values.get(name) {
            let v = if v.is_finite() { *v } else { 0.0 };
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!("{{{}}}", parts.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let out = Path::new(".bench_out");
    let name = args.workload.name();
    let (res, tracer) = match bench::run(args.workload, args.seed, args.seconds, args.trace, out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &res.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "workload {name} seed {} ({} s timed)",
        args.seed, args.seconds
    );
    print_metrics(&E2E, &res.e2e);
    if !res.rss_ok {
        println!("  peak_rss_mb                  unavailable (cannot reset VmHWM)");
    }
    let frac = res.failed as f64 / res.attempted.max(1) as f64;
    println!(
        "  ops_failed_frac              {frac:>16.4} ({} failed of {} attempted)",
        res.failed, res.attempted
    );
    let metrics = if args.trace {
        println!("per-layer (traced run; the e2e lines above were measured with tracing on):");
        print_metrics(&LAYERS, &res.layers);
        let path = out.join(format!("trace-{name}-{}.json", args.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json(name, args.seed)) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  spans and obs snapshots -> {}", path.display());
        metrics_json(&LAYERS, &res.layers)
    } else {
        metrics_json(&E2E, &res.e2e)
    };
    let correct = res.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.attempted, res.failed, metrics
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
