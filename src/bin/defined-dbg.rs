//! `defined-dbg` — record a production scenario and debug its recording
//! interactively, the paper's full workflow as a command-line tool.
//!
//! ```text
//! defined-dbg record  <scenario> [recording-file] [--out <run.drec>] [--seed <u64>] [--shards <n>]
//! defined-dbg debug   <scenario> <recording-file> [script-file] [--shards <n>]
//! defined-dbg replay  <scenario> <recording-file> [--shards <n>]
//! defined-dbg explore <scenario> [recording-file] [--salts <n>] [--jobs <n>] [--shards <n>]
//! defined-dbg bisect  <scenario> [recording-file] [--jobs <n>] [--shards <n>]
//! defined-dbg verify  <run.drec> [--scenario <name>] [--shards <n>]
//! defined-dbg check-profile <profile.json>
//! defined-dbg scenarios
//! ```
//!
//! `record`, `debug`, `replay`, `explore`, and `bisect` additionally accept
//! `--ckpt-interval <n>|auto`, overriding the scenario's checkpoint-capture
//! policy: capture before every n-th delivery, or adapt the interval to the
//! observed rollback churn (DESIGN.md §13). Like `--seed`, the policy is
//! sweepable — the committed execution never depends on it — and the
//! effective policy is echoed in the `gvt:` line.
//!
//! Every run verb additionally accepts the observability flags (DESIGN.md
//! §11): `--profile` prints a human metric summary after the run,
//! `--profile-json <path>` writes the machine-readable dump, and
//! `--trace-out <path>` captures Chrome trace events (open in
//! `about:tracing` or Perfetto for a per-shard flamegraph). None of them
//! perturbs the run: commit logs, transcripts, and reports are
//! byte-identical with or without them (`tests/obs_determinism.rs`).
//! `check-profile` validates a `--profile-json` dump from a record+replay
//! run — the CI step that keeps the JSON schema honest.
//!
//! `<scenario>` is either a name from the bundled registry (`defined-dbg
//! scenarios` lists them) or a path to a `.scn` scenario file (see the
//! `scenario::scn` module docs for the format). Scenarios bundle a
//! topology, a protocol, a workload of external events, a fault schedule,
//! and an outcome probe.
//!
//! `record` runs the DEFINED-RB-instrumented production network and writes
//! the partial recording (external events, losses, death cuts, beacon tick
//! schedule) to the file; `--seed` overrides the scenario's network-
//! nondeterminism seed — sweeping it must not change the committed
//! execution. With `--out <run.drec>` the recording is additionally (or
//! instead) *streamed* into the append-only crash-safe store format
//! (DESIGN.md §12) as the run progresses: committed frames are fsynced at
//! every sync point, so killing the recorder mid-run leaves a recoverable
//! prefix rather than nothing. `debug` rebuilds the debugging network from
//! the same scenario, loads the recording, and drives a `DebugSession`
//! with commands from the script file (or stdin when omitted) — `help`
//! lists them. Replays are deterministic, so sessions are exactly
//! repeatable.
//!
//! Every verb that reads a recording file accepts both formats
//! transparently — the raw `record` output and a `.drec` store (sniffed by
//! magic). A store with a torn tail is recovered to its last sync point
//! with a warning on stderr; mid-file corruption is a typed error, never a
//! panic and never a silently wrong replay. `replay` re-executes a
//! recording in lockstep without an interactive session. `verify` is the
//! store's integrity gate: it checks every frame CRC and the writer's
//! self-check tallies, then replays the recording and compares the commit
//! logs entry-by-entry against the logs the production run stored,
//! exiting non-zero on any mismatch (the scenario defaults to the name in
//! the store's meta frame; `--scenario` overrides it).
//!
//! Sessions are also *reversible*: `rstep [n]`, `rcont`, and `goto P` walk
//! execution backward over periodic whole-network checkpoints, so any
//! recorded scenario can be navigated in either direction; stepping
//! forward again reproduces the original transcript byte for byte.
//!
//! `explore` and `bisect` mechanise the troubleshooter: both record the
//! scenario in-process and compile its outcome probe into a search
//! predicate run on the parallel replay farm. `explore` sweeps salted
//! ordering functions for one that changes the outcome (the paper's §4
//! masked-bug discussion); `bisect` finds the earliest group — and the
//! exact delivery — at which the final outcome was established. `--jobs`
//! chooses the farm worker count and never changes the answer: the farm
//! reports the earliest divergent salt and a job-count-invariant bisection.
//! When `--jobs` is omitted (or `0`), one worker per available core is
//! used.
//!
//! `--shards` splits each individual replay across worker shards
//! (`ShardedWaves`): every lockstep wave is block-partitioned over the nodes
//! and the shards' outputs are re-merged in deterministic `OrderKey` order,
//! so commit logs, transcripts, and search reports are byte-identical for
//! every shard count. `--shards 0` means one shard per available core;
//! omitting the flag keeps the replay serial. On `record`, `--shards <n>`
//! additionally replays the fresh recording `n`-way sharded and verifies
//! the logs against the production commits before reporting success.

use defined::core::config::CapturePolicy;
use defined::scenario::{self, Scenario};
use std::io::Read as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: defined-dbg record  <scenario> [recording-file] [--out <run.drec>] [--seed <u64>] [--shards <n>]\n\
         \x20      defined-dbg debug   <scenario> <recording-file> [script-file] [--shards <n>]\n\
         \x20      defined-dbg replay  <scenario> <recording-file> [--shards <n>]\n\
         \x20      defined-dbg explore <scenario> [recording-file] [--salts <n>] [--jobs <n>] [--shards <n>]\n\
         \x20      defined-dbg bisect  <scenario> [recording-file] [--jobs <n>] [--shards <n>]\n\
         \x20      defined-dbg verify  <run.drec> [--scenario <name>] [--shards <n>]\n\
         \x20      defined-dbg check-profile <profile.json>\n\
         \x20      defined-dbg scenarios\n\
         \n\
         <scenario> is a registry name (see `defined-dbg scenarios`) or a .scn file path\n\
         recording files may be raw `record` output or a crash-safe .drec store (--out)\n\
         --jobs 0 / --shards 0 mean one worker per available core\n\
         run verbs (except verify) also accept --ckpt-interval <n>|auto\n\
         run verbs also accept --profile, --profile-json <path>, --trace-out <path>"
    );
    ExitCode::FAILURE
}

/// Resolves a scenario argument: a registry name, else a `.scn` file path
/// (anything that ends in `.scn` or names an existing file). Registry first,
/// so a stray file in the working directory cannot shadow a scenario name.
fn resolve(arg: &str) -> Result<Scenario, String> {
    if let Some(scn) = scenario::find(arg) {
        return Ok(scn);
    }
    if arg.ends_with(".scn") || std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        scenario::scn::parse(&text).map_err(|e| format!("{arg}: {e}"))
    } else {
        Err(format!("unknown scenario: {arg} (try `defined-dbg scenarios`)"))
    }
}

fn list_scenarios() -> ExitCode {
    let reg = scenario::registry();
    let width = reg.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in &reg {
        println!("{:width$}  {}", s.name, s.description);
    }
    ExitCode::SUCCESS
}

/// Renders the production run's GVT progression from the obs counters —
/// one code path for every subcommand (`record_typed` publishes the bound
/// into the substrate; anything that recorded surfaces it here, and a
/// pure replay with no production half prints nothing).
fn print_gvt_line(capture: CapturePolicy) {
    let snap = defined::obs::global().snapshot();
    if snap.counter("gvt.samples") == 0 {
        return;
    }
    println!(
        "gvt: bound {} -> {} over {} samples ({}), floor {}, {} rollback(s), capture {}",
        snap.counter("gvt.bound_first"),
        snap.counter("gvt.bound"),
        snap.counter("gvt.samples"),
        if snap.counter("gvt.regressions") == 0 { "monotone" } else { "NOT monotone" },
        snap.counter("gvt.floor"),
        snap.counter("rb.rollbacks"),
        capture,
    );
}

fn record(
    scn: &Scenario,
    path: Option<&str>,
    out: Option<&str>,
    shards: Option<usize>,
) -> Result<ExitCode, String> {
    let run = match out {
        Some(store_path) => scn
            .record_run_to_store(std::path::Path::new(store_path))
            .map_err(|e| format!("{store_path}: {e}"))?,
        None => scn.record_run().map_err(|e| e.to_string())?,
    };
    if let Some(path) = path {
        std::fs::write(path, &run.bytes).map_err(|e| format!("{path}: {e}"))?;
    }
    let dest = out.or(path).expect("record has at least one output");
    println!("{} -> {dest}", run.summary(&scn.name));
    print_gvt_line(scn.capture);
    if let Some(outcome) = &run.outcome {
        println!("production outcome: {outcome}");
    }
    if let Some(shards) = shards {
        // Self-check: replay the fresh recording sharded and hold it to
        // Theorem 1 against the production commit logs.
        let shards = defined::core::resolve_workers(shards);
        let logs = scn.replay_logs_sharded(&run.bytes, shards).map_err(|e| e.to_string())?;
        if let Some(d) = defined::core::ls::first_divergence(&run.logs, &logs, run.upto) {
            eprintln!("{}: sharded replay diverged from production: {d:?}", scn.name);
            return Ok(ExitCode::FAILURE);
        }
        println!("sharded replay check: {shards} shard(s), identical to production");
    }
    Ok(ExitCode::SUCCESS)
}

fn read_script(arg: Option<&str>) -> Result<String, String> {
    match arg {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut s = String::new();
            std::io::stdin().read_to_string(&mut s).map_err(|e| e.to_string())?;
            Ok(s)
        }
    }
}

/// Warns (stderr) when a store file needed torn-tail recovery, so a
/// replay of the durable prefix is never mistaken for the full run. A
/// structurally corrupt store stays silent here — the verb's own open
/// will surface the typed error.
fn warn_recovered(path: &str, bytes: &[u8]) {
    if !defined::store::is_store(bytes) {
        return;
    }
    if let Ok(info) = defined::store::scan(bytes) {
        if !info.finished {
            eprintln!(
                "{path}: torn tail recovered — replaying the durable prefix through \
                 group {} ({} byte(s) past the last sync point discarded)",
                info.synced_group, info.recovered_tail_bytes
            );
        }
    }
}

fn debug(
    scn: &Scenario,
    rec_path: &str,
    script: Option<&str>,
    shards: usize,
) -> Result<ExitCode, String> {
    let bytes = std::fs::read(rec_path).map_err(|e| format!("{rec_path}: {e}"))?;
    warn_recovered(rec_path, &bytes);
    let script = read_script(script)?;
    match scn.debug_transcript_sharded(&bytes, &script, shards) {
        Ok(transcript) => {
            print!("{transcript}");
            print_gvt_line(scn.capture);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{rec_path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Default ordering-sweep width for `explore` when `--salts` is omitted.
const DEFAULT_SALTS: u64 = 32;

/// The recording bytes a search verb operates on: loaded from a file when
/// one was given (skipping the re-record), freshly recorded otherwise.
fn search_bytes(scn: &Scenario, rec_path: Option<&str>) -> Result<Vec<u8>, String> {
    match rec_path {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            warn_recovered(path, &bytes);
            Ok(bytes)
        }
        None => {
            let run = scn.record_run().map_err(|e| e.to_string())?;
            println!("{}", run.summary(&scn.name));
            print_gvt_line(scn.capture);
            Ok(run.bytes)
        }
    }
}

fn explore(
    scn: &Scenario,
    rec_path: Option<&str>,
    salts: u64,
    farm: &defined::core::FarmConfig,
) -> Result<ExitCode, String> {
    let bytes = search_bytes(scn, rec_path)?;
    let report = scn.explore_run(&bytes, salts, farm).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(ExitCode::SUCCESS)
}

fn replay(scn: &Scenario, rec_path: &str, shards: usize) -> Result<ExitCode, String> {
    let bytes = std::fs::read(rec_path).map_err(|e| format!("{rec_path}: {e}"))?;
    warn_recovered(rec_path, &bytes);
    let logs = scn.replay_logs_sharded(&bytes, shards).map_err(|e| format!("{rec_path}: {e}"))?;
    let entries: usize = logs.iter().map(Vec::len).sum();
    println!("replayed {}: {} node(s), {} committed entries", scn.name, logs.len(), entries);
    Ok(ExitCode::SUCCESS)
}

fn verify(rec_path: &str, scenario: Option<&str>, shards: usize) -> Result<ExitCode, String> {
    let bytes = std::fs::read(rec_path).map_err(|e| format!("{rec_path}: {e}"))?;
    if !defined::store::is_store(&bytes) {
        return Err(format!("{rec_path}: not a recording store (missing DREC magic)"));
    }
    let name = match scenario {
        Some(name) => name.to_string(),
        None => {
            let info = defined::store::scan(&bytes).map_err(|e| format!("{rec_path}: {e}"))?;
            info.scenario
        }
    };
    let scn = resolve(&name)?;
    match scn.verify_store(&bytes, shards) {
        Ok(report) => {
            print!("{}", report.render());
            Ok(if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Err(e) => {
            eprintln!("{rec_path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn bisect(
    scn: &Scenario,
    rec_path: Option<&str>,
    farm: &defined::core::FarmConfig,
) -> Result<ExitCode, String> {
    let bytes = search_bytes(scn, rec_path)?;
    match scn.bisect_run(&bytes, farm).map_err(|e| e.to_string())? {
        Some(summary) => {
            print!("{}", summary.render());
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("{}: the recording has no groups to bisect", scn.name);
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Pulls a `--<name> <u64>` pair out of the argument list.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<u64>, String> {
    let flag = format!("--{name}");
    let Some(pos) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    let parsed = value.parse().map_err(|_| format!("{flag} {value}: not a u64"))?;
    Ok(Some(parsed))
}

/// Pulls a `--<name> <path>` pair out of the argument list.
fn take_path_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let flag = format!("--{name}");
    let Some(pos) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Pulls a bare `--<name>` switch out of the argument list.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    let flag = format!("--{name}");
    match args.iter().position(|a| *a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Where a run's observability is surfaced (DESIGN.md §11). Reporting
/// only: none of these change what the run computes.
#[derive(Default)]
struct ObsOpts {
    profile: bool,
    profile_json: Option<String>,
    trace_out: Option<String>,
}

/// Writes the requested observability artifacts after a run.
fn emit_obs(opts: &ObsOpts) -> Result<(), String> {
    if !opts.profile && opts.profile_json.is_none() && opts.trace_out.is_none() {
        return Ok(());
    }
    let snap = defined::obs::global().snapshot();
    if opts.profile {
        print!("{}", snap.render_profile());
    }
    if let Some(path) = &opts.profile_json {
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_out {
        let events = defined::obs::take_events();
        std::fs::write(path, defined::obs::chrome_trace_json(&events))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Validates a `--profile-json` dump from a record+replay run: the schema
/// version, the three sections, and the counters/spans CI depends on.
fn check_profile(path: &str) -> Result<ExitCode, String> {
    use defined::obs::json::Value;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = defined::obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("version").and_then(Value::as_u64) != Some(1) {
        return Err(format!("{path}: missing or unsupported profile schema version"));
    }
    let section = |key: &str| match v.get(key) {
        Some(Value::Obj(m)) => Ok(m.len()),
        _ => Err(format!("{path}: missing `{key}` section")),
    };
    let n_counters = section("counters")?;
    let n_spans = section("spans")?;
    let n_hists = section("histograms")?;
    let counters = v.get("counters").expect("checked");
    for name in
        ["gvt.samples", "ls.waves", "ls.delivered", "wire.bytes_encoded", "wire.bytes_decoded"]
    {
        if counters.get(name).and_then(Value::as_u64).is_none() {
            return Err(format!("{path}: required counter `{name}` missing"));
        }
    }
    let span_count = v
        .get("spans")
        .and_then(|s| s.get("ls.wave"))
        .and_then(|s| s.get("count"))
        .and_then(Value::as_u64);
    if span_count.is_none() {
        return Err(format!("{path}: required span `ls.wave` missing"));
    }
    println!("{path}: valid profile ({n_counters} counters, {n_spans} spans, {n_hists} histograms)");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Flags belong to specific verbs; anywhere else they must be a usage
    // error, not a silently ignored argument.
    let verb = args.first().cloned().unwrap_or_default();
    let run_verb =
        matches!(verb.as_str(), "record" | "debug" | "replay" | "explore" | "bisect" | "verify");
    type Flags = (
        Option<u64>,
        Option<u64>,
        Option<u64>,
        Option<u64>,
        Option<String>,
        Option<String>,
        Option<CapturePolicy>,
        ObsOpts,
    );
    let flags: Result<Flags, String> = (|| {
        let seed = if verb == "record" { take_flag(&mut args, "seed")? } else { None };
        let out = if verb == "record" { take_path_flag(&mut args, "out")? } else { None };
        // `--ckpt-interval N|auto` belongs to the verbs that build a
        // network from the scenario; a malformed value is a typed parse
        // error surfaced as a usage failure, never a panic.
        let capture = if run_verb && verb != "verify" {
            match take_path_flag(&mut args, "ckpt-interval")? {
                Some(v) => Some(v.parse::<CapturePolicy>().map_err(|e| e.to_string())?),
                None => None,
            }
        } else {
            None
        };
        let salts = if verb == "explore" { take_flag(&mut args, "salts")? } else { None };
        let jobs = if verb == "explore" || verb == "bisect" {
            take_flag(&mut args, "jobs")?
        } else {
            None
        };
        let scenario =
            if verb == "verify" { take_path_flag(&mut args, "scenario")? } else { None };
        let shards = if run_verb { take_flag(&mut args, "shards")? } else { None };
        let obs = if run_verb {
            ObsOpts {
                profile: take_switch(&mut args, "profile"),
                profile_json: take_path_flag(&mut args, "profile-json")?,
                trace_out: take_path_flag(&mut args, "trace-out")?,
            }
        } else {
            ObsOpts::default()
        };
        Ok((seed, salts, jobs, shards, out, scenario, capture, obs))
    })();
    let (seed, salts, jobs, shards, out, scenario_flag, capture, obs_opts) = match flags {
        Ok(f) => f,
        Err(e) => {
            eprintln!("defined-dbg: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Applies the `--ckpt-interval` override to a resolved scenario.
    let tuned = move |scn: Scenario| match capture {
        Some(c) => scn.with_capture(c),
        None => scn,
    };
    if obs_opts.trace_out.is_some() {
        defined::obs::set_tracing(true);
    }
    // Omitted `--jobs` means auto (`with_jobs(0)` resolves to the core
    // count); omitted `--shards` keeps each replay serial, `--shards 0`
    // means auto.
    let farm = defined::core::FarmConfig::with_jobs(jobs.unwrap_or(0) as usize)
        .with_shards(shards.unwrap_or(1) as usize);
    let result = match args.as_slice() {
        [cmd] if cmd == "scenarios" => return list_scenarios(),
        [cmd, scenario_arg, rest @ ..]
            if cmd == "record" && rest.len() <= 1 && (out.is_some() || rest.len() == 1) =>
        {
            resolve(scenario_arg).map(tuned).and_then(|mut scn| {
                if let Some(s) = seed {
                    scn = scn.with_seed(s);
                }
                record(
                    &scn,
                    rest.first().map(|s| s.as_str()),
                    out.as_deref(),
                    shards.map(|s| s as usize),
                )
            })
        }
        [cmd, scenario_arg, path, rest @ ..] if cmd == "debug" && rest.len() <= 1 => {
            let script = rest.first().map(|s| s.as_str());
            resolve(scenario_arg).map(tuned).and_then(|scn| debug(&scn, path, script, farm.shards))
        }
        [cmd, scenario_arg, path] if cmd == "replay" => {
            resolve(scenario_arg).map(tuned).and_then(|scn| replay(&scn, path, farm.shards))
        }
        [cmd, scenario_arg, rest @ ..] if cmd == "explore" && rest.len() <= 1 => {
            resolve(scenario_arg).map(tuned).and_then(|scn| {
                explore(&scn, rest.first().map(|s| s.as_str()), salts.unwrap_or(DEFAULT_SALTS), &farm)
            })
        }
        [cmd, scenario_arg, rest @ ..] if cmd == "bisect" && rest.len() <= 1 => {
            resolve(scenario_arg)
                .map(tuned)
                .and_then(|scn| bisect(&scn, rest.first().map(|s| s.as_str()), &farm))
        }
        [cmd, path] if cmd == "verify" => verify(path, scenario_flag.as_deref(), farm.shards),
        [cmd, path] if cmd == "check-profile" => check_profile(path),
        _ => return usage(),
    };
    // The observability artifacts are written after the verb, win or lose —
    // a failing run's profile is exactly the one worth reading.
    let result = result.and_then(|code| emit_obs(&obs_opts).map(|()| code));
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("defined-dbg: {e}");
            ExitCode::FAILURE
        }
    }
}
