//! The three workloads and the loop that runs them.
//!
//! Every end-to-end number comes from the entry points the `defined-dbg`
//! verbs call — `Scenario::record_run` (`record <scenario> <file>`),
//! `verify_store`, `replay_logs_sharded`, `DebugSession::exec`,
//! `explore_run` and `bisect_run` — with the scenario's own configuration
//! and the CLI's default `--jobs` (one worker per core) and `--shards`
//! (serial). The streaming `record --out` path, `record_run_to_store`, is
//! timed in the traced run only: it re-scans the commit logs and fsyncs at
//! every sync point, and on a shared host its time varies several times
//! more than the production run's.
//!
//! A run sets up `instances` seeded scenario instances, then visits them
//! round-robin until `--seconds` have passed and every instance has been
//! visited at least [`MIN_PASSES`] times. Each visit runs every verb,
//! weighted by the workload's [`Mix`], and checks every output.
//!
//! The work of each call is deterministic, so on a shared host noise only
//! ever adds time. A per-call latency is therefore the fastest of the
//! run's samples of that call on that instance, and the metric averages
//! those over the instances: the instances spread the inputs' own
//! variation, the repeated visits filter out time stolen by other
//! tenants.

use crate::gen;
use crate::stats::{mean, median, peak_rss_mib, quantile, reset_peak_rss};
use crate::trace::Tracer;
use defined_core::debugger::Debugger;
use defined_core::ls::first_divergence;
use defined_core::recorder::{trim_log, CommitRecord, Recording};
use defined_core::session::DebugSession;
use defined_core::wire::Wire;
use defined_core::{DefinedConfig, FarmConfig, LockstepNet};
use defined_obs::Snapshot;
use defined_store::{FileIo, FsyncPolicy, StoreMeta, VecIo};
use netsim::NodeId;
use routing::ControlPlane;
use scenario::{ProtocolSpec, RecordedRun, Scenario};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use topology::Graph;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// OSPF on seeded BA graphs under churn: RB production and `verify`,
    /// plus debug sessions on the recordings.
    OspfChurnRecord,
    /// RIP on a 6×6 grid: `explore` sweeps, `bisect`, serial `replay`.
    RipSearchFarm,
}

/// Full passes over the instances the timed phase makes at least.
pub const MIN_PASSES: usize = 2;

/// How much of each verb one visit of an instance runs.
#[derive(Clone, Copy, Debug)]
struct Mix {
    /// Seeded scenario instances set up per run.
    instances: usize,
    /// `record` calls per visit (every instance is also recorded once in
    /// set-up).
    records: usize,
    /// `verify` calls per visit.
    verifies: usize,
    /// Serial `replay` calls per visit.
    replays: usize,
    /// `explore` calls per visit.
    explores: usize,
    /// Salts each `explore` call sweeps.
    salts: u64,
    /// `bisect` calls per visit.
    bisects: usize,
    /// Blocks of [`gen::BLOCK_COMMANDS`] debug-session commands per visit,
    /// between the opening `run` and the closing check.
    debug_blocks: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::OspfChurnRecord, Workload::RipSearchFarm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OspfChurnRecord => "ospf-churn-record",
            Workload::RipSearchFarm => "rip-search-farm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `.scn` text of instance `i` for `seed`.
    pub fn scn_text(self, seed: u64, i: usize) -> String {
        match self {
            Workload::OspfChurnRecord => gen::ospf_churn_scn(seed, i),
            Workload::RipSearchFarm => gen::rip_farm_scn(seed, i),
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::OspfChurnRecord => Mix {
                instances: 16,
                records: 1,
                verifies: 5,
                replays: 5,
                explores: 3,
                salts: 4,
                bisects: 3,
                debug_blocks: 16,
            },
            Workload::RipSearchFarm => Mix {
                instances: 8,
                records: 1,
                verifies: 3,
                replays: 5,
                explores: 1,
                salts: 128,
                bisects: 3,
                debug_blocks: 8,
            },
        }
    }
}

/// One set-up scenario instance and the timings gathered on it.
struct Instance {
    scn: Scenario,
    graph: Graph,
    /// Where the `record` verb writes the recording file.
    rec_path: PathBuf,
    /// The `.drec` store of the set-up recording, the input of `verify`.
    store_bytes: Vec<u8>,
    /// The set-up recording: every later output is checked against it.
    run: RecordedRun,
    /// Lockstep replay logs of the set-up recording.
    replay: Vec<Vec<CommitRecord>>,
    script: Vec<String>,
    /// Committed entries of one replay.
    entries: u64,
    t_record: Vec<f64>,
    t_verify: Vec<f64>,
    t_replay: Vec<f64>,
    t_open: Vec<f64>,
    t_explore: Vec<f64>,
    t_bisect: Vec<f64>,
    /// Each script command's fastest time so far (the opening and closing
    /// `run` excluded).
    t_cmds: Vec<f64>,
}

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("record_s", "s"),
    ("verify_ms", "ms"),
    ("debug_open_run_s", "s"),
    ("debug_cmd_p50_ms", "ms"),
    ("debug_cmd_p99_ms", "ms"),
    ("replay_entries_per_s", "1/s"),
    ("explore_salts_per_s", "1/s"),
    ("bisect_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const LAYERS: [(&str, &str); 45] = [
    ("topology.build_ms", "ms"),
    ("scenario.parse_validate_ms", "ms"),
    ("rb.rollbacks", "count/record"),
    ("rb.rolled_entries", "count/record"),
    ("rb.fast_path", "count/record"),
    ("rb.jump", "count/record"),
    ("rb.unsend_msgs", "count/record"),
    ("rb.rollback_ratio", "ratio"),
    ("rb.waste_ratio", "ratio"),
    ("rb.redeliver_incl_ms", "ms/record"),
    ("gvt.samples", "count/record"),
    ("gvt.advance", "count/record"),
    ("ckpt.captures", "count/record"),
    ("ckpt.restores", "count/record"),
    ("ckpt.captures_per_entry", "ratio"),
    ("ckpt.capture_incl_ms", "ms/record"),
    ("ckpt.restore_incl_ms", "ms/record"),
    ("ckpt.timeline_images", "count/session"),
    ("ckpt.bytes_stored", "B/session"),
    ("ckpt.pool_hit_ratio", "ratio"),
    ("ckpt.dirty_page_ratio", "ratio"),
    ("ls.capture_image_ms", "ms"),
    ("ls.run_to_end_ms", "ms"),
    ("ls.waves", "count/replay"),
    ("ls.delivered", "count/replay"),
    ("ls.wave_incl_ms", "ms/replay"),
    ("ls.wave_events_p50", "count"),
    ("session.run_ms", "ms"),
    ("session.goto_p50_ms", "ms"),
    ("session.rstep_p50_ms", "ms"),
    ("session.step_p50_ms", "ms"),
    ("session.rcont_p50_ms", "ms"),
    ("farm.jobs_claimed", "count/explore"),
    ("farm.queue_wait_p50_ms", "ms"),
    ("explore.salt_ms", "ms"),
    ("bisect.prefix_replays", "count/bisect"),
    ("store.stream_record_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.bytes_written", "B/record"),
    ("store.fsync", "count/record"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes_encoded", "B/record"),
    ("wire.bytes_decoded", "B/replay"),
    ("trace.overhead_pct", "%"),
];

/// What one run produced.
pub struct Outcome {
    /// Operations attempted (verb calls and debug commands).
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics by name (units in [`E2E`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced run only; units in [`LAYERS`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Whether the peak-RSS mark could be reset before the timed phase.
    pub rss_ok: bool,
}

/// Everything the visits accumulate.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    setup: Vec<f64>,
    parse_validate: Vec<f64>,
    topo_build: Vec<f64>,
    verb_s: f64,
    /// Committed production entries summed over traced record calls.
    record_entries: u64,
    timeline_images: Vec<f64>,
    bisect_replays: Vec<f64>,
    layer: BTreeMap<&'static str, Vec<f64>>,
}

impl Acc {
    /// Counts one operation, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// The configuration the scenario engine runs every network with: the
/// product default plus the scenario's own capture policy (which the
/// generated `.scn` text leaves at its default).
fn engine_config(scn: &Scenario) -> DefinedConfig {
    DefinedConfig {
        capture: scn.capture,
        ..DefinedConfig::default()
    }
}

/// The CLI's farm when `--jobs` and `--shards` are omitted.
fn default_farm() -> FarmConfig {
    FarmConfig::with_jobs(0).with_shards(1)
}

/// Calls `$body` with `$procs` bound to the scenario's control planes on
/// `$graph`.
macro_rules! with_procs {
    ($scn:expr, $graph:expr, |$procs:ident| $body:expr) => {
        match $scn.protocol {
            ProtocolSpec::Ospf => {
                let $procs = scenario::ospf_processes($graph);
                $body
            }
            ProtocolSpec::Rip { mode } => {
                let $procs = scenario::rip_processes($graph, mode);
                $body
            }
            ProtocolSpec::Bgp { .. } => unreachable!("no workload generates BGP"),
        }
    };
}

/// A debug session with its protocol erased.
trait Session {
    fn exec(&mut self, line: &str) -> Result<String, String>;
    fn delivered(&self) -> u64;
    fn logs(&self) -> &[Vec<CommitRecord>];
    fn timeline_images(&self) -> u64;
}

impl<P> Session for DebugSession<P>
where
    P: ControlPlane,
    P::Msg: Wire,
    P::Ext: Wire,
{
    fn exec(&mut self, line: &str) -> Result<String, String> {
        DebugSession::exec(self, line).map_err(|e| e.to_string())
    }
    fn delivered(&self) -> u64 {
        self.debugger().delivered()
    }
    fn logs(&self) -> &[Vec<CommitRecord>] {
        self.debugger().net().logs()
    }
    fn timeline_images(&self) -> u64 {
        self.debugger().timeline_stats().map_or(0, |s| s.taken)
    }
}

/// Builds the session `defined-dbg debug` builds: the scenario's network
/// config, the recording decoded from the store, serial waves, and the
/// session's own time-travel defaults.
fn open_session<P>(inst: &Instance, procs: Vec<P>) -> Result<Box<dyn Session>, String>
where
    P: ControlPlane + Clone + 'static,
    P::Msg: Wire,
    P::Ext: Wire,
{
    let rec = defined_store::open_bytes::<P::Ext>(&inst.store_bytes)
        .map_err(|e| e.to_string())?
        .recording;
    let ls = LockstepNet::new(
        &inst.graph,
        engine_config(&inst.scn),
        rec,
        move |id: NodeId| procs[id.index()].clone(),
    )
    .with_shards(1);
    Ok(Box::new(DebugSession::new(
        Debugger::new(ls),
        inst.graph.node_count(),
    )))
}

/// Times the single-layer calls the verbs are built from, on one
/// instance: the wire codec, the store reader and writer, the streaming
/// `record --out`, a lockstep run to the end, and one whole-network image
/// capture.
fn layer_calls<P>(inst: &Instance, procs: Vec<P>, tr: &mut Tracer, acc: &mut Acc, out: &Path)
where
    P: ControlPlane + Clone + 'static,
    P::Msg: Wire,
    P::Ext: Wire,
{
    let (rec, s) = tr.span("wire.decode", |_| {
        Recording::<P::Ext>::from_bytes(&inst.run.bytes)
    });
    acc.layer.entry("wire.decode_ms").or_default().push(s * 1e3);
    acc.check(rec.is_some(), || {
        format!("{}: recording does not decode", inst.scn.name)
    });
    let (opened, s) = tr.span("store.open", |_| {
        defined_store::open_bytes::<P::Ext>(&inst.store_bytes)
    });
    acc.layer.entry("store.open_ms").or_default().push(s * 1e3);
    let opened = match opened {
        Ok(r) => r,
        Err(e) => return acc.check(false, || format!("{}: store open: {e}", inst.scn.name)),
    };
    acc.check(true, String::new);
    let meta = StoreMeta {
        n_nodes: opened.info.n_nodes,
        source: opened.info.source,
        scenario: opened.info.scenario.clone(),
    };
    let commits = opened.commits.clone().unwrap_or_default();
    let upto = opened.upto.unwrap_or(0);
    let path = out.join("layer-write.drec");
    let (written, s) = tr.span("store.write", |_| {
        FileIo::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|io| {
                defined_store::write_recording(
                    io,
                    &meta,
                    &opened.recording,
                    &commits,
                    upto,
                    4,
                    FsyncPolicy::OnSync,
                )
                .map_err(|e| e.to_string())
            })
    });
    acc.layer.entry("store.write_ms").or_default().push(s * 1e3);
    acc.check(written.is_ok(), || {
        format!("{}: store write failed", inst.scn.name)
    });
    let _ = std::fs::remove_file(&path);
    let path = out.join("layer-stream.drec");
    let (streamed, s) = tr.verb("stream_record", |_| inst.scn.record_run_to_store(&path));
    acc.layer
        .entry("store.stream_record_ms")
        .or_default()
        .push(s * 1e3);
    let reopened = std::fs::read(&path)
        .ok()
        .and_then(|b| defined_store::open_bytes_strict::<P::Ext>(&b).ok());
    let ok = streamed.is_ok_and(|r| r.bytes == inst.run.bytes)
        && reopened.is_some_and(|r| r.recording.to_bytes() == inst.run.bytes);
    acc.check(ok, || {
        format!("{}: the streamed store differs", inst.scn.name)
    });
    let _ = std::fs::remove_file(&path);
    let mut ls = LockstepNet::new(
        &inst.graph,
        engine_config(&inst.scn),
        opened.recording,
        move |id: NodeId| procs[id.index()].clone(),
    )
    .with_shards(1);
    let (_, s) = tr.span("ls.run_to_end", |_| {
        ls.run_to_end();
    });
    acc.layer
        .entry("ls.run_to_end_ms")
        .or_default()
        .push(s * 1e3);
    acc.check(ls.logs() == inst.replay.as_slice(), || {
        format!(
            "{}: lockstep run differs from the replay verb",
            inst.scn.name
        )
    });
    let (img, s) = tr.span("ls.capture_image", |_| ls.capture_image());
    drop(std::hint::black_box(img));
    acc.layer
        .entry("ls.capture_image_ms")
        .or_default()
        .push(s * 1e3);
}

/// Groups between sync points in the set-up stores: the streaming
/// recorder syncs once per four-beacon slice.
const SYNC_GROUPS: u64 = 4;

/// The `record <scenario> <file>` verb: the instrumented production run,
/// then the recording written to `path`.
fn record_to_file(scn: &Scenario, path: &Path) -> Result<RecordedRun, String> {
    let run = scn.record_run().map_err(|e| e.to_string())?;
    std::fs::write(path, &run.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(run)
}

/// The finished `.drec` store of `run`, encoded in memory by the store's
/// own writer: the input `verify` reads, without the streaming path's
/// variable disk time (the traced run times that path as
/// `store.stream_record_ms`).
fn store_image<P: ControlPlane>(
    _planes: &[P],
    scn: &Scenario,
    n_nodes: usize,
    run: &RecordedRun,
) -> Result<Vec<u8>, String>
where
    P::Ext: Wire,
{
    let rec = Recording::<P::Ext>::from_bytes(&run.bytes).ok_or("recording does not decode")?;
    let meta = StoreMeta {
        n_nodes,
        source: rec.source,
        scenario: scn.name.clone(),
    };
    let commits: Vec<_> = run.logs.iter().map(|l| trim_log(l, run.upto)).collect();
    let io = defined_store::write_recording(
        VecIo::new(),
        &meta,
        &rec,
        &commits,
        run.upto,
        SYNC_GROUPS,
        FsyncPolicy::OnSync,
    )
    .map_err(|e| e.to_string())?;
    Ok(io.bytes)
}

/// Generates, parses, validates, builds and records instance `i`.
fn setup(
    w: Workload,
    seed: u64,
    i: usize,
    out: &Path,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<Instance, String> {
    let start = Instant::now();
    let text = w.scn_text(seed, i);
    let (scn, s) = tr.span("scenario.parse_validate", |_| {
        scenario::scn::parse(&text).and_then(|scn| scn.validate().map(|()| scn))
    });
    acc.parse_validate.push(s * 1e3);
    let scn = scn.map_err(|e| format!("instance {i}: {e}\n{text}"))?;
    let (graph, s) = tr.span("topology.build", |_| scn.topology.build());
    acc.topo_build.push(s * 1e3);
    let rec_path = out.join(format!("{}-{i}.rec", w.name()));
    let (run, s) = tr.verb("record", |_| record_to_file(&scn, &rec_path));
    acc.verb_s += s;
    let run = run.map_err(|e| format!("{}: record: {e}", scn.name))?;
    acc.check(true, String::new);
    let n = graph.node_count();
    let store_bytes = with_procs!(scn, &graph, |procs| store_image(&procs, &scn, n, &run))
        .map_err(|e| format!("{}: store: {e}", scn.name))?;
    // Theorem 1 on the fresh recording: its lockstep replay matches the
    // production commit logs up to the settled horizon.
    let (replay, replay_s) = tr.verb("replay", |_| scn.replay_logs_sharded(&store_bytes, 1));
    acc.verb_s += replay_s;
    let replay = replay.map_err(|e| format!("{}: replay: {e}", scn.name))?;
    let d = first_divergence(&run.logs, &replay, run.upto);
    acc.check(d.is_none(), || {
        format!("{}: replay diverges from production: {d:?}", scn.name)
    });
    let entries: u64 = replay.iter().map(|l| l.len() as u64).sum();
    let script = gen::debug_script(
        seed,
        i,
        entries,
        run.n_groups,
        graph.node_count(),
        w.mix().debug_blocks,
    );
    acc.setup.push(start.elapsed().as_secs_f64());
    if tr.on() {
        acc.record_entries += run.logs.iter().map(|l| l.len() as u64).sum::<u64>();
    }
    Ok(Instance {
        scn,
        graph,
        rec_path,
        store_bytes,
        run,
        replay,
        script,
        entries,
        t_record: vec![s],
        t_verify: Vec::new(),
        t_replay: Vec::new(),
        t_open: Vec::new(),
        t_explore: Vec::new(),
        t_bisect: Vec::new(),
        t_cmds: Vec::new(),
    })
}

/// Runs every verb of the mix once over instance `inst`, checking outputs.
fn visit(inst: &mut Instance, mix: &Mix, tr: &mut Tracer, acc: &mut Acc, out: &Path) {
    let name = inst.scn.name.clone();
    for _ in 0..mix.records {
        let (run, s) = tr.verb("record", |_| record_to_file(&inst.scn, &inst.rec_path));
        acc.verb_s += s;
        inst.t_record.push(s);
        let ok = match run {
            Ok(run) => {
                if tr.on() {
                    acc.record_entries += run.logs.iter().map(|l| l.len() as u64).sum::<u64>();
                }
                run.bytes == inst.run.bytes && run.outcome == inst.run.outcome
            }
            Err(_) => false,
        };
        acc.check(ok, || format!("{name}: re-record is not byte-identical"));
    }
    for _ in 0..mix.verifies {
        let (rep, s) = tr.verb("verify", |_| inst.scn.verify_store(&inst.store_bytes, 1));
        acc.verb_s += s;
        inst.t_verify.push(s);
        let ok = rep.as_ref().is_ok_and(|r| r.ok() && r.checked_entries > 0);
        acc.check(ok, || {
            format!("{name}: verify failed: {:?}", rep.map(|r| r.divergence))
        });
    }
    for _ in 0..mix.replays {
        let (logs, s) = tr.verb("replay", |_| {
            inst.scn.replay_logs_sharded(&inst.store_bytes, 1)
        });
        acc.verb_s += s;
        let ok = logs.as_ref().is_ok_and(|l| {
            first_divergence(&inst.run.logs, l, inst.run.upto).is_none() && *l == inst.replay
        });
        acc.check(ok, || format!("{name}: replay diverges from production"));
        inst.t_replay.push(s);
    }
    debug_session(inst, tr, acc);
    let salts = mix.salts;
    for _ in 0..mix.explores {
        let (rep, s) = tr.verb("explore", |_| {
            inst.scn
                .explore_run(&inst.store_bytes, salts, &default_farm())
        });
        acc.verb_s += s;
        inst.t_explore.push(s);
        let ok = rep.as_ref().is_ok_and(|r| {
            Some(&r.baseline) == inst.run.outcome.as_ref()
                && r.failures.is_empty()
                && r.total as u64 == salts
        });
        acc.check(ok, || {
            format!("{name}: explore baseline differs from production")
        });
    }
    for _ in 0..mix.bisects {
        let (sum, s) = tr.verb("bisect", |_| {
            inst.scn.bisect_run(&inst.store_bytes, &default_farm())
        });
        acc.verb_s += s;
        inst.t_bisect.push(s);
        let ok = match &sum {
            Ok(Some(b)) => {
                acc.bisect_replays.push(b.report.replays as f64);
                Some(&b.outcome) == inst.run.outcome.as_ref()
            }
            _ => false,
        };
        acc.check(ok, || {
            format!("{name}: bisect outcome differs from production")
        });
    }
    if tr.on() {
        with_procs!(inst.scn, &inst.graph, |procs| layer_calls(
            inst, procs, tr, acc, out
        ));
    }
}

/// Drives the instance's seeded script through a fresh session, one
/// command at a time, timing each `DebugSession::exec`.
fn debug_session(inst: &mut Instance, tr: &mut Tracer, acc: &mut Acc) {
    let name = inst.scn.name.clone();
    let (session, _) = tr.span("session.open", |_| {
        with_procs!(inst.scn, &inst.graph, |procs| open_session(inst, procs))
    });
    let mut session = match session {
        Ok(s) => s,
        Err(e) => return acc.check(false, || format!("{name}: session: {e}")),
    };
    let last = inst.script.len() - 1;
    for (k, line) in inst.script.iter().enumerate() {
        let verb: &'static str = match k {
            0 => "debug.open_run",
            _ if k == last => "debug.final_run",
            _ => "debug.cmd",
        };
        let (r, s) = tr.verb(verb, |_| session.exec(line));
        acc.verb_s += s;
        let ok = match &r {
            Ok(_) => match line.strip_prefix("goto ") {
                Some(p) => p.parse::<u64>().ok() == Some(session.delivered()),
                None => true,
            },
            Err(_) => false,
        };
        acc.check(ok, || {
            format!("{name}: `{line}` -> {r:?} at {}", session.delivered())
        });
        match k {
            0 => inst.t_open.push(s),
            _ if k == last => {
                let same = session.logs() == inst.replay.as_slice();
                acc.check(same, || {
                    format!("{name}: final session run differs from replay")
                });
            }
            _ => match inst.t_cmds.get_mut(k - 1) {
                Some(best) => *best = best.min(s),
                None => inst.t_cmds.push(s),
            },
        }
    }
    if tr.on() {
        acc.timeline_images.push(session.timeline_images() as f64);
    }
}

/// The fastest sample (0 when there is none).
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Mean over instances of each instance's fastest sample.
fn per_instance(insts: &[Instance], f: impl Fn(&Instance) -> &Vec<f64>) -> f64 {
    mean(&insts.iter().map(|i| fastest(f(i))).collect::<Vec<_>>())
}

/// Work over time, summed over instances: each instance's `work` divided
/// by the sum of its fastest call times.
fn rate(
    insts: &[Instance],
    work: impl Fn(&Instance) -> f64,
    f: impl Fn(&Instance) -> &Vec<f64>,
) -> f64 {
    let w: f64 = insts.iter().map(&work).sum();
    let t: f64 = insts.iter().map(|i| fastest(f(i))).sum();
    w / t
}

/// The script commands' fastest times over every instance, paired with
/// each command's verb.
fn commands(insts: &[Instance]) -> Vec<(&str, f64)> {
    insts
        .iter()
        .flat_map(|i| {
            let verbs = i.script[1..]
                .iter()
                .map(|l| l.split_whitespace().next().unwrap_or(""));
            verbs.zip(i.t_cmds.iter().copied())
        })
        .collect()
}

/// Runs workload `w` for `seed`: set-up, then the timed phase for at
/// least `seconds`. Store files go under `out`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<(Outcome, Tracer), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mix = w.mix();
    let mut tr = Tracer::new(traced);
    let mut acc = Acc::default();
    let mut insts = Vec::with_capacity(mix.instances);
    for i in 0..mix.instances {
        insts.push(setup(w, seed, i, out, &mut tr, &mut acc)?);
    }
    let rss_ok = reset_peak_rss();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut visits = 0usize;
    while visits < MIN_PASSES * insts.len() || Instant::now() < deadline {
        let i = visits % insts.len();
        visit(&mut insts[i], &mix, &mut tr, &mut acc, out);
        visits += 1;
    }
    let peak = peak_rss_mib();
    for inst in &insts {
        let _ = std::fs::remove_file(&inst.rec_path);
    }

    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&acc.setup));
    e2e.insert("record_s", per_instance(&insts, |i| &i.t_record));
    e2e.insert("verify_ms", per_instance(&insts, |i| &i.t_verify) * 1e3);
    e2e.insert("debug_open_run_s", per_instance(&insts, |i| &i.t_open));
    let cmds: Vec<f64> = commands(&insts).into_iter().map(|(_, t)| t).collect();
    e2e.insert("debug_cmd_p50_ms", quantile(&cmds, 0.5) * 1e3);
    e2e.insert("debug_cmd_p99_ms", quantile(&cmds, 0.99) * 1e3);
    e2e.insert(
        "replay_entries_per_s",
        rate(&insts, |i| i.entries as f64, |i| &i.t_replay),
    );
    let salts = mix.salts as f64;
    e2e.insert(
        "explore_salts_per_s",
        rate(&insts, |_| salts, |i| &i.t_explore),
    );
    e2e.insert("bisect_ms", per_instance(&insts, |i| &i.t_bisect) * 1e3);
    if let (true, Some(p)) = (rss_ok, peak) {
        e2e.insert("peak_rss_mb", p);
    }
    let layers = if traced {
        layer_metrics(&tr, &acc, &insts, &e2e)
    } else {
        BTreeMap::new()
    };
    let outcome = Outcome {
        attempted: acc.attempted,
        failed: acc.failed,
        failures: acc.failures,
        e2e,
        layers,
        rss_ok,
    };
    Ok((outcome, tr))
}

/// The per-layer metrics of a traced run. Counts are means per call of
/// the verb that drives the layer; `_incl` times are the program's own
/// inclusive obs spans (they nest, so they are never summed).
fn layer_metrics(
    tr: &Tracer,
    acc: &Acc,
    insts: &[Instance],
    e2e: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let per = |total: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            total / calls as f64
        }
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let span_ms =
        |s: &Snapshot, name: &str| s.spans.get(name).map_or(0, |x| x.total_ns) as f64 / 1e6;
    let hist_p50 =
        |s: &Snapshot, name: &str| s.histograms.get(name).map_or(0, |h| h.quantile(0.5)) as f64;
    let med = |name: &str| acc.layer.get(name).map_or(0.0, |v| median(v));

    m.insert("topology.build_ms", median(&acc.topo_build));
    m.insert("scenario.parse_validate_ms", median(&acc.parse_validate));

    // RB production: the record calls, set-up ones included.
    let (rec, n) = tr.obs_of("record");
    let c = |name: &str| rec.counter(name);
    for name in [
        "rb.rollbacks",
        "rb.rolled_entries",
        "rb.fast_path",
        "rb.jump",
        "rb.unsend_msgs",
        "gvt.samples",
        "gvt.advance",
        "ckpt.captures",
        "ckpt.restores",
        "wire.bytes_encoded",
    ] {
        m.insert(name, per(c(name) as f64, n));
    }
    // The store's writes: the streamed `record --out` calls.
    let (st, n_st) = tr.obs_of("stream_record");
    for name in ["store.fsync", "store.bytes_written"] {
        m.insert(name, per(st.counter(name) as f64, n_st));
    }
    m.insert(
        "rb.rollback_ratio",
        ratio(c("rb.rollbacks"), c("rb.rollbacks") + c("rb.fast_path")),
    );
    m.insert(
        "rb.waste_ratio",
        ratio(c("rb.rolled_entries"), acc.record_entries),
    );
    m.insert(
        "ckpt.captures_per_entry",
        ratio(c("ckpt.captures"), acc.record_entries),
    );
    m.insert(
        "rb.redeliver_incl_ms",
        per(span_ms(&rec, "rb.redeliver"), n),
    );
    m.insert(
        "ckpt.capture_incl_ms",
        per(span_ms(&rec, "ckpt.capture"), n),
    );
    m.insert(
        "ckpt.restore_incl_ms",
        per(span_ms(&rec, "ckpt.restore"), n),
    );

    // Timeline side: the session's commands (`run` captures, navigation
    // restores).
    let mut dbg = tr.obs_of("debug.open_run").0;
    dbg.merge(&tr.obs_of("debug.cmd").0);
    dbg.merge(&tr.obs_of("debug.final_run").0);
    let sessions = acc.timeline_images.len() as u64;
    m.insert("ckpt.timeline_images", mean(&acc.timeline_images));
    m.insert(
        "ckpt.bytes_stored",
        per(dbg.counter("ckpt.bytes_stored") as f64, sessions),
    );
    let (hits, misses) = (
        dbg.counter("ckpt.pool.hits"),
        dbg.counter("ckpt.pool.misses"),
    );
    m.insert("ckpt.pool_hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "ckpt.dirty_page_ratio",
        ratio(
            dbg.counter("ckpt.pages_dirty"),
            dbg.counter("ckpt.pages_total"),
        ),
    );
    m.insert("ls.capture_image_ms", med("ls.capture_image_ms"));

    // Lockstep replay: the replay calls.
    let (rep, n) = tr.obs_of("replay");
    m.insert("ls.run_to_end_ms", med("ls.run_to_end_ms"));
    m.insert("ls.waves", per(rep.counter("ls.waves") as f64, n));
    m.insert("ls.delivered", per(rep.counter("ls.delivered") as f64, n));
    m.insert("ls.wave_incl_ms", per(span_ms(&rep, "ls.wave"), n));
    m.insert("ls.wave_events_p50", hist_p50(&rep, "ls.wave_events"));
    m.insert(
        "wire.bytes_decoded",
        per(rep.counter("wire.bytes_decoded") as f64, n),
    );

    let cmds = commands(insts);
    let cmd_p50 = |verb: &str| {
        let t: Vec<f64> = cmds
            .iter()
            .filter(|(v, _)| *v == verb)
            .map(|(_, t)| *t)
            .collect();
        median(&t) * 1e3
    };
    m.insert("session.run_ms", e2e["debug_open_run_s"] * 1e3);
    m.insert("session.goto_p50_ms", cmd_p50("goto"));
    m.insert("session.rstep_p50_ms", cmd_p50("rstep"));
    m.insert("session.step_p50_ms", cmd_p50("step"));
    m.insert("session.rcont_p50_ms", cmd_p50("rcont"));

    let (exp, n) = tr.obs_of("explore");
    m.insert(
        "farm.jobs_claimed",
        per(exp.counter("farm.jobs_claimed") as f64, n),
    );
    m.insert(
        "farm.queue_wait_p50_ms",
        hist_p50(&exp, "farm.queue_wait_ns") / 1e6,
    );
    m.insert("explore.salt_ms", 1e3 / e2e["explore_salts_per_s"]);
    m.insert("bisect.prefix_replays", mean(&acc.bisect_replays));

    m.insert("store.stream_record_ms", med("store.stream_record_ms"));
    m.insert("store.write_ms", med("store.write_ms"));
    m.insert("store.open_ms", med("store.open_ms"));
    m.insert("wire.decode_ms", med("wire.decode_ms"));
    m.insert(
        "trace.overhead_pct",
        100.0 * tr.overhead_s / acc.verb_s.max(1e-9),
    );
    m
}
