//! The engine: compiles a [`Scenario`] onto the DEFINED record → replay
//! workflow. The protocol is dispatched once, by `Scenario::kit`; every
//! verb downstream of that match is generic over [`ControlPlane`] plus the
//! engine's `ScenarioProtocol` trait.

use crate::spec::{ExtSpec, Fault, Probe, ProtocolSpec};
use crate::{Scenario, ScenarioError};
use defined_core::bisect::{localise_fault_farm, BisectReport};
use defined_core::debugger::Debugger;
use defined_core::explore::ordering_survey_farm;
use defined_core::farm::JobPanic;
use defined_core::gvt::{gvt_estimate, GvtMonitor};
use defined_core::ls::first_divergence;
use defined_core::recorder::{trim_log, CommitRecord, Recording, TickRecord};
use defined_core::session::DebugSession;
use defined_core::wire::Wire;
use defined_core::{DefinedConfig, EventClass, FarmConfig, LockstepNet, RbNetwork};
use defined_obs as obs;
use defined_store::{FileIo, FsyncPolicy, StoreError, StoreMeta, StoreWriter};
use netsim::{NodeId, SimTime};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use routing::bgp::{BgpExt, BgpProcess};
use routing::ospf::OspfProcess;
use routing::rip::{RipExt, RipProcess};
use routing::ControlPlane;
use topology::Graph;

/// Everything a recorded production run yields: the serialised partial
/// recording, headline counts for reporting, the probe outcome, and the
/// committed logs a replay can be checked against.
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// The serialised partial recording ([`Recording::to_bytes`]).
    pub bytes: Vec<u8>,
    /// Highest group the production run completed.
    pub n_groups: u64,
    /// Recorded external events.
    pub n_externals: usize,
    /// Death cuts (nodes down at the end of the run).
    pub n_mutes: usize,
    /// Committed message losses.
    pub n_drops: usize,
    /// The probe's report on the production outcome, if any.
    pub outcome: Option<String>,
    /// Comparison frontier: groups `<= upto` are settled network-wide and
    /// must match between production and replay.
    pub upto: u64,
    /// Per-node committed delivery logs of the production run.
    pub logs: Vec<Vec<CommitRecord>>,
    /// GVT progression of the optimistic production run.
    pub gvt: GvtReport,
}

impl RecordedRun {
    /// One-line summary for CLI output.
    pub fn summary(&self, name: &str) -> String {
        format!(
            "recorded {name}: {} groups, {} externals, {} drop(s), {} death cut(s)",
            self.n_groups, self.n_externals, self.n_drops, self.n_mutes,
        )
    }
}

/// How the production run's global-virtual-time bound progressed — the
/// observable that makes an optimistic (Time Warp) run's stalls visible
/// instead of silent: a bound that stops advancing while rollbacks climb
/// means speculative work is being thrown away faster than it commits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GvtReport {
    /// GVT bound at the first sample.
    pub first: u64,
    /// GVT bound at the last sample.
    pub last: u64,
    /// Rollback floor (lowest group any node may still rewind to) at the
    /// last sample.
    pub floor: u64,
    /// Samples taken over the run.
    pub samples: usize,
    /// Whether the bound never regressed between samples (Theorem 2's
    /// monotonicity, observed).
    pub monotone: bool,
    /// Total bound advance summed over sample intervals.
    pub total_advance: u64,
    /// Rollbacks the production run performed, summed over nodes.
    pub rollbacks: u64,
    /// The effective checkpoint-capture policy the run used, rendered
    /// (e.g. `every 1` or `auto 1..64`).
    pub capture: String,
}

impl GvtReport {
    /// One-line CLI rendering.
    pub fn render(&self) -> String {
        format!(
            "gvt: bound {} -> {} over {} samples ({}), floor {}, {} rollback(s), capture {}",
            self.first,
            self.last,
            self.samples,
            if self.monotone { "monotone" } else { "NOT monotone" },
            self.floor,
            self.rollbacks,
            self.capture,
        )
    }
}

/// What the engine needs from a control plane beyond [`ControlPlane`]: how
/// a scenario injection maps onto the protocol's external events, and how
/// the outcome probe reads one node. A new protocol needs one impl of this
/// trait and one arm in [`Scenario::kit`].
trait ScenarioProtocol: ControlPlane<Msg: Wire, Ext: Wire> + Clone + Sync + 'static {
    /// The protocol's external event for `ev`; `None` when it does not fit.
    fn external(ev: &ExtSpec) -> Option<Self::Ext>;

    /// The probe's report, read off this control plane; `None` when the
    /// probe does not fit the protocol.
    fn outcome(&self, probe: &Probe) -> Option<String>;
}

impl ScenarioProtocol for RipProcess {
    fn external(ev: &ExtSpec) -> Option<RipExt> {
        match ev {
            ExtSpec::RipConnect { prefix } => Some(RipExt::Connect { prefix: *prefix }),
            _ => None,
        }
    }

    fn outcome(&self, probe: &Probe) -> Option<String> {
        match *probe {
            Probe::RipRoute { node, prefix } => {
                let via = self.route(prefix).and_then(|r| r.next_hop);
                Some(match via {
                    Some(nh) => format!("{node} routes {prefix} via {nh}"),
                    None => format!("{node} has no route to {prefix}"),
                })
            }
            _ => None,
        }
    }
}

impl ScenarioProtocol for OspfProcess {
    fn external(_ev: &ExtSpec) -> Option<()> {
        None // OSPF takes no runtime externals; validation rejects them.
    }

    fn outcome(&self, probe: &Probe) -> Option<String> {
        match *probe {
            Probe::OspfReachable { node } => {
                Some(format!("{node} reaches {} destinations", self.routing_table().len()))
            }
            _ => None,
        }
    }
}

impl ScenarioProtocol for BgpProcess {
    fn external(ev: &ExtSpec) -> Option<BgpExt> {
        match ev {
            ExtSpec::BgpAnnounce { prefix, attrs } => {
                Some(BgpExt::Announce { prefix: *prefix, attrs: *attrs })
            }
            ExtSpec::BgpWithdraw { prefix, route_id } => {
                Some(BgpExt::Withdraw { prefix: *prefix, route_id: *route_id })
            }
            _ => None,
        }
    }

    fn outcome(&self, probe: &Probe) -> Option<String> {
        match *probe {
            Probe::BgpBest { node, prefix } => {
                let best = self.best_path(prefix).map(|p| p.route_id);
                Some(match best {
                    Some(id) => format!("{node} selects p{id} for {prefix}"),
                    None => format!("{node} has no path to {prefix}"),
                })
            }
            _ => None,
        }
    }
}

/// The verbs over one protocol's processes, with the protocol type erased
/// so that [`Scenario::kit`] is the only code that names a protocol.
trait Verbs {
    fn record(self: Box<Self>, store: Option<&Path>) -> Result<RecordedRun, ScenarioError>;
    fn replay(&self, bytes: &[u8], shards: usize) -> Result<Vec<Vec<CommitRecord>>, ScenarioError>;
    fn debug(&self, bytes: &[u8], script: &str, shards: usize) -> Result<String, ScenarioError>;
    fn explore(
        &self,
        bytes: &[u8],
        salts: u64,
        farm: &FarmConfig,
    ) -> Result<ExploreReport, ScenarioError>;
    fn bisect(&self, bytes: &[u8], farm: &FarmConfig)
        -> Result<Option<BisectSummary>, ScenarioError>;
    fn verify(&self, bytes: &[u8], shards: usize) -> Result<VerifyReport, ScenarioError>;
}

/// One scenario's built graph and a fresh process per node of its protocol.
struct Kit<'s, P> {
    scn: &'s Scenario,
    g: Graph,
    procs: Vec<P>,
}

/// Streams a production run's recording into an on-disk store *while the
/// run is in flight*, so a crash mid-run loses at most one inter-sync
/// window instead of the whole recording.
///
/// Only committed state is durable: the drain frontier trails the GVT
/// bound by a safety margin, so every streamed frame is below the
/// rollback floor and can never be invalidated by a later Time-Warp
/// rewind. Frames the frontier never reached are appended at
/// [`finish`](Self::finish) from the final canonical recording.
struct StoreStreamer<X: Wire> {
    w: StoreWriter<X, FileIo>,
    /// Streamed externals, keyed `(node, ext_seq)`, valued by group — the
    /// value lets [`finish`](Self::finish) detect a streamed frame the
    /// canonical recording no longer contains.
    seen_ext: HashMap<(NodeId, u64), u64>,
    /// Streamed ticks, keyed `(node, group)`, valued by beacon source.
    seen_ticks: HashMap<(NodeId, u64), NodeId>,
    frontier: u64,
}

impl<X: Wire> StoreStreamer<X> {
    fn create(path: &Path, meta: &StoreMeta) -> Result<Self, StoreError> {
        let io = FileIo::create(path)?;
        Ok(StoreStreamer {
            w: StoreWriter::create(io, meta, FsyncPolicy::OnSync)?,
            seen_ext: HashMap::new(),
            seen_ticks: HashMap::new(),
            frontier: 0,
        })
    }

    /// Persists everything newly committed since the last drain and
    /// declares it durable with a sync point.
    fn drain<P>(&mut self, net: &RbNetwork<P>) -> Result<(), StoreError>
    where
        P: ControlPlane<Ext = X> + 'static,
    {
        let f = gvt_estimate(net).saturating_sub(2);
        if f <= self.frontier {
            return Ok(());
        }
        for e in net.externals_so_far() {
            if e.group <= f && self.seen_ext.insert((e.node, e.ext_seq), e.group).is_none() {
                self.w.append_ext(&e)?;
            }
        }
        for (i, log) in net.commit_logs().iter().enumerate() {
            let node = NodeId(i as u32);
            for r in log {
                if r.ann.class == EventClass::Beacon
                    && r.ann.group <= f
                    && self.seen_ticks.insert((node, r.ann.group), r.ann.origin).is_none()
                {
                    self.w.append_tick(&TickRecord {
                        node,
                        group: r.ann.group,
                        source: r.ann.origin,
                    })?;
                }
            }
        }
        self.frontier = f;
        self.w.sync_point(f)
    }

    /// Appends whatever the streaming frontier never reached — straggler
    /// externals and ticks, the drops and death cuts (only knowable at
    /// finalisation) — then closes the store with the commit logs.
    ///
    /// One wrinkle: a node restart discards that node's pre-crash
    /// committed log (DESIGN.md §7), so frames this streamer durably wrote
    /// mid-run can be absent from the final canonical recording. The file
    /// is append-only, so when that happens the streamed content is
    /// retracted with a [`StoreWriter::reset`] tombstone and the canonical
    /// recording is appended whole — the finished store always opens to
    /// exactly `rec`, while a torn (pre-finish) file still recovers the
    /// streamed prefix, which was committed truth at the time it synced.
    fn finish(
        mut self,
        rec: &Recording<X>,
        commits: &[Vec<CommitRecord>],
        upto: u64,
    ) -> Result<(), StoreError> {
        let rec_ext: HashSet<(NodeId, u64, u64)> =
            rec.externals.iter().map(|e| (e.node, e.ext_seq, e.group)).collect();
        let rec_ticks: HashSet<(NodeId, u64, NodeId)> =
            rec.ticks.iter().map(|t| (t.node, t.group, t.source)).collect();
        // Ticks past `last_group` are dropped on open regardless, so only
        // in-range stragglers count as superseded.
        let superseded = self
            .seen_ext
            .iter()
            .any(|(&(node, seq), &group)| !rec_ext.contains(&(node, seq, group)))
            || self.seen_ticks.iter().any(|(&(node, group), &source)| {
                group <= rec.last_group && !rec_ticks.contains(&(node, group, source))
            });
        if superseded {
            self.w.reset()?;
            self.seen_ext.clear();
            self.seen_ticks.clear();
        }
        for e in &rec.externals {
            if !self.seen_ext.contains_key(&(e.node, e.ext_seq)) {
                self.w.append_ext(e)?;
            }
        }
        for t in &rec.ticks {
            if !self.seen_ticks.contains_key(&(t.node, t.group)) {
                self.w.append_tick(t)?;
            }
        }
        for d in &rec.drops {
            self.w.append_drop(d)?;
        }
        for m in &rec.mutes {
            self.w.append_mute(m)?;
        }
        self.w.finish(rec.last_group, upto, commits)?;
        Ok(())
    }
}

impl Scenario {
    /// Checks the description for internal consistency: node and link
    /// references resolve in the topology, injections fit the protocol,
    /// fault parameters are well-formed, and event times fall inside the
    /// run.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.checked_build().map(|_| ())
    }

    /// Validates the topology parameters, builds the graph, and validates
    /// the rest of the scenario against it — the one entry point every run
    /// path shares, so no untrusted spec reaches a generator panic.
    fn checked_build(&self) -> Result<Graph, ScenarioError> {
        self.topology.check().map_err(ScenarioError::Invalid)?;
        let g = self.topology.build();
        self.validate_on(&g)?;
        Ok(g)
    }

    /// The run configuration every engine path shares: the defaults plus
    /// this scenario's checkpoint-capture policy.
    fn run_config(&self) -> DefinedConfig {
        DefinedConfig { capture: self.capture, ..DefinedConfig::default() }
    }

    /// [`validate`](Self::validate) against an already-built graph, so the
    /// run paths build the (possibly generator-backed) topology once.
    fn validate_on(&self, g: &Graph) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::Invalid(msg));
        let n = g.node_count();
        let end = SimTime::ZERO + self.duration;
        let check_node = |node: NodeId, what: &str| {
            if node.index() >= n {
                err(format!("{what} references node {node} but the topology has {n} nodes"))
            } else {
                Ok(())
            }
        };
        let check_edge = |a: NodeId, b: NodeId, what: &str| {
            if a.index() >= n || b.index() >= n || !g.has_edge(a, b) {
                err(format!("{what} references link {a}—{b}, which the topology lacks"))
            } else {
                Ok(())
            }
        };
        if self.duration == netsim::SimDuration::ZERO {
            return err("duration must be positive".into());
        }
        if !(0.0..=2.0).contains(&self.jitter_frac) {
            return err(format!("jitter fraction {} out of range [0, 2]", self.jitter_frac));
        }
        if matches!(self.protocol, ProtocolSpec::Bgp { .. })
            && self.topology.fig4_roles().is_none()
        {
            return err("the BGP protocol requires the fig4-bgp topology (role assignment)".into());
        }
        for inj in &self.workload {
            check_node(inj.node, "an injection")?;
            if !inj.ev.fits(&self.protocol) {
                return err(format!(
                    "injection {:?} does not fit protocol {}",
                    inj.ev,
                    self.protocol.name()
                ));
            }
            if inj.at > end {
                return err(format!("injection at {} lands after the {} run", inj.at, end));
            }
        }
        let mut loss_windows: Vec<(NodeId, NodeId, SimTime, SimTime)> = Vec::new();
        for f in &self.faults {
            let start = match f {
                Fault::NodeDown { at, .. }
                | Fault::NodeUp { at, .. }
                | Fault::LinkDown { at, .. }
                | Fault::LinkUp { at, .. }
                | Fault::LinkFlap { at, .. }
                | Fault::Partition { at, .. } => *at,
                Fault::LossWindow { from, .. } => *from,
            };
            if start > end {
                return err(format!("a fault at {start} lands after the {end} run"));
            }
            match f {
                Fault::NodeDown { node, .. } | Fault::NodeUp { node, .. } => {
                    check_node(*node, "a node fault")?;
                }
                Fault::LinkDown { a, b, .. } | Fault::LinkUp { a, b, .. } => {
                    check_edge(*a, *b, "a link fault")?;
                }
                Fault::LinkFlap { a, b, down_for, period, count, .. } => {
                    check_edge(*a, *b, "a link flap")?;
                    if down_for >= period {
                        return err(format!(
                            "flap down time {down_for} must be shorter than its period {period}"
                        ));
                    }
                    if *count == 0 {
                        return err("a flap needs at least one cycle".into());
                    }
                }
                Fault::Partition { side, heal, at } => {
                    let unique: std::collections::BTreeSet<NodeId> = side.iter().copied().collect();
                    if unique.is_empty() || unique.len() >= n {
                        return err("a partition side must be a nonempty proper node subset".into());
                    }
                    for &node in side {
                        check_node(node, "a partition")?;
                    }
                    if let Some(h) = heal {
                        if h <= at {
                            return err(format!("partition heal {h} precedes its cut {at}"));
                        }
                        if *h > end {
                            return err(format!("partition heal {h} lands after the {end} run"));
                        }
                    }
                }
                Fault::LossWindow { from, until, a, b, p } => {
                    check_edge(*a, *b, "a loss window")?;
                    if !(0.0..=1.0).contains(p) {
                        return err(format!("loss probability {p} out of range [0, 1]"));
                    }
                    if until <= from {
                        return err(format!("loss window end {until} precedes its start {from}"));
                    }
                    // Windows install/clear a per-link loss model, so two
                    // overlapping windows on one link would silently
                    // truncate each other.
                    let (lo, hi) = if a.0 <= b.0 { (*a, *b) } else { (*b, *a) };
                    for &(wa, wb, wf, wu) in &loss_windows {
                        if (wa, wb) == (lo, hi) && *from < wu && wf < *until {
                            return err(format!(
                                "overlapping loss windows on link {lo}—{hi} \
                                 ({wf}..{wu} and {from}..{until})"
                            ));
                        }
                    }
                    loss_windows.push((lo, hi, *from, *until));
                }
            }
        }
        match (&self.probe, &self.protocol) {
            (Probe::None, _) => {}
            (Probe::RipRoute { node, .. }, ProtocolSpec::Rip { .. })
            | (Probe::OspfReachable { node }, ProtocolSpec::Ospf)
            | (Probe::BgpBest { node, .. }, ProtocolSpec::Bgp { .. }) => {
                check_node(*node, "the probe")?;
            }
            (p, proto) => {
                return err(format!("probe {p:?} does not fit protocol {}", proto.name()));
            }
        }
        Ok(())
    }

    /// The one protocol dispatch: validates the scenario, builds its graph
    /// and its protocol's processes, and hands back the verbs over them.
    fn kit(&self) -> Result<Box<dyn Verbs + '_>, ScenarioError> {
        let g = self.checked_build()?;
        let kit: Box<dyn Verbs + '_> = match self.protocol {
            ProtocolSpec::Rip { mode } => {
                Box::new(Kit { scn: self, procs: crate::registry::rip_processes(&g, mode), g })
            }
            ProtocolSpec::Ospf => {
                Box::new(Kit { scn: self, procs: crate::registry::ospf_processes(&g), g })
            }
            ProtocolSpec::Bgp { mode } => {
                let roles = self.topology.fig4_roles().expect("validated");
                let procs = crate::registry::bgp_fig4_processes(&roles, mode);
                Box::new(Kit { scn: self, procs, g })
            }
        };
        Ok(kit)
    }

    /// Runs the instrumented production network and extracts the partial
    /// recording (the `record` half of the workflow).
    pub fn record_run(&self) -> Result<RecordedRun, ScenarioError> {
        self.kit()?.record(None)
    }

    /// [`record_run`](Self::record_run), additionally *streaming* the
    /// recording into an on-disk store at `path` as the run progresses:
    /// committed frames are appended and fsynced at every sync point, so a
    /// crash mid-run leaves a recoverable prefix instead of nothing. The
    /// returned [`RecordedRun`] is identical to the store-less path.
    pub fn record_run_to_store(&self, path: &Path) -> Result<RecordedRun, ScenarioError> {
        self.kit()?.record(Some(path))
    }

    /// Replays a serialised recording in lockstep, with the replay's waves
    /// executed across `shards` worker shards (`0` = auto), and returns the
    /// per-node committed logs (for equivalence checks against
    /// [`RecordedRun::logs`]). The logs are byte-identical for every shard
    /// count — the `--shards` self-check in `defined-dbg record` leans on
    /// this.
    pub fn replay_logs_sharded(
        &self,
        bytes: &[u8],
        shards: usize,
    ) -> Result<Vec<Vec<CommitRecord>>, ScenarioError> {
        self.kit()?.replay(bytes, shards)
    }

    /// Loads a serialised recording into a debugging network and drives a
    /// scripted [`DebugSession`] over it, returning the transcript (the
    /// `debug` half of the workflow). Deterministic: the same recording and
    /// script always produce the same transcript. The replay is sharded
    /// `shards` ways (`0` = auto); interactive stepping is wave-serial
    /// either way, sharding accelerates the bulk moves (`run`, `stepg`,
    /// checkpoint re-execution) and never changes the transcript.
    pub fn debug_transcript_sharded(
        &self,
        bytes: &[u8],
        script: &str,
        shards: usize,
    ) -> Result<String, ScenarioError> {
        self.kit()?.debug(bytes, script, shards)
    }

    /// Sweeps `salts` permuted orderings over a recording on the replay
    /// farm, using the scenario's outcome probe as the search predicate:
    /// the baseline is the probe outcome of the replay under the production
    /// ordering, and a salt "hits" when its outcome differs. Deterministic
    /// for every `farm.jobs` and `farm.shards` value (the earliest divergent
    /// salt is reported, not the first to finish).
    pub fn explore_run(
        &self,
        bytes: &[u8],
        salts: u64,
        farm: &FarmConfig,
    ) -> Result<ExploreReport, ScenarioError> {
        let kit = self.kit()?;
        self.require_probe()?;
        kit.explore(bytes, salts, farm)
    }

    /// Localises when the scenario's final probe outcome was established:
    /// bisects the recording on the replay farm for the earliest group
    /// whose prefix replay already reports the full run's outcome, then
    /// steps that group for the exact event. Returns `Ok(None)` only for
    /// degenerate (group-less) recordings.
    ///
    /// Like [`defined_core::bisect::first_bad_group_farm`], the bisection
    /// assumes the predicate
    /// — "the probe already reports the final outcome" — is *monotone*
    /// over prefixes, which holds when the outcome persists once
    /// established (the case-study bugs: a wrong best path, a stuck stale
    /// route). On scenarios whose outcome oscillates before settling
    /// (flap/heal/restart schedules where the final state matches an
    /// early transient), the located group is a heuristic: its prefix
    /// provably reports the outcome and the probed predecessors did not,
    /// but an intervening un-establishment may exist. The located group is
    /// still a pure function of the recording (never of `farm.jobs` or
    /// `farm.shards`).
    pub fn bisect_run(
        &self,
        bytes: &[u8],
        farm: &FarmConfig,
    ) -> Result<Option<BisectSummary>, ScenarioError> {
        let kit = self.kit()?;
        self.require_probe()?;
        kit.bisect(bytes, farm)
    }

    /// Verifies an on-disk recording store end to end: structural
    /// integrity (every frame CRC, self-check tallies), then a fresh
    /// lockstep replay checked entry-by-entry against the commit logs the
    /// production run stored. Strict: a store that needed torn-tail
    /// recovery, or whose bytes were corrupted anywhere, is a typed
    /// [`ScenarioError::Store`] — never a panic, never a silent pass.
    pub fn verify_store(&self, bytes: &[u8], shards: usize) -> Result<VerifyReport, ScenarioError> {
        self.kit()?.verify(bytes, shards)
    }

    fn require_probe(&self) -> Result<(), ScenarioError> {
        if matches!(self.probe, Probe::None) {
            return Err(ScenarioError::Invalid(format!(
                "scenario {} has no outcome probe to compile into a search predicate",
                self.name
            )));
        }
        Ok(())
    }
}

impl<P: ScenarioProtocol> Kit<'_, P> {
    /// Node `i` of a fresh network runs a clone of `procs[i]`.
    fn spawn(&self) -> impl Fn(NodeId) -> P + Sync + '_ {
        |id: NodeId| self.procs[id.index()].clone()
    }

    /// The lockstep replayer every verb builds: the scenario's run
    /// configuration and fresh processes, with waves across `shards`
    /// worker shards.
    fn lockstep(&self, rec: Recording<P::Ext>, shards: usize) -> LockstepNet<P> {
        LockstepNet::new(&self.g, self.scn.run_config(), rec, self.spawn()).with_shards(shards)
    }

    /// Decodes a recording and [`check`](Self::check)s it against this
    /// network.
    ///
    /// Accepts both serialisations transparently: the on-disk store format
    /// (sniffed by its magic; torn tails recover to the last sync point,
    /// corruption is a typed [`ScenarioError::Store`]) and the raw in-memory
    /// [`Recording::to_bytes`] framing.
    fn decode(&self, bytes: &[u8]) -> Result<Recording<P::Ext>, ScenarioError> {
        let rec = if defined_store::is_store(bytes) {
            defined_store::open_bytes::<P::Ext>(bytes)?.recording
        } else {
            Recording::<P::Ext>::from_bytes(bytes).ok_or(ScenarioError::BadRecording)?
        };
        self.check(rec)
    }

    /// Checks that a decoded recording was taken on a network of this
    /// scenario's size and names no node outside it — externals, ticks and
    /// their beacon sources, losses, and death cuts. The replayer indexes
    /// its node tables by these ids, so a recording from a different-sized
    /// scenario, or a corrupted one, must be a clean
    /// [`ScenarioError::BadRecording`] here rather than a panic there.
    fn check(&self, rec: Recording<P::Ext>) -> Result<Recording<P::Ext>, ScenarioError> {
        let n = self.g.node_count();
        let mut ids = rec.externals.iter().map(|e| e.node)
            .chain(rec.ticks.iter().flat_map(|t| [t.node, t.source]))
            .chain(rec.drops.iter().map(|d| d.sender))
            .chain(rec.mutes.iter().map(|m| m.node));
        if rec.n_nodes != n || ids.any(|id| id.index() >= n) {
            return Err(ScenarioError::BadRecording);
        }
        Ok(rec)
    }

    /// The probe's report on a replay; the caller has checked that the
    /// scenario has a probe.
    fn probe(&self, ls: &LockstepNet<P>) -> String {
        let node = self.scn.probe.node().expect("probe checked");
        ls.control_plane(node).outcome(&self.scn.probe).expect("probe fits the protocol")
    }
}

impl<P: ScenarioProtocol> Verbs for Kit<'_, P> {
    /// Builds the RB-instrumented production network, applies the workload
    /// and fault schedule, runs to the deadline, and extracts the recording.
    fn record(self: Box<Self>, store: Option<&Path>) -> Result<RecordedRun, ScenarioError> {
        let Kit { scn, g, procs } = *self;
        let mut net = RbNetwork::new(&g, scn.run_config(), scn.seed, scn.jitter_frac, {
            move |id: NodeId| procs[id.index()].clone()
        });
        let mut streamer = match store {
            Some(path) => {
                let meta = StoreMeta {
                    n_nodes: g.node_count(),
                    source: net.initial_source(),
                    scenario: scn.name.clone(),
                };
                Some(StoreStreamer::create(path, &meta)?)
            }
            None => None,
        };
        for inj in &scn.workload {
            let ev = P::external(&inj.ev).ok_or_else(|| {
                ScenarioError::Invalid(format!("injection {:?} does not fit the protocol", inj.ev))
            })?;
            net.inject_external(inj.at, inj.node, ev);
        }
        for f in &scn.faults {
            match f {
                Fault::NodeDown { at, node } => net.schedule_node(*at, *node, false),
                Fault::NodeUp { at, node } => net.schedule_node(*at, *node, true),
                Fault::LinkDown { at, a, b } => net.schedule_link(*at, *a, *b, false),
                Fault::LinkUp { at, a, b } => net.schedule_link(*at, *a, *b, true),
                Fault::LinkFlap { at, a, b, down_for, period, count } => {
                    net.schedule_flap(*at, *a, *b, *down_for, *period, *count);
                }
                Fault::Partition { at, heal, side } => {
                    net.schedule_partition(*at, *heal, side);
                }
                Fault::LossWindow { from, until, a, b, p } => {
                    net.schedule_loss_window(*from, *until, *a, *b, *p);
                }
            }
        }
        // Run in beacon-sized slices, sampling the GVT bound at each — the
        // simulator is a pure event pump, so incremental `run_until` calls
        // commit the identical execution as one call to the deadline.
        let end = SimTime::ZERO + scn.duration;
        let slice = DefinedConfig::default().beacon_interval * 4;
        let mut monitor = GvtMonitor::new();
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + slice).min(end);
            net.run_until(t);
            monitor.observe(&net);
            if let Some(s) = streamer.as_mut() {
                s.drain(&net)?;
            }
        }
        let outcome = scn.probe.node().and_then(|node| net.control_plane(node).outcome(&scn.probe));
        let upto = net.completed_group(2);
        // Publish the production run's rollback tallies as gauge-style
        // counters (§11): every subcommand that records can then surface
        // the same `gvt:` line from the obs snapshot alone.
        let m = net.total_metrics();
        obs::counter!("rb.rollbacks").set(m.rollbacks);
        obs::counter!("rb.rolled_entries").set(m.rolled_entries);
        obs::counter!("rb.unsend_msgs").set(m.unsend_msgs);
        obs::counter!("rb.fast_path").set(m.fast_path);
        let samples = monitor.samples();
        let gvt = GvtReport {
            first: samples.first().map(|s| s.gvt).unwrap_or(0),
            last: samples.last().map(|s| s.gvt).unwrap_or(0),
            floor: samples.last().map(|s| s.floor).unwrap_or(0),
            samples: samples.len(),
            monotone: monitor.is_monotone(),
            total_advance: monitor.total_advance(),
            rollbacks: m.rollbacks,
            capture: scn.capture.to_string(),
        };
        let (rec, logs) = net.into_recording();
        if let Some(s) = streamer {
            // Store the commit logs trimmed to the comparison horizon: that
            // is exactly the prefix `verify` replays against, and groups
            // past `upto` are not settled network-wide anyway.
            let trimmed: Vec<Vec<CommitRecord>> =
                logs.iter().map(|l| trim_log(l, upto)).collect();
            s.finish(&rec, &trimmed, upto)?;
        }
        Ok(RecordedRun {
            bytes: rec.to_bytes(),
            n_groups: rec.last_group,
            n_externals: rec.externals.len(),
            n_mutes: rec.mutes.len(),
            n_drops: rec.drops.len(),
            outcome,
            upto,
            logs,
            gvt,
        })
    }

    fn replay(&self, bytes: &[u8], shards: usize) -> Result<Vec<Vec<CommitRecord>>, ScenarioError> {
        let mut ls = self.lockstep(self.decode(bytes)?, shards);
        ls.run_to_end();
        Ok(ls.logs().to_vec())
    }

    fn debug(&self, bytes: &[u8], script: &str, shards: usize) -> Result<String, ScenarioError> {
        let ls = self.lockstep(self.decode(bytes)?, shards);
        let mut session = DebugSession::new(Debugger::new(ls), self.g.node_count());
        Ok(session.run_script(script))
    }

    fn explore(
        &self,
        bytes: &[u8],
        salts: u64,
        farm: &FarmConfig,
    ) -> Result<ExploreReport, ScenarioError> {
        let rec = self.decode(bytes)?;
        let mut base = self.lockstep(rec.clone(), farm.shards);
        base.run_to_end();
        let baseline = self.probe(&base);
        // One sweep yields everything the report needs: each salt's outcome
        // string, from which both the sensitivity tally and the earliest
        // divergence fall out — half the replays of a find-then-count pair.
        let read = |ls: &LockstepNet<P>| self.probe(ls);
        let cfg = self.scn.run_config();
        let outcomes =
            ordering_survey_farm(&self.g, &cfg, &rec, self.spawn(), 0..salts, read, farm);
        let mut divergent = 0;
        let mut found = None;
        let mut failures = Vec::new();
        for (i, o) in outcomes.into_iter().enumerate() {
            match o {
                Ok(o) if o != baseline => {
                    divergent += 1;
                    if found.is_none() {
                        found = Some((i as u64, o));
                    }
                }
                Ok(_) => {}
                Err(p) => failures.push(p),
            }
        }
        Ok(ExploreReport { baseline, found, divergent, total: salts as usize, failures })
    }

    fn bisect(
        &self,
        bytes: &[u8],
        farm: &FarmConfig,
    ) -> Result<Option<BisectSummary>, ScenarioError> {
        let rec = self.decode(bytes)?;
        let mut full = self.lockstep(rec.clone(), farm.shards);
        full.run_to_end();
        let target = self.probe(&full);
        // The speculation width fixes the probe *schedule*; keeping it
        // constant (rather than tied to `jobs`) makes the rendered report —
        // replay count included — byte-identical for every `--jobs` value.
        let farm = FarmConfig { speculation: 4, ..*farm };
        let bad = |ls: &LockstepNet<P>| self.probe(ls) == target;
        let cfg = self.scn.run_config();
        // One call shares the probe sessions between the group bisection
        // and the event scan, so the scan seeds from their checkpoints.
        let Some((report, located)) =
            localise_fault_farm(&self.g, &cfg, &rec, self.spawn(), bad, &farm)
        else {
            return Ok(None); // Only a degenerate group-less recording.
        };
        let event = located.map(|(ev, _)| {
            format!("[g{} c{}] {} @ {}", ev.group, ev.chain, ev.record.ann.class, ev.node)
        });
        Ok(Some(BisectSummary { outcome: target, report, event }))
    }

    fn verify(&self, bytes: &[u8], shards: usize) -> Result<VerifyReport, ScenarioError> {
        let r = defined_store::open_bytes_strict::<P::Ext>(bytes)?;
        let rec = self.check(r.recording)?;
        let commits = r.commits.expect("strict open only passes finished stores");
        let upto = r.upto.expect("strict open only passes finished stores");
        let last_group = rec.last_group;
        let mut ls = self.lockstep(rec, shards);
        ls.run_to_end();
        let divergence = first_divergence(&commits, ls.logs(), upto).map(|(node, i, a, b)| {
            format!("node {node}, entry {i}: stored {a:?}, replay {b:?}")
        });
        let checked_entries = commits.iter().map(|l| trim_log(l, upto).len()).sum();
        Ok(VerifyReport {
            scenario: r.info.scenario,
            frames: r.info.frames,
            last_group,
            upto,
            checked_nodes: commits.len(),
            checked_entries,
            divergence,
        })
    }
}

/// What an ordering sweep over a scenario's recording found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Probe outcome of the replay under the production ordering.
    pub baseline: String,
    /// Earliest salt whose replay reports a different outcome, with that
    /// outcome — `None` when every swept ordering agrees with the baseline.
    pub found: Option<(u64, String)>,
    /// How many swept salts diverge from the baseline.
    pub divergent: usize,
    /// How many salts were swept.
    pub total: usize,
    /// Jobs whose probe panicked even after a retry and a serial fallback;
    /// their salts are excluded from the tallies above. Surfaced instead
    /// of aborting the sweep — one poisoned salt should not cost the rest.
    pub failures: Vec<JobPanic>,
}

impl ExploreReport {
    /// Multi-line CLI rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "baseline outcome: {}\nsensitivity: {}/{} orderings diverge\n",
            self.baseline, self.divergent, self.total
        );
        match &self.found {
            Some((salt, outcome)) => {
                out.push_str(&format!("first divergence: salt {salt} -> {outcome}\n"));
            }
            None => out.push_str("no divergent ordering in the swept range\n"),
        }
        for p in &self.failures {
            out.push_str(&format!("WARNING: {p}; its salt is excluded from the sweep\n"));
        }
        out
    }
}

/// Where a scenario's final probe outcome was established (assuming it
/// persisted from there — see [`Scenario::bisect_run`] on monotonicity).
#[derive(Clone, Debug)]
pub struct BisectSummary {
    /// The full replay's probe outcome (the state being localised).
    pub outcome: String,
    /// Group-level bisection result.
    pub report: BisectReport,
    /// The exact delivery inside the located group that established the
    /// outcome, rendered for display; `None` when the outcome appears only
    /// at the group boundary itself.
    pub event: Option<String>,
}

impl BisectSummary {
    /// Multi-line CLI rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "outcome: {}\nestablished by group {} ({} prefix replays)\n",
            self.outcome, self.report.first_bad_group, self.report.replays
        );
        match &self.event {
            Some(ev) => out.push_str(&format!("culprit event: {ev}\n")),
            None => out.push_str("culprit event: at the group boundary (no single delivery)\n"),
        }
        if let Some((bad, healthy)) = self.report.oscillation {
            out.push_str(&format!(
                "WARNING: the predicate oscillates — group {bad} already reports the \
                 outcome but later group {healthy} does not; the located group is where \
                 it *last* became established, not a provable first cause\n"
            ));
        }
        out
    }
}

/// What [`Scenario::verify_store`] checked and found.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Scenario name recorded in the store's meta frame.
    pub scenario: String,
    /// Valid frames in the store.
    pub frames: usize,
    /// Highest group the stored run completed.
    pub last_group: u64,
    /// Comparison horizon: groups `<= upto` are settled network-wide and
    /// were checked against the replay.
    pub upto: u64,
    /// Nodes whose commit logs were compared.
    pub checked_nodes: usize,
    /// Commit-log entries compared (trimmed to the horizon).
    pub checked_entries: usize,
    /// First replay/stored mismatch, rendered — `None` when the replay
    /// matches the stored logs exactly.
    pub divergence: Option<String>,
}

impl VerifyReport {
    /// Whether verification passed.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }

    /// Multi-line CLI rendering.
    pub fn render(&self) -> String {
        let head = format!(
            "scenario {}: {} frames, last group {}, replay horizon {}\n",
            self.scenario, self.frames, self.last_group, self.upto,
        );
        match &self.divergence {
            Some(d) => format!(
                "{head}VERIFY FAILED: replay diverges from the stored commit log\n  {d}\n"
            ),
            None => format!(
                "{head}verify ok: {} commit-log entries across {} node(s) match a fresh replay\n",
                self.checked_entries, self.checked_nodes,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Injection;
    use defined_core::ls::first_divergence;
    use netsim::SimDuration;

    fn mini_ospf() -> Scenario {
        Scenario {
            name: "mini".into(),
            description: "4-ring OSPF with one link fault".into(),
            topology: TopologySpec::Ring { n: 4, delay: SimDuration::from_millis(4) },
            protocol: ProtocolSpec::Ospf,
            seed: 5,
            jitter_frac: 0.4,
            duration: SimDuration::from_secs(3),
            workload: vec![],
            faults: vec![Fault::LinkDown {
                at: SimTime::from_millis(1500),
                a: NodeId(0),
                b: NodeId(1),
            }],
            probe: Probe::OspfReachable { node: NodeId(2) },
            capture: defined_core::config::CapturePolicy::default(),
        }
    }

    use crate::spec::TopologySpec;

    #[test]
    fn record_replay_debug_cycle() {
        let scn = mini_ospf();
        let run = scn.record_run().expect("records");
        assert!(run.n_groups >= 5);
        assert_eq!(run.outcome.as_deref(), Some("n2 reaches 3 destinations"));
        let ls = scn.replay_logs_sharded(&run.bytes, 1).expect("replays");
        assert!(first_divergence(&run.logs, &ls, run.upto).is_none());
        let t1 = scn.debug_transcript_sharded(&run.bytes, "stepg 2\nwhere\n", 1).expect("debugs");
        let t2 = scn.debug_transcript_sharded(&run.bytes, "stepg 2\nwhere\n", 1).expect("debugs again");
        assert_eq!(t1, t2);
        assert!(t1.contains("group"), "{t1}");
    }

    #[test]
    fn recorded_run_carries_a_gvt_report() {
        let run = mini_ospf().record_run().expect("records");
        let gvt = &run.gvt;
        assert!(gvt.samples >= 2, "too few GVT samples: {gvt:?}");
        assert!(gvt.monotone, "GVT bound regressed: {gvt:?}");
        assert!(gvt.last >= gvt.first, "{gvt:?}");
        assert_eq!(gvt.total_advance, gvt.last - gvt.first, "{gvt:?}");
        assert!(gvt.floor <= gvt.last, "fossil floor beyond the bound: {gvt:?}");
        let line = gvt.render();
        assert!(line.starts_with("gvt: bound"), "{line}");
        assert!(line.contains("rollback"), "{line}");
        // The report is a pure function of the scenario: re-recording
        // reproduces it exactly.
        assert_eq!(run.gvt, mini_ospf().record_run().expect("re-records").gvt);
    }

    #[test]
    fn sharded_scenario_replay_matches_serial() {
        let scn = mini_ospf();
        let run = scn.record_run().expect("records");
        let serial = scn.replay_logs_sharded(&run.bytes, 1).expect("serial");
        for shards in [2usize, 3] {
            assert_eq!(
                scn.replay_logs_sharded(&run.bytes, shards).expect("sharded"),
                serial,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn bad_recordings_are_rejected() {
        let scn = mini_ospf();
        assert!(matches!(
            scn.debug_transcript_sharded(b"garbage", "step\n", 1),
            Err(ScenarioError::BadRecording)
        ));
        assert!(matches!(scn.replay_logs_sharded(&[1, 2, 3], 1), Err(ScenarioError::BadRecording)));
    }

    #[test]
    fn validation_rejects_mismatches() {
        // BGP off the Fig. 4 topology.
        let mut scn = mini_ospf();
        scn.protocol = ProtocolSpec::Bgp { mode: routing::bgp::DecisionMode::CorrectFull };
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // An injection that does not fit the protocol.
        let mut scn = mini_ospf();
        scn.workload.push(Injection {
            at: SimTime::from_millis(100),
            node: NodeId(0),
            ev: ExtSpec::RipConnect { prefix: 7 },
        });
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A fault on a link the topology lacks (0—2 is a chord of the ring).
        let mut scn = mini_ospf();
        scn.faults.push(Fault::LinkDown {
            at: SimTime::from_millis(100),
            a: NodeId(0),
            b: NodeId(2),
        });
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A probe that does not fit the protocol.
        let mut scn = mini_ospf();
        scn.probe = Probe::RipRoute { node: NodeId(0), prefix: 7 };
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A fault scheduled after the end of the run would silently never
        // fire and report a misleading healthy outcome.
        let mut scn = mini_ospf();
        scn.faults.push(Fault::LinkDown {
            at: SimTime::from_secs(10),
            a: NodeId(0),
            b: NodeId(1),
        });
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // Overlapping loss windows on one link (either orientation) would
        // truncate each other when the first window's end clears the model.
        let mut scn = mini_ospf();
        scn.faults = vec![
            Fault::LossWindow {
                from: SimTime::from_millis(500),
                until: SimTime::from_millis(2500),
                a: NodeId(1),
                b: NodeId(2),
                p: 0.5,
            },
            Fault::LossWindow {
                from: SimTime::from_millis(2000),
                until: SimTime::from_millis(2800),
                a: NodeId(2),
                b: NodeId(1),
                p: 0.9,
            },
        ];
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // A partition heal after the run end would silently never heal.
        let mut scn = mini_ospf();
        scn.faults = vec![Fault::Partition {
            at: SimTime::from_millis(500),
            heal: Some(SimTime::from_secs(50)),
            side: vec![NodeId(0)],
        }];
        assert!(matches!(scn.record_run(), Err(ScenarioError::Invalid(_))));

        // Duplicate ids in a partition side are harmless — the *set* must be
        // a proper subset, not the raw list length.
        let mut scn = mini_ospf();
        scn.faults = vec![Fault::Partition {
            at: SimTime::from_millis(500),
            heal: None,
            side: vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)],
        }];
        assert!(scn.validate().is_ok());
    }

    /// A recording from a different-sized network, or a right-sized one
    /// that names a node the network lacks — an external's target, a
    /// tick's node or its beacon source — is BadRecording from every verb,
    /// raw or store-framed, never a size-assert or index panic inside the
    /// replayer.
    #[test]
    fn wrong_size_recording_is_rejected_cleanly() {
        use defined_core::recorder::ExtRecord;
        let scn = mini_ospf();
        let run = scn.record_run().expect("records");
        let mut big = mini_ospf();
        big.topology = TopologySpec::Ring { n: 5, delay: SimDuration::from_millis(4) };
        assert!(matches!(big.replay_logs_sharded(&run.bytes, 1), Err(ScenarioError::BadRecording)));
        assert!(matches!(
            big.debug_transcript_sharded(&run.bytes, "step\n", 1),
            Err(ScenarioError::BadRecording)
        ));
        let good = Recording::<()>::from_bytes(&run.bytes).expect("decodes");
        let edited = |edit: &dyn Fn(&mut Recording<()>)| {
            let mut rec = good.clone();
            edit(&mut rec);
            rec
        };
        let far = NodeId(99);
        let cases = [
            edited(&|r| r.n_nodes = 5),
            edited(&|r| r.ticks.push(TickRecord { node: far, group: 1, source: NodeId(0) })),
            edited(&|r| r.ticks.push(TickRecord { node: NodeId(0), group: 1, source: far })),
            edited(&|r| {
                r.externals.push(ExtRecord { node: far, ext_seq: 0, group: 1, payload: () })
            }),
        ];
        let farm = FarmConfig::serial();
        let is_bad = |r: Result<(), ScenarioError>| matches!(r, Err(ScenarioError::BadRecording));
        for rec in &cases {
            let meta =
                StoreMeta { n_nodes: rec.n_nodes, source: rec.source, scenario: scn.name.clone() };
            let mut logs = run.logs.clone();
            logs.resize(rec.n_nodes, Vec::new());
            let store = defined_store::write_recording(
                defined_store::VecIo::new(),
                &meta,
                rec,
                &logs,
                run.upto,
                4,
                FsyncPolicy::Never,
            )
            .expect("writes")
            .bytes;
            assert!(is_bad(scn.verify_store(&store, 1).map(drop)), "verify: {rec:?}");
            for bytes in [rec.to_bytes(), store] {
                assert!(is_bad(scn.replay_logs_sharded(&bytes, 1).map(drop)), "replay: {rec:?}");
                assert!(is_bad(scn.debug_transcript_sharded(&bytes, "run\n", 1).map(drop)));
                assert!(is_bad(scn.explore_run(&bytes, 2, &farm).map(drop)), "explore: {rec:?}");
                assert!(is_bad(scn.bisect_run(&bytes, &farm).map(drop)), "bisect: {rec:?}");
            }
        }
    }
}
