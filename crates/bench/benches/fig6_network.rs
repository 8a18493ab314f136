//! Network-level benchmarks behind Fig. 6: simulation throughput of the
//! baseline vs the RB-instrumented network, and LS replay speed, on the
//! Ebone-scale topology.

use criterion::{criterion_group, criterion_main, Criterion};
use defined_core::{DefinedConfig, LockstepNet, RbNetwork};
use netsim::{NodeId, SimDuration, SimTime};
use routing::ospf::{OspfConfig, OspfProcess};
use topology::rocketfuel::{self, Isp};

fn spawners() -> (topology::Graph, Vec<OspfProcess>) {
    let g = rocketfuel::build(Isp::Ebone);
    let n = g.node_count();
    let f = OspfProcess::for_graph(&g, OspfConfig::stress(n));
    let spawn = (0..n).map(|i| f(NodeId(i as u32))).collect();
    drop(f);
    (g, spawn)
}

fn bench_production(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_production_run");
    group.sample_size(10);

    group.bench_function("baseline_2s", |b| {
        b.iter(|| {
            let (g, spawn) = spawners();
            let mut sim = defined_core::harness::baseline_network(
                &g,
                SimDuration::from_millis(250),
                1,
                0.3,
                move |id| spawn[id.index()].clone(),
            );
            sim.run_until(SimTime::from_secs(2));
            sim.metrics().total_sent()
        });
    });

    group.bench_function("defined_rb_2s", |b| {
        b.iter(|| {
            let (g, spawn) = spawners();
            let cfg = DefinedConfig {
                strategy: checkpoint::Strategy::MemIntercept,
                commit_horizon: Some(SimDuration::from_secs(2)),
                ..DefinedConfig::default()
            };
            let mut net = RbNetwork::new(&g, cfg, 1, 0.3, move |id| spawn[id.index()].clone());
            net.run_until(SimTime::from_secs(2));
            net.total_metrics().app_msgs_sent
        });
    });
    group.finish();
}

fn bench_ls_replay(c: &mut Criterion) {
    let (g, spawn) = spawners();
    let cfg = DefinedConfig::default();
    let s1 = spawn.clone();
    let mut net = RbNetwork::new(&g, cfg.clone(), 2, 0.3, move |id| s1[id.index()].clone());
    net.run_until(SimTime::from_secs(3));
    let (rec, _) = net.into_recording();

    let mut group = c.benchmark_group("fig6_ls_replay");
    group.sample_size(10);
    group.bench_function("replay_recording", |b| {
        b.iter(|| {
            let spawn = spawn.clone();
            let mut ls =
                LockstepNet::new(&g, cfg.clone(), rec.clone(), move |id| spawn[id.index()].clone());
            ls.run_to_end();
            ls.step_times().len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_production, bench_ls_replay);
criterion_main!(benches);
