//! The generated inputs: every seed yields scenarios that parse, validate
//! and record under the product default, and no benchmark source selects
//! a bench-only configuration.

use defined_core::config::CapturePolicy;
use perfbench::bench::Workload;
use perfbench::gen;

/// Instances a run sets up, at most, per workload.
const INSTANCES: usize = 16;

#[test]
fn every_seed_parses_and_validates_under_the_default_policy() {
    for seed in 0..200u64 {
        for w in Workload::ALL {
            for i in 0..INSTANCES {
                let text = w.scn_text(seed, i);
                assert!(!text.contains("ckpt-interval"), "{text}");
                let scn = scenario::scn::parse(&text)
                    .unwrap_or_else(|e| panic!("{} seed {seed} #{i}: {e}\n{text}", w.name()));
                scn.validate()
                    .unwrap_or_else(|e| panic!("{} seed {seed} #{i}: {e}\n{text}", w.name()));
                assert_eq!(scn.capture, CapturePolicy::default(), "{text}");
                assert!(
                    !scn.has_restart(),
                    "Theorem 1 needs restart-free runs: {text}"
                );
                assert_eq!(
                    text,
                    w.scn_text(seed, i),
                    "generation must be deterministic"
                );
            }
        }
    }
}

#[test]
fn seeds_record_with_an_outcome() {
    // Recording is slow in a debug build; `cargo test --release` sweeps
    // more seeds in the same time.
    let seeds = if cfg!(debug_assertions) {
        0..2u64
    } else {
        0..12u64
    };
    for seed in seeds {
        for text in [gen::rip_farm_scn(seed, 0), gen::ospf_churn_scn(seed, 0)] {
            let scn = scenario::scn::parse(&text).expect("parses");
            let run = scn
                .record_run()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert!(
                run.outcome.is_some() && run.n_groups > 0 && run.upto > 0,
                "{text}"
            );
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    for w in Workload::ALL {
        assert_ne!(w.scn_text(1, 0), w.scn_text(2, 0), "{}", w.name());
        assert_ne!(w.scn_text(1, 0), w.scn_text(1, 1), "{}", w.name());
    }
}

#[test]
fn debug_scripts_open_with_run_and_close_with_a_checked_run() {
    let script = gen::debug_script(7, 0, 5000, 20, 16, 50);
    assert_eq!(script.len(), 50 * gen::BLOCK_COMMANDS + 3);
    assert_eq!(script[0], "run");
    assert_eq!(script[script.len() - 2..], ["clear", "run"]);
    for verb in [
        "goto", "rstep", "step", "stepg", "break", "rcont", "inspect", "where",
    ] {
        assert!(
            script
                .iter()
                .any(|l| l.split_whitespace().next() == Some(verb)),
            "{verb}"
        );
    }
    for line in &script {
        if let Some(p) = line.strip_prefix("goto ") {
            assert!(p.parse::<u64>().expect("position") <= 5000);
        }
    }
    assert_eq!(script, gen::debug_script(7, 0, 5000, 20, 16, 50));
}

/// The benchmark measures what a user gets by default: no source may pick
/// a capture policy, checkpoint strategy, ordering or any other run
/// setting, and the farm and replays use the CLI's default `--jobs`
/// (auto) and `--shards` (serial).
#[test]
fn no_benchmark_source_overrides_the_product_configuration() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
    let mut files = vec![format!("{root}run.py")];
    for entry in std::fs::read_dir(format!("{root}src")).expect("src dir") {
        files.push(entry.expect("entry").path().display().to_string());
    }
    let forbidden = [
        "CapturePolicy",
        "with_capture",
        "ckpt-interval",
        "ckpt_interval",
        "Strategy",
        "enable_time_travel",
        "RetentionPolicy",
        "OrderingMode",
        "commit_horizon",
        "charge_overhead",
        "production(",
        "recording()",
        "set_enabled",
        "speculation",
        "checkpoint_every",
    ];
    for f in &files {
        let text = std::fs::read_to_string(f).expect("readable source");
        for bad in forbidden {
            assert!(!text.contains(bad), "{f} mentions `{bad}`");
        }
        for (call, allowed) in [
            ("with_shards(", "1)"),
            ("with_jobs(", "0)"),
            ("_sharded(", ""),
        ] {
            for (at, _) in text.match_indices(call) {
                let rest = &text[at + call.len()..];
                let args = &rest[..rest.find(')').map_or(rest.len(), |i| i + 1)];
                let ok = if allowed.is_empty() {
                    args.ends_with(", 1)")
                } else {
                    args == allowed
                };
                assert!(ok, "{f}: `{call}{args}` is not the CLI default");
            }
        }
        for (at, _) in text.match_indices("verify_store(") {
            let rest = &text[at..];
            let args = &rest[..rest.find(')').map_or(rest.len(), |i| i + 1)];
            assert!(
                args.ends_with(", 1)"),
                "{f}: `{args}` is not the CLI default"
            );
        }
    }
}

/// `BENCHMARK.json` at the repository root lists exactly the metrics, in
/// the same order and with the same units, that the benchmark prints.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    use defined_obs::json::{parse, Value};
    use perfbench::bench::{E2E, LAYERS};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("`{key}` is not a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: `{f}` is {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&E2E));
    assert_eq!(listed("per_layer"), own(&LAYERS));
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<_> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("workload name is {other:?}"),
        })
        .collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}
