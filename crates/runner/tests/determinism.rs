//! Integration pins for the runner's central promise: the rendered bytes
//! are a pure function of `(experiment, scale, seed)` — the worker count
//! and shard completion order never show through.

use domino_runner::registry;
use domino_runner::run_experiment;
use domino_runner::scale::Scale;

/// A cheap-but-representative slice of the registry: a constant table, a
/// stochastic render, a multi-shard sweep, the per-shard-seeded detection
/// matrix, and a single-shard timeline.
const MATRIX: &[&str] = &[
    "table1_params",
    "fig05_rop_samples",
    "fig06_guard_sweep",
    "fig09_signature_detection",
    "fig10_timeline",
];

#[test]
fn jobs_count_never_changes_a_byte() {
    for name in MATRIX {
        let exp = registry::find(name).expect("matrix names a registered experiment");
        let serial = run_experiment(exp, Scale::Quick, registry::DEFAULT_SEED, 1, None);
        let parallel = run_experiment(exp, Scale::Quick, registry::DEFAULT_SEED, 8, None);
        assert_eq!(serial.text, parallel.text, "{name}: jobs=1 vs jobs=8");
        assert!(!serial.text.is_empty(), "{name}: rendered something");
        assert!(serial.text.ends_with('\n'), "{name}: text ends in newline");
        assert_eq!(serial.shard_ns.len(), parallel.shard_ns.len(), "{name}: shard count");
    }
}

#[test]
fn runs_are_reproducible_and_seed_sensitive() {
    let exp = registry::find("fig06_guard_sweep").expect("registered");
    let a = run_experiment(exp, Scale::Quick, 7, 4, None);
    let b = run_experiment(exp, Scale::Quick, 7, 4, None);
    assert_eq!(a.text, b.text, "same seed, same bytes");
    let c = run_experiment(exp, Scale::Quick, 8, 4, None);
    assert_ne!(a.text, c.text, "a different master seed must change the sweep");
}

/// SHA-256 of each designated trace exactly as `domino-run --trace`
/// renders it (quick scale, seed 1). The JSONL writer is generated from
/// the event declaration, so these pins hold every byte it writes: key
/// names, field order, number and string forms, event names.
#[test]
fn designated_traces_are_byte_pinned() {
    use domino_testkit::digest::sha256_hex;
    let pins = [
        ("fig10_timeline", "85f7a16a9d5284df13cabf75e33d3336a23c85f7b8a49aad62eadb06492a50af"),
        ("chaos_degradation", "946a0155e45228da5cf36c86797db8ab5ff36efc968e75cbce5429f4a1bc6b54"),
        ("failover_recovery", "0aac75305d410c9d113266bcd9424f48919170209522369074129bdf12620558"),
    ];
    let traced: Vec<&str> =
        registry::REGISTRY.iter().filter(|e| e.trace.is_some()).map(|e| e.name).collect();
    assert_eq!(traced, pins.map(|(name, _)| name), "every designated trace is pinned");
    for (name, want) in pins {
        let exp = registry::find(name).expect("registered");
        let render = exp.trace.expect("designated trace");
        let jsonl = render(Scale::Quick, registry::DEFAULT_SEED);
        assert_eq!(sha256_hex(jsonl.as_bytes()), want, "{name}: trace bytes moved");
    }
}
