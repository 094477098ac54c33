//! Fixture tests: one known-bad and one known-good snippet per rule, plus
//! waiver plumbing and tokenizer edge cases. These are the linter's own
//! regression net — every rule's detection surface is pinned here so a
//! tokenizer or scope change that silently blinds a rule fails loudly.

use domino_lint::lint_source;
use domino_lint::rules::RuleId;
use domino_lint::tokenizer::{tokenize, TokenKind};

/// Lint `src` as if it lived at `path`, returning the rule ids hit.
fn rules_at(path: &str, src: &str) -> Vec<RuleId> {
    lint_source(path, src).into_iter().filter(|v| v.waived.is_none()).map(|v| v.rule).collect()
}

const SCHED: &str = "crates/scheduler/src/x.rs";

// ---------------------------------------------------------------- D001

#[test]
fn d001_flags_wall_clock_outside_testkit() {
    let bad = "fn f() { let t = std::time::Instant::now(); }";
    assert_eq!(rules_at(SCHED, bad), vec![RuleId::D001]);
    let bad2 = "use std::time::SystemTime;\n";
    assert_eq!(rules_at(SCHED, bad2), vec![RuleId::D001]);
}

#[test]
fn d001_allows_wall_clock_in_testkit_and_bench() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert!(rules_at("crates/testkit/src/bench.rs", src).is_empty());
    assert!(rules_at("crates/bench/src/lib.rs", src).is_empty());
}

#[test]
fn d001_allows_duration_type() {
    // Duration is a plain value type; only the clocks are ambient.
    let good = "use std::time::Duration;\nfn f(d: Duration) {}\n";
    assert!(rules_at(SCHED, good).is_empty());
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_flags_hashmap_iteration_in_ordered_crates() {
    let bad = "use std::collections::HashMap;\n\
               fn f(m: HashMap<u32, u32>) { for (k, v) in m.iter() { let _ = (k, v); } }";
    assert_eq!(rules_at(SCHED, bad), vec![RuleId::D002]);
}

#[test]
fn d002_flags_for_loop_over_hash_binding() {
    let bad = "use std::collections::HashSet;\n\
               fn f() { let s: HashSet<u32> = HashSet::new(); for x in &s { let _ = x; } }";
    assert_eq!(rules_at(SCHED, bad), vec![RuleId::D002]);
}

#[test]
fn d002_allows_keyed_lookup() {
    let good = "use std::collections::HashMap;\n\
                fn f(m: HashMap<u32, u32>) -> Option<u32> { m.get(&1).copied() }";
    assert!(rules_at(SCHED, good).is_empty());
}

#[test]
fn d002_allows_btreemap_iteration() {
    let good = "use std::collections::BTreeMap;\n\
                fn f(m: BTreeMap<u32, u32>) { for (k, v) in m.iter() { let _ = (k, v); } }";
    assert!(rules_at(SCHED, good).is_empty());
}

#[test]
fn d002_does_not_apply_outside_ordered_crates() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: HashMap<u32, u32>) { for x in m.values() { let _ = x; } }";
    assert!(rules_at("crates/stats/src/lib.rs", src).is_empty());
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_flags_float_equality() {
    let bad = "fn f(x: f64) -> bool { x == 1.0 }";
    assert_eq!(rules_at(SCHED, bad), vec![RuleId::D003]);
    let bad2 = "fn f(x: f64) -> bool { 0.5 != x }";
    assert_eq!(rules_at(SCHED, bad2), vec![RuleId::D003]);
}

#[test]
fn d003_allows_float_ordering_and_int_equality() {
    let good = "fn f(x: f64, n: u32) -> bool { x > 1.0 && n == 3 }";
    assert!(rules_at(SCHED, good).is_empty());
}

#[test]
fn d003_does_not_confuse_tuple_index_with_float() {
    // `t.0 == u.0` is integer-field equality, not a float literal.
    let good = "fn f(t: (u32, u32), u: (u32, u32)) -> bool { t.0 == u.0 }";
    assert!(rules_at(SCHED, good).is_empty());
}

#[test]
fn d003_exempt_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(1.0 == 1.0); }\n}\n";
    assert!(rules_at(SCHED, src).is_empty());
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_flags_ambient_randomness() {
    let bad = "fn f() { let x = rand::thread_rng(); let _ = x; }";
    assert_eq!(rules_at(SCHED, bad), vec![RuleId::D004]);
}

#[test]
fn d004_allows_seeded_rng() {
    let good = "fn f(rng: &mut domino_testkit::rng::Rng) -> u64 { rng.next() }";
    assert!(rules_at(SCHED, good).is_empty());
}

// ---------------------------------------------------------------- D005

#[test]
fn d005_flags_unwrap_in_no_panic_crates() {
    let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_at("crates/phy/src/lib.rs", bad), vec![RuleId::D005]);
    let bad2 = "fn f() { todo!() }";
    assert_eq!(rules_at("crates/sim/src/engine.rs", bad2), vec![RuleId::D005]);
}

#[test]
fn d005_allows_unwrap_in_tests_and_other_crates() {
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(rules_at("crates/phy/src/lib.rs", in_test).is_empty());
    // stats is not in the no-panic set.
    let elsewhere = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert!(rules_at("crates/stats/src/lib.rs", elsewhere).is_empty());
}

// ---------------------------------------------------------------- D006

#[test]
fn d006_flags_println_in_library_code() {
    let bad = "fn f() { println!(\"hi\"); }";
    assert_eq!(rules_at("crates/mac/src/lib.rs", bad), vec![RuleId::D006]);
    let bad2 = "fn f() { dbg!(1); }";
    assert_eq!(rules_at("crates/mac/src/lib.rs", bad2), vec![RuleId::D006]);
}

#[test]
fn d006_allows_prints_in_bin_targets_and_tests() {
    let src = "fn main() { println!(\"report\"); }";
    assert!(rules_at("crates/bench/src/bin/fig12.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"dbg\"); }\n}\n";
    assert!(rules_at("crates/mac/src/lib.rs", in_test).is_empty());
}

// ------------------------------------------------- runner scope (D001/D006)

#[test]
fn d001_applies_to_the_runner_crate() {
    // The runner is deliberately NOT in the wall-clock set: it measures
    // shard time through testkit's Stopwatch, so a raw Instant — in the
    // library or in the domino-run binary — is a determinism leak.
    let bad = "fn f() { let t = std::time::Instant::now(); }";
    assert_eq!(rules_at("crates/runner/src/pool.rs", bad), vec![RuleId::D001]);
    assert_eq!(rules_at("crates/runner/src/bin/domino_run.rs", bad), vec![RuleId::D001]);
}

#[test]
fn d006_splits_runner_library_from_its_cli() {
    let src = "fn f() { println!(\"progress\"); }";
    // The runner library renders experiment text and the JSON manifest as
    // Strings — printing there would bypass the bins that own stdout…
    assert_eq!(rules_at("crates/runner/src/lib.rs", src), vec![RuleId::D006]);
    assert_eq!(rules_at("crates/runner/src/experiments/mod.rs", src), vec![RuleId::D006]);
    // …while the domino-run binary is the one place that may print.
    assert!(rules_at("crates/runner/src/bin/domino_run.rs", src).is_empty());
}

// ------------------------------------------------- obs scope (D002/D005)

#[test]
fn obs_crate_is_in_scope_for_ordering_and_no_panic() {
    // Trace analysis groups events in maps whose iteration order reaches
    // rendered reports, and trace sinks run inside every simulation — so
    // the observability crate is held to the D002 and D005 bars.
    const OBS: &str = "crates/obs/src/analysis.rs";
    let hash_iter = "use std::collections::HashMap;\n\
                     fn f(m: HashMap<u32, u32>) { for x in m.values() { let _ = x; } }";
    assert_eq!(rules_at(OBS, hash_iter), vec![RuleId::D002]);
    let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_at(OBS, unwrap), vec![RuleId::D005]);
    // The domino-trace binary may still unwrap (bins are D005-exempt).
    assert!(rules_at("crates/obs/src/bin/domino_trace.rs", unwrap).is_empty());
}

#[test]
fn profile_module_is_held_to_the_obs_bars() {
    // The cost profiler aggregates per-path counters into byte-compared
    // folded/table artifacts and its handle is threaded through every
    // hot path — so the profile module inherits the obs crate's D002
    // (ordered iteration) and D005 (no panics) bars like any other file
    // in the crate.
    const PROFILE: &str = "crates/obs/src/profile.rs";
    let hash_iter = "use std::collections::HashMap;\n\
                     fn f(m: HashMap<String, u64>) { for x in m.values() { let _ = x; } }";
    assert_eq!(rules_at(PROFILE, hash_iter), vec![RuleId::D002]);
    let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_at(PROFILE, unwrap), vec![RuleId::D005]);
    let ordered = "use std::collections::BTreeMap;\n\
                   fn f(m: BTreeMap<String, u64>) { for x in m.values() { let _ = x; } }";
    assert!(rules_at(PROFILE, ordered).is_empty());
}

#[test]
fn d007_guards_profiler_hooks_on_the_hot_path() {
    // A profiler hook that builds a String per event is exactly the
    // perturbation the closure-gated handle exists to rule out: an
    // allocation reachable from Engine::pop is a D007 finding even when
    // it lives in observability bookkeeping.
    let bad = "impl Engine { pub fn pop(&mut self) { record_cost(); } }\n\
               fn record_cost() { let s = format!(\"engine;pop\"); let _ = s; }";
    assert_eq!(rules_at("crates/sim/src/engine.rs", bad), vec![RuleId::D007]);
    // The counter-tick shape the profiler actually uses — bump an
    // integer, no heap — stays clean.
    let good = "impl Engine { pub fn pop(&mut self) { tick(&mut self.cost); } }\n\
                fn tick(c: &mut u64) { *c += 1; }";
    assert!(rules_at("crates/sim/src/engine.rs", good).is_empty());
}

// --------------------------------------------- campaign scope (D002/D005)

#[test]
fn campaign_crate_is_in_scope_for_ordering_and_no_panic() {
    // The cache index, resume ledger, and report rollups all iterate
    // collections into byte-compared artifacts, and the store parses
    // untrusted on-disk bytes — so the campaign crate is held to the
    // D002 and D005 bars.
    const CAMPAIGN: &str = "crates/campaign/src/store.rs";
    let hash_iter = "use std::collections::HashMap;\n\
                     fn f(m: HashMap<String, u64>) { for x in m.values() { let _ = x; } }";
    assert_eq!(rules_at(CAMPAIGN, hash_iter), vec![RuleId::D002]);
    let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_at(CAMPAIGN, unwrap), vec![RuleId::D005]);
    // BTreeMap iteration is the sanctioned shape for the store index.
    let ordered = "use std::collections::BTreeMap;\n\
                   fn f(m: BTreeMap<String, u64>) { for x in m.values() { let _ = x; } }";
    assert!(rules_at(CAMPAIGN, ordered).is_empty());
}

#[test]
fn campaign_tests_keep_the_usual_exemptions() {
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(rules_at("crates/campaign/src/ledger.rs", in_test).is_empty());
}

// ------------------------------------- render-path binaries (D006 extension)

#[test]
fn d006_flags_inline_format_specs_in_render_path_binaries() {
    // domino-run and domino-trace print pre-rendered strings; a format
    // spec at the print site is formatting that escaped the render path.
    let bad = "fn main() { println!(\"{:<28} {:>9.1} ms\", name, ms); }";
    assert_eq!(
        rules_at("crates/runner/src/bin/domino_run.rs", bad),
        vec![RuleId::D006]
    );
    assert_eq!(
        rules_at("crates/obs/src/bin/domino_trace.rs", bad),
        vec![RuleId::D006]
    );
    let dbg = "fn main() { dbg!(1); }";
    assert_eq!(rules_at("crates/runner/src/bin/domino_run.rs", dbg), vec![RuleId::D006]);
}

#[test]
fn d006_render_path_allows_plain_prints_and_other_bins() {
    // Plain `{}` / named `{name}` holes pass pre-rendered text through.
    let good = "fn main() { println!(\"{}\", rendered); eprintln!(\"cannot write {path}\"); }";
    assert!(rules_at("crates/runner/src/bin/domino_run.rs", good).is_empty());
    assert!(rules_at("crates/obs/src/bin/domino_trace.rs", good).is_empty());
    // Bench's thin per-experiment bins are not render-path scoped.
    let spec = "fn main() { println!(\"{:>5}\", x); }";
    assert!(rules_at("crates/bench/src/bin/fig12.rs", spec).is_empty());
}

// ------------------------------------------------- faults scope (D001–D006)

#[test]
fn fault_plane_crate_is_in_scope_for_every_rule() {
    // The fault plane perturbs scheduling decisions by design, so it is
    // held to the same determinism bar as the crates it perturbs: no wall
    // clock, no hash-order iteration, no ambient randomness, no panicking
    // calls in library code.
    const FAULTS: &str = "crates/faults/src/lib.rs";
    let wall = "fn f() { let t = std::time::Instant::now(); }";
    assert_eq!(rules_at(FAULTS, wall), vec![RuleId::D001]);
    let hash_iter = "use std::collections::HashMap;\n\
                     fn f(m: HashMap<u32, u32>) { for x in m.values() { let _ = x; } }";
    assert_eq!(rules_at(FAULTS, hash_iter), vec![RuleId::D002]);
    let float_eq = "fn f(p: f64) -> bool { p == 0.5 }";
    assert_eq!(rules_at(FAULTS, float_eq), vec![RuleId::D003]);
    let ambient = "fn f() { let x = rand::thread_rng(); let _ = x; }";
    assert_eq!(rules_at(FAULTS, ambient), vec![RuleId::D004]);
    let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_at(FAULTS, unwrap), vec![RuleId::D005]);
    let print = "fn f() { println!(\"injected\"); }";
    assert_eq!(rules_at(FAULTS, print), vec![RuleId::D006]);
}

#[test]
fn fault_plane_tests_keep_the_usual_exemptions() {
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(rules_at("crates/faults/src/lib.rs", in_test).is_empty());
}

// ---------------------------------------------------------------- waivers

#[test]
fn waiver_with_reason_silences_and_records() {
    let src = "// lint: allow(D005) invariant: id handed out by push\n\
               fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let vs = lint_source("crates/phy/src/lib.rs", src);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].waived.as_deref(), Some("invariant: id handed out by push"));
}

#[test]
fn waiver_without_reason_is_w000_and_does_not_silence() {
    let src = "// lint: allow(D005)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let mut rules = rules_at("crates/phy/src/lib.rs", src);
    rules.sort();
    assert_eq!(rules, vec![RuleId::D005, RuleId::W000]);
}

#[test]
fn waiver_with_unknown_rule_is_w000() {
    let src = "// lint: allow(D999) sure\nfn f() {}\n";
    assert_eq!(rules_at(SCHED, src), vec![RuleId::W000]);
}

#[test]
fn waiver_only_reaches_adjacent_line() {
    let src = "// lint: allow(D005) too far away\n\n\n\
               fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let rules = rules_at("crates/phy/src/lib.rs", src);
    assert!(rules.contains(&RuleId::D005), "waiver two lines up must not apply");
}

// ------------------------------------------------------- tokenizer edges

#[test]
fn raw_string_containing_unwrap_is_not_a_call() {
    let src = "fn f() -> &'static str { r#\"docs say .unwrap() is bad\"# }";
    assert!(rules_at("crates/phy/src/lib.rs", src).is_empty());
}

#[test]
fn string_and_comment_bodies_are_inert() {
    let src = "fn f() -> &'static str { \"std::time::Instant println! x.unwrap()\" }\n\
               // std::time::Instant::now() in a comment\n\
               /* nested /* println!(\"hi\") */ still a comment */\n";
    assert!(rules_at(SCHED, src).is_empty());
}

#[test]
fn nested_block_comments_tokenize_as_one_token() {
    let toks = tokenize("/* a /* b */ c */ fn");
    assert_eq!(toks[0].kind, TokenKind::BlockComment);
    assert_eq!(toks[0].text, "/* a /* b */ c */");
    assert_eq!(toks[1].text, "fn");
}

#[test]
fn raw_string_guards_are_respected() {
    let toks = tokenize(r####"let s = r##"has "# inside"##; x"####);
    let raw = toks.iter().find(|t| t.kind == TokenKind::RawStr).expect("raw string token");
    assert_eq!(raw.text, r###"r##"has "# inside"##"###);
    assert!(toks.iter().any(|t| t.text == "x"), "lexing continued past the raw string");
}

#[test]
fn lifetimes_are_not_char_literals() {
    let toks = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
    assert!(toks.iter().any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    assert!(!toks.iter().any(|t| t.kind == TokenKind::Char));
}

// ------------------------------------------------- D003 let-bound extension

#[test]
fn d003_ext_flags_equality_through_float_bound_local() {
    let bad = "fn f(x: f64) -> bool { let thresh = 0.5; x == thresh }";
    assert_eq!(rules_at(SCHED, bad), vec![RuleId::D003]);
    let bad2 = "fn f(x: f64) -> bool { let eps = 1e-9; eps != x }";
    assert_eq!(rules_at(SCHED, bad2), vec![RuleId::D003]);
}

#[test]
fn d003_ext_waiver_and_out_of_scope() {
    let waived = "fn f(x: f64) -> bool {\n\
                  let thresh = 0.5;\n\
                  // lint: allow(D003) sentinel compare; exact bit pattern set above\n\
                  x == thresh\n\
                  }";
    assert!(rules_at(SCHED, waived).is_empty());
    // Ordering comparisons, integer-bound locals, and locals from another
    // function stay clean.
    let good = "fn f(x: f64) -> bool { let thresh = 0.5; x > thresh }\n\
                fn g(n: u32) -> bool { let limit = 3; n == limit }\n\
                fn h(x: f64, thresh: f64) -> bool { x == thresh }";
    assert!(rules_at(SCHED, good).is_empty());
}

// ---------------------------------------------------------------- D007

#[test]
fn d007_flags_alloc_reachable_from_hot_roots() {
    // Root and allocation in one file: pop → helper → Vec::new().
    let bad = "impl Engine { pub fn pop(&mut self) { helper(); } }\n\
               fn helper() { let v: Vec<u32> = Vec::new(); let _ = v; }";
    assert_eq!(rules_at("crates/sim/src/engine.rs", bad), vec![RuleId::D007]);
    // Allocation directly inside a root, via macro.
    let bad2 = "pub fn dispatch_batch() { let s = format!(\"x\"); let _ = s; }";
    assert_eq!(rules_at("crates/mac/src/x.rs", bad2), vec![RuleId::D007]);
}

#[test]
fn d007_waiver_silences_the_alloc_site() {
    let src = "impl Engine { pub fn pop(&mut self) { helper(); } }\n\
               fn helper() {\n\
               // lint: allow(D007) arena warm-up; runs once before the hot loop\n\
               let v: Vec<u32> = Vec::new(); let _ = v;\n\
               }";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn d007_out_of_scope_allocs_stay_clean() {
    // Unreachable from any root: no finding.
    let cold = "pub fn report() { let v: Vec<u32> = Vec::new(); let _ = v; }";
    assert!(rules_at("crates/sim/src/report.rs", cold).is_empty());
    // Excluded crates never join the graph, even with a root-shaped fn.
    let excluded = "impl Engine { pub fn pop(&mut self) { let v: Vec<u32> = Vec::new(); } }";
    assert!(rules_at("crates/testkit/src/sim.rs", excluded).is_empty());
    // Test functions are not graph nodes.
    let in_test = "impl Engine { pub fn pop(&mut self) {} }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v: Vec<u32> = Vec::new(); }\n}\n";
    assert!(rules_at("crates/sim/src/engine.rs", in_test).is_empty());
}

// ---------------------------------------------------------------- D008

#[test]
fn d008_flags_bare_literal_stream_ids() {
    let bad = "fn f() { let r = SimRng::derive(42, 7); let _ = r; }";
    assert_eq!(rules_at("crates/sim/src/x.rs", bad), vec![RuleId::D008]);
    // Applies inside test code too: collisions between test streams and
    // simulation streams are exactly as silent.
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let r = SimRng::derive(1, 3); }\n}\n";
    assert_eq!(rules_at("crates/sim/src/x.rs", in_test), vec![RuleId::D008]);
}

#[test]
fn d008_waiver_and_out_of_scope() {
    let waived = "fn f() {\n\
                  // lint: allow(D008) stream id documented in rng.rs table; const lives upstream\n\
                  let r = SimRng::derive(42, 7); let _ = r;\n\
                  }";
    assert!(rules_at("crates/sim/src/x.rs", waived).is_empty());
    // A named constant is the fix, and the harness crates are exempt.
    let named = "fn f() { let r = SimRng::derive(42, streams::PHY_ERROR); let _ = r; }";
    assert!(rules_at("crates/sim/src/x.rs", named).is_empty());
    let harness = "fn f() { let r = SimRng::derive(42, 7); let _ = r; }";
    assert!(rules_at("crates/testkit/src/x.rs", harness).is_empty());
}

// ---------------------------------------------------------------- D009

#[test]
fn d009_flags_float_reductions_and_comparator_sorts() {
    let sum = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
    assert_eq!(rules_at(SCHED, sum), vec![RuleId::D009]);
    let ascribed = "fn f(xs: &[f64]) -> f64 { let s: f64 = xs.iter().copied().sum(); s }";
    assert_eq!(rules_at(SCHED, ascribed), vec![RuleId::D009]);
    let fold = "fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }";
    assert_eq!(rules_at(SCHED, fold), vec![RuleId::D009]);
    // medium is float-order scope but not no-panic scope, so the
    // partial_cmp fixture isolates D009.
    let sort = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
    assert_eq!(rules_at("crates/medium/src/x.rs", sort), vec![RuleId::D009]);
}

#[test]
fn d009_waiver_and_out_of_scope() {
    let waived = "fn f(xs: &[f64]) -> f64 {\n\
                  // lint: allow(D009) left fold over a pinned slice walk\n\
                  xs.iter().sum::<f64>()\n\
                  }";
    assert!(rules_at(SCHED, waived).is_empty());
    // Integer reductions, non-sim crates, and test code are out of scope.
    let int_sum = "fn f(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }";
    assert!(rules_at(SCHED, int_sum).is_empty());
    let phy = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
    assert!(rules_at("crates/phy/src/dsp.rs", phy).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _: f64 = [1.0].iter().sum(); }\n}\n";
    assert!(rules_at(SCHED, in_test).is_empty());
}

// ---------------------------------------------------------------- D010

#[test]
fn d010_flags_index_arithmetic_and_sim_time_arith() {
    let idx = "fn f(xs: &[u32], i: usize) -> u32 { xs[i + 1] }";
    assert_eq!(rules_at("crates/phy/src/x.rs", idx), vec![RuleId::D010]);
    let sub = "fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] }";
    assert_eq!(rules_at("crates/mac/src/x.rs", sub), vec![RuleId::D010]);
    let time = "fn f(t: SimTime, d: u64) -> u64 { t.as_nanos() + d }";
    assert_eq!(rules_at("crates/sim/src/x.rs", time), vec![RuleId::D010]);
}

#[test]
fn d010_waiver_and_out_of_scope() {
    let waived = "fn f(xs: &[u32], i: usize) -> u32 {\n\
                  // lint: allow(D010) caller guarantees i + 1 < xs.len()\n\
                  xs[i + 1]\n\
                  }";
    assert!(rules_at("crates/phy/src/x.rs", waived).is_empty());
    // Plain indexing, checked access, non-sim crates, and tests stay clean.
    let plain = "fn f(xs: &[u32], i: usize) -> u32 { xs[i] }";
    assert!(rules_at("crates/phy/src/x.rs", plain).is_empty());
    let checked = "fn f(xs: &[u32], i: usize) -> Option<u32> { xs.get(i + 1).copied() }";
    assert!(rules_at("crates/phy/src/x.rs", checked).is_empty());
    let stats = "fn f(xs: &[u32], i: usize) -> u32 { xs[i + 1] }";
    assert!(rules_at("crates/stats/src/lib.rs", stats).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = [1u32, 2][0 + 1]; }\n}\n";
    assert!(rules_at("crates/phy/src/x.rs", in_test).is_empty());
}

// ---------------------------------------------------------- property test

#[test]
fn tokenizer_never_panics_on_arbitrary_input() {
    domino_testkit::prop::check("tokenizer_total", |g| {
        let bytes = g.vec(0, 200, |g| g.u64(0, 255) as u8);
        let src = String::from_utf8_lossy(&bytes).into_owned();
        // Must terminate without panicking, and every token must carry a
        // line number within the source.
        let lines = src.lines().count().max(1) as u32;
        for t in tokenize(&src) {
            assert!(t.line >= 1 && t.line <= lines, "line {} out of range", t.line);
        }
    });
}

#[test]
fn tokenizer_never_panics_on_rusty_fragments() {
    // Bias the fuzz toward tricky prefixes the pure byte fuzz rarely forms.
    const PIECES: &[&str] = &[
        "r#\"", "\"#", "r##\"", "'a", "'x'", "b'", "/*", "*/", "//", "\n",
        "0.5", ".0", "==", "r#type", "br\"", "\"", "\\", "unwrap()", "1e9f64",
    ];
    domino_testkit::prop::check("tokenizer_fragments", |g| {
        let n = g.usize(0, 12);
        let mut src = String::new();
        for _ in 0..n {
            src.push_str(PIECES[g.usize(0, PIECES.len() - 1)]);
        }
        let _ = tokenize(&src);
    });
}
