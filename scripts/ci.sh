#!/usr/bin/env bash
# Tier-1 verification, hermeticity checks, and the experiment golden gate.
#
# The workspace must build and test with ZERO network access: every
# dependency is an in-workspace path crate (see crates/testkit for the
# PRNG / property-test / bench substrate that replaced rand, proptest and
# criterion). `--offline` turns any accidental registry dependency into a
# hard error instead of a hung download, and the Cargo.lock scan catches
# one that slipped in while the registry happened to be reachable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build (whole workspace, all targets, no network) =="
# --bins is explicit: passing any target-selection flag (--benches) makes
# cargo build ONLY those targets, silently skipping the domino-run /
# domino-trace binaries the later steps drive.
cargo build --release --offline --workspace --bins --benches

echo "== lint gate: domino-lint (before any test runs) =="
# The semantic linter is the cheapest gate with the widest blast radius —
# a hot-path allocation or float-order regression fails here in seconds,
# before the test sweep spends minutes. --deny-unused-waivers keeps the
# waiver ledger honest, and the --json run is byte-diffed against the
# committed baseline so any drift in findings (new, fixed, or re-waived)
# must be reviewed as part of the change that caused it.
cargo run --release --offline -q -p domino-lint -- --deny-unused-waivers
cargo run --release --offline -q -p domino-lint -- --json | diff -u results/lint_findings.json - \
    || { echo "ERROR: lint findings drifted from results/lint_findings.json; regenerate with: cargo run -q -p domino-lint -- --json > results/lint_findings.json" >&2; exit 1; }

echo "== tier-1: test =="
cargo test -q --offline --workspace

echo "== golden gate: domino-run --check =="
# Regenerates every experiment at quick scale across 2 workers and
# byte-diffs against the committed results/ files. Output must be
# identical for any --jobs count, so jobs=2 also exercises the pool's
# index-ordered merge.
./target/release/domino-run --check --jobs 2

echo "== chaos smoke: fixed-seed fault injection =="
# The chaos_degradation experiment drives every scheme through the fault
# plane at increasing intensity: the byte-exact re-check proves faulted
# runs are as deterministic as clean ones (and that no MAC livelocks —
# the experiment's liveness gate is part of its pinned output).
./target/release/domino-run chaos_degradation --check --jobs 2

echo "== observability: traced run stays byte-identical, trace validates =="
# Tracing is observation-only: re-running the golden gate with --trace
# must still byte-match every pinned results/ file, while also writing
# the designated JSONL traces. domino-trace check then validates each
# trace: schema version, well-formed events, monotone timestamps.
# failover_recovery's is the one trace with ctrl_checkpoint and
# standby_promote events.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/domino-run fig10_timeline chaos_degradation failover_recovery \
    --check --jobs 2 --trace "$TRACE_DIR"
for trace in "$TRACE_DIR"/*.jsonl; do
    ./target/release/domino-trace check "$trace"
done

echo "== source fingerprint: committed manifest matches the tree =="
# The shard cache keys every entry by a digest of the workspace sources;
# the committed manifest pins that fingerprint so a source edit that
# forgets to regenerate it fails here, not as a silent cache miss storm.
./target/release/domino-run fingerprint | diff -u results/source_manifest.txt - \
    || { echo "ERROR: source fingerprint drifted from results/source_manifest.txt; regenerate with: ./target/release/domino-run fingerprint > results/source_manifest.txt" >&2; exit 1; }

echo "== profile gate: cost attribution pinned at zero tolerance =="
# The cost profiler counts exact integers over simulated work (engine
# pops, wheel cascades, adjudications, RNG draws — no wall clock), so
# the committed fig7 snapshot of every scheme, Fig 12's TCP cell under
# DOMINO and under DCF (TCP ticks and retransmission timers; DCF's
# delivery path is CENTAUR's too), Fig 14's first random T(20,3)
# network under DCF and DOMINO (80 nodes: the medium and the conflict
# graph at their densest), saturated UDP on Fig 12's T(10,2) under DOMINO
# (the slot-paced controller, signature and ROP path) and under DCF (the
# CSMA contention loop perfbench's udp_dcf times) and a lightly
# loaded T(6,2) under DCF (its senders idle between packets, so its wake
# events are counted) are
# held to a zero-threshold diff: any hot-path cost growth fails here
# and must be reviewed as part of the change that caused it.
PROF_TMP="$(mktemp)"
for cell in "fig7_domino --scheme domino" "fig7_dcf --scheme dcf" \
    "fig7_centaur --scheme centaur" "fig7_omniscient --scheme omniscient" \
    "t10x2_tcp_domino --scheme domino --scenario t10x2 --tcp 10e6,4e6 --duration-s 0.2" \
    "t10x2_tcp_dcf --scheme dcf --scenario t10x2 --tcp 10e6,4e6 --duration-s 0.2" \
    "t10x2_udp_domino --scheme domino --scenario t10x2 --udp 10e6,10e6 --duration-s 0.2" \
    "t10x2_udp_dcf --scheme dcf --scenario t10x2 --udp 10e6,10e6 --duration-s 0.2" \
    "rt20x3_dcf --scheme dcf --scenario rt20x3 --udp 10e6,10e6 --duration-s 0.1" \
    "rt20x3_domino --scheme domino --scenario rt20x3 --udp 10e6,10e6 --duration-s 0.1" \
    "t6x2_light_dcf --scheme dcf --scenario t6x2 --udp 48e3,96e3 --duration-s 1"; do
    name="${cell%% *}"
    read -ra flags <<< "${cell#* }"
    ./target/release/domino-profile report --folded "${flags[@]}" > "$PROF_TMP"
    ./target/release/domino-profile diff "results/profile_$name.txt" "$PROF_TMP" \
        || { echo "ERROR: cost profile drifted from results/profile_$name.txt; if the change is intended, regenerate with: ./target/release/domino-profile report --folded ${flags[*]} > results/profile_$name.txt" >&2; exit 1; }
done
rm -f "$PROF_TMP"

echo "== warm-cache gate: cold fill, then zero-execution rerun =="
# Cold: the full default suite through the cache (still --check, so the
# cached path is held to the same byte-for-byte golden bar). Warm: the
# identical invocation must serve every shard from the store — zero
# misses — and still byte-match the goldens. This is the purity claim
# made operational: the cache can change wall time only, never bytes.
CACHE_DIR="$(mktemp -d)/cache"
./target/release/domino-run --check --jobs 2 --cache --cache-dir "$CACHE_DIR" > /dev/null
WARM_LOG="$(mktemp)"
./target/release/domino-run --check --jobs 2 --cache --cache-dir "$CACHE_DIR" | tee "$WARM_LOG" | grep -E "campaign\.cache\.(hits|misses)"
grep -q "campaign.cache.misses 0" "$WARM_LOG" \
    || { echo "ERROR: warm rerun missed the cache" >&2; exit 1; }
if grep -qE " cache: [0-9]+ hits?, [1-9][0-9]* executed" "$WARM_LOG"; then
    echo "ERROR: warm rerun executed shards" >&2
    exit 1
fi
rm -f "$WARM_LOG"

echo "== campaign smoke: grid twice + interrupted resume =="
# A small experiment × seed grid, run cold then warm: the second pass
# must be 100% cache hits and the two merged reports byte-identical.
# Then interruption is simulated by deleting the report, one cell file,
# and the ledger's last line; --resume must rebuild the exact report.
CAMP_DIR="$(mktemp -d)"
cat > "$CAMP_DIR/smoke.campaign" <<'EOF'
campaign ci-smoke
experiments table1_params fig05_rop_samples
seeds 1 2
EOF
./target/release/domino-run campaign "$CAMP_DIR/smoke.campaign" \
    --cache-dir "$CACHE_DIR" --out "$CAMP_DIR/cold"
./target/release/domino-run campaign "$CAMP_DIR/smoke.campaign" \
    --cache-dir "$CACHE_DIR" --out "$CAMP_DIR/warm" | grep -E "cache: [0-9]+ hits, 0 misses"
diff "$CAMP_DIR/cold/report.txt" "$CAMP_DIR/warm/report.txt"
echo "campaign reports identical across cold/warm"
rm -f "$CAMP_DIR/warm/report.txt" "$CAMP_DIR/warm/cells/fig05_rop_samples.quick.s2.txt"
sed -i '$ d' "$CAMP_DIR/warm/ledger.txt"
./target/release/domino-run campaign "$CAMP_DIR/smoke.campaign" \
    --cache-dir "$CACHE_DIR" --out "$CAMP_DIR/warm" --resume | grep "3 resumed, 1 executed"
diff "$CAMP_DIR/cold/report.txt" "$CAMP_DIR/warm/report.txt"
echo "campaign resume rebuilt the identical report"
rm -rf "$CAMP_DIR" "$(dirname "$CACHE_DIR")"

echo "== snapshot gate: checkpoint at t/2, restore in a fresh process =="
# Five cells are checkpointed at half their horizon: a fig7 run under
# chaos, Fig 12's T(10,2) under TCP (its snapshot carries queued
# retransmission timers) and a lightly loaded T(6,2) under UDP (parked
# senders and UDP sources behind the clock) for every scheme, Fig 14's
# first random T(20,3) network under DCF and DOMINO (80 nodes, many
# frames in flight), and T(10,2) under DOMINO and CENTAUR with
# controller crashes and a warm standby (the chaos class leaves the
# failover class out; this cell crashes and promotes 20 and 8 times),
# once alone and once under chaos (wired loss and spikes on every wire,
# DOMINO's standby wire included).
# A *separate process* restores the sealed snapshot and finishes the
# run. Both the interrupted and the restored stats blocks must
# byte-match the uninterrupted run's — the restored-goldens-cannot-move
# claim of DESIGN.md §15, held at the process boundary.
SNAP_DIR="$(mktemp -d)"
ALL_SCHEMES="domino dcf centaur omniscient"
for cell in "fig7|$ALL_SCHEMES|--scenario fig7 --seed 11 --chaos 0.5" \
    "t10x2_tcp|$ALL_SCHEMES|--scenario t10x2 --tcp 10e6,4e6" \
    "t6x2_light|$ALL_SCHEMES|--scenario t6x2 --udp 48e3,96e3" \
    "rt20x3|domino dcf|--scenario rt20x3 --udp 10e6,10e6" \
    "t10x2_failover|domino centaur|--scenario t10x2 --standby --ctrl-crash 0.05" \
    "t10x2_failover_chaos|domino centaur|--scenario t10x2 --standby --ctrl-crash 0.05 --chaos 0.5"; do
    IFS='|' read -r name schemes flag_str <<< "$cell"
    read -ra flags <<< "$flag_str"
    for scheme in $schemes; do
        SIM=(./target/release/domino-run sim --scheme "$scheme" "${flags[@]}" --duration-s 1)
        run="$SNAP_DIR/$name.$scheme"
        mkdir -p "$run"
        "${SIM[@]}" --checkpoint-at-us 500000 --state-dir "$run" > "$run.interrupted.txt"
        "${SIM[@]}" > "$run.uninterrupted.txt"
        "${SIM[@]}" --restore "$run/ckpt_000500000000.dsnp" > "$run.restored.txt"
        diff "$run.uninterrupted.txt" "$run.interrupted.txt"
        diff "$run.uninterrupted.txt" "$run.restored.txt"
        echo "$name/$scheme: restored run byte-identical to uninterrupted run"
    done
done
rm -rf "$SNAP_DIR"

echo "== failover smoke: warm-standby recovery under controller crashes =="
# The failover_recovery experiment pins recovery latency falling
# monotonically with checkpoint frequency and zero stranded failovers;
# the jobs=2 re-check proves the standby path is as deterministic as
# the clean one.
./target/release/domino-run failover_recovery --check --jobs 2

echo "== campaign crash-resume: kill the sweep mid-cell, resume, diff =="
# Unlike the simulated interruption above, this kills the process for
# real (SIGKILL, no cleanup) partway through a sweep. Whatever torn
# state the kill leaves — half-written cell file, torn ledger line —
# --resume must either verify or re-run, and the resumed report must be
# byte-identical to an uninterrupted reference sweep.
KILL_DIR="$(mktemp -d)"
cat > "$KILL_DIR/kill.campaign" <<'EOF'
campaign ci-kill
experiments fig06_guard_sweep failover_recovery
seeds 1 2
EOF
./target/release/domino-run campaign "$KILL_DIR/kill.campaign" \
    --out "$KILL_DIR/ref" --no-cache > /dev/null
./target/release/domino-run campaign "$KILL_DIR/kill.campaign" \
    --out "$KILL_DIR/killed" --no-cache > /dev/null 2>&1 &
KILL_PID=$!
sleep 1
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
./target/release/domino-run campaign "$KILL_DIR/kill.campaign" \
    --out "$KILL_DIR/killed" --no-cache --resume > /dev/null
diff "$KILL_DIR/ref/report.txt" "$KILL_DIR/killed/report.txt"
echo "killed-and-resumed campaign report is byte-identical"
rm -rf "$KILL_DIR"

echo "== differential oracle: timer wheel vs reference heap (fixed seed) =="
# The engine's timer wheel is checked op-for-op against the (time, seq)
# BinaryHeap oracle under a fixed master seed so failures replay exactly.
# (The suite already ran once under the workspace test sweep with the
# default seed; this run pins a second, independent exploration.)
TESTKIT_SEED=271828 TESTKIT_CASES=512 \
    cargo test -q --offline -p domino-sim --test differential

echo "== parser fuzz replay: lint parser total under pinned seed =="
# The lint parser must stay total (never panic) on arbitrary token soup;
# the pinned seed makes any regression replay exactly.
TESTKIT_SEED=271828 TESTKIT_CASES=512 \
    cargo test -q --offline -p domino-lint --test parser_fuzz

echo "== lint: clippy =="
# The container may lack clippy; the curated [workspace.lints] clippy set
# still applies through rustc when it is absent.
if command -v cargo-clippy >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -q -- -D warnings
else
    echo "cargo-clippy not installed; skipping"
fi

echo "== docs: rustdoc builds without warnings =="
# Broken intra-doc links (private or unresolved items), ambiguous link
# targets and stray HTML in doc comments fail here instead of shipping
# dead links in the published docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "== hermeticity: lockfile =="
if grep -q '^source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock contains registry-sourced packages:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    exit 1
fi
echo "Cargo.lock is path-only ($(grep -c '^name = ' Cargo.lock) workspace packages)"

echo "== OK =="
