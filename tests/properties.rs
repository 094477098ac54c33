//! Property-based tests over the core data structures and protocol
//! invariants, spanning crates. Runs on the in-tree `domino-testkit`
//! property harness: each property draws its inputs from a seeded
//! [`prop::Gen`]; failures shrink to a minimal choice sequence that can be
//! pinned with `prop::replay` (see the regression tests at the bottom).

use domino::core::{
    scenarios, Checkpoints, FaultConfig, ProfHandle, Probe, RunOpts, RunReport, Scheme,
    SimulationBuilder, TraceHandle,
};
use domino::mac::FlowKind;
use domino::phy::gold::{m_sequence, GoldFamily};
use domino::phy::units::{Db, Dbm};
use domino::scheduler::{Converter, ConverterConfig, RandScheduler};
use domino::sim::{Engine, SimDuration, SimTime};
use domino::stats::{jain_index, Cdf};
use domino::topology::conflict::ConflictGraph;
use domino::topology::network::{make_node, Network, PhyParams};
use domino::topology::node::{NodeRole, Position};
use domino::topology::rss::RssMatrix;
use domino::topology::{LinkId, NodeId};
use domino_testkit::prop;
use domino_testkit::{prop_assert, prop_assert_eq};

#[test]
fn engine_delivers_in_nondecreasing_time_order() {
    prop::check("engine_delivers_in_nondecreasing_time_order", |g| {
        let times = g.vec(1, 200, |g| g.u64(0, 999_999));
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = engine.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    });
}

#[test]
fn engine_same_time_events_are_fifo() {
    prop::check("engine_same_time_events_are_fifo", |g| {
        let n = g.usize(1, 99);
        let mut engine = Engine::new();
        let t = SimTime::from_micros(10);
        for i in 0..n {
            engine.schedule_at(t, i);
        }
        let mut expected = 0;
        while let Some((_, v)) = engine.pop() {
            prop_assert_eq!(v, expected);
            expected += 1;
        }
    });
}

#[test]
fn duration_arithmetic_is_consistent() {
    prop::check("duration_arithmetic_is_consistent", |g| {
        let a = g.u64(0, u32::MAX as u64 - 1);
        let b = g.u64(0, u32::MAX as u64 - 1);
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
        let t = SimTime::from_nanos(a);
        prop_assert_eq!((t + db) - db, t);
    });
}

#[test]
fn dbm_power_sum_is_commutative_and_dominant() {
    prop::check("dbm_power_sum_is_commutative_and_dominant", |g| {
        let a = g.f64(-100.0, 0.0);
        let b = g.f64(-100.0, 0.0);
        let s1 = Dbm(a).power_sum(Dbm(b));
        let s2 = Dbm(b).power_sum(Dbm(a));
        prop_assert!((s1.value() - s2.value()).abs() < 1e-9);
        prop_assert!(s1.value() >= a.max(b) - 1e-9);
        prop_assert!(s1.value() <= a.max(b) + 3.02);
    });
}

#[test]
fn db_round_trips_through_linear() {
    prop::check("db_round_trips_through_linear", |g| {
        let x = g.f64(-80.0, 80.0);
        let db = Db(x);
        let back = Db::from_linear(db.to_linear());
        prop_assert!((back.value() - x).abs() < 1e-9);
    });
}

#[test]
fn jain_index_bounds() {
    prop::check("jain_index_bounds", |g| {
        let alloc = g.vec(1, 40, |g| g.f64(0.0, 100.0));
        let j = jain_index(&alloc);
        prop_assert!(j >= 1.0 / alloc.len() as f64 - 1e-9);
        prop_assert!(j <= 1.0 + 1e-9);
    });
}

#[test]
fn cdf_is_monotone() {
    prop::check("cdf_is_monotone", |g| {
        let samples = g.vec(1, 200, |g| g.f64(-1e6, 1e6));
        let cdf = Cdf::from_samples(samples);
        let pts = cdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
    });
}

#[test]
fn m_sequences_are_balanced() {
    prop::check("m_sequences_are_balanced", |g| {
        // Every maximal-length sequence has |#1s - #0s| = 1.
        let degree = g.u64(3, 9) as u32;
        let taps: &[u32] = match degree {
            3 => &[3, 2],
            4 => &[4, 3],
            5 => &[5, 3],
            6 => &[6, 5],
            7 => &[7, 3],
            8 => &[8, 6, 5, 4],
            _ => &[9, 5],
        };
        let code = m_sequence(degree, taps);
        let sum: i32 = code.chips().iter().map(|&c| i32::from(c)).sum();
        prop_assert_eq!(sum.abs(), 1);
    });
}

/// 4 AP-client pairs wired up with a configurable cross-interference
/// pattern; shared by the scheduler and converter properties.
fn four_pair_network(cross: &[bool]) -> Network {
    let nodes: Vec<_> = (0..4u32)
        .flat_map(|i| {
            [
                make_node(2 * i, NodeRole::Ap, None, Position::default()),
                make_node(2 * i + 1, NodeRole::Client, Some(2 * i), Position::default()),
            ]
        })
        .collect();
    let mut rss = RssMatrix::disconnected(8);
    for i in 0..4u32 {
        rss.set_symmetric(NodeId(2 * i), NodeId(2 * i + 1), Dbm(-55.0));
    }
    for (k, &c) in cross.iter().enumerate() {
        if c {
            let i = k as u32;
            let j = (k as u32 + 1) % 4;
            rss.set_symmetric(NodeId(2 * i), NodeId(2 * j + 1), Dbm(-60.0));
        }
    }
    Network::new(nodes, rss, PhyParams::default())
}

#[test]
fn rand_scheduler_slots_always_independent() {
    prop::check("rand_scheduler_slots_always_independent", |g| {
        let seed_backlog = g.vec(8, 8, |g| g.u64(0, 4) as u32);
        let cross: Vec<bool> = (0..4).map(|_| g.bool()).collect();
        let net = four_pair_network(&cross);
        let graph = ConflictGraph::build_for_scheduling(&net);
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = seed_backlog.clone();
        let strict = sched.schedule_batch(&graph, &mut backlog, 10);
        for slot in &strict.slots {
            prop_assert!(graph.is_independent(slot));
        }
        // Conservation: consumed packets equal scheduled entries.
        let consumed: u32 = seed_backlog.iter().zip(&backlog).map(|(a, b)| a - b).sum();
        let scheduled: usize = strict.slots.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed as usize, scheduled);
    });
}

#[test]
fn converter_respects_caps_on_random_schedules() {
    prop::check("converter_respects_caps_on_random_schedules", |g| {
        let backlog = g.vec(8, 8, |g| g.u64(0, 3) as u32);
        let batch_slots = g.usize(1, 7);
        let nodes: Vec<_> = (0..4u32)
            .flat_map(|i| {
                [
                    make_node(2 * i, NodeRole::Ap, None, Position::default()),
                    make_node(2 * i + 1, NodeRole::Client, Some(2 * i), Position::default()),
                ]
            })
            .collect();
        let mut rss = RssMatrix::disconnected(8);
        for i in 0..4u32 {
            rss.set_symmetric(NodeId(2 * i), NodeId(2 * i + 1), Dbm(-55.0));
            for j in (i + 1)..4u32 {
                rss.set_symmetric(NodeId(2 * i), NodeId(2 * j), Dbm(-75.0));
            }
        }
        let net = Network::new(nodes, rss, PhyParams::default());
        let graph = ConflictGraph::build_for_scheduling(&net);
        let mut sched = RandScheduler::new(net.links().len());
        let mut conv = Converter::new(ConverterConfig::default());
        let mut b = backlog.clone();
        let strict = sched.schedule_batch(&graph, &mut b, batch_slots);
        let outcome = conv.convert(&net, &graph, &strict, &net.aps());
        for slot in &outcome.batch.slots {
            let links: Vec<LinkId> = slot.entries.iter().map(|e| e.link).collect();
            prop_assert!(graph.is_independent(&links));
            let mut inbound = std::collections::HashMap::new();
            for burst in &slot.bursts {
                prop_assert!(burst.targets.len() <= 4);
                for t in &burst.targets {
                    *inbound.entry(*t).or_insert(0usize) += 1;
                }
            }
            for (_, count) in inbound {
                prop_assert!(count <= 2);
            }
        }
    });
}

#[test]
fn gold_codes_cross_correlation_is_bounded() {
    prop::check("gold_codes_cross_correlation_is_bounded", |g| {
        let family = GoldFamily::degree7();
        let i = g.usize(0, 128);
        let j = g.usize(0, 128);
        let shift = g.usize(0, 126);
        if i != j {
            let c = family.code(i).periodic_correlation(family.code(j), shift);
            prop_assert!(c.abs() <= 17, "corr {} for ({}, {}) at {}", c, i, j, shift);
        }
    });
}

// ---------------------------------------------------------------------------
// Fault-plane properties: for ANY random fault schedule, every MAC's run
// terminates (the engine's liveness monitor stays clean), delivers no more
// than it was offered, keeps its fault counters consistent — and drawing the
// all-zero schedule reproduces the unfaulted seeded run byte-for-byte.
// ---------------------------------------------------------------------------

/// Draw an arbitrary fault schedule. Every knob shrinks toward 0 (= off),
/// so a failing case minimizes to the smallest dose that still breaks the
/// invariant. Ranges run up to roughly twice the `FaultConfig::chaos(1.0)`
/// profile; the magnitudes (spike delay, AP downtime, stall time, fade
/// length, churn downtime) are the fault plane's constants.
fn arbitrary_fault_schedule(g: &mut prop::Gen) -> FaultConfig {
    FaultConfig {
        wired_loss: g.f64(0.0, 0.25),
        wired_spike: g.f64(0.0, 0.16),
        ap_crash: g.f64(0.0, 0.02),
        compute_stall: g.f64(0.0, 0.16),
        rop_stale: g.f64(0.0, 0.12),
        fade: g.f64(0.0, 0.08),
        rop_corrupt: g.f64(0.0, 0.20),
        churn_rate_hz: g.f64(0.0, 3.0),
        ctrl_crash: g.f64(0.0, 0.08),
        ctrl_downtime_us: g.f64(0.0, 40_000.0),
        // Standby cadence knobs (checkpoint and heartbeat periods) keep
        // their defaults: the failover properties below draw them;
        // `standby: false` is the shrinker's floor.
        ..FaultConfig::off()
    }
}

/// The invariants every faulted run must satisfy.
fn assert_run_invariants(report: &RunReport, duration_s: f64) {
    let s = &report.stats;
    let label = report.scheme.label();
    // Termination: the run ended without tripping the liveness monitor.
    prop_assert_eq!(s.faults.livelocks, 0, "{} livelocked", label);
    prop_assert!(s.events > 0, "{} processed no events", label);
    prop_assert!(s.duration_s == duration_s);
    // Counter consistency across the fault ledger.
    prop_assert!(
        s.faults.crash_recoveries <= s.faults.ap_crashes,
        "{}: more recoveries than crashes: {:?}",
        label,
        s.faults
    );
    prop_assert!(
        s.faults.fades_opened <= s.faults.detections_suppressed,
        "{}: fade opened without suppressing its detection: {:?}",
        label,
        s.faults
    );
    prop_assert!(
        s.domino.watchdog_storms * 8 <= s.domino.watchdog_restarts,
        "{}: storms outnumber restarts: {:?}",
        label,
        s.domino
    );
}

#[test]
fn any_fault_schedule_terminates_and_conserves() {
    let duration_s = 0.1;
    let (down_bps, up_bps) = (4e6, 1e6);
    // The unfaulted pin, computed once per scheme: an all-off plane must
    // reproduce exactly these stats in every case below.
    let baseline = |scheme: Scheme| {
        SimulationBuilder::new(scenarios::fig1())
            .udp(down_bps, up_bps)
            .duration_s(duration_s)
            .seed(7)
            .run(scheme)
    };
    let pins: Vec<RunReport> = Scheme::ALL.iter().map(|&s| baseline(s)).collect();

    prop::check_with(
        prop::Config { cases: 6, seed: 0xFA01, max_shrink_replays: 48 },
        "any_fault_schedule_terminates_and_conserves",
        |g| {
            let faults = arbitrary_fault_schedule(g);
            let seed = g.u64(1, 1 << 20);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(down_bps, up_bps)
                .duration_s(duration_s)
                .seed(seed);
            for (&scheme, pin) in Scheme::ALL.iter().zip(&pins) {
                let r = b.clone().faults(faults.clone()).run(scheme);
                assert_run_invariants(&r, duration_s);
                // delivered ≤ offered, per flow link.
                let slack = (r.stats.delivered_bits.len() * 512 * 8) as f64;
                for f in
                    &domino::mac::Workload::udp_updown(b.network_ref(), down_bps, up_bps).flows
                {
                    let FlowKind::Udp { rate_bps } = &f.kind else { continue };
                    let delivered = r.stats.delivered_bits[f.link.index()] as f64;
                    prop_assert!(
                        delivered <= rate_bps * duration_s + slack,
                        "{}: link {:?} delivered {} > offered {}",
                        scheme.label(),
                        f.link,
                        delivered,
                        rate_bps * duration_s
                    );
                }
                // All-off reproduces the pinned seeded stats byte-for-byte
                // regardless of what the faulted run just did.
                let off = b.clone().seed(7).faults(FaultConfig::off()).run(scheme);
                prop_assert!(off.stats == pin.stats, "{}: the all-off run moved", scheme.label());
                prop_assert_eq!(off.stats.faults, Default::default());
            }
        },
    );
}

#[test]
fn tracing_never_perturbs_a_run() {
    // The observability plane's core contract, exercised under
    // adversarial fault schedules: attaching a trace sink is observation
    // only — the whole `RunStats` is identical with and without the
    // sink, for all four schemes — and the captured trace survives a
    // JSONL round trip losslessly.
    prop::check_with(
        prop::Config { cases: 4, seed: 0x0B5E, max_shrink_replays: 32 },
        "tracing_never_perturbs_a_run",
        |g| {
            let faults = arbitrary_fault_schedule(g);
            let seed = g.u64(1, 1 << 20);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(4e6, 1e6)
                .duration_s(0.1)
                .seed(seed)
                .faults(faults);
            for &scheme in &Scheme::ALL {
                let plain = b.run(scheme);
                let (handle, sink) = TraceHandle::mem();
                let traced = b.run_profiled(scheme, handle, ProfHandle::off());
                prop_assert!(
                    plain.stats == traced.stats,
                    "{}: tracing perturbed the run",
                    scheme.label()
                );
                let records = sink.take();
                prop_assert!(!records.is_empty(), "{}: empty trace", scheme.label());
                let meta = domino::obs::jsonl::TraceMeta {
                    experiment: "properties".to_string(),
                    scheme: scheme.label().to_string(),
                    seed,
                    scale: "quick".to_string(),
                };
                let text = domino::obs::jsonl::write_trace(&meta, &records);
                let (meta2, records2) = domino::obs::jsonl::parse_trace(&text)
                    .expect("a written trace must parse back");
                prop_assert_eq!(meta2, meta, "{}: meta round trip", scheme.label());
                prop_assert_eq!(records2, records, "{}: record round trip", scheme.label());
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Snapshot/restore and warm-standby failover properties.
// ---------------------------------------------------------------------------

#[test]
fn snapshot_restore_reproduces_any_run() {
    // For ANY scheme, workload (UDP, or TCP with its retransmission
    // timers queued), fault schedule (or none) and snapshot time: (1)
    // taking a checkpoint perturbs neither the run stats nor the trace
    // bytes, and (2) restoring that checkpoint in a fresh world — traced
    // and profiled — and driving to the horizon reproduces the
    // uninterrupted run exactly: the same stats, the uninterrupted trace
    // from the boundary on, and a profile that attributes every event it
    // counts.
    prop::check_with(
        prop::Config { cases: 4, seed: 0x5A9D, max_shrink_replays: 24 },
        "snapshot_restore_reproduces_any_run",
        |g| {
            let faults = arbitrary_fault_schedule(g);
            let seed = g.u64(1, 1 << 20);
            // Snapshot boundary: 10%–90% of the 0.1 s horizon.
            let t = SimTime::from_nanos(g.u64(1, 9) * 10_000_000);
            let b = SimulationBuilder::new(scenarios::fig1()).duration_s(0.1).seed(seed);
            let b = if g.bool() { b.tcp(4e6, 1e6) } else { b.udp(4e6, 1e6) };
            for faults in [faults, FaultConfig::off()] {
                let b = b.clone().faults(faults);
                for &scheme in &Scheme::ALL {
                    let (plain_handle, plain_sink) = TraceHandle::mem();
                    let plain = b.run_profiled(scheme, plain_handle, ProfHandle::off());
                    let plain_trace = plain_sink.take();
                    let (ckpt_handle, ckpt_sink) = TraceHandle::mem();
                    let mut snaps = Vec::new();
                    let opts = RunOpts {
                        probe: Probe::new(ckpt_handle, ProfHandle::off()),
                        checkpoints: Some(Checkpoints {
                            at: &[t],
                            sink: &mut |bt, s| snaps.push((bt, s)),
                        }),
                        restore: None,
                    };
                    let ckpt = b.run_with(scheme, opts).expect("no restore");
                    prop_assert!(
                        plain.stats == ckpt.stats,
                        "{}: checkpointing perturbed the run",
                        scheme.label()
                    );
                    prop_assert_eq!(
                        &plain_trace,
                        &ckpt_sink.take(),
                        "{}: checkpointing perturbed the trace",
                        scheme.label()
                    );
                    prop_assert_eq!(snaps.len(), 1, "{}: missing checkpoint", scheme.label());
                    let (res_handle, res_sink) = TraceHandle::mem();
                    let (res_prof, profiler) = ProfHandle::collecting();
                    let opts = RunOpts {
                        probe: Probe::new(res_handle, res_prof),
                        restore: Some(&snaps[0].1),
                        ..RunOpts::default()
                    };
                    let restored = b
                        .run_with(scheme, opts)
                        .unwrap_or_else(|e| panic!("{}: resume failed: {e:?}", scheme.label()));
                    prop_assert!(
                        plain.stats == restored.stats,
                        "{}: restored run diverged",
                        scheme.label()
                    );
                    let tail: Vec<_> =
                        plain_trace.iter().filter(|r| r.t_ns >= t.as_nanos()).cloned().collect();
                    prop_assert_eq!(
                        res_sink.take(),
                        tail,
                        "{}: restored trace diverged from the uninterrupted one",
                        scheme.label()
                    );
                    let profile = profiler.snapshot();
                    prop_assert_eq!(
                        profile.attributed_percent(),
                        100,
                        "{}: restored run left events unattributed",
                        scheme.label()
                    );
                }
            }
        },
    );
}

#[test]
fn failover_under_chaos_terminates_and_conserves() {
    // Controller crashes at arbitrary rates with the warm standby armed,
    // on top of an arbitrary chaos schedule: every scheme still
    // terminates cleanly, delivers no more than offered, and the standby
    // ledger stays consistent (promotions never exceed crashes; at most
    // the final in-flight failover is outstanding at the horizon).
    let duration_s = 0.1;
    let (down_bps, up_bps) = (4e6, 1e6);
    prop::check_with(
        prop::Config { cases: 5, seed: 0xFA17, max_shrink_replays: 32 },
        "failover_under_chaos_terminates_and_conserves",
        |g| {
            let mut faults = arbitrary_fault_schedule(g);
            faults.ctrl_crash = g.f64(0.0, 0.3);
            faults.ctrl_downtime_us = g.f64(0.0, 60_000.0);
            faults.standby = true;
            faults.standby_checkpoint_us = 500.0 + g.f64(0.0, 20_000.0);
            faults.standby_heartbeat_us = 250.0 + g.f64(0.0, 2_000.0);
            let seed = g.u64(1, 1 << 20);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(down_bps, up_bps)
                .duration_s(duration_s)
                .seed(seed)
                .faults(faults);
            for &scheme in &Scheme::ALL {
                let r = b.run(scheme);
                assert_run_invariants(&r, duration_s);
                let f = &r.stats.faults;
                prop_assert!(
                    f.standby_promotions <= f.ctrl_crashes,
                    "{}: more promotions than crashes: {:?}",
                    scheme.label(),
                    f
                );
                prop_assert!(
                    f.ctrl_crashes - f.standby_promotions <= 1,
                    "{}: stranded failovers: {:?}",
                    scheme.label(),
                    f
                );
                let slack = (r.stats.delivered_bits.len() * 512 * 8) as f64;
                for fl in
                    &domino::mac::Workload::udp_updown(b.network_ref(), down_bps, up_bps).flows
                {
                    let FlowKind::Udp { rate_bps } = &fl.kind else { continue };
                    let delivered = r.stats.delivered_bits[fl.link.index()] as f64;
                    prop_assert!(
                        delivered <= rate_bps * duration_s + slack,
                        "{}: link {:?} delivered {} > offered {}",
                        scheme.label(),
                        fl.link,
                        delivered,
                        rate_bps * duration_s
                    );
                }
            }
        },
    );
}

#[test]
fn regression_all_zero_fault_schedule_is_off() {
    // The shrinker's floor for `arbitrary_fault_schedule`: every choice 0
    // must decode to the all-off config (so minimal counterexamples read
    // as "no faults needed").
    prop::replay(&[], |g| {
        let cfg = arbitrary_fault_schedule(g);
        prop_assert!(!cfg.enabled());
        prop_assert_eq!(cfg, FaultConfig::off());
    });
}

// ---------------------------------------------------------------------------
// Conflict rows against the pairwise rules. The graph stores each link's
// conflicts as a row of 64-bit words and the greedy slot builders test a
// candidate with one bit of a blocked mask; these properties hold both to
// the pair-by-pair definitions on networks of one, two and three words per
// row.
// ---------------------------------------------------------------------------

/// One of three network families, by row width: T(10,2) (40 links, one
/// word), random T(20,3) (120 links, two) and random T(25,3) (150 links,
/// three), at a drawn seed.
fn arbitrary_row_width_network(g: &mut prop::Gen) -> (Network, usize) {
    let seed = g.u64(1, 500);
    match g.usize(0, 2) {
        0 => (scenarios::standard_t(10, 2, seed), 1),
        1 => (scenarios::random_t(20, 3, seed), 2),
        _ => (scenarios::random_t(25, 3, seed), 3),
    }
}

#[test]
fn conflict_rows_agree_with_the_pair_rules() {
    use domino::topology::conflict::{links_conflict, links_conflict_with_acks};
    prop::check_with(
        prop::Config { cases: 6, seed: 0xB175, max_shrink_replays: 16 },
        "conflict_rows_agree_with_the_pair_rules",
        |g| {
            let (net, words) = arbitrary_row_width_network(g);
            let n = net.links().len();
            let data = ConflictGraph::build(&net);
            let sched = ConflictGraph::build_for_scheduling(&net);
            for (graph, rule) in [
                (&data, links_conflict as fn(&Network, LinkId, LinkId) -> bool),
                (&sched, links_conflict_with_acks),
            ] {
                prop_assert_eq!(graph.len(), n);
                for i in 0..n {
                    let a = LinkId(i as u32);
                    prop_assert_eq!(graph.row(a).len(), words);
                    prop_assert!(!graph.conflicts(a, a), "{:?} conflicts with itself", a);
                    let mut neighbors = Vec::new();
                    for j in (0..n).filter(|&j| j != i) {
                        let b = LinkId(j as u32);
                        prop_assert_eq!(graph.conflicts(a, b), rule(&net, a, b), "{:?}/{:?}", a, b);
                        prop_assert_eq!(graph.conflicts(a, b), graph.conflicts(b, a));
                        if graph.conflicts(a, b) {
                            neighbors.push(b);
                        }
                    }
                    prop_assert_eq!(graph.degree(a), neighbors.len());
                    prop_assert_eq!(graph.neighbors(a), neighbors);
                }
                // Cells: any link of one AP against any link of the other.
                for a in net.aps() {
                    for b in (0..net.num_nodes() as u32).map(NodeId) {
                        let cell = |ap| net.links().iter().filter(move |l| l.ap == ap);
                        let pairwise =
                            cell(a).any(|la| cell(b).any(|lb| graph.conflicts(la.id, lb.id)));
                        prop_assert_eq!(graph.cells_conflict(a, b), pairwise, "{:?}/{:?}", a, b);
                    }
                }
            }
        },
    );
}

/// The greedy RAND slot rule, pair by pair: each backlogged link in
/// fairness order joins the slot when it is compatible with every link
/// already in it; the slot's links then move to the back of the order.
fn pairwise_schedule_batch(
    graph: &ConflictGraph,
    order: &mut Vec<LinkId>,
    backlog: &mut [u32],
    max_slots: usize,
) -> Vec<Vec<LinkId>> {
    let mut slots = Vec::new();
    for _ in 0..max_slots {
        let mut chosen: Vec<LinkId> = Vec::new();
        for &l in order.iter() {
            if backlog[l.index()] > 0 && graph.compatible_with_all(l, &chosen) {
                chosen.push(l);
            }
        }
        if chosen.is_empty() {
            break;
        }
        for &l in &chosen {
            backlog[l.index()] -= 1;
        }
        order.retain(|l| !chosen.contains(l));
        order.extend(chosen.iter().copied());
        slots.push(chosen);
    }
    slots
}

/// Fake-link insertion, pair by pair: each candidate in order joins the
/// set when it is compatible with every link already in it.
fn pairwise_extend(graph: &ConflictGraph, set: &mut Vec<LinkId>, candidates: &[LinkId]) {
    for &c in candidates {
        if graph.compatible_with_all(c, set) {
            set.push(c);
        }
    }
}

#[test]
fn greedy_slot_builders_agree_with_the_pairwise_greedy() {
    use domino::sim::snapshot::{SnapReader, SnapWriter, Snapshot};
    use domino::topology::LinkMask;
    prop::check_with(
        prop::Config { cases: 12, seed: 0x6EED, max_shrink_replays: 16 },
        "greedy_slot_builders_agree_with_the_pairwise_greedy",
        |g| {
            let (net, _) = arbitrary_row_width_network(g);
            let n = net.links().len();
            let graph = if g.bool() {
                ConflictGraph::build(&net)
            } else {
                ConflictGraph::build_for_scheduling(&net)
            };
            // A drawn fairness order, installed through the scheduler's
            // snapshot (its only dynamic state).
            let mut order: Vec<LinkId> = (0..n as u32).map(LinkId).collect();
            for i in (1..n).rev() {
                order.swap(i, g.usize(0, i));
            }
            let mut w = SnapWriter::new();
            w.put_u64(n as u64);
            for l in &order {
                w.put_u32(l.0);
            }
            let bytes = w.into_bytes();
            let mut sched = RandScheduler::new(n);
            prop_assert!(sched.restore(&mut SnapReader::new(&bytes)).is_ok());
            let mut mask = LinkMask::default();
            for _ in 0..3 {
                let idle = g.u64(0, 9);
                let backlog: Vec<u32> = (0..n)
                    .map(|_| if g.u64(0, 9) < idle { 0 } else { g.u64(1, 3) as u32 })
                    .collect();
                let max_slots = g.usize(1, 8);
                let (mut got_backlog, mut want_backlog) = (backlog.clone(), backlog);
                let got = sched.schedule_batch(&graph, &mut got_backlog, max_slots);
                let want =
                    pairwise_schedule_batch(&graph, &mut order, &mut want_backlog, max_slots);
                prop_assert_eq!(&got.slots, &want);
                prop_assert_eq!(&got_backlog, &want_backlog);
                prop_assert_eq!(sched.order(), &order[..]);
                // Each slot, topped up from a drawn rotation of every link.
                for slot in &got.slots {
                    let rot = g.usize(0, n - 1);
                    let candidates: Vec<LinkId> =
                        (rot..n).chain(0..rot).map(|l| LinkId(l as u32)).collect();
                    let (mut got_set, mut want_set) = (slot.clone(), slot.clone());
                    graph.extend_to_maximal_in_place(
                        &mut got_set,
                        candidates.iter().copied(),
                        &mut mask,
                    );
                    pairwise_extend(&graph, &mut want_set, &candidates);
                    prop_assert_eq!(&got_set, &want_set);
                    prop_assert!(graph.is_independent(&got_set));
                }
                sched.recycle(got);
            }
        },
    );
}

#[test]
fn one_converter_serves_same_shape_networks_like_fresh_ones() {
    use domino::scheduler::ConversionOutcome;
    use domino::sim::snapshot::{SnapReader, SnapWriter, Snapshot};
    // Same shape (30 nodes, 40 links), different RSS maps and so
    // different graphs: tables derived from the first network would
    // mislead the second's conversion.
    let first = scenarios::standard_t(10, 2, 1);
    let second = scenarios::standard_t(10, 2, 2);
    let (g1, g2) = (ConflictGraph::build(&first), ConflictGraph::build(&second));
    assert_eq!(
        (first.num_nodes(), first.links().len()),
        (second.num_nodes(), second.links().len())
    );
    let aps = second.aps();
    let differ = |a, b| g1.cells_conflict(a, b) != g2.cells_conflict(a, b);
    assert!(
        aps.iter().any(|&a| aps.iter().any(|&b| differ(a, b))),
        "the two networks' cell conflicts must differ for this property to bite"
    );
    prop::check_with(
        prop::Config { cases: 16, seed: 0xC0DE, max_shrink_replays: 16 },
        "one_converter_serves_same_shape_networks_like_fresh_ones",
        |g| {
            let rounds = g.usize(1, 4);
            let backlogs = |g: &mut prop::Gen| -> Vec<Vec<u32>> {
                (0..rounds).map(|_| (0..40).map(|_| g.u64(0, 2) as u32).collect()).collect()
            };
            let warmup = backlogs(g);
            let trial = backlogs(g);
            let run = |conv: &mut Converter,
                       net: &Network,
                       graph: &ConflictGraph,
                       backlogs: &[Vec<u32>]| {
                let mut sched = RandScheduler::new(net.links().len());
                let mut outcomes = Vec::new();
                for b in backlogs {
                    let mut b = b.clone();
                    let mut strict = sched.schedule_batch(graph, &mut b, 5);
                    if strict.is_empty() {
                        strict.slots = vec![Vec::new(); 2];
                    }
                    let mut out = ConversionOutcome::default();
                    conv.convert_into(net, graph, &strict, &net.aps(), &mut out);
                    outcomes.push(out);
                }
                outcomes
            };
            // The reused converter warms up on the first network, then
            // takes a fresh converter's dynamic state (batch counter, no
            // retained slot) and keeps only its own scratch and tables.
            let mut reused = Converter::new(ConverterConfig::default());
            let _ = run(&mut reused, &first, &g1, &warmup);
            let mut w = SnapWriter::new();
            Converter::new(ConverterConfig::default()).save(&mut w);
            let bytes = w.into_bytes();
            prop_assert!(reused.restore(&mut SnapReader::new(&bytes)).is_ok());
            let mut fresh = Converter::new(ConverterConfig::default());
            let got = run(&mut reused, &second, &g2, &trial);
            let want = run(&mut fresh, &second, &g2, &trial);
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(&a.batch, &b.batch);
                prop_assert_eq!(&a.unpolled_aps, &b.unpolled_aps);
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Regression replays: pinned choice sequences (the shrinker's floor and
// boundary cases) that must keep passing verbatim. `prop::replay` pads
// missing choices with zeros, so `&[]` is the all-minimal input of each
// property — exactly what a fully successful shrink would converge to if the
// property ever regressed there.
// ---------------------------------------------------------------------------

#[test]
fn regression_minimal_inputs_hold() {
    // Single event at t=0 delivered once, in order.
    prop::replay(&[], |g| {
        let times = g.vec(1, 200, |g| g.u64(0, 999_999));
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(engine.pop(), Some((SimTime::ZERO, 0)));
        prop_assert_eq!(engine.pop(), None);
    });
    // Zero-length durations: identities must hold at the origin.
    prop::replay(&[], |g| {
        let a = g.u64(0, u32::MAX as u64 - 1);
        let da = SimDuration::from_nanos(a);
        prop_assert_eq!(da + da, da);
        prop_assert_eq!((SimTime::from_nanos(a) + da) - da, SimTime::ZERO);
    });
}

#[test]
fn regression_duration_arithmetic_upper_boundary() {
    // Both summands at the top of the sampled range — the carry path the
    // random cases reach only with probability ~2^-64.
    prop::replay(&[u32::MAX as u64 - 1, u32::MAX as u64 - 1], |g| {
        let a = g.u64(0, u32::MAX as u64 - 1);
        let b = g.u64(0, u32::MAX as u64 - 1);
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
    });
}

#[test]
fn regression_scheduler_fully_interfering_backlog() {
    // All four cross-interference flags set with a saturated backlog: the
    // densest conflict graph the property can generate.
    prop::replay(&[0, 4, 4, 4, 4, 4, 4, 4, 4, 1, 1, 1, 1], |g| {
        let seed_backlog = g.vec(8, 8, |g| g.u64(0, 4) as u32);
        let cross: Vec<bool> = (0..4).map(|_| g.bool()).collect();
        prop_assert_eq!(&seed_backlog, &vec![4u32; 8]);
        prop_assert_eq!(&cross, &vec![true; 4]);
        let net = four_pair_network(&cross);
        let graph = ConflictGraph::build_for_scheduling(&net);
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = seed_backlog.clone();
        let strict = sched.schedule_batch(&graph, &mut backlog, 10);
        for slot in &strict.slots {
            prop_assert!(graph.is_independent(slot));
        }
        let consumed: u32 = seed_backlog.iter().zip(&backlog).map(|(a, b)| a - b).sum();
        let scheduled: usize = strict.slots.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed as usize, scheduled);
    });
}
