//! Exhaustive JSONL round-trip property.
//!
//! The unit tests in `jsonl.rs` round-trip one hand-written sample per
//! event kind; this property round-trips **randomized** field values
//! for every kind, so a field the writer forgets, the parser mistypes,
//! or an escape that breaks on unusual input shows up as a shrunk
//! counterexample instead of a corrupt trace in the field.
//!
//! Coverage is enforced at compile time: [`kind_index`] matches every
//! `TraceEvent` variant without a wildcard, so adding a variant fails
//! this file's build until the generator below learns to produce it.

use domino_obs::jsonl::{parse_trace, write_trace, TraceMeta};
use domino_obs::{FaultKind, TraceEvent, TraceRecord};
use domino_testkit::prop::{check_with, Config, Gen};

/// Number of `TraceEvent` kinds the generator must cover.
const KINDS: usize = 19;

/// Stable index of each event kind. Exhaustive on purpose — a new
/// variant breaks this match (and therefore the build) until both this
/// function and [`arbitrary_event`] handle it.
fn kind_index(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::SlotStart { .. } => 0,
        TraceEvent::SlotEnd { .. } => 1,
        TraceEvent::SigEmit { .. } => 2,
        TraceEvent::SigDetect { .. } => 3,
        TraceEvent::SigMiss { .. } => 4,
        TraceEvent::TriggerFire { .. } => 5,
        TraceEvent::RopPoll { .. } => 6,
        TraceEvent::RopReport { .. } => 7,
        TraceEvent::BatchBegin { .. } => 8,
        TraceEvent::BatchEnd { .. } => 9,
        TraceEvent::EpochBarrier { .. } => 10,
        TraceEvent::BackboneSend { .. } => 11,
        TraceEvent::BackboneDrop {} => 12,
        TraceEvent::FaultInject { .. } => 13,
        TraceEvent::FaultRecover { .. } => 14,
        TraceEvent::CtrlCheckpoint { .. } => 15,
        TraceEvent::StandbyPromote { .. } => 16,
        TraceEvent::LivelockCheck { .. } => 17,
        TraceEvent::Livelock { .. } => 18,
    }
}

fn u32_of(g: &mut Gen) -> u32 {
    g.u64(0, u64::from(u32::MAX)) as u32
}

/// One random event of the given kind, extreme values included.
fn arbitrary_event(g: &mut Gen, kind: usize) -> TraceEvent {
    match kind {
        0 => TraceEvent::SlotStart {
            slot: g.u64(0, u64::MAX),
            link: u32_of(g),
            fake: g.bool(),
        },
        1 => TraceEvent::SlotEnd { link: u32_of(g), delivered: g.bool() },
        2 => {
            let n = g.usize(0, 5);
            TraceEvent::SigEmit {
                node: u32_of(g),
                slot: g.u64(0, u64::MAX),
                targets: (0..n).map(|_| u32_of(g)).collect(),
            }
        }
        3 => TraceEvent::SigDetect { node: u32_of(g), slot: g.u64(0, u64::MAX) },
        4 => TraceEvent::SigMiss { node: u32_of(g), slot: g.u64(0, u64::MAX) },
        5 => TraceEvent::TriggerFire { node: u32_of(g), slot: g.u64(0, u64::MAX) },
        6 => TraceEvent::RopPoll { ap: u32_of(g) },
        7 => TraceEvent::RopReport { client: u32_of(g), ap: u32_of(g), queue: u32_of(g) },
        8 => TraceEvent::BatchBegin {
            batch: g.u64(0, u64::MAX),
            first_slot: g.u64(0, u64::MAX),
            slots: u32_of(g),
        },
        9 => TraceEvent::BatchEnd { batch: g.u64(0, u64::MAX) },
        10 => TraceEvent::EpochBarrier { epoch: g.u64(0, u64::MAX), pending: u32_of(g) },
        11 => TraceEvent::BackboneSend { delay_ns: g.u64(0, u64::MAX), spiked: g.bool() },
        12 => TraceEvent::BackboneDrop {},
        13 => TraceEvent::FaultInject { kind: *g.pick(&FaultKind::ALL), node: u32_of(g) },
        14 => TraceEvent::FaultRecover { kind: *g.pick(&FaultKind::ALL), node: u32_of(g) },
        15 => TraceEvent::CtrlCheckpoint { bytes: u32_of(g) },
        16 => TraceEvent::StandbyPromote { replayed: g.u64(0, u64::MAX) },
        17 => TraceEvent::LivelockCheck { events: g.u64(0, u64::MAX) },
        18 => TraceEvent::Livelock { events: g.u64(0, u64::MAX), budget: g.u64(0, u64::MAX) },
        other => unreachable!("kind {other} out of range"),
    }
}

/// A header with awkward-but-legal strings (quotes, backslashes,
/// newlines) mixed in, exercising the escaper.
fn arbitrary_meta(g: &mut Gen) -> TraceMeta {
    let names = ["fig10_timeline", "we\"ird", "back\\slash", "new\nline", ""];
    TraceMeta {
        experiment: g.pick(&names).to_string(),
        scheme: g.pick(&["domino", "dcf", "s\"ch\\eme"]).to_string(),
        seed: g.u64(0, u64::MAX),
        scale: g.pick(&["quick", "full", "q\nq"]).to_string(),
    }
}

#[test]
fn every_event_kind_round_trips_with_random_fields() {
    check_with(
        Config::default(),
        "every_event_kind_round_trips_with_random_fields",
        |g| {
            let meta = arbitrary_meta(g);
            // One record of every kind per case (shuffled coverage comes
            // from the random extra records below), then a handful of
            // random kinds so multiplicity is exercised too.
            let mut records: Vec<TraceRecord> = Vec::new();
            let mut t_ns = 0u64;
            for kind in 0..KINDS {
                let ev = arbitrary_event(g, kind);
                assert_eq!(kind_index(&ev), kind, "generator produced the wrong kind");
                records.push(TraceRecord { t_ns, ev });
                t_ns = t_ns.saturating_add(g.u64(0, 1_000_000));
            }
            for _ in 0..g.usize(0, 8) {
                let kind = g.usize(0, KINDS - 1);
                records.push(TraceRecord { t_ns, ev: arbitrary_event(g, kind) });
                t_ns = t_ns.saturating_add(g.u64(0, 1_000_000));
            }
            let text = write_trace(&meta, &records);
            let (meta2, records2) = match parse_trace(&text) {
                Ok(pair) => pair,
                Err(e) => panic!("round trip failed: {e}\ntrace:\n{text}"),
            };
            assert_eq!(meta, meta2, "header drifted");
            assert_eq!(records, records2, "records drifted");
            // Writer stability rides along: same inputs, same bytes.
            assert_eq!(text, write_trace(&meta, &records));
        },
    );
}
