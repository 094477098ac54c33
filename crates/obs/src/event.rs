//! The trace event taxonomy.
//!
//! Every event a scheme engine, the sim core, the medium, the backbone,
//! or the fault plane can emit while a run is traced. Events carry only
//! plain integers and booleans — no floats (exact equality must hold for
//! trace diffing) and no references into engine state (a trace outlives
//! its run).

crate::named_enum! {
    /// Which fault-plane class an injection or recovery belongs to.
    ///
    /// Wired-backbone faults are not listed here: a lost message is a
    /// [`TraceEvent::BackboneDrop`] and a latency spike rides on
    /// [`TraceEvent::BackboneSend`]'s `spiked` flag. The name is the JSONL
    /// wire name; the derived `Ord` (declaration order) orders the
    /// per-kind lines of `domino-trace faults`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub enum FaultKind {
        /// An AP crashed with state loss and went dark for its downtime.
        ApCrash => "ap_crash",
        /// The controller's batch computation stalled.
        ComputeStall => "compute_stall",
        /// A client answered a ROP poll with a stale queue report.
        StaleRop => "stale_rop",
        /// A deep fade suppressed signature detection at a receiver.
        Fade => "fade",
        /// A ROP report was corrupted in the air.
        RopCorrupt => "rop_corrupt",
        /// A churn dark interval swallowed a client's transmission.
        ChurnDrop => "churn_drop",
        /// The primary controller crashed (failover class). Recovery is
        /// either the warm standby's promotion or the cold restart.
        CtrlCrash => "ctrl_crash",
    }
}

crate::jsonl::trace_schema! {
    /// One structured trace event.
    ///
    /// The taxonomy covers the temporal claims the paper makes: slot
    /// transmissions (Fig 10/11), the signature-burst trigger chain (§3.2),
    /// ROP polling (§3.5), batch dispatch over the jittery backbone (§3.6),
    /// CENTAUR's epoch barrier (§4.2.3), fault injections/recoveries, and
    /// the engine's livelock guard. Each variant is listed with its JSONL
    /// wire name; each field's JSONL key is its name, and fields are
    /// written in the order listed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TraceEvent {
        /// A scheduled slot transmission started.
        SlotStart => "slot_start" {
            /// Absolute (globally monotonic) slot index.
            slot: u64,
            /// The transmitting link.
            link: u32,
            /// Header-only fake keep-alive?
            fake: bool,
        },
        /// A slot's data exchange left the air.
        SlotEnd => "slot_end" {
            /// The transmitting link.
            link: u32,
            /// Did the payload deliver?
            delivered: bool,
        },
        /// A signature burst was put on the air.
        SigEmit => "sig_emit" {
            /// Emitting node.
            node: u32,
            /// The slot the burst triggers.
            slot: u64,
            /// Targeted nodes (the paper caps this at 4 outbound).
            targets: Vec<u32>,
        },
        /// A targeted receiver's correlator detected the burst.
        SigDetect => "sig_detect" {
            /// Detecting node.
            node: u32,
            /// The triggered slot.
            slot: u64,
        },
        /// A targeted receiver missed the burst (SINR / correlator failure).
        SigMiss => "sig_miss" {
            /// The receiver that missed.
            node: u32,
            /// The slot that went untriggered.
            slot: u64,
        },
        /// A detected trigger actually fired a slot start.
        TriggerFire => "trigger_fire" {
            /// The fired node.
            node: u32,
            /// The fired slot.
            slot: u64,
        },
        /// An AP started a ROP poll of its clients.
        RopPoll => "rop_poll" {
            /// Polling AP.
            ap: u32,
        },
        /// A client's queue report reached its AP.
        RopReport => "rop_report" {
            /// Reporting client.
            client: u32,
            /// Receiving AP.
            ap: u32,
            /// Reported queue length.
            queue: u32,
        },
        /// The controller dispatched a batch of scheduled slots.
        BatchBegin => "batch_begin" {
            /// Batch counter.
            batch: u64,
            /// First absolute slot index in the batch.
            first_slot: u64,
            /// Number of slots in the batch.
            slots: u32,
        },
        /// The controller observed batch completion.
        BatchEnd => "batch_end" {
            /// Batch counter.
            batch: u64,
        },
        /// CENTAUR's epoch barrier released (or timed out).
        EpochBarrier => "epoch_barrier" {
            /// Epoch counter.
            epoch: u64,
            /// APs still outstanding when the barrier moved.
            pending: u32,
        },
        /// A message survived the wired backbone.
        BackboneSend => "backbone_send" {
            /// Wire latency applied, ns.
            delay_ns: u64,
            /// Did a congestion spike inflate the latency?
            spiked: bool,
        },
        /// The wired backbone lost a message.
        BackboneDrop => "backbone_drop" {},
        /// The fault plane injected a fault.
        FaultInject => "fault_inject" {
            /// Fault class.
            kind: FaultKind,
            /// Affected node (0 for node-less classes).
            node: u32,
        },
        /// A previously injected fault recovered.
        FaultRecover => "fault_recover" {
            /// Fault class.
            kind: FaultKind,
            /// Recovered node.
            node: u32,
        },
        /// The primary controller shipped a state checkpoint to the warm
        /// standby over the wired backbone.
        CtrlCheckpoint => "ctrl_checkpoint" {
            /// Serialized checkpoint size in bytes.
            bytes: u32,
        },
        /// The warm standby promoted itself to primary after detecting the
        /// crash, restoring the last checkpoint and replaying the delta.
        StandbyPromote => "standby_promote" {
            /// Buffered queue reports replayed on top of the checkpoint.
            replayed: u64,
        },
        /// The liveness window rolled over (periodic health probe).
        LivelockCheck => "livelock_check" {
            /// Events processed in the window that just closed.
            events: u64,
        },
        /// The liveness budget tripped: the run was declared livelocked.
        Livelock => "livelock" {
            /// Events processed inside the fatal window.
            events: u64,
            /// The budget that was exceeded.
            budget: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("nope"), None);
    }

    #[test]
    fn event_names_are_distinct() {
        let evs = [
            TraceEvent::SlotStart { slot: 0, link: 0, fake: false },
            TraceEvent::SlotEnd { link: 0, delivered: true },
            TraceEvent::SigEmit { node: 0, slot: 0, targets: vec![] },
            TraceEvent::SigDetect { node: 0, slot: 0 },
            TraceEvent::SigMiss { node: 0, slot: 0 },
            TraceEvent::TriggerFire { node: 0, slot: 0 },
            TraceEvent::RopPoll { ap: 0 },
            TraceEvent::RopReport { client: 0, ap: 0, queue: 0 },
            TraceEvent::BatchBegin { batch: 0, first_slot: 0, slots: 0 },
            TraceEvent::BatchEnd { batch: 0 },
            TraceEvent::EpochBarrier { epoch: 0, pending: 0 },
            TraceEvent::BackboneSend { delay_ns: 0, spiked: false },
            TraceEvent::BackboneDrop {},
            TraceEvent::FaultInject { kind: FaultKind::Fade, node: 0 },
            TraceEvent::FaultRecover { kind: FaultKind::ApCrash, node: 0 },
            TraceEvent::CtrlCheckpoint { bytes: 0 },
            TraceEvent::StandbyPromote { replayed: 0 },
            TraceEvent::LivelockCheck { events: 0 },
            TraceEvent::Livelock { events: 0, budget: 0 },
        ];
        let mut names: Vec<&str> = evs.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), evs.len());
    }
}
