//! # domino-wired
//!
//! The wired backbone between the APs and the central controller.
//!
//! The whole reason Relative Scheduling exists is that this backbone
//! *jitters*: the paper (§4.2.1, following CENTAUR's measurements) models
//! per-message latency as normally distributed with mean 285 µs and a
//! variance of 22 µs, which is orders of magnitude coarser than the 9 µs
//! WiFi slot — so strict schedules cannot be released to APs with slot
//! accuracy. This crate provides that latency model and a typed
//! AP↔controller message layer on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use domino_obs::{TraceEvent, TraceHandle};
use domino_sim::rng::streams;
use domino_sim::{SimDuration, SimRng, SimTime};

/// Latency model of one backbone hop.
#[derive(Clone, Debug)]
pub struct WiredLatency {
    /// Mean one-way latency in microseconds.
    pub mean_us: f64,
    /// Standard deviation of the one-way latency in microseconds.
    pub std_us: f64,
    /// Floor below which no sample is allowed (switch + NIC minimum).
    pub min_us: f64,
}

impl Default for WiredLatency {
    /// The paper's §4.2.1 parameters: Normal(285 µs, 22 µs).
    ///
    /// The paper says "variance 22 µs"; CENTAUR (its cited source)
    /// reports a standard deviation of that magnitude, and Fig 11 sweeps
    /// this knob as "wired latency variance ... 20 µs to 80 µs" with
    /// resulting misalignments of 10–20 µs, which only makes sense as a
    /// standard deviation. We treat it as such.
    fn default() -> WiredLatency {
        WiredLatency { mean_us: 285.0, std_us: 22.0, min_us: 50.0 }
    }
}

impl WiredLatency {
    /// The default model with a different jitter (Fig 11 sweeps 20–80 µs).
    pub fn with_std(std_us: f64) -> WiredLatency {
        WiredLatency { std_us, ..WiredLatency::default() }
    }

    /// Draw one latency sample.
    ///
    /// The sample is a normal deviate clamped from below: `.max(min_us)`
    /// moves all left-tail mass onto the floor, so the *effective* mean of
    /// what this returns is strictly greater than `mean_us` (a truncated-
    /// normal bias). With the default parameters the floor sits more than
    /// 10σ below the mean and the bias is far below a nanosecond, but for
    /// models where the floor bites (e.g. `mean_us` near `min_us`, or the
    /// wide-σ Fig 11 sweeps) the shift is real — the
    /// `clamped_sample_mean_is_biased_upward` test pins it.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let us = rng.normal(self.mean_us, self.std_us).max(self.min_us);
        SimDuration::from_micros_f64(us)
    }
}

/// A message in flight on the backbone, addressed to one AP (downstream)
/// or to the controller (upstream).
#[derive(Clone, Debug, PartialEq)]
pub struct InTransit<M> {
    /// Delivery instant.
    pub deliver_at: SimTime,
    /// Payload.
    pub message: M,
}

/// The backbone: draws an independent latency per message and computes
/// delivery times. The caller (the simulation harness) owns the event
/// queue; this type owns the randomness and the accounting.
#[derive(Debug)]
pub struct Backbone {
    latency: WiredLatency,
    rng: SimRng,
    /// Fault draws (loss, spikes) come from their own stream so that a
    /// fault-free run consumes exactly the same jitter sequence whether or
    /// not the knobs exist.
    faults: SimRng,
    loss: f64,
    spike: f64,
    spike_extra_us: f64,
    lost: u64,
    spiked: u64,
    tracer: TraceHandle,
}

impl Backbone {
    /// A backbone with the given latency model, seeded deterministically.
    /// All fault knobs default to off (loss probability 0.0, no spikes).
    pub fn new(latency: WiredLatency, master_seed: u64) -> Backbone {
        Backbone::on_streams(latency, master_seed, streams::WIRED_JITTER, streams::FAULT_WIRED)
    }

    /// A backbone drawing jitter and fault decisions from caller-chosen
    /// streams. The warm-standby control plane runs on its own instance
    /// (`STANDBY_WIRED` and `FAULT_STANDBY_WIRED`) so its
    /// heartbeat/checkpoint traffic never advances the primary backbone's
    /// draw sequences, and loses other messages than the primary does.
    pub fn on_streams(
        latency: WiredLatency,
        master_seed: u64,
        jitter_stream: u64,
        fault_stream: u64,
    ) -> Backbone {
        Backbone {
            latency,
            rng: SimRng::derive(master_seed, jitter_stream),
            faults: SimRng::derive(master_seed, fault_stream),
            loss: 0.0,
            spike: 0.0,
            spike_extra_us: 0.0,
            lost: 0,
            spiked: 0,
            tracer: TraceHandle::off(),
        }
    }

    /// Raw draws taken across this backbone's two streams (jitter and
    /// faults) so far — profiler food for `rng;wired`.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws() + self.faults.draws()
    }

    /// Attach a trace sink. Observation only — attaching never changes
    /// latency draws, loss decisions, or delivery times; the backbone
    /// emits [`TraceEvent::BackboneSend`] per surviving message and
    /// [`TraceEvent::BackboneDrop`] per loss.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Set the per-message loss probability (default 0.0); with 0.0 no
    /// loss draw is made.
    pub fn set_loss(&mut self, probability: f64) {
        self.loss = probability.clamp(0.0, 1.0);
    }

    /// Set the per-message delay-spike probability and the mean extra
    /// delay (exponentially distributed) a spiked message suffers on top
    /// of its [`WiredLatency`] draw. Defaults to off.
    pub fn set_spikes(&mut self, probability: f64, extra_us: f64) {
        self.spike = probability.clamp(0.0, 1.0);
        self.spike_extra_us = extra_us.max(0.0);
    }

    /// Send a message now, subject to the fault knobs: it comes back
    /// stamped with its delivery time, or `None` when the backbone dropped
    /// it. The latency draw happens first and unconditionally, so
    /// surviving messages see exactly the latencies a fault-free run would
    /// have given them; with every knob at zero nothing is dropped or
    /// spiked, and the fault stream is never drawn.
    pub fn try_send<M>(&mut self, now: SimTime, message: M) -> Option<InTransit<M>> {
        let mut deliver_at = now + self.latency.sample(&mut self.rng);
        if self.loss > 0.0 && self.faults.chance(self.loss) {
            self.lost += 1;
            self.tracer.emit(now.as_nanos(), || TraceEvent::BackboneDrop {});
            return None;
        }
        let mut spiked = false;
        if self.spike > 0.0 && self.faults.chance(self.spike) {
            self.spiked += 1;
            spiked = true;
            deliver_at += SimDuration::from_micros_f64(self.faults.exponential(self.spike_extra_us));
        }
        self.tracer.emit(now.as_nanos(), || TraceEvent::BackboneSend {
            delay_ns: deliver_at.saturating_since(now).as_nanos(),
            spiked,
        });
        Some(InTransit { deliver_at, message })
    }

    /// Messages dropped by the loss knob so far.
    pub fn messages_lost(&self) -> u64 {
        self.lost
    }

    /// Messages delayed by the spike knob so far.
    pub fn spikes_injected(&self) -> u64 {
        self.spiked
    }
}

// Dynamic state: the two RNG positions and the fault counters. The
// latency model and every knob are configuration, re-applied by the
// restore target's builder.
domino_sim::snapshot_fields!(Backbone { rng, faults, lost, spiked });

#[cfg(test)]
mod tests {
    use super::*;
    use domino_sim::snapshot::{SnapReader, SnapWriter, Snapshot};

    #[test]
    fn default_matches_paper_parameters() {
        let l = WiredLatency::default();
        assert_eq!(l.mean_us, 285.0);
        assert_eq!(l.std_us, 22.0);
    }

    #[test]
    fn samples_cluster_around_mean() {
        let l = WiredLatency::default();
        let mut rng = SimRng::derive(1, streams::WIRED_JITTER);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let s = l.sample(&mut rng).as_micros_f64();
            sum += s;
            sumsq += s * s;
        }
        let mean = sum / n as f64;
        let std = (sumsq / n as f64 - mean * mean).sqrt();
        assert!((mean - 285.0).abs() < 1.0, "mean={mean}");
        assert!((std - 22.0).abs() < 1.0, "std={std}");
    }

    #[test]
    fn samples_respect_floor() {
        let l = WiredLatency { mean_us: 60.0, std_us: 100.0, min_us: 50.0 };
        let mut rng = SimRng::derive(2, streams::WIRED_JITTER);
        for _ in 0..5_000 {
            assert!(l.sample(&mut rng).as_micros_f64() >= 50.0);
        }
    }

    /// A send with the knobs off, which never drops.
    fn sent<M>(bb: &mut Backbone, now: SimTime, message: M) -> InTransit<M> {
        bb.try_send(now, message).expect("no loss configured")
    }

    #[test]
    fn backbone_stamps_future_delivery() {
        let mut bb = Backbone::new(WiredLatency::default(), 99);
        let now = SimTime::from_millis(3);
        let m = sent(&mut bb, now, "schedule-batch-7");
        assert!(m.deliver_at > now);
        assert!(m.deliver_at.saturating_since(now).as_micros_f64() > 100.0);
        assert_eq!(m.message, "schedule-batch-7");
    }

    #[test]
    fn independent_messages_jitter_independently() {
        let mut bb = Backbone::new(WiredLatency::default(), 7);
        let now = SimTime::ZERO;
        let a = sent(&mut bb, now, 1u32).deliver_at;
        let b = sent(&mut bb, now, 2u32).deliver_at;
        assert_ne!(a, b, "two messages drew identical latencies");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut bb = Backbone::new(WiredLatency::default(), seed);
            (0..10)
                .map(|i| sent(&mut bb, SimTime::ZERO, i).deliver_at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn clamped_sample_mean_is_biased_upward() {
        // With the floor one σ below the mean, Φ(-1) ≈ 15.9 % of the mass
        // is clamped up; the truncated mean of max(N(µ,σ), µ-σ) is
        // µ + σ(φ(1) - Φ(-1)) ≈ µ + 0.0833σ. Pin that the empirical
        // clamped mean lands on the analytic value, not on µ.
        let l = WiredLatency { mean_us: 100.0, std_us: 40.0, min_us: 60.0 };
        let mut rng = SimRng::derive(11, streams::WIRED_JITTER);
        let n = 200_000;
        let mean =
            (0..n).map(|_| l.sample(&mut rng).as_micros_f64()).sum::<f64>() / n as f64;
        let analytic = 100.0 + 40.0 * 0.083_332; // µ + σ·(φ(1) − Φ(−1))
        assert!((mean - analytic).abs() < 0.2, "mean={mean} analytic={analytic}");
        assert!(mean > 100.0 + 2.0, "clamping must visibly shift the mean: {mean}");
    }

    #[test]
    fn try_send_with_knobs_off_never_drops_spikes_or_draws_faults() {
        let latency = WiredLatency::default();
        let mut bb = Backbone::new(latency.clone(), 21);
        let mut jitter = SimRng::derive(21, streams::WIRED_JITTER);
        for i in 0..100u32 {
            let m = bb.try_send(SimTime::ZERO, i).expect("no loss configured");
            let deliver_at = SimTime::ZERO + latency.sample(&mut jitter);
            assert_eq!(m, InTransit { deliver_at, message: i });
        }
        assert_eq!(bb.messages_lost(), 0);
        assert_eq!(bb.spikes_injected(), 0);
        assert_eq!(bb.faults.draws(), 0, "the fault stream was drawn");
    }

    #[test]
    fn loss_knob_drops_at_the_configured_rate() {
        let mut bb = Backbone::new(WiredLatency::default(), 31);
        bb.set_loss(0.3);
        let n = 20_000;
        let delivered = (0..n).filter(|&i| bb.try_send(SimTime::ZERO, i).is_some()).count();
        assert_eq!(bb.messages_lost(), n as u64 - delivered as u64);
        let rate = bb.messages_lost() as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn spikes_delay_but_never_drop() {
        let mut plain = Backbone::new(WiredLatency::default(), 41);
        let mut spiky = Backbone::new(WiredLatency::default(), 41);
        spiky.set_spikes(0.5, 3_000.0);
        let mut spiked = 0u32;
        for i in 0..2_000u32 {
            let a = sent(&mut plain, SimTime::ZERO, i).deliver_at;
            let b = spiky.try_send(SimTime::ZERO, i).expect("spikes never drop").deliver_at;
            assert!(b >= a, "a spike can only add delay");
            if b > a {
                spiked += 1;
            }
        }
        assert_eq!(u64::from(spiked), spiky.spikes_injected());
        assert!((900..1100).contains(&spiked), "spike count {spiked}");
    }

    #[test]
    fn tracer_observes_sends_and_drops_without_perturbing_them() {
        let mut plain = Backbone::new(WiredLatency::default(), 61);
        plain.set_loss(0.5);
        let mut traced = Backbone::new(WiredLatency::default(), 61);
        traced.set_loss(0.5);
        let (handle, sink) = TraceHandle::mem();
        traced.set_tracer(handle);
        for i in 0..100u32 {
            let a = plain.try_send(SimTime::ZERO, i).map(|m| m.deliver_at);
            let b = traced.try_send(SimTime::ZERO, i).map(|m| m.deliver_at);
            assert_eq!(a, b, "tracing must not perturb the backbone");
        }
        let events = sink.take();
        assert_eq!(events.len(), 100, "one event per message");
        let drops = events.iter().filter(|r| r.ev == TraceEvent::BackboneDrop {}).count() as u64;
        assert_eq!(drops, traced.messages_lost());
    }

    #[test]
    fn standby_stream_backbone_is_independent_of_primary() {
        let standby_wire = || {
            Backbone::on_streams(
                WiredLatency::default(),
                81,
                streams::STANDBY_WIRED,
                streams::FAULT_STANDBY_WIRED,
            )
        };
        let mut primary = Backbone::new(WiredLatency::default(), 81);
        let mut standby = standby_wire();
        // Interleaved standby traffic must not perturb the primary's
        // sequence relative to a standby-free run.
        let mut solo = Backbone::new(WiredLatency::default(), 81);
        for i in 0..200u32 {
            let _ = sent(&mut standby, SimTime::ZERO, i);
            assert_eq!(
                sent(&mut primary, SimTime::ZERO, i).deliver_at,
                sent(&mut solo, SimTime::ZERO, i).deliver_at
            );
        }
        // Under the same loss knob the two wires drop different messages.
        let mut primary = Backbone::new(WiredLatency::default(), 81);
        let mut standby = standby_wire();
        primary.set_loss(0.3);
        standby.set_loss(0.3);
        let lost = |bb: &mut Backbone| -> Vec<bool> {
            (0..1_000u32).map(|i| bb.try_send(SimTime::ZERO, i).is_none()).collect()
        };
        let (primary_lost, standby_lost) = (lost(&mut primary), lost(&mut standby));
        assert!(primary.messages_lost() > 0 && standby.messages_lost() > 0);
        assert_ne!(primary_lost, standby_lost, "the standby loses what the primary loses");
    }

    #[test]
    fn backbone_snapshot_resumes_every_stream() {
        let mut bb = Backbone::new(WiredLatency::default(), 91);
        bb.set_loss(0.3);
        bb.set_spikes(0.1, 2_000.0);
        for i in 0..800u32 {
            let _ = bb.try_send(SimTime::ZERO, i);
        }
        let mut w = SnapWriter::new();
        bb.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Backbone::new(WiredLatency::default(), 91);
        restored.set_loss(0.3);
        restored.set_spikes(0.1, 2_000.0);
        let mut r = SnapReader::new(&bytes);
        restored.restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.messages_lost(), bb.messages_lost());
        for i in 0..500u32 {
            assert_eq!(
                bb.try_send(SimTime::ZERO, i).map(|m| m.deliver_at),
                restored.try_send(SimTime::ZERO, i).map(|m| m.deliver_at),
                "diverged at post-restore message {i}"
            );
        }
        assert_eq!(restored.messages_lost(), bb.messages_lost());
        assert_eq!(restored.spikes_injected(), bb.spikes_injected());
    }

    #[test]
    fn surviving_messages_keep_their_fault_free_latencies() {
        // The loss draw must not perturb the jitter stream: message i gets
        // the same latency in a lossy run as in a clean one.
        let mut clean = Backbone::new(WiredLatency::default(), 51);
        let mut lossy = Backbone::new(WiredLatency::default(), 51);
        lossy.set_loss(0.4);
        for i in 0..1_000u32 {
            let a = sent(&mut clean, SimTime::ZERO, i).deliver_at;
            if let Some(b) = lossy.try_send(SimTime::ZERO, i) {
                assert_eq!(a, b.deliver_at);
            }
        }
    }
}
