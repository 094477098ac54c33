//! Sample-level signature transmission and detection.
//!
//! In DOMINO a trigger is a burst of up to four summed Gold-code signatures
//! transmitted back-to-back with the data exchange (paper §3.2, Fig 8). The
//! receiver runs a correlator for its own signature continuously; detection
//! must work *without* decoding, under interference from other senders'
//! bursts and under noise.
//!
//! This module synthesizes complex-baseband bursts (BPSK chips at 20 Mchip/s,
//! one sample per chip, 6.35 µs per 127-chip signature) and implements the
//! receiver: an energy-normalized correlator with successive interference
//! cancellation (SIC). The Fig 9 experiment — detection ratio vs number of
//! combined signatures for five sender setups — is reproduced by
//! [`detection_experiment`]; the network simulator's calibrated trigger
//! model (`domino-medium`) is justified by these results.

use crate::complex::Complex;
use crate::gold::{Code, GoldFamily, CODE_LENGTH};
use domino_sim::SimRng;

/// Duration of one 127-chip signature at 20 Mchip/s, in nanoseconds
/// (6.35 µs, paper §3.2).
pub const SIGNATURE_DURATION_NS: u64 = 6_350;

/// Maximum number of signatures DOMINO combines in one burst (paper §3.2,
/// conclusion of the Fig 9 experiment).
pub const MAX_COMBINED: usize = 4;

/// One physical transmitter's contribution to a signature burst.
#[derive(Clone, Debug)]
pub struct SenderSpec {
    /// Indices into the [`GoldFamily`] of the codes this sender sums.
    pub code_indices: Vec<usize>,
    /// Arrival offset at the receiver, in chips (propagation + turnaround
    /// skew). Must stay small relative to the code length.
    pub delay_chips: usize,
    /// Carrier phase of this sender as seen by the receiver, radians.
    pub phase: f64,
    /// Received amplitude relative to the nominal sender (linear, 1.0 =
    /// equal RSS).
    pub amplitude: f64,
}

impl SenderSpec {
    /// A sender with the given codes, ideal timing/phase and unit gain.
    pub fn simple(code_indices: Vec<usize>) -> SenderSpec {
        SenderSpec { code_indices, delay_chips: 0, phase: 0.0, amplitude: 1.0 }
    }
}

/// Synthesize the received complex-baseband samples of a signature burst.
///
/// Each sender transmits the *sum* of its codes with total transmit power
/// held constant (per-code amplitude `1/sqrt(k)`), as a hardware
/// transmitter with a fixed power amplifier would. White Gaussian noise
/// with per-sample standard deviation `noise_sigma` (per real/imaginary
/// component) is added. The returned window is long enough to contain every
/// sender's delayed burst.
pub fn synthesize_burst(
    family: &GoldFamily,
    senders: &[SenderSpec],
    noise_sigma: f64,
    rng: &mut SimRng,
) -> Vec<Complex> {
    let max_delay = senders.iter().map(|s| s.delay_chips).max().unwrap_or(0);
    let len = CODE_LENGTH + max_delay;
    let mut samples = vec![Complex::ZERO; len];
    for sender in senders {
        assert!(!sender.code_indices.is_empty(), "sender with no codes");
        let per_code = sender.amplitude / (sender.code_indices.len() as f64).sqrt();
        let phasor = Complex::from_polar(per_code, sender.phase);
        for &ci in &sender.code_indices {
            let code = family.code(ci);
            for (t, &chip) in code.chips().iter().enumerate() {
                // lint: allow(D010) samples sized CODE_LENGTH + max(delay_chips) above; t < CODE_LENGTH keeps the sum in bounds
                samples[t + sender.delay_chips] += phasor * f64::from(chip);
            }
        }
    }
    for s in samples.iter_mut() {
        *s += Complex::new(
            rng.normal(0.0, noise_sigma),
            rng.normal(0.0, noise_sigma),
        );
    }
    samples
}

/// Receiver-side signature detector.
///
/// Detection metric: `|Σ_t r[t+lag] · c[t]| / (L · a_ref)`, maximized over
/// a small lag window, where `a_ref` is the *expected* per-chip amplitude
/// of the triggering transmitter. DOMINO nodes can reference-normalize
/// because the central interference map tells every node the RSS of its
/// designated triggers (paper §3). A perfectly received lone signature
/// scores ≈ 1; a signature sharing a fixed-power burst with `k-1` others
/// scores ≈ `1/sqrt(k)`.
///
/// Successive interference cancellation re-scores the remaining candidates
/// after subtracting each detection. The combination is what makes bursts
/// of up to 4 signatures reliably separable (Fig 9) while larger bursts
/// degrade: at the default threshold, `1/sqrt(k)` clears it comfortably
/// through k = 4 and sinks below it as k grows.
#[derive(Clone, Debug)]
pub struct Correlator {
    /// Reference-normalized correlation detection threshold.
    pub threshold: f64,
    /// Maximum SIC iterations (0 disables cancellation).
    pub sic_rounds: usize,
    /// Largest lag (in chips) the receiver searches.
    pub max_lag: usize,
    /// Expected per-chip amplitude of the triggering transmitter.
    pub reference_amplitude: f64,
}

impl Default for Correlator {
    fn default() -> Correlator {
        Correlator { threshold: 0.38, sic_rounds: 8, max_lag: 8, reference_amplitude: 1.0 }
    }
}

/// Result of correlating one candidate code against a sample window.
#[derive(Clone, Copy, Debug)]
pub struct CorrelationPeak {
    /// Best normalized metric over the lag window.
    pub metric: f64,
    /// Lag (chips) at which the peak occurred.
    pub lag: usize,
    /// Complex correlation value at the peak (for cancellation).
    pub value: Complex,
}

fn correlate_at(samples: &[Complex], code: &Code, lag: usize) -> Complex {
    code.chips()
        .iter()
        .enumerate()
        .map(|(t, &chip)| samples[t + lag] * f64::from(chip))
        .sum()
}

impl Correlator {
    /// Peak reference-normalized correlation of `code` against `samples`.
    pub fn peak(&self, samples: &[Complex], code: &Code) -> CorrelationPeak {
        let l = code.len();
        assert!(samples.len() >= l, "sample window shorter than code");
        let max_lag = self.max_lag.min(samples.len() - l);
        let norm = l as f64 * self.reference_amplitude.max(1e-12);
        let mut best = CorrelationPeak { metric: -1.0, lag: 0, value: Complex::ZERO };
        for lag in 0..=max_lag {
            let v = correlate_at(samples, code, lag);
            let m = v.abs() / norm;
            if m > best.metric {
                best = CorrelationPeak { metric: m, lag, value: v };
            }
        }
        best
    }

    /// Detect which of `candidates` (indices into `family`) are present in
    /// `samples`, using SIC. Returns the detected indices in order of
    /// detection (strongest first).
    pub fn detect(
        &self,
        family: &GoldFamily,
        samples: &[Complex],
        candidates: &[usize],
    ) -> Vec<usize> {
        let mut residual = samples.to_vec();
        let mut remaining: Vec<usize> = candidates.to_vec();
        let mut detected = Vec::new();
        let rounds = self.sic_rounds.max(1);
        for _ in 0..rounds {
            if remaining.is_empty() {
                break;
            }
            // Strongest remaining candidate.
            let (pos, peak) = match remaining
                .iter()
                .enumerate()
                .map(|(i, &ci)| (i, self.peak(&residual, family.code(ci))))
                .max_by(|a, b| a.1.metric.total_cmp(&b.1.metric))
            {
                Some(x) => x,
                None => break,
            };
            if peak.metric < self.threshold {
                break;
            }
            let ci = remaining.swap_remove(pos);
            detected.push(ci);
            if self.sic_rounds > 0 {
                // Subtract the estimated contribution: amplitude and phase
                // from the correlation value, chip pattern from the code.
                let est = peak.value / CODE_LENGTH as f64;
                let code = family.code(ci);
                for (t, &chip) in code.chips().iter().enumerate() {
                    // lint: allow(D010) peak.lag <= samples.len() - code.len() by the max_lag clamp in `peak`; sum stays in bounds
                    residual[t + peak.lag] -= est * f64::from(chip);
                }
            }
        }
        detected
    }
}

/// The five sender setups of the paper's Fig 9 experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fig9Setup {
    /// One transmitter, one receiver.
    OneSender,
    /// Two transmitters with similar RSS, both sending the same signatures.
    TwoSendersSame,
    /// Two transmitters with similar RSS, sending different signatures.
    TwoSendersDifferent,
    /// Three transmitters, same signatures.
    ThreeSendersSame,
    /// Three transmitters, different signatures.
    ThreeSendersDifferent,
}

impl Fig9Setup {
    /// All five setups, in the order the paper plots them.
    pub const ALL: [Fig9Setup; 5] = [
        Fig9Setup::OneSender,
        Fig9Setup::TwoSendersSame,
        Fig9Setup::TwoSendersDifferent,
        Fig9Setup::ThreeSendersSame,
        Fig9Setup::ThreeSendersDifferent,
    ];

    /// Number of transmitters in this setup.
    pub fn sender_count(self) -> usize {
        match self {
            Fig9Setup::OneSender => 1,
            Fig9Setup::TwoSendersSame | Fig9Setup::TwoSendersDifferent => 2,
            Fig9Setup::ThreeSendersSame | Fig9Setup::ThreeSendersDifferent => 3,
        }
    }

    /// Whether all transmitters send the same signature set.
    pub fn same_signatures(self) -> bool {
        matches!(self, Fig9Setup::OneSender | Fig9Setup::TwoSendersSame | Fig9Setup::ThreeSendersSame)
    }

    /// Short label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Fig9Setup::OneSender => "1 sender",
            Fig9Setup::TwoSendersSame => "2 senders, same signatures",
            Fig9Setup::TwoSendersDifferent => "2 senders, different signatures",
            Fig9Setup::ThreeSendersSame => "3 senders, same signatures",
            Fig9Setup::ThreeSendersDifferent => "3 senders, different signatures",
        }
    }
}

/// Outcome of one Fig 9 experiment cell.
#[derive(Clone, Copy, Debug)]
pub struct DetectionStats {
    /// Fraction of runs in which the target signature was detected.
    pub detection_ratio: f64,
    /// Fraction of runs in which a signature *not* transmitted was
    /// "detected" (paper reports this stays below 1%).
    pub false_positive_ratio: f64,
}

/// Run the Fig 9 experiment: `combined` signatures per burst under `setup`,
/// averaged over `runs` independent trials.
///
/// In multi-sender setups the combined signatures are split across the
/// senders ("different") or replicated at each sender ("same"), matching
/// the paper's description. SNR is per-burst at the receiver.
pub fn detection_experiment(
    family: &GoldFamily,
    setup: Fig9Setup,
    combined: usize,
    snr_db: f64,
    runs: usize,
    rng: &mut SimRng,
) -> DetectionStats {
    assert!(combined >= 1 && combined < family.len());
    let correlator = Correlator::default();
    let noise_sigma = (10f64.powf(-snr_db / 10.0) / 2.0).sqrt();
    let mut detected = 0usize;
    let mut false_positives = 0usize;
    for _ in 0..runs {
        // Random distinct codes for this trial; one extra as the
        // false-positive probe.
        let mut codes: Vec<usize> = Vec::with_capacity(combined + 1);
        while codes.len() < combined + 1 {
            let c = rng.below(family.len() as u64) as usize;
            if !codes.contains(&c) {
                codes.push(c);
            }
        }
        // lint: allow(D005) the loop above pushes combined + 1 distinct codes before exiting
        let absent_code = codes.pop().expect("probe code");
        let target = codes[rng.below(codes.len() as u64) as usize];

        let n_senders = setup.sender_count();
        // Distinct arrival skews: two physical transmitters never align to
        // the same 50 ns sample (propagation paths and turnaround timing
        // differ), so draw delays without replacement.
        let mut delays: Vec<usize> = (0..8).collect();
        rng.shuffle(&mut delays);
        let mut senders = Vec::with_capacity(n_senders);
        #[allow(clippy::needless_range_loop)]
        for s in 0..n_senders {
            let assigned: Vec<usize> = if setup.same_signatures() {
                codes.clone()
            } else {
                codes
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % n_senders == s)
                    .map(|(_, c)| c)
                    .collect()
            };
            if assigned.is_empty() {
                continue;
            }
            senders.push(SenderSpec {
                code_indices: assigned,
                delay_chips: delays[s],
                phase: rng.uniform_range(0.0, 2.0 * core::f64::consts::PI),
                // "Similar RSS" per the paper: within ±0.5 dB.
                amplitude: 10f64.powf(rng.uniform_range(-0.5, 0.5) / 20.0),
            });
        }

        let samples = synthesize_burst(family, &senders, noise_sigma, rng);
        let mut candidates = codes.clone();
        candidates.push(absent_code);
        let hits = correlator.detect(family, &samples, &candidates);
        if hits.contains(&target) {
            detected += 1;
        }
        if hits.contains(&absent_code) {
            false_positives += 1;
        }
    }
    DetectionStats {
        detection_ratio: detected as f64 / runs as f64,
        false_positive_ratio: false_positives as f64 / runs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_sim::rng::streams;

    fn rng() -> SimRng {
        SimRng::derive(0xD0_31_90, streams::PHY_SAMPLES)
    }

    #[test]
    fn lone_signature_scores_near_one() {
        let fam = GoldFamily::degree7();
        let mut r = rng();
        let samples =
            synthesize_burst(&fam, &[SenderSpec::simple(vec![5])], 0.01, &mut r);
        let peak = Correlator::default().peak(&samples, fam.code(5));
        assert!(peak.metric > 0.95, "metric={}", peak.metric);
        assert_eq!(peak.lag, 0);
    }

    #[test]
    fn absent_signature_scores_low() {
        let fam = GoldFamily::degree7();
        let mut r = rng();
        let samples =
            synthesize_burst(&fam, &[SenderSpec::simple(vec![5])], 0.01, &mut r);
        let peak = Correlator::default().peak(&samples, fam.code(77));
        assert!(peak.metric < 0.3, "metric={}", peak.metric);
    }

    #[test]
    fn four_combined_all_detected() {
        let fam = GoldFamily::degree7();
        let mut r = rng();
        let codes = vec![3, 50, 90, 120];
        let samples =
            synthesize_burst(&fam, &[SenderSpec::simple(codes.clone())], 0.05, &mut r);
        let det = Correlator::default().detect(&fam, &samples, &[3, 50, 90, 120, 7]);
        for c in &codes {
            assert!(det.contains(c), "code {c} missed: {det:?}");
        }
        assert!(!det.contains(&7), "false positive");
    }

    #[test]
    fn delayed_sender_still_detected() {
        let fam = GoldFamily::degree7();
        let mut r = rng();
        let sender = SenderSpec { code_indices: vec![12], delay_chips: 5, phase: 1.0, amplitude: 1.0 };
        let samples = synthesize_burst(&fam, &[sender], 0.02, &mut r);
        let peak = Correlator::default().peak(&samples, fam.code(12));
        assert_eq!(peak.lag, 5);
        assert!(peak.metric > 0.9);
    }

    #[test]
    fn same_signature_two_senders_detected() {
        let fam = GoldFamily::degree7();
        let mut r = rng();
        let mk = |delay, phase| SenderSpec {
            code_indices: vec![33],
            delay_chips: delay,
            phase,
            amplitude: 1.0,
        };
        // Even with near-opposite phases, distinct arrival lags keep a
        // detectable peak.
        let samples = synthesize_burst(&fam, &[mk(0, 0.0), mk(3, 3.0)], 0.02, &mut r);
        let det = Correlator::default().detect(&fam, &samples, &[33, 4]);
        assert!(det.contains(&33));
    }

    #[test]
    fn detection_experiment_shape_matches_fig9() {
        // The headline calibration: >= 98% detection up to 4 combined
        // signatures, monotone-ish degradation beyond, < 1% false
        // positives. (The full sweep is regenerated by the fig09 bench
        // binary.)
        let fam = GoldFamily::degree7();
        let mut r = rng();
        let runs = 200;
        for setup in Fig9Setup::ALL {
            for k in 1..=4 {
                let stats = detection_experiment(&fam, setup, k, 10.0, runs, &mut r);
                assert!(
                    stats.detection_ratio >= 0.97,
                    "{} k={k}: ratio={}",
                    setup.label(),
                    stats.detection_ratio
                );
                assert!(stats.false_positive_ratio < 0.01);
            }
        }
        let deep = detection_experiment(&fam, Fig9Setup::OneSender, 7, 10.0, runs, &mut r);
        assert!(
            deep.detection_ratio < 0.9,
            "7 combined should degrade: {}",
            deep.detection_ratio
        );
    }

    #[test]
    fn setup_metadata() {
        assert_eq!(Fig9Setup::ThreeSendersDifferent.sender_count(), 3);
        assert!(Fig9Setup::TwoSendersSame.same_signatures());
        assert!(!Fig9Setup::TwoSendersDifferent.same_signatures());
        assert_eq!(Fig9Setup::ALL.len(), 5);
    }
}
