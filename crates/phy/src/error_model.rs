//! SINR → packet-error-rate model.
//!
//! The paper's large-scale evaluation runs on ns-3 with its validated OFDM
//! error model (it cites Pei & Henderson's validation report). We use the
//! same structure: a per-modulation bit-error-rate waterfall as a function
//! of effective SINR, and `PER = 1 - (1 - BER)^bits`. Rate-dependent
//! offsets are calibrated so the 50 %-PER point of a 512-byte frame lands
//! where the ns-3 validation places it (≈4 dB for 6 Mb/s, ≈7 dB for
//! 12 Mb/s, ≈12 dB for 24 Mb/s, ≈20 dB for 54 Mb/s).

/// 802.11g OFDM data rates modeled by the reproduction. The paper's
/// evaluation fixes the PHY rate to 12 Mb/s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataRate {
    /// BPSK, rate-1/2 coding.
    Mbps6,
    /// QPSK, rate-1/2 coding (the paper's evaluation rate).
    Mbps12,
    /// 16-QAM, rate-1/2 coding.
    Mbps24,
    /// 64-QAM, rate-3/4 coding.
    Mbps54,
}

impl DataRate {
    /// Bits per second.
    pub fn bits_per_second(self) -> f64 {
        match self {
            DataRate::Mbps6 => 6e6,
            DataRate::Mbps12 => 12e6,
            DataRate::Mbps24 => 24e6,
            DataRate::Mbps54 => 54e6,
        }
    }

    /// Airtime of `bytes` of payload at this rate, in nanoseconds
    /// (excluding the PLCP preamble/header, which
    /// `domino-mac::timing` accounts for separately).
    pub fn airtime_ns(self, bytes: usize) -> u64 {
        let bits = bytes as f64 * 8.0;
        (bits / self.bits_per_second() * 1e9).round() as u64
    }

    /// Calibration offset subtracted from the SINR before the BER
    /// waterfall (higher-order modulations need more SINR).
    fn offset_db(self) -> f64 {
        match self {
            DataRate::Mbps6 => -4.0,
            DataRate::Mbps12 => -1.0,
            DataRate::Mbps24 => 4.0,
            DataRate::Mbps54 => 12.0,
        }
    }

    /// Effective coded bit-error rate at the given SINR.
    pub fn ber(self, sinr_db: f64) -> f64 {
        if !sinr_db.is_finite() {
            return if sinr_db > 0.0 { 0.0 } else { 0.5 };
        }
        let eff = 10f64.powf((sinr_db - self.offset_db()) / 10.0);
        0.5 * erfc(eff.sqrt())
    }

    /// Packet error rate for a frame of `bits` coded bits at `sinr_db`.
    ///
    /// From 16.2 dB above the rate's calibration offset the full model is
    /// exactly 0.0 for every frame length (see `ZERO_PER_MARGIN_DB`), so
    /// the waterfall is not evaluated there.
    pub fn per(self, sinr_db: f64, bits: usize) -> f64 {
        if sinr_db >= self.offset_db() + ZERO_PER_MARGIN_DB {
            return 0.0;
        }
        self.per_model(sinr_db, bits)
    }

    /// The full PER model behind [`DataRate::per`].
    fn per_model(self, sinr_db: f64, bits: usize) -> f64 {
        let ber = self.ber(sinr_db);
        if ber <= 0.0 {
            0.0
        } else if ber >= 0.5 {
            1.0
        } else {
            1.0 - (1.0 - ber).powi(bits as i32)
        }
    }

    /// The SINR (dB) above which a 512-byte frame gets through with at
    /// least 90 % probability — the "capture threshold" the conflict-graph
    /// builder uses.
    ///
    /// Each call bisects the PER model (60 steps, a few µs), so callers
    /// compute it once per network, not once per link pair.
    pub fn capture_sinr_db(self) -> f64 {
        // Bisect per(snr, 4096) = 0.1.
        let bits = 4096;
        let (mut lo, mut hi) = (-10.0, 40.0);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.per(mid, bits) > 0.1 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// SINR margin (dB) over a rate's calibration offset from which its
/// packet error rate is exactly 0.0.
///
/// `1 - (1 - ber)^bits` is exactly 0.0 once `1.0 - ber` rounds to 1.0,
/// which holds for every `ber <= 2^-54`, whatever `bits` is. At this
/// margin the effective SINR is `eff >= 10^1.62 > 41.6`, so
/// `x = sqrt(eff) >= 6.4`. There [`erfc`]'s polynomial factor is below
/// 0.09 (it falls as `x` grows) and `exp(-x^2) <= e^-41.6`, so
/// `ber = erfc(x) / 2 < 4e-20 < 2^-64`: a factor 2^10 below the cutoff.
/// The model's last nonzero PER sits near offset + 15.36 dB, and the phy
/// tests check the margin on a 1e-5 dB grid for every rate.
const ZERO_PER_MARGIN_DB: f64 = 16.2;

/// Complementary error function (Abramowitz & Stegun 7.1.26, |err| ≤
/// 1.5e-7), extended to negative arguments by symmetry.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - (2.0 - 0.157_299_2)).abs() < 1e-6);
    }

    #[test]
    fn airtime_512_bytes_at_12mbps() {
        // 4096 bits / 12 Mb/s = 341.33 us.
        let ns = DataRate::Mbps12.airtime_ns(512);
        assert_eq!(ns, 341_333);
    }

    #[test]
    fn per_is_monotone_in_sinr() {
        for rate in [DataRate::Mbps6, DataRate::Mbps12, DataRate::Mbps24, DataRate::Mbps54] {
            let mut prev = 1.1;
            for snr in -5..30 {
                let p = rate.per(snr as f64, 4096);
                assert!(p <= prev + 1e-12, "{rate:?} at {snr} dB");
                prev = p;
            }
        }
    }

    #[test]
    fn fifty_percent_points_match_calibration() {
        let expect = [
            (DataRate::Mbps6, 4.0),
            (DataRate::Mbps12, 7.0),
            (DataRate::Mbps24, 12.0),
            (DataRate::Mbps54, 20.0),
        ];
        for (rate, target) in expect {
            // Find the 50% crossing by bisection.
            let (mut lo, mut hi) = (-10.0, 40.0);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if rate.per(mid, 4096) > 0.5 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let cross = 0.5 * (lo + hi);
            assert!(
                (cross - target).abs() < 0.5,
                "{rate:?}: 50% PER at {cross:.2} dB, expected ~{target}"
            );
        }
    }

    #[test]
    fn extremes() {
        assert_eq!(DataRate::Mbps12.per(f64::NEG_INFINITY, 100), 1.0);
        assert_eq!(DataRate::Mbps12.per(f64::INFINITY, 100), 0.0);
        assert!(DataRate::Mbps12.per(40.0, 4096) < 1e-9);
        assert!(DataRate::Mbps12.per(-5.0, 4096) > 0.999);
    }

    #[test]
    fn capture_threshold_ordering() {
        let t6 = DataRate::Mbps6.capture_sinr_db();
        let t12 = DataRate::Mbps12.capture_sinr_db();
        let t54 = DataRate::Mbps54.capture_sinr_db();
        assert!(t6 < t12 && t12 < t54);
        // 12 Mb/s threshold sits a little above its 50% point.
        assert!((t12 - 8.2).abs() < 1.0, "t12={t12}");
    }

    const RATES: [DataRate; 4] =
        [DataRate::Mbps6, DataRate::Mbps12, DataRate::Mbps24, DataRate::Mbps54];
    const FRAME_BITS: [usize; 4] = [1, 112, 4096, 100_000];

    /// The full model is exactly 0.0 on a 1e-5 dB grid from the zero-PER
    /// margin to 30 dB over each rate's offset, for every frame length.
    #[test]
    fn model_is_exactly_zero_from_the_margin_up() {
        for rate in RATES {
            let from = rate.offset_db() + ZERO_PER_MARGIN_DB;
            let steps = ((30.0 - ZERO_PER_MARGIN_DB) / 1e-5) as u64;
            for k in 0..=steps {
                let sinr_db = from + k as f64 * 1e-5;
                for bits in FRAME_BITS {
                    let per = rate.per_model(sinr_db, bits);
                    assert!(per == 0.0, "{rate:?} at {sinr_db} dB, {bits} bits: PER {per:e}");
                }
            }
        }
    }

    /// Below the margin `per` is the full model, bit for bit, and the
    /// model's last nonzero value sits within a dB of the margin.
    #[test]
    fn per_is_the_model_below_the_margin() {
        for rate in RATES {
            let margin = rate.offset_db() + ZERO_PER_MARGIN_DB;
            let mut last_nonzero = f64::NEG_INFINITY;
            for k in 0..=200_000u64 {
                let sinr_db = margin - 20.0 + k as f64 * 1e-4;
                if sinr_db >= margin {
                    break;
                }
                for bits in FRAME_BITS {
                    let per = rate.per(sinr_db, bits);
                    assert_eq!(per.to_bits(), rate.per_model(sinr_db, bits).to_bits());
                    if per > 0.0 {
                        last_nonzero = last_nonzero.max(sinr_db);
                    }
                }
            }
            assert!(
                (margin - 1.0..margin - 0.5).contains(&last_nonzero),
                "{rate:?}: last nonzero PER at {last_nonzero} dB, margin {margin} dB"
            );
        }
    }

    #[test]
    fn more_bits_more_errors() {
        let short = DataRate::Mbps12.per(9.0, 500);
        let long = DataRate::Mbps12.per(9.0, 4096);
        assert!(long > short);
    }
}
