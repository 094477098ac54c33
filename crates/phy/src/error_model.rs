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
    pub fn per(self, sinr_db: f64, bits: usize) -> f64 {
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

    #[test]
    fn more_bits_more_errors() {
        let short = DataRate::Mbps12.per(9.0, 500);
        let long = DataRate::Mbps12.per(9.0, 4096);
        assert!(long > short);
    }
}
