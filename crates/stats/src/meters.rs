//! The per-packet delay accumulator.

/// Accumulates per-packet delays (µs) as a count and a running total:
/// the mean is all any output reads, so no sample is kept.
///
/// The running total starts at 0.0 and adds each delay in recording
/// order, so the mean is bit-identical to summing a kept sample vector
/// with `Iterator::sum` (which folds the same terms in the same order)
/// and dividing by its length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DelayMeter {
    count: u64,
    total_us: f64,
}

impl DelayMeter {
    /// A fresh meter.
    pub fn new() -> DelayMeter {
        DelayMeter::default()
    }

    /// A meter resumed from its [`DelayMeter::count`] and
    /// [`DelayMeter::total_us`]; `None` when the total is negative or not
    /// finite, which no sequence of recordings produces.
    pub fn from_parts(count: u64, total_us: f64) -> Option<DelayMeter> {
        (total_us.is_finite() && total_us.is_sign_positive())
            .then_some(DelayMeter { count, total_us })
    }

    /// Record one packet's delay in microseconds.
    pub fn record_us(&mut self, delay_us: f64) {
        assert!(delay_us.is_finite() && delay_us >= 0.0, "invalid delay {delay_us}");
        self.count += 1;
        self.total_us += delay_us;
    }

    /// Number of recorded packets.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the recorded delays in microseconds, in recording order.
    pub fn total_us(&self) -> f64 {
        self.total_us
    }

    /// Mean delay in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_testkit::{prop, prop_assert_eq};

    #[test]
    fn delay_statistics() {
        let mut d = DelayMeter::new();
        for v in [10.0, 20.0, 30.0, 40.0, 100.0] {
            d.record_us(v);
        }
        assert_eq!(d.count(), 5);
        assert_eq!(d.total_us(), 200.0);
        assert!((d.mean_us() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meters_are_safe() {
        assert_eq!(DelayMeter::new().mean_us(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delay_panics() {
        DelayMeter::new().record_us(-1.0);
    }

    #[test]
    fn running_mean_matches_the_mean_of_kept_samples_bit_for_bit() {
        prop::check("running mean equals the summed samples' mean", |g| {
            let samples = g.vec(0, 200, |g| match g.usize(0, 3) {
                0 => 0.0,
                1 => g.f64(0.0, 1e-6),
                2 => g.f64(0.0, 1e3),
                _ => g.f64(0.0, 1e9),
            });
            let mut d = DelayMeter::new();
            for &s in &samples {
                d.record_us(s);
            }
            let n = samples.len();
            let reference =
                if n == 0 { 0.0 } else { samples.iter().sum::<f64>() / n as f64 };
            prop_assert_eq!(d.count(), n as u64);
            prop_assert_eq!(d.mean_us().to_bits(), reference.to_bits());
        });
    }

    #[test]
    fn from_parts_refuses_totals_no_recording_makes() {
        let mut d = DelayMeter::new();
        d.record_us(12.5);
        assert_eq!(DelayMeter::from_parts(d.count(), d.total_us()), Some(d));
        for bad in [-1.0, -0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(DelayMeter::from_parts(1, bad), None, "total {bad}");
        }
    }
}
