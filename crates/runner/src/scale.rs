//! Quick-vs-paper experiment scale.

domino_obs::named_enum! {
    /// The two scales every experiment runs at.
    ///
    /// Quick keeps the full suite in tens of seconds (the committed
    /// `results/` pins and the CI `--check` gate use it); full is the paper's
    /// scale — 50 s simulations and 1000-trial sweeps. The name is what the
    /// `--json` manifest, trace-file metadata and campaign manifests carry.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub enum Scale {
        /// Reduced-but-representative scale (seconds per experiment).
        #[default]
        Quick => "quick",
        /// The paper's scale.
        Full => "full",
    }
}

impl Scale {
    /// Simulation duration: the paper's 50 s at full scale, else `quick_s`.
    pub fn duration(self, quick_s: f64) -> f64 {
        match self {
            Scale::Full => 50.0,
            Scale::Quick => quick_s,
        }
    }

    /// Trial count: `full` at full scale, else `quick`.
    pub fn trials(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_matches_harness_args_semantics() {
        assert_eq!(Scale::Quick.duration(4.0), 4.0);
        assert_eq!(Scale::Full.duration(4.0), 50.0);
        assert_eq!(Scale::Quick.trials(80, 1000), 80);
        assert_eq!(Scale::Full.trials(80, 1000), 1000);
        assert_eq!(Scale::Quick.name(), "quick");
        assert_eq!(Scale::Full.name(), "full");
        assert_eq!(Scale::from_name("full"), Some(Scale::Full));
    }
}
