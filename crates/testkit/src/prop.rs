//! A minimal property-testing harness with input shrinking.
//!
//! Properties are closures that draw their inputs from a [`Gen`]. During
//! normal execution every draw comes from a seeded [`Rng`]
//! and is recorded as a *choice sequence*. When a case fails, the harness
//! shrinks the recorded sequence (deleting spans, zeroing and halving
//! choices) and replays the property against each candidate, keeping any
//! mutation that still fails. Because draws are mapped from choices so that
//! a zero choice is the minimal value, shrinking the sequence shrinks the
//! input — the same trick Hypothesis uses, which makes shrinking work for
//! arbitrary generation logic without per-type shrinkers.
//!
//! ```
//! use domino_testkit::prop;
//!
//! prop::check("sum is commutative", |g| {
//!     let a = g.u64(0, 1000);
//!     let b = g.u64(0, 1000);
//!     domino_testkit::prop_assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! A failing case panics with the minimal choice sequence; pin it forever
//! with [`replay`].
//!
//! Environment knobs: `TESTKIT_CASES` overrides the case count,
//! `TESTKIT_SEED` the master seed (both decimal).

use crate::rng::{splitmix64, Rng};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Master seed; case `i` derives its own stream from it.
    pub seed: u64,
    /// Maximum number of shrink replays after a failure.
    pub max_shrink_replays: u32,
}

impl Default for Config {
    fn default() -> Config {
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(128);
        let seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0xD011_1701);
        Config { cases, seed, max_shrink_replays: 4096 }
    }
}

#[derive(Debug)]
enum Source {
    /// Fresh generation: draw from the RNG, record every choice.
    Random(Rng),
    /// Replay of a (possibly mutated) choice sequence; reads past the end
    /// yield 0, i.e. the minimal value of every draw.
    Replay { choices: Vec<u64>, pos: usize },
}

/// The value source handed to a property closure.
///
/// Every `Gen` method maps one or more recorded `u64` choices into a typed
/// value such that choice 0 is the minimal value of the range.
#[derive(Debug)]
pub struct Gen {
    source: Source,
    recorded: Vec<u64>,
}

impl Gen {
    fn random(case_seed: u64) -> Gen {
        Gen { source: Source::Random(Rng::derive(case_seed, 0)), recorded: Vec::new() }
    }

    fn replaying(choices: Vec<u64>) -> Gen {
        Gen { source: Source::Replay { choices, pos: 0 }, recorded: Vec::new() }
    }

    /// Draw one raw choice in `[0, span)`; the shrinker's target is 0.
    fn choice(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let c = match &mut self.source {
            Source::Random(rng) => rng.below(span),
            Source::Replay { choices, pos } => {
                let raw = choices.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                // A mutated sequence may hold values from a wider draw;
                // reduce instead of rejecting so every replay is valid.
                raw % span
            }
        };
        self.recorded.push(c);
        c
    }

    /// Uniform `u64` in `[lo, hi]` (inclusive); shrinks toward `lo`.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.choice(u64::MAX); // off by one; acceptable at full width
        }
        lo + self.choice(hi - lo + 1)
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive); shrinks toward `lo`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi]` (inclusive); shrinks toward `lo`.
    pub fn i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        lo.wrapping_add(self.choice((hi.wrapping_sub(lo) as u64).saturating_add(1)) as i64)
    }

    /// Uniform `f64` in `[lo, hi)`; shrinks toward `lo`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        let frac = self.choice(1u64 << 53) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * frac
    }

    /// Boolean; shrinks toward `false`.
    pub fn bool(&mut self) -> bool {
        self.choice(2) == 1
    }

    /// A vector with length in `[min_len, max_len]` whose elements are
    /// produced by `element`; shrinks toward shorter vectors of smaller
    /// elements.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize(min_len, max_len);
        (0..len).map(|_| element(self)).collect()
    }

    /// Pick one element of a non-empty slice; shrinks toward the first.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.usize(0, items.len() - 1)]
    }
}

// ---------------------------------------------------------------------------
// Panic capture
//
// The shrinker replays the property hundreds of times, most of which panic by
// design. Silence the default panic hook for those replays (thread-locally,
// so concurrently running tests keep their reports).
// ---------------------------------------------------------------------------

thread_local! {
    static SILENCED: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run the closure with panics captured and the default hook silenced.
/// Returns `Err(message)` if it panicked.
fn run_case<F: FnMut(&mut Gen)>(f: &mut F, gen: &mut Gen) -> Result<(), String> {
    install_quiet_hook();
    SILENCED.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(gen)));
    SILENCED.with(|s| s.set(false));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

struct Failure {
    choices: Vec<u64>,
    message: String,
}

/// Shortlex order on choice sequences: shorter wins, ties break
/// lexicographically. A candidate is only accepted if what it *records* is
/// strictly simpler than the current best — replays pad exhausted draws with
/// zeros, so comparing the submitted candidate would let no-op "deletions"
/// of trailing pads spin forever.
fn simpler(a: &[u64], b: &[u64]) -> bool {
    a.len() < b.len() || (a.len() == b.len() && a < b)
}

/// Shrink a failing choice sequence: repeatedly try deleting spans (alone
/// and with the preceding choice decremented, which shortens collections)
/// and binary-descending individual choices, keeping any strictly simpler
/// candidate that still fails.
fn shrink<F: FnMut(&mut Gen)>(f: &mut F, mut best: Failure, budget: u32) -> Failure {
    let mut replays = 0u32;
    let mut attempt = |candidate: Vec<u64>, best: &Failure, replays: &mut u32| -> Option<Failure> {
        if *replays >= budget {
            return None;
        }
        *replays += 1;
        let mut gen = Gen::replaying(candidate);
        match run_case(f, &mut gen) {
            Err(message) if simpler(&gen.recorded, &best.choices) => {
                Some(Failure { choices: gen.recorded, message })
            }
            _ => None,
        }
    };

    let mut improved = true;
    while improved && replays < budget {
        improved = false;

        // Pass 1: delete spans of choices (big chunks first). For each span
        // also try the deletion with the preceding choice decremented: when
        // the span holds collection elements, the preceding choice is often
        // the collection's length draw, which must drop in step.
        for chunk in [16usize, 8, 4, 2, 1] {
            let mut i = 0;
            while i + chunk <= best.choices.len() {
                let mut deleted = best.choices.clone();
                deleted.drain(i..i + chunk);
                let mut with_dec = None;
                if i > 0 && deleted[i - 1] > 0 {
                    let mut c = deleted.clone();
                    c[i - 1] -= 1;
                    with_dec = Some(c);
                }
                let mut accepted = false;
                for candidate in with_dec.into_iter().chain([deleted]) {
                    if let Some(better) = attempt(candidate, &best, &mut replays) {
                        best = better;
                        improved = true;
                        accepted = true;
                        // Do not advance: the index now names fresh choices.
                        break;
                    }
                }
                if !accepted {
                    i += 1;
                }
            }
        }

        // Pass 2: minimize each choice by binary descent toward 0. (Not
        // guaranteed monotone, but in practice finds the minimal failing
        // value in O(log v) replays.)
        let mut i = 0;
        while i < best.choices.len() {
            let v = best.choices[i];
            if v > 0 {
                let mut set = |value: u64, best: &Failure, replays: &mut u32| {
                    let mut candidate = best.choices.clone();
                    candidate[i] = value;
                    attempt(candidate, best, replays)
                };
                let (mut lo, mut hi) = (0u64, v);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    match set(mid, &best, &mut replays) {
                        Some(better) => {
                            best = better;
                            improved = true;
                            if i >= best.choices.len() {
                                break;
                            }
                            hi = best.choices[i].min(mid);
                        }
                        None => lo = mid + 1,
                    }
                    if replays >= budget {
                        break;
                    }
                }
            }
            i += 1;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Check a property against `Config::default()` random cases.
///
/// Panics on the first failing case after shrinking it to a (locally)
/// minimal choice sequence. The panic message contains the seed and the
/// minimal sequence so the failure can be pinned with [`replay`].
pub fn check<F: FnMut(&mut Gen)>(name: &str, f: F) {
    check_with(Config::default(), name, f);
}

/// Check a property with an explicit [`Config`].
pub fn check_with<F: FnMut(&mut Gen)>(config: Config, name: &str, mut f: F) {
    let mut state = config.seed;
    for case in 0..config.cases {
        let case_seed = splitmix64(&mut state);
        let mut gen = Gen::random(case_seed);
        if let Err(message) = run_case(&mut f, &mut gen) {
            let original_len = gen.recorded.len();
            let failure = shrink(
                &mut f,
                Failure { choices: gen.recorded, message },
                config.max_shrink_replays,
            );
            panic!(
                "property `{name}` failed (seed {seed}, case {case}/{cases}):\n  {msg}\n\
                 minimal choice sequence ({nmin} choices, shrunk from {norig}):\n  \
                 prop::replay(&{choices:?}, ..)",
                seed = config.seed,
                cases = config.cases,
                msg = failure.message,
                nmin = failure.choices.len(),
                norig = original_len,
                choices = failure.choices,
            );
        }
    }
}

/// Replay a pinned choice sequence against a property — the regression-test
/// companion of [`check`]. Panics (with the property's own message) if the
/// sequence still fails.
pub fn replay<F: FnMut(&mut Gen)>(choices: &[u64], mut f: F) {
    let mut gen = Gen::replaying(choices.to_vec());
    f(&mut gen);
}

/// Assert inside a property; identical to `assert!` but named to mark
/// property invariants (and to ease porting from proptest).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property; identical to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        check_with(
            Config { cases: 50, seed: 1, max_shrink_replays: 100 },
            "counts",
            |g| {
                count += 1;
                let x = g.u64(3, 10);
                assert!((3..=10).contains(&x));
            },
        );
        assert_eq!(count, 50);
    }

    #[test]
    fn failing_property_shrinks_to_minimal_case() {
        // Property: every element of the vector is < 500. The minimal
        // counterexample is a 1-element vector [500].
        let result = panic::catch_unwind(|| {
            check_with(
                Config { cases: 200, seed: 2, max_shrink_replays: 4096 },
                "bounded",
                |g| {
                    let v = g.vec(0, 20, |g| g.u64(0, 1000));
                    assert!(v.iter().all(|&x| x < 500), "found {v:?}");
                },
            );
        });
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("property `bounded` failed"), "{msg}");
        // The shrunk sequence is [len=1, value] with value exactly 500
        // (choice = 500 for range [0,1000]).
        assert!(msg.contains("[1, 500]"), "not minimal: {msg}");
    }

    #[test]
    fn replay_reproduces_recorded_failure() {
        let prop = |g: &mut Gen| {
            let v = g.vec(0, 20, |g| g.u64(0, 1000));
            assert!(v.iter().all(|&x| x < 500));
        };
        let result = panic::catch_unwind(|| replay(&[1, 500], prop));
        assert!(result.is_err());
        // And a passing sequence passes.
        replay(&[1, 499], prop);
    }

    #[test]
    fn replay_pads_missing_choices_with_minimums() {
        replay(&[], |g| {
            assert_eq!(g.u64(7, 99), 7);
            assert_eq!(g.usize(0, 5), 0);
            assert!(!g.bool());
            assert_eq!(g.f64(-2.0, 3.0), -2.0);
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let mut seen = Vec::new();
            check_with(
                Config { cases: 10, seed: 99, max_shrink_replays: 0 },
                "det",
                |g| seen.push(g.u64(0, 1_000_000)),
            );
            seen
        };
        assert_eq!(collect(), collect());
    }
}
