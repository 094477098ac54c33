//! Property tests for the shard result cache (ISSUE 8 satellite):
//!
//! 1. **Round-trip transparency** — for arbitrary (experiment, scale,
//!    seed), a cold cached run, a warm cached run, and an uncached run
//!    all render byte-identical text, and the warm run executes zero
//!    shards.
//! 2. **Corruption safety** — corrupted or truncated cache entries are
//!    detected and recomputed, never served: the output bytes still
//!    match and the store reports evictions/misses, not hits.
//! 3. **Key sensitivity** — changing any keyed input (experiment, code
//!    fingerprint, scale, seed, shard index) changes the cache
//!    key, so no entry written under one identity can be read under
//!    another.
//!
//! The generator drives real registry experiments; to keep the suite
//! fast it draws from the cheap end of the registry (the full matrix is
//! exercised by `scripts/ci.sh`'s warm-cache gate over all 15).

use domino_campaign::store::{CacheKey, Store};
use domino_runner::cache::CacheSession;
use domino_runner::registry;
use domino_runner::scale::Scale;
use domino_runner::run_experiment;
use domino_testkit::{prop, prop_assert, prop_assert_eq};
use std::path::{Path, PathBuf};

/// Cheap experiments only: every one finishes in well under a second at
/// quick scale, so the property loop stays within test-suite budget.
const CHEAP: &[&str] = &["table1_params", "fig05_rop_samples", "fig10_timeline"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("domino-cache-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session(dir: &Path, fp: &str) -> CacheSession {
    CacheSession::with(Store::open(dir).unwrap(), fp.to_string())
}

#[test]
fn cached_runs_are_byte_identical_for_arbitrary_inputs() {
    let dir = tmp_dir("roundtrip");
    prop::check("cache round-trip is byte-identical", |g| {
        let name = *g.pick(CHEAP);
        let seed = g.u64(1, 50);
        let jobs = g.usize(1, 3);
        let exp = registry::find(name).unwrap();
        let scale = Scale::Quick;

        let plain = run_experiment(exp, scale, seed, jobs, None);
        let mut s = session(&dir, &"c".repeat(64));
        let cold = run_experiment(exp, scale, seed, jobs, Some(&mut s));
        let warm = run_experiment(exp, scale, seed, jobs, Some(&mut s));

        prop_assert_eq!(&cold.text, &plain.text, "cold cached text != uncached text");
        prop_assert_eq!(&warm.text, &plain.text, "warm cached text != uncached text");
        prop_assert_eq!(plain.shards_cached, 0, "uncached run served shards");
        prop_assert_eq!(warm.shards_executed(), 0, "warm run executed shards");
        prop_assert_eq!(warm.shards_cached, cold.shards_cached + cold.shards_executed());
        prop_assert_eq!(&cold.digest, &plain.digest);
        prop_assert_eq!(&warm.digest, &plain.digest);
    });
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupted_entries_are_recomputed_never_served() {
    let dir = tmp_dir("corrupt");
    prop::check("corrupt cache entries recompute", |g| {
        let name = *g.pick(CHEAP);
        let seed = g.u64(1, 50);
        let exp = registry::find(name).unwrap();
        let fp = "d".repeat(64);

        let mut s = session(&dir, &fp);
        let cold = run_experiment(exp, Scale::Quick, seed, 1, Some(&mut s));
        s.flush().unwrap();

        // Damage one stored object: truncate or flip bytes, chosen by the
        // generator, for a generator-chosen shard.
        let shard = g.u64(0, cold.shards_executed().max(1) as u64 - 1) as u32;
        let key = CacheKey {
            experiment: name.to_string(),
            fingerprint: fp.clone(),
            scale: "quick".to_string(),
            seed,
            shard,
        };
        let digest = key.digest();
        let two = digest.get(..2).unwrap().to_string();
        let obj = dir.join("objects").join(two).join(format!("{digest}.bin"));
        prop_assert!(obj.is_file(), "expected object file for shard {}", shard);
        let bytes = std::fs::read(&obj).unwrap();
        if g.bool() && bytes.len() > 4 {
            // Truncate somewhere inside the payload.
            let cut = g.usize(1, bytes.len() - 1);
            std::fs::write(&obj, bytes.get(..cut).unwrap()).unwrap();
        } else {
            // Flip one byte.
            let mut b = bytes.clone();
            let at = g.usize(0, b.len() - 1);
            if let Some(v) = b.get_mut(at) {
                *v ^= 0xa5;
            }
            std::fs::write(&obj, b).unwrap();
        }

        let mut s2 = session(&dir, &fp);
        let after = run_experiment(exp, Scale::Quick, seed, 1, Some(&mut s2));
        prop_assert_eq!(&after.text, &cold.text, "output changed after corruption");
        prop_assert!(after.shards_executed() >= 1, "damaged shard was not recomputed");
        let stats = s2.stats();
        prop_assert!(stats.misses >= 1, "corruption must surface as a miss");
        prop_assert_eq!(stats.evictions, 1, "damaged entry must be evicted");
    });
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_key_changes_when_any_keyed_input_changes() {
    prop::check("cache key is sensitive to every field", |g| {
        let base = CacheKey {
            experiment: g.pick(CHEAP).to_string(),
            fingerprint: format!("{:064x}", g.u64(0, u64::MAX)),
            scale: if g.bool() { "quick" } else { "full" }.to_string(),
            seed: g.u64(0, u64::MAX),
            shard: g.u64(0, 1 << 20) as u32,
        };
        let d = base.digest();
        prop_assert_eq!(d.len(), 64);
        prop_assert_eq!(&d, &base.digest(), "digest must be deterministic");

        let mut other_fp = base.fingerprint.clone();
        other_fp.replace_range(..1, if other_fp.starts_with('0') { "1" } else { "0" });
        let variants = [
            CacheKey { experiment: format!("{}x", base.experiment), ..base.clone() },
            CacheKey { fingerprint: other_fp, ..base.clone() },
            CacheKey {
                scale: if base.scale == "quick" { "full" } else { "quick" }.to_string(),
                ..base.clone()
            },
            CacheKey { seed: base.seed.wrapping_add(g.u64(1, 1 << 40)), ..base.clone() },
            CacheKey { shard: base.shard.wrapping_add(1), ..base.clone() },
        ];
        for (i, v) in variants.iter().enumerate() {
            prop_assert!(v.digest() != d, "field {} did not move the key", i);
        }
    });
}
