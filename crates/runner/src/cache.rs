//! Cache-aware experiment execution: skip shards whose results are
//! already in the content-addressed store.
//!
//! This is the execution half of the `domino-campaign` subsystem (the
//! store, keys, and fingerprint live there; the registry and the shard
//! pool live here). Given a [`CacheSession`],
//! [`run_experiment`](crate::run_experiment) probes the store once per
//! shard of a [`Plan`](crate::plan::Plan), decodes the hits through the
//! plan's own `SnapValue` encode/decode pair, runs only the misses
//! across the pool, stores their encodings, and reassembles everything
//! **in shard-index order** before the merge — so the rendered text is
//! byte-identical to an uncached run at any `--jobs` count, whether
//! zero, some, or all shards came from the cache.
//!
//! Staleness is impossible by construction: the workspace code
//! fingerprint ([`domino_campaign::fingerprint`]) is part of every key,
//! so editing any crate that can reach shard computation silently turns
//! every prior entry into a miss. Corruption is handled below the key
//! layer — the store digest-verifies each object and evicts on mismatch
//! — and a hit whose bytes fail to *decode* is likewise demoted to a
//! recompute, never propagated.

use crate::plan::{DecodeShard, EncodeShard, ShardData};
use crate::scale::Scale;
use crate::ExperimentRun;
use domino_campaign::fingerprint;
use domino_campaign::store::{CacheKey, Store, StoreStats};
use std::path::Path;

/// An open cache plus the code fingerprint all its keys are derived
/// under. One session spans one CLI invocation (or one campaign).
#[derive(Debug)]
pub struct CacheSession {
    store: Store,
    fingerprint: String,
}

impl CacheSession {
    /// Open the store at `dir` and fingerprint the live workspace tree.
    /// Fails if the workspace sources cannot be found or read — a cache
    /// without a trustworthy fingerprint could serve stale results.
    pub fn open(dir: &Path) -> Result<CacheSession, String> {
        let crates_root = fingerprint::workspace_crates_root()
            .ok_or_else(|| "cache: cannot locate workspace crates/ directory".to_string())?;
        let entries = fingerprint::scan(&crates_root)?;
        let fp = fingerprint::fingerprint(&entries)?;
        Ok(CacheSession { store: Store::open(dir)?, fingerprint: fp })
    }

    /// Build a session over an already-open store with a caller-chosen
    /// fingerprint. Used by tests to exercise hit/miss/invalidation
    /// without scanning the real tree.
    pub fn with(store: Store, fingerprint: String) -> CacheSession {
        CacheSession { store, fingerprint }
    }

    /// The code fingerprint every key of this session embeds.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Cache traffic counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Render the session counters (`campaign.cache.<name> <value>`
    /// lines, byte-stable ordering).
    pub fn render_stats(&self) -> String {
        self.stats().render()
    }

    /// Persist the store index.
    pub fn flush(&mut self) -> Result<(), String> {
        self.store.flush()
    }

    /// The cached value of one shard: `None` unless the store holds bytes
    /// for it that decode.
    pub(crate) fn get(
        &mut self,
        exp: &str,
        scale: Scale,
        seed: u64,
        shard: usize,
        decode: DecodeShard,
    ) -> Option<ShardData> {
        let key = self.key(exp, scale, seed, shard);
        self.store.get(&key).and_then(|bytes| decode(&bytes))
    }

    /// Store one freshly computed shard, best-effort.
    pub(crate) fn put(
        &mut self,
        exp: &str,
        scale: Scale,
        seed: u64,
        shard: usize,
        value: &ShardData,
        encode: EncodeShard,
    ) {
        if let Some(bytes) = encode(value) {
            let key = self.key(exp, scale, seed, shard);
            let _ = self.store.put(&key, &bytes);
        }
    }

    fn key(&self, exp: &str, scale: Scale, seed: u64, shard: usize) -> CacheKey {
        CacheKey {
            experiment: exp.to_string(),
            fingerprint: self.fingerprint.clone(),
            scale: scale.name().to_string(),
            seed,
            shard: shard as u32,
        }
    }
}

/// Render the one-line cache summary the CLI prints per experiment.
pub fn render_cache_line(run: &ExperimentRun) -> String {
    format!(
        "{:<28} cache: {} hit{}, {} executed",
        run.name,
        run.shards_cached,
        if run.shards_cached == 1 { "" } else { "s" },
        run.shards_executed(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self, Experiment};
    use crate::run_experiment;
    use std::path::PathBuf;

    fn tmp_session(tag: &str, fp: &str) -> (PathBuf, CacheSession) {
        let dir =
            std::env::temp_dir().join(format!("domino-runner-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir.clone(), CacheSession::with(store, fp.to_string()))
    }

    fn exp(name: &str) -> &'static Experiment {
        registry::find(name).unwrap()
    }

    #[test]
    fn warm_rerun_executes_zero_shards_and_matches_bytes() {
        let (dir, mut session) = tmp_session("warm", &"a".repeat(64));
        let e = exp("fig06_guard_sweep");
        let cold = run_experiment(e, Scale::Quick, 1, 2, Some(&mut session));
        assert_eq!(cold.shards_cached, 0);
        assert!(cold.shards_executed() > 0);
        let plain = run_experiment(e, Scale::Quick, 1, 2, None);
        assert_eq!(plain.shards_executed(), cold.shards_executed());
        assert_eq!(cold.text, plain.text, "cached path must not change output");
        assert_eq!(cold.digest, plain.digest);

        let warm = run_experiment(e, Scale::Quick, 1, 1, Some(&mut session));
        assert_eq!(warm.shards_executed(), 0, "warm rerun must execute nothing");
        assert_eq!(warm.shards_cached, cold.shards_executed());
        assert_eq!(warm.text, cold.text);
        assert_eq!(warm.digest, cold.digest);
        assert!(render_cache_line(&warm).contains("0 executed"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprint_change_invalidates_everything() {
        let (dir, mut session) = tmp_session("inval", &"a".repeat(64));
        let e = exp("table1_params");
        let first = run_experiment(e, Scale::Quick, 1, 1, Some(&mut session));
        session.flush().unwrap();
        let executed = first.shards_executed();
        assert!(executed > 0);

        // Same store, different code fingerprint: all misses again.
        let store = Store::open(&dir).unwrap();
        let mut other = CacheSession::with(store, "b".repeat(64));
        let again = run_experiment(e, Scale::Quick, 1, 1, Some(&mut other));
        assert_eq!(again.shards_cached, 0);
        assert_eq!(again.shards_executed(), executed);
        assert_eq!(again.text, first.text);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn seed_and_scale_partition_the_cache() {
        let (dir, mut session) = tmp_session("part", &"a".repeat(64));
        let e = exp("fig05_rop_samples");
        let s1 = run_experiment(e, Scale::Quick, 1, 1, Some(&mut session));
        let s2 = run_experiment(e, Scale::Quick, 2, 1, Some(&mut session));
        assert_eq!(s2.shards_cached, 0, "different seed must not hit");
        assert_ne!(s1.text, s2.text);
        let s1_again = run_experiment(e, Scale::Quick, 1, 1, Some(&mut session));
        assert_eq!(s1_again.shards_executed(), 0);
        assert_eq!(s1_again.text, s1.text);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stats_render_as_sorted_counter_lines() {
        let (dir, mut session) = tmp_session("stats", &"a".repeat(64));
        let e = exp("table1_params");
        let _ = run_experiment(e, Scale::Quick, 1, 1, Some(&mut session));
        let _ = run_experiment(e, Scale::Quick, 1, 1, Some(&mut session));
        assert_eq!(
            session.render_stats(),
            "campaign.cache.evictions 0\ncampaign.cache.hits 1\n\
             campaign.cache.misses 1\ncampaign.cache.stores 1\n"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
