//! Cache-aware experiment execution: skip shards whose results are
//! already in the content-addressed store.
//!
//! This is the execution half of the `domino-campaign` subsystem (the
//! store, keys, and fingerprint live there; the registry and the shard
//! pool live here). [`run_experiment_cached`] probes the store once per
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

use crate::plan::ShardData;
use crate::registry::Experiment;
use crate::scale::Scale;
use crate::{pool, ExperimentRun};
use domino_campaign::fingerprint;
use domino_campaign::store::{CacheKey, Store, StoreStats};
use domino_obs::metrics::MetricsRegistry;
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

    /// Render the session counters via the obs metrics registry
    /// (`campaign.cache.<name> <value>` lines, byte-stable ordering).
    pub fn render_stats(&self) -> String {
        let mut reg = MetricsRegistry::new();
        self.stats().publish(&mut reg);
        reg.render()
    }

    /// Persist the store index.
    pub fn flush(&mut self) -> Result<(), String> {
        self.store.flush()
    }

    fn key(&self, exp: &str, scale: Scale, seed: u64, shard: u32) -> CacheKey {
        CacheKey {
            experiment: exp.to_string(),
            fingerprint: self.fingerprint.clone(),
            scale: scale.name().to_string(),
            seed,
            shard,
            params: String::new(),
        }
    }
}

/// One cache-aware experiment execution.
#[derive(Debug)]
pub struct CachedRun {
    /// The run itself — same shape and same text as `run_experiment`.
    pub run: ExperimentRun,
    /// Shards served from the store.
    pub shards_cached: usize,
    /// Shards actually executed (cache misses).
    pub shards_executed: usize,
}

/// Run one experiment, sourcing every shard it can from the cache and
/// executing only the misses. The returned text is byte-identical to
/// [`crate::run_experiment`] for the same `(experiment, scale, seed)` —
/// the cache can change wall time only. Freshly computed shards are
/// stored back best-effort (a full disk degrades to recompute-next-time,
/// never to a wrong result); call [`CacheSession::flush`] afterwards to
/// persist the index.
pub fn run_experiment_cached(
    session: &mut CacheSession,
    exp: &Experiment,
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> CachedRun {
    let watch = domino_testkit::bench::Stopwatch::start();
    let built = (exp.plan)(scale, seed);
    let (tasks, encode, decode, finish) = built.into_cache_parts();
    let build_ns = watch.elapsed_ns();

    let total = tasks.len();
    let mut slots: Vec<Option<ShardData>> = Vec::with_capacity(total);
    let mut miss_indices: Vec<usize> = Vec::new();
    let mut miss_tasks: Vec<pool::Task<ShardData>> = Vec::new();
    for (index, task) in tasks.into_iter().enumerate() {
        let key = session.key(exp.name, scale, seed, index as u32);
        let cached = session.store.get(&key).and_then(|bytes| decode(&bytes));
        match cached {
            Some(data) => slots.push(Some(data)),
            None => {
                slots.push(None);
                miss_indices.push(index);
                miss_tasks.push(task);
            }
        }
    }

    let shards_cached = total - miss_indices.len();
    let shards_executed = miss_indices.len();
    let runs = pool::run_indexed(jobs, miss_tasks);
    let run_ns = watch.elapsed_ns() - build_ns;

    let mut shard_ns = vec![0u64; total];
    for (&index, shard_run) in miss_indices.iter().zip(runs) {
        let key = session.key(exp.name, scale, seed, index as u32);
        if let Some(bytes) = encode(&shard_run.value) {
            let _ = session.store.put(&key, &bytes);
        }
        shard_ns[index] = shard_run.elapsed_ns;
        slots[index] = Some(shard_run.value);
    }

    let data: Vec<ShardData> = slots
        .into_iter()
        .map(|slot| slot.expect("every shard is either cached or executed"))
        .collect();
    let (text, digest) = finish(data);
    let elapsed_ns = watch.elapsed_ns();
    let merge_ns = elapsed_ns - build_ns - run_ns;
    let mut phases = domino_testkit::bench::Phases::new();
    phases.add_ns("build", build_ns);
    phases.add_ns("run", run_ns);
    phases.add_ns("run/shards_cpu", shard_ns.iter().sum());
    phases.add_ns("merge", merge_ns);
    CachedRun {
        run: ExperimentRun {
            name: exp.name,
            output: exp.output,
            text,
            digest,
            shard_ns,
            build_ns,
            run_ns,
            merge_ns,
            elapsed_ns,
            phases,
        },
        shards_cached,
        shards_executed,
    }
}

/// Render the one-line cache summary the CLI prints per experiment.
pub fn render_cache_line(run: &CachedRun) -> String {
    format!(
        "{:<28} cache: {} hit{}, {} executed",
        run.run.name,
        run.shards_cached,
        if run.shards_cached == 1 { "" } else { "s" },
        run.shards_executed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
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
        let cold = run_experiment_cached(&mut session, e, Scale::Quick, 1, 2);
        assert_eq!(cold.shards_cached, 0);
        assert!(cold.shards_executed > 0);
        let plain = crate::run_experiment(e, Scale::Quick, 1, 2);
        assert_eq!(cold.run.text, plain.text, "cached path must not change output");
        assert_eq!(cold.run.digest, plain.digest);

        let warm = run_experiment_cached(&mut session, e, Scale::Quick, 1, 1);
        assert_eq!(warm.shards_executed, 0, "warm rerun must execute nothing");
        assert_eq!(warm.shards_cached, cold.shards_executed);
        assert_eq!(warm.run.text, cold.run.text);
        assert_eq!(warm.run.digest, cold.run.digest);
        assert!(render_cache_line(&warm).contains("0 executed"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprint_change_invalidates_everything() {
        let (dir, mut session) = tmp_session("inval", &"a".repeat(64));
        let e = exp("table1_params");
        let first = run_experiment_cached(&mut session, e, Scale::Quick, 1, 1);
        session.flush().unwrap();
        let executed = first.shards_executed;
        assert!(executed > 0);

        // Same store, different code fingerprint: all misses again.
        let store = Store::open(&dir).unwrap();
        let mut other = CacheSession::with(store, "b".repeat(64));
        let again = run_experiment_cached(&mut other, e, Scale::Quick, 1, 1);
        assert_eq!(again.shards_cached, 0);
        assert_eq!(again.shards_executed, executed);
        assert_eq!(again.run.text, first.run.text);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn seed_and_scale_partition_the_cache() {
        let (dir, mut session) = tmp_session("part", &"a".repeat(64));
        let e = exp("fig05_rop_samples");
        let s1 = run_experiment_cached(&mut session, e, Scale::Quick, 1, 1);
        let s2 = run_experiment_cached(&mut session, e, Scale::Quick, 2, 1);
        assert_eq!(s2.shards_cached, 0, "different seed must not hit");
        assert_ne!(s1.run.text, s2.run.text);
        let s1_again = run_experiment_cached(&mut session, e, Scale::Quick, 1, 1);
        assert_eq!(s1_again.shards_executed, 0);
        assert_eq!(s1_again.run.text, s1.run.text);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stats_render_through_obs_registry() {
        let (dir, mut session) = tmp_session("stats", &"a".repeat(64));
        let e = exp("table1_params");
        let _ = run_experiment_cached(&mut session, e, Scale::Quick, 1, 1);
        let _ = run_experiment_cached(&mut session, e, Scale::Quick, 1, 1);
        let text = session.render_stats();
        assert!(text.contains("campaign.cache.hits"), "{text}");
        assert!(text.contains("campaign.cache.stores"), "{text}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
