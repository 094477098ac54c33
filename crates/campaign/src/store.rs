//! The on-disk content-addressed shard store (`.domino-cache/`).
//!
//! Layout under the store root:
//!
//! ```text
//! .domino-cache/
//!   index.txt              one line per entry, rewritten atomically
//!   objects/ab/abcdef….bin self-verifying payload objects
//! ```
//!
//! Every entry is addressed by the hex SHA-256 of its [`CacheKey`] — a
//! domain-separated, length-prefixed encoding of (experiment id, code
//! fingerprint, scale, seed, shard index). The object file carries
//! a header with the payload's own digest, and the index repeats it, so a
//! read is served **only** when the bytes on disk hash to exactly what was
//! written: a corrupt, truncated, or swapped object is evicted and
//! reported as a miss, never decoded. All failure handling is by value
//! (`Result`/`Option`) — this crate is in the D005 no-panic lint scope.

use domino_testkit::digest::{sha256_hex, Sha256};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic first line of an object file; bump on layout change.
const OBJECT_MAGIC: &str = "domino-cache-object-v1";
/// Magic first line of the index; unknown versions are ignored wholesale.
const INDEX_MAGIC: &str = "# domino-cache-index-v1";

/// The identity of one cached shard result. Every field participates in
/// the address: change any one and the entry misses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Registry experiment id (e.g. `fig12_tput_delay_fairness`).
    pub experiment: String,
    /// Code fingerprint from the source manifest ([`crate::fingerprint`]).
    pub fingerprint: String,
    /// Scale name (`quick` / `full`).
    pub scale: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Shard index within the experiment's plan.
    pub shard: u32,
}

impl CacheKey {
    /// Hex SHA-256 address of this key: domain-separated and
    /// length-prefixed, so no two distinct keys can collide by
    /// concatenation tricks (`("ab","c")` vs `("a","bc")`).
    pub fn digest(&self) -> String {
        let mut h = Sha256::new();
        h.update(b"domino-shard-key-v2\0");
        for field in [&self.experiment, &self.fingerprint, &self.scale] {
            h.update(&(field.len() as u64).to_le_bytes());
            h.update(field.as_bytes());
        }
        h.update(&self.seed.to_le_bytes());
        h.update(&self.shard.to_le_bytes());
        domino_testkit::digest::to_hex(&h.finalize())
    }
}

/// One index row: what is stored where, plus human-auditable identity.
#[derive(Clone, Debug, PartialEq, Eq)]
struct IndexEntry {
    payload_digest: String,
    len: u64,
    experiment: String,
    scale: String,
    seed: u64,
    shard: u32,
}

/// Monotonic cache traffic counters for one store session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads served from a digest-verified object.
    pub hits: u64,
    /// Reads that found no (valid) entry.
    pub misses: u64,
    /// Objects written.
    pub stores: u64,
    /// Entries removed because their bytes failed verification.
    pub evictions: u64,
}

impl StoreStats {
    /// The counters as `campaign.cache.<name> <value>` lines, in sorted
    /// name order.
    pub fn render(&self) -> String {
        format!(
            "campaign.cache.evictions {}\ncampaign.cache.hits {}\n\
             campaign.cache.misses {}\ncampaign.cache.stores {}\n",
            self.evictions, self.hits, self.misses, self.stores
        )
    }
}

/// The content-addressed shard store.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    index: BTreeMap<String, IndexEntry>,
    stats: StoreStats,
    dirty: bool,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`. A missing or
    /// malformed index starts empty — the objects are still on disk and a
    /// future index rewrite re-homes nothing, so the worst case of index
    /// loss is recomputation, never a wrong result.
    pub fn open(root: &Path) -> Result<Store, String> {
        std::fs::create_dir_all(root.join("objects"))
            .map_err(|e| format!("cache: cannot create {}: {e}", root.display()))?;
        let mut index = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(root.join("index.txt")) {
            let mut lines = text.lines();
            if lines.next() == Some(INDEX_MAGIC) {
                for line in lines {
                    if let Some((key, entry)) = parse_index_line(line) {
                        index.insert(key, entry);
                    }
                }
            }
        }
        Ok(Store { root: root.to_path_buf(), index, stats: StoreStats::default(), dirty: false })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Session counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn object_path(&self, key_digest: &str) -> PathBuf {
        let shard_dir = key_digest.get(..2).unwrap_or("xx");
        self.root.join("objects").join(shard_dir).join(format!("{key_digest}.bin"))
    }

    /// Fetch the payload for `key`, verifying its digest. Any
    /// inconsistency — missing object, bad magic, mismatched or
    /// truncated bytes — evicts the entry and returns `None` (a miss):
    /// corruption is always recomputed, never served.
    pub fn get(&mut self, key: &CacheKey) -> Option<Vec<u8>> {
        let key_digest = key.digest();
        let Some(expected) = self.index.get(&key_digest).map(|e| (e.payload_digest.clone(), e.len))
        else {
            self.stats.misses += 1;
            return None;
        };
        match read_object(&self.object_path(&key_digest)) {
            Some((payload_digest, payload))
                if payload_digest == expected.0
                    && payload.len() as u64 == expected.1
                    && sha256_hex(&payload) == payload_digest =>
            {
                self.stats.hits += 1;
                Some(payload)
            }
            _ => {
                self.evict(&key_digest);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store `payload` under `key` (crash-safe write: temp file, fsync,
    /// rename, directory fsync — a kill at any instant leaves either the
    /// old state or the new one, never a torn object).
    pub fn put(&mut self, key: &CacheKey, payload: &[u8]) -> Result<(), String> {
        let key_digest = key.digest();
        let payload_digest = sha256_hex(payload);
        let path = self.object_path(&key_digest);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cache: cannot create {}: {e}", dir.display()))?;
        }
        let tmp = path.with_extension("tmp");
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            f.write_all(OBJECT_MAGIC.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload_digest.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload)?;
            // Push the bytes to stable storage *before* the rename makes
            // them reachable; otherwise a crash can publish a torn object
            // under the final name.
            f.sync_all()
        };
        write(&tmp).map_err(|e| format!("cache: cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cache: cannot commit {}: {e}", path.display()))?;
        if let Some(dir) = path.parent() {
            sync_dir(dir).map_err(|e| format!("cache: cannot sync {}: {e}", dir.display()))?;
        }
        self.index.insert(
            key_digest,
            IndexEntry {
                payload_digest,
                len: payload.len() as u64,
                experiment: key.experiment.clone(),
                scale: key.scale.clone(),
                seed: key.seed,
                shard: key.shard,
            },
        );
        self.stats.stores += 1;
        self.dirty = true;
        Ok(())
    }

    /// Drop one entry (index row + object file) and count the eviction.
    fn evict(&mut self, key_digest: &str) {
        if self.index.remove(key_digest).is_some() {
            self.stats.evictions += 1;
            self.dirty = true;
        }
        let _ = std::fs::remove_file(self.object_path(key_digest));
    }

    /// Persist the index (atomic rewrite, sorted rows — byte-stable for
    /// identical contents). A no-op when nothing changed.
    pub fn flush(&mut self) -> Result<(), String> {
        if !self.dirty {
            return Ok(());
        }
        let mut text = String::from(INDEX_MAGIC);
        text.push('\n');
        for (key_digest, e) in &self.index {
            text.push_str(&format!(
                "{key_digest} {} {} {} {} {} {}\n",
                e.payload_digest, e.len, e.experiment, e.scale, e.seed, e.shard
            ));
        }
        let tmp = self.root.join("index.txt.tmp");
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()
        };
        write(&tmp).map_err(|e| format!("cache: cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, self.root.join("index.txt"))
            .map_err(|e| format!("cache: cannot commit index: {e}"))?;
        sync_dir(&self.root)
            .map_err(|e| format!("cache: cannot sync {}: {e}", self.root.display()))?;
        self.dirty = false;
        Ok(())
    }

    /// Human-auditable listing: `experiment scale seed shard len digest…`
    /// rows in index order.
    pub fn render_listing(&self) -> String {
        let mut out = String::new();
        for (key_digest, e) in &self.index {
            let short = key_digest.get(..12).unwrap_or(key_digest);
            out.push_str(&format!(
                "{} {} seed={} shard={} {}B {short}\n",
                e.experiment, e.scale, e.seed, e.shard, e.len
            ));
        }
        out
    }
}

/// fsync a directory so a rename into it is durable across power loss.
/// Best effort on platforms whose directories cannot be opened for sync.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Read one object file: `(payload_digest, payload)` or `None` on any
/// structural problem.
fn read_object(path: &Path) -> Option<(String, Vec<u8>)> {
    let bytes = std::fs::read(path).ok()?;
    let rest = bytes.strip_prefix(OBJECT_MAGIC.as_bytes())?.strip_prefix(b"\n")?;
    let digest = rest.get(..64)?;
    let payload = rest.get(64..)?.strip_prefix(b"\n")?;
    Some((String::from_utf8(digest.to_vec()).ok()?, payload.to_vec()))
}

/// Parse one index row back into `(key_digest, entry)`.
fn parse_index_line(line: &str) -> Option<(String, IndexEntry)> {
    let mut it = line.split_ascii_whitespace();
    let key_digest = it.next()?;
    let payload_digest = it.next()?;
    let len = it.next()?.parse().ok()?;
    let experiment = it.next()?;
    let scale = it.next()?;
    let seed = it.next()?.parse().ok()?;
    let shard = it.next()?.parse().ok()?;
    if key_digest.len() != 64 || payload_digest.len() != 64 || it.next().is_some() {
        return None;
    }
    Some((
        key_digest.to_string(),
        IndexEntry {
            payload_digest: payload_digest.to_string(),
            len,
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            seed,
            shard,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir()
            .join(format!("domino-campaign-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn key(shard: u32) -> CacheKey {
        CacheKey {
            experiment: "fig06_guard_sweep".into(),
            fingerprint: "f".repeat(64),
            scale: "quick".into(),
            seed: 1,
            shard,
        }
    }

    #[test]
    fn roundtrip_and_counters() {
        let (dir, mut s) = tmp_store("roundtrip");
        assert_eq!(s.get(&key(0)), None);
        s.put(&key(0), b"payload-bytes").unwrap();
        assert_eq!(s.get(&key(0)).as_deref(), Some(&b"payload-bytes"[..]));
        assert_eq!(s.get(&key(1)), None);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.stores, st.evictions), (1, 2, 1, 0));
        assert_eq!(
            st.render(),
            "campaign.cache.evictions 0\ncampaign.cache.hits 1\n\
             campaign.cache.misses 2\ncampaign.cache.stores 1\n"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kill_mid_write_leaves_store_recoverable() {
        // Reproduce on disk every state a kill can leave behind: a torn
        // object temp file, a torn *published* object, a stale index
        // temp, and a torn index row. The reopened store must serve the
        // intact entry, miss (and evict) the torn one, and never decode
        // garbage.
        let (dir, mut s) = tmp_store("killmid");
        s.put(&key(0), b"survives the crash").unwrap();
        s.put(&key(1), b"this object gets torn").unwrap();
        s.flush().unwrap();

        // Kill during a later put: only a half-written temp remains.
        let orphan = s.object_path(&key(2).digest()).with_extension("tmp");
        std::fs::create_dir_all(orphan.parent().unwrap()).unwrap();
        std::fs::write(&orphan, format!("{OBJECT_MAGIC}\ntrunc")).unwrap();
        // Kill after writing part of object 1's bytes in place (torn
        // final file — exactly what the pre-fsync rename could publish).
        let torn = s.object_path(&key(1).digest());
        let full = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        // Kill between index temp write and rename: stale temp survives.
        std::fs::write(dir.join("index.txt.tmp"), "garbage not an index").unwrap();
        // Torn final index row (simulated partial append by an older
        // writer): the parser must skip it, not reject the whole index.
        let mut index_text = std::fs::read_to_string(dir.join("index.txt")).unwrap();
        index_text.push_str("deadbeef 0123 torn-row");
        std::fs::write(dir.join("index.txt"), index_text).unwrap();

        let mut reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2, "torn index row must be skipped, not fatal");
        assert_eq!(reopened.get(&key(0)).as_deref(), Some(&b"survives the crash"[..]));
        assert_eq!(reopened.get(&key(1)), None, "torn object must miss");
        assert_eq!(reopened.stats().evictions, 1);
        reopened.flush().unwrap();

        // After the recovery flush the store is clean again: one entry,
        // no resurrected garbage.
        let mut third = Store::open(&dir).unwrap();
        assert_eq!(third.len(), 1);
        assert_eq!(third.get(&key(0)).as_deref(), Some(&b"survives the crash"[..]));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn index_persists_across_open() {
        let (dir, mut s) = tmp_store("persist");
        s.put(&key(0), b"alpha").unwrap();
        s.put(&key(1), b"beta").unwrap();
        s.flush().unwrap();
        drop(s);
        let mut s2 = Store::open(&dir).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get(&key(1)).as_deref(), Some(&b"beta"[..]));
        assert!(s2.render_listing().contains("fig06_guard_sweep quick seed=1 shard=0"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_object_is_evicted_not_served() {
        let (dir, mut s) = tmp_store("corrupt");
        s.put(&key(0), b"important-bytes").unwrap();
        // Flip one payload byte on disk.
        let obj = s.object_path(&key(0).digest());
        let mut bytes = std::fs::read(&obj).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&obj, bytes).unwrap();
        assert_eq!(s.get(&key(0)), None, "corrupt payload must miss");
        assert_eq!(s.stats().evictions, 1);
        assert!(!obj.exists(), "evicted object is deleted");
        // And the slot is reusable.
        s.put(&key(0), b"important-bytes").unwrap();
        assert_eq!(s.get(&key(0)).as_deref(), Some(&b"important-bytes"[..]));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_object_is_evicted_not_served() {
        let (dir, mut s) = tmp_store("truncate");
        s.put(&key(0), &[7u8; 100]).unwrap();
        let obj = s.object_path(&key(0).digest());
        let bytes = std::fs::read(&obj).unwrap();
        std::fs::write(&obj, &bytes[..bytes.len() - 40]).unwrap();
        assert_eq!(s.get(&key(0)), None);
        assert_eq!(s.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_object_with_index_entry_misses() {
        let (dir, mut s) = tmp_store("missing");
        s.put(&key(0), b"x").unwrap();
        std::fs::remove_file(s.object_path(&key(0).digest())).unwrap();
        assert_eq!(s.get(&key(0)), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_index_lines_are_skipped() {
        let (dir, mut s) = tmp_store("badindex");
        s.put(&key(0), b"x").unwrap();
        s.flush().unwrap();
        let idx = dir.join("index.txt");
        let mut text = std::fs::read_to_string(&idx).unwrap();
        text.push_str("not a valid line\nshort deadbeef 1 e s 1 0\n");
        std::fs::write(&idx, text).unwrap();
        drop(s);
        let s2 = Store::open(&dir).unwrap();
        assert_eq!(s2.len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn key_digest_is_stable_and_field_sensitive() {
        let base = key(3);
        let d = base.digest();
        assert_eq!(d.len(), 64);
        assert_eq!(d, key(3).digest());
        let mut k = base.clone();
        k.experiment = "fig09_signature_detection".into();
        assert_ne!(k.digest(), d);
        let mut k = base.clone();
        k.fingerprint = "0".repeat(64);
        assert_ne!(k.digest(), d);
        let mut k = base.clone();
        k.scale = "full".into();
        assert_ne!(k.digest(), d);
        let mut k = base.clone();
        k.seed = 2;
        assert_ne!(k.digest(), d);
        let mut k = base.clone();
        k.shard = 4;
        assert_ne!(k.digest(), d);
        // Length-prefixing: shifting bytes between fields changes the key.
        let mut a = base.clone();
        a.experiment = "ab".into();
        a.scale = "c".into();
        let mut b = base.clone();
        b.experiment = "a".into();
        b.scale = "bc".into();
        assert_ne!(a.digest(), b.digest());
    }
}
