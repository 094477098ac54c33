//! The per-crate source manifest and the cache's code fingerprint.
//!
//! A cached shard result is only valid while the code that produced it is
//! unchanged. Rather than trusting build timestamps, every workspace
//! crate is hashed over its `Cargo.toml` plus every `src/**.rs` file
//! (sorted, path + length + content — so renames and moves invalidate
//! too), and the crates that can reach shard computation fold into one
//! **fingerprint** that is part of every
//! [`CacheKey`](crate::store::CacheKey).
//!
//! The rendered manifest is committed as `results/source_manifest.txt`
//! and `scripts/ci.sh` byte-diffs it against a fresh scan
//! (`domino-run fingerprint`), so the committed file doubles as a
//! human-readable record of *which crate's change* invalidated a cache.
//! The runtime always fingerprints the live tree, never the committed
//! file — a stale manifest can therefore never serve a stale result.

use domino_testkit::digest::{to_hex, Sha256};
use std::path::{Path, PathBuf};

/// Header line of the rendered manifest.
const MANIFEST_MAGIC: &str = "# domino source manifest v1";

/// Crates whose code can reach shard computation and therefore fold into
/// the cache fingerprint. Excluded by design: `bench` (thin CLI wrappers
/// over the runner), `lint` (never linked into the runner), and
/// `campaign` itself (it moves shard bytes verbatim; the round-trip
/// property tests in `crates/runner/tests` pin that it cannot alter
/// them).
pub const KEY_CRATES: &[&str] = &[
    "core", "faults", "mac", "medium", "obs", "phy", "runner", "scheduler", "sim", "stats",
    "testkit", "topology", "traffic", "wired",
];

/// One crate's row in the source manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrateEntry {
    /// Directory name under `crates/`.
    pub name: String,
    /// Hex SHA-256 over the crate's manifest and sources.
    pub digest: String,
    /// Number of files hashed.
    pub files: u64,
    /// Total bytes hashed.
    pub bytes: u64,
}

/// Recursively collect `.rs` files under `dir`, root-relative with `/`
/// separators, sorted.
fn rust_files(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d)
            .map_err(|e| format!("fingerprint: cannot read {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("fingerprint: {e}"))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Hash one crate directory (its `Cargo.toml` + `src/**.rs`).
fn scan_crate(name: &str, crate_dir: &Path) -> Result<CrateEntry, String> {
    let mut h = Sha256::new();
    h.update(b"domino-crate-v1\0");
    let mut files = 0u64;
    let mut bytes = 0u64;
    let mut absorb = |rel: &str, path: &Path| -> Result<(), String> {
        let content = std::fs::read(path)
            .map_err(|e| format!("fingerprint: cannot read {}: {e}", path.display()))?;
        h.update(&(rel.len() as u64).to_le_bytes());
        h.update(rel.as_bytes());
        h.update(&(content.len() as u64).to_le_bytes());
        h.update(&content);
        files += 1;
        bytes += content.len() as u64;
        Ok(())
    };
    let cargo = crate_dir.join("Cargo.toml");
    if cargo.is_file() {
        absorb("Cargo.toml", &cargo)?;
    }
    let src = crate_dir.join("src");
    if src.is_dir() {
        for (rel, path) in rust_files(&src)? {
            absorb(&format!("src/{rel}"), &path)?;
        }
    }
    // Integration tests ship golden pins and replay seeds; include them so
    // a changed expectation is visible in the manifest (the fingerprint
    // subset still decides what invalidates the cache).
    let tests = crate_dir.join("tests");
    if tests.is_dir() {
        for (rel, path) in rust_files(&tests)? {
            absorb(&format!("tests/{rel}"), &path)?;
        }
    }
    Ok(CrateEntry { name: name.to_string(), digest: to_hex(&h.finalize()), files, bytes })
}

/// Scan every crate directory under `crates_root`, sorted by name.
pub fn scan(crates_root: &Path) -> Result<Vec<CrateEntry>, String> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(crates_root)
        .map_err(|e| format!("fingerprint: cannot read {}: {e}", crates_root.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("fingerprint: {e}"))?;
        if entry.path().is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        out.push(scan_crate(&name, &crates_root.join(&name))?);
    }
    Ok(out)
}

/// Render entries as the committed manifest text.
pub fn render(entries: &[CrateEntry]) -> String {
    let mut out = String::from(MANIFEST_MAGIC);
    out.push('\n');
    for e in entries {
        out.push_str(&format!("{} {} {} {}\n", e.name, e.digest, e.files, e.bytes));
    }
    out
}

/// Parse a rendered manifest back into entries.
pub fn parse(text: &str) -> Result<Vec<CrateEntry>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err("fingerprint: not a source manifest (bad header)".to_string());
    }
    let mut out = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let (name, digest, files, bytes) = (it.next(), it.next(), it.next(), it.next());
        match (name, digest, files, bytes) {
            (Some(n), Some(d), Some(f), Some(b)) if d.len() == 64 && it.next().is_none() => {
                let files = f.parse().map_err(|_| format!("fingerprint: bad line: {line}"))?;
                let bytes = b.parse().map_err(|_| format!("fingerprint: bad line: {line}"))?;
                out.push(CrateEntry {
                    name: n.to_string(),
                    digest: d.to_string(),
                    files,
                    bytes,
                });
            }
            _ => return Err(format!("fingerprint: bad line: {line}")),
        }
    }
    Ok(out)
}

/// Fold the [`KEY_CRATES`] subset of `entries` into the single hex
/// fingerprint that enters every cache key. Errors if a key crate is
/// missing from the scan — caching with a partial fingerprint could serve
/// stale results.
pub fn fingerprint(entries: &[CrateEntry]) -> Result<String, String> {
    let mut h = Sha256::new();
    h.update(b"domino-fingerprint-v1\0");
    for name in KEY_CRATES {
        let Some(e) = entries.iter().find(|e| e.name == *name) else {
            return Err(format!("fingerprint: key crate `{name}` missing from source scan"));
        };
        h.update(&(e.name.len() as u64).to_le_bytes());
        h.update(e.name.as_bytes());
        h.update(e.digest.as_bytes());
    }
    Ok(to_hex(&h.finalize()))
}

/// Locate the workspace `crates/` directory: the current directory's
/// `crates/` when present, else the tree this library was built from.
pub fn workspace_crates_root() -> Option<PathBuf> {
    let cwd = PathBuf::from("crates");
    if cwd.is_dir() {
        return Some(cwd);
    }
    let built = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if built.is_dir() {
        return Some(built);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_tree(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("domino-fp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (path, content) in [
            ("alpha/Cargo.toml", "[package]\nname = \"alpha\"\n"),
            ("alpha/src/lib.rs", "pub fn a() {}\n"),
            ("alpha/src/sub/deep.rs", "pub fn d() {}\n"),
            ("beta/Cargo.toml", "[package]\nname = \"beta\"\n"),
            ("beta/src/lib.rs", "pub fn b() {}\n"),
        ] {
            let p = root.join(path);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, content).unwrap();
        }
        root
    }

    #[test]
    fn scan_is_sorted_and_content_sensitive() {
        let root = fixture_tree("scan");
        let a = scan(&root).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].name, "alpha");
        assert_eq!(a[0].files, 3);
        assert_eq!(a[1].name, "beta");
        let before = a[0].digest.clone();
        std::fs::write(root.join("alpha/src/lib.rs"), "pub fn a() { /* changed */ }\n").unwrap();
        let b = scan(&root).unwrap();
        assert_ne!(b[0].digest, before, "content change must move the digest");
        assert_eq!(b[1].digest, a[1].digest, "unrelated crate unchanged");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn rename_moves_the_digest() {
        let root = fixture_tree("rename");
        let before = scan(&root).unwrap();
        std::fs::rename(root.join("alpha/src/sub/deep.rs"), root.join("alpha/src/sub/deeper.rs"))
            .unwrap();
        let after = scan(&root).unwrap();
        assert_ne!(before[0].digest, after[0].digest);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn render_parse_roundtrip() {
        let root = fixture_tree("render");
        let entries = scan(&root).unwrap();
        let text = render(&entries);
        assert!(text.starts_with(MANIFEST_MAGIC));
        assert_eq!(parse(&text).unwrap(), entries);
        assert!(parse("bogus\n").is_err());
        assert!(parse(&format!("{MANIFEST_MAGIC}\nname short 1 2\n")).is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn fingerprint_needs_every_key_crate() {
        // The real workspace scan must contain all KEY_CRATES; a fixture
        // tree does not, and that must be a hard error.
        let root = fixture_tree("fp");
        let entries = scan(&root).unwrap();
        assert!(fingerprint(&entries).is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn real_workspace_fingerprint_is_stable() {
        let Some(root) = workspace_crates_root() else {
            return;
        };
        let a = scan(&root).unwrap();
        let b = scan(&root).unwrap();
        assert_eq!(a, b);
        assert_eq!(fingerprint(&a).unwrap(), fingerprint(&b).unwrap());
        assert_eq!(fingerprint(&a).unwrap().len(), 64);
    }
}
