//! # domino-campaign
//!
//! The content-addressed result cache and declarative campaign layer of
//! the DOMINO reproduction (ROADMAP item 4: the runner as an incremental
//! sweep engine).
//!
//! PR 3 proved that every experiment's output bytes are a **pure function
//! of (experiment, code, scale, seed)** — `domino-run --check` pins it in
//! CI. This crate exploits that purity the way a build system exploits
//! pure compilation: work is split at the shard boundary the runner
//! already has, every shard result is keyed by a digest of everything that
//! could change it, and a rerun re-executes only invalidated shards.
//!
//! Four pieces, all deterministic and all free of registry dependencies:
//!
//! * [`store`] — the on-disk shard cache (`.domino-cache/`): SHA-256
//!   content addressing via [`domino_testkit::digest`], an index file,
//!   digest-verified reads that *evict and miss* on any corruption, and
//!   hit/miss/store/evict counters rendered as `campaign.cache.*` lines.
//! * [`fingerprint`] — the per-crate source manifest: each workspace
//!   crate hashed over its `Cargo.toml` + sorted `src/**.rs` files. The
//!   subset of crates that can reach shard computation folds into every
//!   cache key, so *any* code change invalidates exactly the cached
//!   results it could have produced. The rendered manifest is committed
//!   (`results/source_manifest.txt`) and re-pinned by `scripts/ci.sh`.
//! * [`manifest`] — the hand-rolled campaign grammar: a line-based file
//!   declaring parameter grids (`experiments` × `scales` × `seeds`) that
//!   expand into a deterministic cell list.
//! * [`ledger`] + [`report`] — resume and reporting: an append-only
//!   ledger records each completed cell with the digest of its output, so
//!   an interrupted campaign resumes to a byte-identical merged report;
//!   the report itself (per-cell digests plus per-experiment CDF rollups)
//!   contains no wall times and is a pure function of the grid.
//!
//! The execution half — probing the cache per shard of a
//! `runner::Plan`, running only the misses, and merging cached + fresh
//! results byte-identically — lives in `domino-runner::cache` and
//! `domino-runner::sweep`, because the experiment registry and the shard
//! pool live there; this crate deliberately sits *below* the runner in
//! the crate DAG so both the runner and its tests can layer on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod ledger;
pub mod manifest;
pub mod report;
pub mod store;
