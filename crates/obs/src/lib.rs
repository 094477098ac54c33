//! domino-obs: the deterministic observability plane.
//!
//! The repro's hardest claims are temporal — trigger chains fire inside
//! a detection window, epochs stall on a barrier, chaos runs recover
//! from crashes — but scalar end-of-run counters cannot show *when*
//! anything happened. This crate adds the missing layer:
//!
//! * [`TraceEvent`] / [`TraceHandle`] — structured, sim-time-stamped
//!   events threaded through the engine, the medium, the wired backbone
//!   and every MAC into a [`MemTracer`]. The determinism contract is
//!   absolute: a disabled handle makes **zero RNG draws and zero
//!   allocations**, so committed goldens stay byte-identical whether or
//!   not the instrumentation is compiled in or switched on.
//! * [`jsonl`] — a versioned JSONL trace format (hand-rolled; the
//!   workspace is hermetic) written by `domino-run --trace` and read by
//!   the `domino-trace` CLI.
//! * [`analysis`] — trigger-chain reconstruction against the paper's
//!   ≤2-inbound/≤4-outbound degree limits, slot timelines, fault
//!   timelines (injection→recovery latency), and trace diffing.
//! * [`profile`] — the deterministic cost-attribution profiler:
//!   [`ProfHandle`] counts engine pops, timer-wheel cascades, medium
//!   adjudications, controller/converter work and per-stream RNG draws
//!   against the fixed [`CostPath`] taxonomy, under the same
//!   observation-only contract as tracing (`profiled ≡ unprofiled`).
//! * [`Probe`] — the trace and profiler handles bundled: the one value a
//!   run threads through its engine, medium and MAC world.

pub mod analysis;
pub mod event;
pub mod jsonl;
pub mod probe;
pub mod profile;
pub mod tracer;

pub use event::{FaultKind, TraceEvent};
pub use jsonl::{TraceMeta, SCHEMA_NAME, SCHEMA_VERSION};
pub use probe::Probe;
pub use profile::{CostPath, CostProfile, CostProfiler, ProfHandle};
pub use tracer::{MemTracer, TraceHandle, TraceRecord};
