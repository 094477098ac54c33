//! The observation handles one run carries, bundled.

use crate::profile::ProfHandle;
use crate::tracer::TraceHandle;

/// A run's trace sink and cost profiler, traveling as one value.
///
/// Every component that observes a run (the engine, the medium, each
/// MAC world) takes a `Probe` and keeps the handles it needs. Both are
/// observation-only and closure-gated, so [`Probe::default`] — both
/// handles off — is a plain run, byte-identical to any probed one.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Structured trace sink ([`TraceHandle::off`] by default).
    pub trace: TraceHandle,
    /// Cost-attribution profiler ([`ProfHandle::off`] by default).
    pub prof: ProfHandle,
}

impl Probe {
    /// Bundle a trace sink and a cost profiler.
    pub fn new(trace: TraceHandle, prof: ProfHandle) -> Probe {
        Probe { trace, prof }
    }
}
