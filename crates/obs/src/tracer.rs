//! The trace sink and the cheap handle engines thread through their state.
//!
//! The determinism contract: a disabled handle ([`TraceHandle::off`],
//! the `Default`) makes **zero RNG draws and zero allocations** — the
//! event constructor closure passed to [`TraceHandle::emit`] is never
//! invoked — so a traced binary with tracing off is byte-identical to
//! one built without any instrumentation. Enabling a tracer only ever
//! *observes* the run; nothing downstream of an `emit` call may branch
//! on the handle.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::rc::Rc;

/// One recorded event with its simulation-time timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event, ns since run start.
    pub t_ns: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// The trace sink: appends every record to a growable buffer.
///
/// The sink is shared between the engine, the medium, the backbone and
/// the scheme state machine of a single run via [`TraceHandle`] clones,
/// all on one thread, so it records through `&self`.
#[derive(Debug, Default)]
pub struct MemTracer {
    events: RefCell<Vec<TraceRecord>>,
}

impl MemTracer {
    /// Drain the recorded events (leaves the buffer empty).
    pub fn take(&self) -> Vec<TraceRecord> {
        self.events.take()
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

/// The handle engines hold. Cloning is cheap (an `Rc` bump or a `None`
/// copy); the disabled handle is a single `Option` check per call site.
///
/// Not `Send` by design: handles are created *inside* a run, after any
/// thread-pool dispatch boundary, and never escape it.
#[derive(Clone, Debug, Default)]
pub struct TraceHandle(Option<Rc<MemTracer>>);

impl TraceHandle {
    /// The disabled handle: `emit` never constructs an event.
    pub fn off() -> TraceHandle {
        TraceHandle(None)
    }

    /// A fresh in-memory sink plus a handle feeding it.
    pub fn mem() -> (TraceHandle, Rc<MemTracer>) {
        let sink = Rc::new(MemTracer::default());
        (TraceHandle(Some(Rc::clone(&sink))), sink)
    }

    /// Is a sink attached?
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Record the event built by `make` — or do nothing at all, without
    /// calling `make`, when the handle is off. Call sites pay one branch
    /// when tracing is disabled.
    pub fn emit(&self, t_ns: u64, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            let ev = make();
            sink.events.borrow_mut().push(TraceRecord { t_ns, ev });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_builds_the_event() {
        let handle = TraceHandle::off();
        let mut built = false;
        handle.emit(1, || {
            built = true;
            TraceEvent::BackboneDrop {}
        });
        assert!(!built, "disabled handle must not invoke the constructor");
        assert!(!handle.is_on());
    }

    #[test]
    fn mem_tracer_captures_in_order() {
        let (handle, sink) = TraceHandle::mem();
        assert!(handle.is_on());
        handle.emit(5, || TraceEvent::RopPoll { ap: 1 });
        let also = handle.clone();
        also.emit(9, || TraceEvent::BackboneDrop {});
        assert_eq!(sink.len(), 2);
        let events = sink.take();
        assert!(sink.is_empty());
        assert_eq!(
            events,
            vec![
                TraceRecord { t_ns: 5, ev: TraceEvent::RopPoll { ap: 1 } },
                TraceRecord { t_ns: 9, ev: TraceEvent::BackboneDrop {} },
            ]
        );
    }

    #[test]
    fn default_handle_is_off() {
        assert!(!TraceHandle::default().is_on());
    }
}
