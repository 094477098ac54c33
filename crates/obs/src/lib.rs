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
//! * [`named_enum!`] — the one declaration of a vocabulary: each variant
//!   with its stable name, from which `ALL`, `name` and `from_name`
//!   follow. [`FaultKind`], [`CostPath`] and the runner's scenarios and
//!   scales are declared with it.

/// Declare a fieldless enum whose variants each carry a stable name, and
/// derive from that one list:
///
/// * `ALL`: every variant, in declaration order;
/// * `name(self)`: the variant's name;
/// * `from_name(&str)`: the variant with that name, if any.
///
/// ```
/// domino_obs::named_enum! {
///     /// A traffic light.
///     #[derive(Clone, Copy, Debug, PartialEq, Eq)]
///     pub enum Light {
///         /// Stop.
///         Red => "red",
///         /// Go.
///         Green => "green",
///     }
/// }
/// assert_eq!(Light::ALL, [Light::Red, Light::Green]);
/// assert_eq!(Light::Green.name(), "green");
/// assert_eq!(Light::from_name("red"), Some(Light::Red));
/// assert_eq!(Light::from_name("amber"), None);
/// ```
///
/// The list is the vocabulary: a name written anywhere else is a second
/// copy. Attributes before the enum and before each variant pass
/// through (derives, docs, `#[default]`); `name` takes `self`, so the
/// enum derives `Copy`.
#[macro_export]
macro_rules! named_enum {
    ($(#[$meta:meta])* $vis:vis enum $ty:ident {
        $($(#[$vmeta:meta])* $var:ident => $name:literal),+ $(,)?
    }) => {
        $(#[$meta])*
        $vis enum $ty {
            $($(#[$vmeta])* $var),+
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$var),+];

            /// The variant's stable name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name),+
                }
            }

            /// The variant named `name` (the inverse of `name`).
            pub fn from_name(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$var),)+
                    _ => None,
                }
            }
        }
    };
}

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
