//! The shard plan of one experiment: tasks plus an index-ordered merge.

use crate::pool::Task;
use domino_sim::snapshot::SnapValue;
use std::any::Any;

/// Type-erased shard result, so the registry can hold heterogeneous
/// experiments behind one function-pointer type.
pub(crate) type ShardData = Box<dyn Any + Send>;

/// The merge half of a plan: shard results in index order → output text
/// plus the machine-readable digest of the run.
pub(crate) type Finish = Box<dyn FnOnce(Vec<ShardData>) -> (String, RunDigest) + Send>;

/// Serialize one type-erased shard value. `None` only if the box holds a
/// different type than the plan's — impossible for values produced by the
/// plan's own shards or its own `decode`.
pub(crate) type EncodeShard = fn(&ShardData) -> Option<Vec<u8>>;

/// Deserialize one shard value from cached bytes; `None` on any
/// malformed input (the cache layer recomputes the shard).
pub(crate) type DecodeShard = fn(&[u8]) -> Option<ShardData>;

fn encode_shard<T: SnapValue + 'static>(data: &ShardData) -> Option<Vec<u8>> {
    data.downcast_ref::<T>().map(SnapValue::to_bytes)
}

fn decode_shard<T: SnapValue + Send + 'static>(bytes: &[u8]) -> Option<ShardData> {
    T::from_bytes(bytes).ok().map(|v| Box::new(v) as ShardData)
}

/// Machine-readable summary of one experiment run, surfaced in the
/// `domino-run --json` manifest. Everything here is deterministic (a pure
/// function of experiment, scale, and seed) — unlike the wall times that
/// accompany it in the manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunDigest {
    /// Runs aborted by the engine's liveness monitor, summed over shards.
    pub livelocks: u64,
    /// DOMINO watchdog-restart storms, summed over shards.
    pub watchdog_storms: u64,
    /// Per-fault-class injection totals as `(class, count)`, in
    /// `FaultStats::classes` declaration order, summed over shards.
    /// Empty when the experiment does not digest faults.
    pub fault_classes: Vec<(&'static str, u64)>,
}

impl RunDigest {
    /// Fold another digest (e.g. one shard's) into this one, matching
    /// fault classes by name.
    pub fn merge(&mut self, other: &RunDigest) {
        self.livelocks += other.livelocks;
        self.watchdog_storms += other.watchdog_storms;
        for &(name, count) in &other.fault_classes {
            match self.fault_classes.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += count,
                None => self.fault_classes.push((name, count)),
            }
        }
    }
}

/// An experiment instantiated at a concrete scale and seed: a list of
/// independent shards and a merge that renders their results — consumed
/// strictly in shard-index order — into the experiment's output text.
pub struct Plan {
    shards: Vec<Task<ShardData>>,
    encode: EncodeShard,
    decode: DecodeShard,
    finish: Finish,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan").field("shards", &self.shards.len()).finish()
    }
}

impl Plan {
    /// Build a plan from typed shards and a typed merge. The type erasure
    /// stays inside this constructor: `finish` receives shard values in
    /// shard-index order, whatever order the pool completed them in.
    ///
    /// `T: SnapValue` is deliberate and mandatory — it is what makes
    /// every registered experiment shard-cacheable: a shard value must
    /// round-trip through bytes losslessly (floats by bit pattern), and a
    /// decode error is a cache miss. The monomorphic encode/decode
    /// function pointers the cache layer uses are captured here, so type
    /// erasure never leaks to callers.
    pub fn new<T: Send + SnapValue + 'static>(
        shards: Vec<Box<dyn FnOnce() -> T + Send>>,
        finish: impl FnOnce(Vec<T>) -> String + Send + 'static,
    ) -> Plan {
        Plan::new_digested(shards, move |data| (finish(data), RunDigest::default()))
    }

    /// [`Plan::new`] for experiments that also report a [`RunDigest`]:
    /// the merge returns the rendered text together with the digest the
    /// `--json` manifest surfaces (livelocks, watchdog storms,
    /// per-fault-class counts).
    pub fn new_digested<T: Send + SnapValue + 'static>(
        shards: Vec<Box<dyn FnOnce() -> T + Send>>,
        finish: impl FnOnce(Vec<T>) -> (String, RunDigest) + Send + 'static,
    ) -> Plan {
        Plan {
            shards: shards
                .into_iter()
                .map(|shard| -> Task<ShardData> { Box::new(move || Box::new(shard()) as ShardData) })
                .collect(),
            encode: encode_shard::<T>,
            decode: decode_shard::<T>,
            finish: Box::new(move |data| {
                let typed: Vec<T> = data
                    .into_iter()
                    .map(|d| *d.downcast::<T>().expect("shard returned the plan's own type"))
                    .collect();
                finish(typed)
            }),
        }
    }

    /// A one-shard plan whose only shard renders the whole output.
    pub fn single(render: impl FnOnce() -> String + Send + 'static) -> Plan {
        Plan::new(
            vec![Box::new(render) as Box<dyn FnOnce() -> String + Send>],
            |mut parts: Vec<String>| parts.pop().unwrap_or_default(),
        )
    }

    /// Number of shards in this plan.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Decompose for execution: the tasks, the shard encode/decode pair
    /// the cache uses, and the merge. Used by [`crate::run_experiment`].
    pub(crate) fn into_parts(self) -> (Vec<Task<ShardData>>, EncodeShard, DecodeShard, Finish) {
        (self.shards, self.encode, self.decode, self.finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip_in_index_order() {
        let shards: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            (0..5u32).map(|i| -> Box<dyn FnOnce() -> u32 + Send> { Box::new(move || i * 10) }).collect();
        let plan = Plan::new(shards, |values: Vec<u32>| format!("{values:?}"));
        assert_eq!(plan.num_shards(), 5);
        let (tasks, _, _, finish) = plan.into_parts();
        let data: Vec<ShardData> = tasks.into_iter().map(|t| t()).collect();
        let (text, digest) = finish(data);
        assert_eq!(text, "[0, 10, 20, 30, 40]");
        assert_eq!(digest, RunDigest::default());
    }

    #[test]
    fn encoded_shard_values_roundtrip() {
        let shards: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            (0..5u32).map(|i| -> Box<dyn FnOnce() -> u32 + Send> { Box::new(move || i * 10) }).collect();
        let plan = Plan::new(shards, |values: Vec<u32>| format!("{values:?}"));
        let (tasks, encode, decode, finish) = plan.into_parts();
        let data: Vec<ShardData> = tasks.into_iter().map(|t| t()).collect();
        let bytes: Vec<Vec<u8>> = data.iter().map(|d| encode(d).unwrap()).collect();
        let decoded: Vec<ShardData> = bytes.iter().map(|b| decode(b).unwrap()).collect();
        let (text, _) = finish(decoded);
        assert_eq!(text, "[0, 10, 20, 30, 40]", "decoded shards must merge identically");
        assert!(decode(&[1, 2, 3]).is_none(), "garbage bytes must not decode");
    }

    #[test]
    fn single_shard_plan() {
        let plan = Plan::single(|| "hello\n".to_string());
        assert_eq!(plan.num_shards(), 1);
        let (tasks, _, _, finish) = plan.into_parts();
        let data: Vec<ShardData> = tasks.into_iter().map(|t| t()).collect();
        assert_eq!(finish(data).0, "hello\n");
    }

    #[test]
    fn digested_plan_carries_its_digest() {
        let shards: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            (1..=3u64).map(|i| -> Box<dyn FnOnce() -> u64 + Send> { Box::new(move || i) }).collect();
        let plan = Plan::new_digested(shards, |values: Vec<u64>| {
            let digest = RunDigest {
                livelocks: values.iter().sum(),
                watchdog_storms: 2,
                fault_classes: vec![("ap_crashes", 4)],
            };
            ("text\n".to_string(), digest)
        });
        let (tasks, _, _, finish) = plan.into_parts();
        let data: Vec<ShardData> = tasks.into_iter().map(|t| t()).collect();
        let (text, digest) = finish(data);
        assert_eq!(text, "text\n");
        assert_eq!(digest.livelocks, 6);
        assert_eq!(digest.fault_classes, vec![("ap_crashes", 4)]);
    }

    #[test]
    fn digest_merge_sums_by_class() {
        let mut a = RunDigest {
            livelocks: 1,
            watchdog_storms: 0,
            fault_classes: vec![("ap_crashes", 2)],
        };
        let b = RunDigest {
            livelocks: 0,
            watchdog_storms: 3,
            fault_classes: vec![("ap_crashes", 1), ("churn_drops", 5)],
        };
        a.merge(&b);
        assert_eq!(a.livelocks, 1);
        assert_eq!(a.watchdog_storms, 3);
        assert_eq!(a.fault_classes, vec![("ap_crashes", 3), ("churn_drops", 5)]);
    }
}
