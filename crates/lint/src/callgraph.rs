//! Workspace symbol table and the conservative call graph behind D007.
//!
//! The hot-path allocation rule needs an answer to "can `Engine::pop`
//! reach this function?" without type information. The approximation is
//! deliberately **over**-inclusive — a missed edge would silently unpin
//! PR 6's allocation floor, an extra edge merely asks for a waiver:
//!
//! * Functions are indexed by *name*. A call `recv.emit(…)` edges to
//!   every workspace function named `emit`; a path call `Owner::emit(…)`
//!   narrows to functions defined in an `impl Owner` block when at least
//!   one exists. `Self::helper(…)` resolves `Self` to the calling
//!   function's own impl owner. When an *uppercase* owner matches no
//!   workspace impl, the callee is a foreign (std) type or an unresolved
//!   trait (`Default::default()`) and contributes no edge — its
//!   workspace-side implementations are reachable through their
//!   owner-qualified or method-call spellings, and without this cut every
//!   `Self { ..Default::default() }` would edge into every constructor
//!   in the workspace, drowning real hot-path hits in init-time noise.
//!   A lowercase owner (`wired::deliver(…)`) is a module path, not a
//!   type; it keeps the name-only match.
//! * Call facts are collected from the whole body — closures included,
//!   so an allocation inside `.map(|x| …)` is attributed to the function
//!   that owns the closure (it runs on the same path).
//! * `#[cfg(test)]`/`#[test]` functions are outside the graph: they can
//!   neither be reached from a simulation root nor supply edges, which
//!   keeps test helpers named `push`/`emit` from polluting reachability.
//! * Driver/measurement crates (`EXCLUDED_CRATES`) contribute neither
//!   nodes nor edges: nothing the engine dispatches lives there, and
//!   their intentionally alloc-heavy code (report rendering, bench
//!   harnesses) would otherwise shadow real hot-path hits through
//!   name collisions.
//!
//! Reachability is one BFS from the roots (`is_root`); parent links
//! let every finding print its witness chain, so a D007 report reads
//! `Engine::pop → World::dispatch_batch → send_data` rather than a bare
//! "reachable".

use crate::parser::{Expr, ParsedFile};
use crate::rules::{FileCtx, Finding, RuleId};
use std::collections::BTreeMap;

/// Crates that contribute nodes and edges to the call graph. Everything
/// simulation-side is here; `testkit`/`bench`/`lint`/`runner`/`campaign`
/// are excluded (driver and measurement code, fenced from sim crates by
/// D001 already).
const EXCLUDED_CRATES: &[&str] = &["testkit", "bench", "lint", "runner", "campaign"];

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallRef {
    /// Owner hint for path calls (`Engine::pop` → `Some("Engine")`);
    /// `None` for method and bare calls.
    pub hint: Option<String>,
    /// Callee name (last path segment or method name).
    pub name: String,
}

/// A banned-allocation site inside a function body.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Human-readable construct (`Vec::new()`, `.collect()`, `format!`).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// The semantic facts one function contributes to cross-file analysis.
#[derive(Clone, Debug)]
pub struct FnSem {
    /// Function name.
    pub name: String,
    /// `impl`/`trait` owner type, if any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Test-gated (`#[test]` / inside `#[cfg(test)]`).
    pub is_test: bool,
    /// Every call site in the body (closures included).
    pub calls: Vec<CallRef>,
    /// Every banned-allocation site in the body.
    pub allocs: Vec<AllocSite>,
}

/// A named RNG-stream constant (`mod streams { const … }`).
#[derive(Clone, Debug)]
pub struct StreamDef {
    /// Constant name.
    pub name: String,
    /// Literal value (only plain integer literals are comparable).
    pub value: Option<u64>,
    /// 1-based line of the constant name.
    pub line: u32,
}

/// Cross-file facts extracted from one parsed file.
#[derive(Clone, Debug, Default)]
pub struct FileSem {
    /// Function facts, in source order.
    pub fns: Vec<FnSem>,
    /// Stream-registry constants defined in this file.
    pub streams: Vec<StreamDef>,
}

/// Allocation-returning method names D007 bans on the hot path.
const ALLOC_METHODS: &[&str] = &["to_vec", "collect"];
/// Allocation macros D007 bans on the hot path.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Extract the cross-file facts from one parsed file.
pub fn extract(parsed: &ParsedFile<'_>) -> FileSem {
    let mut sem = FileSem {
        fns: Vec::with_capacity(parsed.fns.len()),
        streams: parsed
            .stream_consts
            .iter()
            .map(|c| StreamDef { name: c.name.to_string(), value: c.value, line: c.line })
            .collect(),
    };
    for f in &parsed.fns {
        let mut calls = Vec::new();
        let mut allocs = Vec::new();
        for e in &f.body {
            e.walk(&mut |x| collect_facts(x, &mut calls, &mut allocs));
        }
        // `Self::helper()` means this impl's owner type.
        if let Some(owner) = f.owner {
            for c in &mut calls {
                if c.hint.as_deref() == Some("Self") {
                    c.hint = Some(owner.to_string());
                }
            }
        }
        sem.fns.push(FnSem {
            name: f.name.to_string(),
            owner: f.owner.map(str::to_string),
            line: f.line,
            is_test: f.is_test,
            calls,
            allocs,
        });
    }
    sem
}

/// Record call edges and banned-allocation sites for one expression node.
fn collect_facts(e: &Expr<'_>, calls: &mut Vec<CallRef>, allocs: &mut Vec<AllocSite>) {
    match e {
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = &**callee {
                let name = segs.last().copied().unwrap_or("");
                if name.is_empty() {
                    return;
                }
                let hint = segs.len().checked_sub(2).map(|i| segs[i].to_string());
                match (hint.as_deref(), name) {
                    (Some("Vec"), "new") | (Some("Box"), "new") => allocs.push(AllocSite {
                        what: format!("{}::new()", hint.as_deref().unwrap_or("")),
                        line: *line,
                    }),
                    (_, "with_capacity" | "with_capacity_and_hasher") => {
                        allocs.push(AllocSite { what: format!("{}(…)", segs.join("::")), line: *line });
                    }
                    _ => calls.push(CallRef { hint, name: name.to_string() }),
                }
            }
            // Calls through non-path callees (`(f)(x)`, field closures)
            // stay unresolved: no symbol to match.
        }
        Expr::Method { name, line, .. } => {
            if ALLOC_METHODS.contains(name) {
                allocs.push(AllocSite { what: format!(".{name}()"), line: *line });
            } else if *name == "with_capacity" {
                allocs.push(AllocSite { what: format!(".{name}(…)"), line: *line });
            } else {
                calls.push(CallRef { hint: None, name: name.to_string() });
            }
        }
        Expr::Macro { name, line, .. } if ALLOC_MACROS.contains(name) => {
            allocs.push(AllocSite { what: format!("{name}!"), line: *line });
        }
        _ => {}
    }
}

/// Is this function a D007 root (an event-dispatch entry point)?
fn is_root(f: &FnSem) -> bool {
    matches!(
        (f.owner.as_deref(), f.name.as_str()),
        (Some("Engine"), "pop") | (Some("Medium"), "begin") | (_, "dispatch_batch")
    )
}

/// A graph node: (file index, fn index within that file's `FileSem`).
type NodeId = (usize, usize);

/// Run D007 over the workspace: BFS the call graph from the dispatch
/// roots, then report every banned-allocation site inside a reachable
/// non-test function. Returns `(file_idx, finding)` pairs.
pub fn d007_hot_path_allocs(files: &[(FileCtx, FileSem)]) -> Vec<(usize, Finding)> {
    // Node universe: non-test fns of in-scope crates.
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, (ctx, sem)) in files.iter().enumerate() {
        if EXCLUDED_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_test_file {
            continue;
        }
        for (gi, f) in sem.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push(nodes.len());
            nodes.push((fi, gi));
        }
    }
    let get = |n: usize| -> &FnSem {
        let (fi, gi) = nodes[n];
        &files[fi].1.fns[gi]
    };

    // BFS with parent links for witness chains.
    let mut reached: Vec<bool> = vec![false; nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = (0..nodes.len())
        .filter(|&n| is_root(get(n)))
        .inspect(|&n| reached[n] = true)
        .collect();
    while let Some(n) = queue.pop_front() {
        for call in &get(n).calls {
            let Some(cands) = by_name.get(call.name.as_str()) else { continue };
            // A path call `Owner::name` narrows to matching impl owners.
            // An uppercase owner with no workspace impl is foreign (std
            // type or unresolved trait): no edge. A lowercase owner is a
            // module path: name-only match, like a method call.
            let narrowed: Vec<usize> = match &call.hint {
                Some(h) => {
                    let m: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| get(c).owner.as_deref() == Some(h.as_str()))
                        .collect();
                    if !m.is_empty() {
                        m
                    } else if h.chars().next().is_some_and(char::is_uppercase) {
                        Vec::new()
                    } else {
                        cands.clone()
                    }
                }
                None => cands.clone(),
            };
            for c in narrowed {
                if !reached[c] {
                    reached[c] = true;
                    parent[c] = Some(n);
                    queue.push_back(c);
                }
            }
        }
    }

    // Findings: banned allocations inside reachable fns.
    let label = |n: usize| -> String {
        let f = get(n);
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    };
    let mut out = Vec::new();
    for n in 0..nodes.len() {
        if !reached[n] || get(n).allocs.is_empty() {
            continue;
        }
        // Witness chain root → … → n, capped for readability.
        let mut chain = vec![label(n)];
        let mut cur = n;
        while let Some(p) = parent[cur] {
            chain.push(label(p));
            cur = p;
            if chain.len() >= 6 {
                chain.push("…".to_string());
                break;
            }
        }
        chain.reverse();
        let via = chain.join(" → ");
        let (fi, _) = nodes[n];
        for a in &get(n).allocs {
            out.push((
                fi,
                Finding {
                    rule: RuleId::D007,
                    line: a.line,
                    message: format!(
                        "`{}` allocates on the hot path ({via}); reuse a pooled/recycled buffer",
                        a.what
                    ),
                },
            ));
        }
    }
    out
}

/// Cross-file half of D008: two named stream constants sharing one id.
/// The later definition (by path order, then line) gets the finding so a
/// newly added duplicate is the one flagged.
pub fn d008_duplicate_streams(
    files: &[(FileCtx, FileSem)],
    paths: &[String],
) -> Vec<(usize, Finding)> {
    // value → (file_idx, name, line), in (path, line) order.
    let mut by_value: BTreeMap<u64, Vec<(usize, &str, u32)>> = BTreeMap::new();
    let mut defs: Vec<(usize, &StreamDef)> = Vec::new();
    for (fi, (_, sem)) in files.iter().enumerate() {
        for d in &sem.streams {
            defs.push((fi, d));
        }
    }
    defs.sort_by(|a, b| (&paths[a.0], a.1.line).cmp(&(&paths[b.0], b.1.line)));
    for (fi, d) in defs {
        if let Some(v) = d.value {
            by_value.entry(v).or_default().push((fi, d.name.as_str(), d.line));
        }
    }
    let mut out = Vec::new();
    for (value, sites) in by_value {
        let Some((first_fi, first_name, first_line)) = sites.first().copied() else { continue };
        for &(fi, name, line) in sites.iter().skip(1) {
            out.push((
                fi,
                Finding {
                    rule: RuleId::D008,
                    line,
                    message: format!(
                        "stream id {value:#04x} (`{name}`) duplicates `{first_name}` \
                         ({}:{first_line}); pick an unused id",
                        paths[first_fi]
                    ),
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::tokenizer::tokenize;

    fn file(path: &str, src: &str) -> (FileCtx, FileSem) {
        (FileCtx::from_path(path), extract(&parse(&tokenize(src))))
    }

    #[test]
    fn reaches_through_method_calls_and_closures() {
        let files = vec![
            file(
                "crates/sim/src/engine.rs",
                "impl Engine { fn pop(&mut self) { self.helper(); } \
                              fn helper(&self) { deep(); } }",
            ),
            file(
                "crates/mac/src/x.rs",
                "fn deep() { xs.iter().map(|x| Vec::new()).count(); }\n\
                 fn unreachable_alloc() { let v = Vec::new(); }",
            ),
        ];
        let hits = d007_hot_path_allocs(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.rule, RuleId::D007);
        assert!(hits[0].1.message.contains("Engine::pop"), "{}", hits[0].1.message);
        assert!(hits[0].1.message.contains("deep"), "{}", hits[0].1.message);
    }

    #[test]
    fn owner_hint_narrows_path_calls() {
        // `Other::begin` must not pull `Medium::begin`'s callees into the
        // graph when an `Other` impl exists.
        let files = vec![file(
            "crates/medium/src/m.rs",
            "impl Medium { fn begin(&mut self) { self.only_from_medium(); } \
                           fn only_from_medium(&self) { let v = Vec::new(); } }\n\
             impl Other { fn begin(&self) {} }",
        )];
        let hits = d007_hot_path_allocs(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn self_calls_resolve_to_the_impl_owner() {
        let files = vec![file(
            "crates/sim/src/engine.rs",
            "impl Engine { fn pop(&mut self) { Self::advance(self); } \
                           fn advance(&mut self) { let v = Vec::new(); } }\n\
             impl Other { fn advance(&mut self) { let v = Vec::new(); } }",
        )];
        let hits = d007_hot_path_allocs(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.message.contains("Engine::advance"), "{}", hits[0].1.message);
    }

    #[test]
    fn foreign_type_calls_contribute_no_edge() {
        // `Default::default()` must not edge into every workspace
        // constructor; `helpers::prep` (module path) must still match.
        let files = vec![
            file(
                "crates/sim/src/engine.rs",
                "impl Engine { fn pop(&mut self) { let x = Default::default(); helpers::prep(); } }",
            ),
            file(
                "crates/mac/src/x.rs",
                "impl World { fn default(&self) { let v = Vec::new(); } }\n\
                 pub fn prep() { let s = format!(\"x\"); }",
            ),
        ];
        let hits = d007_hot_path_allocs(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.message.contains("format!"), "{}", hits[0].1.message);
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let files = vec![file(
            "crates/sim/src/engine.rs",
            "impl Engine { fn pop(&mut self) { helper(); } }\n\
             #[cfg(test)] mod tests { fn helper() { let v = Vec::new(); } }",
        )];
        assert!(d007_hot_path_allocs(&files).is_empty());
    }

    #[test]
    fn excluded_crates_contribute_nothing() {
        let files = vec![
            file("crates/sim/src/engine.rs", "impl Engine { fn pop(&mut self) { render(); } }"),
            file("crates/runner/src/report.rs", "fn render() { let s = format!(\"x\"); }"),
        ];
        assert!(d007_hot_path_allocs(&files).is_empty());
    }

    #[test]
    fn duplicate_stream_ids_flag_the_later_definition() {
        let files = vec![
            file("crates/sim/src/rng.rs", "pub mod streams { pub const A: u64 = 0x01; pub const B: u64 = 0x02; }"),
            file("crates/traffic/src/gen.rs", "pub mod streams { pub const C: u64 = 0x02; }"),
        ];
        let paths = vec!["crates/sim/src/rng.rs".to_string(), "crates/traffic/src/gen.rs".to_string()];
        let hits = d008_duplicate_streams(&files, &paths);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 1);
        assert!(hits[0].1.message.contains("`B`"), "{}", hits[0].1.message);
    }
}
