//! The *effect* facts behind the serve-layer concurrency and durability
//! rules R14–R16, and the rules themselves.
//!
//! Where [`crate::dataflow`] recovers def-use structure, [`scan_token`]
//! recovers *effects*: things a function does to the outside world that
//! the serve layer's invariants constrain. It runs in the same walk over
//! each `fn`'s own tokens (nested `fn` items excluded, closures attributed
//! to the enclosing function, `#[cfg(test)]` regions invisible) and
//! records four effect families on the function's
//! [`FnSummary`](crate::items::FnSummary):
//!
//! * **lock acquisitions** — calls to the configured acquisition fns
//!   (`lock_recover`, `lock_state`) or methods (`.lock()`), with the lock
//!   *identity* (the last receiver/argument-chain component:
//!   `lock_recover(&self.state)` acquires lock `state`) and a *held
//!   region*: a `let`-bound guard is held to the end of its enclosing
//!   block, terminated early only by a same-depth `drop(guard)`; an
//!   unbound guard (a temporary, `if lock_recover(&m).dead {`) is held to
//!   the end of its statement;
//! * **blocking I/O** — socket/file reads and writes, `flush`, fsync,
//!   `accept`, file renames, and the `write!`/`writeln!` macros;
//! * **durability** — spool saves, checkpoint writes, quarantines,
//!   `atomic_write`/`sync_all` (these also count as blocking for R14);
//! * **ack/requeue and timeout guards** — `"OK …"` line construction
//!   (scanned on the *raw* source by [`file_facts`], because the lexer
//!   masks string contents), scheduler requeue calls, and
//!   `set_read_timeout`/`set_write_timeout`/`set_nonblocking` calls.
//!
//! The facts are extracted for every file; the effect scope
//! (`effect_paths` minus `blessed_recovery_paths`) applies when [`check`]
//! queries them. It propagates them interprocedurally over the call graph,
//! like the budget `charging_set`: per-function effect sets close over
//! callees by fixpoint, and demand sites that are not discharged inside
//! their own function walk up the (reverse) call graph until a caller
//! discharges them or a root is reached. Three rules:
//!
//! * **R14 `lock-discipline`** — the global lock-order graph (lock B
//!   acquired while A is held, including through calls) must be acyclic;
//!   no lock may be held across a blocking or durability effect (fsync
//!   latency under the scheduler lock serializes every connection); and
//!   the poisoned-lock recovery idiom (`unwrap_or_else(|e|
//!   e.into_inner())`) must live in the one blessed `sync` module.
//! * **R15 `durability-ordering`** — every ack/requeue effect must be
//!   dominated by a durability effect on every caller chain: nothing is
//!   acknowledged that a `kill -9` immediately after could lose.
//! * **R16 `unbounded-blocking`** — every blocking *socket* effect
//!   reachable from the accept-loop roots must be dominated by a timeout
//!   guard on every undischarged chain, so a silent or trickling peer can
//!   never wedge a handler thread.
//!
//! Approximations lean conservative and coarse by design: lock identity is
//! a name, not an object (two locks both named `state` in different types
//! share a node in the order graph — a collision that can only create
//! false cycles, never hide one), and a guard whose `drop` sits in a
//! nested arm is treated as held to the block end. A violation is
//! discharged by an `allow` either at the offending line or (for
//! held-across) at the acquisition line, so one invariant statement covers
//! one guard's whole region.

use crate::dataflow::receiver_chain;
use crate::graph::CallGraph;
use crate::items::{punct_at, word_at, FnBody, FnSummary, ParsedFile, Tok};
use crate::lexer::ScannedFile;
use crate::rules::{Config, Rule, Violation};
use crate::semantic::in_effect_scope;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// One lock acquisition with its held region.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The lock identity: the last receiver/argument-chain component.
    pub name: String,
    /// Acquisition line.
    pub line: usize,
    /// Last line of the held region (enclosing-block close, same-depth
    /// `drop`, or end of statement for unbound temporaries).
    pub end_line: usize,
    /// Whether the guard was bound by a `let`.
    pub bound: bool,
}

/// One non-lock effect site.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Line of the call.
    pub line: usize,
    /// The call name (`save_record`, `fill_buf`, `writeln!` …).
    pub what: String,
}

/// Per-crate effect coverage, floored by `tests/lint_gate.rs` so a
/// path-scope typo cannot silently empty R14–R16.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrateEffects {
    /// Lock acquisition sites.
    pub lock_sites: usize,
    /// Durability sites.
    pub durability_sites: usize,
    /// Blocking-I/O sites (excluding the durability ones).
    pub blocking_sites: usize,
    /// Timeout-guard sites.
    pub guard_sites: usize,
    /// Ack-line construction sites.
    pub ack_sites: usize,
    /// Requeue sites.
    pub requeue_sites: usize,
}

impl CrateEffects {
    /// Adds one function's sites to the tally.
    pub(crate) fn add(&mut self, f: &FnSummary) {
        self.lock_sites += f.locks.len();
        self.durability_sites += f.durable.len();
        self.blocking_sites += f.blocking.len();
        self.guard_sites += f.guards.len();
        self.ack_sites += f.acks.len();
        self.requeue_sites += f.requeues.len();
    }
}

/// One lock-order edge: `to` acquired while `from` was held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderEdge {
    /// The already-held lock.
    pub from: String,
    /// The lock acquired inside `from`'s held region.
    pub to: String,
    /// File of the inner acquisition (or the call that performs it).
    pub file: String,
    /// Line of the inner acquisition (or the call).
    pub line: usize,
}

/// Words that *parse* an `"OK "` line rather than emit one; an occurrence
/// immediately inside their call parens is not an ack site.
const ACK_PARSE_WORDS: [&str; 6] = [
    "strip_prefix",
    "starts_with",
    "trim_start_matches",
    "ends_with",
    "contains",
    "eq",
];

/// Fills the file-level effect facts: poisoned-lock recovery lines, and
/// `"OK …"` ack lines scanned on the raw `source` and attributed to the
/// innermost enclosing fn. A parse-shaped occurrence
/// (`strip_prefix("OK ")`) is a read of the protocol, not an
/// acknowledgment.
pub(crate) fn file_facts(parsed: &mut ParsedFile, scanned: &ScannedFile, source: &str) {
    for (idx, line) in scanned.lines.iter().enumerate() {
        if !line.in_test && line.code.contains("unwrap_or_else") && line.code.contains("into_inner")
        {
            parsed.recovery_lines.push(idx + 1);
        }
    }
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        if scanned
            .lines
            .get(idx)
            .is_none_or(|l| l.in_test || l.comment.contains("\"OK "))
            || !is_ack_line(raw)
        {
            continue;
        }
        if let Some(k) = parsed.innermost_fn(lineno) {
            parsed.fns[k].acks.push(lineno);
        }
    }
}

/// Whether a raw source line constructs an `"OK …"` protocol line.
fn is_ack_line(raw: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = raw[search..].find("\"OK ") {
        let abs = search + pos;
        let before = raw[..abs].trim_end();
        let before = before.strip_suffix('(').unwrap_or(before).trim_end();
        let word_start = before
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(0, |p| p + 1);
        if !ACK_PARSE_WORDS.contains(&&before[word_start..]) {
            return true;
        }
        search = abs + 4;
    }
    false
}

/// The `{` of the innermost block around token `i` in the body of `b`
/// (the body's own `{` when `i` sits at the top level).
fn enclosing_open(b: &FnBody, i: usize) -> usize {
    let mut depth = 0usize;
    for k in (b.open + 1..i).rev() {
        match punct_at(b.toks, k) {
            Some('}') => depth += 1,
            Some('{') if depth == 0 => return k,
            Some('{') => depth -= 1,
            _ => {}
        }
    }
    b.open
}

/// The last identifier inside the call parens starting at token `paren`
/// (depth-1 words only): `lock_recover(&self.state)` → `state`.
fn last_arg_component(toks: &[Tok], paren: usize) -> Option<String> {
    let mut depth = 0i64;
    let mut last = None;
    for k in paren..toks.len() {
        match punct_at(toks, k) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if depth == 1 {
                    if let Some(w) = word_at(toks, k) {
                        last = Some(w.to_string());
                    }
                }
            }
        }
    }
    last
}

/// Walks back from own-position `p` to the start of the statement; returns
/// whether the statement is a `let` binding and the bound name (first
/// non-`mut` word after `let`).
fn binding_before(b: &FnBody, p: usize) -> (bool, Option<String>) {
    let (toks, own) = (b.toks, b.own);
    let mut q = p;
    while q > 0 {
        q -= 1;
        match punct_at(toks, own[q]) {
            Some(';') | Some('{') | Some('}') => break,
            _ => {}
        }
        if word_at(toks, own[q]) == Some("let") {
            let mut r = q + 1;
            while word_at(toks, own.get(r).copied().unwrap_or(usize::MAX)) == Some("mut") {
                r += 1;
            }
            let name = own
                .get(r)
                .and_then(|&i| word_at(toks, i))
                .map(str::to_string);
            return (true, name);
        }
    }
    (false, None)
}

/// Computes the held-region end line for an acquisition at own-position
/// `p`, given whether its guard is `bound` and the guard's name.
fn held_end_line(b: &FnBody, p: usize, bound: bool, guard: Option<&str>) -> usize {
    let (toks, i) = (b.toks, b.own[p]);
    if !bound {
        // A temporary guard dies at the end of its statement (or, for an
        // `if`/`while` condition, before the branch block opens).
        let mut depth = 0i64;
        for k in i + 1..toks.len() {
            match punct_at(toks, k) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some(';') | Some('{') | Some('}') if depth <= 0 => return toks[k].line,
                _ => {}
            }
        }
        return toks[i].line;
    }
    let block = enclosing_open(b, i);
    let block_close = b.close.get(block).copied().unwrap_or(usize::MAX);
    let end_line = toks.get(block_close).map_or(toks[i].line, |t| t.line);
    // A same-depth `drop(guard)` ends the region early; a drop in a nested
    // arm does not (conservative: the guard may be live on other paths).
    if let Some(g) = guard {
        for &k in b.own.iter().skip(p + 1) {
            if k >= block_close {
                break;
            }
            if word_at(toks, k) == Some("drop")
                && punct_at(toks, k + 1) == Some('(')
                && word_at(toks, k + 2) == Some(g)
                && punct_at(toks, k + 3) == Some(')')
                && enclosing_open(b, k) == block
            {
                return toks[k].line;
            }
        }
    }
    end_line
}

fn name_in(list: &[String], w: &str) -> bool {
    list.iter().any(|m| m == w)
}

/// Records the effect fact at own-position `p` of `f`'s body, if any: a
/// blocking macro, or a lock, durability, blocking, timeout-guard, or
/// requeue call.
pub(crate) fn scan_token(f: &mut FnSummary, b: &FnBody, p: usize, config: &Config) {
    let (toks, own) = (b.toks, b.own);
    let i = own[p];
    let Some(w) = word_at(toks, i) else { return };
    let line = toks[i].line;
    let site = |what: String| EffectSite { line, what };
    if punct_at(toks, i + 1) == Some('!')
        && punct_at(toks, i + 2) == Some('(')
        && name_in(&config.blocking_macros, w)
    {
        f.blocking.push(site(format!("{w}!")));
        return;
    }
    if punct_at(toks, i + 1) != Some('(') {
        return;
    }
    let after_dot = p > 0 && punct_at(toks, own[p - 1]) == Some('.');
    let lock_name = if !after_dot && name_in(&config.lock_acquire_fns, w) {
        last_arg_component(toks, i + 1)
    } else if after_dot && name_in(&config.lock_acquire_methods, w) {
        receiver_chain(b, p - 1).0.last().cloned()
    } else {
        None
    };
    if let Some(name) = lock_name {
        let (bound, guard) = binding_before(b, p);
        f.locks.push(LockSite {
            name,
            line,
            end_line: held_end_line(b, p, bound, guard.as_deref()),
            bound,
        });
    } else if name_in(&config.durability_methods, w) {
        f.durable.push(site(w.to_string()));
    } else if name_in(&config.blocking_methods, w) {
        f.blocking.push(site(w.to_string()));
    } else if name_in(&config.timeout_guard_methods, w) {
        f.guards.push(site(w.to_string()));
    } else if !after_dot && name_in(&config.requeue_fns, w) {
        f.requeues.push(site(w.to_string()));
    }
}

// ---------------------------------------------------------------------------
// Interprocedural checking (R14–R16).
// ---------------------------------------------------------------------------

/// Runs R14–R16 over the whole workspace. Only summaries in the effect
/// scope are consulted; functions elsewhere count as effect-free. Returns
/// the violations and the global lock-order edges (for the deterministic
/// dump).
pub(crate) fn check<FA, FS>(
    graph: &CallGraph,
    config: &Config,
    allowed: &FA,
    snippet: &FS,
) -> (Vec<Violation>, Vec<OrderEdge>)
where
    FA: Fn(&str, usize, Rule) -> bool,
    FS: Fn(&str, usize) -> String,
{
    let mut out = Vec::new();
    let fx = |id: usize| {
        let (file, f) = graph.node(id);
        in_effect_scope(file, config).then_some((file, f))
    };

    // Reverse edges: callee → (caller, call line).
    let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.nodes.len()];
    for (u, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            callers[e.to].push((u, e.line));
        }
    }

    // Fixpoint closure of per-fn effect sets over callees: calling `f` may
    // acquire `acquired[f]`, may block if `blocks[f]`, makes job state
    // durable if `durable_t[f]`, configures a timeout if `guards_t[f]`.
    let n = graph.nodes.len();
    let mut acquired: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut blocks: Vec<bool> = vec![false; n];
    let mut durable_t: Vec<bool> = vec![false; n];
    let mut guards_t: Vec<bool> = vec![false; n];
    for id in 0..n {
        if let Some((_, f)) = fx(id) {
            acquired[id].extend(f.locks.iter().map(|l| l.name.clone()));
            blocks[id] = !f.blocking.is_empty() || !f.durable.is_empty();
            durable_t[id] = !f.durable.is_empty();
            guards_t[id] = !f.guards.is_empty();
        }
    }
    loop {
        let mut changed = false;
        for u in 0..n {
            for e in &graph.edges[u] {
                if e.to == u {
                    continue;
                }
                if !acquired[e.to].is_empty() && !acquired[e.to].is_subset(&acquired[u]) {
                    let extra: Vec<String> = acquired[e.to].iter().cloned().collect();
                    acquired[u].extend(extra);
                    changed = true;
                }
                for mine in [&mut blocks, &mut durable_t, &mut guards_t] {
                    if mine[e.to] && !mine[u] {
                        mine[u] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- R14: held-across-blocking + lock-order edges. ----
    let mut order: Vec<OrderEdge> = Vec::new();
    for id in 0..n {
        let Some((file, f)) = fx(id) else { continue };
        for lock in &f.locks {
            let in_region = |line: usize| line > lock.line && line <= lock.end_line;
            let lock_ok = allowed(file, lock.line, Rule::LockDiscipline);
            let mut flagged: HashSet<usize> = HashSet::new();
            for site in f.blocking.iter().chain(&f.durable) {
                if !in_region(site.line) || !flagged.insert(site.line) {
                    continue;
                }
                if lock_ok || allowed(file, site.line, Rule::LockDiscipline) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::LockDiscipline,
                    path: file.to_string(),
                    line: site.line,
                    message: format!(
                        "lock `{}` (acquired at line {}) is held across blocking `{}(..)` \
                         in `{}`; every other thread contending for the lock now waits on \
                         this I/O — release the guard first, or state the invariant with \
                         `// lb-lint: allow(lock-discipline) -- reason` here or on the \
                         acquisition line",
                        lock.name,
                        lock.line,
                        site.what,
                        f.display_name()
                    ),
                    snippet: snippet(file, site.line),
                });
            }
            for e in &graph.edges[id] {
                if !in_region(e.line) || e.to == id || !blocks[e.to] {
                    continue;
                }
                if !flagged.insert(e.line) {
                    continue;
                }
                if lock_ok || allowed(file, e.line, Rule::LockDiscipline) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::LockDiscipline,
                    path: file.to_string(),
                    line: e.line,
                    message: format!(
                        "lock `{}` (acquired at line {}) is held across the call to \
                         `{}`, which blocks (directly or transitively); release the \
                         guard first, or state the invariant with \
                         `// lb-lint: allow(lock-discipline) -- reason` here or on the \
                         acquisition line",
                        lock.name,
                        lock.line,
                        graph.node(e.to).1.display_name()
                    ),
                    snippet: snippet(file, e.line),
                });
            }
            // Order edges: other acquisitions inside the held region.
            for l2 in &f.locks {
                if in_region(l2.line) {
                    order.push(OrderEdge {
                        from: lock.name.clone(),
                        to: l2.name.clone(),
                        file: file.to_string(),
                        line: l2.line,
                    });
                }
            }
            for e in &graph.edges[id] {
                if !in_region(e.line) || e.to == id {
                    continue;
                }
                for nm in &acquired[e.to] {
                    order.push(OrderEdge {
                        from: lock.name.clone(),
                        to: nm.clone(),
                        file: file.to_string(),
                        line: e.line,
                    });
                }
            }
        }
    }
    order.sort();
    order.dedup();

    // Cycle check: an edge u→v where v already reaches u closes a cycle.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &order {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for e in &order {
        if !reaches(e.to.as_str(), e.from.as_str()) {
            continue;
        }
        if allowed(&e.file, e.line, Rule::LockDiscipline) {
            continue;
        }
        out.push(Violation {
            rule: Rule::LockDiscipline,
            path: e.file.clone(),
            line: e.line,
            message: format!(
                "acquiring lock `{}` while `{}` is held closes a lock-order cycle \
                 (`{}` is also acquired, transitively, while `{}` is held): two \
                 threads taking the locks in opposite orders deadlock — pick one \
                 global order, or state the invariant with \
                 `// lb-lint: allow(lock-discipline) -- reason`",
                e.to, e.from, e.from, e.to
            ),
            snippet: snippet(&e.file, e.line),
        });
    }

    // Poisoned-lock recovery outside the blessed helper.
    for (file, parsed) in &graph.files {
        if !in_effect_scope(file, config) {
            continue;
        }
        for &line in &parsed.recovery_lines {
            if allowed(file, line, Rule::LockDiscipline) {
                continue;
            }
            out.push(Violation {
                rule: Rule::LockDiscipline,
                path: file.to_string(),
                line,
                message: "poisoned-lock recovery (`unwrap_or_else(|e| e.into_inner())`) \
                          outside the blessed `sync` helper; the consistency argument for \
                          recovering a poisoned guard lives in one audited place — route \
                          this acquisition through `lb_serve::sync`, or justify with \
                          `// lb-lint: allow(lock-discipline) -- reason`"
                    .to_string(),
                snippet: snippet(file, line),
            });
        }
    }

    // ---- R15: acks/requeues dominated by durability. ----
    let prefix_durable = |id: usize, line: usize| -> bool {
        let Some((_, f)) = fx(id) else { return false };
        f.durable.iter().any(|d| d.line <= line)
            || graph.edges[id]
                .iter()
                .any(|e| e.line <= line && e.to != id && durable_t[e.to])
    };
    for id in 0..n {
        let Some((file, f)) = fx(id) else { continue };
        let demands: Vec<(usize, String)> = f
            .acks
            .iter()
            .map(|&l| (l, "`\"OK …\"` ack construction".to_string()))
            .chain(
                f.requeues
                    .iter()
                    .map(|r| (r.line, format!("requeue `{}(..)`", r.what))),
            )
            .collect();
        for (line, what) in demands {
            if prefix_durable(id, line) || allowed(file, line, Rule::DurabilityOrdering) {
                continue;
            }
            let Some(chain) =
                undischarged_chain(graph, &callers, id, &|c, lc| prefix_durable(c, lc), &|c| {
                    callers[c].is_empty()
                })
            else {
                continue;
            };
            out.push(Violation {
                rule: Rule::DurabilityOrdering,
                path: file.to_string(),
                line,
                message: format!(
                    "{what} in `{}` is not dominated by a durability effect (chain: \
                     {chain}): a `kill -9` here acknowledges work the spool never saw — \
                     persist the record/checkpoint first, or state the invariant with \
                     `// lb-lint: allow(durability-ordering) -- reason`",
                    f.display_name()
                ),
                snippet: snippet(file, line),
            });
        }
    }

    // ---- R16: socket blocking reachable from the accept loop is timed. ----
    let is_root: Vec<bool> = (0..n)
        .map(|id| {
            let (file, f) = graph.node(id);
            config
                .accept_roots
                .iter()
                .any(|(p, name)| file.contains(p.as_str()) && f.name == *name)
        })
        .collect();
    let prefix_guard = |id: usize, line: usize| -> bool {
        let Some((_, f)) = fx(id) else { return false };
        f.guards.iter().any(|g| g.line <= line)
            || graph.edges[id]
                .iter()
                .any(|e| e.line <= line && e.to != id && guards_t[e.to])
    };
    for id in 0..n {
        let Some((file, f)) = fx(id) else { continue };
        if !config
            .socket_paths
            .iter()
            .any(|p| file.contains(p.as_str()))
        {
            continue;
        }
        for site in &f.blocking {
            if prefix_guard(id, site.line) || allowed(file, site.line, Rule::UnboundedBlocking) {
                continue;
            }
            let chain = if is_root[id] {
                Some(format!("`{}`", graph.node(id).1.display_name()))
            } else {
                undischarged_chain(graph, &callers, id, &|c, lc| prefix_guard(c, lc), &|c| {
                    is_root[c]
                })
            };
            let Some(chain) = chain else { continue };
            out.push(Violation {
                rule: Rule::UnboundedBlocking,
                path: file.to_string(),
                line: site.line,
                message: format!(
                    "blocking `{}(..)` in `{}` is reachable from the accept loop \
                     (chain: {chain}) with no dominating `set_read_timeout`/\
                     `set_write_timeout`/`set_nonblocking`: a silent or trickling peer \
                     holds this handler thread forever — configure a deadline first, or \
                     state the invariant with \
                     `// lb-lint: allow(unbounded-blocking) -- reason`",
                    site.what,
                    f.display_name()
                ),
                snippet: snippet(file, site.line),
            });
        }
    }

    (out, order)
}

/// Depth-first walk up the reverse call graph from `start`, looking for a
/// chain of calls on which the demand is never discharged and whose top
/// satisfies `is_top`. Returns the rendered chain (top-down) if found.
fn undischarged_chain(
    graph: &CallGraph,
    callers: &[Vec<(usize, usize)>],
    start: usize,
    discharged: &dyn Fn(usize, usize) -> bool,
    is_top: &dyn Fn(usize) -> bool,
) -> Option<String> {
    fn walk(
        callers: &[Vec<(usize, usize)>],
        u: usize,
        discharged: &dyn Fn(usize, usize) -> bool,
        is_top: &dyn Fn(usize) -> bool,
        visited: &mut HashSet<usize>,
        path: &mut Vec<(usize, usize)>,
    ) -> bool {
        if is_top(u) {
            return true;
        }
        for &(c, lc) in &callers[u] {
            if discharged(c, lc) || !visited.insert(c) {
                continue;
            }
            path.push((c, lc));
            if walk(callers, c, discharged, is_top, visited, path) {
                return true;
            }
            path.pop();
        }
        false
    }
    let mut visited = HashSet::from([start]);
    let mut path = Vec::new();
    if !walk(callers, start, discharged, is_top, &mut visited, &mut path) {
        return None;
    }
    // `path` runs from the demand's fn upward; render top-down.
    let mut parts: Vec<String> = Vec::new();
    for &(c, lc) in path.iter().rev() {
        let (file, f) = graph.node(c);
        parts.push(format!("`{}` ({file}:{lc})", f.display_name()));
    }
    parts.push(format!("`{}`", graph.node(start).1.display_name()));
    Some(parts.join(" -> "))
}
