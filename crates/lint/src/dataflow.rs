//! The dataflow facts behind the summary rules R11–R13.
//!
//! Like the rest of the linter, this is **not** a type checker. The item
//! parser hands each `fn`'s own tokens (nested `fn` items excluded,
//! closures attributed to the enclosing function) to [`scan_token`], which
//! recovers just enough def-use structure — in the same walk that collects
//! the effect facts of [`crate::effects`] — for three questions:
//!
//! * which local bindings are collections, and where they were declared
//!   relative to the loops that mutate them (R11 `unbounded-growth`) —
//!   a `push`/`insert`/`extend`/`push_back` whose receiver outlives the
//!   innermost enclosing loop iteration is *loop-carried* growth and must
//!   be charged to `RunStats.max_intermediate`;
//! * which statements discard a `Result` (`let _ =`, statement-final
//!   `.ok();`, or a never-read binding of a workspace `Result`-returning
//!   call) for R12 `swallowed-result`;
//! * which struct fields hold `Send`-hostile types (`Rc`, `RefCell`,
//!   `Cell`, raw pointers) and where `thread_local!` state lives, for
//!   R13 `send-hostile-state` ([`file_facts`]).
//!
//! The approximations all lean conservative for a gate: an unresolvable
//! receiver (a parameter, a field chain, a method-chain result) is treated
//! as loop-carried, and only an explicit charge or allow discharges it.
//! The facts land on each [`FnSummary`], which [`crate::semantic`] queries
//! over the call graph: a growth site is "charged" when the enclosing
//! function charges `max_intermediate` directly or calls a function in the
//! transitively-charging set.

use crate::items::{punct_at, word_at, FnBody, FnSummary, ParsedFile, TokKind};
use crate::rules::Config;

/// Collection type names recognized by the binding classifier.
const COLLECTION_TYPES: [&str; 8] = [
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "String",
];

/// Initializer method/macro words that mark a binding as a collection even
/// without a type annotation.
const COLLECTION_INITS: [&str; 3] = ["collect", "to_vec", "with_capacity"];

/// Struct-field type words that make solver state `Send`-hostile.
const HOSTILE_TYPE_WORDS: [&str; 5] = ["Rc", "RefCell", "Cell", "UnsafeCell", "NonNull"];

/// A `let` binding seen in a function body.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound name (pattern bindings contribute one entry per name).
    pub name: String,
    /// Line of the `let`.
    pub line: usize,
    /// Whether the binding is collection-typed (by annotation or
    /// initializer shape).
    pub is_collection: bool,
}

/// One collection mutation site (`.push(` and friends).
#[derive(Debug, Clone)]
pub struct GrowthSite {
    /// Line of the mutating call.
    pub line: usize,
    /// The growth method (`push`, `insert`, `extend`, `push_back`).
    pub method: String,
    /// The receiver chain as written (e.g. `self.frames`, `out`).
    pub receiver: String,
    /// True when the receiver outlives the innermost enclosing loop
    /// iteration: a field access, a method-chain result, an unresolvable
    /// name, or a local declared outside that loop.
    pub carried: bool,
    /// Keyword line of the innermost enclosing loop, if any.
    pub loop_line: Option<usize>,
}

/// A candidate unused-`Result` binding: `let name = callee(...);` with no
/// `?` and (`used_later` false) no later read of `name` in the function.
#[derive(Debug, Clone)]
pub struct UnusedResultCandidate {
    /// The bound name.
    pub name: String,
    /// Line of the `let`.
    pub line: usize,
    /// Qualifier segment before `::`, if the call was path-qualified.
    pub callee_qualifier: Option<String>,
    /// The called name.
    pub callee: String,
    /// True when the callee was a `.method(...)` call.
    pub is_method: bool,
    /// Whether the name is read anywhere after the initializer.
    pub used_later: bool,
}

/// One `Send`-hostile struct field.
#[derive(Debug, Clone)]
pub struct HostileField {
    /// The struct's name.
    pub struct_name: String,
    /// The field's name.
    pub field: String,
    /// Line of the field.
    pub line: usize,
    /// The hostile marker found (`Rc`, `RefCell`, `*mut`, ...).
    pub marker: String,
}

/// Fills the file-level R13 facts: `thread_local!` lines and hostile
/// struct fields.
pub(crate) fn file_facts(parsed: &mut ParsedFile) {
    let toks = &parsed.toks;
    for (i, t) in toks.iter().enumerate() {
        if matches!(&t.kind, TokKind::Word(w) if w == "thread_local")
            && punct_at(toks, i + 1) == Some('!')
        {
            parsed.thread_local_lines.push(t.line);
        }
    }
    for s in &parsed.structs {
        for f in &s.fields {
            if let Some(marker) = hostile_marker(&f.ty) {
                parsed.hostile_fields.push(HostileField {
                    struct_name: s.name.clone(),
                    field: f.name.clone(),
                    line: f.line,
                    marker,
                });
            }
        }
    }
}

/// Finds the hostile type word (or raw-pointer sigil) in a space-joined
/// field type string, if any.
fn hostile_marker(ty: &str) -> Option<String> {
    let words: Vec<&str> = ty.split_whitespace().collect();
    if let Some(w) = words.iter().find(|w| HOSTILE_TYPE_WORDS.contains(w)) {
        return Some((*w).to_string());
    }
    words.windows(2).find_map(|w| {
        (w[0] == "*" && (w[1] == "const" || w[1] == "mut")).then(|| format!("*{}", w[1]))
    })
}

/// Records the dataflow facts at own-position `pos` of `f`'s body:
/// bindings and wildcard discards, charge lines, `.ok();` discards, and
/// growth sites. Candidate unused-`Result` bindings go to `lets` with the
/// own-position just past their statement, for [`resolve_unused`].
pub(crate) fn scan_token(
    f: &mut FnSummary,
    b: &FnBody,
    pos: usize,
    config: &Config,
    lets: &mut Vec<(UnusedResultCandidate, usize)>,
) {
    let (toks, own) = (b.toks, b.own);
    let i = own[pos];
    let TokKind::Word(w) = &toks[i].kind else {
        return;
    };
    let line = toks[i].line;
    let after_dot = pos > 0 && punct_at(toks, own[pos - 1]) == Some('.');
    if w == "let" {
        let in_cond = pos > 0 && matches!(word_at(toks, own[pos - 1]), Some("if" | "while"));
        let info = parse_let(b, pos, in_cond);
        if info.wildcard {
            f.wildcard_lets.push(line);
        }
        for name in &info.names {
            f.bindings.push(Binding {
                name: name.clone(),
                line,
                is_collection: info.is_collection,
            });
        }
        if let (false, [name], Some((callee_qualifier, callee, is_method))) =
            (info.has_question, info.names.as_slice(), info.simple_call)
        {
            let cand = UnusedResultCandidate {
                name: name.clone(),
                line,
                callee_qualifier,
                callee,
                is_method,
                used_later: false,
            };
            lets.push((cand, info.end_pos));
        }
    } else if config.intermediate_charge_methods.contains(w) && punct_at(toks, i + 1) == Some('(') {
        f.charge_lines.push(line);
    } else if w == "ok"
        && after_dot
        && punct_at(toks, i + 1) == Some('(')
        && punct_at(toks, i + 2) == Some(')')
        && punct_at(toks, i + 3) == Some(';')
    {
        f.ok_discards.push(line);
    } else if config.growth_methods.contains(w) && after_dot && punct_at(toks, i + 1) == Some('(') {
        let (chain, has_call) = receiver_chain(b, pos - 1);
        let innermost = f
            .loops
            .iter()
            .filter(|l| l.body.contains(line))
            .min_by_key(|l| l.body.len());
        let carried = match (&chain[..], innermost) {
            (_, None) => false,
            ([], Some(_)) => true,
            // Latest binding of this name before the site; carried when
            // declared outside the loop body (or not a local binding at
            // all — a parameter or captured state outlives every
            // iteration).
            ([single], Some(lp)) if !has_call && single != "self" => f
                .bindings
                .iter()
                .rev()
                .find(|b| b.name == *single && b.line <= line)
                .is_none_or(|b| !lp.body.contains(b.line)),
            // `self`, a field access, or a method-chain receiver aliases
            // state that outlives the iteration.
            (_, Some(_)) => true,
        };
        f.grows.push(GrowthSite {
            line,
            method: w.clone(),
            receiver: chain.join("."),
            carried,
            loop_line: innermost.map(|l| l.line),
        });
    }
}

/// Resolves `used_later` for the candidate unused-`Result` bindings: is the
/// name read anywhere after its statement?
pub(crate) fn resolve_unused(
    f: &mut FnSummary,
    b: &FnBody,
    lets: Vec<(UnusedResultCandidate, usize)>,
) {
    for (mut cand, end_pos) in lets {
        cand.used_later = b.own[end_pos.min(b.own.len().saturating_sub(1))..]
            .iter()
            .skip(1)
            .any(|&k| word_at(b.toks, k) == Some(cand.name.as_str()));
        f.unused_candidates.push(cand);
    }
}

/// What one `let` statement binds and how it is initialized.
struct LetInfo {
    /// Bound names (lowercase pattern words; constructors skipped).
    names: Vec<String>,
    /// True for a pure `let _ =` wildcard.
    wildcard: bool,
    /// Collection-typed by annotation or initializer shape.
    is_collection: bool,
    /// The initializer contains a `?` (the `Result` is handled).
    has_question: bool,
    /// `Some((qualifier, name, is_method))` when the initializer is a
    /// single call whose result is bound directly.
    simple_call: Option<(Option<String>, String, bool)>,
    /// Position (index into the `own` list) just past the statement.
    end_pos: usize,
}

/// Parses a `let` at `own[pos]` (`in_cond` for `if let`/`while let`, whose
/// initializer ends at the block `{` rather than `;`).
fn parse_let(b: &FnBody, pos: usize, in_cond: bool) -> LetInfo {
    let (toks, own) = (b.toks, b.own);
    let mut names = Vec::new();
    let mut wildcard = false;
    let mut p = pos + 1;
    let mut depth = 0i64;
    let mut pattern_toks = 0usize;

    // Pattern region: up to a depth-0 `:` (not `::`), `=`, or `;`.
    let mut terminator = ';';
    while p < own.len() {
        let i = own[p];
        match &toks[i].kind {
            TokKind::Punct('(' | '[' | '{' | '<') => depth += 1,
            TokKind::Punct(')' | ']' | '}' | '>') => depth -= 1,
            TokKind::Punct(':') if depth == 0 => {
                if punct_at(toks, i + 1) == Some(':')
                    || punct_at(toks, own[p.saturating_sub(1)]) == Some(':')
                {
                    // path segment inside the pattern
                } else {
                    terminator = ':';
                    break;
                }
            }
            TokKind::Punct('=') if depth == 0 => {
                terminator = '=';
                break;
            }
            TokKind::Punct(';') if depth == 0 => {
                terminator = ';';
                break;
            }
            TokKind::Word(w) => {
                pattern_toks += 1;
                // `x: T` at depth 0 ends the pattern (the `:` terminator
                // fires next), so only exclude `field:` labels in struct
                // patterns (depth > 0) and `path::` segments.
                let field_label = depth > 0
                    && punct_at(toks, i + 1) == Some(':')
                    && punct_at(toks, i + 2) != Some(':');
                let path_seg =
                    punct_at(toks, i + 1) == Some(':') && punct_at(toks, i + 2) == Some(':');
                if w == "_" {
                    wildcard = true;
                } else if w != "mut"
                    && w != "ref"
                    && !w.starts_with(char::is_uppercase)
                    && !w.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !field_label
                    && !path_seg
                {
                    names.push(w.clone());
                }
            }
            _ => {}
        }
        p += 1;
    }
    // Only a lone `_` is a wildcard discard; `(a, _)` destructures.
    wildcard = wildcard && pattern_toks == 1 && names.is_empty();

    let mut is_collection = false;
    if terminator == ':' {
        // Type region: up to a depth-0 `=` or `;`.
        p += 1;
        depth = 0;
        while p < own.len() {
            let i = own[p];
            match &toks[i].kind {
                TokKind::Punct('(' | '[' | '{' | '<') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct('>') => depth = (depth - 1).max(0),
                TokKind::Punct('=') if depth == 0 => {
                    terminator = '=';
                    break;
                }
                TokKind::Punct(';') if depth == 0 => {
                    terminator = ';';
                    break;
                }
                TokKind::Word(w) if COLLECTION_TYPES.contains(&w.as_str()) => {
                    is_collection = true;
                }
                _ => {}
            }
            p += 1;
        }
    }

    let mut has_question = false;
    let mut simple_call = None;
    if terminator == '=' {
        // Initializer region: to a depth-0 `;` (or the block `{` for
        // `if let`/`while let`), also stopping at a depth-0 `else`.
        let init_start = p + 1;
        p = init_start;
        depth = 0;
        let mut call: Option<(usize, Option<String>, String, bool)> = None; // (own pos of '(', ...)
        let mut call_close: Option<usize> = None;
        while p < own.len() {
            let i = own[p];
            match &toks[i].kind {
                TokKind::Punct('(' | '[' | '{') => {
                    if in_cond && depth == 0 && punct_at(toks, i) == Some('{') {
                        break;
                    }
                    depth += 1;
                }
                TokKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 {
                        if let Some((open_pos, _, _, _)) = &call {
                            if call_close.is_none() && p > *open_pos {
                                call_close = Some(p);
                            }
                        }
                    }
                }
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Punct('?') => has_question = true,
                TokKind::Word(w) if w == "else" && depth == 0 => break,
                TokKind::Word(w)
                    if depth == 0
                        && call.is_none()
                        && punct_at(toks, i + 1) == Some('(')
                        && !w.starts_with(char::is_uppercase)
                        && w != "match"
                        && w != "if" =>
                {
                    let is_method = p > init_start && punct_at(toks, own[p - 1]) == Some('.');
                    let qual = (!is_method
                        && p >= init_start + 3
                        && punct_at(toks, own[p - 1]) == Some(':')
                        && punct_at(toks, own[p - 2]) == Some(':'))
                    .then(|| word_at(toks, own[p - 3]).map(str::to_string))
                    .flatten();
                    call = Some((p + 1, qual, w.clone(), is_method));
                }
                _ => {}
            }
            p += 1;
        }
        // A "simple call" binds the call result directly: the initializer's
        // last token is the call's closing paren.
        if let (Some((_, qual, name, is_method)), Some(cl)) = (call, call_close) {
            if cl + 1 == p && !has_question {
                simple_call = Some((qual, name, is_method));
            }
        }
        // Initializer shape: `Vec::new()`, `vec![...]`, `.collect()`, ...
        for &i in &own[init_start..p] {
            if let TokKind::Word(w) = &toks[i].kind {
                if COLLECTION_TYPES.contains(&w.as_str())
                    || COLLECTION_INITS.contains(&w.as_str())
                    || (w == "vec" && punct_at(toks, i + 1) == Some('!'))
                {
                    is_collection = true;
                }
            }
        }
    }

    LetInfo {
        names,
        wildcard,
        is_collection,
        has_question,
        simple_call,
        end_pos: p,
    }
}

/// Walks the receiver chain backwards from the `.` at own-position
/// `dot_pos`.
/// Returns the chain outer-to-inner (e.g. `["self", "frames"]`) and whether
/// it crosses a call/index (method-chain receivers alias unknown state).
pub(crate) fn receiver_chain(b: &FnBody, dot_pos: usize) -> (Vec<String>, bool) {
    let (toks, own) = (b.toks, b.own);
    let mut chain = Vec::new();
    let mut has_call = false;
    let mut p = dot_pos;
    while p > 0 {
        let prev = own[p - 1];
        match &toks[prev].kind {
            TokKind::Word(w) => {
                chain.push(w.clone());
                p -= 1;
                if p > 0 && punct_at(toks, own[p - 1]) == Some('.') {
                    p -= 1;
                    continue;
                }
                break;
            }
            TokKind::Punct(')') | TokKind::Punct(']') => {
                if matches!(&toks[prev].kind, TokKind::Punct(')')) {
                    has_call = true;
                }
                // Walk back to the matching opener.
                let mut depth = 0i64;
                let mut q = p - 1;
                loop {
                    match punct_at(toks, own[q]) {
                        Some(')') | Some(']') => depth += 1,
                        Some('(') | Some('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if q == 0 {
                        break;
                    }
                    q -= 1;
                }
                if q == 0 {
                    break;
                }
                p = q;
                // The token before the opener continues the chain.
                if matches!(&toks[own[p - 1]].kind, TokKind::Word(_)) {
                    continue;
                }
                break;
            }
            TokKind::Punct('?') => {
                p -= 1;
            }
            _ => break,
        }
    }
    chain.reverse();
    (chain, has_call)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn flow_of(src: &str) -> ParsedFile {
        crate::items::summarize(&scan(src), src, &Config::default())
    }

    #[test]
    fn classifies_collection_bindings() {
        let src = "\
fn f() {
    let mut out = Vec::new();
    let xs: Vec<u32> = make();
    let n = 3;
    let s = items.iter().collect::<Vec<_>>();
}
";
        let f = &flow_of(src).fns[0];
        let cols: Vec<(&str, bool)> = f
            .bindings
            .iter()
            .map(|b| (b.name.as_str(), b.is_collection))
            .collect();
        assert_eq!(
            cols,
            vec![("out", true), ("xs", true), ("n", false), ("s", true)]
        );
    }

    #[test]
    fn loop_local_growth_is_not_carried() {
        let src = "\
fn f(items: &[u32]) {
    for x in items {
        let mut tmp = Vec::new();
        tmp.push(*x);
    }
}
";
        let f = &flow_of(src).fns[0];
        assert_eq!(f.grows.len(), 1);
        assert!(!f.grows[0].carried, "loop-local Vec must not be carried");
    }

    #[test]
    fn loop_carried_and_field_growth_are_carried() {
        let src = "\
fn f(&mut self, items: &[u32]) {
    let mut acc = Vec::new();
    for x in items {
        acc.push(*x);
        self.frames.push(*x);
        out.extend([*x]);
    }
}
";
        let f = &flow_of(src).fns[0];
        let carried: Vec<(&str, bool)> = f
            .grows
            .iter()
            .map(|g| (g.receiver.as_str(), g.carried))
            .collect();
        assert_eq!(
            carried,
            vec![("acc", true), ("self.frames", true), ("out", true)]
        );
        assert!(f.grows.iter().all(|g| g.loop_line == Some(3)));
    }

    #[test]
    fn growth_outside_loops_is_not_flagged_as_carried() {
        let src = "\
fn f() {
    let mut out = Vec::new();
    out.push(1);
}
";
        let f = &flow_of(src).fns[0];
        assert_eq!(f.grows.len(), 1);
        assert!(!f.grows[0].carried);
        assert_eq!(f.grows[0].loop_line, None);
    }

    #[test]
    fn discard_shapes() {
        let src = "\
fn f() {
    let _ = compute();
    save().ok();
    let (a, _) = pair();
}
";
        let f = &flow_of(src).fns[0];
        assert_eq!(f.wildcard_lets, vec![2]);
        assert_eq!(f.ok_discards, vec![3]);
    }

    #[test]
    fn unused_result_candidate_and_uses() {
        let src = "\
fn f() {
    let r = validate(x);
    let used = validate(x);
    used.report();
    let handled = validate(x)?;
    let chained = validate(x).is_ok();
}
";
        let f = &flow_of(src).fns[0];
        let cands: Vec<(&str, bool)> = f
            .unused_candidates
            .iter()
            .map(|c| (c.name.as_str(), c.used_later))
            .collect();
        // `handled` has `?`; `chained` is not a simple call.
        assert_eq!(cands, vec![("r", false), ("used", true)]);
    }

    #[test]
    fn returns_result_and_charges() {
        let src = "\
fn a() -> Result<u32, E> { Ok(1) }
fn b(t: &mut Ticker) {
    t.record_intermediate(n);
}
fn c() -> u32 { 0 }
";
        let flow = flow_of(src);
        assert!(flow.fns[0].returns_result);
        assert!(!flow.fns[1].returns_result);
        assert_eq!(flow.fns[1].charge_lines, vec![3]);
        assert!(!flow.fns[2].returns_result);
    }

    #[test]
    fn hostile_fields_and_thread_local() {
        let src = "\
struct Frame {
    var: usize,
    cell: RefCell<u32>,
    shared: Rc<Graph>,
    raw: *mut u8,
}
thread_local! {
    static X: u32 = 0;
}
";
        let flow = flow_of(src);
        let markers: Vec<(&str, &str)> = flow
            .hostile_fields
            .iter()
            .map(|h| (h.field.as_str(), h.marker.as_str()))
            .collect();
        assert_eq!(
            markers,
            vec![("cell", "RefCell"), ("shared", "Rc"), ("raw", "*mut")]
        );
        assert_eq!(flow.thread_local_lines, vec![7]);
    }

    #[test]
    fn shadowing_resolves_to_nearest_binding() {
        let src = "\
fn f(items: &[u32]) {
    let out = 3;
    for x in items {
        let mut out = Vec::new();
        out.push(*x);
    }
}
";
        let f = &flow_of(src).fns[0];
        assert_eq!(f.grows.len(), 1);
        assert!(
            !f.grows[0].carried,
            "the shadowing loop-local binding is the receiver"
        );
    }

    #[test]
    fn method_chain_receiver_is_carried() {
        let src = "\
fn f(&mut self, items: &[u32]) {
    for x in items {
        self.frames.last_mut().trail.push(*x);
    }
}
";
        let f = &flow_of(src).fns[0];
        assert_eq!(f.grows.len(), 1);
        assert!(f.grows[0].carried);
    }
}
