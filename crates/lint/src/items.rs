//! Item-level parsing on top of the lexer: `fn` items (with their enclosing
//! `impl`/`trait` qualifier), loop statements, and call expressions.
//!
//! This is deliberately **not** a Rust grammar. It consumes the masked token
//! stream from [`crate::lexer::scan`] (strings and comments already blanked,
//! `#[cfg(test)]` regions dropped) and recovers just enough structure for a
//! call graph: where each function's body starts and ends (by brace
//! matching), which loops it contains, and which names it calls. The
//! approximations are documented in `DESIGN.md` §6; they are all chosen so
//! that resolution *over*-approximates edges (extra edges make the
//! reachability rules stricter, never silently lenient) except for
//! function-pointer values passed as bare identifiers, which are not
//! resolvable by name alone.
//!
//! The same walk is the only pass over a file's tokens: while it parses a
//! `fn` body it records the tokens the function owns, and [`summarize`]
//! extracts the per-function facts the semantic rules R8–R16 query (see
//! [`FnSummary`]) from that list, so no rule re-tokenizes or re-locates a
//! function.

use crate::dataflow::{self, Binding, GrowthSite, HostileField, UnusedResultCandidate};
use crate::effects::{self, EffectSite, LockSite};
use crate::lexer::ScannedFile;
use crate::rules::Config;

/// One token of masked code: a word (identifier, keyword, or number) or a
/// single punctuation character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// A maximal run of alphanumeric/underscore characters.
    Word(String),
    /// Any other non-whitespace character.
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// 1-based line number.
    pub line: usize,
    /// The token itself.
    pub kind: TokKind,
}

/// An inclusive 1-based line span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First line.
    pub start: usize,
    /// Last line.
    pub end: usize,
}

impl Span {
    /// Whether `line` falls inside the span.
    pub fn contains(&self, line: usize) -> bool {
        self.start <= line && line <= self.end
    }

    /// Number of lines covered (for innermost-span attribution).
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// True when the span covers no lines (never produced by the parser;
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }
}

/// A `loop`/`while`/`for` statement inside a function body.
#[derive(Debug, Clone)]
pub struct LoopItem {
    /// `"loop"`, `"while"`, or `"for"`.
    pub kind: &'static str,
    /// Line of the loop keyword.
    pub line: usize,
    /// Line span of the loop body (from its `{` to the matching `}`).
    pub body: Span,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `name(...)` — a free-function call (or tuple-struct constructor).
    Free(String),
    /// `.name(...)` — a method call on some receiver.
    Method(String),
    /// `Seg::name(...)` or a bare `Seg::name` path value — the last path
    /// segment before the called name (a type, `Self`, or a module).
    Qualified(String, String),
}

/// One call site (or path-value reference) inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Line of the called name.
    pub line: usize,
    /// The callee as written.
    pub callee: Callee,
}

/// One named field of a struct: its name and the raw token text of its
/// type (words and punctuation joined with single spaces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// The field's type as a space-joined token string (e.g. `Vec < usize >`).
    pub ty: String,
    /// 1-based line of the field name.
    pub line: usize,
}

/// A parsed `struct` item with named fields (tuple structs and unit structs
/// are recorded with an empty field list).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// Line of the `struct` keyword.
    pub line: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldItem>,
}

/// One `fn` item and the per-function facts the semantic rules R8–R16 read
/// about it, extracted from the tokens the item owns (its body, nested `fn`
/// items carved out, closures kept) in the same pass that found the item.
///
/// [`parse`] fills only the structural fields (name through
/// `returns_result`); [`summarize`] also fills the dataflow and effect facts.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// The function name.
    pub name: String,
    /// The surrounding `impl`/`trait` target type, if any.
    pub qualifier: Option<String>,
    /// True for plain `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Body line span; `None` for bodyless trait-method declarations.
    pub body: Option<Span>,
    /// Loops in the body (nested loops listed separately).
    pub loops: Vec<LoopItem>,
    /// Call sites in the body (nested `fn` items excluded).
    pub calls: Vec<Call>,
    /// Whether the signature of a bodied fn returns a `Result`.
    pub returns_result: bool,
    /// Lines with a direct `max_intermediate` charge call.
    pub charge_lines: Vec<usize>,
    /// Collection mutation sites.
    pub grows: Vec<GrowthSite>,
    /// Lines with a `let _ = ...;` wildcard discard.
    pub wildcard_lets: Vec<usize>,
    /// Lines with a statement-final `.ok();` discard.
    pub ok_discards: Vec<usize>,
    /// Candidate unused-`Result` bindings (filtered against the workspace
    /// `returns_result` summaries by the semantic pass).
    pub unused_candidates: Vec<UnusedResultCandidate>,
    /// All `let` bindings seen, in order.
    pub bindings: Vec<Binding>,
    /// Lock acquisitions, in order.
    pub locks: Vec<LockSite>,
    /// Blocking-I/O sites (socket/file reads, writes, flush, accept…).
    pub blocking: Vec<EffectSite>,
    /// Durability sites (spool saves, checkpoints, quarantine, fsync).
    pub durable: Vec<EffectSite>,
    /// Timeout-guard sites (`set_read_timeout` & friends).
    pub guards: Vec<EffectSite>,
    /// `"OK …"` ack-line construction sites (raw-source lines).
    pub acks: Vec<usize>,
    /// Requeue sites (`enqueue(..)`).
    pub requeues: Vec<EffectSite>,
}

impl FnSummary {
    /// `Qualifier::name` or plain `name` for display.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether the function has any effect worth printing.
    pub fn has_effects(&self) -> bool {
        !(self.locks.is_empty()
            && self.blocking.is_empty()
            && self.durable.is_empty()
            && self.guards.is_empty()
            && self.acks.is_empty()
            && self.requeues.is_empty())
    }
}

/// All items parsed from one file, in source order, with the file's token
/// stream and its file-level facts.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// The file's masked token stream (test regions excluded).
    pub toks: Vec<Tok>,
    /// The functions, in order of their `fn` keyword.
    pub fns: Vec<FnSummary>,
    /// Top-level (and inline-module) structs with their named fields.
    pub structs: Vec<StructItem>,
    /// `Send`-hostile struct fields (filled by [`summarize`]).
    pub hostile_fields: Vec<HostileField>,
    /// Lines with a `thread_local!` declaration (filled by [`summarize`]).
    pub thread_local_lines: Vec<usize>,
    /// Lines carrying the poisoned-lock recovery idiom (`unwrap_or_else` +
    /// `into_inner` on one masked line; filled by [`summarize`]).
    pub recovery_lines: Vec<usize>,
}

impl ParsedFile {
    /// The innermost bodied fn whose body span contains `line` (the first
    /// of equally short spans), as an index into `fns`.
    pub(crate) fn innermost_fn(&self, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter_map(|(k, f)| f.body.filter(|b| b.contains(line)).map(|b| (k, b.len())))
            .min_by_key(|&(_, len)| len)
            .map(|(k, _)| k)
    }
}

/// Words that can precede `(` without being a call.
const NON_CALL_WORDS: [&str; 26] = [
    "if", "while", "for", "match", "return", "loop", "in", "let", "move", "mut", "ref", "else",
    "as", "fn", "where", "unsafe", "break", "continue", "dyn", "box", "yield", "await", "pub",
    "use", "mod", "impl",
];

/// Tokenizes the masked, non-test lines of a scanned file.
fn tokenize(file: &ScannedFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    line: lineno,
                    kind: TokKind::Word(chars[start..i].iter().collect()),
                });
            } else {
                toks.push(Tok {
                    line: lineno,
                    kind: TokKind::Punct(c),
                });
                i += 1;
            }
        }
    }
    toks
}

pub(crate) fn word_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Word(w)) => Some(w.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(toks: &[Tok], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// For each token index, the index of the matching `}` for a `{` (and the
/// token count for unbalanced braces, which only happen on files the Rust
/// compiler would reject anyway).
fn match_braces(toks: &[Tok]) -> Vec<usize> {
    let mut close = vec![toks.len(); toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => stack.push(i),
            TokKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    close[open] = i;
                }
            }
            _ => {}
        }
    }
    close
}

/// Parses a scanned file into its items: the structural fields of each
/// [`FnSummary`] (no rule facts), its structs, and its token stream.
pub fn parse(file: &ScannedFile) -> ParsedFile {
    parse_with(file, None)
}

/// Parses a scanned file and extracts the facts the semantic rules query:
/// per-fn dataflow and effect facts from each item's own tokens, plus the
/// file-level facts. `source` is the raw (unmasked) text — ack lines live
/// inside string literals, which the lexer masks to spaces.
pub fn summarize(file: &ScannedFile, source: &str, config: &Config) -> ParsedFile {
    let mut parsed = parse_with(file, Some(config));
    dataflow::file_facts(&mut parsed);
    effects::file_facts(&mut parsed, file, source);
    parsed
}

/// The one walk over a file's tokens: tokenize and brace-match once, then
/// parse the items, extracting each fn's facts when a `config` is given.
fn parse_with(file: &ScannedFile, config: Option<&Config>) -> ParsedFile {
    let toks = tokenize(file);
    let close = match_braces(&toks);
    let walk = Walk {
        toks: &toks,
        close: &close,
        config,
    };
    let mut fns = Vec::new();
    let mut structs = Vec::new();
    parse_items(&walk, 0, toks.len(), None, &mut fns, &mut structs);
    fns.sort_by_key(|f| f.line);
    structs.sort_by_key(|s| s.line);
    ParsedFile {
        toks,
        fns,
        structs,
        ..ParsedFile::default()
    }
}

/// What the item walk reads: one file's tokens, their brace matching, and
/// the config when fn facts are extracted alongside the structure.
struct Walk<'a> {
    toks: &'a [Tok],
    close: &'a [usize],
    config: Option<&'a Config>,
}

/// The tokens one `fn` owns: its body with nested `fn` items carved out.
pub(crate) struct FnBody<'a> {
    /// The file's token stream.
    pub toks: &'a [Tok],
    /// Matching-`}` index per token (see `match_braces`).
    pub close: &'a [usize],
    /// The owned token indices, in order.
    pub own: &'a [usize],
    /// Index of the body's opening `{`.
    pub open: usize,
}

/// Fills `f`'s dataflow and effect facts in one walk over its own tokens.
fn extract(f: &mut FnSummary, body: &FnBody, config: &Config) {
    let mut lets = Vec::new();
    for pos in 0..body.own.len() {
        dataflow::scan_token(f, body, pos, config, &mut lets);
        effects::scan_token(f, body, pos, config);
    }
    dataflow::resolve_unused(f, body, lets);
}

/// Parses item-level constructs in `toks[i..end]` under `qualifier`.
fn parse_items(
    walk: &Walk,
    mut i: usize,
    end: usize,
    qualifier: Option<&str>,
    fns: &mut Vec<FnSummary>,
    structs: &mut Vec<StructItem>,
) {
    let (toks, close) = (walk.toks, walk.close);
    while i < end {
        match word_at(toks, i) {
            Some("impl") | Some("trait") => {
                let is_trait = word_at(toks, i) == Some("trait");
                let Some(open) = find_block_open(toks, i + 1, end) else {
                    i = end;
                    continue;
                };
                if punct_at(toks, open) == Some(';') {
                    i = open + 1;
                    continue;
                }
                let q = if is_trait {
                    (i + 1..open).find_map(|k| word_at(toks, k).map(str::to_string))
                } else {
                    impl_target(&toks[i + 1..open])
                };
                let body_end = close[open].min(end);
                parse_items(walk, open + 1, body_end, q.as_deref(), fns, structs);
                i = body_end + 1;
            }
            Some("mod") => {
                // `mod name;` — skip; `mod name { ... }` — items in an
                // inline module are parsed in place (modules cannot appear
                // inside impl blocks, so no qualifier).
                let Some(open) = find_block_open(toks, i + 1, end) else {
                    i = end;
                    continue;
                };
                i = open + 1;
            }
            Some("fn") => {
                i = parse_fn(walk, i, end, qualifier, fns);
            }
            Some("struct") | Some("enum") | Some("union") => {
                let is_struct = word_at(toks, i) == Some("struct");
                let Some(open) = find_block_open(toks, i + 1, end) else {
                    i = end;
                    continue;
                };
                i = if punct_at(toks, open) == Some('{') {
                    let body_end = close[open].min(end);
                    if is_struct {
                        if let Some(name) = word_at(toks, i + 1) {
                            structs.push(StructItem {
                                name: name.to_string(),
                                line: toks[i].line,
                                fields: parse_struct_fields(toks, open + 1, body_end),
                            });
                        }
                    }
                    body_end + 1
                } else {
                    // Unit and tuple structs carry no named fields; record
                    // the item so dataflow sees the declaration exists.
                    if is_struct {
                        if let Some(name) = word_at(toks, i + 1) {
                            structs.push(StructItem {
                                name: name.to_string(),
                                line: toks[i].line,
                                fields: Vec::new(),
                            });
                        }
                    }
                    open + 1
                };
            }
            _ => {
                if punct_at(toks, i) == Some('{') {
                    // A stray block at item level (e.g. a const initializer):
                    // nothing we model lives inside, skip it wholesale.
                    i = close[i].min(end) + 1;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Finds the first `{` or `;` at paren/bracket depth 0 in `toks[from..end]`.
fn find_block_open(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    for k in from..end {
        match punct_at(toks, k) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') | Some(';') if depth <= 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Extracts the target type of an `impl` header: the last angle-depth-0
/// word that is not a keyword, truncated at `where`. Handles `impl Foo`,
/// `impl<T> Foo<T>`, `impl Trait for Foo`, and `impl fmt::Display for Foo`.
fn impl_target(header: &[Tok]) -> Option<String> {
    let mut angle = 0i64;
    let mut last = None;
    for t in header {
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = (angle - 1).max(0),
            TokKind::Word(w) => {
                if w == "where" {
                    break;
                }
                if angle == 0 && w != "for" && w != "dyn" && w != "unsafe" && w != "const" {
                    last = Some(w.clone());
                }
            }
            _ => {}
        }
    }
    last
}

/// Parses the named fields of a struct body in `toks[from..end]`: runs of
/// `[pub[(..)]] name : type-tokens` separated by depth-0 commas. Attribute
/// lines (`#[...]`) are skipped; generic commas are shielded by tracking
/// paren/bracket and angle depth.
fn parse_struct_fields(toks: &[Tok], from: usize, end: usize) -> Vec<FieldItem> {
    let mut fields = Vec::new();
    let mut k = from;
    while k < end {
        // Skip attributes on the field.
        while punct_at(toks, k) == Some('#') && punct_at(toks, k + 1) == Some('[') {
            let mut depth = 0i64;
            k += 1;
            while k < end {
                match punct_at(toks, k) {
                    Some('[') => depth += 1,
                    Some(']') => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        // Skip visibility.
        if word_at(toks, k) == Some("pub") {
            k += 1;
            if punct_at(toks, k) == Some('(') {
                let mut depth = 0i64;
                while k < end {
                    match punct_at(toks, k) {
                        Some('(') => depth += 1,
                        Some(')') => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        let Some(name) = word_at(toks, k) else {
            k += 1;
            continue;
        };
        if punct_at(toks, k + 1) != Some(':') {
            k += 1;
            continue;
        }
        let name = name.to_string();
        let line = toks[k].line;
        // Collect type tokens up to the next depth-0 comma (or body end).
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut ty = Vec::new();
        let mut j = k + 2;
        while j < end {
            match &toks[j].kind {
                TokKind::Punct(',') if depth == 0 && angle == 0 => break,
                TokKind::Punct(c @ ('(' | '[' | '{')) => {
                    depth += 1;
                    ty.push(c.to_string());
                }
                TokKind::Punct(c @ (')' | ']' | '}')) => {
                    depth -= 1;
                    ty.push(c.to_string());
                }
                TokKind::Punct('<') => {
                    angle += 1;
                    ty.push("<".to_string());
                }
                TokKind::Punct('>') => {
                    angle = (angle - 1).max(0);
                    ty.push(">".to_string());
                }
                TokKind::Punct(c) => ty.push(c.to_string()),
                TokKind::Word(w) => ty.push(w.clone()),
            }
            j += 1;
        }
        fields.push(FieldItem {
            name,
            ty: ty.join(" "),
            line,
        });
        k = j + 1;
    }
    fields
}

/// Parses one `fn` item starting at the `fn` keyword (`toks[i]`),
/// extracting its facts when the walk carries a config. Returns the index
/// just past the item.
fn parse_fn(
    walk: &Walk,
    i: usize,
    end: usize,
    qualifier: Option<&str>,
    fns: &mut Vec<FnSummary>,
) -> usize {
    let (toks, close) = (walk.toks, walk.close);
    let Some(name) = word_at(toks, i + 1) else {
        return i + 1;
    };
    let mut item = FnSummary {
        name: name.to_string(),
        qualifier: qualifier.map(str::to_string),
        is_pub: fn_is_pub(toks, i),
        line: toks[i].line,
        ..FnSummary::default()
    };

    // The body `{` (or `;` for bodyless trait methods) sits at paren depth 0
    // after the signature; generics and where-clauses carry no braces.
    let mut depth = 0i64;
    let mut open = None;
    for k in i + 2..end {
        match punct_at(toks, k) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth <= 0 => {
                open = Some(k);
                break;
            }
            Some(';') if depth <= 0 => {
                fns.push(item);
                return k + 1;
            }
            _ => {}
        }
    }
    let Some(open) = open else {
        return end;
    };
    let body_close = close[open].min(end);
    item.body = Some(Span {
        start: toks[open].line,
        end: toks
            .get(body_close)
            .or_else(|| toks.last())
            .map_or(toks[open].line, |t| t.line),
    });
    item.returns_result = returns_result(toks, i, open);
    let mut own = Vec::new();
    parse_body(
        walk,
        open + 1,
        body_close,
        qualifier,
        &mut item,
        &mut own,
        fns,
    );
    if let Some(config) = walk.config {
        let body = FnBody {
            toks,
            close,
            own: &own,
            open,
        };
        extract(&mut item, &body, config);
    }
    fns.push(item);
    body_close + 1
}

/// Whether the tokens preceding a `fn` keyword contain a plain `pub`
/// (scanning back to the previous item boundary).
fn fn_is_pub(toks: &[Tok], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    while k > 0 {
        k -= 1;
        match &toks[k].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return false,
            TokKind::Word(w) if w == "pub" => {
                // `pub(crate)`/`pub(super)` are not public API.
                return punct_at(toks, k + 1) != Some('(');
            }
            _ => {}
        }
    }
    false
}

/// Scans a function body for loops, calls, and nested `fn` items, and
/// records the tokens the function owns in `own`. Nested `fn`s become
/// separate [`FnSummary`]s and their tokens are carved out of `own`;
/// closures are attributed to the enclosing `fn`.
fn parse_body(
    walk: &Walk,
    from: usize,
    end: usize,
    qualifier: Option<&str>,
    item: &mut FnSummary,
    own: &mut Vec<usize>,
    fns: &mut Vec<FnSummary>,
) {
    let (toks, close) = (walk.toks, walk.close);
    let mut k = from;
    while k < end {
        if word_at(toks, k) == Some("fn") && word_at(toks, k + 1).is_some() {
            k = parse_fn(walk, k, end, None, fns);
            continue;
        }
        own.push(k);
        match word_at(toks, k) {
            Some(kw @ "loop") | Some(kw @ "while") | Some(kw @ "for") => {
                // `for<'a>` higher-ranked bounds are not loops.
                if kw == "for" && punct_at(toks, k + 1) == Some('<') {
                    k += 1;
                    continue;
                }
                let mut depth = 0i64;
                let mut open = None;
                for j in k + 1..end {
                    match punct_at(toks, j) {
                        Some('(') | Some('[') => depth += 1,
                        Some(')') | Some(']') => depth -= 1,
                        Some('{') if depth <= 0 => {
                            open = Some(j);
                            break;
                        }
                        Some(';') if depth <= 0 => break,
                        _ => {}
                    }
                }
                if let Some(open) = open {
                    let body_close = close[open].min(end);
                    item.loops.push(LoopItem {
                        kind: match kw {
                            "loop" => "loop",
                            "while" => "while",
                            _ => "for",
                        },
                        line: toks[k].line,
                        body: Span {
                            start: toks[open].line,
                            end: toks
                                .get(body_close)
                                .or_else(|| toks.last())
                                .map_or(toks[open].line, |t| t.line),
                        },
                    });
                }
                // Keep scanning inside the loop body: nested loops and the
                // calls within all belong to this function.
                k += 1;
            }
            Some(w) => {
                if let Some(call) = classify_call(toks, k, w, qualifier) {
                    item.calls.push(call);
                }
                k += 1;
            }
            None => {
                k += 1;
            }
        }
    }
}

/// Classifies the word at `k` as a call site or path-value reference.
fn classify_call(toks: &[Tok], k: usize, w: &str, qualifier: Option<&str>) -> Option<Call> {
    if NON_CALL_WORDS.contains(&w) || w.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    let line = toks[k].line;
    let qualified = k >= 3
        && punct_at(toks, k - 1) == Some(':')
        && punct_at(toks, k - 2) == Some(':')
        && word_at(toks, k - 3).is_some();
    if punct_at(toks, k + 1) == Some('(') {
        if w == "self" || w == "Self" {
            return None;
        }
        if k >= 1 && punct_at(toks, k - 1) == Some('.') {
            return Some(Call {
                line,
                callee: Callee::Method(w.to_string()),
            });
        }
        if qualified {
            let seg = word_at(toks, k - 3).unwrap_or("");
            let seg = if seg == "Self" {
                qualifier.unwrap_or("Self")
            } else {
                seg
            };
            return Some(Call {
                line,
                callee: Callee::Qualified(seg.to_string(), w.to_string()),
            });
        }
        return Some(Call {
            line,
            callee: Callee::Free(w.to_string()),
        });
    }
    // `Seg::name` without `(`: a path value (function pointer, constructor,
    // or enum variant). Recording it as an edge keeps reachability sound for
    // `iter.map(Type::method)`-style indirect calls; variants resolve to
    // nothing and are dropped at graph-build time.
    if qualified && w != "self" && w != "Self" {
        let seg = word_at(toks, k - 3).unwrap_or("");
        let seg = if seg == "Self" {
            qualifier.unwrap_or("Self")
        } else {
            seg
        };
        return Some(Call {
            line,
            callee: Callee::Qualified(seg.to_string(), w.to_string()),
        });
    }
    None
}

/// Whether the signature tokens in `toks[kw..open]` declare a `Result`
/// return type (a `Result` word after the `->` arrow).
fn returns_result(toks: &[Tok], kw: usize, open: usize) -> bool {
    let mut depth = 0i64;
    let mut arrow = None;
    for k in kw..open {
        match punct_at(toks, k) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('-') if depth == 0 && punct_at(toks, k + 1) == Some('>') => {
                arrow = Some(k + 2);
                break;
            }
            _ => {}
        }
    }
    let Some(from) = arrow else { return false };
    (from..open).any(|k| word_at(toks, k) == Some("Result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&scan(src))
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let src = "\
pub fn solve(x: u32) -> u32 { helper(x) }
fn helper(x: u32) -> u32 { x }
struct S;
impl S {
    pub fn new() -> S { S }
    fn step(&self) { self.inner(); }
    fn inner(&self) {}
}
";
        let p = parse_src(src);
        let names: Vec<(&str, Option<&str>, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.qualifier.as_deref(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("solve", None, true),
                ("helper", None, false),
                ("new", Some("S"), true),
                ("step", Some("S"), false),
                ("inner", Some("S"), false),
            ]
        );
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].callee, Callee::Free("helper".into()));
        assert_eq!(p.fns[3].calls[0].callee, Callee::Method("inner".into()));
    }

    #[test]
    fn impl_trait_for_type_uses_type_as_qualifier() {
        let src = "\
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write(f) }
}
impl<T: Ord> Heap<T> {
    fn pop(&mut self) {}
}
";
        let p = parse_src(src);
        assert_eq!(p.fns[0].qualifier.as_deref(), Some("Verdict"));
        assert_eq!(p.fns[1].qualifier.as_deref(), Some("Heap"));
    }

    #[test]
    fn loops_with_spans() {
        let src = "\
fn run(n: u32) {
    loop {
        step();
    }
    while n > 0 {
        for i in 0..n {
            body(i);
        }
    }
}
";
        let p = parse_src(src);
        let f = &p.fns[0];
        let kinds: Vec<&str> = f.loops.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec!["loop", "while", "for"]);
        assert_eq!(f.loops[0].line, 2);
        assert_eq!(f.loops[0].body, Span { start: 2, end: 4 });
        assert!(f.loops[1].body.contains(6));
        assert_eq!(f.calls.len(), 2);
    }

    #[test]
    fn while_let_and_closure_headers() {
        let src = "\
fn drain(it: &mut I) {
    while let Some(x) = it.next() {
        use_it(x);
    }
    for y in (0..9).map(|v| v * 2) {
        use_it(y);
    }
}
";
        let p = parse_src(src);
        assert_eq!(p.fns[0].loops.len(), 2);
        assert_eq!(p.fns[0].loops[0].body, Span { start: 2, end: 4 });
        assert_eq!(p.fns[0].loops[1].body, Span { start: 5, end: 7 });
    }

    #[test]
    fn call_classification() {
        let src = "\
fn f(&self) {
    free();
    x.method();
    Type::assoc();
    module::free2();
    Self::own();
    mac!(not_a_call);
    let v = Type::Variant;
    let g = Type::step;
}
";
        let p = parse_src(&format!("impl T {{ {src} }}"));
        let f = &p.fns[0];
        let callees: Vec<&Callee> = f.calls.iter().map(|c| &c.callee).collect();
        assert!(callees.contains(&&Callee::Free("free".into())));
        assert!(callees.contains(&&Callee::Method("method".into())));
        assert!(callees.contains(&&Callee::Qualified("Type".into(), "assoc".into())));
        assert!(callees.contains(&&Callee::Qualified("module".into(), "free2".into())));
        assert!(callees.contains(&&Callee::Qualified("T".into(), "own".into())));
        // Macro invocations are not calls; path values are edges.
        assert!(!callees.contains(&&Callee::Free("mac".into())));
        assert!(callees.contains(&&Callee::Qualified("Type".into(), "Variant".into())));
        assert!(callees.contains(&&Callee::Qualified("Type".into(), "step".into())));
    }

    #[test]
    fn keywords_before_parens_are_not_calls() {
        let src = "fn f(x: u32) -> u32 { if (x > 0) { x } else { 0 } }\n";
        let p = parse_src(src);
        assert!(p.fns[0].calls.is_empty());
    }

    #[test]
    fn nested_fn_items_are_separate() {
        let src = "\
fn outer() {
    fn inner() { deep(); }
    inner();
}
";
        let p = parse_src(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, Callee::Free("inner".into()));
        assert_eq!(inner.calls[0].callee, Callee::Free("deep".into()));
    }

    #[test]
    fn test_code_is_excluded() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn t() { loop { panic_helper(); } }
}
";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn bodyless_trait_methods() {
        let src = "\
trait Solver {
    fn solve(&self) -> u32;
    fn twice(&self) -> u32 { self.solve() * 2 }
}
";
        let p = parse_src(src);
        assert_eq!(p.fns[0].name, "solve");
        assert!(p.fns[0].body.is_none());
        assert_eq!(p.fns[0].qualifier.as_deref(), Some("Solver"));
        assert_eq!(p.fns[1].calls[0].callee, Callee::Method("solve".into()));
    }

    #[test]
    fn struct_fields_with_generics_and_attrs() {
        let src = "\
pub struct Frame {
    #[allow(dead_code)]
    pub var: usize,
    trail: Vec<(usize, Value)>,
    cell: RefCell<u32>,
}
struct Unit;
struct Pair(u32, u32);
enum E { A, B }
";
        let p = parse_src(src);
        let names: Vec<&str> = p.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Frame", "Unit", "Pair"]);
        let frame = &p.structs[0];
        let fields: Vec<(&str, &str)> = frame
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(
            fields,
            vec![
                ("var", "usize"),
                ("trail", "Vec < ( usize , Value ) >"),
                ("cell", "RefCell < u32 >"),
            ]
        );
        assert_eq!(frame.fields[0].line, 3);
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "fn f<F>(g: F) where F: for<'a> Fn(&'a str) { g(\"x\") }\n";
        let p = parse_src(src);
        assert!(p.fns[0].loops.is_empty());
    }
}
