//! Integration tests pinning the dataflow layer's def-use resolution on the
//! tricky shapes real solver code contains: shadowing across loop scopes,
//! loop-carried bindings under nested loops, method-chain receivers,
//! closures, and nested `fn` items. The in-crate unit tests cover the happy
//! paths; these pin the corner cases end to end through the public API
//! (`lexer::scan` → `items::summarize`), plus the determinism of the
//! `lb-lint dataflow` dump.

use lb_lint::items::{self, ParsedFile};
use lb_lint::{lexer, semantic, Config};

fn flow_of(src: &str) -> ParsedFile {
    items::summarize(&lexer::scan(src), src, &Config::default())
}

/// A fresh collection declared *inside* the innermost loop is not carried,
/// even when it shadows a same-named collection declared outside the loop —
/// the nearest preceding binding wins.
#[test]
fn shadowing_inside_a_loop_unbinds_the_outer_collection() {
    let src = "\
fn f(items: &[u32]) {
    let mut buf = Vec::new();
    buf.push(0);
    for x in items {
        let mut buf = Vec::new();
        buf.push(*x);
    }
}
";
    let f = &flow_of(src).fns[0];
    let sites: Vec<(usize, bool)> = f.grows.iter().map(|g| (g.line, g.carried)).collect();
    // Line 3: outside any loop → not carried. Line 6: shadowed loop-local
    // binding on line 5 → not carried either.
    assert_eq!(sites, vec![(3, false), (6, false)]);
}

/// The converse: when the loop body does NOT re-declare the name, growth
/// inside the loop resolves to the outer binding and is carried.
#[test]
fn unshadowed_outer_binding_is_carried() {
    let src = "\
fn f(items: &[u32]) {
    let mut buf = Vec::new();
    for x in items {
        buf.push(*x);
    }
}
";
    let f = &flow_of(src).fns[0];
    assert_eq!(f.grows.len(), 1);
    assert!(f.grows[0].carried);
    assert_eq!(f.grows[0].loop_line, Some(3));
}

/// Nested loops: a collection declared in the outer loop body is fresh per
/// outer iteration but carried across the *inner* loop — the innermost
/// enclosing loop decides.
#[test]
fn binding_in_outer_loop_is_carried_across_the_inner_loop() {
    let src = "\
fn f(rows: &[Vec<u32>]) {
    for row in rows {
        let mut acc = Vec::new();
        for x in row {
            acc.push(*x);
        }
    }
}
";
    let f = &flow_of(src).fns[0];
    assert_eq!(f.grows.len(), 1);
    assert!(
        f.grows[0].carried,
        "acc outlives the innermost loop, so its growth is carried"
    );
    assert_eq!(f.grows[0].loop_line, Some(4), "innermost loop wins");
}

/// `while let` binds its pattern like a `let`; the popped element is a
/// binding, and pushing onto the (outer) stack stays carried.
#[test]
fn while_let_pattern_binds_and_stack_growth_is_carried() {
    let src = "\
fn f() {
    let mut stack = vec![1u32];
    while let Some(x) = stack.pop() {
        stack.push(x - 1);
    }
}
";
    let f = &flow_of(src).fns[0];
    assert!(f.bindings.iter().any(|b| b.name == "x"), "{:?}", f.bindings);
    assert_eq!(f.grows.len(), 1);
    assert_eq!(f.grows[0].receiver, "stack");
    assert!(f.grows[0].carried);
}

/// Method-chain receivers: a growth target reached through fields or calls
/// (`self.state.frontier`, `cache.entry(k).or_default()`) cannot be proven
/// loop-local, so it is always carried.
#[test]
fn chained_receivers_are_always_carried() {
    let src = "\
fn f(&mut self, items: &[u32]) {
    for x in items {
        self.state.frontier.push(*x);
        self.cache.entry(*x).or_default().push(*x);
    }
}
";
    let f = &flow_of(src).fns[0];
    let recv: Vec<(&str, bool)> = f
        .grows
        .iter()
        .map(|g| (g.receiver.as_str(), g.carried))
        .collect();
    assert_eq!(
        recv,
        vec![
            ("self.state.frontier", true),
            ("self.cache.entry.or_default", true),
        ]
    );
}

/// Closures run on the enclosing function's data: growth inside a closure
/// body inside a loop belongs to the enclosing `fn`'s flow, with normal
/// binding resolution (the captured collection is carried).
#[test]
fn closure_bodies_stay_in_the_enclosing_fns_flow() {
    let src = "\
fn f(items: &[u32]) {
    let mut hits = Vec::new();
    for x in items {
        let record = |v: u32| hits.push(v);
        record(*x);
    }
}
";
    let flow = flow_of(src);
    assert_eq!(flow.fns.len(), 1, "a closure is not a separate fn item");
    let f = &flow.fns[0];
    assert_eq!(f.grows.len(), 1);
    assert_eq!(f.grows[0].receiver, "hits");
    assert!(f.grows[0].carried, "captured outer collection is carried");
}

/// Nested `fn` items are carved out of the enclosing body: each function
/// owns exactly its own growth sites and bindings.
#[test]
fn nested_fn_items_are_analyzed_separately() {
    let src = "\
fn outer(items: &[u32]) {
    let mut a = Vec::new();
    fn inner(items: &[u32]) {
        let mut b = Vec::new();
        for x in items {
            b.push(*x);
        }
    }
    a.push(1);
}
";
    let flow = flow_of(src);
    assert_eq!(flow.fns.len(), 2);
    let outer = flow.fns.iter().find(|f| f.name == "outer").unwrap();
    let inner = flow.fns.iter().find(|f| f.name == "inner").unwrap();
    assert_eq!(
        outer
            .grows
            .iter()
            .map(|g| g.receiver.as_str())
            .collect::<Vec<_>>(),
        vec!["a"],
        "inner's growth must not leak into outer"
    );
    assert_eq!(
        inner
            .grows
            .iter()
            .map(|g| g.receiver.as_str())
            .collect::<Vec<_>>(),
        vec!["b"]
    );
    assert!(
        inner.grows[0].carried,
        "b is declared before inner's loop, so it outlives each iteration"
    );
}

/// A `?`-propagated initializer is a handled `Result`, never an
/// unused-result candidate; a bare binding of the same call is.
#[test]
fn question_mark_suppresses_the_unused_result_candidate() {
    let src = "\
fn f() -> Result<u32, ()> {
    let a = fallible()?;
    let b = fallible();
    Ok(a)
}
";
    let f = &flow_of(src).fns[0];
    let names: Vec<&str> = f
        .unused_candidates
        .iter()
        .filter(|c| !c.used_later)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, vec!["b"]);
}

/// The `lb-lint dataflow` dump is deterministic and keyed by file path:
/// permuting the input file order changes nothing.
#[test]
fn dataflow_dump_is_deterministic_under_file_reordering() {
    let a = (
        "crates/sat/src/a.rs".to_string(),
        "fn solve() { let mut v = Vec::new(); loop { v.push(1); } }\n".to_string(),
    );
    let b = (
        "crates/csp/src/b.rs".to_string(),
        "fn count() -> Result<u32, ()> { Ok(0) }\n".to_string(),
    );
    let config = Config::default();
    let d1 = semantic::dataflow_dump(&[a.clone(), b.clone()], &config);
    let d2 = semantic::dataflow_dump(&[b, a], &config);
    assert_eq!(d1, d2, "dump must not depend on input order");
    assert!(d1.contains("crates/sat/src/a.rs"), "{d1}");
    assert!(d1.contains("crate sat"), "per-crate footer missing: {d1}");
}

/// Two same-named fns on one line (one-line `impl` blocks) each own their
/// facts: `B::f`'s summary must not report `A::f`'s growth site.
#[test]
fn same_named_fns_on_one_line_keep_their_own_facts() {
    let src = "impl A { fn f(&mut self) { for x in 0..3 { self.v.push(x); } } } \
               impl B { fn f(&self) {} }\n";
    let flow = flow_of(src);
    let a = flow
        .fns
        .iter()
        .find(|f| f.qualifier.as_deref() == Some("A"))
        .unwrap();
    let b = flow
        .fns
        .iter()
        .find(|f| f.qualifier.as_deref() == Some("B"))
        .unwrap();
    assert_eq!(a.grows.len(), 1, "{a:?}");
    assert!(b.grows.is_empty(), "A::f's growth leaked into B::f: {b:?}");
}
