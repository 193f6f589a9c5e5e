//! Seeded instance generators. Every input the benchmark feeds the
//! program is text produced here from `--seed`, in the formats of
//! `lb_serve::formats` (DIMACS for SAT). The same seed gives the same
//! bytes.
//!
//! Instance families are chosen so that a different seed gives a
//! different file of the *same* difficulty: pigeonhole formulas and CSPs
//! (cost fixed by the hole count; the seed renames and shuffles), random
//! joins and graphs of fixed size (cost concentrated around its mean).
//! Random 3-SAT near its threshold would make run-to-run spread a
//! property of the seed instead of the program.

use lb_chaos::rng::Rng;
use lb_serve::bench::generate_specs;
use lb_serve::{JobFamily, JobSpec};

/// Stream `id` of seed `seed`: the whole benchmark's randomness is the
/// chaos harness's SplitMix64.
fn stream(seed: u64, id: u64) -> Rng {
    Rng::new(seed ^ id.wrapping_mul(0xd134_2543_de82_ef95))
}

/// Shuffles `xs` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The pigeonhole formula PHP(holes + 1, holes) in DIMACS: unsatisfiable,
/// with a DPLL cost set by `holes` alone. The seed renames the variables
/// and shuffles the clauses.
pub fn pigeonhole_cnf(rng: &mut Rng, holes: u64) -> String {
    let pigeons = holes + 1;
    let mut names: Vec<u64> = (1..=pigeons * holes).collect();
    shuffle(rng, &mut names);
    let var = |p: u64, h: u64| names.get((p * holes + h) as usize).copied().unwrap_or(1);
    let mut clauses: Vec<String> = Vec::new();
    for p in 0..pigeons {
        let lits: Vec<String> = (0..holes).map(|h| var(p, h).to_string()).collect();
        clauses.push(format!("{} 0", lits.join(" ")));
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                clauses.push(format!("-{} -{} 0", var(p, h), var(q, h)));
            }
        }
    }
    shuffle(rng, &mut clauses);
    format!(
        "p cnf {} {}\n{}\n",
        pigeons * holes,
        clauses.len(),
        clauses.join("\n")
    )
}

/// Pigeonhole as a binary CSP: `holes + 1` variables over `holes` values,
/// every pair constrained to differ. Unsatisfiable; the seed shuffles the
/// order of the allowed tuples and of the constraints.
pub fn pigeonhole_csp(rng: &mut Rng, holes: u64) -> String {
    let vars = holes + 1;
    let mut perm: Vec<u64> = (0..holes).collect();
    shuffle(rng, &mut perm);
    let mut tuples = Vec::new();
    for a in &perm {
        for b in &perm {
            if a != b {
                tuples.push(format!("{a},{b}"));
            }
        }
    }
    let allowed = tuples.join(" ");
    let mut cons = Vec::new();
    for a in 0..vars {
        for b in a + 1..vars {
            cons.push(format!("con {a} {b} : {allowed}"));
        }
    }
    shuffle(rng, &mut cons);
    format!("csp {vars} {holes}\n{}\n", cons.join("\n"))
}

/// Random graph with `n` vertices and `edges` distinct edges.
pub fn graph(rng: &mut Rng, n: u64, edges: u64) -> String {
    let mut seen = std::collections::HashSet::new();
    let mut out = format!("{n}\n");
    while (seen.len() as u64) < edges.min(n * (n - 1) / 2) {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            out.push_str(&format!("{} {}\n", u.min(v), u.max(v)));
        }
    }
    out
}

/// The triangle query.
pub const TRIANGLE_QUERY: &str = "R(a,b) S(b,c) T(c,a)";

/// The 4-cycle query.
pub const CYCLE4_QUERY: &str = "R(a,b) S(b,c) T(c,d) U(d,a)";

/// One binary relation per name, `rows` random pairs over `0..domain`
/// each, in the database file format.
pub fn binary_db(rng: &mut Rng, names: &[&str], rows: u64, domain: u64) -> String {
    let mut out = String::new();
    for name in names {
        out.push_str(&format!("rel {name} 2\n"));
        for _ in 0..rows {
            out.push_str(&format!("{} {}\n", rng.below(domain), rng.below(domain)));
        }
    }
    out
}

fn spec(tenant: &str, family: JobFamily, k: usize, payload: String) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        family,
        k,
        budget: None,
        payload,
    }
}

/// The `n`-th tiny job of `tenant`: the `lb_serve::bench` soak mix (sat,
/// csp, triangle, clique, join in turn), five fresh instances per round.
pub fn tiny_job(seed: u64, tenant: &str, n: u64) -> JobSpec {
    let round = generate_specs(1, 5, seed.wrapping_mul(1_000_003).wrapping_add(n / 5));
    let mut s = round
        .get((n % 5) as usize)
        .cloned()
        .unwrap_or_else(|| spec(tenant, JobFamily::Triangle, 0, "3\n0 1\n".to_string()));
    s.tenant = tenant.to_string();
    s
}

/// The `n`-th heavy batch job of `serve_sliced`, every payload within the
/// protocol's 4096-line limit. Out of ten jobs, four are WCOJ triangle
/// joins (about 60 slices of 1000 ticks) and two WCOJ 4-cycle joins
/// (about 700 slices); one each is a DPLL pigeonhole (about 75 slices), a
/// CSP pigeonhole (about 40), a clique search (about 65) and a triangle
/// count (4). `small` shrinks every instance for the smoke check.
pub fn batch_job(seed: u64, tenant: &str, n: u64, small: bool) -> JobSpec {
    let mut rng = stream(seed, 0xba7c_0000 + n);
    let s = |full: u64, tiny: u64| if small { tiny } else { full };
    match n % 10 {
        1 | 2 | 6 | 7 => {
            let db = binary_db(&mut rng, &["R", "S", "T"], s(1364, 60), s(60, 8));
            spec(
                tenant,
                JobFamily::Join,
                0,
                format!("{TRIANGLE_QUERY}\n{db}"),
            )
        }
        3 => spec(tenant, JobFamily::Sat, 0, pigeonhole_cnf(&mut rng, s(7, 4))),
        4 => spec(tenant, JobFamily::Csp, 0, pigeonhole_csp(&mut rng, s(7, 4))),
        8 => spec(
            tenant,
            JobFamily::Clique,
            s(9, 6) as usize,
            graph(&mut rng, s(150, 30), s(4000, 200)),
        ),
        9 => spec(
            tenant,
            JobFamily::Triangle,
            0,
            graph(&mut rng, s(2000, 100), s(4095, 300)),
        ),
        _ => {
            let db = binary_db(&mut rng, &["R", "S", "T", "U"], s(1020, 60), s(50, 8));
            spec(tenant, JobFamily::Join, 0, format!("{CYCLE4_QUERY}\n{db}"))
        }
    }
}

/// One `oneshot` input: the family, the instance file's text, and the
/// extra `lbtool` argument after the file (the join query, the clique
/// size).
pub struct OneshotInput {
    pub family: JobFamily,
    pub text: String,
    pub arg: Option<String>,
}

/// The five `oneshot` inputs, each sized for roughly 50–200 ms of
/// `lbtool` work on a 2-core box. The join relations (20k rows each) are
/// larger than L2 cache; the served joins (about 1.3k rows) are not.
pub fn oneshot_inputs(seed: u64, small: bool) -> Vec<OneshotInput> {
    let s = |full: u64, tiny: u64| if small { tiny } else { full };
    let mut rng = stream(seed, 0x0e5b_0000);
    let input = |family, text, arg: Option<String>| OneshotInput { family, text, arg };
    vec![
        input(JobFamily::Sat, pigeonhole_cnf(&mut rng, s(7, 4)), None),
        input(JobFamily::Csp, pigeonhole_csp(&mut rng, s(8, 5)), None),
        input(
            JobFamily::Join,
            binary_db(&mut rng, &["R", "S", "T"], s(20_000, 500), s(4000, 100)),
            Some(TRIANGLE_QUERY.to_string()),
        ),
        input(
            JobFamily::Triangle,
            graph(&mut rng, s(20_000, 500), s(80_000, 2000)),
            None,
        ),
        input(
            JobFamily::Clique,
            graph(&mut rng, s(2000, 100), s(100_000, 800)),
            Some("6".to_string()),
        ),
    ]
}

impl OneshotInput {
    /// The same instance as a served job spec (payload in the protocol's
    /// family encoding), for the in-process layer measurements.
    pub fn spec(&self) -> JobSpec {
        match (self.family, &self.arg) {
            (JobFamily::Join, Some(q)) => {
                spec("oneshot", self.family, 0, format!("{q}\n{}", self.text))
            }
            (JobFamily::Clique, Some(k)) => spec(
                "oneshot",
                self.family,
                k.parse().unwrap_or(1),
                self.text.clone(),
            ),
            _ => spec("oneshot", self.family, 0, self.text.clone()),
        }
    }
}
