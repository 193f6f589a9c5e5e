//! The `oneshot` workload: sequential `lbtool` process calls on
//! seed-generated files, no server. Each family is first *admitted*
//! (`--budget 0`: spawn, read, parse, answer `UNKNOWN`) and then solved.

use crate::gen::{self, OneshotInput};
use crate::report::Outcome;
use crate::serve::{vm_hwm_mb, Window};
use crate::trace::{median, ms, now, quantile, timed, Tracer};
use crate::{Ctx, SETUP_REPS};
use lb_engine::{Budget, Outcome as Solved, RunStats};
use lb_serve::formats::{parse_csp, parse_db, parse_graph, parse_query};
use lb_serve::JobFamily;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// One input written to disk, with the answer `lbtool` must print.
pub struct Prepared {
    pub input: OneshotInput,
    pub path: PathBuf,
    pub expected: String,
}

/// The `lbtool` arguments for one call.
fn args(p: &Prepared, admit_only: bool) -> Vec<String> {
    let mut a = vec![p.input.family.name().to_string()];
    if admit_only {
        a.extend(["--budget".to_string(), "0".to_string()]);
    }
    a.push(p.path.display().to_string());
    a.extend(p.input.arg.iter().cloned());
    a
}

/// Runs `lbtool` once; returns exit code, stdout and wall time. With
/// `watch_rss` the harness samples the child's `VmHWM` every millisecond
/// (the time is then not reported).
fn call(
    lbtool: &Path,
    args: &[String],
    watch_rss: bool,
) -> Result<(i32, String, Duration, f64), String> {
    let start = now();
    let mut child = Command::new(lbtool)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn lbtool: {e}"))?;
    let mut peak = 0.0f64;
    if watch_rss {
        while let Ok(None) = child.try_wait() {
            peak = peak.max(vm_hwm_mb(child.id()).unwrap_or(0.0));
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let out = child
        .wait_with_output()
        .map_err(|e| format!("wait lbtool: {e}"))?;
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout).trim().to_string();
    Ok((out.status.code().unwrap_or(-1), stdout, took, peak))
}

/// Solves `input` in-process through the entry point `lbtool` calls and
/// renders the answer exactly as `lbtool` prints it.
pub fn solve_in_process(input: &OneshotInput) -> Result<(String, RunStats), String> {
    let b = Budget::unlimited();
    let list = |xs: Vec<String>| xs.join(" ");
    match input.family {
        JobFamily::Sat => {
            let f = lb_sat::CnfFormula::from_dimacs(&input.text).map_err(|e| e.to_string())?;
            let (o, st) = lb_sat::DpllSolver::default().solve(&f, &b);
            let text = match o {
                Solved::Sat(m) => format!(
                    "SATISFIABLE\nv {} 0",
                    list(
                        m.iter()
                            .enumerate()
                            .map(|(v, &t)| format!("{}{}", if t { "" } else { "-" }, v + 1))
                            .collect()
                    )
                ),
                Solved::Unsat => "UNSATISFIABLE".to_string(),
                Solved::Exhausted(r) => return Err(format!("sat exhausted: {r}")),
            };
            Ok((text, st))
        }
        JobFamily::Csp => {
            let c = parse_csp(&input.text).map_err(|e| e.to_string())?;
            let (o, st) = lb_csp::solver::solve(&c, &b);
            let text = match o {
                Solved::Sat(a) => format!(
                    "SATISFIABLE\nv {}",
                    list(a.iter().map(|v| v.to_string()).collect())
                ),
                Solved::Unsat => "UNSATISFIABLE".to_string(),
                Solved::Exhausted(r) => return Err(format!("csp exhausted: {r}")),
            };
            Ok((text, st))
        }
        JobFamily::Join => {
            let db = parse_db(&input.text).map_err(|e| e.to_string())?;
            let q =
                parse_query(input.arg.as_deref().unwrap_or_default()).map_err(|e| e.to_string())?;
            let (o, st) = lb_join::wcoj::count(&q, &db, None, &b).map_err(|e| e.to_string())?;
            match o {
                Solved::Sat(n) => Ok((n.to_string(), st)),
                other => Err(format!("join: {other:?}")),
            }
        }
        JobFamily::Triangle => {
            let g = parse_graph(&input.text).map_err(|e| e.to_string())?;
            let (o, st) = lb_graphalg::triangle::count_triangles(&g, &b);
            match o {
                Solved::Sat(n) => Ok((n.to_string(), st)),
                other => Err(format!("triangle: {other:?}")),
            }
        }
        JobFamily::Clique => {
            let g = parse_graph(&input.text).map_err(|e| e.to_string())?;
            let k: usize = input
                .arg
                .as_deref()
                .unwrap_or_default()
                .parse()
                .map_err(|e| format!("clique k: {e}"))?;
            let (o, st) = lb_graphalg::clique::find_clique(&g, k, &b);
            let text = match o {
                Solved::Sat(vs) => format!(
                    "CLIQUE\nv {}",
                    list(vs.iter().map(|v| v.to_string()).collect())
                ),
                Solved::Unsat => "NONE".to_string(),
                Solved::Exhausted(r) => return Err(format!("clique exhausted: {r}")),
            };
            Ok((text, st))
        }
    }
}

/// Generates and writes the five instance files.
fn write_inputs(ctx: &Ctx, dir: &Path) -> Result<Vec<(OneshotInput, PathBuf)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for input in gen::oneshot_inputs(ctx.seed, ctx.small) {
        let ext = match input.family {
            JobFamily::Sat => "cnf",
            JobFamily::Csp => "csp",
            JobFamily::Join => "db",
            JobFamily::Triangle | JobFamily::Clique => "graph",
        };
        let path = dir.join(format!("{}.{ext}", input.family));
        std::fs::write(&path, &input.text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((input, path));
    }
    Ok(out)
}

/// Runs `oneshot`; returns the outcome, the prepared inputs (for the layer
/// measurements) and the spans.
pub fn run(ctx: &Ctx) -> Result<(Outcome, Vec<Prepared>, Tracer), String> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("oneshot");
    let mut times = Vec::new();
    let mut written = Vec::new();
    for _ in 0..SETUP_REPS {
        let (files, took) = timed(|| write_inputs(ctx, &dir));
        written = files?;
        times.push(took.as_secs_f64());
    }
    out.put("setup_s", median(&times));
    let mut prepared = Vec::new();
    for (input, path) in written {
        let (expected, _stats) = solve_in_process(&input)?;
        prepared.push(Prepared {
            input,
            path,
            expected,
        });
    }

    // One untimed pass warms the page cache and the binary.
    for p in &prepared {
        call(&ctx.bins.lbtool, &args(p, false), false)?;
    }
    let origin = now();
    let w = Window::new(now(), ctx.seconds, ctx.trace);
    let mut tr = Tracer::new(false, origin, 1 << 48);
    let mut admits = Vec::new();
    let mut solves: Vec<(JobFamily, f64, bool)> = Vec::new();
    let mut job = 0u64;
    'cycles: loop {
        for p in &prepared {
            if now() >= w.end {
                break 'cycles;
            }
            job += 1;
            let traced = w.traced_at(now());
            tr.set_enabled(traced);
            let family = p.input.family;
            out.attempted += 2;
            let admitted = tr.span(&format!("lbtool.admit.{family}"), None, Some(job), || {
                call(&ctx.bins.lbtool, &args(p, true), false)
            })?;
            match admitted {
                (3, ref s, took, _) if s == "UNKNOWN" => admits.push(ms(took)),
                (code, s, ..) => out.fail(format!("{family} --budget 0: exit {code}, `{s}`")),
            }
            let solved = tr.span(&format!("lbtool.{family}"), None, Some(job), || {
                call(&ctx.bins.lbtool, &args(p, false), false)
            })?;
            match solved {
                (0, s, took, _) if s == p.expected => solves.push((family, ms(took), traced)),
                (code, s, ..) => out.fail(format!(
                    "{family}: exit {code}, `{}` (expected `{}`)",
                    first_line(&s),
                    first_line(&p.expected)
                )),
            }
        }
    }
    let secs = w.end.saturating_duration_since(w.start).as_secs_f64();
    let all: Vec<f64> = solves.iter().map(|s| s.1).collect();
    out.put("jobs_per_s", solves.len() as f64 / secs);
    out.put("submit_ack_p50_ms", quantile(&admits, 0.5));
    out.put("submit_ack_p90_ms", quantile(&admits, 0.9));
    out.put("verdict_p50_ms", quantile(&all, 0.5));
    out.put("verdict_p90_ms", quantile(&all, 0.9));
    for f in JobFamily::ALL {
        let v: Vec<f64> = solves.iter().filter(|s| s.0 == f).map(|s| s.1).collect();
        out.put(&format!("solve_ms.{f}"), median(&v));
    }
    if ctx.trace {
        let split = |traced: bool| -> Vec<f64> {
            solves
                .iter()
                .filter(|s| s.2 == traced)
                .map(|s| s.1)
                .collect()
        };
        let (off, on) = (median(&split(false)), median(&split(true)));
        out.put(
            "trace.overhead_pct",
            if off > 0.0 {
                100.0 * (on - off) / off
            } else {
                0.0
            },
        );
    }
    // Peak memory from one untimed, watched call per family.
    let mut peak = 0.0f64;
    for p in &prepared {
        let (_, _, _, rss) = call(&ctx.bins.lbtool, &args(p, false), true)?;
        peak = peak.max(rss);
    }
    out.put("peak_rss_mb", peak);
    out.notes.push(format!(
        "timed phase {secs:.1} s: {} solves, {} admissions",
        solves.len(),
        admits.len()
    ));
    Ok((out, prepared, tr))
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or_default()
}
