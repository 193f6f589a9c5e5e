//! `perfbench` — the repository benchmark: three workloads against
//! release builds of `lb-serve` and `lbtool`, every answer checked
//! against the in-process reference.
//!
//! ```text
//! perfbench --workload <serve_small|serve_sliced|oneshot> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded in alternating epochs, then the in-process
//! layer measurements, prints the per-layer metrics and writes the spans
//! to `$CARGO_TARGET_DIR/perfbench/spans-<workload>-seed<N>.jsonl`. The
//! last line of standard output is the JSON result. See `README.md`.

#![forbid(unsafe_code)]

mod gen;
mod layers;
mod oneshot;
mod report;
mod serve;
mod trace;

use report::{Outcome, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed reserved for checking claims made with the default seed; do not
/// tune against it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

pub const WORKLOADS: [&str; 3] = ["serve_small", "serve_sliced", "oneshot"];

/// Set-ups per run (server start-ups, or instance-file generations for
/// `oneshot`); `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Paths of the binaries under test.
pub struct Bins {
    pub lb_serve: PathBuf,
    pub lbtool: PathBuf,
}

/// One run's settings.
pub struct Ctx {
    pub bins: Bins,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
    /// Where span files go.
    pub out_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny instances (the smoke check).
    pub small: bool,
}

fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

fn ctx(workload: &str, seed: u64, seconds: f64, trace: bool, small: bool) -> Result<Ctx, String> {
    let target = target_dir();
    let bins = Bins {
        lb_serve: target.join("release").join("lb-serve"),
        lbtool: target.join("release").join("lbtool"),
    };
    for b in [&bins.lb_serve, &bins.lbtool] {
        if !b.is_file() {
            return Err(format!(
                "{} is not built (run perfbench/run.sh)",
                b.display()
            ));
        }
    }
    let out_dir = target.join("perfbench");
    let work = out_dir.join(format!("work-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Ctx {
        bins,
        work,
        out_dir,
        seed,
        seconds,
        trace,
        small,
    })
}

/// Runs one workload; the outcome carries end-to-end metrics, plus the
/// per-layer ones when tracing.
fn run_workload(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut probe = Outcome::default();
    let machine = layers::machine(&ctx.work, &mut probe)?;
    let (mut out, mut tracer) = match workload {
        "serve_small" | "serve_sliced" => {
            let run = serve::run(ctx, workload == "serve_sliced")?;
            let (mut out, mut tr) = (run.outcome, run.tracer);
            if ctx.trace {
                layers::measure(
                    &run.specs,
                    &run.requests,
                    run.slice_ticks,
                    layers::Entry::Served,
                    &ctx.work,
                    &mut tr,
                    &mut out,
                )?;
            }
            (out, tr)
        }
        "oneshot" => {
            let (mut out, prepared, mut tr) = oneshot::run(ctx)?;
            if ctx.trace {
                // No server in this workload: the serve-layer numbers come
                // from a short run on an idle default server.
                let requests = serve::idle_server_probe(ctx, &mut tr, &mut out)?;
                let specs: Vec<_> = prepared.iter().map(|p| p.input.spec()).collect();
                layers::measure(
                    &specs,
                    &requests,
                    lb_serve::SchedulerConfig::default().slice_ticks,
                    layers::Entry::Lbtool(&prepared),
                    &ctx.work,
                    &mut tr,
                    &mut out,
                )?;
            }
            (out, tr)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    out.notes.insert(0, machine);
    for m in probe.metrics {
        out.put(&m.name, m.value);
    }
    if ctx.trace {
        out.put("trace.spans", tracer.len() as f64);
        let path = ctx
            .out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
        let header = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{}}}",
            ctx.seed, ctx.seconds
        );
        tracer.write_jsonl(&path, &header)?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out)
}

/// Prints the human-readable report, then the result line.
fn print_report(workload: &str, ctx: &Ctx, out: &Outcome) {
    println!(
        "perfbench {workload}: seed={} seconds={} trace={} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for m in &out.metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed = out.failures.len();
    println!(
        "  {:<36} {:>14.4} ratio ({failed} of {} operations failed)",
        "error_rate",
        failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    let names: Vec<(String, &'static str)> = if ctx.trace {
        report::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!("{}", out.result_line(&names));
}

/// Runs `workload` once and cleans up its scratch directory.
fn run_once(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
) -> Result<(Ctx, Outcome), String> {
    let ctx = ctx(workload, seed, seconds, trace, small)?;
    let result = run_workload(&ctx, workload);
    let cleaned = std::fs::remove_dir_all(&ctx.work).map_err(|e| e.to_string());
    let out = result?;
    cleaned?;
    Ok((ctx, out))
}

/// The smoke check: every workload at a tiny size, traced and untraced;
/// every metric present and finite, no failure, and `BENCHMARK.json` (when
/// present) naming exactly these metrics.
fn smoke() -> Result<(), String> {
    let e2e: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let layers = report::per_layer_names();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (ctx, out) = run_once(workload, DEFAULT_SEED, 2.0, trace, true)?;
            print_report(workload, &ctx, &out);
            if !out.failures.is_empty() || out.attempted == 0 {
                return Err(format!("{workload}: error_rate is not 0"));
            }
            for (name, _) in if trace { &layers } else { &e2e } {
                if !out.get(name).is_some_and(f64::is_finite) {
                    return Err(format!("{workload}: metric {name} missing"));
                }
            }
        }
    }
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let declared = text.matches("\"name\":").count();
        let ours = e2e.len() + layers.len() + WORKLOADS.len();
        for (name, _) in e2e.iter().chain(layers.iter()) {
            if !text.contains(&format!("\"name\": \"{name}\"")) {
                return Err(format!("BENCHMARK.json does not declare {name}"));
            }
        }
        if declared != ours {
            return Err(format!(
                "BENCHMARK.json declares {declared} names, the benchmark reports {ours}"
            ));
        }
    }
    println!("smoke: ok");
    Ok(())
}

fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0_f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_e| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_e| format!("bad --seconds `{value}`"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("smoke") {
        smoke()
    } else {
        parse_args(&args).and_then(|(workload, seed, seconds, trace)| {
            let (ctx, out) = run_once(&workload, seed, seconds, trace, false)?;
            print_report(&workload, &ctx, &out);
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
