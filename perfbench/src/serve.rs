//! The two served workloads, driven through `lb_serve::client` against a
//! release `lb-serve` process on loopback.
//!
//! - `serve_small`: two clients in a closed loop of tiny mixed-family jobs
//!   at the default 65536-tick slice (one slice per job).
//! - `serve_sliced`: `--slice-ticks 1000`; connection 1 keeps two batch
//!   tenants' quotas full of heavy jobs, connection 2 is a probe tenant
//!   timing one tiny job at a time behind them.

use crate::gen;
use crate::report::Outcome;
use crate::trace::{median, ms, now, quantile, Tracer};
use crate::{Ctx, SETUP_REPS};
use lb_serve::client::{render_submit, Client, ClientError};
use lb_serve::protocol::StatusReport;
use lb_serve::{JobFamily, JobSpec, SchedulerConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Socket timeout on every benchmark connection.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Fixed interval between `STATUS` polls of one job.
const POLL: Duration = Duration::from_millis(2);
/// Untimed warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Interval between `STATS` samples during the timed phase.
const STATS_EVERY: Duration = Duration::from_secs(1);

/// A running `lb-serve run` process, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// How long the client waits after the server's `listening on` line
/// before it connects. The accept loop starts right after that line and
/// sleeps 20 ms whenever no connection is queued, so a client connecting
/// at once races its first poll; waiting 1 ms makes every start-up take
/// the same path: one idle poll at the seed, none with a blocking accept.
const SETTLE: Duration = Duration::from_millis(1);

impl ServerProc {
    /// Spawns a server on an empty spool and waits for the first `PONG`;
    /// returns it with the spawn-to-`PONG` time.
    pub fn start(
        bin: &Path,
        spool: &Path,
        slice_ticks: Option<u64>,
    ) -> Result<(ServerProc, Duration), String> {
        if spool.exists() {
            std::fs::remove_dir_all(spool).map_err(|e| format!("{}: {e}", spool.display()))?;
        }
        let log = std::fs::File::create(spool.with_extension("log"))
            .map_err(|e| format!("server log: {e}"))?;
        let started = now();
        let mut cmd = Command::new(bin);
        cmd.arg("run")
            .arg("--spool")
            .arg(spool)
            .args(["--addr", "127.0.0.1:0"]);
        if let Some(t) = slice_ticks {
            cmd.args(["--slice-ticks", &t.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _reaped = child.kill().and_then(|()| child.wait());
            return Err("server stdout not captured".to_string());
        };
        let mut server = ServerProc {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server banner `{}`", line.trim()))?
            .to_string();
        thread::sleep(SETTLE);
        let mut client = connect(&server.addr)?;
        client.ping().map_err(|e| format!("first PING: {e}"))?;
        Ok((server, started.elapsed()))
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(self.child.id()).ok_or_else(|| "VmHWM unreadable".to_string())
    }

    /// Drains the server and waits for it to exit (killing it after ten
    /// seconds). Every other connection must be closed first.
    pub fn stop(mut self) -> Result<(), String> {
        let drained = connect(&self.addr).and_then(|mut c| c.drain().map_err(|e| e.to_string()));
        let deadline = now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return drained,
                Ok(None) if now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _killed = self.child.kill();
                    let _reaped = self.child.wait();
                    return Err("server did not exit after DRAIN".to_string());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _killed = self.child.kill();
            let _reaped = self.child.wait();
        }
    }
}

/// `VmHWM` of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Connects, retrying every millisecond for up to ten seconds.
pub fn connect(addr: &str) -> Result<Client, String> {
    let deadline = now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr, TIMEOUT) {
            Ok(c) => return Ok(c),
            Err(e) if now() >= deadline => return Err(format!("connect {addr}: {e}")),
            Err(_retry) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Starts [`SETUP_REPS`] servers on fresh spools and keeps the last;
/// returns it with the median spawn-to-`PONG` time in seconds.
pub fn start_measured(
    ctx: &Ctx,
    name: &str,
    slice_ticks: Option<u64>,
) -> Result<(ServerProc, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let spool = ctx.work.join(format!("{name}-spool{rep}"));
        let (server, took) = ServerProc::start(&ctx.bins.lb_serve, &spool, slice_ticks)?;
        times.push(took.as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((server, median(&times)));
        }
        server.stop()?;
    }
    Err("no server started".to_string())
}

/// Which loop a job belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Small,
    Batch,
    Probe,
}

/// One job's trip through the server, as the client saw it.
struct JobSample {
    spec: JobSpec,
    role: Role,
    /// When `SUBMIT` was sent.
    submitted: Instant,
    /// When `STATUS` first showed the job settled.
    settled: Instant,
    /// That `STATUS` report.
    report: StatusReport,
    /// Whether the job was submitted during a traced epoch.
    traced: bool,
}

/// What one connection's loop produced.
#[derive(Default)]
struct ConnLog {
    samples: Vec<JobSample>,
    /// Every acknowledged `SUBMIT`: when it was sent and `SUBMIT` → `OK`.
    acks: Vec<(Role, Instant, Duration)>,
    failures: Vec<String>,
    /// Raw request bytes, kept for the protocol replay (traced runs).
    requests: Vec<Vec<u8>>,
    /// `STATS` lines with their arrival time, from the start to the end of
    /// the timed phase.
    stats: Vec<(Instant, String)>,
    tracer: Option<Tracer>,
    /// Jobs still unsettled when the run ended.
    unsettled: usize,
}

/// The timed window and the traced-epoch schedule.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    /// Traced runs alternate untraced and traced epochs of this length.
    pub epoch: Duration,
    pub trace: bool,
}

impl Window {
    pub fn new(start: Instant, seconds: f64, trace: bool) -> Window {
        let len = Duration::from_secs_f64(seconds);
        Window {
            start,
            end: start + len,
            epoch: Duration::from_secs(1).min(len / 4),
            trace,
        }
    }

    pub fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether `t` falls in a traced epoch (odd epochs of a traced run).
    pub fn traced_at(&self, t: Instant) -> bool {
        if !self.trace {
            return false;
        }
        let since = t.saturating_duration_since(self.start).as_secs_f64();
        let epoch = self.epoch.as_secs_f64().max(1e-3);
        (since / epoch) as u64 % 2 == 1
    }
}

/// Submits `spec`, then polls `STATUS` every [`POLL`] until the job
/// settles. A client error is returned as the failure line.
fn submit_and_wait(
    c: &mut Client,
    spec: JobSpec,
    role: Role,
    job: u64,
    w: &Window,
    log: &mut ConnLog,
    tr: &mut Tracer,
) -> Result<(), String> {
    let submitted = now();
    let traced = w.traced_at(submitted);
    tr.set_enabled(traced);
    if w.trace {
        log.requests.push(render_submit(&spec).into_bytes());
    }
    let root = tr.open("job", None, Some(job));
    let parent = root.as_ref().map(|o| o.id());
    let acked = tr.span("client.submit", parent, Some(job), || c.submit(&spec));
    let id = match acked {
        Ok(id) => {
            log.acks.push((role, submitted, submitted.elapsed()));
            id
        }
        Err(e) => {
            tr.close(root);
            return Err(format!("{} SUBMIT: {e}", spec.family));
        }
    };
    let report = loop {
        thread::sleep(POLL);
        if w.trace {
            log.requests.push(format!("STATUS {id}\n").into_bytes());
        }
        let r = tr
            .span("client.status", parent, Some(job), || c.status(&id))
            .map_err(|e| format!("{id} STATUS: {e}"))?;
        if r.state == "done" || r.state == "quarantined" {
            break r;
        }
    };
    let settled = now();
    tr.close(root);
    log.samples.push(JobSample {
        spec,
        role,
        submitted,
        settled,
        report,
        traced,
    });
    Ok(())
}

/// Takes `STATS` when the window opens (the first call after its start),
/// then every `every` if given, and when it closes (`at_end`).
fn maybe_stats(
    c: &mut Client,
    w: &Window,
    log: &mut ConnLog,
    at_end: bool,
    every: Option<Duration>,
) -> Result<(), String> {
    let due = match (log.stats.last(), every) {
        _ if at_end => true,
        (None, _) => now() >= w.start,
        (Some((last, _)), Some(every)) => last.elapsed() >= every,
        (Some(_), None) => false,
    };
    if due {
        let line = c.stats().map_err(|e| format!("STATS: {e}"))?;
        log.stats.push((now(), line));
    }
    Ok(())
}

/// A closed loop of tiny jobs on one persistent connection until the
/// window ends.
fn tiny_loop(
    addr: &str,
    seed: u64,
    tenant: &str,
    role: Role,
    w: Window,
    take_stats: bool,
    tracer: Tracer,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut tr = tracer;
    let result = (|| -> Result<(), String> {
        let mut c = connect(addr)?;
        let mut n = 0u64;
        while now() < w.end {
            if take_stats {
                maybe_stats(&mut c, &w, &mut log, false, None)?;
            }
            let spec = gen::tiny_job(seed, tenant, n);
            let job = (role as u64) << 40 | n;
            n += 1;
            submit_and_wait(&mut c, spec, role, job, &w, &mut log, &mut tr)?;
        }
        if take_stats {
            maybe_stats(&mut c, &w, &mut log, true, None)?;
        }
        Ok(())
    })();
    if let Err(e) = result {
        log.failures.push(format!("{tenant}: {e}"));
    }
    log.tracer = Some(tr);
    log
}

/// Connection 1 of `serve_sliced`: fill both batch tenants' windows, then
/// sweep the in-flight jobs, replacing each settled one, until the window
/// ends. Every submission stays within the tenant quota, so none is
/// refused.
struct BatchLoad {
    c: Client,
    seed: u64,
    small: bool,
    next: u64,
    inflight: VecDeque<InFlight>,
    log: ConnLog,
    tr: Tracer,
}

/// A batch job between its `OK` and its settled `STATUS`.
struct InFlight {
    id: String,
    spec: JobSpec,
    submitted: Instant,
    job: u64,
    traced: bool,
}

impl BatchLoad {
    fn submit(&mut self, tenant: usize, traced: bool, record: bool) {
        let n = self.next;
        self.next += 1;
        let spec = gen::batch_job(self.seed, &format!("batch{tenant}"), n, self.small);
        let job = (Role::Batch as u64) << 40 | n;
        let submitted = now();
        self.tr.set_enabled(traced);
        if record {
            self.log.requests.push(render_submit(&spec).into_bytes());
        }
        let c = &mut self.c;
        match self
            .tr
            .span("client.submit", None, Some(job), || c.submit(&spec))
        {
            Ok(id) => {
                self.log
                    .acks
                    .push((Role::Batch, submitted, submitted.elapsed()));
                self.inflight.push_back(InFlight {
                    id,
                    spec,
                    submitted,
                    job,
                    traced,
                });
            }
            Err(e @ ClientError::Rejected { .. }) => {
                self.log
                    .failures
                    .push(format!("batch{tenant} SUBMIT refused: {e}"));
            }
            Err(e) => self.log.failures.push(format!("batch{tenant} SUBMIT: {e}")),
        }
    }

    /// Fills both tenants' windows of `per_tenant` jobs.
    fn fill(&mut self, per_tenant: usize, record: bool) {
        for i in 0..2 * per_tenant {
            self.submit(i % 2, false, record);
        }
    }

    fn sweep(mut self, w: Window) -> ConnLog {
        let result = (|| -> Result<(), String> {
            while now() < w.end {
                maybe_stats(&mut self.c, &w, &mut self.log, false, Some(STATS_EVERY))?;
                let Some(job) = self.inflight.pop_front() else {
                    return Err("no batch job in flight".to_string());
                };
                thread::sleep(POLL);
                self.tr.set_enabled(w.traced_at(now()));
                if w.trace {
                    self.log
                        .requests
                        .push(format!("STATUS {}\n", job.id).into_bytes());
                }
                let c = &mut self.c;
                let r = self
                    .tr
                    .span("client.status", None, Some(job.job), || c.status(&job.id))
                    .map_err(|e| format!("{} STATUS: {e}", job.id))?;
                if r.state == "done" || r.state == "quarantined" {
                    let tenant = usize::from(job.spec.tenant != "batch0");
                    self.log.samples.push(JobSample {
                        spec: job.spec,
                        role: Role::Batch,
                        submitted: job.submitted,
                        settled: now(),
                        report: r,
                        traced: job.traced,
                    });
                    self.submit(tenant, w.traced_at(now()), w.trace);
                } else {
                    self.inflight.push_back(job);
                }
            }
            maybe_stats(&mut self.c, &w, &mut self.log, true, None)
        })();
        if let Err(e) = result {
            self.log.failures.push(format!("batch load: {e}"));
        }
        self.log.unsettled = self.inflight.len();
        self.log.tracer = Some(self.tr);
        self.log
    }
}

/// Parses a `STATS` line into its counters.
fn stats_counters(line: &str) -> BTreeMap<String, f64> {
    line.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Per-layer network numbers, taken after the timed phase (in
/// `serve_sliced` the batch jobs still in flight keep both workers busy):
/// persistent-connection `PING` round trips and fresh connect-plus-`PING`
/// times.
pub fn net_probe(addr: &str, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    tr.set_enabled(true);
    let mut c = connect(addr)?;
    let mut rtts = Vec::new();
    for _ in 0..30 {
        let t = now();
        tr.span("client.ping", None, None, || c.ping())
            .map_err(|e| format!("PING: {e}"))?;
        rtts.push(ms(t.elapsed()));
    }
    drop(c);
    let mut fresh = Vec::new();
    for _ in 0..10 {
        let t = now();
        let mut c = tr.span("client.connect", None, None, || connect(addr))?;
        tr.span("client.ping", None, None, || c.ping())
            .map_err(|e| format!("PING: {e}"))?;
        fresh.push(ms(t.elapsed()));
    }
    out.put("net.ping_rtt_p50_ms", median(&rtts));
    out.put("net.connect_ping_p50_ms", median(&fresh));
    Ok(())
}

/// Two `STATS` samples: arrival times and counters.
type StatsPair = (
    Instant,
    Instant,
    BTreeMap<String, f64>,
    BTreeMap<String, f64>,
);

/// The `STATS` samples of the connection that took them, as consecutive
/// pairs.
fn stats_intervals(logs: &[ConnLog]) -> Vec<StatsPair> {
    let Some(log) = logs.iter().find(|l| l.stats.len() >= 2) else {
        return Vec::new();
    };
    log.stats
        .windows(2)
        .filter_map(|w| match w {
            [(t0, a), (t1, b)] => Some((*t0, *t1, stats_counters(a), stats_counters(b))),
            _ => None,
        })
        .collect()
}

/// The first and last `STATS` samples, bracketing the timed phase.
fn stats_pair(logs: &[ConnLog]) -> Option<StatsPair> {
    let iv = stats_intervals(logs);
    let (first, last) = (iv.first()?, iv.last()?);
    Some((first.0, last.1, first.2.clone(), last.3.clone()))
}

/// Server counters over the timed phase (end minus start).
fn put_stats_delta(pair: &StatsPair, out: &mut Outcome) {
    for key in ["slices", "preemptions", "ticks", "rejected", "retries"] {
        out.put(&format!("server.{key}"), counter_delta(pair, key));
    }
}

fn counter_delta(pair: &StatsPair, key: &str) -> f64 {
    let (_, _, a, b) = pair;
    b.get(key).copied().unwrap_or(0.0) - a.get(key).copied().unwrap_or(0.0)
}

/// Batch jobs settled per second in `serve_sliced`. 32 jobs of 4 to 700
/// slices share the workers round-robin and finish in bursts, so counting
/// verdicts over seconds is too lumpy: this is batch ticks per second
/// (the `ticks` counter minus the probe jobs' ticks) over the mean ticks
/// of a batch job, per one-second `STATS` interval, and the median
/// interval is reported.
fn batch_jobs_per_s(ctx: &Ctx, logs: &[ConnLog], samples: &[&JobSample]) -> Result<f64, String> {
    let per_job = mean_batch_ticks(ctx)?;
    let rates: Vec<f64> = stats_intervals(logs)
        .iter()
        .map(|iv| {
            let probe_ticks: f64 = samples
                .iter()
                .filter(|s| s.role == Role::Probe && s.settled >= iv.0 && s.settled < iv.1)
                .map(|s| s.report.spent as f64)
                .sum();
            let secs = (iv.1 - iv.0).as_secs_f64();
            (counter_delta(iv, "ticks") - probe_ticks) / per_job / secs
        })
        .collect();
    Ok(median(&rates))
}

/// Mean ticks of a batch job over two cycles of the batch mix.
fn mean_batch_ticks(ctx: &Ctx) -> Result<f64, String> {
    let mut total = 0u64;
    for n in 0..20 {
        let inst = gen::batch_job(ctx.seed, "batch0", n, ctx.small)
            .instance()
            .map_err(|e| e.to_string())?;
        let (_, stats, _) =
            lb_serve::runner::solve_to_verdict(&inst, u64::MAX, None).map_err(|e| e.to_string())?;
        total += stats.total_ops();
    }
    Ok(total as f64 / 20.0)
}

/// What a served run hands to the layer measurements.
pub struct ServedRun {
    pub outcome: Outcome,
    /// Representative specs (every family present).
    pub specs: Vec<JobSpec>,
    pub requests: Vec<Vec<u8>>,
    pub tracer: Tracer,
    pub slice_ticks: u64,
}

/// Runs `serve_small` or `serve_sliced`.
pub fn run(ctx: &Ctx, sliced: bool) -> Result<ServedRun, String> {
    let name = if sliced {
        "serve_sliced"
    } else {
        "serve_small"
    };
    let slice_ticks = if sliced { Some(1000) } else { None };
    let mut out = Outcome::default();
    let (server, setup_s) = start_measured(ctx, name, slice_ticks)?;
    out.put("setup_s", setup_s);
    let origin = now();
    let (seed, trace) = (ctx.seed, ctx.trace);
    let mut handles = Vec::new();
    let w = if sliced {
        let mut batch = BatchLoad {
            c: connect(&server.addr)?,
            seed,
            small: ctx.small,
            next: 0,
            inflight: VecDeque::new(),
            log: ConnLog::default(),
            tr: Tracer::new(false, origin, 1 << 48),
        };
        let quota = SchedulerConfig::default().tenant_quota;
        batch.fill(if ctx.small { 2 } else { quota }, trace);
        // The warm-up starts once the batch queue is full.
        let w = Window::new(now() + WARMUP, ctx.seconds, trace);
        handles.push(thread::spawn(move || batch.sweep(w)));
        let addr = server.addr.clone();
        handles.push(thread::spawn(move || {
            let tr = Tracer::new(false, origin, 2 << 48);
            tiny_loop(&addr, seed ^ 0x9e0b, "probe", Role::Probe, w, false, tr)
        }));
        w
    } else {
        let w = Window::new(now() + WARMUP, ctx.seconds, trace);
        for i in 0..2u64 {
            let addr = server.addr.clone();
            handles.push(thread::spawn(move || {
                let tr = Tracer::new(false, origin, (i + 1) << 48);
                tiny_loop(
                    &addr,
                    seed,
                    &format!("small{i}"),
                    Role::Small,
                    w,
                    i == 0,
                    tr,
                )
            }));
        }
        w
    };
    let mut logs = Vec::new();
    for h in handles {
        logs.push(
            h.join()
                .map_err(|_panic| "client thread panicked".to_string())?,
        );
    }
    finish(ctx, server, logs, out, sliced, origin, w)
}

/// Checks every settled job against the in-process reference; a
/// quarantine counts as a failure too (no fault was injected).
fn check_verdicts(samples: &[&JobSample], out: &mut Outcome) {
    for s in samples {
        out.attempted += 1;
        let report = &s.report;
        match (&report.verdict, report.state.as_str()) {
            (Some(v), "done") => match lb_serve::bench::reference_verdict(&s.spec) {
                Ok(r) if &r == v => {}
                Ok(r) => out.fail(format!(
                    "{} {}: served `{}`, reference `{}`",
                    report.job_id,
                    s.spec.family,
                    v.to_line(),
                    r.to_line()
                )),
                Err(e) => out.fail(format!("{}: reference failed: {e}", report.job_id)),
            },
            _ => out.fail(format!(
                "{} {}: {} ({})",
                report.job_id,
                s.spec.family,
                report.state,
                report.evidence.as_deref().unwrap_or("no verdict")
            )),
        }
    }
}

/// Turns the connection logs into metrics, checks every verdict, and
/// stops the server.
fn finish(
    ctx: &Ctx,
    server: ServerProc,
    mut logs: Vec<ConnLog>,
    mut out: Outcome,
    sliced: bool,
    origin: Instant,
    w: Window,
) -> Result<ServedRun, String> {
    let mut tracer = Tracer::new(true, origin, 3 << 48);
    for log in &mut logs {
        if let Some(t) = log.tracer.take() {
            tracer.absorb(t);
        }
    }
    out.put("peak_rss_mb", server.peak_rss_mb()?);
    let pair = stats_pair(&logs).ok_or("no STATS pair around the timed phase")?;
    put_stats_delta(&pair, &mut out);
    if ctx.trace {
        net_probe(&server.addr, &mut tracer, &mut out)?;
    }
    server.stop()?;

    let samples: Vec<&JobSample> = logs.iter().flat_map(|l| l.samples.iter()).collect();
    check_verdicts(&samples, &mut out);
    for log in &logs {
        out.attempted += log.failures.len() as u64;
        for f in &log.failures {
            out.fail(f.clone());
        }
    }
    let unsettled: usize = logs.iter().map(|l| l.unsettled).sum();
    out.notes.push(format!(
        "{} jobs settled and checked, {} batch jobs still queued at the end (not counted)",
        samples.len(),
        unsettled
    ));

    // Throughput. `serve_small`: the server's `done` counter over the
    // timed phase. `serve_sliced`: the probe tenant's verdicts per second
    // as its client saw them; the batch tenants' throughput is
    // `server.jobs_per_s`, a per-layer figure: it is bound by the two
    // fsynced spool writes per slice, and on a shared virtual disk the
    // rate of those drifts by 2x within minutes, too far for a gated
    // end-to-end bound.
    let (t0, t1) = (pair.0, pair.1);
    let secs = (t1 - t0).as_secs_f64();
    let server_jobs_per_s = if sliced {
        batch_jobs_per_s(ctx, &logs, &samples)?
    } else {
        counter_delta(&pair, "done") / secs
    };
    out.put("server.jobs_per_s", server_jobs_per_s);
    let jobs_per_s = if sliced {
        let probes = samples
            .iter()
            .filter(|s| s.role == Role::Probe && w.contains(s.settled))
            .count();
        probes as f64 / (w.end - w.start).as_secs_f64()
    } else {
        server_jobs_per_s
    };
    out.put("jobs_per_s", jobs_per_s);
    let throughput_role = if sliced { Role::Batch } else { Role::Small };
    let latency_role = if sliced { Role::Probe } else { Role::Small };
    let in_window = |role: Role| {
        samples
            .iter()
            .filter(move |s| s.role == role && w.contains(s.submitted))
            .copied()
    };
    let acks: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.acks.iter())
        .filter(|(role, at, _)| *role == throughput_role && w.contains(*at))
        .map(|(_, _, took)| ms(*took))
        .collect();
    out.put("submit_ack_p50_ms", quantile(&acks, 0.5));
    out.put("submit_ack_p90_ms", quantile(&acks, 0.9));
    let verdict_ms = |s: &JobSample| ms(s.settled.saturating_duration_since(s.submitted));
    let verdicts: Vec<f64> = in_window(latency_role).map(verdict_ms).collect();
    out.put("verdict_p50_ms", quantile(&verdicts, 0.5));
    out.put("verdict_p90_ms", quantile(&verdicts, 0.9));
    for f in JobFamily::ALL {
        let v: Vec<f64> = in_window(latency_role)
            .filter(|s| s.spec.family == f)
            .map(verdict_ms)
            .collect();
        out.put(&format!("solve_ms.{f}"), median(&v));
    }
    out.notes.push(format!(
        "timed phase {secs:.2} s: {server_jobs_per_s:.3} {}jobs settled per s, {} acks, {} verdicts timed",
        if sliced { "batch " } else { "" },
        acks.len(),
        verdicts.len()
    ));
    if ctx.trace {
        let split = |traced: bool| -> Vec<f64> {
            in_window(latency_role)
                .filter(|s| s.traced == traced)
                .map(verdict_ms)
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

    // Representative specs for the in-process layer measurements: the
    // first full cycle of the workload's own job mix.
    let specs: Vec<JobSpec> = if sliced {
        (0..10)
            .map(|n| gen::batch_job(ctx.seed, "batch0", n, ctx.small))
            .collect()
    } else {
        (0..10)
            .map(|n| gen::tiny_job(ctx.seed, "small0", n))
            .collect()
    };
    let requests = logs
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.requests))
        .collect();
    Ok(ServedRun {
        outcome: out,
        specs,
        requests,
        tracer,
        slice_ticks: if sliced {
            1000
        } else {
            SchedulerConfig::default().slice_ticks
        },
    })
}

/// For `oneshot`, which has no server: a short run on an idle default
/// server (five tiny jobs, one per family) so the serve-layer metrics
/// exist; returns its request bytes for the protocol replay.
pub fn idle_server_probe(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<Vec<u8>>, String> {
    let (server, _) = ServerProc::start(&ctx.bins.lb_serve, &ctx.work.join("probe-spool"), None)?;
    let w = Window::new(now(), 3600.0, true);
    let mut log = ConnLog::default();
    {
        let mut c = connect(&server.addr)?;
        maybe_stats(&mut c, &w, &mut log, false, None)?;
        for n in 0..5 {
            let spec = gen::tiny_job(ctx.seed, "probe", n);
            submit_and_wait(&mut c, spec, Role::Probe, n, &w, &mut log, tr)?;
        }
        maybe_stats(&mut c, &w, &mut log, true, None)?;
    }
    check_verdicts(&log.samples.iter().collect::<Vec<_>>(), out);
    let pair =
        stats_pair(std::slice::from_ref(&log)).ok_or("no STATS pair in the idle-server probe")?;
    put_stats_delta(&pair, out);
    let secs = (pair.1 - pair.0).as_secs_f64();
    out.put("server.jobs_per_s", counter_delta(&pair, "done") / secs);
    net_probe(&server.addr, tr, out)?;
    server.stop()?;
    Ok(log.requests)
}
