//! In-process per-layer measurements (traced runs only), each a span
//! around calls into one layer's public functions, on the workload's own
//! instances:
//!
//! - `protocol`: `parse_command` + `assemble` replayed over the run's
//!   recorded request bytes;
//! - `job`/`formats`: `JobSpec::instance`;
//! - `spool`: `Spool::save_record`, `Spool::save_checkpoint`;
//! - `scheduler`: `Scheduler::submit`, and queue wait in a small
//!   in-process replica of the workload's job mix;
//! - `runner`: `solve_slice` resumed from a mid-run checkpoint,
//!   `solve_to_verdict` sliced and one-shot;
//! - `lb_engine::checkpoint`: `Checkpoint::to_bytes` / `from_bytes`;
//! - `lb_join::trie`: `Trie::build`;
//! - the solver entry points, one-shot.
//!
//! Plus the machine note: core count, kernel, a 200-byte write + fsync,
//! and a bare loopback echo round trip.

use crate::oneshot::{self, Prepared};
use crate::report::Outcome;
use crate::trace::{median, ms, now, quantile, timed, Tracer};
use lb_engine::checkpoint::Checkpoint;
use lb_engine::Budget;
use lb_serve::job::{Instance, JobRecord, JobStatus};
use lb_serve::protocol::{assemble, parse_command, Command};
use lb_serve::runner::{self, SliceOutcome};
use lb_serve::{JobFamily, JobSpec, Scheduler, SchedulerConfig, Spool};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// Which solver entry points the workload's one-shot numbers use.
pub enum Entry<'a> {
    /// The resumable entry points the server slices, run uninterrupted.
    Served,
    /// The entry points `lbtool` calls (`oneshot`).
    Lbtool(&'a [Prepared]),
}

/// Repeats `f` at least `min` times and for at least 20 ms (at most 200
/// times); returns the median time of one call.
fn per_call(tr: &mut Tracer, name: &str, min: usize, mut f: impl FnMut()) -> Duration {
    let start = now();
    let mut times = Vec::new();
    while times.len() < min || (start.elapsed() < Duration::from_millis(20) && times.len() < 200) {
        let ((), took) = timed(|| tr.span(name, None, None, &mut f));
        times.push(took.as_secs_f64());
    }
    Duration::from_secs_f64(median(&times))
}

/// The protocol replay: every recorded request through `parse_command`
/// and, for submissions, `assemble`.
fn protocol(requests: &[Vec<u8>], tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut total = Duration::ZERO;
    let mut bytes = 0usize;
    for raw in requests {
        bytes += raw.len();
        let mut lines = raw.split(|&b| b == b'\n');
        let head = lines.next().unwrap_or_default();
        let payload: Vec<Vec<u8>> = lines.map(<[u8]>::to_vec).collect();
        let (parsed, took) = timed(|| {
            tr.span("protocol.parse", None, None, || {
                let cmd = parse_command(head)?;
                let body: &[Vec<u8>] = match &cmd {
                    Command::Submit { payload_lines, .. } => {
                        payload.get(..*payload_lines).unwrap_or(&payload)
                    }
                    _ => &[],
                };
                assemble(cmd, body, 2)
            })
        });
        parsed.map_err(|e| format!("replayed request failed to parse: {e}"))?;
        total += took;
    }
    let n = requests.len().max(1) as f64;
    out.put("protocol.parse_us", total.as_secs_f64() * 1e6 / n);
    out.put("protocol.request_bytes", bytes as f64 / n);
    Ok(())
}

/// A checkpoint from the middle of `inst`'s run (`None` when the whole
/// run takes a single tick).
fn mid_checkpoint(inst: &Instance, ticks: u64) -> Result<Option<Checkpoint>, String> {
    if ticks < 2 {
        return Ok(None);
    }
    let (outcome, _) =
        runner::solve_slice(inst, &Budget::ticks(ticks / 2), None).map_err(|e| e.to_string())?;
    Ok(match outcome {
        SliceOutcome::Suspended { checkpoint, .. } => Some(checkpoint),
        SliceOutcome::Done(_) => None,
    })
}

/// Measures every per-layer metric that runs in-process.
pub fn measure(
    specs: &[JobSpec],
    requests: &[Vec<u8>],
    slice_ticks: u64,
    entry: Entry<'_>,
    work: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    tr.set_enabled(true);
    protocol(requests, tr, out)?;
    let spool_dir = work.join("layers-spool");
    let spool = Spool::open(&spool_dir).map_err(|e| e.to_string())?;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut save_ck = Vec::new();
    let mut save_rec = Vec::new();
    let mut tries = Vec::new();
    for family in JobFamily::ALL {
        let fam: Vec<&JobSpec> = specs.iter().filter(|s| s.family == family).collect();
        let mut parse = Vec::new();
        let mut fixed = Vec::new();
        let mut ck_bytes = Vec::new();
        let (mut sliced_total, mut oneshot_total) = (Duration::ZERO, Duration::ZERO);
        let (mut ticks, mut solve_time) = (0u64, Duration::ZERO);
        for (i, spec) in fam.iter().enumerate() {
            let name = format!("formats.instance.{family}");
            let d = per_call(tr, &name, 3, || {
                let _parsed = spec.instance();
            });
            parse.push(ms(d));
            let inst = spec.instance().map_err(|e| e.to_string())?;
            // The first run warms caches and gives the tick count.
            let (_, stats, _) =
                runner::solve_to_verdict(&inst, u64::MAX, None).map_err(|e| e.to_string())?;
            let total_ticks = stats.total_ops();
            let one = per_call(tr, &format!("runner.oneshot.{family}"), 1, || {
                let _verdict = runner::solve_to_verdict(&inst, u64::MAX, None);
            });
            if let Entry::Served = entry {
                ticks += total_ticks;
                solve_time += one;
            }
            if i < 2 {
                sliced_total += per_call(tr, &format!("runner.sliced.{family}"), 1, || {
                    let _verdict = runner::solve_to_verdict(&inst, 1000, None);
                });
                oneshot_total += one;
            }
            let rec = JobRecord {
                id: format!("j{family}{i}"),
                spec: (*spec).clone(),
                status: JobStatus::Queued,
                preemptions: 0,
                spent: 0,
                attempts: 0,
            };
            // Each timed call is made once untimed first, so a failing
            // call is reported instead of timed.
            spool.save_record(&rec).map_err(|e| e.to_string())?;
            save_rec.push(ms(per_call(tr, "spool.save_record", 5, || {
                let _saved = spool.save_record(&rec);
            })));
            if let Instance::Join(q, db) = &inst {
                let mut build = Duration::ZERO;
                for atom in &q.atoms {
                    let Some(table) = db.table(&atom.relation) else {
                        continue;
                    };
                    let perm: Vec<usize> = (0..table.arity()).collect();
                    let rows = table.projected_sorted(&perm);
                    let (_trie, took) = timed(|| {
                        tr.span("trie.build", None, None, || {
                            lb_join::trie::Trie::build(&rows, table.arity())
                        })
                    });
                    build += took;
                }
                tries.push(ms(build));
            }
            let Some(ck) = mid_checkpoint(&inst, total_ticks)? else {
                continue;
            };
            let bytes = ck.to_bytes();
            ck_bytes.push(bytes.len() as f64);
            Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
            spool
                .save_checkpoint(&rec.id, &ck)
                .map_err(|e| e.to_string())?;
            runner::solve_slice(&inst, &Budget::ticks(1), Some(&ck)).map_err(|e| e.to_string())?;
            encode.push(
                per_call(tr, "checkpoint.encode", 5, || {
                    let _bytes = ck.to_bytes();
                })
                .as_secs_f64()
                    * 1e6,
            );
            decode.push(
                per_call(tr, "checkpoint.decode", 5, || {
                    let _ck = Checkpoint::from_bytes(&bytes);
                })
                .as_secs_f64()
                    * 1e6,
            );
            save_ck.push(ms(per_call(tr, "spool.save_checkpoint", 5, || {
                let _saved = spool.save_checkpoint(&rec.id, &ck);
            })));
            fixed.push(ms(per_call(
                tr,
                &format!("runner.slice.{family}"),
                5,
                || {
                    let _slice = runner::solve_slice(&inst, &Budget::ticks(1), Some(&ck));
                },
            )));
        }
        if let Entry::Lbtool(prepared) = &entry {
            for p in prepared.iter().filter(|p| p.input.family == family) {
                let (solved, took) = timed(|| {
                    tr.span(&format!("solver.{family}"), None, None, || {
                        oneshot::solve_in_process(&p.input)
                    })
                });
                ticks += solved?.1.total_ops();
                solve_time += took;
            }
        }
        out.put(
            &format!("formats.instance_parse_ms.{family}"),
            median(&parse),
        );
        out.put(
            &format!("spool.checkpoint_bytes.{family}"),
            median(&ck_bytes),
        );
        out.put(&format!("runner.slice_fixed_ms.{family}"), median(&fixed));
        let ratio = if oneshot_total.is_zero() {
            0.0
        } else {
            sliced_total.as_secs_f64() / oneshot_total.as_secs_f64()
        };
        out.put(&format!("runner.sliced_over_oneshot.{family}"), ratio);
        out.put(&format!("solver.ticks.{family}"), ticks as f64);
        let ns = if ticks == 0 {
            0.0
        } else {
            solve_time.as_secs_f64() * 1e9 / ticks as f64
        };
        out.put(&format!("solver.ns_per_tick.{family}"), ns);
    }
    out.put("checkpoint.encode_us", median(&encode));
    out.put("checkpoint.decode_us", median(&decode));
    out.put("spool.save_checkpoint_ms", median(&save_ck));
    out.put("spool.save_record_ms", median(&save_rec));
    out.put("join.trie_build_ms", median(&tries));
    scheduler(specs, slice_ticks, &work.join("layers-sched"), tr, out)?;
    std::fs::remove_dir_all(&spool_dir).map_err(|e| e.to_string())?;
    Ok(())
}

/// `Scheduler::submit` time, then queue wait (submit return → first seen
/// not `queued`) in a closed loop over the specs, on an in-process
/// scheduler with the workload's slice size and the default two workers.
fn scheduler(
    specs: &[JobSpec],
    slice_ticks: u64,
    dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = SchedulerConfig {
        slice_ticks,
        tenant_quota: 1 << 20,
        max_active: 1 << 20,
        ..SchedulerConfig::default()
    };
    let spool = Spool::open(dir).map_err(|e| e.to_string())?;
    let (sched, _report) = Scheduler::recover(spool, cfg).map_err(|e| e.to_string())?;
    let workers = sched.spawn_workers();
    let window = 4usize;
    let mut submits = Vec::new();
    let mut waits = Vec::new();
    let mut inflight: Vec<(String, std::time::Instant, bool)> = Vec::new();
    let mut next = 0usize;
    let deadline = now() + Duration::from_secs(2);
    let result = (|| -> Result<(), String> {
        while now() < deadline || !inflight.is_empty() {
            while inflight.len() < window && now() < deadline && !specs.is_empty() {
                let spec = specs.get(next % specs.len()).cloned().ok_or("no spec")?;
                next += 1;
                let (id, took) =
                    timed(|| tr.span("scheduler.submit", None, None, || sched.submit(spec)));
                let id = id.map_err(|e| e.to_line())?;
                submits.push(ms(took));
                inflight.push((id, now(), false));
            }
            std::thread::sleep(Duration::from_micros(100));
            for job in &mut inflight {
                let state = sched.status(&job.0).map(|r| r.state).unwrap_or_default();
                if !job.2 && state != "queued" {
                    job.2 = true;
                    waits.push(ms(job.1.elapsed()));
                }
                if state == "done" || state == "quarantined" {
                    job.0.clear();
                }
            }
            inflight.retain(|j| !j.0.is_empty());
        }
        Ok(())
    })();
    sched.drain();
    for w in workers {
        w.join()
            .map_err(|_panic| "scheduler worker panicked".to_string())?;
    }
    result?;
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    out.put("scheduler.submit_ms", median(&submits));
    out.put("scheduler.queue_wait_p50_ms", quantile(&waits, 0.5));
    out.put("scheduler.queue_wait_p90_ms", quantile(&waits, 0.9));
    Ok(())
}

/// The machine note: nproc, kernel, 200-byte write + fsync latency and a
/// bare loopback echo round trip. Returns the note line.
pub fn machine(work: &Path, out: &mut Outcome) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let path = work.join("fsync-probe");
    let mut fsyncs = Vec::new();
    for _ in 0..20 {
        let (r, took) = timed(|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&path)?;
            f.write_all(&[b'x'; 200])?;
            f.sync_all()
        });
        r.map_err(|e| format!("fsync probe: {e}"))?;
        fsyncs.push(ms(took));
    }
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let rtt = echo_rtt_ms().map_err(|e| format!("echo probe: {e}"))?;
    out.put("machine.nproc", nproc as f64);
    out.put("machine.fsync_200b_ms", median(&fsyncs));
    out.put("machine.loopback_rtt_ms", rtt);
    Ok(format!(
        "machine: nproc={nproc} kernel={kernel} fsync_200b_ms={:.4} loopback_rtt_ms={rtt:.4}",
        median(&fsyncs)
    ))
}

/// Median round trip of one byte through a bare loopback echo socket.
fn echo_rtt_ms() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut b = [0u8; 1];
        while s.read(&mut b)? == 1 {
            s.write_all(&b)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    c.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut times = Vec::new();
    let mut b = [0u8; 1];
    for _ in 0..200 {
        let start = now();
        c.write_all(b"x")?;
        c.read_exact(&mut b)?;
        times.push(ms(start.elapsed()));
    }
    drop(c);
    echo.join()
        .map_err(|_panic| std::io::Error::other("echo thread panicked"))??;
    Ok(median(&times))
}
