//! One-command benchmark of the GPUTx serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tm1-wire --seed 1 --seconds 5 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the untraced run;
//! `--trace 1` also replays the run's stream through each layer with spans
//! and reports the per-layer metrics. Either way every reply and the final
//! state are checked against a serial replay, and a failed check exits
//! non-zero without printing a result. The last line of standard output is
//! the result as one JSON object. See `perfbench/README.md`.

mod live;
mod oracle;
mod replay;
mod stats;
mod trace;

use live::{Live, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Scratch directory, relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds takes an integer from 1 to 600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The filesystem type of the mount holding `path`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

fn host_facts(workload: Workload, work_dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let fsync = if workload.durable() {
        "per-bulk"
    } else {
        "none (no WAL)"
    };
    println!(
        "host: nproc={nproc} cpu=\"{cpu}\" fsync={fsync} wal_fs={}",
        filesystem_of(work_dir)
    );
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Check the untraced run's replies and final state against the serial
/// replay, and its counters against each other.
fn check(workload: Workload, live: &Live) -> Result<(), String> {
    let r = &live.result;
    if r.failed > 0 {
        return Err(format!(
            "{} of {} requests failed (first: {}); failed requests cannot be checked",
            r.failed,
            r.attempted(),
            r.first_failure.as_deref().unwrap_or("?")
        ));
    }
    if let Some(server) = &live.server {
        if server.requests != r.attempted() || server.protocol_errors != 0 {
            return Err(format!(
                "the server parsed {} requests with {} protocol errors; the client sent {}",
                server.requests,
                server.protocol_errors,
                r.attempted()
            ));
        }
    }
    if live.pipeline.transactions() != r.attempted() {
        return Err(format!(
            "the engine resolved {} transactions; {} were submitted",
            live.pipeline.transactions(),
            r.attempted()
        ));
    }
    if let Some(durable) = &live.durable {
        if let Some(e) = durable.errors.first() {
            return Err(e.clone());
        }
    }
    let committed: Vec<bool> = r.replies.iter().map(|c| c.unwrap_or(false)).collect();
    let bounds = match &live.durable {
        Some(d) => oracle::Boundaries::Logged(&d.quotas),
        None => oracle::Boundaries::Replied(&r.visible_before),
    };
    let (replayed, boundaries) = oracle::replay(
        workload.build().db,
        &live.registry,
        &live.stream,
        &committed,
        bounds,
    )?;
    oracle::compare(&replayed, &live.final_db, "engine")?;
    println!(
        "correct: {} replies and the final state match the serial replay \
         ({boundaries} bulk boundaries placed between pending inserts)",
        r.attempted()
    );
    Ok(())
}

/// Throughput and latency percentiles over a set of the window's seconds.
struct WindowStats {
    seconds: usize,
    tps: f64,
    latencies: Vec<f64>,
}

impl WindowStats {
    fn over(r: &live::LoopResult, seconds: &[usize]) -> WindowStats {
        let mut latencies: Vec<f64> = seconds
            .iter()
            .flat_map(|&s| r.latencies_by_second.get(s).into_iter().flatten().copied())
            .collect();
        latencies.sort_by(f64::total_cmp);
        WindowStats {
            seconds: seconds.len(),
            tps: per(latencies.len() as f64, seconds.len() as f64),
            latencies,
        }
    }

    fn pct(&self, p: f64) -> Result<f64, String> {
        stats::percentile(&self.latencies, p)
            .ok_or_else(|| "no reply arrived inside the window".into())
    }

    fn print(&self, label: &str) -> Result<(), String> {
        let n = self.latencies.len();
        println!(
            "{label} ({} s): throughput {:.1} txn/s; latency p50 {:.4} ms, p95 {:.4} ms ({} beyond), \
             p99 {:.4} ms ({} beyond); {n} replies",
            self.seconds,
            self.tps,
            self.pct(50.0)?,
            self.pct(95.0)?,
            n - n * 95 / 100,
            self.pct(99.0)?,
            n - n * 99 / 100,
        );
        Ok(())
    }
}

fn end_to_end(workload: Workload, live: &Live) -> Result<Vec<Metric>, String> {
    let r = &live.result;
    let window = r.window_secs as usize;
    let all: Vec<usize> = (0..window).collect();
    let quiet = stats::least_disturbed(&r.steal_by_second);
    let whole = WindowStats::over(r, &all);
    let reported = WindowStats::over(r, &quiet);
    let setup = stats::median(&live.setup_secs).expect("set-up ran");
    println!(
        "{}: attempted={} failed={} error_ratio={} (failed / attempted)",
        workload.name(),
        r.attempted(),
        r.failed,
        per(r.failed as f64, r.attempted() as f64)
    );
    let steal: Vec<String> = r
        .steal_by_second
        .iter()
        .map(|s| format!("{:.1}", s * 100.0))
        .collect();
    println!("CPU steal by second of the window (%): {}", steal.join(" "));
    println!(
        "commits: {:.1} txn/s over the whole window ({} committed)",
        r.committed_in_window as f64 / r.window_secs,
        r.committed_in_window
    );
    let p99_by_second: Vec<String> = r
        .latencies_by_second
        .iter()
        .map(|l| format!("{:.2}", stats::percentile(l, 99.0).unwrap_or(0.0)))
        .collect();
    println!(
        "latency p99 by second of the window (ms): {}",
        p99_by_second.join(" ")
    );
    whole.print("whole window")?;
    reported.print("least-stolen seconds (reported)")?;
    let p50 = reported.pct(50.0)?;
    println!(
        "throughput_tps = {:.1} txn/s, latency_p50_ms = {p50:.4} ms (over the least-stolen seconds)",
        reported.tps
    );
    if live.new_order.is_some() {
        println!(
            "tpmc = {:.0} NEW_ORDER commits/min ({} in the whole window)",
            r.new_orders_in_window as f64 * 60.0 / r.window_secs,
            r.new_orders_in_window
        );
    }
    println!(
        "setup_s = {setup:.4} s (median of {} set-ups)",
        live.setup_secs.len()
    );
    println!(
        "peak_rss_mb = {:.1} MiB (VmHWM after the run)",
        live.peak_rss_mb
    );
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("throughput_tps", reported.tps, "txn/s"),
        m("latency_p50_ms", p50, "ms"),
        m("setup_s", setup, "s"),
        m("peak_rss_mb", live.peak_rss_mb, "MiB"),
    ])
}

fn per_layer(
    workload: Workload,
    live: &Live,
    out: &replay::ReplayOut,
    live_tps: f64,
) -> Vec<Metric> {
    let totals = trace::totals_by_name(out.tracer.spans());
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let c = &out.counts;
    let codec_ns = |name: &str| per(self_ns(name), c.codec_calls as f64);
    let (txns, bulks) = (c.txns as f64, c.bulks as f64);
    let r = &live.result;
    let p = &live.pipeline;
    let occupancy = p.occupancy();
    let server = live.server.clone().unwrap_or_default();
    let (decisions, switches) = match &live.decisions {
        Some(d) => ([d.kset, d.part, d.tpl], d.switches),
        None => (c.decisions, c.switches),
    };
    let primary = live.primary.clone().unwrap_or_default();
    let analytics = live.analytics.clone().unwrap_or_default();
    let durability = c.durability.unwrap_or_default();
    let aborted = r.replies.iter().filter(|x| **x == Some(false)).count() as f64;
    let layer_ns: f64 = totals
        .iter()
        .filter(|(name, _)| !name.starts_with("replay."))
        .map(|(_, t)| t.1 as f64)
        .sum();
    let replay_tps = per(txns, out.wall_secs);
    let wire = workload.wire();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "client.submit_us",
            if wire {
                per(r.submit_ns as f64, r.submit_calls as f64) / 1e3
            } else {
                0.0
            },
            "us",
        ),
        m(
            "server.decode_request_ns",
            codec_ns("server.decode_request"),
            "ns",
        ),
        m(
            "server.encode_response_ns",
            codec_ns("server.encode_response"),
            "ns",
        ),
        m("server.requests", server.requests as f64, "count"),
        m(
            "server.protocol_errors",
            server.protocol_errors as f64,
            "count",
        ),
        m("exec.bulks", p.bulks() as f64, "count"),
        m(
            "exec.bulk_size_mean",
            per(p.transactions() as f64, p.bulks() as f64),
            "txn",
        ),
        m("exec.close_by_size", p.closes.by_size as f64, "count"),
        m("exec.close_by_timer", p.closes.by_timer as f64, "count"),
        m("exec.occupancy.admission", occupancy[0], "ratio"),
        m("exec.occupancy.grouping", occupancy[1], "ratio"),
        m("exec.occupancy.execution", occupancy[2], "ratio"),
        m("exec.occupancy.commit", occupancy[3], "ratio"),
        m("exec.run_ns_per_txn", per(self_ns("exec.run"), txns), "ns"),
        m(
            "exec.abort_ratio",
            per(aborted, r.attempted() as f64),
            "ratio",
        ),
        m(
            "core.profile_ns_per_txn",
            per(self_ns("core.profile"), txns),
            "ns",
        ),
        m(
            "core.select_ns_per_bulk",
            per(self_ns("core.select"), bulks),
            "ns",
        ),
        m("core.switches", switches as f64, "count"),
        m("core.decisions.kset", decisions[0] as f64, "count"),
        m("core.decisions.part", decisions[1] as f64, "count"),
        m("core.decisions.tpl", decisions[2] as f64, "count"),
        m(
            "txn.schedule_ns_per_txn",
            per(self_ns("txn.schedule"), txns),
            "ns",
        ),
        m(
            "txn.kset_waves_per_bulk",
            per(c.kset_waves as f64, c.kset_bulks as f64),
            "waves/bulk",
        ),
        m(
            "txn.access_plan_ns_per_txn",
            per(self_ns("txn.access_plan"), txns),
            "ns",
        ),
        m(
            "txn.access_plan_entries_per_txn",
            per(c.access_entries as f64, txns),
            "entries/txn",
        ),
        m(
            "txn.stale_index_ratio",
            per(c.stale_indexes as f64, c.plan_indexes as f64),
            "ratio",
        ),
        m(
            "storage.apply_inserts_ns_per_txn",
            per(self_ns("storage.apply_inserts"), txns),
            "ns",
        ),
        m(
            "storage.rows_inserted_per_txn",
            per(c.rows_inserted as f64, txns),
            "rows/txn",
        ),
        m(
            "durability.capture_ns_per_txn",
            per(self_ns("durability.capture"), txns),
            "ns",
        ),
        m(
            "durability.append_us_per_bulk",
            per(self_ns("durability.append"), bulks) / 1e3,
            "us",
        ),
        m(
            "durability.wal_bytes_per_txn",
            per(durability.wal_bytes as f64, txns),
            "B/txn",
        ),
        m(
            "durability.fsyncs_per_bulk",
            per(durability.syncs as f64, bulks),
            "fsyncs/bulk",
        ),
        m(
            "replication.publish_us_per_bulk",
            per(self_ns("replication.publish"), bulks) / 1e3,
            "us",
        ),
        m(
            "replication.records_published",
            primary.records_published as f64,
            "count",
        ),
        m(
            "replication.records_shed",
            primary.records_shed as f64,
            "count",
        ),
        m(
            "analytics.publish_us_per_bulk",
            per(self_ns("analytics.publish"), bulks) / 1e3,
            "us",
        ),
        m("analytics.apply_us", analytics.apply_us, "us"),
        m(
            "analytics.chunks_rebuilt",
            analytics.chunks_rebuilt as f64,
            "count",
        ),
        m(
            "trace.coverage",
            per(layer_ns, out.wall_secs * 1e9),
            "ratio",
        ),
        m("trace.overhead", per(replay_tps, live_tps), "ratio"),
    ]
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn run(args: &Args) -> Result<String, String> {
    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    host_facts(args.workload, &work_dir);
    println!(
        "workload={} seed={} seconds={} in_flight={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        live::IN_FLIGHT,
        u8::from(args.trace)
    );
    let steal_before = live::cpu_steal();
    let mut live = live::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &work_dir,
    )?;
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, live::cpu_steal()) {
        println!(
            "host: {:.1}% of CPU time was stolen by the hypervisor during the run",
            per((s1 - s0) as f64 * 100.0, (t1 - t0) as f64)
        );
    }
    check(args.workload, &live).map_err(|e| format!("correctness check failed: {e}"))?;
    let e2e = end_to_end(args.workload, &live)?;
    let (attempted, failed) = (live.result.attempted(), live.result.failed);
    if !args.trace {
        return Ok(result_json(attempted, failed, &e2e));
    }

    let live_tps = e2e[0].value;
    let bulk_size = (per(
        live.pipeline.transactions() as f64,
        live.pipeline.bulks() as f64,
    )
    .round() as usize)
        .max(1);
    // The engine's final state is checked; free it before the replay
    // builds its own copies of the database.
    live.final_db = gputx_storage::Database::column_store();
    let out = replay::run(
        args.workload,
        args.workload.build().db,
        &live.registry,
        &live.stream,
        bulk_size,
        &work_dir,
    )?;
    println!(
        "replay: {} txns in {} bulks of {bulk_size} in {:.3}s",
        out.counts.txns, out.counts.bulks, out.wall_secs
    );
    let trace_path = work_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&trace_path, trace::to_json(out.tracer.spans()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("spans: {}", trace_path.display());
    let layers = per_layer(args.workload, &live, &out, live_tps);
    for m in &layers {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(attempted, failed, &layers))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
