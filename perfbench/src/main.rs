//! Wall-clock socket benchmark.
//!
//! Runs one workload on an in-process committee over loopback TCP, checks
//! the outputs, and prints one JSON result line last:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of one traced run (plus the
//! tracing overhead against an untraced run made first). The process exits
//! non-zero if any correctness check fails. See `README.md` next to this
//! crate for the workloads and the layer-to-metric map.

mod committee;
mod ledger;
mod load;
mod report;
mod stats;
mod sys;
mod trace;

use committee::{fresh_dir, Committee, Protocol, Spec};
use load::{spawn_sender, Load};
use report::Measured;
use std::os::unix::thread::JoinHandleExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::now_ns;

/// Committees set up per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Load runs this long before the measurement window opens.
const WARMUP: Duration = Duration::from_secs(2);
/// Longest wait, after the window, for sent transactions to apply. Covers
/// a batch re-proposed twice after garbage collection (~2 x 11 s at n=10).
const DRAIN_MAX: Duration = Duration::from_secs(35);
/// Longest wait for a fresh committee's first commits.
const SETUP_MAX: Duration = Duration::from_secs(20);
/// How often the main thread drains commit streams.
const POLL: Duration = Duration::from_millis(5);

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub spec: Spec,
    pub load: Load,
}

pub const WORKLOADS: &[Workload] = &[
    // The data path does most of the work: sealing, batch digests, batch
    // encode/decode, WAL puts, ledger apply. Closed loop, because
    // open-loop overload grows memory without bound. The window is the
    // smallest that reaches the goodput plateau; larger ones only queue.
    Workload {
        name: "tusk4-saturate",
        spec: Spec {
            n: 4,
            protocol: Protocol::Tusk,
            down: None,
        },
        load: Load::Closed { window: 6_000 },
    },
    // User-facing latency at normal load (~55% of the saturated goodput)
    // under the partially-synchronous rule; the multi-second Bullshark
    // tail shows here.
    Workload {
        name: "bullshark4-steady",
        spec: Spec {
            n: 4,
            protocol: Protocol::Bullshark,
            down: None,
        },
        load: Load::Open { rate_tps: 4_000.0 },
    },
    // Certificate crypto and DAG/ordering dominate; one validator is never
    // started, so skipped leaders and reconnects to a dead peer run too.
    Workload {
        name: "bullshark10-crash1",
        spec: Spec {
            n: 10,
            protocol: Protocol::Bullshark,
            down: Some(9),
        },
        load: Load::Open { rate_tps: 1_000.0 },
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
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
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    sys::now_ns(); // start the shared clock
    let root = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let result = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the workload and prints the result; `Ok(false)` if a check failed.
fn run(args: &Args, root: &Path) -> std::io::Result<bool> {
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} (n={}, {:?}, down={:?}, {:?}) seed {} window {} s trace {} cores {}",
        w.name,
        w.spec.n,
        w.spec.protocol,
        w.spec.down,
        w.load,
        args.seed,
        args.seconds,
        args.trace as u8,
        cores
    );
    let (metrics, runs) = if args.trace {
        let reference = {
            let committee = start_committee(w, false, root, "ref")?.0;
            measure(committee, w, args, false)?
        };
        let traced = {
            let committee = start_committee(w, true, root, "traced")?.0;
            measure(committee, w, args, true)?
        };
        report::print_end_to_end("untraced reference", &reference, None);
        report::print_end_to_end("traced", &traced, None);
        let metrics = report::layer_metrics(&traced, &reference);
        (metrics, vec![reference, traced])
    } else {
        let mut setups = Vec::new();
        let mut kept = None;
        for i in 0..SETUP_REPEATS {
            let (committee, setup) = start_committee(w, false, root, &format!("setup{i}"))?;
            setups.push(setup.as_secs_f64());
            if i + 1 == SETUP_REPEATS {
                kept = Some(committee);
            } else {
                committee.stop();
            }
        }
        let measured = measure(kept.expect("kept committee"), w, args, false)?;
        let setup_s = stats::median(&setups);
        println!(
            "setup_s samples: {}",
            setups
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        report::print_end_to_end("measured", &measured, Some(setup_s));
        let metrics = report::end_to_end_metrics(&measured, setup_s);
        (metrics, vec![measured])
    };
    let correct =
        runs.iter().all(|m| m.checks.all_passed()) && metrics.iter().all(|m| m.value.is_finite());
    let attempted: u64 = runs.iter().map(|m| m.sent).sum();
    let failed: u64 = runs.iter().map(|m| m.never_applied).sum();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// Starts a committee in a fresh directory and waits for its first
/// commits; returns it with the set-up time.
fn start_committee(
    w: &Workload,
    traced: bool,
    root: &Path,
    name: &str,
) -> std::io::Result<(Committee, Duration)> {
    let started = Instant::now();
    let dir = fresh_dir(root, name)?;
    let mut committee = Committee::start(w.spec, traced, &dir)?;
    committee.wait_first_commits(SETUP_MAX)?;
    Ok((committee, started.elapsed()))
}

/// Drives load through warm-up, the window and the drain, then stops the
/// committee and gathers everything the report needs.
fn measure(
    mut committee: Committee,
    w: &Workload,
    args: &Args,
    traced: bool,
) -> std::io::Result<Measured> {
    let stop = Arc::new(AtomicBool::new(false));
    let probe0 = committee.probes[0].clone();
    let sender = spawn_sender(
        &committee.client_addrs,
        w.load,
        args.seed,
        stop.clone(),
        probe0.clone(),
    )?;
    let sender_clock = sys::thread_cpu_clock(sender.as_pthread_t());
    let cpu_excl_sender = || sys::process_cpu_ns() - sys::thread_cpu_ns(sender_clock);

    let poll_until = |committee: &mut Committee, until: Instant| {
        while Instant::now() < until {
            committee.poll();
            std::thread::sleep(POLL);
        }
    };
    poll_until(&mut committee, Instant::now() + WARMUP);

    let cpu0 = cpu_excl_sender();
    let w0 = now_ns();
    let log0_start = committee.logs[0].len();
    trace::set_recording(traced);
    poll_until(
        &mut committee,
        Instant::now() + Duration::from_secs_f64(args.seconds),
    );
    trace::set_recording(false);
    let w1 = now_ns();
    let cpu1 = cpu_excl_sender();
    let log0_end = committee.logs[0].len();
    let threads = sys::thread_count();
    stop.store(true, Ordering::SeqCst);
    let sent = sender
        .join()
        .map_err(|_| std::io::Error::other("sender panicked"))??;

    let total = sent.due_ns.len() as u64;
    let drain_until = Instant::now() + DRAIN_MAX;
    while probe0.applied_txs.load(Ordering::Relaxed) < total && Instant::now() < drain_until {
        committee.poll();
        std::thread::sleep(POLL);
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let stream_drops = committee.stream_drops();
    let live = committee.live.clone();
    let probes = committee.probes.clone();
    let layers = committee.layers.take();
    let (logs, hosts) = committee.stop();
    Ok(Measured::new(report::Raw {
        seed: args.seed,
        sent,
        window: (w0, w1),
        cpu_ns: cpu1 - cpu0,
        peak_rss_mb,
        threads,
        live,
        logs,
        log0_window: (log0_start, log0_end),
        probes,
        stream_drops,
        layers,
        hosts,
    }))
}
