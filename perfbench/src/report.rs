//! Turning one measured run into checks, end-to-end metrics and per-layer
//! metrics.

use crate::committee::Layers;
use crate::ledger::LedgerProbe;
use crate::load::{SenderReport, TxGen, ACCOUNTS};
use crate::stats::{mean, quantile};
use crate::trace::{mean_us, Counter, HostTrace};
use nt_types::CommitEvent;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A transaction not applied this long after it was due misses the SLO.
const SLO_NS: u64 = 3_000_000_000;

/// Everything a run hands over for reporting.
pub struct Raw {
    /// The workload seed the sender generated its transfers from.
    pub seed: u64,
    pub sent: SenderReport,
    /// Measurement window `[start, end)` on the shared clock.
    pub window: (u64, u64),
    /// Process CPU in the window, minus the sender thread's.
    pub cpu_ns: u64,
    pub peak_rss_mb: f64,
    pub threads: u64,
    pub live: Vec<usize>,
    pub logs: Vec<Vec<CommitEvent>>,
    /// Validator 0's log length when the window opened and closed.
    pub log0_window: (usize, usize),
    pub probes: Vec<Arc<LedgerProbe>>,
    pub stream_drops: u64,
    pub layers: Option<Layers>,
    pub hosts: Vec<HostTrace>,
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Outcome of the correctness checks.
pub struct Checks {
    pub results: Vec<(&'static str, bool, String)>,
}

impl Checks {
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|(_, ok, _)| *ok)
    }
}

/// A run's derived figures.
pub struct Measured {
    pub raw: Raw,
    pub sent: u64,
    pub never_applied: u64,
    /// `apply_at[id - 1]`: when validator 0 applied `id` (0 = never).
    apply_at: Vec<u64>,
    /// Latency (ns) of each transaction due in the window and applied.
    latencies: Vec<f64>,
    due_in_window: u64,
    slo_misses: u64,
    committed_in_window: u64,
    pub checks: Checks,
}

impl Measured {
    pub fn new(raw: Raw) -> Measured {
        let sent = raw.sent.due_ns.len() as u64;
        let stamps = raw.probes[0].take_stamps();
        let mut apply_at = vec![0u64; sent as usize];
        let (mut unknown, mut duplicates) = (0u64, 0u64);
        for &(id, at) in &stamps {
            match apply_at.get_mut((id as usize).wrapping_sub(1)) {
                Some(slot) if *slot == 0 => *slot = at,
                Some(_) => duplicates += 1,
                None => unknown += 1,
            }
        }
        let never_applied = apply_at.iter().filter(|&&at| at == 0).count() as u64;
        let (w0, w1) = raw.window;
        let committed_in_window = apply_at.iter().filter(|&&at| at >= w0 && at < w1).count() as u64;
        let mut latencies = Vec::new();
        let (mut due_in_window, mut slo_misses) = (0u64, 0u64);
        for (due, &at) in raw.sent.due_ns.iter().zip(&apply_at) {
            if *due < w0 || *due >= w1 {
                continue;
            }
            due_in_window += 1;
            if at == 0 {
                slo_misses += 1;
                continue;
            }
            let latency = at.saturating_sub(*due);
            if latency > SLO_NS {
                slo_misses += 1;
            }
            latencies.push(latency as f64);
        }
        latencies.sort_by(f64::total_cmp);
        let checks = run_checks(&raw, sent, unknown, duplicates, &apply_at);
        Measured {
            raw,
            sent,
            never_applied,
            apply_at,
            latencies,
            due_in_window,
            slo_misses,
            committed_in_window,
            checks,
        }
    }

    fn window_s(&self) -> f64 {
        (self.raw.window.1 - self.raw.window.0) as f64 / 1e9
    }

    pub fn goodput_tps(&self) -> f64 {
        self.committed_in_window as f64 / self.window_s()
    }

    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies, q) / 1e6
    }

    pub fn slo_miss_pct(&self) -> f64 {
        100.0 * self.slo_misses as f64 / self.due_in_window.max(1) as f64
    }

    pub fn tx_failed_pct(&self) -> f64 {
        100.0 * self.never_applied as f64 / self.sent.max(1) as f64
    }

    pub fn cpu_ms_per_ktx(&self) -> f64 {
        (self.raw.cpu_ns as f64 / 1e6) / (self.committed_in_window as f64 / 1e3)
    }

    /// `p50/p99` of the transactions due in each second of the window.
    fn per_second(&self) -> String {
        let (w0, w1) = self.raw.window;
        let mut buckets = vec![Vec::new(); ((w1 - w0) / 1_000_000_000).max(1) as usize];
        for (&due, &at) in self.raw.sent.due_ns.iter().zip(&self.apply_at) {
            if due >= w0 && due < w1 && at > 0 {
                let b = (((due - w0) / 1_000_000_000) as usize).min(buckets.len() - 1);
                buckets[b].push((at - due) as f64 / 1e6);
            }
        }
        buckets
            .iter_mut()
            .map(|b| {
                b.sort_by(f64::total_cmp);
                format!("{:.0}/{:.0}", quantile(b, 0.5), quantile(b, 0.99))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn late_p99_ms(&self) -> f64 {
        let (w0, w1) = self.raw.window;
        let mut late: Vec<f64> = self
            .raw
            .sent
            .due_ns
            .iter()
            .zip(&self.raw.sent.late_ns)
            .filter(|(due, _)| **due >= w0 && **due < w1)
            .map(|(_, late)| *late as f64 / 1e6)
            .collect();
        late.sort_by(f64::total_cmp);
        quantile(&late, 0.99)
    }
}

fn run_checks(raw: &Raw, sent: u64, unknown: u64, duplicates: u64, apply_at: &[u64]) -> Checks {
    let mut results = Vec::new();
    // Agreement on the common committed prefix, and app roots there.
    let base = &raw.logs[0];
    let (mut disagree, mut root_mismatch, mut shared) = (Vec::new(), Vec::new(), usize::MAX);
    for (i, log) in raw.logs.iter().enumerate().skip(1) {
        let common = base.len().min(log.len());
        shared = shared.min(common);
        let v = raw.live[i];
        if let Some(k) = (0..common).find(|&k| {
            (base[k].sequence, base[k].header_digest) != (log[k].sequence, log[k].header_digest)
        }) {
            disagree.push(format!("v{v}@{}", k + 1));
        }
        if let Some(k) = (0..common).find(|&k| base[k].app_root != log[k].app_root) {
            root_mismatch.push(format!("v{v}@{}", k + 1));
        }
    }
    let shortest = raw.logs.iter().map(Vec::len).min().unwrap_or(0);
    results.push((
        "prefix_agreement",
        disagree.is_empty() && shortest > 0,
        format!(
            "{} live primaries, common prefix {} blocks, disagreements {:?}",
            raw.logs.len(),
            shared.min(base.len()),
            disagree
        ),
    ));
    let gaps: Vec<String> = raw
        .logs
        .iter()
        .enumerate()
        .filter_map(|(i, log)| {
            let k = log
                .iter()
                .enumerate()
                .position(|(k, ev)| ev.sequence != k as u64 + 1)?;
            Some(format!("v{}@{}", raw.live[i], k + 1))
        })
        .collect();
    results.push((
        "gapless",
        gaps.is_empty() && raw.stream_drops == 0,
        format!("gaps {gaps:?}, lagged commit events {}", raw.stream_drops),
    ));
    results.push((
        "app_root_agreement",
        root_mismatch.is_empty(),
        format!("mismatches {root_mismatch:?}"),
    ));
    let missing: u64 = raw
        .probes
        .iter()
        .map(|p| p.missing_batches.load(Ordering::Relaxed))
        .sum();
    results.push((
        "applied_exactly_once",
        unknown == 0 && duplicates == 0 && missing == 0,
        format!(
            "{sent} sent, {} applied at v0, unknown ids {unknown}, duplicates {duplicates}, unresolved batches {missing}",
            raw.probes[0].applied_txs.load(Ordering::Relaxed)
        ),
    ));
    let totals: Vec<i64> = raw
        .probes
        .iter()
        .map(|p| p.net_total.load(Ordering::Relaxed))
        .collect();
    results.push((
        "ledger_conserves",
        totals.iter().all(|&t| t == 0),
        format!("net_total per validator {totals:?}"),
    ));
    // Validator 0's balances against the transfers it applied, regenerated
    // from the seed: lost, duplicated or corrupted transfers show here.
    let mut expected = vec![0i64; ACCOUNTS as usize];
    let mut gen = TxGen::new(raw.seed);
    for &at in apply_at {
        let (from, to, amount) = gen.transfer();
        if at != 0 {
            expected[from as usize] -= amount as i64;
            expected[to as usize] += amount as i64;
        }
    }
    let actual = raw.probes[0].balances();
    let wrong = if actual.len() == expected.len() {
        expected.iter().zip(&actual).filter(|(e, a)| e != a).count()
    } else {
        expected.len()
    };
    results.push((
        "ledger_balances",
        wrong == 0,
        format!(
            "v0 balances of {} accounts against {} applied transfers regenerated from the seed: {wrong} differ",
            expected.len(),
            apply_at.iter().filter(|&&at| at != 0).count()
        ),
    ));
    Checks { results }
}

/// The end-to-end metrics of the result line, in `BENCHMARK.json` order.
///
/// `slo_miss_pct` and `tx_failed_pct` are printed in the summary but left
/// out here: on a healthy run both are 0, and a zero median gives a bound
/// nothing to scale. Failures still reach the result as `failed`.
/// `latency_p99_ms` is printed too, and recorded by the traced run, but not
/// gated: on `bullshark4-steady` the re-proposal tail holds 1-5% of
/// transactions, and whether a batch re-proposed twice pushes more than 1%
/// past ~15 s changes from run to run, so the p99 jumps between ~8 s and
/// ~16 s.
pub fn end_to_end_metrics(m: &Measured, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("goodput_tps", m.goodput_tps(), "tx/s"),
        metric("latency_p50_ms", m.latency_ms(0.50), "ms"),
        metric("cpu_ms_per_ktx", m.cpu_ms_per_ktx(), "ms/ktx"),
        metric("peak_rss_mb", m.raw.peak_rss_mb, "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Human-readable summary of one run: all eight end-to-end figures and the
/// checks.
pub fn print_end_to_end(label: &str, m: &Measured, setup_s: Option<f64>) {
    println!("[{label}]");
    println!("  goodput_tps     {:>12.1} tx/s", m.goodput_tps());
    println!(
        "  latency_p50_ms  {:>12.1} ms  ({} samples due in window)",
        m.latency_ms(0.50),
        m.latencies.len()
    );
    println!(
        "  latency_p99_ms  {:>12.1} ms  ({} samples due in window)",
        m.latency_ms(0.99),
        m.latencies.len()
    );
    println!(
        "  slo_miss_pct    {:>12.3} %   ({} of {} due in window not applied within 3 s)",
        m.slo_miss_pct(),
        m.slo_misses,
        m.due_in_window
    );
    println!(
        "  tx_failed_pct   {:>12.3} %   ({} of {} sent never applied by end of drain)",
        m.tx_failed_pct(),
        m.never_applied,
        m.sent
    );
    println!("  cpu_ms_per_ktx  {:>12.2} ms/ktx", m.cpu_ms_per_ktx());
    println!("  latency p50/p99 ms by second due: {}", m.per_second());
    println!("  peak_rss_mb     {:>12.1} MB", m.raw.peak_rss_mb);
    if let Some(s) = setup_s {
        println!("  setup_s         {s:>12.3} s");
    }
    let passed = m.checks.results.iter().filter(|(_, ok, _)| *ok).count();
    println!(
        "  checks run: {} of {} passed",
        passed,
        m.checks.results.len()
    );
    for (name, ok, detail) in &m.checks.results {
        println!("    {} {name}: {detail}", if *ok { "ok  " } else { "FAIL" });
    }
}

/// The per-layer metrics of a traced run, with the tracing overhead
/// against the untraced `reference`.
pub fn layer_metrics(m: &Measured, reference: &Measured) -> Vec<Metric> {
    let raw = &m.raw;
    let window_s = m.window_s();
    let layers = raw.layers.as_ref().expect("traced run");
    let mut out = Vec::new();

    // nt_storage, summed over validators.
    let put = total(layers.stores.iter().map(|s| &s.put));
    let get = total(layers.stores.iter().map(|s| &s.get));
    let delete = total(layers.stores.iter().map(|s| &s.delete));
    let sync = total(layers.stores.iter().map(|s| &s.sync));
    let put_bytes: u64 = layers
        .stores
        .iter()
        .map(|s| s.put_bytes.load(Ordering::Relaxed))
        .sum();
    out.push(metric("storage.put_count", put.0 as f64, "count"));
    out.push(metric("storage.put_us", mean_us(put.0, put.1), "us"));
    out.push(metric("storage.get_count", get.0 as f64, "count"));
    out.push(metric("storage.get_us", mean_us(get.0, get.1), "us"));
    out.push(metric("storage.delete_count", delete.0 as f64, "count"));
    out.push(metric(
        "storage.delete_us",
        mean_us(delete.0, delete.1),
        "us",
    ));
    out.push(metric("storage.put_mb", put_bytes as f64 / 1e6, "MB"));
    out.push(metric("storage.sync_count", sync.0 as f64, "count"));
    out.push(metric("storage.sync_us", mean_us(sync.0, sync.1), "us"));

    // nt_execution, summed over validators.
    let apply = total(raw.probes.iter().map(|p| &p.apply));
    let snapshot = total(raw.probes.iter().map(|p| &p.snapshot));
    let txs: u64 = raw
        .probes
        .iter()
        .map(|p| p.txs.load(Ordering::Relaxed))
        .sum();
    out.push(metric("execution.apply_count", apply.0 as f64, "count"));
    out.push(metric(
        "execution.apply_us",
        mean_us(apply.0, apply.1),
        "us",
    ));
    out.push(metric(
        "execution.snapshot_count",
        snapshot.0 as f64,
        "count",
    ));
    out.push(metric(
        "execution.snapshot_us",
        mean_us(snapshot.0, snapshot.1),
        "us",
    ));
    out.push(metric("execution.txs", txs as f64, "count"));

    // narwhal::worker and narwhal::primary handle times, by message kind.
    let handle = |workers: bool, kind: &str| -> f64 {
        let (c, ns) = raw
            .hosts
            .iter()
            .filter(|h| h.is_worker == workers)
            .filter_map(|h| h.handle.get(kind))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        mean_us(c, ns)
    };
    let workers = || raw.hosts.iter().filter(|h| h.is_worker);
    let sealed: u64 = workers().map(|h| h.batches_sealed).sum();
    let sealed_txs: u64 = workers().map(|h| h.sealed_txs).sum();
    let batch_sends: u64 = workers().map(|h| h.batch_sends).sum();
    out.push(metric(
        "worker.client_tx_us",
        handle(true, "client_tx"),
        "us",
    ));
    out.push(metric("worker.batch_us", handle(true, "batch"), "us"));
    out.push(metric(
        "worker.batch_ack_us",
        handle(true, "batch_ack"),
        "us",
    ));
    out.push(metric(
        "worker.seal_timer_us",
        handle(true, "timer.seal"),
        "us",
    ));
    out.push(metric("worker.batches_sealed", sealed as f64, "count"));
    out.push(metric(
        "worker.txs_per_batch",
        sealed_txs as f64 / sealed.max(1) as f64,
        "tx",
    ));
    out.push(metric(
        "worker.batch_sends_per_batch",
        batch_sends as f64 / sealed.max(1) as f64,
        "count",
    ));

    // nt_codec.
    let (enc, dec) = raw.hosts.iter().fold(((0, 0), (0, 0)), |(e, d), h| {
        (
            (e.0 + h.encode.0, e.1 + h.encode.1),
            (d.0 + h.decode.0, d.1 + h.decode.1),
        )
    });
    out.push(metric("codec.encode_us", mean_us(enc.0, enc.1), "us"));
    out.push(metric("codec.decode_us", mean_us(dec.0, dec.1), "us"));
    let encoded = |kind: &str| -> (u64, u64) {
        raw.hosts
            .iter()
            .filter_map(|h| h.encoded.get(kind))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    for (name, kind) in [
        ("codec.batch_bytes", "batch"),
        ("codec.header_bytes", "header"),
        ("codec.vote_bytes", "vote"),
        ("codec.cert_bytes", "cert"),
    ] {
        let (count, bytes) = encoded(kind);
        out.push(metric(name, bytes as f64 / count.max(1) as f64, "B"));
    }

    // narwhal::primary.
    out.push(metric("primary.header_us", handle(false, "header"), "us"));
    out.push(metric("primary.vote_us", handle(false, "vote"), "us"));
    out.push(metric("primary.cert_us", handle(false, "cert"), "us"));
    let v0 = raw
        .hosts
        .iter()
        .find(|h| !h.is_worker && h.validator == 0)
        .expect("validator 0 primary");
    let rounds_per_s = v0.rounds.map_or(0.0, |((t0, r0), (t1, r1))| {
        if t1 > t0 {
            (r1 - r0) as f64 / ((t1 - t0) as f64 / 1e9)
        } else {
            0.0
        }
    });
    out.push(metric("primary.rounds_per_s", rounds_per_s, "1/s"));
    let sync_requests: u64 = raw.hosts.iter().map(|h| h.sync_requests).sum();
    out.push(metric(
        "primary.sync_requests",
        sync_requests as f64,
        "count",
    ));

    // Consensus: plug-in time, and commits decided in the window at v0.
    let oc = total(layers.consensus.iter().map(|c| &**c));
    out.push(metric(
        "consensus.on_certificate_us",
        mean_us(oc.0, oc.1),
        "us",
    ));
    let (l0, l1) = raw.log0_window;
    let log0 = &raw.logs[0][l0.min(raw.logs[0].len())..l1.min(raw.logs[0].len())];
    let counters =
        |ev: Option<&CommitEvent>| ev.map_or((0, 0), |e| (e.direct_commits, e.indirect_commits));
    let before = counters(l0.checked_sub(1).and_then(|i| raw.logs[0].get(i)));
    let after = counters(log0.last());
    out.push(metric(
        "consensus.direct_commits",
        after.0.saturating_sub(before.0) as f64,
        "count",
    ));
    out.push(metric(
        "consensus.indirect_commits",
        after.1.saturating_sub(before.1) as f64,
        "count",
    ));
    let depth: Vec<f64> = log0
        .iter()
        .filter(|e| e.decided_round >= e.round)
        .map(|e| (e.decided_round - e.round) as f64)
        .collect();
    out.push(metric("consensus.decision_rounds", mean(&depth), "rounds"));

    // nt_runtime: drivers and transport.
    let busy: u64 = raw.hosts.iter().map(|h| h.busy_ns).sum();
    let wait: u64 = raw.hosts.iter().map(|h| h.wait_ns).sum();
    let send: u64 = raw.hosts.iter().map(|h| h.send_ns).sum();
    let frames: u64 = raw.hosts.iter().map(|h| h.encode.0).sum();
    let bytes: u64 = raw
        .hosts
        .iter()
        .flat_map(|h| h.encoded.values())
        .map(|(_, b)| b)
        .sum();
    let dropped: u64 = raw.hosts.iter().map(|h| h.dropped_sends).sum();
    out.push(metric(
        "runtime.driver_busy_ms_per_s",
        busy as f64 / 1e6 / window_s,
        "ms/s",
    ));
    out.push(metric(
        "runtime.driver_wait_ms_per_s",
        wait as f64 / 1e6 / window_s,
        "ms/s",
    ));
    out.push(metric("runtime.send_us", mean_us(frames, send), "us"));
    out.push(metric("runtime.threads", raw.threads as f64, "count"));
    out.push(metric("transport.frames_out", frames as f64, "count"));
    out.push(metric("transport.bytes_out", bytes as f64 / 1e6, "MB"));
    out.push(metric("transport.dropped_sends", dropped as f64, "count"));

    // Stage latencies along the path of each transaction due in the window.
    out.extend(stage_metrics(m));
    out.push(metric("loadgen.late_p99_ms", m.late_p99_ms(), "ms"));

    // Tracing overhead against the untraced reference run.
    let (p50, ref_p50) = (m.latency_ms(0.5), reference.latency_ms(0.5));
    let (cpu, ref_cpu) = (m.cpu_ms_per_ktx(), reference.cpu_ms_per_ktx());
    out.push(metric("trace.latency_p50_ms", p50, "ms"));
    out.push(metric("trace.latency_p99_ms", m.latency_ms(0.99), "ms"));
    out.push(metric("trace.cpu_ms_per_ktx", cpu, "ms/ktx"));
    out.push(metric("untraced.latency_p50_ms", ref_p50, "ms"));
    out.push(metric(
        "untraced.latency_p99_ms",
        reference.latency_ms(0.99),
        "ms",
    ));
    out.push(metric("untraced.cpu_ms_per_ktx", ref_cpu, "ms/ktx"));
    out.push(metric(
        "overhead.latency_p50_pct",
        100.0 * (p50 / ref_p50 - 1.0),
        "%",
    ));
    out.push(metric(
        "overhead.cpu_pct",
        100.0 * (cpu / ref_cpu - 1.0),
        "%",
    ));

    // Per-layer values may legitimately be undefined (no calls of a kind);
    // report those as 0 so the result stays valid JSON.
    for metric in &mut out {
        if !metric.value.is_finite() {
            metric.value = 0.0;
        }
    }
    out
}

/// `(calls, ns)` summed over `counters`.
fn total<'a>(counters: impl Iterator<Item = &'a Counter>) -> (u64, u64) {
    counters.fold((0, 0), |a, c| (a.0 + c.count(), a.1 + c.ns()))
}

/// Mean time per hop, over the transactions due in the window whose every
/// hop was stamped, and how well the hops add up to the mean latency.
fn stage_metrics(m: &Measured) -> Vec<Metric> {
    let raw = &m.raw;
    let layers = raw.layers.as_ref().expect("traced run");
    let mut recv = HashMap::new();
    let mut batch_of = HashMap::new();
    let mut sealed = HashMap::new();
    let mut reported = HashMap::new();
    let mut header_of = HashMap::new();
    let mut headed = HashMap::new();
    let mut certified = HashMap::new();
    for h in &raw.hosts {
        for &(id, at) in &h.tx_recv {
            recv.entry(id).or_insert(at);
        }
        for &(id, key) in &h.tx_batch {
            batch_of.entry(id).or_insert(key);
        }
        for &(key, at) in &h.sealed {
            sealed.entry(key).or_insert(at);
        }
        for &(key, digest, at) in &h.reported {
            reported.entry(key).or_insert((digest, at));
        }
        for (header, payload, at) in &h.headers {
            headed.entry(*header).or_insert(*at);
            for batch in payload {
                header_of
                    .entry(*batch)
                    .or_insert_with(Vec::new)
                    .push(*header);
            }
        }
        for &(header, at) in &h.certified {
            certified.entry(header).or_insert(at);
        }
    }
    let ordered: HashMap<[u8; 32], u64> = {
        let stamps = layers.stores[0].ordered.lock().expect("ordered");
        let mut map = HashMap::new();
        for &(d, at) in stamps.iter() {
            map.entry(d).or_insert(at);
        }
        map
    };

    // A batch whose header is garbage-collected uncommitted is re-proposed
    // in a later header: follow the header that was actually ordered.
    let committed_header = |batch: &[u8; 32]| -> Option<[u8; 32]> {
        header_of
            .get(batch)?
            .iter()
            .filter_map(|h| Some((*ordered.get(h)?, *h)))
            .min()
            .map(|(_, h)| h)
    };
    let (w0, w1) = raw.window;
    let mut hops = [const { Vec::new() }; 7];
    let mut unlinked = [0u64; 7];
    let mut e2e_all = Vec::new();
    for (i, (&due, &applied)) in raw.sent.due_ns.iter().zip(&m.apply_at).enumerate() {
        if due < w0 || due >= w1 || applied == 0 {
            continue;
        }
        e2e_all.push((applied - due) as f64 / 1e6);
        let id = i as u64 + 1;
        // Each hop's stamp, or the index of the first hop left unstamped.
        let chain = (|| -> Result<[u64; 8], usize> {
            let received = *recv.get(&id).ok_or(0usize)?;
            let key = *batch_of.get(&id).ok_or(1usize)?;
            let sealed_at = *sealed.get(&key).ok_or(1usize)?;
            let (digest, quorum) = *reported.get(&key).ok_or(2usize)?;
            let header = committed_header(&digest).ok_or(3usize)?;
            Ok([
                due,
                received,
                sealed_at,
                quorum,
                *headed.get(&header).ok_or(3usize)?,
                *certified.get(&header).ok_or(4usize)?,
                *ordered.get(&header).ok_or(5usize)?,
                applied,
            ])
        })();
        let chain = chain.map_err(|k| unlinked[k] += 1).ok();
        if let Some(t) = chain {
            for (k, hop) in hops.iter_mut().enumerate() {
                hop.push((t[k + 1] as f64 - t[k] as f64) / 1e6);
            }
        }
    }
    let names = [
        "stage.recv_ms",
        "stage.seal_ms",
        "stage.quorum_ms",
        "stage.header_ms",
        "stage.certify_ms",
        "stage.order_ms",
        "stage.apply_ms",
    ];
    let mut out: Vec<Metric> = names
        .iter()
        .zip(&hops)
        .map(|(name, hop)| metric(name, mean(hop), "ms"))
        .collect();
    if unlinked.iter().any(|&u| u > 0) {
        println!("  stage stamps missing per hop (recv..apply): {unlinked:?}");
    }
    let sum: f64 = out.iter().map(|m| m.value).sum();
    let e2e = mean(&e2e_all);
    out.push(metric("stage.sum_ms", sum, "ms"));
    out.push(metric("stage.latency_mean_ms", e2e, "ms"));
    out.push(metric(
        "stage.sum_gap_pct",
        100.0 * (sum - e2e).abs() / e2e,
        "%",
    ));
    out.push(metric(
        "stage.traced_share_pct",
        100.0 * hops[0].len() as f64 / e2e_all.len().max(1) as f64,
        "%",
    ));
    out
}

/// The result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
