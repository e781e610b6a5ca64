//! Metric definitions, folding and output.
//!
//! Host metrics (wall clock, memory) fold a run's repetitions: the
//! request rate pools them, set-up and per-layer times are medians. Virtual metrics (simulated time and counts) come from the
//! first run of each of the run's schedules: every later repetition of a
//! schedule must reproduce them exactly, which the correctness gate
//! checks through the fingerprint.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::trace::{Layers, Op, OpTotals};
use crate::workloads::Rep;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Ledger name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A tail percentile of a sorted sample: the highest of p99, p95, p90,
/// p75 and p50 with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile.
    pub pct: f64,
    /// Samples beyond it.
    pub beyond: usize,
}

impl Tail {
    /// The tail percentile for `n` samples.
    pub fn for_samples(n: usize) -> Tail {
        let beyond = |pct| n.saturating_sub(rank(n, pct));
        let pct = [99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|&pct| beyond(pct) >= 10)
            .unwrap_or(50.0);
        Tail {
            pct,
            beyond: beyond(pct),
        }
    }
}

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of sorted nanoseconds, in milliseconds.
fn pct_ms(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    sorted_ns[rank(sorted_ns.len(), pct) - 1] as f64 * 1e-6
}

/// The tail percentile of one sorted sample, in milliseconds.
pub fn tail_ms(sorted_ns: &[u64]) -> f64 {
    pct_ms(sorted_ns, Tail::for_samples(sorted_ns.len()).pct)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Latency samples pooled over the run's schedules, sorted.
struct Pooled {
    starts_ns: Vec<u64>,
    sojourns_ns: Vec<u64>,
    tail: Tail,
}

impl Pooled {
    fn new(schedules: &[Rep]) -> Pooled {
        let pool = |f: fn(&Rep) -> &Vec<u64>| {
            let mut v: Vec<u64> = schedules
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        let starts_ns = pool(|r| &r.starts_ns);
        let tail = Tail::for_samples(starts_ns.len());
        Pooled {
            starts_ns,
            sojourns_ns: pool(|r| &r.sojourns_ns),
            tail,
        }
    }
}

/// The end-to-end metrics. `sim_req_per_s` is every untraced
/// repetition's requests over their summed run time: the host's speed
/// drifts between fast and slow spells lasting seconds, and a median of
/// per-repetition rates jumps with whichever spell covers most
/// repetitions, where the pooled rate moves only with their share.
/// `setup_s` is the median over the same repetitions. Virtual figures are
/// pooled over the first run of each schedule.
pub fn end_to_end(plain: &[Rep], schedules: &[Rep]) -> Vec<Metric> {
    let pooled = Pooled::new(schedules);
    vec![
        m(
            "sim_req_per_s",
            "req/s",
            plain.iter().map(|r| r.requests as f64).sum::<f64>()
                / plain.iter().map(|r| r.run_s).sum::<f64>(),
        ),
        m(
            "setup_s",
            "s",
            median(plain.iter().map(|r| r.setup_s).collect()),
        ),
        m("peak_rss_mib", "MiB", peak_rss_mib()),
        m(
            "sojourn_tail_ms",
            "ms",
            pct_ms(&pooled.sojourns_ns, pooled.tail.pct),
        ),
        m(
            "fleet_host_s",
            "s",
            schedules.iter().map(|r| r.fleet_host_s).sum(),
        ),
    ]
}

/// The per-layer metrics. Times are medians over the traced
/// repetitions; counts are means over the run's schedules (the first
/// traced run of each), so both describe one schedule.
pub fn per_layer(plain: &[Rep], traced: &[(Rep, Layers)], schedules: usize) -> Vec<Metric> {
    let first = &traced[..schedules];
    let n = schedules as f64;
    let time = |f: &dyn Fn(&Layers) -> f64| median(traced.iter().map(|(_, l)| f(l)).collect());
    let total = |op: Op| time(&|l: &Layers| l.op(op).total_s);
    let own = |op: Op| time(&|l: &Layers| l.op(op).self_s);
    let per_schedule =
        |f: &dyn Fn(&Rep, &Layers) -> f64| first.iter().map(|(r, l)| f(r, l)).sum::<f64>() / n;
    let calls = |op: Op| per_schedule(&|_, l| l.op(op).calls as f64);
    let count = |name: &str| per_schedule(&|r, _| r.counts.get(name).copied().unwrap_or(0.0));
    let req = per_schedule(&|r, _| r.requests as f64);
    let completed = per_schedule(&|r, _| r.completed as f64);
    let cold = per_schedule(&|r, _| r.cold_starts as f64);
    let failed = per_schedule(&|r, _| r.failed as f64);
    let residency = per_schedule(&|_, l| l.residency_probes as f64);
    let defers = per_schedule(&|_, l| l.defers as f64);
    let untraced = median(plain.iter().map(|r| r.run_s).collect());
    let traced_run = median(traced.iter().map(|(r, _)| r.run_s).collect());
    let ops = count("lang.interp_ops") + count("lang.jit_ops");
    let ic = count("lang.ic_hits") + count("lang.ic_misses");
    let cache = count("core.cache.hits") + count("core.cache.misses");
    let chunks = count("store.chunks.inserts") + count("store.chunks.dedup_hits");
    vec![
        m("requests", "count", req),
        m("completed", "count", completed),
        m("cold_start_share", "share", ratio(cold, completed)),
        m("failed_share", "share", ratio(failed, req)),
        m("workloads.gen_s", "s", total(Op::Gen)),
        m("core.cluster.build_s", "s", total(Op::Build)),
        m("core.cluster.install_s", "s", total(Op::Install)),
        m("core.cluster.run_s", "s", total(Op::Run)),
        m("core.cluster.self_s", "s", own(Op::Run)),
        m("core.cluster.residency_probes", "count", residency),
        m(
            "core.cluster.residency_probes_per_req",
            "count/req",
            ratio(residency, req),
        ),
        m(
            "core.cluster.events_per_req",
            "count/req",
            ratio(count("core.cluster.events"), req),
        ),
        m(
            "core.cluster.locality_hit_ratio",
            "ratio",
            ratio(count("core.cluster.locality_hits"), completed),
        ),
        m(
            "core.cluster.rebalances",
            "count",
            count("core.cluster.rebalances"),
        ),
        m("core.route.calls", "count", calls(Op::Route)),
        m("core.route.self_s", "s", own(Op::Route)),
        m("core.route.defers", "count", defers),
        m(
            "core.elastic.scale_ups",
            "count",
            count("core.elastic.scale_ups"),
        ),
        m("core.elastic.drains", "count", count("core.elastic.drains")),
        m(
            "core.elastic.migrations",
            "count",
            count("core.elastic.migrations"),
        ),
        m(
            "core.elastic.prewarms",
            "count",
            count("core.elastic.prewarms"),
        ),
        m(
            "core.elastic.retired",
            "count",
            count("core.elastic.retired"),
        ),
        m(
            "core.elastic.resurrections",
            "count",
            count("core.elastic.resurrections"),
        ),
        m(
            "core.elastic.peak_hosts",
            "count",
            count("core.elastic.peak_hosts"),
        ),
        m(
            "core.elastic.audit_violations",
            "count",
            count("core.elastic.audit_violations"),
        ),
        m("core.platform.begin_invoke_s", "s", total(Op::BeginInvoke)),
        m(
            "core.platform.begin_invoke_calls",
            "count",
            calls(Op::BeginInvoke),
        ),
        m(
            "core.platform.finish_invoke_s",
            "s",
            total(Op::FinishInvoke),
        ),
        m(
            "core.platform.finish_invoke_calls",
            "count",
            calls(Op::FinishInvoke),
        ),
        m("core.platform.install_s", "s", total(Op::PlatformInstall)),
        m(
            "core.platform.install_calls",
            "count",
            calls(Op::PlatformInstall),
        ),
        m("core.platform.register_s", "s", total(Op::Register)),
        m("core.platform.register_calls", "count", calls(Op::Register)),
        m("core.platform.prewarm_calls", "count", calls(Op::Prewarm)),
        m("core.platform.retire_calls", "count", calls(Op::Retire)),
        m(
            "core.platform.store_audit_calls",
            "count",
            calls(Op::StoreAudit),
        ),
        m("core.cache.hits", "count", count("core.cache.hits")),
        m("core.cache.misses", "count", count("core.cache.misses")),
        m(
            "core.cache.hit_ratio",
            "ratio",
            ratio(count("core.cache.hits"), cache),
        ),
        m("lang.ops", "count", ops),
        m("lang.ops_per_req", "count/req", ratio(ops, req)),
        m(
            "lang.jit_op_share",
            "ratio",
            ratio(count("lang.jit_ops"), ops),
        ),
        m("lang.compiles", "count", count("lang.compiles")),
        m("lang.deopts", "count", count("lang.deopts")),
        m("lang.ic_lookups", "count", ic),
        m(
            "lang.ic_hit_ratio",
            "ratio",
            ratio(count("lang.ic_hits"), ic),
        ),
        m("lang.code_evictions", "count", count("lang.code_evictions")),
        m(
            "microvm.restore.attempts",
            "count",
            count("microvm.restore.attempts"),
        ),
        m(
            "microvm.restore.pages_verified_per_restore",
            "count",
            ratio(
                count("microvm.restore.pages_verified"),
                count("microvm.restore.attempts"),
            ),
        ),
        m(
            "microvm.snapshot.captures",
            "count",
            count("microvm.snapshot.captures"),
        ),
        m(
            "microvm.snapshot.pages_written",
            "count",
            count("microvm.snapshot.pages_written"),
        ),
        m(
            "microvm.reap.prefetch_hits",
            "count",
            count("microvm.reap.prefetch_hits"),
        ),
        m(
            "microvm.reap.major_faults",
            "count",
            count("microvm.reap.major_faults"),
        ),
        m(
            "guestmem.cow_faults_per_req",
            "count/req",
            ratio(count("guestmem.cow_faults"), req),
        ),
        m("guestmem.zero_fills", "count", count("guestmem.zero_fills")),
        m(
            "guestmem.used_mib_end",
            "MiB",
            count("guestmem.used_mib_end"),
        ),
        m(
            "store.chunks.inserts",
            "count",
            count("store.chunks.inserts"),
        ),
        m(
            "store.chunks.dedup_hits",
            "count",
            count("store.chunks.dedup_hits"),
        ),
        m(
            "store.chunks.evictions",
            "count",
            count("store.chunks.evictions"),
        ),
        m(
            "store.dedup_hit_ratio",
            "ratio",
            ratio(count("store.chunks.dedup_hits"), chunks),
        ),
        m("store.unique_mib", "MiB", count("store.unique_mib")),
        m("store.logical_mib", "MiB", count("store.logical_mib")),
        m("core.delta.fetches", "count", count("core.delta.fetches")),
        m(
            "core.delta.fallbacks",
            "count",
            count("core.delta.fallbacks"),
        ),
        m(
            "core.delta.chunks_fetched",
            "count",
            count("core.delta.chunks_fetched"),
        ),
        m(
            "core.delta.mib_fetched",
            "MiB",
            count("core.delta.bytes_fetched") / (1u64 << 20) as f64,
        ),
        m(
            "net.transfer.segments",
            "count",
            count("net.transfer.segments"),
        ),
        m(
            "net.transfer.retransmits",
            "count",
            count("net.transfer.retransmits"),
        ),
        m(
            "obs.span_events_per_req",
            "count/req",
            ratio(count("obs.span_events"), req),
        ),
        m("obs.metric_series", "count", count("obs.metric_series")),
        m("trace.run_untraced_s", "s", untraced),
        m("trace.run_traced_s", "s", traced_run),
        m("trace.overhead_share", "share", traced_run / untraced - 1.0),
    ]
}

/// Prints the human-readable detail above the result line: the
/// end-to-end metrics, the pooled start and sojourn percentiles with
/// their sample counts, and with tracing the full per-operation span
/// table.
pub fn print_detail(
    plain: &[Rep],
    schedules: &[Rep],
    e2e: &[Metric],
    traced: Option<&[(Rep, Layers)]>,
) {
    let list = |f: fn(&Rep) -> f64| {
        plain
            .iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  per repetition: setup_s [{}]", list(|r| r.setup_s));
    println!("  per repetition: run_s   [{}]", list(|r| r.run_s));
    let pooled = Pooled::new(schedules);
    let (tail, n) = (pooled.tail, pooled.starts_ns.len());
    let completed: usize = schedules.iter().map(|r| r.completed).sum();
    let requests: usize = schedules.iter().map(|r| r.requests).sum();
    let cold: u64 = schedules.iter().map(|r| r.cold_starts).sum();
    println!(
        "  pooled over {} schedules: {n} successful starts of {requests} requests, tail = p{} ({} samples beyond it)",
        schedules.len(),
        tail.pct,
        tail.beyond
    );
    println!(
        "  start   p50 {:.6} ms  p{} {:.6} ms   sojourn p50 {:.6} ms  p{} {:.6} ms",
        pct_ms(&pooled.starts_ns, 50.0),
        tail.pct,
        pct_ms(&pooled.starts_ns, tail.pct),
        pct_ms(&pooled.sojourns_ns, 50.0),
        tail.pct,
        pct_ms(&pooled.sojourns_ns, tail.pct),
    );
    println!(
        "  cold_start_share {:.6} ({cold} of {completed})   failed_share {:.6} ({} of {requests})",
        ratio(cold as f64, completed as f64),
        ratio((requests - completed) as f64, requests as f64),
        requests - completed
    );
    for metric in e2e {
        println!(
            "  {:<20} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let Some(traced) = traced else { return };
    println!(
        "  span            calls/rep     total_s        self_s  (medians over {} traced reps)",
        traced.len()
    );
    let ops: Vec<Op> = traced[0].1.ops.keys().copied().collect();
    for op in ops {
        let med =
            |f: &dyn Fn(OpTotals) -> f64| median(traced.iter().map(|(_, l)| f(l.op(op))).collect());
        println!(
            "  {:<14} {:>10} {:>13.6} {:>13.6}",
            op.name(),
            med(&|t| t.calls as f64),
            med(&|t| t.total_s),
            med(&|t| t.self_s)
        );
    }
    let first = &traced[..schedules.len()];
    println!("  program counters, summed over labels (mean per schedule):");
    let names: BTreeSet<&String> = first
        .iter()
        .flat_map(|(r, _)| r.program_counters.keys())
        .collect();
    for name in names {
        let total: u64 = first
            .iter()
            .map(|(r, _)| r.program_counters.get(name).copied().unwrap_or(0))
            .sum();
        println!("    {name:<40} {}", total as f64 / first.len() as f64);
    }
}

/// The result line.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; a ratio without a base reads 0.
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    out
}
