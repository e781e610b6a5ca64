//! Fleet benchmark.
//!
//! ```text
//! fleetbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Runs one workload (see `README.md`) on five schedules drawn from
//! `--seed`, repeating set-up and run for at least `--seconds` of host
//! time, checks every repetition's outputs, and
//! prints as its last line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! untraced and traced repetitions alternate and the metrics are the
//! per-layer ones. `--spans` writes the last traced repetition's spans.
//! `--workload all` runs every workload in a process of its own.

mod metrics;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use metrics::{end_to_end, per_layer, Metric};
use trace::Layers;
use trace::Tracer;
use workloads::{Rep, Workload};

/// Schedules per run. The run draws this many schedule seeds from
/// `--seed`, runs each once, and pools their virtual results, so a tail
/// rests on five schedules' samples rather than one. Further
/// repetitions, while `--seconds` lasts, cycle through the same
/// schedules and only add host-time samples.
const SCHEDULES: usize = 5;

const USAGE: &str = "usage: fleetbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Workload::from_name(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match Workload::from_name(&args.workload) {
        Some(w) => measure(w, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measures one workload and prints its report.
fn measure(w: Workload, args: &Args) -> ExitCode {
    let reference = w.reference();
    let seeds: Vec<u64> = (0..SCHEDULES as u64)
        .map(|i| args.seed.wrapping_mul(SCHEDULES as u64).wrapping_add(i))
        .collect();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Layers)> = Vec::new();
    let mut last_tracer = None;
    let mut problems: Vec<String> = Vec::new();
    let mut i = 0;
    // Once every schedule has run, another iteration starts only if, at
    // the mean iteration time so far, it would end less than half an
    // iteration past the budget: a run measures `--seconds` give or take
    // half an iteration, however long one iteration is.
    while i < SCHEDULES || start.elapsed() + start.elapsed() / (2 * i as u32) < budget {
        let k = i % SCHEDULES;
        let mut rep = w.run(seeds[k], false, None, &reference);
        problems.append(&mut rep.problems);
        if i >= SCHEDULES {
            check_same(&plain[k], &rep, &mut problems);
            rep.drop_samples();
        }
        if args.trace {
            let tracer = Tracer::new();
            let mut t = w.run(seeds[k], false, Some(&tracer), &reference);
            problems.append(&mut t.problems);
            check_same(
                if i < SCHEDULES { &rep } else { &plain[k] },
                &t,
                &mut problems,
            );
            t.drop_samples();
            let layers = t.layers.take().expect("a traced run folds its spans");
            traced.push((t, layers));
            if args.spans.is_some() {
                last_tracer = Some(tracer);
            }
        }
        plain.push(rep);
        i += 1;
    }
    problems.sort();
    problems.dedup();

    let all = || plain.iter().chain(traced.iter().map(|(r, _)| r));
    let attempted: usize = all().map(|r| r.requests).sum();
    let failed: usize = all().map(|r| r.failed).sum();
    let schedules = &plain[..SCHEDULES];
    println!(
        "workload={} seed={} schedule_seeds={:?} reps={} correct={}",
        w.name(),
        args.seed,
        seeds,
        all().count(),
        problems.is_empty()
    );
    for (seed, rep) in seeds.iter().zip(schedules) {
        println!(
            "  schedule seed={seed} requests={} fingerprint={:#018x} sojourn_p{} {:.3} ms",
            rep.requests,
            rep.fingerprint,
            metrics::Tail::for_samples(rep.sojourns_ns.len()).pct,
            metrics::tail_ms(&rep.sojourns_ns),
        );
    }
    for p in &problems {
        println!("  FAILED: {p}");
    }
    let e2e = end_to_end(&plain, schedules);
    metrics::print_detail(&plain, schedules, &e2e, args.trace.then_some(&traced[..]));
    let shown: Vec<Metric> = if args.trace {
        per_layer(&plain, &traced, SCHEDULES)
    } else {
        e2e
    };
    if let (Some(path), Some(tracer)) = (&args.spans, &last_tracer) {
        if let Err(e) = write_spans(path, tracer) {
            eprintln!("writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        metrics::result_json(problems.is_empty(), attempted, failed, &shown)
    );
    ExitCode::SUCCESS
}

/// Repetitions of one schedule must reproduce its virtual results.
fn check_same(expected: &Rep, rep: &Rep, problems: &mut Vec<String>) {
    if rep.fingerprint != expected.fingerprint {
        problems.push(format!(
            "fingerprint {:#018x} differs from an earlier run of the same schedule ({:#018x})",
            rep.fingerprint, expected.fingerprint
        ));
    }
    if rep.audits != expected.audits
        || rep.counts != expected.counts
        || rep.program_counters != expected.program_counters
    {
        problems.push("store audits or layer counts differ between runs of one schedule".into());
    }
}

fn write_spans(path: &str, tracer: &Tracer) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_spans(&mut out)?;
    out.flush()
}
