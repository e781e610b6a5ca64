//! The four workloads. Each drives the repository's public entry points
//! (`TraceSpec::generate`, `Cluster::run`, `ElasticCluster::run`,
//! `FireworksPlatform`, `SimPlatform`) and folds one repetition into a
//! [`Rep`]. All four are open loop in virtual time: arrivals come from a
//! schedule fixed by the seed, whatever the fleet does.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use fireworks_bench::scale::{ScalePoint, SimPlatform};
use fireworks_core::api::StoreAudit;
use fireworks_core::api::{
    ConcurrentPlatform, FunctionSpec, Invocation, InvokeRequest, Platform, StartKind,
};
use fireworks_core::cluster::{
    Cluster, ClusterCompletion, ClusterConfig, LocalityAffinity, Router,
};
use fireworks_core::elastic::{ElasticCluster, ElasticConfig, ElasticPolicy};
use fireworks_core::engine::EngineRequest;
use fireworks_core::env::PlatformEnv;
use fireworks_core::SnapshotStorePolicy;
use fireworks_core::{fid, FireworksPlatform, FunctionId, HostId, PlatformConfig};
use fireworks_guestmem::MemoryStats;
use fireworks_lang::{ExecStats, Value};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::rng::SplitMix64;
use fireworks_sim::Nanos;
use fireworks_store::ChunkStoreStats;
use fireworks_workloads::arrivals::{flash_crowd, poisson_schedule};
use fireworks_workloads::faasdom::Bench;

use crate::trace::{timed, Layers, Op, Timed, TimedRouter, Tracer};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Azure-shaped trace on 1024 cost-model hosts: routing-bound.
    AzureWide,
    /// The same generator on 16 hosts at 5x the requests: event-bound.
    AzureDeep,
    /// FaaSdom on four real post-JIT hosts: guest-execution-bound.
    FaasdomPostJit,
    /// A flash crowd on an elastic real-platform fleet: control-plane,
    /// store and delta-fetch bound.
    FlashCrowdElastic,
}

impl Workload {
    /// Every workload, in the order the ledger lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AzureWide,
        Workload::AzureDeep,
        Workload::FaasdomPostJit,
        Workload::FlashCrowdElastic,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AzureWide => "azure-wide",
            Workload::AzureDeep => "azure-deep",
            Workload::FaasdomPostJit => "faasdom-post-jit",
            Workload::FlashCrowdElastic => "flash-crowd-elastic",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the correctness gate compares each response with, computed
    /// once per process and outside every timed section.
    pub fn reference(self) -> Reference {
        match self {
            Workload::AzureWide | Workload::AzureDeep => Reference::EchoesExec,
            Workload::FaasdomPostJit => Reference::values(&faasdom_mix()),
            Workload::FlashCrowdElastic => Reference::values(&light_mix()),
        }
    }

    /// Runs one repetition: set-up, the timed run, then the fold and the
    /// correctness gate (untimed). `small` shrinks the workload for tests.
    pub fn run(
        self,
        seed: u64,
        small: bool,
        tracer: Option<&Rc<Tracer>>,
        reference: &Reference,
    ) -> Rep {
        match self {
            Workload::AzureWide => {
                let (hosts, invocations) = if small { (64, 3_000) } else { (1024, 100_000) };
                azure(hosts, invocations, seed, tracer)
            }
            Workload::AzureDeep => {
                let (hosts, invocations) = if small { (4, 6_000) } else { (16, 500_000) };
                azure(hosts, invocations, seed, tracer)
            }
            Workload::FaasdomPostJit => {
                faasdom(if small { 40 } else { 480 }, seed, tracer, reference)
            }
            Workload::FlashCrowdElastic => {
                flash(if small { 1 } else { 4 }, seed, tracer, reference)
            }
        }
    }
}

/// The expected response of every request.
pub enum Reference {
    /// The cost-model platform returns the execution time it was asked
    /// to charge (the request's `Value::Int` nanoseconds).
    EchoesExec,
    /// Per function: the value a blocking `Platform::invoke` returns on
    /// a fresh single-host platform.
    Values(BTreeMap<FunctionId, Value>),
}

impl Reference {
    fn values(mix: &[(FunctionSpec, Value)]) -> Reference {
        Reference::Values(
            mix.iter()
                .map(|(spec, args)| {
                    let mut platform =
                        FireworksPlatform::with_config(PlatformEnv::default_env(), dedup_config());
                    platform.install(spec).expect("reference install");
                    let id = fid(&spec.name);
                    let value = platform
                        .invoke(&InvokeRequest::new(id, args.deep_clone()))
                        .expect("reference invoke")
                        .value;
                    (id, value)
                })
                .collect(),
        )
    }

    fn check(&self, req: &InvokeRequest, inv: &Invocation) -> bool {
        match self {
            Reference::EchoesExec => inv.value == req.args,
            Reference::Values(values) => values.get(&req.function) == Some(&inv.value),
        }
    }
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of set-up: generation, fleet construction, installs.
    pub setup_s: f64,
    /// Host seconds of the fleet's `run` call.
    pub run_s: f64,
    /// Requests attempted.
    pub requests: usize,
    /// Requests that completed with a result.
    pub completed: usize,
    /// Requests that completed with an error or were refused.
    pub failed: usize,
    /// FNV over every completion's index, host, start and finish.
    pub fingerprint: u64,
    /// Start latencies (queue wait plus startup) of successful requests,
    /// nanoseconds, sorted.
    pub starts_ns: Vec<u64>,
    /// Sojourns (arrival to completion) of successful requests,
    /// nanoseconds, sorted.
    pub sojourns_ns: Vec<u64>,
    /// Successful starts that were `StartKind::ColdBoot`.
    pub cold_starts: u64,
    /// Powered host-seconds of virtual time.
    pub fleet_host_s: f64,
    /// Deterministic per-layer counts, by ledger name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Every counter of the program's metrics registry, summed across
    /// its labels (`{host=..}` and the like).
    pub program_counters: BTreeMap<String, u64>,
    /// Store audits of every host at the end of the run, as text.
    pub audits: Vec<String>,
    /// Correctness-gate failures.
    pub problems: Vec<String>,
    /// Span totals of a traced repetition, folded when its run ends
    /// (before the benchmark's own post-run calls add spans).
    pub layers: Option<Layers>,
}

/// Stats a host platform exposes beyond the platform traits.
pub trait HostStats {
    /// Chunk-store statistics, if the platform has a chunk store.
    fn chunk_stats(&self) -> Option<ChunkStoreStats>;
    /// Host memory statistics, if the platform exposes its environment.
    fn memory(&self) -> Option<MemoryStats>;
}

impl HostStats for SimPlatform {
    fn chunk_stats(&self) -> Option<ChunkStoreStats> {
        None
    }
    fn memory(&self) -> Option<MemoryStats> {
        None
    }
}

impl HostStats for FireworksPlatform {
    fn chunk_stats(&self) -> Option<ChunkStoreStats> {
        FireworksPlatform::chunk_stats(self)
    }
    fn memory(&self) -> Option<MemoryStats> {
        Some(self.env().host_mem.stats())
    }
}

impl<P: HostStats> HostStats for Timed<P> {
    fn chunk_stats(&self) -> Option<ChunkStoreStats> {
        self.inner().chunk_stats()
    }
    fn memory(&self) -> Option<MemoryStats> {
        self.inner().memory()
    }
}

/// Splits a function mix into the specs to install and the
/// `(id, arguments)` pairs a schedule draws requests from.
fn split(mix: Vec<(FunctionSpec, Value)>) -> (Vec<FunctionSpec>, Vec<(FunctionId, Value)>) {
    mix.into_iter()
        .map(|(spec, args)| {
            let id = fid(&spec.name);
            (spec, (id, args))
        })
        .unzip()
}

fn dedup_config() -> PlatformConfig {
    PlatformConfig::builder()
        .snapshot_store(SnapshotStorePolicy::dedup())
        .build()
}

// ---------------------------------------------------------------- azure-*

/// Azure-shaped trace through a fixed `SimPlatform` fleet under
/// locality-affinity routing: `ScalePoint`'s 2 000 tenants x 2 functions,
/// 8 slots per host, every function installed on its home host only.
fn azure(hosts: usize, invocations: u64, seed: u64, tracer: Option<&Rc<Tracer>>) -> Rep {
    let setup = Instant::now();
    let point = ScalePoint::new(hosts, invocations, seed);
    let (specs, schedule) = timed(tracer.map(|t| &**t), Op::Gen, || {
        let spec = point.trace_spec();
        let trace = spec.generate();
        let specs: Vec<FunctionSpec> = (0..spec.functions())
            .map(|f| {
                let name = spec.function_id(f).name();
                FunctionSpec::new(&*name, "", RuntimeKind::NodeLike, Value::Null)
            })
            .collect();
        let schedule: Vec<EngineRequest> = trace
            .events
            .iter()
            .map(|e| {
                EngineRequest::at(
                    e.at,
                    InvokeRequest::new(e.function, Value::Int(e.exec.as_nanos() as i64)),
                )
            })
            .collect();
        (specs, schedule)
    });
    let config = ClusterConfig::new(hosts, point.slots_per_host);
    let fleet = Fleet {
        specs: &specs,
        schedule: &schedule,
        reference: &Reference::EchoesExec,
        setup,
    };
    let mut rep = match tracer {
        None => fleet.fixed(
            config,
            |env, _| SimPlatform::new(env),
            LocalityAffinity::new(),
            None,
        ),
        Some(t) => fleet.fixed(
            config,
            |env, _| Timed::new(SimPlatform::new(env), t.clone()),
            TimedRouter::new(LocalityAffinity::new(), t.clone()),
            Some(t),
        ),
    };
    let warm = rep.completed as u64 - rep.cold_starts;
    if warm <= rep.cold_starts {
        rep.problems.push(format!(
            "warm starts ({warm}) do not exceed cold starts ({})",
            rep.cold_starts
        ));
    }
    rep
}

// ------------------------------------------------------- faasdom-post-jit

/// The 8 FaaSdom functions (4 benches x {NodeLike, PythonLike}) with the
/// arguments every request carries.
fn faasdom_mix() -> Vec<(FunctionSpec, Value)> {
    [RuntimeKind::NodeLike, RuntimeKind::PythonLike]
        .into_iter()
        .flat_map(|runtime| {
            Bench::ALL
                .into_iter()
                .map(move |b| (b.spec(runtime), b.request_params()))
        })
        .collect()
}

/// FaaSdom on a fixed 4-host real-platform fleet with the dedup store:
/// 2 slots and an admission queue of 1 per host, so a busy home host
/// spills to peers that delta-fetch the snapshot. Poisson arrivals, 10 ms
/// mean gap, where starts are restore-dominated. Each block of eight
/// arrivals carries every function once, in a seeded order: matrix-mult
/// costs ~50x netlatency on the host, so a uniform draw would make the
/// host work of a schedule depend on how many it happened to draw.
fn faasdom(requests: usize, seed: u64, tracer: Option<&Rc<Tracer>>, reference: &Reference) -> Rep {
    let setup = Instant::now();
    let (specs, schedule) = timed(tracer.map(|t| &**t), Op::Gen, || {
        let (specs, ids) = split(faasdom_mix());
        let arrivals = poisson_schedule(seed, requests, Nanos::from_millis(10), &ids[..1]);
        let mut rng = SplitMix64::new(seed ^ 0x0F0F_0F0F_0F0F_0F0F);
        let mut order: Vec<usize> = Vec::new();
        let schedule = arrivals
            .into_iter()
            .map(|r| {
                if order.is_empty() {
                    order = (0..ids.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.next_below(i as u64 + 1) as usize);
                    }
                }
                let (function, args) = &ids[order.pop().expect("refilled above")];
                EngineRequest::at(r.arrival, InvokeRequest::new(*function, args.deep_clone()))
            })
            .collect::<Vec<_>>();
        (specs, schedule)
    });
    let mut config = ClusterConfig::new(4, 2);
    config.host_queue_cap = 1;
    config.platform = dedup_config();
    let fleet = Fleet {
        specs: &specs,
        schedule: &schedule,
        reference,
        setup,
    };
    match tracer {
        None => fleet.fixed(
            config,
            |env, cfg| FireworksPlatform::with_config(env, cfg.clone()),
            LocalityAffinity::new(),
            None,
        ),
        Some(t) => fleet.fixed(
            config,
            |env, cfg| Timed::new(FireworksPlatform::with_config(env, cfg.clone()), t.clone()),
            TimedRouter::new(LocalityAffinity::new(), t.clone()),
            Some(t),
        ),
    }
}

// ---------------------------------------------------- flash-crowd-elastic

/// Six light-loop functions. The user code differs per function, so the
/// heap pages diverge while runtime and JIT pages stay chunk-identical.
fn light_mix() -> Vec<(FunctionSpec, Value)> {
    (0..6)
        .map(|i| {
            let source = format!(
                "fn main(params) {{
                    let n = params[\"n\"];
                    let t = {i};
                    for (let j = 0; j < n; j = j + 1) {{ t = t + j * {}; }}
                    return t;
                }}",
                i + 1
            );
            let args = Value::map([("n".to_string(), Value::Int(2_000))]);
            let spec = FunctionSpec::new(
                format!("svc-{i}"),
                source,
                RuntimeKind::NodeLike,
                args.deep_clone(),
            );
            (spec, args)
        })
        .collect()
}

/// Requests per crowd episode: ~25 quiet arrivals (40 ms mean gap), ~250
/// inside a one-second crowd (4 ms mean gap), then quiet again.
const EPISODE_REQUESTS: usize = 300;

/// Back-to-back flash-crowd episodes on an elastic real-platform fleet of
/// 1 to 6 hosts with 2 slots each, prewarming and scale-to-zero
/// retirement on. Whether a crowd's onset catches the fleet before it has
/// scaled up varies from crowd to crowd; several episodes per schedule
/// keep the pooled tail from resting on one or two onsets.
fn flash(episodes: u64, seed: u64, tracer: Option<&Rc<Tracer>>, reference: &Reference) -> Rep {
    let setup = Instant::now();
    let (specs, schedule) = timed(tracer.map(|t| &**t), Op::Gen, || {
        let (specs, ids) = split(light_mix());
        let mut schedule: Vec<EngineRequest> = Vec::new();
        let mut offset = Nanos::ZERO;
        for e in 0..episodes {
            let episode = flash_crowd(
                seed.wrapping_mul(episodes).wrapping_add(e),
                EPISODE_REQUESTS,
                Nanos::from_millis(40),
                Nanos::from_millis(4),
                Nanos::from_millis(1_000),
                Nanos::from_millis(2_000),
                &ids,
            );
            let end = episode.last().map_or(Nanos::ZERO, |r| r.arrival);
            schedule.extend(episode.into_iter().map(|mut r| {
                r.arrival = offset + r.arrival;
                r
            }));
            offset += end;
        }
        (specs, schedule)
    });
    let mut config = ElasticConfig::new(2);
    config.platform = dedup_config();
    config.policy = ElasticPolicy {
        min_hosts: 1,
        max_hosts: 6,
        control_interval: Nanos::from_millis(50),
        scale_up_queue: 2,
        scale_down_idle_ticks: 6,
        boot_delay: Nanos::from_millis(200),
        drain_deadline: Nanos::from_millis(500),
        retire_after: Some(Nanos::from_millis(400)),
        prewarm: true,
        ..ElasticPolicy::default()
    };
    let fleet = Fleet {
        specs: &specs,
        schedule: &schedule,
        reference,
        setup,
    };
    match tracer {
        None => fleet.elastic(
            config,
            |env, cfg| FireworksPlatform::with_config(env, cfg.clone()),
            LocalityAffinity::new(),
            None,
        ),
        Some(t) => {
            let t2 = t.clone();
            fleet.elastic(
                config,
                move |env, cfg| {
                    Timed::new(FireworksPlatform::with_config(env, cfg.clone()), t2.clone())
                },
                TimedRouter::new(LocalityAffinity::new(), t.clone()),
                Some(t),
            )
        }
    }
}

// ------------------------------------------------------------- the fleets

/// One repetition's inputs, shared by the fixed and the elastic fleet.
struct Fleet<'a> {
    specs: &'a [FunctionSpec],
    schedule: &'a [EngineRequest],
    reference: &'a Reference,
    /// When set-up began (generation is already behind it).
    setup: Instant,
}

impl Fleet<'_> {
    /// A fixed `Cluster`: every function installed on its home host.
    fn fixed<P, R>(
        &self,
        config: ClusterConfig,
        factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P,
        mut router: R,
        tracer: Option<&Rc<Tracer>>,
    ) -> Rep
    where
        P: ConcurrentPlatform + HostStats,
        R: Router,
    {
        let t = tracer.map(|t| &**t);
        let hosts = config.hosts;
        let mut cluster = timed(t, Op::Build, || Cluster::new(config, factory));
        timed(t, Op::Install, || {
            for spec in self.specs {
                cluster.install_home(spec).expect("fault-free install");
            }
        });
        let setup_s = self.setup.elapsed().as_secs_f64();
        let run = Instant::now();
        let report = timed(t, Op::Run, || cluster.run(&mut router, self.schedule));
        let run_s = run.elapsed().as_secs_f64();

        let mut rep = self.fold(setup_s, run_s, &report.completions);
        rep.layers = t.map(Layers::fold);
        let makespan = report.completions.iter().map(|c| c.finished).max();
        rep.fleet_host_s = hosts as f64 * makespan.unwrap_or(Nanos::ZERO).as_secs_f64();
        let ids: Vec<HostId> = (0..hosts).map(HostId::from_index).collect();
        let memory: Vec<MemoryStats> = ids
            .iter()
            .map(|&h| cluster.host_env(h).host_mem.stats())
            .collect();
        let platforms: Vec<&P> = ids.iter().map(|&h| cluster.host(h)).collect();
        rep.fold_hosts(&platforms, &memory);
        rep.fold_obs(cluster.obs());
        let c = &mut rep.counts;
        c.insert("core.cluster.events", cluster.events_processed() as f64);
        c.insert("core.cluster.locality_hits", report.locality_hits as f64);
        c.insert("core.cluster.rebalances", report.rebalances as f64);
        rep
    }

    /// An `ElasticCluster`: functions installed on the first host and
    /// registered on every host booted later. Host state is folded over
    /// the hosts still powered when the run ends.
    fn elastic<P, R>(
        &self,
        config: ElasticConfig,
        factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P + 'static,
        mut router: R,
        tracer: Option<&Rc<Tracer>>,
    ) -> Rep
    where
        P: ConcurrentPlatform + HostStats,
        R: Router,
    {
        let t = tracer.map(|t| &**t);
        let mut cluster = timed(t, Op::Build, || ElasticCluster::new(config, factory));
        timed(t, Op::Install, || {
            for spec in self.specs {
                cluster.install(spec).expect("fault-free install");
            }
        });
        let setup_s = self.setup.elapsed().as_secs_f64();
        let run = Instant::now();
        let report = timed(t, Op::Run, || cluster.run(&mut router, self.schedule));
        let run_s = run.elapsed().as_secs_f64();

        let mut rep = self.fold(setup_s, run_s, &report.completions);
        rep.layers = t.map(Layers::fold);
        rep.fleet_host_s = report.host_time.as_secs_f64();
        let platforms: Vec<&P> = cluster
            .powered_hosts()
            .into_iter()
            .map(|h| cluster.host(h))
            .collect();
        let memory: Vec<MemoryStats> = platforms.iter().filter_map(|p| p.memory()).collect();
        rep.fold_hosts(&platforms, &memory);
        rep.fold_obs(cluster.obs());
        for v in &report.audit_violations {
            rep.problems.push(format!("elastic audit: {v}"));
        }
        let s = &report.stats;
        let c = &mut rep.counts;
        c.insert("core.cluster.events", report.events_processed as f64);
        c.insert("core.cluster.locality_hits", s.locality_hits as f64);
        c.insert("core.cluster.rebalances", s.rebalances as f64);
        c.insert("core.elastic.scale_ups", s.scale_ups as f64);
        c.insert("core.elastic.drains", s.drains_started as f64);
        c.insert("core.elastic.migrations", s.migrations as f64);
        c.insert("core.elastic.prewarms", s.prewarms as f64);
        c.insert("core.elastic.retired", s.retired_functions as f64);
        c.insert("core.elastic.resurrections", s.resurrections as f64);
        c.insert("core.elastic.peak_hosts", report.peak_hosts as f64);
        c.insert(
            "core.elastic.audit_violations",
            report.audit_violations.len() as f64,
        );
        rep
    }

    /// Folds the completions: conservation, fingerprint, latencies and
    /// the response check.
    fn fold(&self, setup_s: f64, run_s: f64, completions: &[ClusterCompletion]) -> Rep {
        let mut rep = Rep {
            setup_s,
            run_s,
            requests: self.schedule.len(),
            completed: 0,
            failed: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
            starts_ns: Vec::with_capacity(completions.len()),
            sojourns_ns: Vec::with_capacity(completions.len()),
            cold_starts: 0,
            fleet_host_s: 0.0,
            counts: BTreeMap::new(),
            program_counters: BTreeMap::new(),
            audits: Vec::new(),
            problems: Vec::new(),
            layers: None,
        };
        let mut exec = ExecStats::default();
        let mut wrong = 0usize;
        for c in completions {
            for x in [
                c.index as u64,
                c.host.map_or(0, |h| h.index() as u64 + 1),
                c.started.as_nanos(),
                c.finished.as_nanos(),
            ] {
                rep.fingerprint = fnv(rep.fingerprint, x);
            }
            match (&c.result, c.start_latency()) {
                (Ok(inv), Some(start)) => {
                    rep.completed += 1;
                    rep.starts_ns.push(start.as_nanos());
                    rep.sojourns_ns.push(c.sojourn().as_nanos());
                    if inv.start == StartKind::ColdBoot {
                        rep.cold_starts += 1;
                    }
                    exec = exec.merge(&inv.stats);
                    if !self.reference.check(&self.schedule[c.index].invoke, inv) {
                        wrong += 1;
                    }
                }
                _ => rep.failed += 1,
            }
        }
        rep.starts_ns.sort_unstable();
        rep.sojourns_ns.sort_unstable();
        if completions.len() != rep.requests || rep.completed + rep.failed != rep.requests {
            rep.problems.push(format!(
                "request conservation: {} completed + {} failed != {} attempted",
                rep.completed, rep.failed, rep.requests
            ));
        }
        if rep.failed > 0 {
            rep.problems.push(format!(
                "{} requests failed on a fault-free workload",
                rep.failed
            ));
        }
        if wrong > 0 {
            rep.problems
                .push(format!("{wrong} responses differ from the reference"));
        }
        let c = &mut rep.counts;
        c.insert("lang.interp_ops", exec.interp_ops as f64);
        c.insert("lang.jit_ops", exec.jit_ops as f64);
        c.insert("lang.compiles", exec.compiles as f64);
        c.insert("lang.deopts", exec.deopts as f64);
        c.insert("lang.ic_hits", exec.ic_hits as f64);
        c.insert("lang.ic_misses", exec.ic_misses as f64);
        c.insert("lang.code_evictions", exec.code_evictions as f64);
        rep
    }
}

impl Rep {
    /// Frees the latency samples once a repetition has been checked
    /// against the first run of its schedule.
    pub fn drop_samples(&mut self) {
        self.starts_ns = Vec::new();
        self.sojourns_ns = Vec::new();
    }

    /// Folds per-host state: chunk stores, host memory and store audits.
    fn fold_hosts<P: ConcurrentPlatform + HostStats>(
        &mut self,
        platforms: &[&P],
        memory: &[MemoryStats],
    ) {
        let (mut unique, mut logical) = (0u64, 0u64);
        for stats in platforms.iter().filter_map(|p| p.chunk_stats()) {
            unique += stats.unique_bytes;
            logical += stats.logical_bytes;
        }
        let c = &mut self.counts;
        c.insert("store.unique_mib", unique as f64 / MIB);
        c.insert("store.logical_mib", logical as f64 / MIB);
        c.insert(
            "guestmem.cow_faults",
            memory.iter().map(|m| m.cow_faults).sum::<u64>() as f64,
        );
        c.insert(
            "guestmem.zero_fills",
            memory.iter().map(|m| m.zero_fills).sum::<u64>() as f64,
        );
        c.insert(
            "guestmem.used_mib_end",
            memory.iter().map(|m| m.used_bytes).sum::<u64>() as f64 / MIB,
        );
        self.audits = platforms
            .iter()
            .map(|p| {
                p.store_audit()
                    .map_or_else(|| "none".to_string(), audit_text)
            })
            .collect();
    }

    /// Sums the program's own counters across their `{host=..}` labels,
    /// and sizes the obs plane.
    fn fold_obs(&mut self, obs: &fireworks_obs::Obs) {
        let snapshot = obs.metrics().snapshot();
        let sums = &mut self.program_counters;
        let mut series = 0usize;
        for (key, value) in snapshot.counters() {
            series += 1;
            let name = key.split('{').next().unwrap_or(key);
            *sums.entry(name.to_string()).or_default() += value;
        }
        series += snapshot.gauges().count();
        let c = &mut self.counts;
        for name in COUNTERS {
            c.insert(name, sums.get(name).copied().unwrap_or(0) as f64);
        }
        c.insert("obs.span_events", obs.recorder().len() as f64);
        c.insert("obs.metric_series", series as f64);
    }
}

/// The program's own counters the ledger keeps, under their own names.
const COUNTERS: [&str; 17] = [
    "core.cache.hits",
    "core.cache.misses",
    "microvm.restore.attempts",
    "microvm.restore.pages_verified",
    "microvm.snapshot.captures",
    "microvm.snapshot.pages_written",
    "microvm.reap.prefetch_hits",
    "microvm.reap.major_faults",
    "store.chunks.inserts",
    "store.chunks.dedup_hits",
    "store.chunks.evictions",
    "core.delta.fetches",
    "core.delta.fallbacks",
    "core.delta.chunks_fetched",
    "core.delta.bytes_fetched",
    "net.transfer.segments",
    "net.transfer.retransmits",
];

const MIB: f64 = (1u64 << 20) as f64;

/// A store audit as comparable text: the refcount ledger and, per cached
/// manifest, its function and chunk count.
fn audit_text(audit: StoreAudit) -> String {
    let manifests: Vec<(String, usize)> = audit
        .manifests
        .iter()
        .map(|(f, m)| (f.clone(), m.chunks.len()))
        .collect();
    format!("{:?}|{:?}", audit.chunk_refs, manifests)
}

/// One FNV-1a step over a little-endian `u64`, as `bench::scale` does.
fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(w: Workload) -> (Rep, Rep) {
        let reference = w.reference();
        let plain = w.run(3, true, None, &reference);
        let tracer = Tracer::new();
        let traced = w.run(3, true, Some(&tracer), &reference);
        for rep in [&plain, &traced] {
            assert!(rep.problems.is_empty(), "{}: {:?}", w.name(), rep.problems);
        }
        (plain, traced)
    }

    /// The wrappers change nothing the fleet sees: on every workload a
    /// wrapped run reproduces the unwrapped run's fingerprint, store
    /// audits and layer counts.
    #[test]
    fn wrapped_and_unwrapped_runs_agree() {
        for w in Workload::ALL {
            let (plain, traced) = runs(w);
            assert_eq!(plain.fingerprint, traced.fingerprint, "{}", w.name());
            assert_eq!(plain.audits, traced.audits, "{}", w.name());
            assert_eq!(plain.counts, traced.counts, "{}", w.name());
            assert!(plain.layers.is_none() && traced.layers.is_some());
        }
    }

    /// The elastic fleet audits its chunk stores through the wrapper: a
    /// wrapper falling back to the defaulted `store_audit` would answer
    /// `None` and the audit would pass without checking anything.
    #[test]
    fn elastic_audit_reaches_the_wrapped_stores() {
        let (_, traced) = runs(Workload::FlashCrowdElastic);
        let layers = traced.layers.expect("traced");
        assert!(layers.op(Op::StoreAudit).calls > 0);
        assert!(layers.op(Op::Register).calls > 0, "booted hosts register");
        assert!(!traced.audits.is_empty());
        assert!(traced.audits.iter().all(|a| a != "none"));
    }
}
