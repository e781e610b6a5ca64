//! The cluster's routing index: per-function holder lists kept current
//! from the hosts' residency journals.
//!
//! Two checks. A run on journaled hosts must make exactly the routing
//! decisions of a run on hosts the cluster re-probes every time. And
//! under any sequence of installs, registrations, invocations, direct
//! evictions/retirements/prewarms and host crashes, the index must agree
//! with a fresh residency probe of every host.

use fireworks::core::api::{ConcurrentPlatform, SnapshotResidency};
use fireworks::core::engine::EngineRequest;
use fireworks::core::ResidencyJournal;
use fireworks::prelude::*;
use fireworks::sandbox::IsolationLevel;
use fireworks::sim::fault::FaultTrigger;
use fireworks::workloads::azure::TraceSpec;
use fireworks_bench::scale::SimPlatform;
use proptest::prelude::*;

/// A [`SimPlatform`] the cluster may have to re-probe: unless
/// `journaled`, it runs on a private, unwired journal, so its host never
/// opts in.
struct Probed(SimPlatform);

impl Probed {
    fn new(mut env: PlatformEnv, journaled: bool) -> Self {
        if !journaled {
            env.residency = ResidencyJournal::default();
        }
        Probed(SimPlatform::new(env))
    }
}

impl Platform for Probed {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn isolation(&self) -> IsolationLevel {
        self.0.isolation()
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        self.0.install(spec)
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        self.0.invoke(req)
    }

    fn evict(&mut self, function: FunctionId) {
        self.0.evict(function)
    }
}

impl ConcurrentPlatform for Probed {
    type InFlight = <SimPlatform as ConcurrentPlatform>::InFlight;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, Self::InFlight), PlatformError> {
        self.0.begin_invoke(req)
    }

    fn finish_invoke(&mut self, inflight: Self::InFlight) {
        self.0.finish_invoke(inflight)
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        self.0.residency(function)
    }

    fn hot_functions(&self) -> Vec<FunctionId> {
        self.0.hot_functions()
    }

    fn prewarm(&mut self, function: FunctionId) -> bool {
        self.0.prewarm(function)
    }

    fn retire(&mut self, function: FunctionId) -> bool {
        self.0.retire(function)
    }

    fn register(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        self.0.register(spec)
    }
}

fn spec(function: FunctionId) -> FunctionSpec {
    FunctionSpec::new(&*function.name(), "", RuntimeKind::NodeLike, Value::Null)
}

/// What a run decided: every completion's placement and timing, plus
/// the routing counters.
#[derive(Debug, PartialEq)]
struct Decisions {
    completions: Vec<(usize, Option<HostId>, Nanos, Nanos, bool)>,
    locality_hits: u64,
    rebalances: u64,
    failed_hosts: Vec<HostId>,
}

fn azure_run<P: ConcurrentPlatform>(
    factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P,
) -> Decisions {
    let trace = TraceSpec::new()
        .tenants(150)
        .functions_per_tenant(2)
        .total_invocations(15_000)
        .seed(17);
    let mut config = ClusterConfig::new(64, 4);
    config.env.fault_plan = FaultPlan::new(5).probability(FaultSite::HostCrash, 0.0003);
    let mut cluster = Cluster::new(config, factory);
    for f in 0..trace.functions() {
        cluster
            .install_home(&spec(trace.function_id(f)))
            .expect("install_home");
    }
    let schedule: Vec<EngineRequest> = trace
        .generate()
        .events
        .iter()
        .map(|e| {
            EngineRequest::at(
                e.at,
                InvokeRequest::new(e.function, Value::Int(e.exec.as_nanos() as i64)),
            )
        })
        .collect();
    let report = cluster.run(&mut LocalityAffinity::new(), &schedule);
    Decisions {
        completions: report
            .completions
            .iter()
            .map(|c| (c.index, c.host, c.started, c.finished, c.result.is_ok()))
            .collect(),
        locality_hits: report.locality_hits,
        rebalances: report.rebalances,
        failed_hosts: report.failed_hosts,
    }
}

#[test]
fn journaled_and_reprobed_fleets_route_identically() {
    let journaled = azure_run(|env, _| SimPlatform::new(env));
    let reprobed = azure_run(|env, _| Probed::new(env, false));
    assert!(journaled.locality_hits > 0 && journaled.rebalances > 0);
    assert!(
        !journaled.failed_hosts.is_empty(),
        "the crash plan must exercise reroutes"
    );
    assert_eq!(journaled, reprobed);
}

const HOSTS: usize = 6;
const FUNCTIONS: u8 = 4;

#[derive(Debug, Clone)]
enum Step {
    /// `Cluster::install`: the snapshot on every host.
    Install(u8),
    /// `Cluster::install_home`: the snapshot on the home host only.
    InstallHome(u8),
    /// Register (no snapshot) on one host.
    Register(u8, u8),
    /// A burst of requests for one function through the router.
    Invoke(u8, u8),
    Evict(u8, u8),
    Retire(u8, u8),
    Prewarm(u8, u8),
    /// Crash a host at its next service start.
    Crash(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let host = 0u8..HOSTS as u8;
    let function = 0u8..FUNCTIONS;
    prop_oneof![
        1 => function.clone().prop_map(Step::Install),
        2 => function.clone().prop_map(Step::InstallHome),
        2 => (host.clone(), function.clone()).prop_map(|(h, f)| Step::Register(h, f)),
        5 => (function.clone(), 1u8..12).prop_map(|(f, n)| Step::Invoke(f, n)),
        2 => (host.clone(), function.clone()).prop_map(|(h, f)| Step::Evict(h, f)),
        2 => (host.clone(), function.clone()).prop_map(|(h, f)| Step::Retire(h, f)),
        2 => (host.clone(), function).prop_map(|(h, f)| Step::Prewarm(h, f)),
        1 => host.prop_map(Step::Crash),
    ]
}

fn function(f: u8) -> FunctionId {
    fid(&format!("index-f{f}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On an all-journaled fleet and on one whose odd hosts are
    /// re-probed, after every step the index's holders of every function
    /// equal a full probe.
    #[test]
    fn index_matches_a_full_probe_after_every_step(
        steps in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        for mixed in [false, true] {
            let mut next_host = 0usize;
            let mut cluster = Cluster::new(ClusterConfig::new(HOSTS, 2), move |env, _| {
                next_host += 1;
                Probed::new(env, !mixed || next_host % 2 == 1)
            });
            for step in &steps {
                let host = |h: u8| HostId::from_index(h.into());
                match *step {
                    Step::Install(f) => {
                        cluster.install(&spec(function(f))).expect("install");
                    }
                    Step::InstallHome(f) => {
                        cluster.install_home(&spec(function(f))).expect("install_home");
                    }
                    Step::Register(h, f) => cluster
                        .host_mut(host(h))
                        .register(&spec(function(f)))
                        .expect("register"),
                    Step::Invoke(f, n) => {
                        let now = cluster.clock().now();
                        let burst: Vec<EngineRequest> = (0..n)
                            .map(|_| {
                                EngineRequest::at(now, InvokeRequest::new(function(f), Value::Null))
                            })
                            .collect();
                        cluster.run(&mut LocalityAffinity::new(), &burst);
                    }
                    Step::Evict(h, f) => cluster.host_mut(host(h)).evict(function(f)),
                    Step::Retire(h, f) => {
                        cluster.host_mut(host(h)).retire(function(f));
                    }
                    Step::Prewarm(h, f) => {
                        cluster.host_mut(host(h)).prewarm(function(f));
                    }
                    Step::Crash(h) => cluster
                        .host_env(host(h))
                        .injector
                        .borrow_mut()
                        .arm(FaultSite::HostCrash, FaultTrigger::Probability(1.0)),
                }
                for f in 0..FUNCTIONS {
                    let probed: Vec<(HostId, SnapshotResidency)> = (0..HOSTS)
                        .map(HostId::from_index)
                        .map(|h| (h, cluster.host(h).residency(function(f))))
                        .filter(|(_, r)| *r != SnapshotResidency::Absent)
                        .collect();
                    prop_assert_eq!(cluster.holders(function(f)), probed);
                }
            }
        }
    }
}
