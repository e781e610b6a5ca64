//! Multi-host cluster scheduling with snapshot-locality routing.
//!
//! The single-host engine ([`crate::engine::run_concurrent`]) drives one
//! [`ConcurrentPlatform`]; this module scales that model out: a
//! [`Cluster`] owns N per-host platform instances, each with its *own*
//! [`PlatformEnv`] — slot pool, RAM budget, snapshot cache, message bus,
//! store, network, fault injector — all advancing one shared virtual
//! clock and emitting into one shared obs plane. A [`Router`] policy
//! decides which host serves each request.
//!
//! # Why routing policy matters here
//!
//! Each host's post-JIT snapshot cache is bounded (paper §6): a host that
//! does not hold a function's snapshot must rebuild it from source —
//! seconds of virtual time charged to that invocation's start-up.
//! REAP (ASPLOS '21) showed snapshot working-set locality dominates
//! restore latency; at cluster scale the analogue is *cache* locality:
//! spraying requests round-robin thrashes every host's LRU, while
//! affinity routing keeps each function's snapshot hot on a few hosts.
//! [`LocalityAffinity`] implements that policy; `cluster_sweep` measures
//! it against [`RoundRobin`] and [`LeastLoaded`].
//!
//! # Routing index
//!
//! A routing decision costs O(holders), not O(hosts): the cluster keeps
//! a per-function list of holders, fed by the hosts'
//! [`ResidencyJournal`]s, and routers read it through [`FleetQuery`].
//! Hosts whose platform does not journal are re-probed per decision.
//!
//! # Admission and backpressure
//!
//! Each host has a FIFO admission queue bounded by
//! [`ClusterConfig::host_queue_cap`]. The router only places requests on
//! hosts with capacity (a free slot or queue room); when no healthy host
//! has capacity the request waits in the *cluster-level* admission queue,
//! which drains — FIFO, re-consulting the router — every time any host
//! completes an invocation. A request whose
//! [`InvokeRequest::deadline`] passes while queued is rejected with
//! [`PlatformError::DeadlineExceeded`] without consuming a slot.
//!
//! # Host failure
//!
//! Arm [`FaultSite::HostCrash`] on the cluster's fault plan and the
//! per-host injector is checked at every service start on that host. A
//! firing permanently fails the host: its queued requests drain and
//! re-route through the router (counted in `cluster.rebalances`),
//! invocations already in flight still complete (their events are on the
//! timeline), and if no healthy host remains a request fails with
//! [`PlatformError::HostUnavailable`].
//!
//! # Determinism
//!
//! Everything is a pure function of the config, the request schedule, and
//! the fault-plan seed: hosts are stamped out in index order with
//! per-host derived fault seeds, the event queue orders by `(time, seq)`,
//! and every router policy is deterministic. Two runs with the same
//! inputs produce byte-identical reports for any host count.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use fireworks_obs::{cat, Obs, Recorder, SpanContext, SpanId, TraceId};
use fireworks_sim::engine::EventQueue;
use fireworks_sim::fault::FaultSite;
use fireworks_sim::trace::Phase;
use fireworks_sim::{Clock, Nanos};

use crate::api::{
    ConcurrentPlatform, FunctionSpec, InstallReport, Invocation, InvokeRequest, PlatformError,
    SnapshotResidency,
};
use crate::config::PlatformConfig;
use crate::engine::{CompletionPolicy, EngineRequest};
use crate::env::{EnvConfig, JournalSink, PlatformEnv, ResidencyJournal};
use crate::mesh::{ChunkMesh, SharedChunkMesh};
use crate::symbols::{FunctionId, HostId, IdMap};

/// Per-host seed spacing for the derived fault plans (golden-ratio
/// increment, the SplitMix64 stream constant).
pub(crate) const HOST_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cluster shape and per-host configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// Invoker slots per host.
    pub slots_per_host: usize,
    /// Per-host admission-queue bound; a host whose queue is full exerts
    /// backpressure and receives no further requests until it drains.
    pub host_queue_cap: usize,
    /// Per-host environment template (RAM, costs, fault plan). Each host
    /// gets its own services built from this; the fault-plan seed is
    /// re-derived per host so hosts fail independently.
    pub env: EnvConfig,
    /// Per-host platform configuration (cache budget, recovery, …).
    pub platform: PlatformConfig,
    /// What happens to in-flight tokens at completion (retain for the
    /// cluster-wide §5.4 consolidation experiment).
    pub completion: CompletionPolicy,
}

impl ClusterConfig {
    /// A serving cluster of `hosts` hosts with `slots_per_host` slots,
    /// a queue bound of twice the slot count, default environment and
    /// platform config.
    pub fn new(hosts: usize, slots_per_host: usize) -> Self {
        ClusterConfig {
            hosts,
            slots_per_host,
            host_queue_cap: slots_per_host * 2,
            env: EnvConfig::default(),
            platform: PlatformConfig::default(),
            completion: CompletionPolicy::Release,
        }
    }
}

/// What a router sees about one host when placing a request.
#[derive(Debug, Clone, Copy)]
pub struct HostView {
    /// Host index.
    pub id: HostId,
    /// Whether the host is alive (a crashed host never comes back).
    pub healthy: bool,
    /// Invocations currently in service on this host.
    pub inflight: usize,
    /// Requests waiting in this host's admission queue.
    pub queue_depth: usize,
    /// The host's invoker-slot count.
    pub slots: usize,
    /// The host's admission-queue bound.
    pub queue_cap: usize,
    /// How much of the request's function's start artifact (post-JIT
    /// snapshot / checkpoint / warm sandbox) this host already holds —
    /// the locality signal. Content-addressed hosts report
    /// [`SnapshotResidency::Partial`] with the bytes a delta fetch would
    /// have to move.
    pub residency: SnapshotResidency,
}

impl HostView {
    /// Whether the host can accept one more request: alive, with a free
    /// slot or room in its admission queue.
    pub fn has_capacity(&self) -> bool {
        self.healthy && (self.inflight < self.slots || self.queue_depth < self.queue_cap)
    }

    /// Queueing-relevant load: in-service plus waiting.
    pub fn load(&self) -> usize {
        self.inflight + self.queue_depth
    }
}

/// A routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Serve on this host (the policy's genuine first choice).
    Host(HostId),
    /// The policy's preferred host could not take the request; serve on
    /// this fallback instead. The cluster counts these in
    /// `cluster.rebalances`.
    Fallback(HostId),
    /// No healthy host has capacity; wait in the cluster admission
    /// queue.
    Defer,
}

/// The fleet as a router sees it while placing one request: every
/// host's load and health, and which hosts hold the routed function's
/// start artifact.
///
/// Host ids are dense — the fleet is hosts `0..host_count()` — and a
/// crashed or retired host keeps its id (it just never has capacity).
pub trait FleetQuery {
    /// Hosts in the fleet, alive or not.
    fn host_count(&self) -> usize;

    /// Host `h`'s view for the routed function.
    fn view(&self, h: HostId) -> HostView;

    /// Hosts whose residency for the routed function is not
    /// [`SnapshotResidency::Absent`], in ascending id order. Every
    /// other host holds nothing of it.
    fn holders(&self) -> &[HostId];
}

/// Every host's view, in id order.
fn all_views(fleet: &dyn FleetQuery) -> impl Iterator<Item = HostView> + '_ {
    (0..fleet.host_count()).map(|h| fleet.view(HostId::from_index(h)))
}

/// A [`FleetQuery`] over a slice of views, for [`Router::route`].
struct SliceFleet<'a> {
    hosts: &'a [HostView],
    holders: Vec<HostId>,
}

impl<'a> SliceFleet<'a> {
    fn new(hosts: &'a [HostView]) -> Self {
        debug_assert!(
            hosts.iter().enumerate().all(|(k, v)| v.id.index() == k),
            "views must be indexed by host id"
        );
        let holders = hosts
            .iter()
            .filter(|v| v.residency != SnapshotResidency::Absent)
            .map(|v| v.id)
            .collect();
        SliceFleet { hosts, holders }
    }
}

impl FleetQuery for SliceFleet<'_> {
    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn view(&self, h: HostId) -> HostView {
        self.hosts[h.index()]
    }

    fn holders(&self) -> &[HostId] {
        &self.holders
    }
}

/// A deterministic request-placement policy.
///
/// The contract: return only hosts for which
/// [`HostView::has_capacity`] holds, and [`Route::Defer`] when there is
/// none. Policies must be pure functions of their own state and the
/// fleet they are shown — no randomness, no wall clock — so cluster runs
/// replay byte-identically.
///
/// The clusters call [`Router::route_fleet`]. A policy written against
/// [`FleetQuery`] overrides it and can touch only the hosts it needs
/// (the built-in ones do, and implement [`Router::route`] as a thin
/// adapter); a policy that implements only `route` still works, at the
/// cost of one view per host per decision.
pub trait Router {
    /// Policy name (used in reports and metric labels).
    fn name(&self) -> &'static str;

    /// Places one request given every host's view; `hosts[k].id` is
    /// host `k`.
    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route;

    /// Places one request against the fleet's query handle. The default
    /// builds every host's view into a reused buffer and calls
    /// [`Router::route`].
    fn route_fleet(&mut self, req: &InvokeRequest, fleet: &dyn FleetQuery) -> Route {
        thread_local! {
            static VIEWS: RefCell<Vec<HostView>> = const { RefCell::new(Vec::new()) };
        }
        // Taken out, not borrowed: a `route` that re-enters here gets a
        // fresh buffer instead of a borrow panic.
        let mut views = VIEWS.with(RefCell::take);
        views.clear();
        views.extend(all_views(fleet));
        let route = self.route(req, &views);
        VIEWS.with(|cell| cell.replace(views));
        route
    }
}

/// Cycles through hosts in index order, skipping hosts without capacity.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin router starting at host 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        self.route_fleet(req, &SliceFleet::new(hosts))
    }

    fn route_fleet(&mut self, _req: &InvokeRequest, fleet: &dyn FleetQuery) -> Route {
        let n = fleet.host_count();
        for k in 0..n {
            let h = (self.next + k) % n;
            let view = fleet.view(HostId::from_index(h));
            if view.has_capacity() {
                self.next = (h + 1) % n;
                return Route::Host(view.id);
            }
        }
        Route::Defer
    }
}

/// Places each request on the host with the lowest load (in-flight plus
/// queue depth), ties broken by lowest host index.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// A least-loaded router.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least_loaded"
    }

    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        self.route_fleet(req, &SliceFleet::new(hosts))
    }

    fn route_fleet(&mut self, _req: &InvokeRequest, fleet: &dyn FleetQuery) -> Route {
        all_views(fleet)
            .filter(HostView::has_capacity)
            .min_by_key(|v| (v.load(), v.id))
            .map_or(Route::Defer, |v| Route::Host(v.id))
    }
}

/// Prefers hosts whose cache already holds the function's snapshot;
/// falls back under overload.
///
/// Placement order:
/// 1. the least-loaded host *with capacity* whose residency is
///    [`SnapshotResidency::Full`];
/// 2. else the partial holder that would move the fewest bytes — a
///    content-addressed host sharing most of the snapshot's chunks
///    delta-fetches the remainder far cheaper than a rebuild (ties:
///    lowest load, then lowest id);
/// 3. else the function's stable home host (FNV-1a hash of its name,
///    probing upward), so a function's rebuilds concentrate on one host
///    whose cache then keeps it hot;
/// 4. else — home, holders, and partials all saturated — the first
///    host with capacity after the home probe, reported as
///    [`Route::Fallback`].
///
/// Steps 1 and 2 scan only [`FleetQuery::holders`], so a decision costs
/// O(holders) plus the home probe, not O(hosts).
///
/// With a flat snapshot store every residency is `Full` or `Absent`, so
/// step 2 never matches and the policy reduces to its pre-dedup
/// behaviour.
///
/// The home hash is the FNV-1a of the function *name* (matching
/// [`Cluster::install_home`]), but it is computed once per
/// [`FunctionId`] and memoised in a dense id-indexed table — routing
/// decisions on the hot path never re-hash the string.
#[derive(Debug, Default)]
pub struct LocalityAffinity {
    /// `FunctionId::raw() → fnv1a(name)`, filled on first sight.
    home_hashes: Vec<Option<u64>>,
}

impl LocalityAffinity {
    /// A snapshot-locality-affinity router.
    pub fn new() -> Self {
        LocalityAffinity::default()
    }

    /// The function's stable home hash, memoised per id.
    fn home_hash(&mut self, function: FunctionId) -> u64 {
        let idx = function.raw() as usize;
        if idx >= self.home_hashes.len() {
            self.home_hashes.resize(idx + 1, None);
        }
        *self.home_hashes[idx].get_or_insert_with(|| fnv1a(&function.name()))
    }
}

impl Router for LocalityAffinity {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        self.route_fleet(req, &SliceFleet::new(hosts))
    }

    fn route_fleet(&mut self, req: &InvokeRequest, fleet: &dyn FleetQuery) -> Route {
        // One pass over the holders: any free full holder (least loaded)
        // beats every partial one; among partials, the one that would
        // ship the fewest missing bytes wins.
        if let Some(v) = fleet
            .holders()
            .iter()
            .map(|&h| fleet.view(h))
            .filter(HostView::has_capacity)
            .min_by_key(|v| {
                let r = v.residency;
                (!r.is_full(), r.missing_bytes(), v.load(), v.id)
            })
        {
            return Route::Host(v.id);
        }
        // Otherwise send the function to its stable home so the rebuild
        // happens where future requests will land.
        let n = fleet.host_count();
        let home = (self.home_hash(req.function) % n as u64) as usize;
        for k in 0..n {
            let h = (home + k) % n;
            let view = fleet.view(HostId::from_index(h));
            if view.has_capacity() {
                return if h == home {
                    Route::Host(view.id)
                } else {
                    Route::Fallback(view.id)
                };
            }
        }
        Route::Defer
    }
}

/// One row of a cluster's host table, as routing reads it.
pub(crate) trait HostLoad {
    /// Whether the host admits requests.
    fn serving(&self) -> bool;
    /// Invocations in service.
    fn inflight(&self) -> usize;
    /// Requests in the host's admission queue.
    fn queue_depth(&self) -> usize;
}

/// The holders of one function: ascending host ids with each one's
/// non-[`SnapshotResidency::Absent`] residency alongside.
#[derive(Debug, Default)]
pub(crate) struct Holders {
    hosts: Vec<HostId>,
    residency: Vec<SnapshotResidency>,
}

impl Holders {
    fn set(&mut self, h: HostId, residency: SnapshotResidency) {
        match (self.hosts.binary_search(&h), residency) {
            (Ok(k), SnapshotResidency::Absent) => {
                self.hosts.remove(k);
                self.residency.remove(k);
            }
            (Ok(k), r) => self.residency[k] = r,
            (Err(_), SnapshotResidency::Absent) => {}
            (Err(k), r) => {
                self.hosts.insert(k, h);
                self.residency.insert(k, r);
            }
        }
    }

    fn get(&self, h: HostId) -> SnapshotResidency {
        self.hosts
            .binary_search(&h)
            .map_or(SnapshotResidency::Absent, |k| self.residency[k])
    }

    /// `(host, residency)` pairs in ascending host order.
    pub(crate) fn pairs(&self) -> Vec<(HostId, SnapshotResidency)> {
        self.hosts
            .iter()
            .copied()
            .zip(self.residency.iter().copied())
            .collect()
    }
}

/// The routing index: which hosts hold each function's start artifact,
/// kept current from the hosts' [`ResidencyJournal`]s.
///
/// Before each routing decision the owning cluster calls
/// [`HolderIndex::refresh`], which re-probes only the `(host, function)`
/// pairs the journals named since the last call — plus, for the routed
/// function, every host whose platform did not opt into the journal.
pub(crate) struct HolderIndex {
    sink: JournalSink,
    /// The sink's contents being applied (swapped out, so the buffer is
    /// reused and probes may journal without a borrow conflict).
    pending: Vec<(HostId, FunctionId)>,
    /// Hosts joined so far (ids `0..hosts`).
    hosts: usize,
    /// Hosts whose platform did not opt in, re-probed per decision.
    unjournaled: Vec<HostId>,
    holders: IdMap<Holders>,
}

impl HolderIndex {
    pub(crate) fn new() -> Self {
        HolderIndex {
            sink: JournalSink::default(),
            pending: Vec::new(),
            hosts: 0,
            unjournaled: Vec::new(),
            holders: IdMap::new(),
        }
    }

    /// Adds the next host: wires its journal into `env` before `build`
    /// makes its platform (so the journal sees the platform's whole
    /// life), then notes whether the platform opted in. Returns the
    /// wired environment and the platform.
    pub(crate) fn add_host<P>(
        &mut self,
        mut env: PlatformEnv,
        build: impl FnOnce(PlatformEnv) -> P,
    ) -> (PlatformEnv, P) {
        let h = HostId::from_index(self.hosts);
        env.residency = ResidencyJournal::wired(h, self.sink.clone());
        let platform = build(env.clone());
        if !env.residency.is_tracked() {
            self.unjournaled.push(h);
        }
        self.hosts += 1;
        (env, platform)
    }

    /// Brings `function`'s holders up to date, with `probe` answering a
    /// host's current residency, and returns them.
    pub(crate) fn refresh(
        &mut self,
        function: FunctionId,
        probe: impl Fn(HostId, FunctionId) -> SnapshotResidency,
    ) -> &Holders {
        std::mem::swap(&mut self.pending, &mut self.sink.borrow_mut());
        for (h, f) in self.pending.drain(..) {
            let residency = probe(h, f);
            holders_mut(&mut self.holders, f).set(h, residency);
        }
        let entry = holders_mut(&mut self.holders, function);
        for &h in &self.unjournaled {
            entry.set(h, probe(h, function));
        }
        // Exactness: a platform that opted in but missed a journal call
        // shows up here, in every debug-build cluster run.
        #[cfg(debug_assertions)]
        for h in (0..self.hosts).map(HostId::from_index) {
            assert_eq!(
                entry.get(h),
                probe(h, function),
                "routing index is stale for {function} on host {h}: \
                 its platform changed residency without journaling it"
            );
        }
        entry
    }
}

fn holders_mut(holders: &mut IdMap<Holders>, f: FunctionId) -> &mut Holders {
    if !holders.contains(f) {
        holders.insert(f, Holders::default());
    }
    holders.get_mut(f).expect("inserted above")
}

/// A [`FleetQuery`] over a cluster's host table and one function's
/// holders.
pub(crate) struct IndexedFleet<'a, H> {
    pub(crate) hosts: &'a [H],
    pub(crate) holders: &'a Holders,
    pub(crate) slots: usize,
    pub(crate) queue_cap: usize,
}

impl<H: HostLoad> FleetQuery for IndexedFleet<'_, H> {
    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn view(&self, h: HostId) -> HostView {
        let host = &self.hosts[h.index()];
        HostView {
            id: h,
            healthy: host.serving(),
            inflight: host.inflight(),
            queue_depth: host.queue_depth(),
            slots: self.slots,
            queue_cap: self.queue_cap,
            residency: self.holders.get(h),
        }
    }

    fn holders(&self) -> &[HostId] {
        &self.holders.hosts
    }
}

/// FNV-1a over the function name: a stable hash (unlike `DefaultHasher`,
/// which is randomly keyed per process) so home-host assignment is
/// deterministic across runs.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One request's outcome on the cluster, with its placement.
#[derive(Debug)]
pub struct ClusterCompletion {
    /// Index of the request in the submitted schedule.
    pub index: usize,
    /// The host that served (or was serving) it; `None` if it was never
    /// placed (missed deadline, no healthy host).
    pub host: Option<HostId>,
    /// The function invoked.
    pub function: FunctionId,
    /// When the request arrived.
    pub arrived: Nanos,
    /// When a slot picked it up (for a rejection: when it was rejected).
    pub started: Nanos,
    /// When its service activity finished.
    pub finished: Nanos,
    /// The invocation, or the error that ended it.
    pub result: Result<Invocation, PlatformError>,
}

impl ClusterCompletion {
    /// Time spent waiting for a slot (on any queue).
    pub fn waited(&self) -> Nanos {
        self.started.saturating_sub(self.arrived)
    }

    /// Total time in the system.
    pub fn sojourn(&self) -> Nanos {
        self.finished.saturating_sub(self.arrived)
    }

    /// Queueing delay plus the invocation's start-up phase — the
    /// client-visible "time to first instruction of function code", the
    /// quantity `cluster_sweep` reports percentiles of.
    pub fn start_latency(&self) -> Option<Nanos> {
        self.result
            .as_ref()
            .ok()
            .map(|inv| self.waited() + inv.breakdown.startup)
    }
}

/// The cluster's output: completions in request order plus routing and
/// concurrency statistics.
#[derive(Debug)]
pub struct ClusterReport<T> {
    /// One entry per request, ordered by request index.
    pub completions: Vec<ClusterCompletion>,
    /// `(host, token)` pairs still resident ([`CompletionPolicy::Retain`]
    /// only), in completion order.
    pub retained: Vec<(HostId, T)>,
    /// Most invocations ever simultaneously in service cluster-wide.
    pub peak_inflight: usize,
    /// Deepest any single host's admission queue ever got.
    pub peak_host_queue_depth: usize,
    /// Deepest the cluster-level admission queue ever got.
    pub peak_cluster_queue_depth: usize,
    /// Requests moved off their policy-preferred host (locality
    /// fallbacks and crash re-routes).
    pub rebalances: u64,
    /// Service starts on a host already holding the function's snapshot.
    pub locality_hits: u64,
    /// Hosts that crashed during the run, in failure order.
    pub failed_hosts: Vec<HostId>,
    /// Requests displaced from a crashed host's admission queue and
    /// handed back to the router. Conservation: every one of these still
    /// reaches a terminal outcome (served elsewhere, deadline-rejected,
    /// or `HostUnavailable`) — `run` asserts no request is dropped.
    pub crash_reroutes: u64,
}

struct Host<P: ConcurrentPlatform> {
    platform: P,
    env: PlatformEnv,
    healthy: bool,
    free: usize,
    waiting: VecDeque<usize>,
    inflight: BTreeMap<usize, P::InFlight>,
    /// Preformatted host-index label for metrics.
    label: String,
    /// Pre-resolved `engine.inflight{host=..}` gauge handle.
    g_inflight: fireworks_obs::Gauge,
    /// Pre-resolved `engine.queue_depth{host=..}` gauge handle.
    g_queue_depth: fireworks_obs::Gauge,
}

impl<P: ConcurrentPlatform> HostLoad for Host<P> {
    fn serving(&self) -> bool {
        self.healthy
    }

    fn inflight(&self) -> usize {
        self.inflight.len()
    }

    fn queue_depth(&self) -> usize {
        self.waiting.len()
    }
}

enum Event {
    Arrive(usize),
    Complete { host: usize, index: usize },
}

/// N per-host platforms on one virtual timeline, driven by a [`Router`].
pub struct Cluster<P: ConcurrentPlatform> {
    clock: Clock,
    obs: Obs,
    config: ClusterConfig,
    hosts: Vec<Host<P>>,
    /// Alive-host count, maintained incrementally so the per-event gauge
    /// sample never scans the host table.
    healthy_hosts: usize,
    /// Cluster-wide invocations currently in service, maintained
    /// incrementally (same reason).
    inflight_total: usize,
    /// Simulator events processed by [`Cluster::run`] across this
    /// cluster's lifetime (arrivals + completions).
    events_processed: u64,
    /// Pre-resolved cluster-wide gauge handles.
    g_hosts: fireworks_obs::Gauge,
    g_inflight: fireworks_obs::Gauge,
    g_queue_depth: fireworks_obs::Gauge,
    /// Cluster-wide chunk mesh (content-addressed snapshot distribution).
    /// Every host is attached at construction; platforms without a chunk
    /// store ignore it.
    mesh: SharedChunkMesh,
    /// Which hosts hold each function's start artifact.
    index: HolderIndex,
}

impl<P: ConcurrentPlatform> Cluster<P> {
    /// Builds a cluster, stamping out one platform per host with
    /// `factory(env, &config.platform)`. Hosts are built in index order
    /// on a fresh shared clock and obs plane; each host's fault-plan
    /// seed is derived from the template seed and the host index, so
    /// same-config clusters are bit-for-bit reproducible while hosts
    /// still fail independently.
    ///
    /// # Panics
    ///
    /// Panics if `config.hosts == 0` or `config.slots_per_host == 0`.
    pub fn new(
        config: ClusterConfig,
        mut factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P,
    ) -> Self {
        assert!(config.hosts > 0, "need at least one host");
        assert!(config.slots_per_host > 0, "need at least one slot per host");
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mesh = ChunkMesh::shared();
        let mut index = HolderIndex::new();
        let hosts: Vec<Host<P>> = (0..config.hosts)
            .map(|h| {
                let mut env_config = config.env.clone();
                env_config.fault_plan.seed = env_config
                    .fault_plan
                    .seed
                    .wrapping_add((h as u64).wrapping_mul(HOST_SEED_STRIDE));
                let env = PlatformEnv::with_shared(env_config, clock.clone(), obs.clone());
                let (env, mut platform) = index.add_host(env, |env| factory(env, &config.platform));
                platform.attach_mesh(mesh.clone(), HostId::from_index(h));
                let label = h.to_string();
                let m = obs.metrics();
                let host_labels: &[(&'static str, &str)] = &[("host", &label)];
                let g_inflight = m.gauge("engine.inflight", host_labels);
                let g_queue_depth = m.gauge("engine.queue_depth", host_labels);
                Host {
                    platform,
                    env,
                    healthy: true,
                    free: config.slots_per_host,
                    waiting: VecDeque::new(),
                    inflight: BTreeMap::new(),
                    label,
                    g_inflight,
                    g_queue_depth,
                }
            })
            .collect();
        let healthy_hosts = hosts.len();
        let m = obs.metrics();
        let g_hosts = m.gauge("cluster.hosts", &[]);
        let g_inflight = m.gauge("cluster.inflight", &[]);
        let g_queue_depth = m.gauge("cluster.queue_depth", &[]);
        Cluster {
            clock,
            obs,
            config,
            hosts,
            healthy_hosts,
            inflight_total: 0,
            events_processed: 0,
            g_hosts,
            g_inflight,
            g_queue_depth,
            mesh,
            index,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared observability plane.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of hosts (alive or crashed).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the cluster has no hosts (never true: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Host `h`'s platform.
    pub fn host(&self, h: HostId) -> &P {
        &self.hosts[h.index()].platform
    }

    /// Host `h`'s platform, mutably.
    pub fn host_mut(&mut self, h: HostId) -> &mut P {
        &mut self.hosts[h.index()].platform
    }

    /// Host `h`'s environment (its RAM, bus, store, injector, …).
    pub fn host_env(&self, h: HostId) -> &PlatformEnv {
        &self.hosts[h.index()].env
    }

    /// Simulator events (arrivals + completions) processed by
    /// [`Cluster::run`] so far — the denominator of the events/sec
    /// throughput metric the sweeps report.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Installs a function on every host (each host needs its own
    /// snapshot to restore from). Returns per-host reports in host
    /// order.
    pub fn install(&mut self, spec: &FunctionSpec) -> Result<Vec<InstallReport>, PlatformError> {
        self.hosts
            .iter_mut()
            .map(|host| host.platform.install(spec))
            .collect()
    }

    /// Installs a function on its stable FNV home host only, registering
    /// it (no snapshot build) everywhere else. On a content-addressed
    /// cluster the other hosts pick the snapshot up by delta fetch the
    /// first time a request lands on them; on a flat cluster they rebuild
    /// from source. Returns the home host's report.
    pub fn install_home(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let home = (fnv1a(&spec.name) % self.hosts.len() as u64) as usize;
        let mut report = None;
        for (h, host) in self.hosts.iter_mut().enumerate() {
            if h == home {
                report = Some(host.platform.install(spec)?);
            } else {
                host.platform.register(spec)?;
            }
        }
        Ok(report.expect("home host is in range"))
    }

    /// The cluster's chunk mesh.
    pub fn mesh(&self) -> &SharedChunkMesh {
        &self.mesh
    }

    /// The routing index's holders of `function`, in host order, after
    /// applying every residency change journaled so far — what the next
    /// routing decision for `function` would see. Hosts absent from the
    /// list hold nothing of it.
    pub fn holders(&mut self, function: FunctionId) -> Vec<(HostId, SnapshotResidency)> {
        let hosts = &self.hosts;
        self.index
            .refresh(function, |h, f| hosts[h.index()].platform.residency(f))
            .pairs()
    }

    /// Drives `requests` (sorted by arrival) through the cluster under
    /// `router` and returns the completions with routing statistics.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by arrival time.
    pub fn run<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
    ) -> ClusterReport<P::InFlight> {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival time"
        );
        let mut queue: EventQueue<Event> = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            queue.schedule(r.arrival, Event::Arrive(i));
        }

        let mut run = RunState {
            out: {
                let mut v: Vec<Option<ClusterCompletion>> = Vec::with_capacity(requests.len());
                v.resize_with(requests.len(), || None);
                v
            },
            cluster_waiting: VecDeque::new(),
            retained: Vec::new(),
            rebalances: 0,
            locality_hits: 0,
            peak_inflight: 0,
            peak_host_queue_depth: 0,
            peak_cluster_queue_depth: 0,
            failed_hosts: Vec::new(),
            crash_reroutes: 0,
            roots: BTreeMap::new(),
        };
        let rec = self.obs.recorder().clone();

        while let Some(ev) = queue.pop() {
            self.clock.warp_to(ev.at);
            self.events_processed += 1;
            match ev.event {
                Event::Arrive(i) => {
                    // Admission mints the request's trace: one detached
                    // root span per request, so spans from interleaved
                    // requests (and hosts) never adopt each other.
                    let trace = rec.next_trace_id();
                    let root = rec.start_detached("request", cat::INVOKE, trace);
                    rec.attr(root, "function", &*requests[i].invoke.function.name());
                    run.roots.insert(i, (trace, root));
                    if !self.dispatch(router, requests, i, None, &mut run, &mut queue) {
                        run.cluster_waiting.push_back(i);
                    }
                }
                Event::Complete { host, index } => {
                    if let Some(token) = self.hosts[host].inflight.remove(&index) {
                        self.inflight_total -= 1;
                        match self.config.completion {
                            CompletionPolicy::Release => {
                                self.hosts[host].platform.finish_invoke(token)
                            }
                            CompletionPolicy::Retain => {
                                run.retained.push((HostId::from_index(host), token))
                            }
                        }
                    }
                    self.hosts[host].free += 1;
                    self.touch_host(host, &mut run);
                    // Drain this host's own queue first (FIFO)…
                    if self.hosts[host].healthy {
                        while let Some(next) = self.hosts[host].waiting.pop_front() {
                            if reject_if_expired(
                                &mut run,
                                &rec,
                                requests,
                                next,
                                self.clock.now(),
                                None,
                            ) {
                                continue;
                            }
                            self.start_service(router, requests, host, next, &mut run, &mut queue);
                            break;
                        }
                    }
                    // …then let cluster-queued requests try the router
                    // again, stopping at the first that still can't place.
                    while let Some(next) = run.cluster_waiting.pop_front() {
                        if reject_if_expired(&mut run, &rec, requests, next, self.clock.now(), None)
                        {
                            continue;
                        }
                        if !self.dispatch(router, requests, next, None, &mut run, &mut queue) {
                            run.cluster_waiting.push_front(next);
                            break;
                        }
                    }
                }
            }
            self.reap_mesh_dead(router, requests, &mut run, &mut queue);
            self.sample_gauges(&mut run);
        }

        // Request conservation: every submitted request — including any
        // displaced from a crashed host's queue — must have reached a
        // terminal outcome. A hole here means a crash drain dropped a
        // request instead of rerouting it.
        let lost: Vec<usize> = run
            .out
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            lost.is_empty(),
            "request conservation violated: requests {lost:?} have no outcome \
             ({} crash-displaced requests were rerouted, failed hosts: {:?})",
            run.crash_reroutes,
            run.failed_hosts,
        );

        ClusterReport {
            completions: run
                .out
                .into_iter()
                .map(|c| c.expect("checked above"))
                .collect(),
            retained: run.retained,
            peak_inflight: run.peak_inflight,
            peak_host_queue_depth: run.peak_host_queue_depth,
            peak_cluster_queue_depth: run.peak_cluster_queue_depth,
            rebalances: run.rebalances,
            locality_hits: run.locality_hits,
            failed_hosts: run.failed_hosts,
            crash_reroutes: run.crash_reroutes,
        }
    }

    /// Routes request `i` and places it: service, host queue, cluster
    /// queue, or terminal rejection. Returns `false` only when the
    /// request was parked on the cluster queue (so drains know to stop).
    /// `rerouted_from` marks a request displaced by a host crash: its
    /// placement counts as a rebalance and its terminal failure names
    /// that host.
    fn dispatch<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        i: usize,
        rerouted_from: Option<usize>,
        run: &mut RunState<P::InFlight>,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        let now = self.clock.now();
        let rec = self.obs.recorder().clone();
        if reject_if_expired(run, &rec, requests, i, now, rerouted_from) {
            return true;
        }
        let r = &requests[i];
        if let Some(from) = rerouted_from {
            // A crash displaced this request off host `from`; the router
            // consult below is a second routing decision on its trace.
            if let Some(&(_, root)) = run.roots.get(&i) {
                rec.instant_under(
                    root,
                    "rerouted",
                    cat::ROUTE,
                    vec![("from_host", from.into())],
                );
            }
        }
        if self.healthy_hosts == 0 {
            // Nothing can ever serve this request: the cluster queue
            // only drains on completions, and completions on dead hosts
            // don't restore capacity a router could use.
            if let Some((_, root)) = run.roots.remove(&i) {
                rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, now);
                rec.attr(root, "rejected", "host_unavailable");
                rec.end_detached(root);
            }
            run.out[i] = Some(ClusterCompletion {
                index: i,
                host: rerouted_from.map(HostId::from_index),
                function: r.invoke.function,
                arrived: r.arrival,
                started: now,
                finished: now,
                result: Err(PlatformError::HostUnavailable {
                    function: r.invoke.function.name().to_string(),
                    host: rerouted_from,
                }),
            });
            return true;
        }
        let hosts = &self.hosts;
        let fleet = IndexedFleet {
            hosts,
            holders: self.index.refresh(r.invoke.function, |h, f| {
                hosts[h.index()].platform.residency(f)
            }),
            slots: self.config.slots_per_host,
            queue_cap: self.config.host_queue_cap,
        };
        let (host, rebalanced) = match router.route_fleet(&r.invoke, &fleet) {
            Route::Host(h) => (h, false),
            Route::Fallback(h) => (h, true),
            // The caller parks the request on the cluster queue (front or
            // back, depending on whether it's a drain or an arrival).
            Route::Defer => return false,
        };
        debug_assert!(fleet.view(host).has_capacity(), "router picked a full host");
        let host = host.index();
        if rebalanced || rerouted_from.is_some() {
            run.rebalances += 1;
            self.obs.metrics().inc("cluster.rebalances", &[]);
        }
        if self.hosts[host].free > 0 {
            self.start_service(router, requests, host, i, run, queue);
        } else {
            self.hosts[host].waiting.push_back(i);
            self.touch_host(host, run);
        }
        true
    }

    /// Starts request `i` on host `h` at the current instant — unless
    /// the host's injector fires [`FaultSite::HostCrash`] at this
    /// service boundary, in which case the host fails and everything it
    /// was queueing (this request included) re-routes.
    fn start_service<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        i: usize,
        run: &mut RunState<P::InFlight>,
        queue: &mut EventQueue<Event>,
    ) {
        let crashed = self.hosts[h]
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::HostCrash);
        if crashed {
            self.crash_host(router, requests, h, i, run, queue);
            return;
        }
        let rec = self.obs.recorder().clone();
        let host = &mut self.hosts[h];
        host.free -= 1;
        let started = self.clock.now();
        let r = &requests[i];
        if host.platform.residency(r.invoke.function).is_full() {
            run.locality_hits += 1;
            self.obs.metrics().inc("cluster.locality_hits", &[]);
        }
        let (trace, root) = run.roots.remove(&i).expect("request admitted");
        rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, started);
        // The service span goes on the shared open stack: every span the
        // host platform records nests under it and inherits the trace.
        // The flow pair draws the admission → service causal arrow
        // (rendered as a cross-track arrow in Perfetto).
        let service = rec.start_under(root, "service", cat::INVOKE);
        rec.attr(service, "host", h);
        rec.flow_out(root, trace.raw());
        rec.flow_in(service, trace.raw());
        let invoke = r.invoke.clone().with_trace(SpanContext {
            trace,
            parent: service,
        });
        let result = host.platform.begin_invoke(&invoke);
        let finished = self.clock.now();
        rec.end(service);
        rec.end_detached(root);
        let result = match result {
            Ok((invocation, token)) => {
                host.inflight.insert(i, token);
                self.inflight_total += 1;
                Ok(invocation)
            }
            Err(e) => Err(e),
        };
        run.out[i] = Some(ClusterCompletion {
            index: i,
            host: Some(HostId::from_index(h)),
            function: r.invoke.function,
            arrived: r.arrival,
            started,
            finished,
            result,
        });
        self.touch_host(h, run);
        queue.schedule(finished, Event::Complete { host: h, index: i });
    }

    /// Fails host `h` permanently: marks it unhealthy, then re-routes
    /// `trigger` and every request in its admission queue through the
    /// router. In-flight invocations on the host finish normally — their
    /// completion events are already on the timeline.
    fn crash_host<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        trigger: usize,
        run: &mut RunState<P::InFlight>,
        queue: &mut EventQueue<Event>,
    ) {
        let mut displaced = self.fail_host(h, run);
        displaced.push_front(trigger);
        run.crash_reroutes += displaced.len() as u64;
        self.obs
            .metrics()
            .add("cluster.crash_reroutes", &[], displaced.len() as u64);
        while let Some(i) = displaced.pop_front() {
            if !self.dispatch(router, requests, i, Some(h), run, queue) {
                run.cluster_waiting.push_back(i);
            }
        }
    }

    /// Marks host `h` failed (metrics, mesh, report) and hands back its
    /// queued requests for re-routing.
    fn fail_host(&mut self, h: usize, run: &mut RunState<P::InFlight>) -> VecDeque<usize> {
        self.hosts[h].healthy = false;
        self.healthy_hosts -= 1;
        self.mesh.borrow_mut().mark_dead(HostId::from_index(h));
        run.failed_hosts.push(HostId::from_index(h));
        self.obs.metrics().inc(
            "cluster.host_crashes",
            &[("host", self.hosts[h].label.as_str())],
        );
        self.obs
            .recorder()
            .instant(format!("host_crash:{h}"), fireworks_obs::cat::FAULT);
        let drained = std::mem::take(&mut self.hosts[h].waiting);
        self.touch_host(h, run);
        drained
    }

    /// Fails hosts whose crash was first observed by a peer's delta
    /// fetch (the mesh marks them dead mid-transfer, before any service
    /// boundary on the host itself would have drawn the fault). Their
    /// queued requests drain and re-route exactly like a service-boundary
    /// crash.
    fn reap_mesh_dead<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        run: &mut RunState<P::InFlight>,
        queue: &mut EventQueue<Event>,
    ) {
        // Collect first: `fail_host` needs the mesh borrow back.
        let dead = self.mesh.borrow().dead_hosts();
        for h in dead {
            let h = h.index();
            if !self.hosts.get(h).is_some_and(|host| host.healthy) {
                continue;
            }
            let mut displaced = self.fail_host(h, run);
            run.crash_reroutes += displaced.len() as u64;
            if !displaced.is_empty() {
                self.obs
                    .metrics()
                    .add("cluster.crash_reroutes", &[], displaced.len() as u64);
            }
            while let Some(i) = displaced.pop_front() {
                if !self.dispatch(router, requests, i, Some(h), run, queue) {
                    run.cluster_waiting.push_back(i);
                }
            }
        }
    }

    /// Publishes host `h`'s gauges after its state changed and advances
    /// the per-host high-water mark. Called at the mutation sites instead
    /// of rescanning every host per event: the per-event work is O(hosts
    /// touched by the event), not O(cluster size).
    fn touch_host(&self, h: usize, run: &mut RunState<P::InFlight>) {
        let host = &self.hosts[h];
        host.g_inflight.set(host.inflight.len() as i64);
        host.g_queue_depth.set(host.waiting.len() as i64);
        run.peak_host_queue_depth = run.peak_host_queue_depth.max(host.waiting.len());
    }

    /// Publishes the cluster-wide gauges at an event boundary, and
    /// advances the report's high-water marks. O(1): the totals are
    /// maintained incrementally and the handles are pre-resolved.
    fn sample_gauges(&self, run: &mut RunState<P::InFlight>) {
        run.peak_inflight = run.peak_inflight.max(self.inflight_total);
        run.peak_cluster_queue_depth = run.peak_cluster_queue_depth.max(run.cluster_waiting.len());
        self.g_hosts.set(self.healthy_hosts as i64);
        self.g_inflight.set(self.inflight_total as i64);
        self.g_queue_depth.set(run.cluster_waiting.len() as i64);
    }
}

/// Mutable per-run bookkeeping, separated from the cluster so host
/// borrows and run borrows don't fight.
struct RunState<T> {
    out: Vec<Option<ClusterCompletion>>,
    cluster_waiting: VecDeque<usize>,
    retained: Vec<(HostId, T)>,
    rebalances: u64,
    locality_hits: u64,
    peak_inflight: usize,
    peak_host_queue_depth: usize,
    peak_cluster_queue_depth: usize,
    failed_hosts: Vec<HostId>,
    crash_reroutes: u64,
    // Per-request detached trace roots, opened at arrival and closed at
    // completion or rejection.
    roots: BTreeMap<usize, (TraceId, SpanId)>,
}

/// Rejects request `i` with [`PlatformError::DeadlineExceeded`] if its
/// deadline has passed at `now`; returns whether it was rejected.
fn reject_if_expired<T>(
    run: &mut RunState<T>,
    rec: &Recorder,
    requests: &[EngineRequest],
    i: usize,
    now: Nanos,
    rerouted_from: Option<usize>,
) -> bool {
    let r = &requests[i];
    let Some(deadline) = r.invoke.deadline else {
        return false;
    };
    if now <= deadline {
        return false;
    }
    if let Some((_, root)) = run.roots.remove(&i) {
        rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, now);
        rec.attr(root, "rejected", "deadline");
        rec.end_detached(root);
    }
    run.out[i] = Some(ClusterCompletion {
        index: i,
        host: rerouted_from.map(HostId::from_index),
        function: r.invoke.function,
        arrived: r.arrival,
        started: now,
        finished: now,
        result: Err(PlatformError::DeadlineExceeded {
            function: r.invoke.function.name().to_string(),
            deadline,
        }),
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StartMode;
    use crate::fireworks::FireworksPlatform;
    use crate::symbols::fid;
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;
    use fireworks_sim::fault::FaultPlan;

    fn hid(i: usize) -> HostId {
        HostId::from_index(i)
    }

    fn view(id: usize, inflight: usize, queue_depth: usize, holds: bool) -> HostView {
        view_with(
            id,
            inflight,
            queue_depth,
            if holds {
                SnapshotResidency::Full
            } else {
                SnapshotResidency::Absent
            },
        )
    }

    fn view_with(
        id: usize,
        inflight: usize,
        queue_depth: usize,
        residency: SnapshotResidency,
    ) -> HostView {
        HostView {
            id: hid(id),
            healthy: true,
            inflight,
            queue_depth,
            slots: 2,
            queue_cap: 4,
            residency,
        }
    }

    fn some_req() -> InvokeRequest {
        InvokeRequest::new(fid("f"), Value::Int(1)).with_mode(StartMode::Auto)
    }

    #[test]
    fn round_robin_cycles_and_skips_saturated_hosts() {
        let mut rr = RoundRobin::new();
        let mut views = vec![
            view(0, 0, 0, false),
            view(1, 0, 0, false),
            view(2, 0, 0, false),
        ];
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(0)));
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(1)));
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(2)));
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(0)));
        // Host 1 saturated (full slots and full queue): skipped.
        views[1].inflight = 2;
        views[1].queue_depth = 4;
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(2)));
        // Everyone saturated: defer.
        for v in &mut views {
            v.inflight = 2;
            v.queue_depth = 4;
        }
        assert_eq!(rr.route(&some_req(), &views), Route::Defer);
    }

    #[test]
    fn least_loaded_picks_min_load_lowest_id() {
        let mut ll = LeastLoaded::new();
        let views = vec![
            view(0, 2, 1, false),
            view(1, 1, 0, false),
            view(2, 0, 1, false),
        ];
        // Loads: 3, 1, 1 → tie between hosts 1 and 2 → lowest id wins.
        assert_eq!(ll.route(&some_req(), &views), Route::Host(hid(1)));
        let unhealthy: Vec<HostView> = views
            .iter()
            .map(|v| HostView {
                healthy: false,
                ..*v
            })
            .collect();
        assert_eq!(ll.route(&some_req(), &unhealthy), Route::Defer);
    }

    #[test]
    fn locality_prefers_holders_then_home_then_fallback() {
        let mut loc = LocalityAffinity::new();
        let req = some_req();
        // Hosts 1 and 2 hold the snapshot; 2 is less loaded.
        let views = vec![
            view(0, 0, 0, false),
            view(1, 2, 1, true),
            view(2, 1, 0, true),
        ];
        assert_eq!(loc.route(&req, &views), Route::Host(hid(2)));
        // No holder: the function's stable FNV home gets it (and will
        // cache it for the next request).
        let home = (fnv1a(&req.function.name()) % 3) as usize;
        let views = vec![
            view(0, 1, 1, false),
            view(1, 1, 1, false),
            view(2, 1, 1, false),
        ];
        assert_eq!(loc.route(&req, &views), Route::Host(hid(home)));
        // Home saturated: falls back (counted as a rebalance).
        let mut views = views;
        views[home].inflight = 2;
        views[home].queue_depth = 4;
        match loc.route(&req, &views) {
            Route::Fallback(h) => assert_ne!(h, hid(home)),
            other => panic!("expected fallback, got {other:?}"),
        }
        // All saturated: defer.
        for v in &mut views {
            v.inflight = 2;
            v.queue_depth = 4;
        }
        assert_eq!(loc.route(&req, &views), Route::Defer);
    }

    #[test]
    fn locality_ranks_partial_holders_by_missing_bytes() {
        let mut loc = LocalityAffinity::new();
        let req = some_req();
        // No full holder: the partial host that would move the fewest
        // bytes wins, beating the FNV home probe.
        let views = vec![
            view_with(0, 0, 0, SnapshotResidency::Absent),
            view_with(
                1,
                3,
                1,
                SnapshotResidency::Partial {
                    missing_bytes: 4 << 20,
                },
            ),
            view_with(
                2,
                0,
                0,
                SnapshotResidency::Partial {
                    missing_bytes: 96 << 20,
                },
            ),
        ];
        assert_eq!(loc.route(&req, &views), Route::Host(hid(1)));
        // A full holder still beats every partial one.
        let mut views = views;
        views[0].residency = SnapshotResidency::Full;
        assert_eq!(loc.route(&req, &views), Route::Host(hid(0)));
        // Saturate the cheap partial: the next-cheapest takes it.
        views[0].residency = SnapshotResidency::Absent;
        views[1].inflight = 2;
        views[1].queue_depth = 4;
        assert_eq!(loc.route(&req, &views), Route::Host(hid(2)));
    }

    #[test]
    fn fnv_home_is_stable() {
        assert_eq!(fnv1a("fact-0"), fnv1a("fact-0"));
        assert_ne!(fnv1a("fact-0"), fnv1a("fact-1"));
    }

    const SRC: &str = "
        fn main(params) {
            let n = params[\"n\"];
            let t = 0;
            for (let i = 0; i < n; i = i + 1) { t = t + i; }
            return t;
        }";

    fn spec(name: &str) -> FunctionSpec {
        FunctionSpec::new(
            name,
            SRC,
            RuntimeKind::NodeLike,
            Value::map([("n".to_string(), Value::Int(1000))]),
        )
    }

    fn burst(count: usize) -> Vec<EngineRequest> {
        (0..count)
            .map(|_| {
                EngineRequest::at(
                    Nanos::ZERO,
                    InvokeRequest::new(fid("f"), Value::map([("n".to_string(), Value::Int(500))])),
                )
            })
            .collect()
    }

    #[test]
    fn two_hosts_serve_a_burst_genuinely_in_parallel() {
        let mut cluster = Cluster::new(ClusterConfig::new(2, 1), |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs everywhere");
        let mut rr = RoundRobin::new();
        let report = cluster.run(&mut rr, &burst(2));
        assert_eq!(report.peak_inflight, 2, "one clone per host, concurrently");
        let hosts: Vec<Option<HostId>> = report.completions.iter().map(|c| c.host).collect();
        assert_eq!(hosts, vec![Some(hid(0)), Some(hid(1))]);
        for c in &report.completions {
            assert!(c.result.is_ok());
            assert_eq!(c.waited(), Nanos::ZERO, "no queueing across two hosts");
        }
        // Install populated every host's cache: both starts are local.
        assert_eq!(report.locality_hits, 2);
        assert_eq!(report.rebalances, 0);
        assert!(report.failed_hosts.is_empty());
        let snap = cluster.obs().metrics().snapshot();
        assert_eq!(snap.gauge("cluster.hosts", &[]), Some(2));
        assert_eq!(snap.gauge("engine.inflight", &[("host", "0")]), Some(0));
    }

    /// Prefers host 0, spills to host 1 — makes crash scheduling in the
    /// test below deterministic and legible.
    struct PrimaryBackup;
    impl Router for PrimaryBackup {
        fn name(&self) -> &'static str {
            "primary_backup"
        }
        fn route(&mut self, _req: &InvokeRequest, hosts: &[HostView]) -> Route {
            match hosts.iter().find(|v| v.has_capacity()) {
                Some(v) => Route::Host(v.id),
                None => Route::Defer,
            }
        }
    }

    #[test]
    fn host_crash_drains_and_reroutes_its_queue() {
        // Each host's injector crashes it at its 2nd service start. With
        // a primary/backup router and one slot per host: request 0 starts
        // on host 0 (check 1); request 1 queues behind it; at request 0's
        // completion the drain tries to start request 1 on host 0 —
        // check 2 fires, host 0 dies, and request 1 re-routes to host 1.
        let env = EnvConfig {
            fault_plan: FaultPlan::new(42).nth(FaultSite::HostCrash, 2),
            ..EnvConfig::default()
        };
        let mut config = ClusterConfig::new(2, 1);
        config.env = env;
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(&mut PrimaryBackup, &burst(2));
        assert_eq!(report.failed_hosts, vec![hid(0)]);
        assert_eq!(report.rebalances, 1, "the drained request was re-routed");
        assert_eq!(report.completions[0].host, Some(hid(0)));
        assert_eq!(report.completions[1].host, Some(hid(1)));
        for c in &report.completions {
            assert!(c.result.is_ok(), "both requests still succeed");
        }
        assert!(
            report.completions[1].started >= report.completions[0].finished,
            "the re-routed request started at the drain instant"
        );
        let snap = cluster.obs().metrics().snapshot();
        assert_eq!(snap.gauge("cluster.hosts", &[]), Some(1), "one host left");
        assert_eq!(snap.counter("cluster.rebalances", &[]), 1);
        assert_eq!(snap.counter("cluster.host_crashes", &[("host", "0")]), 1);
    }

    #[test]
    fn all_hosts_down_surfaces_host_unavailable() {
        // Crash every host at its first service start: nothing can serve.
        let env = EnvConfig {
            fault_plan: FaultPlan::new(42).nth(FaultSite::HostCrash, 1),
            ..EnvConfig::default()
        };
        let mut config = ClusterConfig::new(2, 1);
        config.env = env;
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(&mut PrimaryBackup, &burst(1));
        assert_eq!(report.failed_hosts, vec![hid(0), hid(1)]);
        assert!(matches!(
            &report.completions[0].result,
            Err(PlatformError::HostUnavailable { host: Some(1), .. })
        ));
        let snap = cluster.obs().metrics().snapshot();
        assert_eq!(snap.gauge("cluster.hosts", &[]), Some(0));
    }

    #[test]
    fn retain_mode_reports_host_tagged_tokens() {
        let mut config = ClusterConfig::new(2, 1);
        config.completion = CompletionPolicy::Retain;
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(&mut RoundRobin::new(), &burst(2));
        assert_eq!(report.retained.len(), 2);
        let hosts: Vec<HostId> = report.retained.iter().map(|(h, _)| *h).collect();
        assert_eq!(hosts, vec![hid(0), hid(1)]);
        for (h, token) in report.retained {
            assert!(token.pss_bytes() > 0, "retained clone on host {h} is live");
            cluster.host_mut(h).release_clone(token);
        }
    }
}
