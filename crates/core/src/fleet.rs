//! The fleet kernel: the one request-serving event loop behind both
//! [`Cluster`] and [`ElasticCluster`].
//!
//! A [`Fleet`] is a table of hosts — each its own platform instance and
//! [`PlatformEnv`], all on one virtual clock and one obs plane — plus the
//! chunk mesh and the routing index. Its event loop serves requests:
//!
//! - an *arrival* mints the request's trace and dispatches it through
//!   the [`Router`] to a host's slot, a host's admission queue, or the
//!   fleet-level admission queue;
//! - a *completion* frees the slot, starts the next request queued on
//!   that host, then re-offers the fleet-level queue to the router;
//! - a deadline that passes while a request waits rejects it with
//!   [`PlatformError::DeadlineExceeded`];
//! - a host death ([`FaultSite::HostCrash`] at a service start, a peer's
//!   delta fetch finding it dead, or a control-plane fault) and every
//!   other displacement send the host's queued requests back through
//!   the router, counted in `cluster.crash_reroutes`;
//! - at the end of every run, each request must have a terminal outcome
//!   (request conservation).
//!
//! A control plane adds its own events and a few hooks on top. The
//! fixed [`Cluster`] has none: it schedules no control event, and a
//! request with no serving host left fails with
//! [`PlatformError::HostUnavailable`]. The [`ElasticCluster`] adds
//! ticks, boots, drain deadlines and migrations.
//!
//! # One metric vocabulary
//!
//! The kernel publishes the same names on both fleets: the counters
//! `cluster.rebalances`, `cluster.locality_hits`, `cluster.crash_reroutes`
//! and `cluster.host_crashes{host}`, the gauges `cluster.hosts` (hosts
//! admitting requests), `cluster.inflight` and `cluster.queue_depth`, and
//! the per-host gauges `engine.inflight{host}` and
//! `engine.queue_depth{host}`. Only control-plane actions count under
//! `elastic.*`.
//!
//! # Cost per event
//!
//! Every per-event quantity — hosts per [`HostPhase`], invocations in
//! service, the host-time integral — is kept as a running count, updated
//! where it changes. An event touches the hosts it concerns and the
//! routed function's holders, never the whole table.
//!
//! [`Cluster`]: crate::cluster::Cluster
//! [`ElasticCluster`]: crate::elastic::ElasticCluster

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

use fireworks_obs::{cat, Gauge, Obs, Recorder, SpanContext, SpanId, TraceId};
use fireworks_sim::engine::{EventQueue, Scheduled};
use fireworks_sim::fault::FaultSite;
use fireworks_sim::trace::Phase;
use fireworks_sim::{Clock, Nanos};

use crate::api::{ConcurrentPlatform, PlatformError, SnapshotResidency};
use crate::cluster::{ClusterCompletion, FleetQuery, HostView, Route, Router};
use crate::config::PlatformConfig;
use crate::engine::{CompletionPolicy, EngineRequest};
use crate::env::{EnvConfig, JournalSink, PlatformEnv, ResidencyJournal};
use crate::mesh::{ChunkMesh, SharedChunkMesh};
use crate::symbols::{FunctionId, HostId, IdMap};

/// Per-host seed spacing for the derived fault plans (golden-ratio
/// increment, the SplitMix64 stream constant).
const HOST_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lifecycle phase of one host. Ids are never reused, so every host a
/// fleet ever created has a phase. A fixed cluster's hosts are
/// [`HostPhase::Active`] until they crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Provisioning: boot scheduled, not yet admitting.
    Booting,
    /// Serving and admitting.
    Active,
    /// Admissions stopped; finishing in-flight work and handing hot
    /// snapshots to survivors.
    Draining,
    /// Left gracefully (drain completed or deadline-forced removal).
    Retired,
    /// Crashed, or failed to boot. Permanent.
    Dead,
}

impl HostPhase {
    /// Whether the host consumes machine-time right now (powered
    /// phases are what the host-time integral counts).
    pub fn is_powered(self) -> bool {
        matches!(
            self,
            HostPhase::Booting | HostPhase::Active | HostPhase::Draining
        )
    }
}

/// One row of the host table.
pub(crate) struct Host<P: ConcurrentPlatform> {
    pub(crate) platform: P,
    pub(crate) env: PlatformEnv,
    pub(crate) phase: HostPhase,
    free: usize,
    pub(crate) waiting: VecDeque<usize>,
    pub(crate) inflight: BTreeMap<usize, P::InFlight>,
    /// Control ticks spent fully idle (the elastic scale-down input);
    /// every service start resets it.
    pub(crate) idle_ticks: u32,
    /// Preformatted host-index label for metrics.
    pub(crate) label: String,
    g_inflight: Gauge,
    g_queue_depth: Gauge,
}

impl<P: ConcurrentPlatform> Host<P> {
    /// Queueing-relevant load: in service plus waiting.
    pub(crate) fn load(&self) -> usize {
        self.inflight.len() + self.waiting.len()
    }
}

/// The holders of one function: ascending host ids with each one's
/// non-[`SnapshotResidency::Absent`] residency alongside.
#[derive(Debug, Default)]
struct Holders {
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
}

/// The routing index: which hosts hold each function's start artifact,
/// kept current from the hosts' [`ResidencyJournal`]s.
///
/// Before each routing decision the kernel calls
/// [`HolderIndex::refresh`], which re-probes only the `(host, function)`
/// pairs the journals named since the last call — plus, for the routed
/// function, every host whose platform did not opt into the journal.
struct HolderIndex {
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
    fn new() -> Self {
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
    fn add_host<P>(
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
    fn refresh(
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
        // shows up here, in every debug-build run.
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

/// A [`FleetQuery`] over the host table and one function's holders.
struct HostTable<'a, P: ConcurrentPlatform> {
    hosts: &'a [Host<P>],
    holders: &'a Holders,
    slots: usize,
    queue_cap: usize,
}

impl<P: ConcurrentPlatform> FleetQuery for HostTable<'_, P> {
    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn view(&self, h: HostId) -> HostView {
        let host = &self.hosts[h.index()];
        HostView {
            id: h,
            healthy: host.phase == HostPhase::Active,
            inflight: host.inflight.len(),
            queue_depth: host.waiting.len(),
            slots: self.slots,
            queue_cap: self.queue_cap,
            residency: self.holders.get(h),
        }
    }

    fn holders(&self) -> &[HostId] {
        &self.holders.hosts
    }
}

/// A table of hosts on one virtual timeline: the state both fleets
/// share. [`Cluster`](crate::cluster::Cluster) and
/// [`ElasticCluster`](crate::elastic::ElasticCluster) dereference to it.
pub struct Fleet<P: ConcurrentPlatform> {
    pub(crate) clock: Clock,
    pub(crate) obs: Obs,
    pub(crate) hosts: Vec<Host<P>>,
    /// Cluster-wide chunk mesh (content-addressed snapshot
    /// distribution). Every host is attached as it is created; platforms
    /// without a chunk store ignore it.
    pub(crate) mesh: SharedChunkMesh,
    index: HolderIndex,
    /// Hosts per [`HostPhase`], kept by [`Fleet::set_phase`].
    phases: [usize; 5],
    slots: usize,
    queue_cap: usize,
    env: EnvConfig,
    platform: PlatformConfig,
    completion: CompletionPolicy,
    /// Invocations in service fleet-wide.
    inflight: usize,
    /// Events processed across the fleet's lifetime.
    events: u64,
    g_hosts: Gauge,
    g_inflight: Gauge,
    g_queue_depth: Gauge,
}

impl<P: ConcurrentPlatform> Fleet<P> {
    /// An empty fleet on a fresh clock and obs plane, whose hosts will
    /// get `slots` invoker slots, a `queue_cap`-deep admission queue,
    /// and services built from `env`.
    pub(crate) fn new(
        slots: usize,
        queue_cap: usize,
        env: EnvConfig,
        platform: PlatformConfig,
        completion: CompletionPolicy,
    ) -> Self {
        assert!(slots > 0, "need at least one slot per host");
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let m = obs.metrics();
        let (g_hosts, g_inflight, g_queue_depth) = (
            m.gauge("cluster.hosts", &[]),
            m.gauge("cluster.inflight", &[]),
            m.gauge("cluster.queue_depth", &[]),
        );
        Fleet {
            clock,
            obs,
            hosts: Vec::new(),
            mesh: ChunkMesh::shared(),
            index: HolderIndex::new(),
            phases: [0; 5],
            slots,
            queue_cap,
            env,
            platform,
            completion,
            inflight: 0,
            events: 0,
            g_hosts,
            g_inflight,
            g_queue_depth,
        }
    }

    /// Stamps out the next host in `phase` with `build(env, &platform)`
    /// and returns its index. Its fault-plan seed derives from the
    /// template seed and the host index, so same-config fleets are
    /// bit-for-bit reproducible while hosts still fail independently.
    pub(crate) fn add_host(
        &mut self,
        phase: HostPhase,
        build: impl FnOnce(PlatformEnv, &PlatformConfig) -> P,
    ) -> usize {
        let h = self.hosts.len();
        let mut env_config = self.env.clone();
        env_config.fault_plan.seed = env_config
            .fault_plan
            .seed
            .wrapping_add((h as u64).wrapping_mul(HOST_SEED_STRIDE));
        let env = PlatformEnv::with_shared(env_config, self.clock.clone(), self.obs.clone());
        let config = &self.platform;
        let (env, mut platform) = self.index.add_host(env, |env| build(env, config));
        platform.attach_mesh(self.mesh.clone(), HostId::from_index(h));
        let label = h.to_string();
        let m = self.obs.metrics();
        let host_labels: &[(&'static str, &str)] = &[("host", &label)];
        let (g_inflight, g_queue_depth) = (
            m.gauge("engine.inflight", host_labels),
            m.gauge("engine.queue_depth", host_labels),
        );
        self.hosts.push(Host {
            platform,
            env,
            phase,
            free: self.slots,
            waiting: VecDeque::new(),
            inflight: BTreeMap::new(),
            idle_ticks: 0,
            label,
            g_inflight,
            g_queue_depth,
        });
        self.phases[phase as usize] += 1;
        h
    }

    /// Moves host `h` to `phase`: the one place a host changes phase.
    pub(crate) fn set_phase(&mut self, h: usize, phase: HostPhase) {
        let host = &mut self.hosts[h];
        self.phases[host.phase as usize] -= 1;
        self.phases[phase as usize] += 1;
        host.phase = phase;
    }

    /// Hosts currently in `phase`.
    pub(crate) fn count(&self, phase: HostPhase) -> usize {
        self.phases[phase as usize]
    }

    /// Hosts currently powered (booting, active or draining).
    pub(crate) fn powered(&self) -> usize {
        self.count(HostPhase::Booting)
            + self.count(HostPhase::Active)
            + self.count(HostPhase::Draining)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared observability plane.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The fleet's chunk mesh.
    pub fn mesh(&self) -> &SharedChunkMesh {
        &self.mesh
    }

    /// Number of hosts ever created, whatever their phase.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the fleet has no hosts (never true once built: both
    /// fleets start with at least one).
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

    /// Host `h`'s current lifecycle phase.
    pub fn phase(&self, h: HostId) -> HostPhase {
        self.hosts[h.index()].phase
    }

    /// Simulator events processed by every run so far: arrivals and
    /// completions, plus a control plane's own events — the denominator
    /// of the events/sec throughput metric the sweeps report.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The routing index's holders of `function`, in host order, after
    /// applying every residency change journaled so far — what the next
    /// routing decision for `function` would see. Hosts absent from the
    /// list hold nothing of it.
    pub fn holders(&mut self, function: FunctionId) -> Vec<(HostId, SnapshotResidency)> {
        let hosts = &self.hosts;
        let holders = self
            .index
            .refresh(function, |h, f| hosts[h.index()].platform.residency(f));
        holders
            .hosts
            .iter()
            .copied()
            .zip(holders.residency.iter().copied())
            .collect()
    }

    /// Drives `requests` (sorted by arrival) through the fleet under
    /// `router`, with `ctl` adding its events and hooks, and returns the
    /// completions in request order with the run's tally.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by arrival time, or if any
    /// request fails to reach a terminal outcome.
    pub(crate) fn run<C: Control<P>, R: Router + ?Sized>(
        &mut self,
        ctl: &mut C,
        router: &mut R,
        requests: &[EngineRequest],
    ) -> (Vec<ClusterCompletion>, Tally<P::InFlight>) {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival time"
        );
        let mut queue = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            queue.schedule(r.arrival, Event::Arrive(i));
        }
        let mut out = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || None);
        let tally = Tally {
            peak_powered: self.powered(),
            ..Tally::default()
        };
        let mut run = Run {
            rec: self.obs.recorder().clone(),
            last_sample: self.clock.now(),
            fleet: self,
            ctl,
            router,
            requests,
            queue,
            out,
            waiting: VecDeque::new(),
            roots: BTreeMap::new(),
            tally,
        };
        C::start(&mut run);
        while let Some(ev) = run.queue.pop() {
            run.step(ev);
        }
        run.finish()
    }
}

/// Kernel events: the request-serving pair plus the control plane's
/// own.
pub(crate) enum Event<E> {
    Arrive(usize),
    Complete { host: usize, index: usize },
    Control(E),
}

/// What a control plane adds to the kernel: its own events, and hooks at
/// the points where the kernel's behaviour depends on one.
pub(crate) trait Control<P: ConcurrentPlatform>: Sized {
    /// The control plane's event payload.
    type Event;

    /// Runs once before the first event (schedules the first tick).
    fn start<R: Router + ?Sized>(_run: &mut Run<'_, P, Self, R>) {}

    /// Handles one of the control plane's events.
    fn handle<R: Router + ?Sized>(run: &mut Run<'_, P, Self, R>, event: Self::Event);

    /// Request `i` was admitted; `root` is its trace root.
    fn on_arrive<R: Router + ?Sized>(_run: &mut Run<'_, P, Self, R>, _i: usize, _root: SpanId) {}

    /// No host is serving: whether a request may wait for one rather
    /// than fail with [`PlatformError::HostUnavailable`].
    fn can_wait<R: Router + ?Sized>(_run: &Run<'_, P, Self, R>) -> bool {
        false
    }

    /// An invocation finished on host `h`, which was in `phase` when it
    /// did (and has since served its own queue if it was active).
    /// Returns whether the fleet-level queue is re-offered to the
    /// router.
    fn on_complete<R: Router + ?Sized>(
        _run: &mut Run<'_, P, Self, R>,
        _h: usize,
        _phase: HostPhase,
    ) -> bool {
        true
    }

    /// Host `h` died and its queue was rerouted.
    fn on_host_down<R: Router + ?Sized>(_run: &mut Run<'_, P, Self, R>, _h: usize) {}

    /// Publishes the control plane's gauges at an event boundary.
    fn sample<R: Router + ?Sized>(_run: &Run<'_, P, Self, R>) {}
}

/// The fixed fleet's control plane: none.
pub(crate) struct Fixed;

impl<P: ConcurrentPlatform> Control<P> for Fixed {
    type Event = Infallible;

    fn handle<R: Router + ?Sized>(_run: &mut Run<'_, P, Self, R>, event: Infallible) {
        match event {}
    }
}

/// What one run measured, common to both fleets.
pub(crate) struct Tally<T> {
    /// `(host, token)` pairs still resident ([`CompletionPolicy::Retain`]).
    pub(crate) retained: Vec<(HostId, T)>,
    pub(crate) rebalances: u64,
    pub(crate) locality_hits: u64,
    pub(crate) crash_reroutes: u64,
    pub(crate) failed_hosts: Vec<HostId>,
    pub(crate) peak_inflight: usize,
    pub(crate) peak_host_queue_depth: usize,
    pub(crate) peak_cluster_queue_depth: usize,
    pub(crate) peak_powered: usize,
    /// Integral of powered hosts over virtual time.
    pub(crate) host_time: Nanos,
    /// Events this run processed.
    pub(crate) events: u64,
}

impl<T> Default for Tally<T> {
    fn default() -> Self {
        Tally {
            retained: Vec::new(),
            rebalances: 0,
            locality_hits: 0,
            crash_reroutes: 0,
            failed_hosts: Vec::new(),
            peak_inflight: 0,
            peak_host_queue_depth: 0,
            peak_cluster_queue_depth: 0,
            peak_powered: 0,
            host_time: Nanos::ZERO,
            events: 0,
        }
    }
}

/// One run in progress: the fleet, its control plane and router, and
/// the per-run bookkeeping, kept apart from the fleet so host borrows
/// and run borrows don't fight.
pub(crate) struct Run<'a, P: ConcurrentPlatform, C: Control<P>, R: ?Sized> {
    pub(crate) fleet: &'a mut Fleet<P>,
    pub(crate) ctl: &'a mut C,
    router: &'a mut R,
    pub(crate) requests: &'a [EngineRequest],
    pub(crate) queue: EventQueue<Event<C::Event>>,
    /// Each request's outcome, once it has one.
    pub(crate) out: Vec<Option<ClusterCompletion>>,
    /// The fleet-level admission queue.
    pub(crate) waiting: VecDeque<usize>,
    /// Per-request detached trace roots, opened at arrival and closed at
    /// service start or rejection.
    roots: BTreeMap<usize, (TraceId, SpanId)>,
    pub(crate) rec: Recorder,
    last_sample: Nanos,
    pub(crate) tally: Tally<P::InFlight>,
}

impl<P: ConcurrentPlatform, C: Control<P>, R: Router + ?Sized> Run<'_, P, C, R> {
    fn step(&mut self, ev: Scheduled<Event<C::Event>>) {
        self.fleet.events += 1;
        self.tally.events += 1;
        // Integrate powered-host time up to this event with the
        // pre-event fleet size.
        let dt = ev.at.saturating_sub(self.last_sample);
        self.tally.host_time += dt * self.fleet.powered() as u64;
        self.last_sample = ev.at;
        self.fleet.clock.warp_to(ev.at);
        match ev.event {
            Event::Arrive(i) => self.arrive(i),
            Event::Complete { host, index } => self.complete(host, index),
            Event::Control(event) => C::handle(self, event),
        }
        self.reap_mesh_dead();
        self.sample_gauges();
    }

    fn arrive(&mut self, i: usize) {
        // Admission mints the request's trace: one detached root span
        // per request, so spans from interleaved requests (and hosts)
        // never adopt each other.
        let trace = self.rec.next_trace_id();
        let root = self.rec.start_detached("request", cat::INVOKE, trace);
        let name = self.requests[i].invoke.function.name();
        self.rec.attr(root, "function", &*name);
        self.roots.insert(i, (trace, root));
        C::on_arrive(self, i, root);
        if !self.dispatch(i, None) {
            self.waiting.push_back(i);
        }
    }

    fn complete(&mut self, h: usize, index: usize) {
        let host = &mut self.fleet.hosts[h];
        if let Some(token) = host.inflight.remove(&index) {
            self.fleet.inflight -= 1;
            match self.fleet.completion {
                CompletionPolicy::Release => host.platform.finish_invoke(token),
                CompletionPolicy::Retain => {
                    self.tally.retained.push((HostId::from_index(h), token))
                }
            }
        }
        host.free += 1;
        let phase = host.phase;
        self.touch(h);
        // Serve this host's own queue first (FIFO)…
        if phase == HostPhase::Active {
            while let Some(next) = self.fleet.hosts[h].waiting.pop_front() {
                if !self.reject_if_expired(next, None) {
                    self.start_service(h, next);
                    break;
                }
            }
        }
        // …then let fleet-queued requests try the router again.
        if C::on_complete(self, h, phase) {
            self.drain_waiting();
        }
    }

    /// Re-offers the fleet-level queue to the router in FIFO order,
    /// stopping at the first request that still cannot place.
    pub(crate) fn drain_waiting(&mut self) {
        while let Some(next) = self.waiting.pop_front() {
            if !self.dispatch(next, None) {
                self.waiting.push_front(next);
                break;
            }
        }
    }

    /// Routes request `i` and places it: service, host queue, or
    /// terminal rejection. Returns `false` only when the request must
    /// wait on the fleet-level queue (the caller parks it). `from` marks
    /// a request displaced off that host: its placement counts as a
    /// rebalance and its terminal failure names that host.
    pub(crate) fn dispatch(&mut self, i: usize, from: Option<usize>) -> bool {
        if self.reject_if_expired(i, from) {
            return true;
        }
        let r = &self.requests[i];
        if let (Some(from), Some(&(_, root))) = (from, self.roots.get(&i)) {
            // The router consult below is a second routing decision on
            // the request's trace.
            self.rec.instant_under(
                root,
                "rerouted",
                cat::ROUTE,
                vec![("from_host", from.into())],
            );
        }
        if self.fleet.count(HostPhase::Active) == 0 {
            if C::can_wait(self) {
                return false;
            }
            let error = PlatformError::HostUnavailable {
                function: r.invoke.function.name().to_string(),
                host: from,
            };
            self.reject(i, from, "host_unavailable", error);
            return true;
        }
        let fleet = &mut *self.fleet;
        let hosts = &fleet.hosts;
        let table = HostTable {
            hosts,
            holders: fleet.index.refresh(r.invoke.function, |h, f| {
                hosts[h.index()].platform.residency(f)
            }),
            slots: fleet.slots,
            queue_cap: fleet.queue_cap,
        };
        let (host, rebalanced) = match self.router.route_fleet(&r.invoke, &table) {
            Route::Host(h) => (h, false),
            Route::Fallback(h) => (h, true),
            Route::Defer => return false,
        };
        debug_assert!(table.view(host).has_capacity(), "router picked a full host");
        let h = host.index();
        if rebalanced || from.is_some() {
            self.tally.rebalances += 1;
            self.fleet.obs.metrics().inc("cluster.rebalances", &[]);
        }
        if self.fleet.hosts[h].free > 0 {
            self.start_service(h, i);
        } else {
            self.fleet.hosts[h].waiting.push_back(i);
            self.touch(h);
        }
        true
    }

    /// Starts request `i` on host `h` at the current instant — unless
    /// the host's injector fires [`FaultSite::HostCrash`] at this service
    /// boundary, in which case the host dies and everything it was
    /// queueing (this request first) re-routes.
    fn start_service(&mut self, h: usize, i: usize) {
        let fleet = &mut *self.fleet;
        let host = &mut fleet.hosts[h];
        if host
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::HostCrash)
        {
            self.fail_host(h, Some(i));
            return;
        }
        host.free -= 1;
        host.idle_ticks = 0;
        let started = fleet.clock.now();
        let r = &self.requests[i];
        if host.platform.residency(r.invoke.function).is_full() {
            self.tally.locality_hits += 1;
            fleet.obs.metrics().inc("cluster.locality_hits", &[]);
        }
        let rec = &self.rec;
        let (trace, root) = self.roots.remove(&i).expect("request admitted");
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
        let finished = fleet.clock.now();
        rec.end(service);
        rec.end_detached(root);
        let result = result.map(|(invocation, token)| {
            host.inflight.insert(i, token);
            fleet.inflight += 1;
            invocation
        });
        self.out[i] = Some(ClusterCompletion {
            index: i,
            host: Some(HostId::from_index(h)),
            function: r.invoke.function,
            arrived: r.arrival,
            started,
            finished,
            result,
        });
        self.touch(h);
        self.queue
            .schedule(finished, Event::Complete { host: h, index: i });
    }

    /// Kills host `h` permanently: marks it dead (phase, mesh, report,
    /// `cluster.host_crashes`, a `host_crash:` trace instant), then
    /// reroutes `trigger` and its queue. In-flight invocations on the
    /// host finish normally — their completions are already on the
    /// timeline.
    pub(crate) fn fail_host(&mut self, h: usize, trigger: Option<usize>) {
        self.bury(h);
        self.fleet
            .mesh
            .borrow_mut()
            .mark_dead(HostId::from_index(h));
        let label = [("host", self.fleet.hosts[h].label.as_str())];
        self.fleet.obs.metrics().inc("cluster.host_crashes", &label);
        self.rec.instant(format!("host_crash:{h}"), cat::FAULT);
        self.displace(h, trigger);
        C::on_host_down(self, h);
    }

    /// Records host `h` as dead: phase [`HostPhase::Dead`] and an entry
    /// in the report's failed hosts. Every host death goes through here;
    /// the caller settles the mesh and any crash accounting.
    pub(crate) fn bury(&mut self, h: usize) {
        self.fleet.set_phase(h, HostPhase::Dead);
        self.tally.failed_hosts.push(HostId::from_index(h));
    }

    /// Hands `trigger` and host `h`'s admission queue back to the router,
    /// in that order, counting each in `cluster.crash_reroutes`. Every
    /// displaced request still reaches a terminal outcome.
    pub(crate) fn displace(&mut self, h: usize, trigger: Option<usize>) {
        let mut displaced = std::mem::take(&mut self.fleet.hosts[h].waiting);
        if let Some(t) = trigger {
            displaced.push_front(t);
        }
        self.touch(h);
        if !displaced.is_empty() {
            let n = displaced.len() as u64;
            self.tally.crash_reroutes += n;
            self.fleet
                .obs
                .metrics()
                .add("cluster.crash_reroutes", &[], n);
        }
        for i in displaced {
            if !self.dispatch(i, Some(h)) {
                self.waiting.push_back(i);
            }
        }
    }

    /// Fails hosts whose death was first observed by a peer's delta
    /// fetch (the mesh marks them dead mid-transfer, before any service
    /// boundary on the host itself would have drawn the fault).
    fn reap_mesh_dead(&mut self) {
        // Collect first: `fail_host` needs the mesh borrow back.
        let dead = self.fleet.mesh.borrow().dead_hosts();
        for h in dead.into_iter().map(HostId::index) {
            let powered = self.fleet.hosts.get(h).map(|host| host.phase);
            if powered.is_some_and(HostPhase::is_powered) {
                self.fail_host(h, None);
            }
        }
    }

    /// Publishes host `h`'s gauges after its state changed and advances
    /// the per-host queue high-water mark.
    fn touch(&mut self, h: usize) {
        let host = &self.fleet.hosts[h];
        host.g_inflight.set(host.inflight.len() as i64);
        host.g_queue_depth.set(host.waiting.len() as i64);
        let peak = &mut self.tally.peak_host_queue_depth;
        *peak = (*peak).max(host.waiting.len());
    }

    /// Publishes the fleet-wide gauges at an event boundary and advances
    /// the run's high-water marks. O(1): every total is kept current.
    fn sample_gauges(&mut self) {
        let (fleet, t) = (&*self.fleet, &mut self.tally);
        t.peak_inflight = t.peak_inflight.max(fleet.inflight);
        t.peak_cluster_queue_depth = t.peak_cluster_queue_depth.max(self.waiting.len());
        t.peak_powered = t.peak_powered.max(fleet.powered());
        fleet.g_hosts.set(fleet.count(HostPhase::Active) as i64);
        fleet.g_inflight.set(fleet.inflight as i64);
        fleet.g_queue_depth.set(self.waiting.len() as i64);
        C::sample(self);
    }

    /// Rejects request `i` with [`PlatformError::DeadlineExceeded`] if
    /// its deadline has passed; returns whether it was rejected.
    fn reject_if_expired(&mut self, i: usize, from: Option<usize>) -> bool {
        let invoke = &self.requests[i].invoke;
        match invoke.deadline {
            Some(deadline) if self.fleet.clock.now() > deadline => {
                let function = invoke.function.name().to_string();
                let error = PlatformError::DeadlineExceeded { function, deadline };
                self.reject(i, from, "deadline", error);
                true
            }
            _ => false,
        }
    }

    /// Ends request `i` unserved at the current instant: closes its
    /// trace root as rejected for `reason` and records `error` as its
    /// outcome.
    fn reject(
        &mut self,
        i: usize,
        from: Option<usize>,
        reason: &'static str,
        error: PlatformError,
    ) {
        let now = self.fleet.clock.now();
        let r = &self.requests[i];
        if let Some((_, root)) = self.roots.remove(&i) {
            let rec = &self.rec;
            rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, now);
            rec.attr(root, "rejected", reason);
            rec.end_detached(root);
        }
        self.out[i] = Some(ClusterCompletion {
            index: i,
            host: from.map(HostId::from_index),
            function: r.invoke.function,
            arrived: r.arrival,
            started: now,
            finished: now,
            result: Err(error),
        });
    }

    /// Checks request conservation — every submitted request, including
    /// every displaced one, reached a terminal outcome — and hands back
    /// the completions in request order with the tally.
    fn finish(self) -> (Vec<ClusterCompletion>, Tally<P::InFlight>) {
        let lost: Vec<usize> = (0..self.out.len())
            .filter(|&i| self.out[i].is_none())
            .collect();
        assert!(
            lost.is_empty(),
            "request conservation violated: requests {lost:?} have no outcome \
             ({} displaced requests were rerouted, failed hosts: {:?})",
            self.tally.crash_reroutes,
            self.tally.failed_hosts,
        );
        let completions = self.out.into_iter().map(|c| c.expect("checked above"));
        (completions.collect(), self.tally)
    }
}
