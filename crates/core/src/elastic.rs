//! Elastic control plane: scale-out/in with graceful drain, live delta
//! migration, and crash-safe scale-to-zero resurrection.
//!
//! The fixed-fleet [`crate::cluster::Cluster`] answers "how does a
//! cluster of N hosts behave"; this module answers "how many hosts
//! should be powered *right now*, and how do hosts join and leave
//! without losing work". An [`ElasticCluster`] is the
//! [fleet kernel](crate::fleet) plus a control plane: the kernel serves
//! requests exactly as it does for the fixed cluster, and the control
//! plane adds four events of its own — a periodic control tick, a boot
//! completing, a drain deadline, and one snapshot hand-off attempt. The
//! control loop:
//!
//! - **scales up** when queue pressure exceeds the policy threshold (or
//!   a sliding-window arrival predictor sees a rising trend), booting a
//!   fresh host after [`ElasticPolicy::boot_delay`];
//! - **scales down** by *gracefully draining* an idle host: it stops
//!   admitting, finishes its in-flight invocations, and hands its hot
//!   snapshots to survivors via [`crate::mesh::ChunkMesh`] delta
//!   transfers with bounded, exponentially backed-off retries — a drain
//!   that outlives [`ElasticPolicy::drain_deadline`] degrades to hard
//!   removal with rerouting, never lost requests;
//! - **retires** functions idle longer than
//!   [`ElasticPolicy::retire_after`] to a cluster-durable archive
//!   [`ChunkStore`] (scale-to-zero) and resurrects them on demand or on
//!   predictor signal — the archive is just another mesh donor, so
//!   resurrection is an ordinary delta fetch.
//!
//! Unlike the fixed cluster, a request that finds no serving host waits
//! on the fleet-level queue while capacity is booting or can still be
//! provisioned.
//!
//! # Host lifecycle
//!
//! ```text
//!          BootDone          idle, no pressure          hand-offs done, or
//! Booting ─────────▶ Active ──────────────────▶ Draining ───────────────────▶ Retired
//!    │                 │                          │      drain deadline passed
//!    │ ScaleUpFail     │ HostCrash                │ DrainInterrupt / HostCrash
//!    ▼                 ▼                          ▼
//!   Dead              Dead                       Dead
//! ```
//!
//! # Fault model
//!
//! Three elasticity-specific fault sites can be armed on the cluster's
//! fault plan, alongside the existing
//! [`FaultSite::HostCrash`]:
//!
//! - [`FaultSite::DrainInterrupt`] — the draining host dies before its
//!   drain completes; it fails through the kernel's one host-death path
//!   (counted as a host crash, its queue rerouted).
//! - [`FaultSite::MigrationStall`] — one snapshot hand-off wedges
//!   mid-transfer; the receiver retries with exponential virtual-time
//!   backoff up to [`RecoveryPolicy::max_attempts`], then gives up (the
//!   survivor rebuilds from source on first demand instead).
//! - [`FaultSite::ScaleUpFail`] — a scale-up host fails to boot; the
//!   scale-up circuit breaker (mirroring [`RecoveryPolicy`]) backs off,
//!   and after [`SCALE_UP_GIVE_UP`] consecutive boot failures with no
//!   serving capacity left, queued admissions fail fast with
//!   [`PlatformError::HostUnavailable`] rather than waiting forever.
//!
//! # Invariants
//!
//! After every membership event (boot, drain completion, hard removal,
//! crash, retire, resurrect) the built-in auditor cross-checks:
//!
//! 1. every powered host's [`StoreAudit`] — chunk refcounts equal live
//!    manifest occurrences (no orphaned chunks, no dangling refs);
//! 2. the archive store's refcounts against the archived manifests;
//! 3. every alive mesh registration belongs to a powered host (or the
//!    archive) — no routes to dead or retired hosts.
//!
//! Violations are collected into [`ElasticReport::audit_violations`].
//! Request conservation — every submitted request reaches a terminal
//! outcome — is asserted by the kernel at the end of every run.
//!
//! # Metrics
//!
//! Request-serving counters and gauges carry the kernel's `cluster.*`
//! names, as on the fixed cluster. Control-plane actions count under
//! `elastic.*` (`elastic.scale_ups`, `elastic.drains`, …), and the
//! `elastic.hosts` gauge tracks powered hosts.
//!
//! # Determinism
//!
//! Everything is a pure function of config, schedule, and fault seed:
//! host ids are never reused, per-host fault seeds derive from the host
//! id, all bookkeeping iterates `BTreeMap`s, and the event queue orders
//! by `(time, seq)`. Two same-seed runs are byte-identical.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use fireworks_guestmem::SnapshotManifest;
use fireworks_obs::{cat, Gauge, SpanId};
use fireworks_sim::fault::{self, FaultInjector, FaultPlan, FaultSite};
use fireworks_sim::Nanos;

use crate::api::{ConcurrentPlatform, FunctionSpec, PlatformError, StoreAudit};
use crate::cluster::{ClusterCompletion, Router};
use crate::config::{PlatformConfig, RecoveryPolicy};
use crate::engine::{CompletionPolicy, EngineRequest};
use crate::env::{EnvConfig, PlatformEnv};
pub use crate::fleet::HostPhase;
use crate::fleet::{Control, Event, Fleet, Run};
use crate::symbols::{fid, FunctionId, HostId};
use fireworks_store::ChunkStore;

/// Reserved mesh host id for the scale-to-zero archive store. Chosen
/// above any realistic elastic host count, and *above* real ids so the
/// mesh's lowest-id-first donor selection prefers a live replica over
/// the archive whenever one exists. Only an elastic cluster registers
/// it; a fixed cluster's host 250 is an ordinary host.
pub const ARCHIVE_HOST: usize = 250;

/// [`ARCHIVE_HOST`] as a typed mesh id.
fn archive_host_id() -> HostId {
    HostId::from_index(ARCHIVE_HOST)
}

/// Consecutive failed boot attempts after which the control plane stops
/// trying to scale up and fails queued admissions fast (bounds the run
/// under `ScaleUpFail` probability 1.0).
pub const SCALE_UP_GIVE_UP: u32 = 10;

/// How many predictor-ranked functions a freshly booted host prewarms
/// (when [`ElasticPolicy::prewarm`] is on).
const PREWARM_TOP_K: usize = 2;

/// Elasticity policy: when to grow, when to shrink, how to hand off.
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Hosts the cluster never shrinks below (also the initial fleet).
    pub min_hosts: usize,
    /// Hosts the cluster never grows beyond.
    pub max_hosts: usize,
    /// Control-loop period: queue pressure, idleness, retirement, and
    /// the arrival predictor are evaluated once per interval.
    pub control_interval: Nanos,
    /// Scale up when cluster-wide queued requests exceed this many per
    /// active host.
    pub scale_up_queue: usize,
    /// Control ticks a host must sit fully idle (no in-flight work, no
    /// queue) before it becomes a drain candidate.
    pub scale_down_idle_ticks: u32,
    /// Virtual time between deciding to scale up and the new host
    /// serving (machine provisioning + boot).
    pub boot_delay: Nanos,
    /// Budget for a graceful drain; past it the host is hard-removed
    /// (queued work reroutes, unfinished hand-offs are abandoned).
    pub drain_deadline: Nanos,
    /// Retry/backoff/breaker policy for drain-time snapshot migrations,
    /// mirroring the restore-path [`RecoveryPolicy`]: per-function
    /// circuit breakers open after `circuit_threshold` consecutive
    /// migration failures, and the scale-up breaker reuses the same
    /// thresholds for boot failures.
    pub migration: RecoveryPolicy,
    /// Retire a function's snapshots to the archive after it has gone
    /// unseen for this long (`None`: never scale to zero).
    pub retire_after: Option<Nanos>,
    /// Control ticks of per-function arrival history the predictor
    /// keeps.
    pub predictor_window: usize,
    /// Whether to prewarm predictor-hot functions on freshly booted
    /// hosts and scale up proactively on a rising arrival trend.
    pub prewarm: bool,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_hosts: 1,
            max_hosts: 8,
            control_interval: Nanos::from_millis(50),
            scale_up_queue: 4,
            scale_down_idle_ticks: 3,
            boot_delay: Nanos::from_millis(200),
            drain_deadline: Nanos::from_millis(500),
            migration: RecoveryPolicy::default(),
            retire_after: None,
            predictor_window: 4,
            prewarm: false,
        }
    }
}

/// Shape and per-host configuration of an elastic cluster.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Invoker slots per host.
    pub slots_per_host: usize,
    /// Per-host admission-queue bound.
    pub host_queue_cap: usize,
    /// Per-host environment template; each host's fault-plan seed is
    /// re-derived from its id so hosts fail independently.
    pub env: EnvConfig,
    /// Per-host platform configuration.
    pub platform: PlatformConfig,
    /// The elasticity policy.
    pub policy: ElasticPolicy,
}

impl ElasticConfig {
    /// A config with `slots_per_host` slots, a queue bound of twice the
    /// slot count, and default environment, platform, and policy.
    pub fn new(slots_per_host: usize) -> Self {
        ElasticConfig {
            slots_per_host,
            host_queue_cap: slots_per_host * 2,
            env: EnvConfig::default(),
            platform: PlatformConfig::default(),
            policy: ElasticPolicy::default(),
        }
    }
}

/// A consecutive-failure circuit breaker driven by [`RecoveryPolicy`]
/// thresholds (per-function migration breakers and the scale-up
/// breaker).
#[derive(Debug, Default, Clone)]
struct Breaker {
    consecutive: u32,
    open_until: Option<Nanos>,
}

impl Breaker {
    fn is_open(&self, now: Nanos) -> bool {
        self.open_until.is_some_and(|t| now < t)
    }

    fn failure(&mut self, now: Nanos, policy: &RecoveryPolicy) {
        self.consecutive += 1;
        if self.consecutive >= policy.circuit_threshold {
            self.open_until = Some(now + policy.circuit_cooldown);
        }
    }

    fn success(&mut self) {
        self.consecutive = 0;
        self.open_until = None;
    }
}

/// Counters describing what the control plane did during a run.
#[derive(Debug, Default, Clone)]
pub struct ElasticStats {
    /// Boot attempts initiated by the scale-up path.
    pub scale_ups: u64,
    /// Boots that drew [`FaultSite::ScaleUpFail`] and died unprovisioned.
    pub scale_up_failures: u64,
    /// Graceful drains started by the scale-down path.
    pub drains_started: u64,
    /// Drains that completed within their deadline (in-flight work
    /// finished, hand-offs resolved).
    pub graceful_drains: u64,
    /// Drains forced into hard removal by the deadline.
    pub hard_removals: u64,
    /// Drains aborted by [`FaultSite::DrainInterrupt`] (the draining
    /// host died; its queue rerouted).
    pub drain_interrupts: u64,
    /// Snapshot hand-offs that completed (survivor made fully
    /// resident by delta fetch).
    pub migrations: u64,
    /// Hand-off attempts retried after a stall (with backoff).
    pub migration_retries: u64,
    /// [`FaultSite::MigrationStall`] draws observed.
    pub migration_stalls: u64,
    /// Hand-offs abandoned (retries exhausted, breaker open, or no
    /// eligible destination); the survivor rebuilds on demand instead.
    pub migration_failures: u64,
    /// Functions retired to the archive (scale-to-zero).
    pub retired_functions: u64,
    /// Archived functions brought back (on demand or by prewarm).
    pub resurrections: u64,
    /// Successful proactive prewarms on freshly booted hosts.
    pub prewarms: u64,
    /// Requests displaced from a dead or draining host's queue and
    /// rerouted. Conservation: each still reaches a terminal outcome.
    pub crash_reroutes: u64,
    /// Requests placed off their router-preferred host.
    pub rebalances: u64,
    /// Service starts on a host already fully holding the snapshot.
    pub locality_hits: u64,
}

/// The elastic cluster's output: completions plus control-plane
/// statistics and the audit trail.
#[derive(Debug)]
pub struct ElasticReport {
    /// One entry per request, ordered by request index.
    pub completions: Vec<ClusterCompletion>,
    /// What the control plane did.
    pub stats: ElasticStats,
    /// Most hosts ever simultaneously powered.
    pub peak_hosts: usize,
    /// Most invocations ever simultaneously in service.
    pub peak_inflight: usize,
    /// Deepest the cluster-level admission queue ever got.
    pub peak_cluster_queue_depth: usize,
    /// Integral of powered hosts over virtual time — the machine-time
    /// cost the elasticity-vs-overprovisioning trade is measured in.
    pub host_time: Nanos,
    /// Invariant-auditor findings (empty means every membership event
    /// left mesh, stores, and caches mutually consistent).
    pub audit_violations: Vec<String>,
    /// Hosts that crashed or failed to boot, in failure order.
    pub failed_hosts: Vec<HostId>,
    /// Simulator events (arrivals, completions, control ticks, boots,
    /// drains, migrations) the run processed — the deterministic
    /// denominator of an events/sec throughput measurement.
    pub events_processed: u64,
}

/// The control plane's events.
enum Ev {
    Tick,
    BootDone {
        host: usize,
    },
    DrainDeadline {
        host: usize,
    },
    Migrate {
        dest: usize,
        donor: usize,
        function: FunctionId,
        attempt: u32,
    },
}

/// Control-plane state that lives for one run.
#[derive(Default)]
struct Epoch {
    stats: ElasticStats,
    audit_violations: Vec<String>,
    /// Per-function arrivals in the current control interval.
    tick_counts: BTreeMap<FunctionId, u64>,
    /// Previous interval's total (rising-trend detection).
    prev_tick_total: u64,
    /// Per-function sliding window of per-interval arrival counts.
    window: BTreeMap<FunctionId, VecDeque<u64>>,
    /// Last arrival instant per function (retirement input).
    last_arrival: BTreeMap<FunctionId, Nanos>,
    /// Outstanding drain hand-offs per draining host.
    pending: BTreeMap<usize, usize>,
    boot_failures_row: u32,
    boot_give_up: bool,
}

/// A boxed host-platform constructor, retained by the cluster so the
/// control plane can stamp out new hosts mid-run.
pub type HostFactory<P> = Box<dyn FnMut(PlatformEnv, &PlatformConfig) -> P>;

/// The elastic control plane: everything [`ElasticCluster`] adds to
/// the fleet kernel.
struct Elastic<P> {
    policy: ElasticPolicy,
    factory: HostFactory<P>,
    specs: BTreeMap<FunctionId, FunctionSpec>,
    /// The scale-to-zero archive: a cluster-durable chunk store
    /// registered in the mesh under [`ARCHIVE_HOST`] with an inert
    /// injector (the archive never crashes — it models replicated
    /// durable storage).
    archive: Rc<RefCell<ChunkStore>>,
    archive_env: PlatformEnv,
    /// Manifests archived so far, for the audit (the mesh holds the
    /// serving copies).
    archive_manifests: BTreeMap<FunctionId, SnapshotManifest>,
    /// Functions currently scaled to zero.
    archived: BTreeSet<FunctionId>,
    migration_breakers: BTreeMap<FunctionId, Breaker>,
    scale_up_breaker: Breaker,
    /// The `elastic.hosts` gauge: powered hosts.
    g_powered: Gauge,
    epoch: Epoch,
}

/// A growable fleet of per-host platforms under an elasticity policy.
///
/// The factory passed to [`ElasticCluster::new`] is retained so the
/// control plane can stamp out new hosts mid-run; installed specs are
/// retained so new hosts can register every function on boot. The
/// cluster dereferences to its [`Fleet`] for the accessors both fleets
/// share ([`Fleet::host`], [`Fleet::phase`], [`Fleet::obs`], …).
pub struct ElasticCluster<P: ConcurrentPlatform> {
    fleet: Fleet<P>,
    ctl: Elastic<P>,
}

impl<P: ConcurrentPlatform> Deref for ElasticCluster<P> {
    type Target = Fleet<P>;

    fn deref(&self) -> &Fleet<P> {
        &self.fleet
    }
}

impl<P: ConcurrentPlatform> DerefMut for ElasticCluster<P> {
    fn deref_mut(&mut self) -> &mut Fleet<P> {
        &mut self.fleet
    }
}

impl<P: ConcurrentPlatform> ElasticCluster<P> {
    /// Builds an elastic cluster with `policy.min_hosts` hosts already
    /// active (a steady-state start; scale-up later in the run pays the
    /// boot delay). Host ids are assigned in creation order and never
    /// reused; each host's fault-plan seed derives from its id exactly
    /// like the fixed cluster, so arming a fault plan perturbs nothing
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if `min_hosts == 0`, `min_hosts > max_hosts`,
    /// `max_hosts >= ARCHIVE_HOST`, or `slots_per_host == 0`.
    pub fn new(
        config: ElasticConfig,
        factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P + 'static,
    ) -> Self {
        let ElasticConfig {
            slots_per_host,
            host_queue_cap,
            env,
            platform,
            policy,
        } = config;
        assert!(policy.min_hosts > 0, "need at least one host");
        assert!(
            policy.min_hosts <= policy.max_hosts,
            "min_hosts must not exceed max_hosts"
        );
        assert!(
            policy.max_hosts < ARCHIVE_HOST,
            "max_hosts collides with the archive's reserved mesh id"
        );
        let mut archive_env_config = env.clone();
        let completion = CompletionPolicy::Release;
        let mut fleet = Fleet::new(slots_per_host, host_queue_cap, env, platform, completion);
        // The archive never fails: empty plan, disabled injector.
        archive_env_config.fault_plan = FaultPlan::default();
        let archive_env =
            PlatformEnv::with_shared(archive_env_config, fleet.clock.clone(), fleet.obs.clone());
        let archive = Rc::new(RefCell::new(ChunkStore::new(archive_env.host_mem.clone())));
        fleet.mesh.borrow_mut().register(
            archive_host_id(),
            archive.clone(),
            fault::shared(FaultInjector::disabled()),
        );
        let g_powered = fleet.obs.metrics().gauge("elastic.hosts", &[]);
        let mut ctl = Elastic {
            policy,
            factory: Box::new(factory),
            specs: BTreeMap::new(),
            archive,
            archive_env,
            archive_manifests: BTreeMap::new(),
            archived: BTreeSet::new(),
            migration_breakers: BTreeMap::new(),
            scale_up_breaker: Breaker::default(),
            g_powered,
            epoch: Epoch::default(),
        };
        for _ in 0..ctl.policy.min_hosts {
            fleet.add_host(HostPhase::Active, &mut ctl.factory);
        }
        ElasticCluster { fleet, ctl }
    }

    /// Ids of currently powered hosts (booting, active, or draining),
    /// ascending.
    pub fn powered_hosts(&self) -> Vec<HostId> {
        (0..self.fleet.len())
            .map(HostId::from_index)
            .filter(|&h| self.fleet.phase(h).is_powered())
            .collect()
    }

    /// Functions currently scaled to zero (archived, no live replica).
    pub fn archived_functions(&self) -> Vec<FunctionId> {
        self.ctl.archived.iter().copied().collect()
    }

    /// Installs `spec` on the lowest-id active host (building its
    /// snapshot there) and registers it on every other host; hosts
    /// booted later register it too. On a content-addressed cluster the
    /// other hosts pick the snapshot up by delta fetch on first demand.
    pub fn install(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        let mut installed = false;
        for host in self.fleet.hosts.iter_mut() {
            if host.phase != HostPhase::Active {
                continue;
            }
            if installed {
                host.platform.register(spec)?;
            } else {
                host.platform.install(spec)?;
                installed = true;
            }
        }
        assert!(installed, "no active host to install on");
        self.ctl.specs.insert(fid(&spec.name), spec.clone());
        Ok(())
    }

    /// Runs the cluster's invariant audit now (see the module docs for
    /// the three checks). Empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        self.ctl.audit(&self.fleet)
    }

    /// Drives `requests` (sorted by arrival) through the elastic
    /// cluster under `router` and returns the completions with
    /// control-plane statistics.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by arrival time, or if any
    /// request fails to reach a terminal outcome (request-conservation
    /// violation — a control-plane bug by definition).
    pub fn run<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
    ) -> ElasticReport {
        let (completions, tally) = self.fleet.run(&mut self.ctl, router, requests);
        let epoch = std::mem::take(&mut self.ctl.epoch);
        let mut audit_violations = epoch.audit_violations;
        audit_violations.extend(self.audit());
        ElasticReport {
            completions,
            stats: ElasticStats {
                crash_reroutes: tally.crash_reroutes,
                rebalances: tally.rebalances,
                locality_hits: tally.locality_hits,
                ..epoch.stats
            },
            peak_hosts: tally.peak_powered,
            peak_inflight: tally.peak_inflight,
            peak_cluster_queue_depth: tally.peak_cluster_queue_depth,
            host_time: tally.host_time,
            audit_violations,
            failed_hosts: tally.failed_hosts,
            events_processed: tally.events,
        }
    }
}

impl<P: ConcurrentPlatform> Elastic<P> {
    /// The invariant audit over `fleet` and the archive.
    fn audit(&self, fleet: &Fleet<P>) -> Vec<String> {
        let mut violations = Vec::new();
        for (id, host) in fleet.hosts.iter().enumerate() {
            if !host.phase.is_powered() {
                continue;
            }
            if let Some(audit) = host.platform.store_audit() {
                violations.extend(
                    audit
                        .verify()
                        .into_iter()
                        .map(|v| format!("host {id}: {v}")),
                );
            }
        }
        let archive_audit = StoreAudit {
            chunk_refs: self.archive.borrow().chunk_refcounts(),
            manifests: self
                .archive_manifests
                .iter()
                .map(|(k, v)| (k.name().to_string(), v.clone()))
                .collect(),
        };
        violations.extend(
            archive_audit
                .verify()
                .into_iter()
                .map(|v| format!("archive: {v}")),
        );
        for id in fleet.mesh.borrow().alive_hosts() {
            if id.index() == ARCHIVE_HOST {
                continue;
            }
            let powered = fleet
                .hosts
                .get(id.index())
                .is_some_and(|h| h.phase.is_powered());
            if !powered {
                violations.push(format!(
                    "mesh: alive registration for host {id}, which is not powered \
                     (route to nowhere)"
                ));
            }
        }
        violations
    }
}

impl<P: ConcurrentPlatform> Control<P> for Elastic<P> {
    type Event = Ev;

    fn start<R: Router + ?Sized>(run: &mut Run<'_, P, Self, R>) {
        run.ctl.epoch = Epoch::default();
        // Anchor the control loop to the schedule itself: installs may
        // have advanced the clock far past the first arrival instant.
        let anchor = run
            .requests
            .first()
            .map_or(run.fleet.clock.now(), |r| r.arrival);
        let first = anchor + run.ctl.policy.control_interval;
        run.queue.schedule(first, Event::Control(Ev::Tick));
    }

    fn handle<R: Router + ?Sized>(run: &mut Run<'_, P, Self, R>, event: Ev) {
        match event {
            Ev::Tick => run.on_tick(),
            Ev::BootDone { host } => run.on_boot_done(host),
            Ev::DrainDeadline { host } => run.on_drain_deadline(host),
            Ev::Migrate {
                dest,
                donor,
                function,
                attempt,
            } => run.on_migrate(dest, donor, function, attempt),
        }
    }

    fn on_arrive<R: Router + ?Sized>(run: &mut Run<'_, P, Self, R>, i: usize, root: SpanId) {
        let f = run.requests[i].invoke.function;
        let epoch = &mut run.ctl.epoch;
        *epoch.tick_counts.entry(f).or_insert(0) += 1;
        epoch.last_arrival.insert(f, run.fleet.clock.now());
        if run.ctl.archived.remove(&f) {
            // Demand resurrection: the archive (or any later replica)
            // serves the delta fetch when a host first restores it.
            epoch.stats.resurrections += 1;
            run.rec.attr(root, "resurrected", true);
            let name = f.name();
            let labels = [("function", &*name)];
            run.fleet
                .obs
                .metrics()
                .inc("elastic.resurrections", &labels);
        }
    }

    /// A request may wait while a boot is in flight or the control loop
    /// can still provision one.
    fn can_wait<R: Router + ?Sized>(run: &Run<'_, P, Self, R>) -> bool {
        run.fleet.count(HostPhase::Booting) > 0
            || (!run.ctl.epoch.boot_give_up && run.fleet.powered() < run.ctl.policy.max_hosts)
    }

    /// Only an active host's completion frees capacity the router can
    /// use; a draining host's may finish its drain.
    fn on_complete<R: Router + ?Sized>(
        run: &mut Run<'_, P, Self, R>,
        h: usize,
        phase: HostPhase,
    ) -> bool {
        if phase == HostPhase::Draining {
            run.try_finish_drain(h);
        }
        phase == HostPhase::Active
    }

    fn on_host_down<R: Router + ?Sized>(run: &mut Run<'_, P, Self, R>, h: usize) {
        run.ctl.epoch.pending.remove(&h);
        run.audit_into();
    }

    fn sample<R: Router + ?Sized>(run: &Run<'_, P, Self, R>) {
        run.ctl.g_powered.set(run.fleet.powered() as i64);
    }
}

impl<P: ConcurrentPlatform, R: Router + ?Sized> Run<'_, P, Elastic<P>, R> {
    fn audit_into(&mut self) {
        let violations = self.ctl.audit(self.fleet);
        self.ctl.epoch.audit_violations.extend(violations);
    }

    fn schedule(&mut self, at: Nanos, ev: Ev) {
        self.queue.schedule(at, Event::Control(ev));
    }

    /// One control-loop evaluation: predictor update, retirement,
    /// scale-up, scale-down, queue drain, and rescheduling.
    fn on_tick(&mut self) {
        let now = self.fleet.clock.now();
        let policy = self.ctl.policy.clone();
        let epoch = &mut self.ctl.epoch;

        // Slide the arrival predictor's window forward one interval.
        let tick_total: u64 = epoch.tick_counts.values().sum();
        let counts = std::mem::take(&mut epoch.tick_counts);
        for (f, n) in &counts {
            let w = epoch.window.entry(*f).or_default();
            w.push_back(*n);
            while w.len() > policy.predictor_window {
                w.pop_front();
            }
        }
        for (f, w) in epoch.window.iter_mut() {
            if !counts.contains_key(f) {
                w.push_back(0);
                while w.len() > policy.predictor_window {
                    w.pop_front();
                }
            }
        }

        // Idleness accounting.
        for host in self.fleet.hosts.iter_mut() {
            if host.phase == HostPhase::Active
                && host.inflight.is_empty()
                && host.waiting.is_empty()
            {
                host.idle_ticks += 1;
            } else {
                host.idle_ticks = 0;
            }
        }

        // Scale-to-zero retirement.
        if let Some(after) = policy.retire_after {
            self.retire_idle_functions(after, now);
        }

        // Scale up on queue pressure (or a rising trend, when the
        // predictor is armed for proactive capacity).
        let active = self.fleet.count(HostPhase::Active);
        let pressure: usize = self.waiting.len()
            + self
                .fleet
                .hosts
                .iter()
                .filter(|h| h.phase == HostPhase::Active)
                .map(|h| h.waiting.len())
                .sum::<usize>();
        let overloaded = pressure > policy.scale_up_queue * active.max(1);
        let starved = active == 0 && pressure > 0;
        let epoch = &mut self.ctl.epoch;
        let rising = policy.prewarm
            && tick_total > epoch.prev_tick_total
            && tick_total as usize > policy.scale_up_queue;
        epoch.prev_tick_total = tick_total;
        if (overloaded || starved || rising)
            && self.fleet.count(HostPhase::Booting) == 0
            && self.fleet.powered() < policy.max_hosts
            && !epoch.boot_give_up
            && !self.ctl.scale_up_breaker.is_open(now)
        {
            let h = self
                .fleet
                .add_host(HostPhase::Booting, &mut self.ctl.factory);
            self.ctl.epoch.stats.scale_ups += 1;
            self.fleet.obs.metrics().inc("elastic.scale_ups", &[]);
            self.schedule(now + policy.boot_delay, Ev::BootDone { host: h });
        }

        // Give up on scale-up after too many consecutive boot failures
        // with no serving capacity: fail parked admissions fast so the
        // run terminates under ScaleUpFail = 1.0. With nothing booting
        // and no provisioning left, every dispatch is terminal.
        let epoch = &mut self.ctl.epoch;
        epoch.boot_give_up |= epoch.boot_failures_row >= SCALE_UP_GIVE_UP;
        if epoch.boot_give_up
            && self.fleet.count(HostPhase::Active) == 0
            && self.fleet.count(HostPhase::Booting) == 0
        {
            while let Some(i) = self.waiting.pop_front() {
                let resolved = self.dispatch(i, None);
                debug_assert!(resolved, "no capacity left to wait for");
            }
        }

        // Scale down: drain at most one idle host at a time, highest id
        // first (the most recently added capacity leaves first). Never
        // shed capacity while work is queued anywhere — an idle host
        // next to a backlogged peer is the cluster's catch-up capacity,
        // and draining it forces a boot (and a snapshot rebuild) the
        // moment the backlog surfaces as pressure.
        if self.fleet.count(HostPhase::Draining) == 0
            && pressure == 0
            && self.fleet.count(HostPhase::Active) > policy.min_hosts
        {
            let victim = self.fleet.hosts.iter().rposition(|h| {
                h.phase == HostPhase::Active && h.idle_ticks >= policy.scale_down_idle_ticks
            });
            if let Some(h) = victim {
                self.start_drain(h);
            }
        }

        self.drain_waiting();

        // Keep ticking while anything still needs the control loop:
        // unresolved requests, boots, drains, or pending hand-offs.
        let work_remains = self.out.iter().any(|c| c.is_none())
            || self.fleet.count(HostPhase::Booting) > 0
            || self.fleet.count(HostPhase::Draining) > 0
            || self.ctl.epoch.pending.values().any(|&n| n > 0);
        if work_remains {
            self.schedule(now + policy.control_interval, Ev::Tick);
        }
    }

    /// Retires functions unseen for longer than `after`: their chunks
    /// are copied to the archive, then every live replica is dropped.
    fn retire_idle_functions(&mut self, after: Nanos, now: Nanos) {
        let mut resident: BTreeSet<FunctionId> = BTreeSet::new();
        for host in self.fleet.hosts.iter() {
            if host.phase == HostPhase::Active {
                resident.extend(host.platform.hot_functions());
            }
        }
        // Functions with outstanding demand — queued anywhere or in
        // service — are never retirement candidates, even when their
        // last *arrival* is past the horizon (a backlog served slower
        // than it arrived would otherwise thrash retire/resurrect).
        let requests = self.requests;
        let mut busy: BTreeSet<FunctionId> = BTreeSet::new();
        for &i in &self.waiting {
            busy.insert(requests[i].invoke.function);
        }
        for host in &self.fleet.hosts {
            busy.extend(host.waiting.iter().map(|&i| requests[i].invoke.function));
            busy.extend(host.inflight.keys().map(|&i| requests[i].invoke.function));
        }
        for f in resident {
            if busy.contains(&f) {
                continue;
            }
            let last = self.ctl.epoch.last_arrival.get(&f).copied();
            if now.saturating_sub(last.unwrap_or(Nanos::ZERO)) <= after {
                continue;
            }
            // Crash safety: the archive copy must exist before any
            // replica is dropped — a retirement that cannot reach the
            // archive keeps its live replicas.
            if !self.archive_function(f) {
                continue;
            }
            let mut any = false;
            for host in self.fleet.hosts.iter_mut() {
                if host.phase.is_powered() {
                    any |= host.platform.retire(f);
                }
            }
            if any {
                self.ctl.epoch.stats.retired_functions += 1;
                self.ctl.archived.insert(f);
                let name = f.name();
                self.fleet
                    .obs
                    .metrics()
                    .inc("elastic.retired", &[("function", &name)]);
                self.audit_into();
            }
        }
    }

    /// Copies `function`'s snapshot chunks from a live mesh donor into
    /// the archive store and publishes the manifest under
    /// [`ARCHIVE_HOST`], making the archive a resurrection donor.
    /// Idempotent: a function already archived is not re-ingested (no
    /// refcount inflation). Returns whether the archive now holds the
    /// function. The copy is modeled as background replication traffic
    /// — it does not charge the serving timeline.
    fn archive_function(&mut self, function: FunctionId) -> bool {
        let ctl = &mut *self.ctl;
        if ctl.archive_manifests.contains_key(&function) {
            return true;
        }
        let mesh = &self.fleet.mesh;
        let Some(donor) = mesh.borrow().donor_for(function, archive_host_id()) else {
            return false;
        };
        {
            let mut archive = ctl.archive.borrow_mut();
            let missing: BTreeSet<usize> = archive
                .missing_chunks(&donor.manifest)
                .into_iter()
                .collect();
            let donor_store = donor.store.borrow();
            for (i, chunk) in donor.manifest.chunks.iter().enumerate() {
                if !missing.contains(&i) {
                    archive.retain_chunk(chunk.hash);
                    continue;
                }
                let Some(run) = donor_store.chunk_frames(chunk.hash) else {
                    return false;
                };
                let frames: Vec<_> = run
                    .iter()
                    .map(|&(page, f)| {
                        let host_mem = &ctl.archive_env.host_mem;
                        (page, host_mem.clone_frame_from(donor_store.host(), f))
                    })
                    .collect();
                archive.ingest_remote_chunk(chunk.hash, frames);
            }
        }
        mesh.borrow_mut().publish(
            archive_host_id(),
            function,
            donor.manifest.clone(),
            donor.template,
        );
        ctl.archive_manifests.insert(function, donor.manifest);
        let name = function.name();
        self.fleet
            .obs
            .metrics()
            .inc("elastic.archived", &[("function", &name)]);
        true
    }

    /// A scale-up host finishes provisioning — or draws
    /// [`FaultSite::ScaleUpFail`] and dies unprovisioned.
    fn on_boot_done(&mut self, h: usize) {
        if self.fleet.hosts[h].phase != HostPhase::Booting {
            return;
        }
        let now = self.fleet.clock.now();
        let injector = &self.fleet.hosts[h].env.injector;
        if injector.borrow_mut().should_fail(FaultSite::ScaleUpFail) {
            // The host never served: deregister (no crash record for
            // the reaper — there is nothing to drain).
            self.bury(h);
            self.fleet
                .mesh
                .borrow_mut()
                .deregister(HostId::from_index(h));
            let ctl = &mut *self.ctl;
            ctl.epoch.stats.scale_up_failures += 1;
            ctl.epoch.boot_failures_row += 1;
            ctl.scale_up_breaker.failure(now, &ctl.policy.migration);
            self.fleet
                .obs
                .metrics()
                .inc("elastic.scale_up_failures", &[]);
            self.rec.instant(format!("scale_up_fail:{h}"), cat::FAULT);
            self.audit_into();
            return;
        }
        self.fleet.set_phase(h, HostPhase::Active);
        self.ctl.epoch.boot_failures_row = 0;
        self.ctl.scale_up_breaker.success();
        // A late joiner must know every installed function.
        for spec in self.ctl.specs.values() {
            // Registration failures surface on first invocation; a boot
            // must not abort the whole run.
            let _ = self.fleet.hosts[h].platform.register(spec);
        }
        if self.ctl.policy.prewarm {
            self.prewarm_host(h);
        }
        self.audit_into();
        self.drain_waiting();
    }

    /// Prewarms the predictor's hottest functions on host `h`.
    fn prewarm_host(&mut self, h: usize) {
        let mut scored: Vec<(u64, FunctionId)> = self
            .ctl
            .epoch
            .window
            .iter()
            .map(|(f, w)| (w.iter().sum::<u64>(), *f))
            .filter(|(score, _)| *score > 0)
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, f) in scored.into_iter().take(PREWARM_TOP_K) {
            if !self.fleet.hosts[h].platform.prewarm(f) {
                continue;
            }
            let ctl = &mut *self.ctl;
            ctl.epoch.stats.prewarms += 1;
            let name = f.name();
            let labels = [("function", &*name)];
            let metrics = self.fleet.obs.metrics();
            metrics.inc("elastic.prewarms", &labels);
            if ctl.archived.remove(&f) {
                // Predictor-signal resurrection: the prewarm pulled an
                // archived function back into live service.
                ctl.epoch.stats.resurrections += 1;
                metrics.inc("elastic.resurrections", &labels);
            }
        }
    }

    /// Begins a graceful drain of host `h`: stop admitting, displace
    /// its queue, schedule one hand-off per hot function, and arm the
    /// drain deadline.
    fn start_drain(&mut self, h: usize) {
        let now = self.fleet.clock.now();
        self.ctl.epoch.stats.drains_started += 1;
        let labels = [("host", self.fleet.hosts[h].label.as_str())];
        self.fleet.obs.metrics().inc("elastic.drains", &labels);
        self.fleet.set_phase(h, HostPhase::Draining);
        self.displace(h, None);
        // The drain itself can be interrupted before any hand-off.
        let injector = &self.fleet.hosts[h].env.injector;
        if injector.borrow_mut().should_fail(FaultSite::DrainInterrupt) {
            self.ctl.epoch.stats.drain_interrupts += 1;
            self.fleet
                .obs
                .metrics()
                .inc("elastic.drain_interrupts", &[]);
            self.fail_host(h, None);
            return;
        }
        // Schedule one hand-off per hot function to the cheapest
        // survivor that doesn't already hold it.
        let hot = self.fleet.hosts[h].platform.hot_functions();
        let mut scheduled = 0usize;
        for function in hot {
            let Some(dest) = self.pick_migration_dest(function, h) else {
                continue;
            };
            self.schedule(
                now,
                Ev::Migrate {
                    dest,
                    donor: h,
                    function,
                    attempt: 1,
                },
            );
            scheduled += 1;
        }
        self.ctl.epoch.pending.insert(h, scheduled);
        let deadline = now + self.ctl.policy.drain_deadline;
        self.schedule(deadline, Ev::DrainDeadline { host: h });
        self.try_finish_drain(h);
    }

    /// The cheapest active host (fewest missing bytes, then load, then
    /// id) that does not already fully hold `function`; `None` when no
    /// active host exists or every one already holds it.
    fn pick_migration_dest(&self, function: FunctionId, donor: usize) -> Option<usize> {
        self.fleet
            .hosts
            .iter()
            .enumerate()
            .filter(|(id, h)| *id != donor && h.phase == HostPhase::Active)
            .map(|(id, h)| (h.platform.residency(function), h.load(), id))
            .filter(|(residency, _, _)| !residency.is_full())
            .min_by_key(|(residency, load, id)| (residency.missing_bytes(), *load, *id))
            .map(|(_, _, id)| id)
    }

    /// One drain-time snapshot hand-off attempt.
    fn on_migrate(&mut self, dest: usize, donor: usize, function: FunctionId, attempt: u32) {
        if self.fleet.hosts[donor].phase != HostPhase::Draining {
            // The drain already ended (deadline, interrupt, crash);
            // nothing left to hand off.
            return;
        }
        let now = self.fleet.clock.now();
        let policy = self.ctl.policy.migration.clone();
        // The donor can die mid-hand-off: it fails like any host death.
        let injector = &self.fleet.hosts[donor].env.injector;
        if injector.borrow_mut().should_fail(FaultSite::DrainInterrupt) {
            self.ctl.epoch.stats.drain_interrupts += 1;
            self.fleet
                .obs
                .metrics()
                .inc("elastic.drain_interrupts", &[]);
            self.fail_host(donor, None);
            return;
        }
        if self
            .ctl
            .migration_breakers
            .entry(function)
            .or_default()
            .is_open(now)
        {
            self.ctl.epoch.stats.migration_failures += 1;
            self.resolve_handoff(donor);
            return;
        }
        // Re-validate the destination; it may have drained or died
        // since the hand-off was scheduled.
        let dest = if self.fleet.hosts[dest].phase == HostPhase::Active {
            Some(dest)
        } else {
            self.pick_migration_dest(function, donor)
        };
        let Some(dest) = dest else {
            self.migration_failed(function, donor, now, &policy);
            return;
        };
        // The transfer can stall (receiver-side wedge): retry with
        // exponential virtual-time backoff on a re-picked destination.
        let injector = &self.fleet.hosts[dest].env.injector;
        if injector.borrow_mut().should_fail(FaultSite::MigrationStall) {
            self.ctl.epoch.stats.migration_stalls += 1;
            self.fleet
                .obs
                .metrics()
                .inc("elastic.migration_stalls", &[]);
            if attempt < policy.max_attempts {
                self.ctl.epoch.stats.migration_retries += 1;
                self.schedule(
                    now + policy.backoff(attempt),
                    Ev::Migrate {
                        dest,
                        donor,
                        function,
                        attempt: attempt + 1,
                    },
                );
                return;
            }
            self.migration_failed(function, donor, now, &policy);
            return;
        }
        // The hand-off is the mesh's ordinary delta fetch: the
        // destination prewarms itself from the best donor (usually the
        // draining host — the lowest-id full holder). It gets its own
        // control-plane trace: the delta-fetch spans the prewarm records
        // nest under the hand-off span and inherit the migration trace.
        let rec = self.rec.clone();
        let mtrace = rec.next_trace_id();
        let mroot = rec.start_detached("migration", cat::MIGRATE, mtrace);
        let name = function.name();
        rec.attr(mroot, "function", &*name);
        rec.attr(mroot, "donor", donor);
        rec.attr(mroot, "dest", dest);
        let handoff = rec.start_under(mroot, "handoff", cat::MIGRATE);
        let migrated = self.fleet.hosts[dest].platform.prewarm(function);
        rec.end(handoff);
        let outcome = if migrated {
            "migrated"
        } else {
            "rebuild_fallback"
        };
        rec.attr(mroot, "outcome", outcome);
        rec.end_detached(mroot);
        if !migrated {
            // No donor qualified (publication raced away): fall back to
            // rebuild-from-source on first demand at the destination.
            self.migration_failed(function, donor, now, &policy);
            return;
        }
        self.ctl.epoch.stats.migrations += 1;
        self.fleet
            .obs
            .metrics()
            .inc("elastic.migrations", &[("function", &name)]);
        let breaker = self.ctl.migration_breakers.get_mut(&function);
        breaker.expect("entry created above").success();
        self.resolve_handoff(donor);
    }

    /// Abandons one of `donor`'s hand-offs of `function`: counts the
    /// failure against the function's breaker, and the survivor
    /// rebuilds on demand instead.
    fn migration_failed(
        &mut self,
        function: FunctionId,
        donor: usize,
        now: Nanos,
        policy: &RecoveryPolicy,
    ) {
        self.ctl.epoch.stats.migration_failures += 1;
        let breaker = self.ctl.migration_breakers.entry(function).or_default();
        breaker.failure(now, policy);
        self.resolve_handoff(donor);
    }

    /// Marks one of `donor`'s outstanding hand-offs finished and checks
    /// whether the drain can now complete.
    fn resolve_handoff(&mut self, donor: usize) {
        if let Some(n) = self.ctl.epoch.pending.get_mut(&donor) {
            *n = n.saturating_sub(1);
        }
        self.try_finish_drain(donor);
    }

    /// Completes a graceful drain once the host has no in-flight work
    /// and no outstanding hand-offs.
    fn try_finish_drain(&mut self, h: usize) {
        let host = &self.fleet.hosts[h];
        let pending = self.ctl.epoch.pending.get(&h).copied().unwrap_or(0);
        if host.phase != HostPhase::Draining || !host.inflight.is_empty() || pending > 0 {
            return;
        }
        self.ctl.epoch.pending.remove(&h);
        self.ctl.epoch.stats.graceful_drains += 1;
        self.fleet.obs.metrics().inc("elastic.graceful_drains", &[]);
        self.retire_host(h);
    }

    /// The drain deadline fired: if the host is still draining, degrade
    /// to hard removal. Unfinished hand-offs are abandoned (survivors
    /// rebuild on demand); in-flight invocations still complete.
    fn on_drain_deadline(&mut self, h: usize) {
        if self.fleet.hosts[h].phase != HostPhase::Draining {
            return;
        }
        self.ctl.epoch.stats.hard_removals += 1;
        self.fleet.obs.metrics().inc("elastic.hard_removals", &[]);
        self.ctl.epoch.pending.remove(&h);
        self.retire_host(h);
    }

    /// Takes host `h` out of the fleet for good — it left, it did not
    /// crash — and reroutes anything still on its queue.
    fn retire_host(&mut self, h: usize) {
        self.fleet.set_phase(h, HostPhase::Retired);
        self.fleet
            .mesh
            .borrow_mut()
            .deregister(HostId::from_index(h));
        self.displace(h, None);
        self.audit_into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{InvokeRequest, StartMode};
    use crate::cluster::LocalityAffinity;
    use crate::config::SnapshotStorePolicy;
    use crate::fireworks::FireworksPlatform;
    use crate::symbols::fid;
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;

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

    fn dedup_config(policy: ElasticPolicy) -> ElasticConfig {
        let mut config = ElasticConfig::new(1);
        config.platform = PlatformConfig::builder()
            .snapshot_store(SnapshotStorePolicy::dedup())
            .build();
        config.policy = policy;
        config
    }

    fn requests(count: usize, gap: Nanos) -> Vec<EngineRequest> {
        (0..count)
            .map(|i| {
                EngineRequest::at(
                    gap * i as u64,
                    InvokeRequest::new(fid("f"), Value::map([("n".to_string(), Value::Int(200))]))
                        .with_mode(StartMode::Auto),
                )
            })
            .collect()
    }

    #[test]
    fn breaker_opens_at_threshold_and_resets_on_success() {
        let policy = RecoveryPolicy::default();
        let mut b = Breaker::default();
        let now = Nanos::from_millis(1);
        assert!(!b.is_open(now));
        for _ in 0..policy.circuit_threshold {
            b.failure(now, &policy);
        }
        assert!(b.is_open(now));
        assert!(!b.is_open(now + policy.circuit_cooldown), "half-opens");
        b.success();
        assert!(!b.is_open(now));
        assert_eq!(b.consecutive, 0);
    }

    #[test]
    fn powered_phases_are_booting_active_draining() {
        assert!(HostPhase::Booting.is_powered());
        assert!(HostPhase::Active.is_powered());
        assert!(HostPhase::Draining.is_powered());
        assert!(!HostPhase::Retired.is_powered());
        assert!(!HostPhase::Dead.is_powered());
    }

    #[test]
    fn steady_state_run_serves_everything_and_audits_clean() {
        let mut cluster =
            ElasticCluster::new(dedup_config(ElasticPolicy::default()), |env, cfg| {
                FireworksPlatform::with_config(env, cfg.clone())
            });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(
            &mut LocalityAffinity::new(),
            &requests(6, Nanos::from_millis(5)),
        );
        assert!(report.completions.iter().all(|c| c.result.is_ok()));
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
        assert!(report.failed_hosts.is_empty());
        assert!(report.host_time > Nanos::ZERO);
    }

    #[test]
    fn burst_scales_up_and_idle_tail_drains_back_down() {
        let policy = ElasticPolicy {
            min_hosts: 1,
            max_hosts: 4,
            scale_up_queue: 1,
            scale_down_idle_ticks: 2,
            control_interval: Nanos::from_micros(500),
            boot_delay: Nanos::from_millis(1),
            ..ElasticPolicy::default()
        };
        let mut cluster = ElasticCluster::new(dedup_config(policy), |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        // A tight burst overloads one single-slot host, then a quiet
        // tail lets the control loop shrink the fleet again.
        let mut reqs = requests(12, Nanos::from_micros(100));
        let last = reqs.last().expect("non-empty").arrival;
        reqs.push(EngineRequest::at(
            last + Nanos::from_millis(50),
            InvokeRequest::new(fid("f"), Value::map([("n".to_string(), Value::Int(200))])),
        ));
        let report = cluster.run(&mut LocalityAffinity::new(), &reqs);
        assert!(report.completions.iter().all(|c| c.result.is_ok()));
        assert!(report.stats.scale_ups > 0, "burst must grow the fleet");
        assert!(report.peak_hosts > 1);
        assert!(
            report.stats.drains_started > 0 && report.stats.graceful_drains > 0,
            "idle tail must shrink it again: {:?}",
            report.stats
        );
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let fingerprint = |seed: u64| -> String {
            let mut config = dedup_config(ElasticPolicy {
                scale_up_queue: 1,
                max_hosts: 3,
                ..ElasticPolicy::default()
            });
            config.env.fault_plan = FaultPlan::uniform(seed, 0.05);
            let mut cluster = ElasticCluster::new(config, |env, cfg| {
                FireworksPlatform::with_config(env, cfg.clone())
            });
            cluster.install(&spec("f")).expect("installs");
            let report = cluster.run(
                &mut LocalityAffinity::new(),
                &requests(10, Nanos::from_millis(1)),
            );
            format!(
                "{:?}|{:?}|{:?}|{}",
                report
                    .completions
                    .iter()
                    .map(|c| (c.host, c.started.as_nanos(), c.finished.as_nanos()))
                    .collect::<Vec<_>>(),
                report.stats,
                report.failed_hosts,
                report.host_time.as_nanos(),
            )
        };
        assert_eq!(fingerprint(7), fingerprint(7));
    }
}
