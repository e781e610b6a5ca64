//! Elastic control plane: scale-out/in with graceful drain, live delta
//! migration, and crash-safe scale-to-zero resurrection.
//!
//! The fixed-fleet [`crate::cluster::Cluster`] answers "how does a
//! cluster of N hosts behave"; this module answers "how many hosts
//! should be powered *right now*, and how do hosts join and leave
//! without losing work". An [`ElasticCluster`] owns a growable list of
//! per-host platforms on one virtual timeline and runs a periodic
//! control loop that:
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
//! # Fault model
//!
//! Three elasticity-specific fault sites can be armed on the cluster's
//! fault plan, alongside the existing
//! [`FaultSite::HostCrash`]:
//!
//! - [`FaultSite::DrainInterrupt`] — the draining host dies before its
//!   drain completes; the control plane degrades to hard removal and
//!   reroutes everything it was queueing.
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
//! outcome — is asserted at the end of every run, exactly like the
//! fixed cluster.
//!
//! # Determinism
//!
//! Everything is a pure function of config, schedule, and fault seed:
//! host ids are never reused, per-host fault seeds derive from the host
//! id, all bookkeeping iterates `BTreeMap`s, and the event queue orders
//! by `(time, seq)`. Two same-seed runs are byte-identical.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use fireworks_guestmem::SnapshotManifest;
use fireworks_obs::{cat, Obs, SpanContext, SpanId, TraceId};
use fireworks_sim::engine::EventQueue;
use fireworks_sim::fault::{self, FaultInjector, FaultPlan, FaultSite};
use fireworks_sim::trace::Phase;
use fireworks_sim::{Clock, Nanos};

use crate::api::{ConcurrentPlatform, FunctionSpec, PlatformError, StoreAudit};
use crate::cluster::{
    ClusterCompletion, FleetQuery, HolderIndex, HostLoad, IndexedFleet, Route, Router,
    HOST_SEED_STRIDE,
};
use crate::config::{PlatformConfig, RecoveryPolicy};
use crate::engine::EngineRequest;
use crate::env::{EnvConfig, PlatformEnv};
use crate::mesh::{ChunkMesh, SharedChunkMesh};
use crate::symbols::{fid, FunctionId, HostId};
use fireworks_store::ChunkStore;

/// Reserved mesh host id for the scale-to-zero archive store. Chosen
/// above any realistic host count (and within `u8` so delta fetches can
/// address the archive as peer `10.42.0.250`), and *above* real ids so
/// the mesh's lowest-id-first donor selection prefers a live replica
/// over the archive whenever one exists.
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

/// Lifecycle phase of one elastic host. Ids are never reused, so every
/// host the cluster ever powered has a phase.
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
    /// Crashed, or failed to boot. Permanent, like a cluster crash.
    Dead,
}

impl HostPhase {
    /// Whether the host consumes machine-time right now (powered
    /// phases are what [`ElasticReport::host_time`] integrates).
    pub fn is_powered(self) -> bool {
        matches!(
            self,
            HostPhase::Booting | HostPhase::Active | HostPhase::Draining
        )
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

struct EHost<P: ConcurrentPlatform> {
    platform: P,
    env: PlatformEnv,
    phase: HostPhase,
    free: usize,
    waiting: VecDeque<usize>,
    inflight: BTreeMap<usize, P::InFlight>,
    idle_ticks: u32,
    label: String,
}

impl<P: ConcurrentPlatform> HostLoad for EHost<P> {
    /// Only [`HostPhase::Active`] hosts admit: booting and draining
    /// hosts count as unhealthy.
    fn serving(&self) -> bool {
        self.phase == HostPhase::Active
    }

    fn inflight(&self) -> usize {
        self.inflight.len()
    }

    fn queue_depth(&self) -> usize {
        self.waiting.len()
    }
}

enum Ev {
    Arrive(usize),
    Complete {
        host: usize,
        index: usize,
    },
    ControlTick,
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

/// Per-run bookkeeping, separated from the cluster so host borrows and
/// run borrows don't fight (same split as the fixed cluster).
struct ERun {
    out: Vec<Option<ClusterCompletion>>,
    cluster_waiting: VecDeque<usize>,
    stats: ElasticStats,
    peak_hosts: usize,
    peak_inflight: usize,
    peak_cluster_queue_depth: usize,
    host_time: Nanos,
    last_sample: Nanos,
    failed_hosts: Vec<HostId>,
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
    /// Per-request detached trace roots, opened at arrival and closed at
    /// completion or rejection.
    roots: BTreeMap<usize, (TraceId, SpanId)>,
}

/// A boxed host-platform constructor, retained by the cluster so the
/// control plane can stamp out new hosts mid-run.
pub type HostFactory<P> = Box<dyn FnMut(PlatformEnv, &PlatformConfig) -> P>;

/// A growable fleet of per-host platforms under an elasticity policy.
///
/// The factory passed to [`ElasticCluster::new`] is retained so the
/// control plane can stamp out new hosts mid-run; installed specs are
/// retained so new hosts can register every function on boot.
pub struct ElasticCluster<P: ConcurrentPlatform> {
    clock: Clock,
    obs: Obs,
    config: ElasticConfig,
    hosts: Vec<EHost<P>>,
    mesh: SharedChunkMesh,
    /// Which hosts hold each function's start artifact; hosts join it
    /// as they are created.
    index: HolderIndex,
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
    /// Invocations currently in service across the fleet, maintained
    /// incrementally so gauge sampling is O(1) per event.
    inflight_total: usize,
    g_hosts: fireworks_obs::Gauge,
    g_active: fireworks_obs::Gauge,
    g_inflight: fireworks_obs::Gauge,
    g_queue: fireworks_obs::Gauge,
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
        assert!(config.policy.min_hosts > 0, "need at least one host");
        assert!(
            config.policy.min_hosts <= config.policy.max_hosts,
            "min_hosts must not exceed max_hosts"
        );
        assert!(
            config.policy.max_hosts < ARCHIVE_HOST,
            "max_hosts collides with the archive's reserved mesh id"
        );
        assert!(config.slots_per_host > 0, "need at least one slot");
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mesh = ChunkMesh::shared();
        let mut archive_env_config = config.env.clone();
        // The archive never fails: empty plan, disabled injector.
        archive_env_config.fault_plan = FaultPlan::default();
        let archive_env = PlatformEnv::with_shared(archive_env_config, clock.clone(), obs.clone());
        let archive = Rc::new(RefCell::new(ChunkStore::new(archive_env.host_mem.clone())));
        mesh.borrow_mut().register(
            archive_host_id(),
            archive.clone(),
            fault::shared(FaultInjector::disabled()),
        );
        let g_hosts = obs.metrics().gauge("elastic.hosts", &[]);
        let g_active = obs.metrics().gauge("elastic.active_hosts", &[]);
        let g_inflight = obs.metrics().gauge("elastic.inflight", &[]);
        let g_queue = obs.metrics().gauge("elastic.queue_depth", &[]);
        let mut cluster = ElasticCluster {
            clock,
            obs,
            config,
            hosts: Vec::new(),
            mesh,
            index: HolderIndex::new(),
            factory: Box::new(factory),
            specs: BTreeMap::new(),
            archive,
            archive_env,
            archive_manifests: BTreeMap::new(),
            archived: BTreeSet::new(),
            migration_breakers: BTreeMap::new(),
            scale_up_breaker: Breaker::default(),
            inflight_total: 0,
            g_hosts,
            g_active,
            g_inflight,
            g_queue,
        };
        for _ in 0..cluster.config.policy.min_hosts {
            let h = cluster.create_host();
            cluster.hosts[h].phase = HostPhase::Active;
        }
        cluster
    }

    /// Stamps out one host in [`HostPhase::Booting`] and returns its id.
    fn create_host(&mut self) -> usize {
        let h = self.hosts.len();
        let mut env_config = self.config.env.clone();
        env_config.fault_plan.seed = env_config
            .fault_plan
            .seed
            .wrapping_add((h as u64).wrapping_mul(HOST_SEED_STRIDE));
        let env = PlatformEnv::with_shared(env_config, self.clock.clone(), self.obs.clone());
        let factory = &mut self.factory;
        let (env, mut platform) = self
            .index
            .add_host(env, |env| factory(env, &self.config.platform));
        platform.attach_mesh(self.mesh.clone(), HostId::from_index(h));
        self.hosts.push(EHost {
            platform,
            env,
            phase: HostPhase::Booting,
            free: self.config.slots_per_host,
            waiting: VecDeque::new(),
            inflight: BTreeMap::new(),
            idle_ticks: 0,
            label: h.to_string(),
        });
        h
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared observability plane.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The cluster's chunk mesh.
    pub fn mesh(&self) -> &SharedChunkMesh {
        &self.mesh
    }

    /// Host `h`'s current lifecycle phase.
    pub fn phase(&self, h: HostId) -> HostPhase {
        self.hosts[h.index()].phase
    }

    /// Ids of currently powered hosts (booting, active, or draining),
    /// ascending.
    pub fn powered_hosts(&self) -> Vec<HostId> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.phase.is_powered())
            .map(|(id, _)| HostId::from_index(id))
            .collect()
    }

    /// Host `h`'s platform.
    pub fn host(&self, h: HostId) -> &P {
        &self.hosts[h.index()].platform
    }

    /// Host `h`'s platform, mutably.
    pub fn host_mut(&mut self, h: HostId) -> &mut P {
        &mut self.hosts[h.index()].platform
    }

    /// Functions currently scaled to zero (archived, no live replica).
    pub fn archived_functions(&self) -> Vec<FunctionId> {
        self.archived.iter().copied().collect()
    }

    /// Installs `spec` on the lowest-id active host (building its
    /// snapshot there) and registers it on every other host; hosts
    /// booted later register it too. On a content-addressed cluster the
    /// other hosts pick the snapshot up by delta fetch on first demand.
    pub fn install(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        let mut installed = false;
        for host in self.hosts.iter_mut() {
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
        self.specs.insert(fid(&spec.name), spec.clone());
        Ok(())
    }

    /// Runs the cluster's invariant audit now (see the module docs for
    /// the three checks). Empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (id, host) in self.hosts.iter().enumerate() {
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
        for id in self.mesh.borrow().alive_hosts() {
            if id.index() == ARCHIVE_HOST {
                continue;
            }
            let powered = self
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

    fn audit_into(&self, run: &mut ERun) {
        run.audit_violations.extend(self.audit());
    }

    /// Copies `name`'s snapshot chunks from a live mesh donor into the
    /// archive store and publishes the manifest under [`ARCHIVE_HOST`],
    /// making the archive a resurrection donor. Idempotent: a function
    /// already archived is not re-ingested (no refcount inflation).
    /// Returns whether the archive now holds the function. The copy is
    /// modeled as background replication traffic — it does not charge
    /// the serving timeline.
    fn archive_function(&mut self, function: FunctionId) -> bool {
        if self.archive_manifests.contains_key(&function) {
            return true;
        }
        let Some(donor) = self.mesh.borrow().donor_for(function, archive_host_id()) else {
            return false;
        };
        {
            let mut archive = self.archive.borrow_mut();
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
                        (
                            page,
                            self.archive_env
                                .host_mem
                                .clone_frame_from(donor_store.host(), f),
                        )
                    })
                    .collect();
                archive.ingest_remote_chunk(chunk.hash, frames);
            }
        }
        self.mesh.borrow_mut().publish(
            archive_host_id(),
            function,
            donor.manifest.clone(),
            donor.template,
        );
        self.archive_manifests.insert(function, donor.manifest);
        let name = function.name();
        self.obs
            .metrics()
            .inc("elastic.archived", &[("function", &name)]);
        true
    }

    fn powered_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.phase.is_powered()).count()
    }

    fn active_count(&self) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.phase == HostPhase::Active)
            .count()
    }

    fn booting_count(&self) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.phase == HostPhase::Booting)
            .count()
    }
}

impl<P: ConcurrentPlatform> ElasticCluster<P> {
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
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival time"
        );
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            queue.schedule(r.arrival, Ev::Arrive(i));
        }
        let start = self.clock.now();
        // Anchor the control loop to the schedule itself: installs may
        // have advanced the clock far past the first arrival instant.
        let anchor = requests.first().map_or(start, |r| r.arrival);
        queue.schedule(
            anchor + self.config.policy.control_interval,
            Ev::ControlTick,
        );

        let mut run = ERun {
            out: {
                let mut v: Vec<Option<ClusterCompletion>> = Vec::with_capacity(requests.len());
                v.resize_with(requests.len(), || None);
                v
            },
            cluster_waiting: VecDeque::new(),
            stats: ElasticStats::default(),
            peak_hosts: self.powered_count(),
            peak_inflight: 0,
            peak_cluster_queue_depth: 0,
            host_time: Nanos::ZERO,
            last_sample: start,
            failed_hosts: Vec::new(),
            audit_violations: Vec::new(),
            tick_counts: BTreeMap::new(),
            prev_tick_total: 0,
            window: BTreeMap::new(),
            last_arrival: BTreeMap::new(),
            pending: BTreeMap::new(),
            boot_failures_row: 0,
            boot_give_up: false,
            roots: BTreeMap::new(),
        };

        let mut events_processed = 0u64;
        while let Some(ev) = queue.pop() {
            events_processed += 1;
            // Integrate powered-host machine time up to this event with
            // the pre-event fleet size.
            let dt = ev.at.saturating_sub(run.last_sample);
            run.host_time += dt * self.powered_count() as u64;
            run.last_sample = ev.at;
            self.clock.warp_to(ev.at);
            match ev.event {
                Ev::Arrive(i) => self.on_arrive(router, requests, i, &mut run, &mut queue),
                Ev::Complete { host, index } => {
                    self.on_complete(router, requests, host, index, &mut run, &mut queue)
                }
                Ev::ControlTick => self.on_tick(router, requests, &mut run, &mut queue),
                Ev::BootDone { host } => {
                    self.on_boot_done(router, requests, host, &mut run, &mut queue)
                }
                Ev::DrainDeadline { host } => {
                    self.on_drain_deadline(router, requests, host, &mut run, &mut queue)
                }
                Ev::Migrate {
                    dest,
                    donor,
                    function,
                    attempt,
                } => self.on_migrate(dest, donor, function, attempt, &mut run, &mut queue),
            }
            self.reap_mesh_dead(router, requests, &mut run, &mut queue);
            self.sample_gauges(&mut run);
        }

        self.audit_into(&mut run);
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
             ({} reroutes, failed hosts: {:?})",
            run.stats.crash_reroutes,
            run.failed_hosts,
        );

        ElasticReport {
            completions: run
                .out
                .into_iter()
                .map(|c| c.expect("checked above"))
                .collect(),
            stats: run.stats,
            peak_hosts: run.peak_hosts,
            peak_inflight: run.peak_inflight,
            peak_cluster_queue_depth: run.peak_cluster_queue_depth,
            host_time: run.host_time,
            audit_violations: run.audit_violations,
            failed_hosts: run.failed_hosts,
            events_processed,
        }
    }

    fn on_arrive<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        i: usize,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        let f = requests[i].invoke.function;
        *run.tick_counts.entry(f).or_insert(0) += 1;
        run.last_arrival.insert(f, self.clock.now());
        // Admission mints the request's trace: one detached root span
        // per request, so spans from interleaved requests (and hosts)
        // never adopt each other.
        let rec = self.obs.recorder().clone();
        let trace = rec.next_trace_id();
        let root = rec.start_detached("request", cat::INVOKE, trace);
        let name = f.name();
        rec.attr(root, "function", &*name);
        run.roots.insert(i, (trace, root));
        if self.archived.remove(&f) {
            // Demand resurrection: the archive (or any later replica)
            // serves the delta fetch when a host first restores it.
            run.stats.resurrections += 1;
            rec.attr(root, "resurrected", true);
            self.obs
                .metrics()
                .inc("elastic.resurrections", &[("function", &name)]);
        }
        if !self.dispatch(router, requests, i, None, run, queue) {
            run.cluster_waiting.push_back(i);
        }
    }

    fn on_complete<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        index: usize,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        if let Some(token) = self.hosts[h].inflight.remove(&index) {
            self.hosts[h].platform.finish_invoke(token);
            self.inflight_total -= 1;
        }
        self.hosts[h].free += 1;
        match self.hosts[h].phase {
            HostPhase::Active => {
                while let Some(next) = self.hosts[h].waiting.pop_front() {
                    if self.reject_if_expired(requests, next, run, None) {
                        continue;
                    }
                    self.start_service(router, requests, h, next, run, queue);
                    break;
                }
                self.drain_cluster_queue(router, requests, run, queue);
            }
            HostPhase::Draining => self.try_finish_drain(h, run),
            _ => {}
        }
    }

    /// FIFO-drains the cluster admission queue through the router,
    /// stopping at the first request that still cannot place.
    fn drain_cluster_queue<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        while let Some(next) = run.cluster_waiting.pop_front() {
            if self.reject_if_expired(requests, next, run, None) {
                continue;
            }
            if !self.dispatch(router, requests, next, None, run, queue) {
                run.cluster_waiting.push_front(next);
                break;
            }
        }
    }

    /// Routes request `i` and places it: service, host queue, cluster
    /// queue, or terminal rejection. Returns `false` only when the
    /// request should wait on the cluster queue.
    fn dispatch<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        i: usize,
        rerouted_from: Option<usize>,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) -> bool {
        let now = self.clock.now();
        if self.reject_if_expired(requests, i, run, rerouted_from) {
            return true;
        }
        let rec = self.obs.recorder().clone();
        let r = &requests[i];
        if let Some(from) = rerouted_from {
            // A crash or drain displaced this request off host `from`;
            // the router consult below is a second routing decision.
            if let Some(&(_, root)) = run.roots.get(&i) {
                rec.instant_under(
                    root,
                    "rerouted",
                    cat::ROUTE,
                    vec![("from_host", from.into())],
                );
            }
        }
        if self.active_count() == 0 {
            // No serving capacity. If capacity is on its way (a boot in
            // flight) or the control loop can still provision some, the
            // request waits; otherwise nothing will ever serve it.
            let can_recover = self.booting_count() > 0
                || (!run.boot_give_up && self.powered_count() < self.config.policy.max_hosts);
            if can_recover {
                return false;
            }
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
            Route::Defer => return false,
        };
        debug_assert!(fleet.view(host).has_capacity(), "router picked a full host");
        let host = host.index();
        if rebalanced || rerouted_from.is_some() {
            run.stats.rebalances += 1;
            self.obs.metrics().inc("elastic.rebalances", &[]);
        }
        if self.hosts[host].free > 0 {
            self.start_service(router, requests, host, i, run, queue);
        } else {
            self.hosts[host].waiting.push_back(i);
        }
        true
    }

    /// Starts request `i` on host `h` now — unless the host's injector
    /// fires [`FaultSite::HostCrash`] at this service boundary.
    fn start_service<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        i: usize,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        let crashed = self.hosts[h]
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::HostCrash);
        if crashed {
            self.fail_host_and_reroute(router, requests, h, Some(i), run, queue);
            return;
        }
        let rec = self.obs.recorder().clone();
        let host = &mut self.hosts[h];
        host.free -= 1;
        host.idle_ticks = 0;
        let started = self.clock.now();
        let r = &requests[i];
        if host.platform.residency(r.invoke.function).is_full() {
            run.stats.locality_hits += 1;
            self.obs.metrics().inc("elastic.locality_hits", &[]);
        }
        let (trace, root) = run.roots.remove(&i).expect("request admitted");
        rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, started);
        // The service span goes on the shared open stack: every span the
        // host platform records nests under it and inherits the trace.
        // The flow pair draws the admission → service causal arrow.
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
        queue.schedule(finished, Ev::Complete { host: h, index: i });
    }

    /// Fails host `h` permanently (crash or drain interrupt): marks it
    /// dead in the mesh, cancels its pending hand-offs, and reroutes
    /// `trigger` plus everything in its admission queue. In-flight
    /// invocations still complete — their events are on the timeline.
    fn fail_host_and_reroute<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        trigger: Option<usize>,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        self.hosts[h].phase = HostPhase::Dead;
        self.hosts[h].idle_ticks = 0;
        self.mesh.borrow_mut().mark_dead(HostId::from_index(h));
        run.pending.remove(&h);
        run.failed_hosts.push(HostId::from_index(h));
        self.obs.metrics().inc(
            "elastic.host_crashes",
            &[("host", self.hosts[h].label.as_str())],
        );
        self.obs
            .recorder()
            .instant(format!("host_crash:{h}"), fireworks_obs::cat::FAULT);
        let mut displaced = std::mem::take(&mut self.hosts[h].waiting);
        if let Some(t) = trigger {
            displaced.push_front(t);
        }
        run.stats.crash_reroutes += displaced.len() as u64;
        if !displaced.is_empty() {
            self.obs
                .metrics()
                .add("elastic.crash_reroutes", &[], displaced.len() as u64);
        }
        while let Some(i) = displaced.pop_front() {
            if !self.dispatch(router, requests, i, Some(h), run, queue) {
                run.cluster_waiting.push_back(i);
            }
        }
        self.audit_into(run);
    }

    /// Fails hosts whose crash was first observed by a peer's delta
    /// fetch (the mesh marked them dead mid-transfer).
    fn reap_mesh_dead<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        let dead = self.mesh.borrow().dead_hosts();
        for h in dead {
            let h = h.index();
            if h == ARCHIVE_HOST {
                continue;
            }
            if !self
                .hosts
                .get(h)
                .is_some_and(|host| host.phase.is_powered())
            {
                continue;
            }
            self.fail_host_and_reroute(router, requests, h, None, run, queue);
        }
    }

    fn sample_gauges(&self, run: &mut ERun) {
        let powered = self.powered_count();
        run.peak_inflight = run.peak_inflight.max(self.inflight_total);
        run.peak_cluster_queue_depth = run.peak_cluster_queue_depth.max(run.cluster_waiting.len());
        run.peak_hosts = run.peak_hosts.max(powered);
        self.g_hosts.set(powered as i64);
        self.g_active.set(self.active_count() as i64);
        self.g_inflight.set(self.inflight_total as i64);
        self.g_queue.set(run.cluster_waiting.len() as i64);
    }

    /// Rejects request `i` with [`PlatformError::DeadlineExceeded`] if
    /// its deadline passed; returns whether it was rejected.
    fn reject_if_expired(
        &self,
        requests: &[EngineRequest],
        i: usize,
        run: &mut ERun,
        rerouted_from: Option<usize>,
    ) -> bool {
        let now = self.clock.now();
        let r = &requests[i];
        let Some(deadline) = r.invoke.deadline else {
            return false;
        };
        if now <= deadline {
            return false;
        }
        if let Some((_, root)) = run.roots.remove(&i) {
            let rec = self.obs.recorder();
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
}

impl<P: ConcurrentPlatform> ElasticCluster<P> {
    /// One control-loop evaluation: predictor update, retirement,
    /// scale-up, scale-down, queue drain, and rescheduling.
    fn on_tick<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        let now = self.clock.now();
        let policy = self.config.policy.clone();

        // Slide the arrival predictor's window forward one interval.
        let tick_total: u64 = run.tick_counts.values().sum();
        let counts = std::mem::take(&mut run.tick_counts);
        for (f, n) in &counts {
            let w = run.window.entry(*f).or_default();
            w.push_back(*n);
            while w.len() > policy.predictor_window {
                w.pop_front();
            }
        }
        for (f, w) in run.window.iter_mut() {
            if !counts.contains_key(f) {
                w.push_back(0);
                while w.len() > policy.predictor_window {
                    w.pop_front();
                }
            }
        }

        // Idleness accounting.
        for host in self.hosts.iter_mut() {
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
            self.retire_idle_functions(after, now, requests, run);
        }

        // Scale up on queue pressure (or a rising trend, when the
        // predictor is armed for proactive capacity).
        let active = self.active_count();
        let pressure: usize = run.cluster_waiting.len()
            + self
                .hosts
                .iter()
                .filter(|h| h.phase == HostPhase::Active)
                .map(|h| h.waiting.len())
                .sum::<usize>();
        let overloaded = pressure > policy.scale_up_queue * active.max(1);
        let starved = active == 0 && (pressure > 0 || !run.cluster_waiting.is_empty());
        let rising = policy.prewarm
            && tick_total > run.prev_tick_total
            && tick_total as usize > policy.scale_up_queue;
        run.prev_tick_total = tick_total;
        if (overloaded || starved || rising)
            && self.booting_count() == 0
            && self.powered_count() < policy.max_hosts
            && !run.boot_give_up
            && !self.scale_up_breaker.is_open(now)
        {
            let h = self.create_host();
            run.stats.scale_ups += 1;
            self.obs.metrics().inc("elastic.scale_ups", &[]);
            queue.schedule(now + policy.boot_delay, Ev::BootDone { host: h });
        }

        // Give up on scale-up after too many consecutive boot failures
        // with no serving capacity: fail parked admissions fast so the
        // run terminates under ScaleUpFail = 1.0.
        if run.boot_failures_row >= SCALE_UP_GIVE_UP {
            run.boot_give_up = true;
        }
        if run.boot_give_up && self.active_count() == 0 && self.booting_count() == 0 {
            while let Some(i) = run.cluster_waiting.pop_front() {
                if self.reject_if_expired(requests, i, run, None) {
                    continue;
                }
                let r = &requests[i];
                run.out[i] = Some(ClusterCompletion {
                    index: i,
                    host: None,
                    function: r.invoke.function,
                    arrived: r.arrival,
                    started: now,
                    finished: now,
                    result: Err(PlatformError::HostUnavailable {
                        function: r.invoke.function.name().to_string(),
                        host: None,
                    }),
                });
            }
        }

        // Scale down: drain at most one idle host at a time, highest id
        // first (the most recently added capacity leaves first). Never
        // shed capacity while work is queued anywhere — an idle host
        // next to a backlogged peer is the cluster's catch-up capacity,
        // and draining it forces a boot (and a snapshot rebuild) the
        // moment the backlog surfaces as pressure.
        let draining = self.hosts.iter().any(|h| h.phase == HostPhase::Draining);
        if !draining && pressure == 0 && self.active_count() > policy.min_hosts {
            let victim = self
                .hosts
                .iter()
                .enumerate()
                .rev()
                .find(|(_, h)| {
                    h.phase == HostPhase::Active && h.idle_ticks >= policy.scale_down_idle_ticks
                })
                .map(|(id, _)| id);
            if let Some(h) = victim {
                self.start_drain(router, requests, h, run, queue);
            }
        }

        self.drain_cluster_queue(router, requests, run, queue);

        // Keep ticking while anything still needs the control loop:
        // unresolved requests, boots, drains, or pending hand-offs.
        let work_remains = run.out.iter().any(|c| c.is_none())
            || self.booting_count() > 0
            || self.hosts.iter().any(|h| h.phase == HostPhase::Draining)
            || run.pending.values().any(|&n| n > 0);
        if work_remains {
            queue.schedule(now + policy.control_interval, Ev::ControlTick);
        }
    }

    /// Retires functions unseen for longer than `after`: their chunks
    /// are copied to the archive, then every live replica is dropped.
    fn retire_idle_functions(
        &mut self,
        after: Nanos,
        now: Nanos,
        requests: &[EngineRequest],
        run: &mut ERun,
    ) {
        let mut resident: BTreeSet<FunctionId> = BTreeSet::new();
        for host in self.hosts.iter().filter(|h| h.phase == HostPhase::Active) {
            resident.extend(host.platform.hot_functions());
        }
        // Functions with outstanding demand — queued anywhere or in
        // service — are never retirement candidates, even when their
        // last *arrival* is past the horizon (a backlog served slower
        // than it arrived would otherwise thrash retire/resurrect).
        let mut busy: BTreeSet<FunctionId> = BTreeSet::new();
        for &i in &run.cluster_waiting {
            busy.insert(requests[i].invoke.function);
        }
        for host in &self.hosts {
            busy.extend(host.waiting.iter().map(|&i| requests[i].invoke.function));
            busy.extend(host.inflight.keys().map(|&i| requests[i].invoke.function));
        }
        for f in resident {
            if busy.contains(&f) {
                continue;
            }
            let last = run.last_arrival.get(&f).copied().unwrap_or(Nanos::ZERO);
            if now.saturating_sub(last) <= after {
                continue;
            }
            // Crash safety: the archive copy must exist before any
            // replica is dropped — a retirement that cannot reach the
            // archive keeps its live replicas.
            if !self.archive_function(f) {
                continue;
            }
            let mut any = false;
            for host in self.hosts.iter_mut() {
                if host.phase.is_powered() {
                    any |= host.platform.retire(f);
                }
            }
            if any {
                run.stats.retired_functions += 1;
                self.archived.insert(f);
                let name = f.name();
                self.obs
                    .metrics()
                    .inc("elastic.retired", &[("function", &name)]);
                self.audit_into(run);
            }
        }
    }

    /// A scale-up host finishes provisioning — or draws
    /// [`FaultSite::ScaleUpFail`] and dies unprovisioned.
    fn on_boot_done<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.hosts[h].phase != HostPhase::Booting {
            return;
        }
        let now = self.clock.now();
        let failed = self.hosts[h]
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::ScaleUpFail);
        if failed {
            self.hosts[h].phase = HostPhase::Dead;
            // The host never served: deregister (no crash record for
            // the reaper — there is nothing to drain).
            self.mesh.borrow_mut().deregister(HostId::from_index(h));
            run.failed_hosts.push(HostId::from_index(h));
            run.stats.scale_up_failures += 1;
            run.boot_failures_row += 1;
            self.scale_up_breaker
                .failure(now, &self.config.policy.migration);
            self.obs.metrics().inc("elastic.scale_up_failures", &[]);
            self.obs
                .recorder()
                .instant(format!("scale_up_fail:{h}"), fireworks_obs::cat::FAULT);
            self.audit_into(run);
            return;
        }
        self.hosts[h].phase = HostPhase::Active;
        run.boot_failures_row = 0;
        self.scale_up_breaker.success();
        // A late joiner must know every installed function.
        let specs: Vec<FunctionSpec> = self.specs.values().cloned().collect();
        for spec in &specs {
            // Registration failures surface on first invocation; a boot
            // must not abort the whole run.
            let _ = self.hosts[h].platform.register(spec);
        }
        if self.config.policy.prewarm {
            self.prewarm_host(h, run);
        }
        self.audit_into(run);
        self.drain_cluster_queue(router, requests, run, queue);
    }

    /// Prewarms the predictor's hottest functions on host `h`.
    fn prewarm_host(&mut self, h: usize, run: &mut ERun) {
        let mut scored: Vec<(u64, FunctionId)> = run
            .window
            .iter()
            .map(|(f, w)| (w.iter().sum::<u64>(), *f))
            .filter(|(score, _)| *score > 0)
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, f) in scored.into_iter().take(PREWARM_TOP_K) {
            if self.hosts[h].platform.prewarm(f) {
                run.stats.prewarms += 1;
                let name = f.name();
                self.obs
                    .metrics()
                    .inc("elastic.prewarms", &[("function", &name)]);
                if self.archived.remove(&f) {
                    // Predictor-signal resurrection: the prewarm pulled
                    // an archived function back into live service.
                    run.stats.resurrections += 1;
                    self.obs
                        .metrics()
                        .inc("elastic.resurrections", &[("function", &name)]);
                }
            }
        }
    }

    /// Begins a graceful drain of host `h`: stop admitting, displace
    /// its queue, schedule one hand-off per hot function, and arm the
    /// drain deadline.
    fn start_drain<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        let now = self.clock.now();
        run.stats.drains_started += 1;
        self.obs
            .metrics()
            .inc("elastic.drains", &[("host", self.hosts[h].label.as_str())]);
        self.hosts[h].phase = HostPhase::Draining;
        let mut displaced = std::mem::take(&mut self.hosts[h].waiting);
        run.stats.crash_reroutes += displaced.len() as u64;
        while let Some(i) = displaced.pop_front() {
            if !self.dispatch(router, requests, i, Some(h), run, queue) {
                run.cluster_waiting.push_back(i);
            }
        }
        // The drain itself can be interrupted before any hand-off.
        if self.hosts[h]
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::DrainInterrupt)
        {
            run.stats.drain_interrupts += 1;
            self.obs.metrics().inc("elastic.drain_interrupts", &[]);
            self.fail_host_and_reroute(router, requests, h, None, run, queue);
            return;
        }
        // Schedule one hand-off per hot function to the cheapest
        // survivor that doesn't already hold it.
        let hot = self.hosts[h].platform.hot_functions();
        let mut scheduled = 0usize;
        for f in hot {
            let Some(dest) = self.pick_migration_dest(f, h) else {
                continue;
            };
            queue.schedule(
                now,
                Ev::Migrate {
                    dest,
                    donor: h,
                    function: f,
                    attempt: 1,
                },
            );
            scheduled += 1;
        }
        run.pending.insert(h, scheduled);
        queue.schedule(
            now + self.config.policy.drain_deadline,
            Ev::DrainDeadline { host: h },
        );
        self.try_finish_drain(h, run);
    }

    /// The cheapest active host (fewest missing bytes, then load, then
    /// id) that does not already fully hold `function`; `None` when no
    /// active host exists or every one already holds it.
    fn pick_migration_dest(&self, function: FunctionId, donor: usize) -> Option<usize> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(id, h)| *id != donor && h.phase == HostPhase::Active)
            .map(|(id, h)| {
                let residency = h.platform.residency(function);
                (residency, h.inflight.len() + h.waiting.len(), id)
            })
            .filter(|(residency, _, _)| !residency.is_full())
            .min_by_key(|(residency, load, id)| (residency.missing_bytes(), *load, *id))
            .map(|(_, _, id)| id)
    }

    /// One drain-time snapshot hand-off attempt.
    fn on_migrate(
        &mut self,
        dest: usize,
        donor: usize,
        function: FunctionId,
        attempt: u32,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.hosts[donor].phase != HostPhase::Draining {
            // The drain already ended (deadline, interrupt, crash);
            // nothing left to hand off.
            return;
        }
        let now = self.clock.now();
        let policy = self.config.policy.migration.clone();
        // The donor can die mid-hand-off.
        if self.hosts[donor]
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::DrainInterrupt)
        {
            run.stats.drain_interrupts += 1;
            self.obs.metrics().inc("elastic.drain_interrupts", &[]);
            run.pending.remove(&donor);
            // Rerouting of the donor's queue happens in the shared
            // failure path; the reaper sees the mesh death immediately.
            self.hosts[donor].phase = HostPhase::Dead;
            self.mesh.borrow_mut().mark_dead(HostId::from_index(donor));
            run.failed_hosts.push(HostId::from_index(donor));
            self.audit_into(run);
            return;
        }
        let breaker = self.migration_breakers.entry(function).or_default();
        if breaker.is_open(now) {
            run.stats.migration_failures += 1;
            self.resolve_handoff(donor, run);
            return;
        }
        // Re-validate the destination; it may have drained or died
        // since the hand-off was scheduled.
        let dest = if self.hosts[dest].phase == HostPhase::Active {
            Some(dest)
        } else {
            self.pick_migration_dest(function, donor)
        };
        let Some(dest) = dest else {
            run.stats.migration_failures += 1;
            self.migration_breakers
                .get_mut(&function)
                .expect("entry created above")
                .failure(now, &policy);
            self.resolve_handoff(donor, run);
            return;
        };
        // The transfer can stall (receiver-side wedge): retry with
        // exponential virtual-time backoff on a re-picked destination.
        let stalled = self.hosts[dest]
            .env
            .injector
            .borrow_mut()
            .should_fail(FaultSite::MigrationStall);
        if stalled {
            run.stats.migration_stalls += 1;
            self.obs.metrics().inc("elastic.migration_stalls", &[]);
            if attempt < policy.max_attempts {
                run.stats.migration_retries += 1;
                queue.schedule(
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
            run.stats.migration_failures += 1;
            self.migration_breakers
                .get_mut(&function)
                .expect("entry created above")
                .failure(now, &policy);
            self.resolve_handoff(donor, run);
            return;
        }
        // The hand-off is the mesh's ordinary delta fetch: the
        // destination prewarns itself from the best donor (usually the
        // draining host — the lowest-id full holder). It gets its own
        // control-plane trace: the delta-fetch spans the prewarm records
        // nest under the hand-off span and inherit the migration trace.
        let rec = self.obs.recorder().clone();
        let mtrace = rec.next_trace_id();
        let mroot = rec.start_detached("migration", cat::MIGRATE, mtrace);
        let name = function.name();
        rec.attr(mroot, "function", &*name);
        rec.attr(mroot, "donor", donor);
        rec.attr(mroot, "dest", dest);
        let handoff = rec.start_under(mroot, "handoff", cat::MIGRATE);
        let migrated = self.hosts[dest].platform.prewarm(function);
        rec.end(handoff);
        rec.attr(
            mroot,
            "outcome",
            if migrated {
                "migrated"
            } else {
                "rebuild_fallback"
            },
        );
        rec.end_detached(mroot);
        if migrated {
            run.stats.migrations += 1;
            self.obs
                .metrics()
                .inc("elastic.migrations", &[("function", &name)]);
            self.migration_breakers
                .get_mut(&function)
                .expect("entry created above")
                .success();
        } else {
            // No donor qualified (publication raced away): fall back to
            // rebuild-from-source on first demand at the destination.
            run.stats.migration_failures += 1;
            self.migration_breakers
                .get_mut(&function)
                .expect("entry created above")
                .failure(now, &policy);
        }
        self.resolve_handoff(donor, run);
    }

    /// Marks one of `donor`'s outstanding hand-offs finished and checks
    /// whether the drain can now complete.
    fn resolve_handoff(&mut self, donor: usize, run: &mut ERun) {
        if let Some(n) = run.pending.get_mut(&donor) {
            *n = n.saturating_sub(1);
        }
        self.try_finish_drain(donor, run);
    }

    /// Completes a graceful drain once the host has no in-flight work
    /// and no outstanding hand-offs.
    fn try_finish_drain(&mut self, h: usize, run: &mut ERun) {
        if self.hosts[h].phase != HostPhase::Draining {
            return;
        }
        if !self.hosts[h].inflight.is_empty() {
            return;
        }
        if run.pending.get(&h).copied().unwrap_or(0) > 0 {
            return;
        }
        run.pending.remove(&h);
        run.stats.graceful_drains += 1;
        self.obs.metrics().inc("elastic.graceful_drains", &[]);
        self.hosts[h].phase = HostPhase::Retired;
        self.mesh.borrow_mut().deregister(HostId::from_index(h));
        self.audit_into(run);
    }

    /// The drain deadline fired: if the host is still draining, degrade
    /// to hard removal. Unfinished hand-offs are abandoned (survivors
    /// rebuild on demand); in-flight invocations still complete.
    fn on_drain_deadline<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        requests: &[EngineRequest],
        h: usize,
        run: &mut ERun,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.hosts[h].phase != HostPhase::Draining {
            return;
        }
        run.stats.hard_removals += 1;
        self.obs.metrics().inc("elastic.hard_removals", &[]);
        run.pending.remove(&h);
        self.hosts[h].phase = HostPhase::Retired;
        self.mesh.borrow_mut().deregister(HostId::from_index(h));
        // A draining host admits nothing, but displaced requests may
        // have been parked back on its queue before the drain started;
        // conservation demands they reroute.
        let mut displaced = std::mem::take(&mut self.hosts[h].waiting);
        run.stats.crash_reroutes += displaced.len() as u64;
        while let Some(i) = displaced.pop_front() {
            if !self.dispatch(router, requests, i, Some(h), run, queue) {
                run.cluster_waiting.push_back(i);
            }
        }
        self.audit_into(run);
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
