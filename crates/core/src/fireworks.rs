//! The FIREWORKS platform.

use std::cell::RefCell;
use std::rc::Rc;

use fireworks_annotator::{annotate, Annotated, AnnotationConfig};
use fireworks_guestmem::{ChunkHash, FrameId, SnapshotFile};
use fireworks_lang::{JitConfig, JitPolicy, Value};
use fireworks_microvm::reap::PagingCosts;
use fireworks_microvm::{
    MicroVm, MicroVmConfig, ReapMode, ReapSession, VmError, VmFullSnapshot, VmManager, WorkingSet,
};
use fireworks_netsim::{Ip, Mac, NsId};
use fireworks_obs::cat;
use fireworks_runtime::guest::RunOutcome;
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::{IoPath, IoPathKind, IsolationLevel};
use fireworks_sim::fault::{FaultSite, FaultTrigger};
use fireworks_sim::trace::{Phase, Trace};
use fireworks_sim::Nanos;
use fireworks_store::ChunkStore;

use crate::api::{
    ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport, Invocation, InvokeRequest,
    Platform, PlatformError, SnapshotResidency, StartKind, StoreAudit,
};
use crate::audit::{SecurityAudit, SecurityPolicy};
use crate::cache::SnapshotCache;
use crate::config::{PagingPolicy, PlatformConfig, RecoveryPolicy, SnapshotStorePolicy};
use crate::env::PlatformEnv;
use crate::host::{GuestHost, NetMode};
use crate::mesh::SharedChunkMesh;
use crate::symbols::{fid, FunctionId, HostId, IdMap};

/// The guest IP baked into every snapshot (identical across clones —
/// paper Fig. 5's `A.A.A.A`).
pub const GUEST_IP: Ip = Ip::new(172, 16, 0, 2);
/// Host `host`'s address on the cluster network, the peer a delta fetch
/// from it is charged against: `10.42.<hi>.<lo>` over the host's 16-bit
/// index, so hosts 0–255 sit at `10.42.0.<index>` and no two hosts
/// share an address.
///
/// # Panics
///
/// Panics if the host index is 65 536 or more.
fn peer_ip(host: HostId) -> Ip {
    let index = u16::try_from(host.index()).expect("host index below 65 536");
    let [hi, lo] = index.to_be_bytes();
    Ip::new(10, 42, hi, lo)
}

/// The guest MAC baked into every snapshot.
pub const GUEST_MAC: Mac = Mac([0x06, 0x00, 0xac, 0x10, 0x00, 0x02]);
/// Tap device name baked into every snapshot.
pub const GUEST_TAP: &str = "tap0";

/// Reliability counters for one installed function (see
/// [`FireworksPlatform::health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionHealth {
    /// Infrastructure failures since the last successful invocation.
    pub consecutive_failures: u32,
    /// When the circuit breaker half-opens, if it is open.
    pub circuit_open_until: Option<Nanos>,
    /// Invocations that succeeded only after restore/boot retries.
    pub recoveries: u64,
    /// Snapshots quarantined after failing their integrity check.
    pub quarantines: u64,
    /// Snapshot rebuilds from source (security refreshes, cache misses,
    /// and corruption recoveries).
    pub rebuilds: u64,
    /// Restore attempts that had to be retried (transient read faults,
    /// restore crashes, or integrity failures). Also counted in the
    /// metrics registry as `core.recovery.restore_retries{function=..}`.
    pub restore_retries: u64,
    /// Invocations whose REAP prefetch failed and degraded to per-page
    /// major faults. Also `core.reap.prefetch_degraded{function=..}`.
    pub prefetch_degraded: u64,
}

struct FunctionEntry {
    spec: FunctionSpec,
    annotated: Annotated,
    profile: RuntimeProfile,
    install_report: InstallReport,
    clones_since_snapshot: u64,
    refreshes: u64,
    refresh_time: Nanos,
    /// REAP-recorded working set (ColdStorage + reap only).
    working_set: Option<WorkingSet>,
    /// Infrastructure failures since the last success (breaker input).
    consecutive_failures: u32,
    /// Open-circuit deadline, if the breaker has tripped.
    circuit_open_until: Option<Nanos>,
    /// Invocations that needed at least one retry to succeed.
    recoveries: u64,
    /// Snapshots evicted for failing their integrity check.
    quarantines: u64,
    /// Restore attempts that had to be retried.
    restore_retries: u64,
    /// Invocations whose REAP prefetch degraded to major faults.
    prefetch_degraded: u64,
}

/// A restored microVM kept resident after its invocation (for memory
/// density experiments — paper §5.4).
#[derive(Debug)]
pub struct ResidentClone {
    vm: MicroVm,
    ns: NsId,
    /// The clone's instance id (MMDS).
    pub instance: String,
}

impl ResidentClone {
    /// Proportional set size of the clone's guest memory.
    pub fn pss_bytes(&self) -> u64 {
        self.vm.pss_bytes()
    }

    /// Resident set size of the clone's guest memory.
    pub fn rss_bytes(&self) -> u64 {
        self.vm.rss_bytes()
    }

    /// Ages the clone by `extra_ops` guest ops of continued service
    /// (models the paper's Fig. 10 methodology of running every microVM
    /// until the host swaps).
    pub fn age_ops(&mut self, extra_ops: u64) {
        self.vm.age_ops(extra_ops);
    }
}

impl InFlightToken for ResidentClone {
    fn pss_bytes(&self) -> u64 {
        ResidentClone::pss_bytes(self)
    }
}

/// The Fireworks serverless platform.
pub struct FireworksPlatform {
    env: PlatformEnv,
    mgr: VmManager,
    registry: IdMap<FunctionEntry>,
    cache: SnapshotCache,
    next_instance: u64,
    security: SecurityPolicy,
    paging: PagingPolicy,
    recovery: RecoveryPolicy,
    jit: JitConfig,
    /// Content-addressed chunk store
    /// ([`SnapshotStorePolicy::Dedup`] only).
    chunk_store: Option<Rc<RefCell<ChunkStore>>>,
    /// Chunking granularity for ingests (Dedup only).
    chunk_pages: usize,
    /// Whether a cache miss may be served by fetching missing chunks from
    /// a mesh peer instead of rebuilding from source.
    delta_fetch: bool,
    /// The cluster's chunk mesh and this host's id in it, once attached.
    mesh: Option<(SharedChunkMesh, HostId)>,
}

impl FireworksPlatform {
    /// Creates a platform with the default [`PlatformConfig`] (generous
    /// snapshot-cache budget, default recovery/paging/security).
    pub fn new(env: PlatformEnv) -> Self {
        FireworksPlatform::with_config(env, PlatformConfig::default())
    }

    /// Creates a platform with an explicit construction-time config:
    /// snapshot-cache budget (paper §6: disk-space overhead), recovery,
    /// paging, and security policies. The config is fixed for the
    /// platform's lifetime.
    pub fn with_config(env: PlatformEnv, config: PlatformConfig) -> Self {
        let mut mgr = VmManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        mgr.set_fault_injector(env.injector.clone());
        mgr.set_obs(env.obs.clone());
        let mut cache = SnapshotCache::new(config.cache_budget_bytes);
        cache.set_obs(env.obs.clone());
        let (chunk_store, chunk_pages, delta_fetch) = match config.snapshot_store {
            SnapshotStorePolicy::Flat => (None, 0, false),
            SnapshotStorePolicy::Dedup {
                chunk_pages,
                delta_fetch,
            } => {
                let mut store = ChunkStore::new(env.host_mem.clone());
                store.set_obs(env.obs.clone());
                let store = Rc::new(RefCell::new(store));
                cache.attach_store(store.clone());
                (Some(store), chunk_pages, delta_fetch)
            }
        };
        // Layer the config's outage/loss knobs on top of the
        // environment's base fault plan. Probability-zero rules still
        // consume RNG draws, so only arm sites that can actually fire —
        // the default config must not perturb an armed plan's schedule.
        if config.store_outage > 0.0 {
            env.injector.borrow_mut().arm(
                FaultSite::StoreUnavailable,
                FaultTrigger::Probability(config.store_outage),
            );
        }
        if config.packet_loss > 0.0 {
            env.injector.borrow_mut().arm(
                FaultSite::NetLoss,
                FaultTrigger::Probability(config.packet_loss),
            );
        }
        FireworksPlatform {
            env,
            mgr,
            registry: IdMap::new(),
            cache,
            next_instance: 1,
            security: config.security,
            paging: config.paging,
            recovery: config.recovery,
            jit: config.jit,
            chunk_store,
            chunk_pages,
            delta_fetch,
            mesh: None,
        }
    }

    /// The environment this platform runs on.
    pub fn env(&self) -> &PlatformEnv {
        &self.env
    }

    /// Snapshot-cache eviction count (for the disk-budget ablation).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Chunk-store statistics — `None` unless the platform runs the
    /// content-addressed store ([`SnapshotStorePolicy::Dedup`]).
    pub fn chunk_stats(&self) -> Option<fireworks_store::ChunkStoreStats> {
        self.chunk_store.as_ref().map(|s| s.borrow().stats())
    }

    fn guest_host(&self, default_params: &Value) -> GuestHost {
        GuestHost::new(
            self.env.clock.clone(),
            IoPath::new(IoPathKind::VirtioBlk, self.env.costs.clone()),
            &self.env.costs.net,
            NetMode::ThroughNat,
            self.env.costs.microvm.mmds_lookup,
            self.env.bus.clone(),
            self.env.store.clone(),
            default_params.deep_clone(),
        )
    }

    /// A host for the install phase: same cost model, but side effects go
    /// to a staging store and bus so JIT warm-up never pollutes
    /// production state.
    fn install_host(&self, default_params: &Value) -> GuestHost {
        use std::cell::RefCell;
        let scratch_store = Rc::new(RefCell::new(fireworks_store::DocumentStore::new(
            self.env.clock.clone(),
            fireworks_store::StoreCosts::default(),
        )));
        let scratch_bus = Rc::new(RefCell::new(fireworks_msgbus::MessageBus::new(
            self.env.clock.clone(),
            self.env.costs.bus.clone(),
        )));
        GuestHost::new(
            self.env.clock.clone(),
            IoPath::new(IoPathKind::VirtioBlk, self.env.costs.clone()),
            &self.env.costs.net,
            NetMode::ThroughNat,
            self.env.costs.microvm.mmds_lookup,
            scratch_bus,
            scratch_store,
            default_params.deep_clone(),
        )
    }

    /// Runs the install pipeline and returns the snapshot.
    fn build_snapshot(
        &mut self,
        spec: &FunctionSpec,
        annotated: &Annotated,
        profile: &RuntimeProfile,
    ) -> Result<Rc<VmFullSnapshot>, PlatformError> {
        let clock = self.env.clock.clone();
        let mut vm = self.mgr.create(MicroVmConfig::default());
        // Boot crashes during install are transient: the VM stays in the
        // pre-boot state, so wait out the backoff and try again.
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.mgr.boot(&mut vm) {
                Ok(()) => break,
                Err(err) if attempt >= self.recovery.max_attempts => {
                    return Err(PlatformError::Vm(err))
                }
                Err(_) => {
                    clock.advance(self.recovery.backoff(attempt));
                }
            }
        }
        self.mgr.launch_runtime(
            &mut vm,
            profile.clone(),
            &annotated.source,
            // The platform's JIT shape, with the install-time policy
            // pinned: annotated functions compile eagerly so the
            // snapshot is taken post-JIT.
            self.jit.with_policy(Some(JitPolicy::AnnotatedEager)),
        )?;
        let mut host = self.install_host(&spec.default_params);
        {
            let rt = vm
                .runtime_mut()
                .ok_or_else(|| PlatformError::Other("runtime failed to launch".into()))?;
            rt.run_toplevel(&clock, &mut host)?;
            rt.start(&annotated.entry, Vec::new())?;
            match rt.run(&clock, &mut host)? {
                RunOutcome::SnapshotPoint => {}
                RunOutcome::Done(_) => {
                    return Err(PlatformError::Other(format!(
                        "`{}` finished without reaching the snapshot point",
                        spec.name
                    )))
                }
            }
            // The warm-up served real requests: the snapshot starts warm.
            rt.mark_warmed();
        }
        let snapshot = Rc::new(self.mgr.snapshot(&mut vm));
        Ok(snapshot)
    }

    /// Regenerates a function's snapshot (security refresh / cache-miss
    /// reinstall). Returns the new snapshot.
    fn refresh_snapshot(
        &mut self,
        function: FunctionId,
    ) -> Result<Rc<VmFullSnapshot>, PlatformError> {
        let entry = self
            .registry
            .get(function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
        let spec = entry.spec.clone();
        let annotated = entry.annotated.clone();
        let profile = entry.profile.clone();
        let t0 = self.env.clock.now();
        let snapshot = self.build_snapshot(&spec, &annotated, &profile)?;
        let took = self.env.clock.now() - t0;
        let snapshot = self.cache_insert(function, snapshot);
        let entry = self
            .registry
            .get_mut(function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
        entry.clones_since_snapshot = 0;
        entry.refreshes += 1;
        entry.refresh_time += took;
        Ok(snapshot)
    }

    /// Caches a snapshot under the active store policy.
    ///
    /// Flat: the snapshot goes into the LRU as-is. Dedup: its pages are
    /// ingested into the chunk store first and the cached copy is a
    /// *canonical remap* — a snapshot whose frame list points at the
    /// store's canonical chunk frames — so byte-identical chunks across
    /// functions occupy host memory once and the manifest is published to
    /// the mesh for peers to delta-fetch. Returns the snapshot actually
    /// cached (the canonical remap in dedup mode).
    fn cache_insert(
        &mut self,
        function: FunctionId,
        snapshot: Rc<VmFullSnapshot>,
    ) -> Rc<VmFullSnapshot> {
        let (cached, evicted) = match &self.chunk_store {
            Some(store) => {
                let template = snapshot.template();
                let (manifest, frames) = store
                    .borrow_mut()
                    .ingest_snapshot(snapshot.mem(), self.chunk_pages);
                let mem = SnapshotFile::from_mapped(
                    &self.env.host_mem,
                    snapshot.mem().size_bytes(),
                    frames,
                    snapshot.mem().device_state().to_vec(),
                );
                let canonical = Rc::new(VmFullSnapshot::from_template(mem, &template));
                let evicted =
                    self.cache
                        .insert_dedup(function, canonical.clone(), manifest.clone());
                if let Some((mesh, id)) = &self.mesh {
                    mesh.borrow_mut().publish(*id, function, manifest, template);
                }
                (canonical, evicted)
            }
            None => {
                let evicted = self.cache.insert(function, snapshot.clone());
                (snapshot, evicted)
            }
        };
        if let Some((mesh, id)) = &self.mesh {
            let mut mesh = mesh.borrow_mut();
            for &victim in &evicted {
                mesh.retract(*id, victim);
            }
        }
        cached
    }

    /// Drops a snapshot from the cache and withdraws its mesh
    /// publication (quarantine, security refresh).
    fn uncache(&mut self, function: FunctionId) {
        self.cache.remove(function);
        if let Some((mesh, id)) = &self.mesh {
            mesh.borrow_mut().retract(*id, function);
        }
    }

    /// Serves a cache miss from the cluster mesh: picks a donor holding
    /// the function's full chunk set, ships only the chunks this host is
    /// missing over the simulated network (64 KiB segments with the
    /// network's loss/retransmit machinery), and reassembles the snapshot
    /// from store chunks. The wire time is charged *after* subtracting
    /// the restore-side work it can overlap with (a prefetch pipeline:
    /// chunks stream in while the restore maps already-present pages).
    ///
    /// Returns `None` — falling back to rebuild-from-source — when
    /// delta fetch is off, no donor qualifies, the donor crashes
    /// mid-transfer, or a chunk transfer exhausts its retries.
    fn fetch_snapshot_delta(&mut self, function: FunctionId) -> Option<Rc<VmFullSnapshot>> {
        if !self.delta_fetch {
            return None;
        }
        let store = self.chunk_store.clone()?;
        let (mesh, my_id) = self.mesh.clone()?;
        let donor = mesh.borrow().donor_for(function, my_id)?;
        let obs = self.env.obs.clone();
        let rec = obs.recorder().clone();
        let sp = rec.start_phase("snapshot_delta_fetch", cat::SNAPSHOT, Phase::Startup);
        rec.attr(sp, "donor", donor.host.raw() as u64);

        let missing = store.borrow().missing_chunks(&donor.manifest);
        let peer = peer_ip(donor.host);
        let mut staged: Vec<(ChunkHash, Vec<(usize, FrameId)>)> = Vec::new();
        let mut wire = Nanos::ZERO;
        let mut fetched_bytes = 0u64;
        let mut failed = false;
        for &idx in &missing {
            let chunk = &donor.manifest.chunks[idx];
            // The donor can drop out mid-transfer; its crash is drawn on
            // *its* injector, so the schedule matches what the cluster
            // would have seen at the donor's own service boundaries.
            if donor
                .injector
                .borrow_mut()
                .should_fail(FaultSite::HostCrash)
            {
                mesh.borrow_mut().mark_dead(donor.host);
                rec.instant(format!("donor_crash:{}", donor.host), cat::FAULT);
                failed = true;
                break;
            }
            match self.env.net.borrow().transfer_cost(peer, chunk.bytes) {
                Ok(report) => {
                    wire += report.elapsed;
                    fetched_bytes += chunk.bytes;
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            }
            let donor_store = donor.store.borrow();
            let Some(run) = donor_store.chunk_frames(chunk.hash) else {
                failed = true;
                break;
            };
            let frames: Vec<(usize, FrameId)> = run
                .iter()
                .map(|&(page, f)| {
                    (
                        page,
                        self.env.host_mem.clone_frame_from(donor_store.host(), f),
                    )
                })
                .collect();
            staged.push((chunk.hash, frames));
        }
        if failed {
            for (_, frames) in staged {
                for (_, f) in frames {
                    self.env.host_mem.release(f);
                }
            }
            let name = function.name();
            obs.metrics()
                .inc("core.delta.fallbacks", &[("function", &name)]);
            rec.instant(format!("delta_fallback:{name}"), cat::SNAPSHOT);
            rec.end(sp);
            return None;
        }

        // Commit: the manifest takes one reference on every chunk —
        // already-present ones are retained, shipped ones adopted.
        {
            let mut st = store.borrow_mut();
            let missing_set: std::collections::BTreeSet<usize> = missing.iter().copied().collect();
            for (i, chunk) in donor.manifest.chunks.iter().enumerate() {
                if !missing_set.contains(&i) {
                    st.retain_chunk(chunk.hash);
                }
            }
            for (hash, frames) in staged {
                st.ingest_remote_chunk(hash, frames);
            }
        }
        let frames = store.borrow().claim_manifest_frames(&donor.manifest)?;
        let mem = SnapshotFile::from_mapped(
            &self.env.host_mem,
            donor.manifest.size_bytes,
            frames,
            donor.manifest.device_state.clone(),
        );
        let snapshot = Rc::new(VmFullSnapshot::from_template(mem, &donor.template));

        // Prefetch pipeline: the transfer overlaps the restore's base
        // cost and page mapping, so only the excess wire time is charged.
        let pages = donor.manifest.total_pages() as u64;
        let overlap = self.env.costs.microvm.snapshot_restore_base
            + self.env.costs.microvm.snapshot_map_per_page * pages;
        let charged = wire.saturating_sub(overlap);
        self.env.clock.advance(charged);

        let name = function.name();
        let labels: &[(&'static str, &str)] = &[("function", &name)];
        let m = obs.metrics();
        m.inc("core.delta.fetches", labels);
        m.add("core.delta.chunks_fetched", labels, missing.len() as u64);
        m.add("core.delta.bytes_fetched", labels, fetched_bytes);
        m.observe("core.delta.fetch_ns", labels, wire.as_nanos());
        m.add(
            "core.delta.overlap_saved_ns",
            &[],
            (wire - charged).as_nanos(),
        );

        let evicted = self
            .cache
            .insert_dedup(function, snapshot.clone(), donor.manifest.clone());
        {
            let mut mesh = mesh.borrow_mut();
            mesh.publish(my_id, function, donor.manifest, donor.template);
            for &victim in &evicted {
                mesh.retract(my_id, victim);
            }
        }
        rec.end(sp);
        Some(snapshot)
    }

    /// Records an infrastructure failure against `name`'s breaker,
    /// opening the circuit once the threshold is reached.
    fn note_infra_failure(&mut self, function: FunctionId) {
        let now = self.env.clock.now();
        let (threshold, cooldown) = (
            self.recovery.circuit_threshold,
            self.recovery.circuit_cooldown,
        );
        if let Some(entry) = self.registry.get_mut(function) {
            entry.consecutive_failures += 1;
            if entry.consecutive_failures >= threshold {
                entry.circuit_open_until = Some(now + cooldown);
            }
        }
    }

    /// The common invoke path; returns the invocation and the still-live
    /// clone. `trace_ctx` is the caller's distributed-tracing context:
    /// when set and no span is already open (the direct blocking-invoke
    /// path), the invocation's root span is parented under it so the
    /// platform's internals join the request's cross-host tree.
    fn invoke_internal(
        &mut self,
        function: FunctionId,
        args: &Value,
        trace_ctx: Option<fireworks_obs::SpanContext>,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        let clock = self.env.clock.clone();
        // Resolve the label once; every metric and span below borrows it.
        let name = function.name();
        let name_labels: &[(&'static str, &str)] = &[("function", &name)];
        let (default_params, known_working_set, timeout) = {
            let entry = self
                .registry
                .get(function)
                .ok_or_else(|| PlatformError::UnknownFunction(name.to_string()))?;
            // Open breaker: fail fast without touching any resources.
            // Past the cooldown the attempt is let through (half-open);
            // it either resets the breaker or re-opens it.
            if let Some(until) = entry.circuit_open_until {
                if clock.now() < until {
                    return Err(PlatformError::CircuitOpen {
                        function: name.to_string(),
                        until,
                    });
                }
            }
            (
                entry.spec.default_params.deep_clone(),
                entry.working_set.clone(),
                entry.spec.timeout,
            )
        };

        // Root observability span for the invocation; every recorder
        // span, instant, and counter below lands underneath it. It must
        // be closed on every exit path (closing it also closes any still-
        // open descendants).
        let obs = self.env.obs.clone();
        let rec = obs.recorder().clone();
        // Inside a cluster driver the service span is already open and
        // the plain start() nests (and inherits the trace) under it; on
        // the direct path an explicit context adopts the caller's tree.
        let inv_span = match trace_ctx.filter(|_| rec.current().is_none()) {
            Some(ctx) => rec.start_under(ctx.parent, "invoke", cat::INVOKE),
            None => rec.start("invoke", cat::INVOKE),
        };
        rec.attr(inv_span, "function", &*name);
        obs.metrics().inc("core.invoke.attempts", name_labels);
        let t_start = clock.now();

        let mut trace = Trace::new();

        // Snapshot lookup; on an LRU miss the platform first tries to
        // delta-fetch the snapshot's missing chunks from a mesh peer
        // (content-addressed store only), and otherwise must rebuild it
        // from source (the §6 disk-budget trade-off) — either way charged
        // to this invocation as a labelled start-up span.
        let mut snapshot = match self.cache.get(function) {
            Some(s) => s,
            None => {
                let t0 = clock.now();
                match self.fetch_snapshot_delta(function) {
                    Some(s) => {
                        trace.record("snapshot_delta_fetch", Phase::Startup, t0, clock.now());
                        s
                    }
                    None => {
                        let sp = rec.start_phase("snapshot_rebuild", cat::SNAPSHOT, Phase::Startup);
                        let s = self.refresh_snapshot(function);
                        rec.end(sp);
                        let s = match s {
                            Ok(s) => s,
                            Err(e) => {
                                rec.end(inv_span);
                                return Err(e);
                            }
                        };
                        trace.record("snapshot_rebuild", Phase::Startup, t0, clock.now());
                        s
                    }
                }
            }
        };

        // Parameter passer: produce the arguments into the per-instance
        // topic before resuming (paper §3.6).
        let instance = format!("vm-{}", self.next_instance);
        self.next_instance += 1;
        let sp = rec.start_phase("param_produce", cat::INVOKE, Phase::Other);
        trace.scope(&clock, "param_produce", Phase::Other, || {
            self.env.bus.borrow_mut().produce(
                &format!("params-{instance}"),
                args.deep_clone(),
                args.heap_estimate() as u64,
            );
        });
        rec.end(sp);

        // Network namespace + NAT for the clone (paper §3.5).
        let sp = rec.start_phase("netns_setup", cat::NET, Phase::Startup);
        let ns = trace.scope(&clock, "netns_setup", Phase::Startup, || {
            let mut net = self.env.net.borrow_mut();
            let ns = net.create_namespace();
            net.attach_tap(ns, GUEST_TAP, GUEST_IP, GUEST_MAC)?;
            let ext = net.alloc_external_ip(ns)?;
            net.install_nat(ns, ext, GUEST_IP)?;
            Ok::<NsId, PlatformError>(ns)
        });
        rec.end(sp);
        let ns = match ns {
            Ok(ns) => ns,
            Err(e) => {
                rec.end(inv_span);
                return Err(e);
            }
        };

        // Restore the snapshot, recovering from infrastructure faults:
        // transient failures (read errors, restore crashes) retry after an
        // exponential virtual-time backoff; a failed integrity check
        // quarantines the cached snapshot and rebuilds it from source —
        // this start degrades to roughly a cold install, but the
        // invocation still succeeds. A failure that survives the policy
        // tears the clone's resources down, counts toward the function's
        // circuit breaker, and surfaces as a typed error.
        let mut attempt = 0u32;
        let mut recovered = false;
        let mut restore_retries_now = 0u64;
        let restored = loop {
            attempt += 1;
            // `VmManager::restore` opens its own `snapshot_restore` span
            // (with read/verify/map children) under `inv_span`, so only
            // the retry bookkeeping is recorded here.
            let result = trace.scope(&clock, "snapshot_restore", Phase::Startup, || {
                self.mgr.restore(&snapshot)
            });
            match result {
                Ok(vm) => break Ok(vm),
                Err(err) if attempt >= self.recovery.max_attempts => {
                    break Err(PlatformError::Vm(err))
                }
                Err(VmError::Corrupt(_)) => {
                    // Every later restore would fail the same checksums:
                    // evict the damaged snapshot and rebuild from source.
                    restore_retries_now += 1;
                    obs.metrics()
                        .inc("core.recovery.restore_retries", name_labels);
                    self.uncache(function);
                    if let Some(entry) = self.registry.get_mut(function) {
                        entry.quarantines += 1;
                    }
                    obs.metrics().inc("core.recovery.quarantines", name_labels);
                    rec.instant_with(
                        format!("snapshot_quarantine:{name}"),
                        cat::CACHE,
                        vec![("attempt", attempt.into())],
                    );
                    let t0 = clock.now();
                    let sp = rec.start_phase("snapshot_rebuild", cat::SNAPSHOT, Phase::Startup);
                    let refreshed = self.refresh_snapshot(function);
                    rec.end(sp);
                    match refreshed {
                        Ok(s) => {
                            trace.record("snapshot_rebuild", Phase::Startup, t0, clock.now());
                            snapshot = s;
                            recovered = true;
                        }
                        Err(e) => break Err(e),
                    }
                }
                Err(_transient) => {
                    restore_retries_now += 1;
                    obs.metrics()
                        .inc("core.recovery.restore_retries", name_labels);
                    let sp = rec.start_phase("recovery_backoff", cat::RESTORE, Phase::Startup);
                    trace.scope(&clock, "recovery_backoff", Phase::Startup, || {
                        clock.advance(self.recovery.backoff(attempt));
                    });
                    rec.end(sp);
                    recovered = true;
                }
            }
        };
        let mut vm = match restored {
            Ok(vm) => vm,
            Err(e) => {
                let _ = self.env.net.borrow_mut().destroy_namespace(ns);
                self.env
                    .bus
                    .borrow_mut()
                    .delete_topic(&format!("params-{instance}"));
                self.note_infra_failure(function);
                if let Some(entry) = self.registry.get_mut(function) {
                    entry.restore_retries += restore_retries_now;
                }
                obs.metrics().inc("core.invoke.failures", name_labels);
                // The failed invocation returns no trace; its fault events
                // go to the recorder (as instants) instead of bleeding
                // into the next invocation's trace.
                let fault_trace = self.env.injector.borrow_mut().drain_trace();
                rec.ingest_trace(&fault_trace, cat::FAULT);
                rec.end(inv_span);
                return Err(e);
            }
        };
        vm.mmds_set("instance-id", &instance);

        // Cold-storage paging (the REAP extension, §7): when snapshot
        // pages are not in the host page cache, the invocation's working
        // set must come from storage — one major fault per page, or one
        // bulk prefetch of the recorded set.
        let mut recorded_ws: Option<WorkingSet> = None;
        let mut prefetch_degraded_now = false;
        if let PagingPolicy::ColdStorage { reap } = self.paging {
            let mode = match (&known_working_set, reap) {
                (_, false) => ReapMode::Off,
                (Some(_), true) => ReapMode::Prefetch,
                (None, true) => ReapMode::Record,
            };
            let ws = known_working_set.unwrap_or_default();
            let injector = self.env.injector.clone();
            let sp = rec.start_phase("paging", cat::PREFETCH, Phase::Exec);
            recorded_ws = trace.scope(&clock, "paging", Phase::Exec, || {
                let mut session = match ReapSession::start_observed(
                    &clock,
                    mode,
                    PagingCosts::default(),
                    ws.clone(),
                    Some(&injector),
                    Some(snapshot.mem()),
                    Some(&obs),
                ) {
                    Ok(session) => session,
                    // Prefetch failed (read fault or corrupt working-set
                    // page): degrade gracefully to per-page major faults
                    // instead of failing the invocation.
                    Err(_) => {
                        prefetch_degraded_now = true;
                        ReapSession::start(&clock, ReapMode::Off, PagingCosts::default(), ws)
                    }
                };
                for (first, count) in vm.working_set_ranges() {
                    session.touch_range(&clock, first, count);
                }
                session.finish()
            });
            rec.end(sp);
            if prefetch_degraded_now {
                obs.metrics()
                    .inc("core.reap.prefetch_degraded", name_labels);
                rec.instant(format!("prefetch_degraded:{name}"), cat::PREFETCH);
            }
        }

        // Resume right after the snapshot point. Any failure from here on
        // must tear down the clone's namespace and parameter topic.
        let mut host = self.guest_host(&default_params);
        host.mmds_set("instance-id", &instance);
        let run_result = (|| {
            let rt = vm
                .runtime_mut()
                .ok_or_else(|| PlatformError::Other("snapshot has no runtime".into()))?;
            if !rt.is_suspended() {
                return Err(PlatformError::Other(
                    "snapshot is not suspended at the resume point".into(),
                ));
            }
            // Request-handling framework path (already warmed into the
            // post-JIT snapshot, so this is the steady-state cost).
            let sp = rec.start_phase("framework", cat::EXEC, Phase::Exec);
            trace.scope(&clock, "framework", Phase::Exec, || {
                rt.charge_request_overhead(&clock);
            });
            rec.end(sp);
            rt.set_invocation_timeout(timeout);
            loop {
                match rt.run(&clock, &mut host) {
                    Ok(RunOutcome::Done(r)) => return Ok(r),
                    Ok(RunOutcome::SnapshotPoint) => continue,
                    Err(fireworks_lang::LangError::Timeout { ops }) => {
                        return Err(PlatformError::Timeout {
                            function: name.to_string(),
                            ops,
                        })
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        })();
        let result = match run_result {
            Ok(r) => r,
            Err(e) => {
                // Kill the clone: namespace, topic, and VM all go. Guest
                // errors are not infrastructure failures and do not feed
                // the circuit breaker.
                let _ = self.env.net.borrow_mut().destroy_namespace(ns);
                self.env
                    .bus
                    .borrow_mut()
                    .delete_topic(&format!("params-{instance}"));
                let fault_trace = self.env.injector.borrow_mut().drain_trace();
                rec.ingest_trace(&fault_trace, cat::FAULT);
                obs.metrics().inc("core.invoke.failures", name_labels);
                rec.end(inv_span);
                return Err(e);
            }
        };

        // Copy-on-write page faults of this invocation's write set.
        let sp = rec.start_phase("page_faults", cat::MEM, Phase::Exec);
        let fault_time = trace.scope(&clock, "page_faults", Phase::Exec, || {
            let t0 = clock.now();
            vm.sync_runtime_memory();
            vm.dirty_invocation();
            clock.now() - t0
        });
        rec.end(sp);
        let _ = fault_time;

        // Attribute the guest's time: compute to exec, host I/O to others.
        // The run slice charged `exec_time + external_time` on the clock.
        let anchor = clock.now();
        trace.record(
            "exec",
            Phase::Exec,
            anchor - result.exec_time - host.external_time,
            anchor - host.external_time,
        );
        trace.record(
            "guest_io",
            Phase::Other,
            anchor - host.external_time,
            anchor,
        );
        rec.record_closed(
            "exec",
            cat::EXEC,
            Phase::Exec,
            anchor - result.exec_time - host.external_time,
            anchor - host.external_time,
        );
        rec.record_closed(
            "guest_io",
            cat::EXEC,
            Phase::Other,
            anchor - host.external_time,
            anchor,
        );

        // Guest-memory accounting after this invocation's CoW faults
        // (paper §5.4): recompute PSS and publish per-function sharing
        // gauges.
        rec.scope("pss_recompute", cat::MEM, || {
            let sharing = vm.sharing_stats();
            let labels = name_labels;
            let m = obs.metrics();
            m.gauge_set("guestmem.clone.pss_bytes", labels, vm.pss_bytes() as i64);
            m.gauge_set("guestmem.clone.rss_bytes", labels, vm.rss_bytes() as i64);
            m.gauge_set(
                "guestmem.clone.shared_pages",
                labels,
                sharing.shared_pages as i64,
            );
            m.gauge_set(
                "guestmem.clone.private_pages",
                labels,
                sharing.private_pages as i64,
            );
        });

        let entry = self
            .registry
            .get_mut(function)
            .ok_or_else(|| PlatformError::UnknownFunction(name.to_string()))?;
        entry.clones_since_snapshot += 1;
        if let Some(ws) = recorded_ws {
            entry.working_set = Some(ws);
        }
        // Success closes the breaker and resets the failure streak.
        entry.consecutive_failures = 0;
        entry.circuit_open_until = None;
        entry.restore_retries += restore_retries_now;
        entry.prefetch_degraded += u64::from(prefetch_degraded_now);
        if recovered {
            entry.recoveries += 1;
        }
        let needs_refresh = self.security.refresh_after_invocations > 0
            && entry.clones_since_snapshot >= self.security.refresh_after_invocations;

        // Surface every fault injected during this invocation in its
        // trace, so recovery is auditable alongside the latency spans.
        // The recorder gets the same events (zero-width ones as instant
        // events, per the `Recorder::ingest_trace` convention).
        let fault_trace = self.env.injector.borrow_mut().drain_trace();
        trace.extend(&fault_trace);
        rec.ingest_trace(&fault_trace, cat::FAULT);

        let invocation = Invocation {
            value: result.value,
            breakdown: trace.breakdown(),
            trace,
            start: StartKind::SnapshotRestore,
            stats: result.stats,
            printed: host.printed,
            response: host.responses.into_iter().next_back(),
        };
        let clone = ResidentClone { vm, ns, instance };
        rec.end(inv_span);
        obs.metrics().observe(
            "core.invoke.latency_ns",
            name_labels,
            (clock.now() - t_start).as_nanos(),
        );
        // Guest-JIT health for this invocation: inline-cache hit/miss
        // traffic, deopts, and code-cache evictions. Restore-side deopt
        // storms (snapshot taken before IC warm-up, or shape drift in
        // live traffic) surface here.
        {
            let m = obs.metrics();
            let stats = &invocation.stats;
            m.add("vm.ic.hits", name_labels, stats.ic_hits);
            m.add("vm.ic.misses", name_labels, stats.ic_misses);
            m.add("vm.jit.deopts", name_labels, stats.deopts);
            m.add("vm.code_cache.evictions", name_labels, stats.code_evictions);
            if let Some(rt) = clone.vm.runtime() {
                m.gauge_set(
                    "vm.code_cache.used_bytes",
                    name_labels,
                    rt.vm().code_cache_used_bytes() as i64,
                );
                let ic = rt.vm().ic_summary();
                m.gauge_set("vm.ic.sites", name_labels, ic.sites as i64);
                m.gauge_set("vm.ic.megamorphic_sites", name_labels, ic.mega as i64);
            }
        }

        // Security maintenance off the invocation path (paper §6).
        if needs_refresh {
            self.refresh_snapshot(function)?;
        }

        Ok((invocation, clone))
    }

    /// Invokes a function and keeps the clone resident (for memory
    /// experiments). Release it with [`FireworksPlatform::release_clone`].
    pub fn invoke_resident(
        &mut self,
        function: FunctionId,
        args: &Value,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        self.invoke_internal(function, args, None)
    }

    /// Tears down a resident clone: namespace, parameter topic, and guest
    /// memory.
    pub fn release_clone(&mut self, clone: ResidentClone) {
        let _ = self.env.net.borrow_mut().destroy_namespace(clone.ns);
        self.env
            .bus
            .borrow_mut()
            .delete_topic(&format!("params-{}", clone.instance));
        drop(clone.vm);
    }

    /// Security audit for an installed function (paper §6).
    pub fn audit(&self, function: FunctionId) -> Option<SecurityAudit> {
        let entry = self.registry.get(function)?;
        Some(SecurityAudit {
            function: function.name().to_string(),
            clones_from_current_snapshot: entry.clones_since_snapshot,
            shared_aslr_layout: entry.clones_since_snapshot > 0,
            rng_reseeded_on_restore: self.security.reseed_rng_on_restore,
            refreshes: entry.refreshes,
            refresh_time: entry.refresh_time,
        })
    }

    /// The install report of a function.
    pub fn install_report(&self, function: FunctionId) -> Option<&InstallReport> {
        self.registry.get(function).map(|e| &e.install_report)
    }

    /// The function's cached snapshot, if the LRU still holds it. Touches
    /// the LRU like any other access. Handy for inspecting (or, in
    /// robustness tests, damaging) the exact pages later restores read.
    pub fn cached_snapshot(&mut self, function: FunctionId) -> Option<Rc<VmFullSnapshot>> {
        self.cache.get(function)
    }

    /// Reliability counters and breaker state of an installed function.
    pub fn health(&self, function: FunctionId) -> Option<FunctionHealth> {
        let entry = self.registry.get(function)?;
        Some(FunctionHealth {
            consecutive_failures: entry.consecutive_failures,
            circuit_open_until: entry.circuit_open_until,
            recoveries: entry.recoveries,
            quarantines: entry.quarantines,
            rebuilds: entry.refreshes,
            restore_retries: entry.restore_retries,
            prefetch_degraded: entry.prefetch_degraded,
        })
    }
}

impl Platform for FireworksPlatform {
    fn name(&self) -> &'static str {
        "fireworks"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Vm
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let clock = self.env.clock.clone();
        let t0 = clock.now();
        let annotated = annotate(&spec.source, &AnnotationConfig::default())?;
        let profile = RuntimeProfile::for_kind(spec.runtime);
        let snapshot = self.build_snapshot(spec, &annotated, &profile)?;
        let report = InstallReport {
            install_time: clock.now() - t0,
            snapshot_pages: snapshot.pages(),
            snapshot_bytes: snapshot.file_bytes(),
            annotated_functions: annotated.annotated_functions,
        };
        let function = fid(&spec.name);
        self.cache_insert(function, snapshot);
        self.registry.insert(
            function,
            FunctionEntry {
                spec: spec.clone(),
                annotated,
                profile,
                install_report: report.clone(),
                clones_since_snapshot: 0,
                refreshes: 0,
                refresh_time: Nanos::ZERO,
                working_set: None,
                consecutive_failures: 0,
                circuit_open_until: None,
                recoveries: 0,
                quarantines: 0,
                restore_retries: 0,
                prefetch_degraded: 0,
            },
        );
        Ok(report)
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        // A blocking invoke is the degenerate one-event schedule: service
        // and completion at the same instant.
        let (invocation, clone) = self.begin_invoke(req)?;
        self.finish_invoke(clone);
        Ok(invocation)
    }

    fn evict(&mut self, _function: FunctionId) {
        // Fireworks keeps no warm sandboxes; nothing to evict.
    }

    fn supports_chains(&self) -> bool {
        true
    }

    fn invoke_chain(
        &mut self,
        stages: &[FunctionId],
        req: &InvokeRequest,
    ) -> Result<Vec<Invocation>, PlatformError> {
        crate::api::run_chain(self, stages, req)
    }
}

impl ConcurrentPlatform for FireworksPlatform {
    type InFlight = ResidentClone;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        // Fireworks has no cold/warm distinction (§5.1): every invocation
        // is a snapshot restore regardless of `req.mode`, and the clone
        // stays resident — its guest memory charged against the host —
        // until `finish_invoke`.
        self.invoke_internal(req.function, &req.args, req.trace)
    }

    fn finish_invoke(&mut self, clone: ResidentClone) {
        self.release_clone(clone);
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        // The locality signal a cluster router steers by. Full: this
        // host's LRU holds the function's post-JIT snapshot. Partial: a
        // mesh peer published the manifest and this host's chunk store
        // already holds all but `missing_bytes` of it (shared runtime/OS
        // chunks), so a delta fetch beats a rebuild. `contains` — not
        // `get` — so router probes never perturb the LRU.
        if self.cache.contains(function) {
            return SnapshotResidency::Full;
        }
        if let (Some((mesh, _)), Some(store)) = (&self.mesh, &self.chunk_store) {
            let mesh = mesh.borrow();
            if let Some(manifest) = mesh.manifest_for(function) {
                return SnapshotResidency::Partial {
                    missing_bytes: store.borrow().missing_bytes(manifest),
                };
            }
        }
        SnapshotResidency::Absent
    }

    fn hot_functions(&self) -> Vec<FunctionId> {
        self.cache.names()
    }

    fn prewarm(&mut self, function: FunctionId) -> bool {
        // Already hot, or provisioned by delta-fetching the missing
        // chunks from a mesh donor. Prewarming is opportunistic: with no
        // donor (or a donor crash) it reports `false` and the next
        // invocation pays the ordinary rebuild.
        if self.cache.contains(function) {
            return true;
        }
        if !self.registry.contains(function) {
            return false;
        }
        self.fetch_snapshot_delta(function).is_some()
    }

    fn retire(&mut self, function: FunctionId) -> bool {
        let was_resident = self.cache.contains(function);
        self.uncache(function);
        was_resident
    }

    fn store_audit(&self) -> Option<StoreAudit> {
        let store = self.chunk_store.as_ref()?;
        Some(StoreAudit {
            chunk_refs: store.borrow().chunk_refcounts(),
            manifests: self
                .cache
                .manifests()
                .into_iter()
                .map(|(id, m)| (id.name().to_string(), m.clone()))
                .collect(),
        })
    }

    fn attach_mesh(&mut self, mesh: SharedChunkMesh, host_id: HostId) {
        // Flat-store platforms have nothing to publish or donate; they
        // stay off the mesh and report Full/Absent residency only.
        if let Some(store) = &self.chunk_store {
            mesh.borrow_mut()
                .register(host_id, store.clone(), self.env.injector.clone());
            self.mesh = Some((mesh, host_id));
        }
    }

    fn register(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        // Registration without the install-time build: the function is
        // invocable, and its first invocation pays a delta fetch (if a
        // mesh peer holds the snapshot) or a rebuild from source. This is
        // how a cluster installs a function on its home host only.
        let annotated = annotate(&spec.source, &AnnotationConfig::default())?;
        let profile = RuntimeProfile::for_kind(spec.runtime);
        let annotated_functions = annotated.annotated_functions;
        self.registry.insert(
            fid(&spec.name),
            FunctionEntry {
                spec: spec.clone(),
                annotated,
                profile,
                install_report: InstallReport {
                    install_time: Nanos::ZERO,
                    snapshot_pages: 0,
                    snapshot_bytes: 0,
                    annotated_functions,
                },
                clones_since_snapshot: 0,
                refreshes: 0,
                refresh_time: Nanos::ZERO,
                working_set: None,
                consecutive_failures: 0,
                circuit_open_until: None,
                recoveries: 0,
                quarantines: 0,
                restore_retries: 0,
                prefetch_degraded: 0,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_runtime::RuntimeKind;

    const FACT_SRC: &str = "
        fn factorize(n) {
            let factors = [];
            let d = 2;
            let m = n;
            while (d * d <= m) {
                while (m % d == 0) { push(factors, d); m = m / d; }
                d = d + 1;
            }
            if (m > 1) { push(factors, m); }
            return factors;
        }
        fn main(params) { return len(factorize(params[\"n\"])); }";

    fn spec(name: &str) -> FunctionSpec {
        FunctionSpec::new(
            name,
            FACT_SRC,
            RuntimeKind::NodeLike,
            Value::map([("n".to_string(), Value::Int(1_000_003))]),
        )
    }

    fn platform() -> FireworksPlatform {
        FireworksPlatform::new(PlatformEnv::default_env())
    }

    fn args(n: i64) -> Value {
        Value::map([("n".to_string(), Value::Int(n))])
    }

    fn req(name: &str, n: i64) -> InvokeRequest {
        InvokeRequest::new(fid(name), args(n))
    }

    #[test]
    fn peer_addresses_are_distinct_past_255_hosts() {
        let ips: Vec<Ip> = [5, 250, 256, 1023]
            .into_iter()
            .map(|h| peer_ip(HostId::from_index(h)))
            .collect();
        for (k, a) in ips.iter().enumerate() {
            assert!(ips[k + 1..].iter().all(|b| a != b), "{a} is shared");
        }
        assert_eq!(ips[2], Ip::new(10, 42, 1, 0));
        assert_eq!(ips[3], Ip::new(10, 42, 3, 255));
        // Hosts that fit in one octet keep their old address.
        for h in 0..=255u8 {
            assert_eq!(
                peer_ip(HostId::from_index(usize::from(h))),
                Ip::new(10, 42, 0, h)
            );
        }
    }

    #[test]
    fn install_creates_post_jit_snapshot() {
        let mut p = platform();
        let report = p.install(&spec("fact")).expect("installs");
        assert!(report.snapshot_pages > 10_000, "full VM image captured");
        assert!(report.annotated_functions >= 2);
        // §5.1: install takes seconds (boot + runtime + JIT + write).
        assert!(report.install_time.as_secs_f64() > 1.0);
    }

    #[test]
    fn invoke_runs_user_function_with_real_arguments() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        // 360 = 2^3 * 3^2 * 5 → 6 prime factors.
        let inv = p.invoke(&req("fact", 360)).expect("invokes");
        assert_eq!(inv.value, Value::Int(6));
        assert_eq!(inv.start, StartKind::SnapshotRestore);
    }

    #[test]
    fn startup_is_orders_of_magnitude_below_install() {
        let mut p = platform();
        let report = p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 12345)).expect("invokes");
        assert!(
            inv.breakdown.startup.as_nanos() * 20 < report.install_time.as_nanos(),
            "startup {} vs install {}",
            inv.breakdown.startup,
            report.install_time
        );
        // Fireworks startup target: tens of ms (§5.2).
        assert!(inv.breakdown.startup < Nanos::from_millis(80));
    }

    #[test]
    fn invocation_executes_jitted_without_compiles() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 1_000_003)).expect("invokes");
        assert_eq!(inv.stats.compiles, 0, "post-JIT: no compile at invoke");
        assert!(
            inv.stats.jit_ops > inv.stats.interp_ops,
            "runs in the JIT tier: {:?}",
            inv.stats
        );
    }

    #[test]
    fn concurrent_clones_share_memory() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let (_, a) = p.invoke_resident(fid("fact"), &args(99)).expect("a");
        let (_, b) = p.invoke_resident(fid("fact"), &args(100)).expect("b");
        // Each clone's private write set (exec state + dirtied heap) is a
        // small fraction of the image, so PSS sits well below RSS.
        assert!(
            (a.pss_bytes() as f64) < 0.65 * a.rss_bytes() as f64,
            "pss {} vs rss {}",
            a.pss_bytes(),
            a.rss_bytes()
        );
        assert_ne!(a.instance, b.instance);
        p.release_clone(a);
        p.release_clone(b);
    }

    #[test]
    fn clones_get_distinct_arguments_despite_identical_memory() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let i1 = p.invoke(&req("fact", 8)).expect("1");
        let i2 = p.invoke(&req("fact", 36)).expect("2");
        assert_eq!(i1.value, Value::Int(3)); // 2*2*2
        assert_eq!(i2.value, Value::Int(4)); // 2*2*3*3
    }

    #[test]
    fn unknown_function_errors() {
        let mut p = platform();
        assert!(matches!(
            p.invoke(&req("ghost", 1)),
            Err(PlatformError::UnknownFunction(_))
        ));
    }

    #[test]
    fn cache_eviction_triggers_rebuild_on_invoke() {
        // Budget fits roughly one snapshot: installing two functions
        // evicts the first; invoking it must transparently rebuild.
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder().cache_budget(200 << 20).build(),
        );
        p.install(&spec("f1")).expect("installs");
        p.install(&spec("f2")).expect("installs");
        assert!(p.cache_evictions() > 0, "budget forced an eviction");
        assert!(
            p.residency(fid("f2")).is_full() && !p.residency(fid("f1")).is_full(),
            "the locality signal tracks the LRU"
        );
        let inv = p.invoke(&req("f1", 10)).expect("rebuilds");
        assert_eq!(inv.value, Value::Int(2));
        assert!(
            inv.trace.total_for("snapshot_rebuild") > Nanos::ZERO,
            "rebuild must be visible in the trace"
        );
        assert!(
            p.residency(fid("f1")).is_full(),
            "the rebuild re-populated the cache"
        );
    }

    #[test]
    fn security_refresh_regenerates_snapshot() {
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .security(SecurityPolicy {
                    reseed_rng_on_restore: true,
                    refresh_after_invocations: 2,
                })
                .build(),
        );
        p.install(&spec("fact")).expect("installs");
        for _ in 0..2 {
            p.invoke(&req("fact", 10)).expect("ok");
        }
        let audit = p.audit(fid("fact")).expect("installed");
        assert_eq!(audit.refreshes, 1, "refresh after 2 invocations");
        assert_eq!(audit.clones_from_current_snapshot, 0);
        assert!(audit.refresh_time > Nanos::ZERO);
    }

    #[test]
    fn audit_reports_shared_layout_without_refresh() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        for _ in 0..3 {
            p.invoke(&req("fact", 10)).expect("ok");
        }
        let audit = p.audit(fid("fact")).expect("installed");
        assert_eq!(audit.clones_from_current_snapshot, 3);
        assert!(audit.has_findings(), "shared ASLR across 3 clones");
    }

    #[test]
    fn failed_invocations_release_namespace_and_topic() {
        let mut p = platform();
        p.install(&FunctionSpec::new(
            "crashy",
            "fn main(params) { return 1 / params[\"zero\"]; }",
            RuntimeKind::NodeLike,
            Value::map([("zero".to_string(), Value::Int(1))]),
        ))
        .expect("installs");
        let ns_before = p.env().net.borrow().namespace_count();
        for _ in 0..3 {
            let err = p.invoke(&InvokeRequest::new(
                fid("crashy"),
                Value::map([("zero".to_string(), Value::Int(0))]),
            ));
            assert!(err.is_err());
        }
        assert_eq!(
            p.env().net.borrow().namespace_count(),
            ns_before,
            "crashed invocations must not leak namespaces"
        );
        // Successful invocations clean up their parameter topics too.
        p.invoke(&InvokeRequest::new(
            fid("crashy"),
            Value::map([("zero".to_string(), Value::Int(2))]),
        ))
        .expect("runs");
        assert!(
            !p.env().bus.borrow().has_topic("params-vm-1"),
            "parameter topics must be deleted after teardown"
        );
    }

    #[test]
    fn cold_storage_paging_faults_and_reap_prefetch_recovers() {
        let req10 = req("fact", 10);

        // Warm page cache: no paging span at all.
        let mut warm = platform();
        warm.install(&spec("fact")).expect("installs");
        let warm_inv = warm.invoke(&req10).expect("ok");
        assert_eq!(warm_inv.trace.total_for("paging"), Nanos::ZERO);

        // Cold storage without REAP: every invocation faults the whole
        // working set from storage.
        let mut cold = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .paging(PagingPolicy::ColdStorage { reap: false })
                .build(),
        );
        cold.install(&spec("fact")).expect("installs");
        let c1 = cold.invoke(&req10).expect("ok");
        let c2 = cold.invoke(&req10).expect("ok");
        let cold_paging = c1.trace.total_for("paging");
        assert!(
            cold_paging > Nanos::from_millis(5),
            "major faults hurt: {cold_paging}"
        );
        assert_eq!(c2.trace.total_for("paging"), cold_paging, "no learning");

        // Cold storage with REAP: first invocation records, later ones
        // prefetch in one sequential read — much cheaper.
        let mut reap = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .paging(PagingPolicy::ColdStorage { reap: true })
                .build(),
        );
        reap.install(&spec("fact")).expect("installs");
        let r1 = reap.invoke(&req10).expect("ok");
        let r2 = reap.invoke(&req10).expect("ok");
        assert_eq!(
            r1.trace.total_for("paging"),
            cold_paging,
            "recording pass pays the same faults"
        );
        let prefetch = r2.trace.total_for("paging");
        assert!(
            prefetch.as_nanos() * 4 < cold_paging.as_nanos(),
            "prefetch {prefetch} vs faulting {cold_paging}"
        );
        // Results are identical regardless of paging policy.
        assert_eq!(warm_inv.value, r2.value);
    }

    #[test]
    fn transient_restore_fault_recovers_with_backoff() {
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        let plan = FaultPlan::new(7).nth(FaultSite::SnapshotRead, 1);
        let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 360)).expect("recovers");
        assert_eq!(inv.value, Value::Int(6), "result unaffected by the fault");
        assert!(
            inv.trace.total_for("recovery_backoff") > Nanos::ZERO,
            "retry backoff must be visible in the trace"
        );
        assert!(
            inv.trace.total_for("fault:snapshot_read") == Nanos::ZERO
                && inv
                    .trace
                    .spans()
                    .iter()
                    .any(|s| s.label == "fault:snapshot_read"),
            "the injected fault appears as a zero-width span"
        );
        let health = p.health(fid("fact")).expect("installed");
        assert_eq!(health.recoveries, 1);
        assert_eq!(health.consecutive_failures, 0);
        assert_eq!(health.quarantines, 0);
    }

    #[test]
    fn observability_plane_sees_retries_spans_and_metrics() {
        use fireworks_obs::Event;
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        let plan = FaultPlan::new(7).nth(FaultSite::SnapshotRead, 1);
        let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
        p.install(&spec("fact")).expect("installs");
        p.invoke(&req("fact", 360)).expect("recovers");

        let health = p.health(fid("fact")).expect("installed");
        assert_eq!(health.restore_retries, 1, "one transient retry");
        assert_eq!(health.prefetch_degraded, 0);

        let snap = p.env().obs.metrics().snapshot();
        let fact = &[("function", "fact")];
        assert_eq!(snap.counter("core.recovery.restore_retries", fact), 1);
        assert_eq!(snap.counter("core.invoke.attempts", fact), 1);
        assert_eq!(snap.counter("core.invoke.failures", fact), 0);
        assert_eq!(snap.counter("core.cache.hits", &[]), 1);
        assert_eq!(
            snap.counter("microvm.restore.failures", &[("kind", "read")]),
            1
        );
        assert!(snap.gauge("guestmem.clone.pss_bytes", fact).unwrap_or(0) > 0);
        assert!(
            snap.histogram("core.invoke.latency_ns", fact).is_some(),
            "invoke latency lands in the default-bounds histogram"
        );

        let events = p.env().obs.recorder().events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Span(s) if s.name == "invoke" && s.end.is_some())),
            "root invoke span is recorded and closed"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Instant(i) if i.name == "fault:snapshot_read")),
            "the injected fault surfaces as an instant event"
        );
        assert!(
            events.iter().any(
                |e| matches!(e, Event::Span(s) if s.name == "snapshot_restore" && s.parent.is_some())
            ),
            "the manager's restore span nests under the invocation"
        );
    }

    #[test]
    fn guest_jit_health_is_exported_through_obs() {
        // `main(params)` reads `params["n"]` — a string-literal index,
        // i.e. an inline-cache property site. The platform must export
        // per-invocation IC and code-cache telemetry under `vm.*`.
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 360)).expect("runs");
        assert!(
            inv.stats.ic_hits + inv.stats.ic_misses > 0,
            "property site must route through the IC: {:?}",
            inv.stats
        );

        let snap = p.env().obs.metrics().snapshot();
        let fact = &[("function", "fact")];
        assert_eq!(
            snap.counter("vm.ic.hits", fact) + snap.counter("vm.ic.misses", fact),
            inv.stats.ic_hits + inv.stats.ic_misses
        );
        assert_eq!(snap.counter("vm.jit.deopts", fact), inv.stats.deopts);
        assert_eq!(
            snap.counter("vm.code_cache.evictions", fact),
            inv.stats.code_evictions
        );
        assert!(
            snap.gauge("vm.code_cache.used_bytes", fact).unwrap_or(-1) > 0,
            "post-JIT snapshot clones carry resident compiled code"
        );
        assert!(snap.gauge("vm.ic.sites", fact).unwrap_or(0) >= 1);
    }

    #[test]
    fn platform_jit_config_constrains_guest_code_cache() {
        // A byte-starved platform-level code-cache budget suppresses
        // compilation in every launched runtime: installs still work,
        // but the snapshot carries no JIT code.
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .jit(fireworks_lang::JitConfig::default().with_code_cache_capacity_bytes(8))
                .build(),
        );
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 360)).expect("runs");
        assert_eq!(inv.stats.compiles, 0, "{:?}", inv.stats);
        let snap = p.env().obs.metrics().snapshot();
        assert_eq!(
            snap.gauge("vm.code_cache.used_bytes", &[("function", "fact")]),
            Some(0)
        );
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_rebuilt() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        // Damage a page of the cached snapshot behind the platform's back
        // (disk corruption, not an armed injector).
        p.cache
            .get(fid("fact"))
            .expect("cached")
            .mem()
            .corrupt_page(123);
        let inv = p.invoke(&req("fact", 360)).expect("self-heals");
        assert_eq!(inv.value, Value::Int(6));
        assert!(
            inv.trace.total_for("snapshot_rebuild") > Nanos::ZERO,
            "recovery rebuilds the snapshot from source"
        );
        let health = p.health(fid("fact")).expect("installed");
        assert_eq!(health.quarantines, 1);
        assert_eq!(health.rebuilds, 1);
        // The rebuilt snapshot serves the next invocation cleanly.
        let inv2 = p.invoke(&req("fact", 360)).expect("restores");
        assert_eq!(inv2.start, StartKind::SnapshotRestore);
        assert_eq!(inv2.trace.total_for("snapshot_rebuild"), Nanos::ZERO);
        assert_eq!(inv2.trace.total_for("recovery_backoff"), Nanos::ZERO);
    }

    #[test]
    fn repeated_infra_failures_open_the_circuit_breaker() {
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        // Every snapshot read fails: each invocation exhausts its retries.
        let plan = FaultPlan::new(3).probability(FaultSite::SnapshotRead, 1.0);
        let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
        p.install(&spec("fact")).expect("installs");
        let ns_before = p.env().net.borrow().namespace_count();
        for i in 0..3 {
            let err = p.invoke(&req("fact", 10));
            assert!(matches!(err, Err(PlatformError::Vm(_))), "attempt {i}");
        }
        assert_eq!(
            p.env().net.borrow().namespace_count(),
            ns_before,
            "failed restores must not leak namespaces"
        );
        // Threshold reached: the breaker fails fast without retrying.
        let t0 = p.env().clock.now();
        let err = p.invoke(&req("fact", 10));
        assert!(matches!(err, Err(PlatformError::CircuitOpen { .. })));
        assert_eq!(p.env().clock.now(), t0, "fail-fast charges nothing");
        // After the cooldown one half-open attempt goes through (and, with
        // the fault still armed, re-opens the breaker).
        p.env().clock.advance(Nanos::from_secs(11));
        let err = p.invoke(&req("fact", 10));
        assert!(matches!(err, Err(PlatformError::Vm(_))));
        let err = p.invoke(&req("fact", 10));
        assert!(matches!(err, Err(PlatformError::CircuitOpen { .. })));
        let health = p.health(fid("fact")).expect("installed");
        assert!(health.circuit_open_until.is_some());
        assert_eq!(health.consecutive_failures, 4);
    }

    #[test]
    fn guest_errors_do_not_trip_the_breaker() {
        let mut p = platform();
        p.install(&FunctionSpec::new(
            "crashy",
            "fn main(params) { return 1 / params[\"zero\"]; }",
            RuntimeKind::NodeLike,
            Value::map([("zero".to_string(), Value::Int(1))]),
        ))
        .expect("installs");
        for _ in 0..5 {
            let err = p.invoke(&InvokeRequest::new(
                fid("crashy"),
                Value::map([("zero".to_string(), Value::Int(0))]),
            ));
            assert!(matches!(err, Err(PlatformError::Lang(_))));
        }
        let health = p.health(fid("crashy")).expect("installed");
        assert_eq!(
            health.consecutive_failures, 0,
            "guest bugs are not infrastructure failures"
        );
        assert!(health.circuit_open_until.is_none());
    }

    #[test]
    fn chains_are_supported() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        const WRAP_SRC: &str = "
            fn main(params) { return { n: params + 1 }; }";
        // A tiny adapter stage: takes the previous count, passes n+1 on.
        p.install(&FunctionSpec::new(
            "wrap",
            WRAP_SRC,
            RuntimeKind::NodeLike,
            Value::Int(1),
        ))
        .expect("installs");
        assert!(p.supports_chains());
        let results = p
            .invoke_chain(
                &[fid("fact"), fid("wrap")],
                &InvokeRequest::new(fid("fact"), args(8)),
            )
            .expect("chain runs");
        assert_eq!(results.len(), 2);
        // fact(8) = 3 primes → wrap makes { n: 4 }.
        let Value::Map(m) = &results[1].value else {
            panic!("map")
        };
        assert_eq!(m.borrow()["n"], Value::Int(4));
    }
}
