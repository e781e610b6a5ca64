//! Shared host services for one simulated machine.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fireworks_guestmem::HostMemory;
use fireworks_lang::Value;
use fireworks_msgbus::MessageBus;
use fireworks_netsim::HostNetwork;
use fireworks_obs::Obs;
use fireworks_sim::fault::{self, FaultInjector, FaultPlan, SharedInjector};
use fireworks_sim::{Clock, CostModel};
use fireworks_store::{DocumentStore, StoreCosts};

use crate::symbols::{FunctionId, HostId};

/// Host configuration for one experiment.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Physical RAM of the host.
    pub ram_bytes: u64,
    /// Linux `vm.swappiness` (the paper's Fig. 10 uses 60).
    pub swappiness: u8,
    /// Infrastructure cost table.
    pub costs: CostModel,
    /// Faults to inject (empty plan: nothing ever fails).
    pub fault_plan: FaultPlan,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            // A scaled-down host (the paper's testbed has 128 GiB; scaling
            // preserves every ratio while keeping simulations fast — see
            // DESIGN.md).
            ram_bytes: 24 << 30,
            swappiness: 60,
            costs: CostModel::default(),
            fault_plan: FaultPlan::default(),
        }
    }
}

/// The services all platforms on one host share: virtual clock, host
/// memory, the message bus, the document store, and the host network.
///
/// Cloning an env clones handles to the *same* services.
#[derive(Debug, Clone)]
pub struct PlatformEnv {
    /// The host's virtual clock.
    pub clock: Clock,
    /// The cost table.
    pub costs: Rc<CostModel>,
    /// Host physical memory.
    pub host_mem: HostMemory,
    /// Kafka-style message bus (parameter passer substrate).
    pub bus: Rc<RefCell<MessageBus<Value>>>,
    /// CouchDB-style document store.
    pub store: Rc<RefCell<DocumentStore>>,
    /// Host network (namespaces + NAT).
    pub net: Rc<RefCell<HostNetwork>>,
    /// The host's fault injector, shared by the store, the network, and
    /// the VM manager. Disabled (never fires) unless the [`EnvConfig`]
    /// armed a fault plan.
    pub injector: SharedInjector,
    /// The host's observability plane (span recorder + metrics registry),
    /// shared by every service and platform on this host.
    pub obs: Obs,
    /// The host's residency journal, wired up by the cluster that owns
    /// the host (inert elsewhere).
    pub residency: ResidencyJournal,
}

/// Where every wired host's journal writes: `(host, function)` pairs
/// whose residency answer may have changed, in the order they changed.
pub(crate) type JournalSink = Rc<RefCell<Vec<(HostId, FunctionId)>>>;

/// How a platform tells its cluster's routing index that its
/// [`crate::api::ConcurrentPlatform::residency`] answer may have changed.
///
/// The contract, for platform authors:
///
/// - Opt in once, at construction, with [`ResidencyJournal::track`].
/// - Then call [`ResidencyJournal::changed`] at *every* point where
///   `residency(f)` may answer differently afterwards: install, cold
///   start, eviction (LRU or explicit), retirement, prewarm, delta fetch.
///   A missed call leaves the index stale and the router misplaces
///   requests; a spurious call only costs one re-probe.
/// - A platform that does not opt in is re-probed for the routed
///   function at every routing decision instead — always correct, but
///   O(hosts) per request.
///
/// Outside a cluster the journal records nothing.
#[derive(Debug, Clone, Default)]
pub struct ResidencyJournal {
    inner: Rc<JournalInner>,
}

#[derive(Debug, Default)]
struct JournalInner {
    tracked: Cell<bool>,
    /// This host's id and the cluster's sink; `None` outside a cluster.
    sink: Option<(HostId, JournalSink)>,
}

impl ResidencyJournal {
    /// A journal for host `host` writing into `sink`.
    pub(crate) fn wired(host: HostId, sink: JournalSink) -> Self {
        ResidencyJournal {
            inner: Rc::new(JournalInner {
                tracked: Cell::new(false),
                sink: Some((host, sink)),
            }),
        }
    }

    /// Opts the platform in: from now on it journals every residency
    /// change, so the cluster stops re-probing it per decision.
    pub fn track(&self) {
        self.inner.tracked.set(true);
    }

    /// Whether the platform opted in.
    pub(crate) fn is_tracked(&self) -> bool {
        self.inner.tracked.get()
    }

    /// Records that `residency(function)` may have changed.
    pub fn changed(&self, function: FunctionId) {
        if let Some((host, sink)) = &self.inner.sink {
            sink.borrow_mut().push((*host, function));
        }
    }
}

impl PlatformEnv {
    /// Builds the services for one host.
    pub fn new(config: EnvConfig) -> Self {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        PlatformEnv::with_shared(config, clock, obs)
    }

    /// Builds the services for one host on an *existing* clock and obs
    /// plane. This is how a cluster stamps out per-host environments:
    /// each host gets its own memory, bus, store, network, and fault
    /// injector, but all hosts advance one virtual timeline and emit
    /// into one trace/metrics registry.
    pub fn with_shared(config: EnvConfig, clock: Clock, obs: Obs) -> Self {
        let costs = Rc::new(config.costs);
        let host_mem = HostMemory::new(clock.clone(), config.ram_bytes, config.swappiness);
        let mut inj = FaultInjector::new(config.fault_plan);
        inj.attach_clock(clock.clone());
        let injector = fault::shared(inj);
        let bus = Rc::new(RefCell::new(MessageBus::new(
            clock.clone(),
            costs.bus.clone(),
        )));
        let mut raw_store = DocumentStore::new(clock.clone(), StoreCosts::default());
        raw_store.set_fault_injector(injector.clone());
        raw_store.set_obs(obs.clone());
        let store = Rc::new(RefCell::new(raw_store));
        let mut raw_net = HostNetwork::new(clock.clone(), costs.net.clone());
        raw_net.set_fault_injector(injector.clone());
        raw_net.set_obs(obs.clone());
        let net = Rc::new(RefCell::new(raw_net));
        PlatformEnv {
            clock,
            costs,
            host_mem,
            bus,
            store,
            net,
            injector,
            obs,
            residency: ResidencyJournal::default(),
        }
    }

    /// A default-configured environment.
    pub fn default_env() -> Self {
        PlatformEnv::new(EnvConfig::default())
    }

    /// An environment with `plan` armed on the shared injector.
    pub fn with_fault_plan(plan: FaultPlan) -> Self {
        PlatformEnv::new(EnvConfig {
            fault_plan: plan,
            ..EnvConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_services() {
        let env = PlatformEnv::default_env();
        let env2 = env.clone();
        env.bus.borrow_mut().produce("t", Value::Int(1), 8);
        assert_eq!(env2.bus.borrow().len("t"), 1);
        let before = env2.clock.now();
        env.clock.advance(fireworks_sim::Nanos::from_millis(5));
        assert_eq!(
            env2.clock.now() - before,
            fireworks_sim::Nanos::from_millis(5)
        );
    }

    #[test]
    fn journal_records_only_when_wired() {
        let f = crate::symbols::fid("env-journal");
        let env = PlatformEnv::default_env();
        env.residency.track();
        env.residency.changed(f);
        let sink = JournalSink::default();
        let wired = ResidencyJournal::wired(HostId::from_index(3), sink.clone());
        wired.clone().changed(f);
        assert_eq!(*sink.borrow(), vec![(HostId::from_index(3), f)]);
        assert!(!wired.is_tracked());
        wired.clone().track();
        assert!(wired.is_tracked(), "clones share the opt-in");
    }

    #[test]
    fn default_host_matches_fig10_methodology() {
        let cfg = EnvConfig::default();
        assert_eq!(cfg.swappiness, 60);
        assert!(cfg.ram_bytes >= 8 << 30);
    }
}
