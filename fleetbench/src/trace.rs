//! Tracing from outside the program.
//!
//! The traced run wraps the public [`Router`] and [`ConcurrentPlatform`]
//! traits and the benchmark's own set-up calls in spans kept in memory:
//! each span has an operation name, a start, an end, the span that was
//! open when it began (its parent) and, where the call carries one, the
//! request's trace id. When a run ends the spans fold into per-operation
//! totals and self times (a span's duration minus its children's).
//!
//! [`ConcurrentPlatform::residency`] is counted, not timed: a 1024-host
//! routing decision probes it once per host, and a timer per probe would
//! cost more than the probe.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use fireworks_core::api::{
    ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport, Invocation, InvokeRequest,
    Platform, PlatformError, SnapshotResidency, StoreAudit,
};
use fireworks_core::cluster::{HostView, Route, Router};
use fireworks_core::mesh::SharedChunkMesh;
use fireworks_core::{FunctionId, HostId};

/// A traced call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Trace or schedule generation (`workloads`).
    Gen,
    /// Fleet construction.
    Build,
    /// The fleet's install calls (`Cluster::install_home`,
    /// `ElasticCluster::install`).
    Install,
    /// `Cluster::run` or `ElasticCluster::run`.
    Run,
    /// `Router::route`.
    Route,
    /// `ConcurrentPlatform::begin_invoke`.
    BeginInvoke,
    /// `ConcurrentPlatform::finish_invoke`.
    FinishInvoke,
    /// `Platform::install` on one host.
    PlatformInstall,
    /// `ConcurrentPlatform::register`.
    Register,
    /// `ConcurrentPlatform::prewarm`.
    Prewarm,
    /// `ConcurrentPlatform::retire`.
    Retire,
    /// `ConcurrentPlatform::store_audit`.
    StoreAudit,
    /// `ConcurrentPlatform::hot_functions`.
    HotFunctions,
}

impl Op {
    /// The span name written to a span dump.
    pub fn name(self) -> &'static str {
        match self {
            Op::Gen => "gen",
            Op::Build => "build",
            Op::Install => "install",
            Op::Run => "run",
            Op::Route => "route",
            Op::BeginInvoke => "begin_invoke",
            Op::FinishInvoke => "finish_invoke",
            Op::PlatformInstall => "platform_install",
            Op::Register => "register",
            Op::Prewarm => "prewarm",
            Op::Retire => "retire",
            Op::StoreAudit => "store_audit",
            Op::HotFunctions => "hot_functions",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
struct Span {
    op: Op,
    parent: Option<u32>,
    trace: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-operation totals folded from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus child spans), seconds.
    pub self_s: f64,
}

/// The in-memory span recorder shared by every wrapper of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    residency_probes: Cell<u64>,
    defers: Cell<u64>,
}

impl Tracer {
    /// A fresh recorder.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            residency_probes: Cell::new(0),
            defers: Cell::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span for `op`, parented under the innermost
    /// span open when it starts.
    pub fn time<T>(&self, op: Op, trace: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans per run");
            spans.push(Span {
                op,
                parent: self.open.borrow().last().copied(),
                trace,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    /// Folds the spans into per-operation calls, total and self time.
    fn fold(&self) -> BTreeMap<Op, OpTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<Op, OpTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.op).or_default();
            t.calls += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(*child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent trace op start_ns end_ns` (`-` for no parent or trace).
    pub fn write_spans(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\ttrace\top\tstart_ns\tend_ns")?;
        let dash = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.borrow().iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                dash(s.parent.map(u64::from)),
                dash(s.trace),
                s.op.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// A traced repetition's span totals and counted calls.
#[derive(Debug)]
pub struct Layers {
    /// Per-operation span totals.
    pub ops: BTreeMap<Op, OpTotals>,
    /// `ConcurrentPlatform::residency` probes.
    pub residency_probes: u64,
    /// `Route::Defer` answers.
    pub defers: u64,
}

impl Layers {
    /// Folds a finished repetition's tracer.
    pub fn fold(tracer: &Tracer) -> Layers {
        Layers {
            ops: tracer.fold(),
            residency_probes: tracer.residency_probes.get(),
            defers: tracer.defers.get(),
        }
    }

    /// The totals for `op` (zero if it was never called).
    pub fn op(&self, op: Op) -> OpTotals {
        self.ops.get(&op).copied().unwrap_or_default()
    }
}

/// Runs `f` in a span when a tracer is given, else just runs it.
pub fn timed<T>(tracer: Option<&Tracer>, op: Op, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(op, None, f),
        None => f(),
    }
}

/// A router whose every decision is a [`Op::Route`] span.
pub struct TimedRouter<R> {
    inner: R,
    tracer: Rc<Tracer>,
}

impl<R: Router> TimedRouter<R> {
    /// Wraps `inner`.
    pub fn new(inner: R, tracer: Rc<Tracer>) -> Self {
        TimedRouter { inner, tracer }
    }
}

impl<R: Router> Router for TimedRouter<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        let trace = req.trace.map(|c| c.trace.raw());
        let inner = &mut self.inner;
        let route = self
            .tracer
            .time(Op::Route, trace, || inner.route(req, hosts));
        if route == Route::Defer {
            self.tracer.defers.set(self.tracer.defers.get() + 1);
        }
        route
    }
}

/// A platform whose calls are spans; `residency` is counted, and the
/// blocking `invoke` paths, which the fleets never call, pass through.
/// Every trait method is forwarded, the defaulted ones included: a
/// wrapper that fell back to a default would change what the fleet sees
/// (a defaulted `store_audit` answers `None` and silently switches the
/// elastic store audit off).
pub struct Timed<P> {
    inner: P,
    tracer: Rc<Tracer>,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, tracer: Rc<Tracer>) -> Self {
        Timed { inner, tracer }
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

/// An in-flight token that remembers its request's trace id, so the
/// matching [`Op::FinishInvoke`] span joins the request.
pub struct TimedFlight<T> {
    inner: T,
    trace: Option<u64>,
}

impl<T: InFlightToken> InFlightToken for TimedFlight<T> {
    fn pss_bytes(&self) -> u64 {
        self.inner.pss_bytes()
    }
}

impl<P: Platform> Platform for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn isolation(&self) -> fireworks_sandbox::IsolationLevel {
        self.inner.isolation()
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let inner = &mut self.inner;
        self.tracer
            .time(Op::PlatformInstall, None, || inner.install(spec))
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        self.inner.invoke(req)
    }

    fn evict(&mut self, function: FunctionId) {
        self.inner.evict(function)
    }

    fn supports_chains(&self) -> bool {
        self.inner.supports_chains()
    }

    fn invoke_chain(
        &mut self,
        stages: &[FunctionId],
        req: &InvokeRequest,
    ) -> Result<Vec<Invocation>, PlatformError> {
        self.inner.invoke_chain(stages, req)
    }
}

impl<P: ConcurrentPlatform> ConcurrentPlatform for Timed<P> {
    type InFlight = TimedFlight<P::InFlight>;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, Self::InFlight), PlatformError> {
        let inner = &mut self.inner;
        let trace = req.trace.map(|c| c.trace.raw());
        self.tracer
            .time(Op::BeginInvoke, trace, || inner.begin_invoke(req))
            .map(|(invocation, token)| {
                (
                    invocation,
                    TimedFlight {
                        inner: token,
                        trace,
                    },
                )
            })
    }

    fn finish_invoke(&mut self, inflight: Self::InFlight) {
        let inner = &mut self.inner;
        self.tracer.time(Op::FinishInvoke, inflight.trace, || {
            inner.finish_invoke(inflight.inner)
        })
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        let probes = &self.tracer.residency_probes;
        probes.set(probes.get() + 1);
        self.inner.residency(function)
    }

    fn hot_functions(&self) -> Vec<FunctionId> {
        self.tracer
            .time(Op::HotFunctions, None, || self.inner.hot_functions())
    }

    fn prewarm(&mut self, function: FunctionId) -> bool {
        let inner = &mut self.inner;
        self.tracer
            .time(Op::Prewarm, None, || inner.prewarm(function))
    }

    fn retire(&mut self, function: FunctionId) -> bool {
        let inner = &mut self.inner;
        self.tracer
            .time(Op::Retire, None, || inner.retire(function))
    }

    fn store_audit(&self) -> Option<StoreAudit> {
        self.tracer
            .time(Op::StoreAudit, None, || self.inner.store_audit())
    }

    fn attach_mesh(&mut self, mesh: SharedChunkMesh, host_id: HostId) {
        self.inner.attach_mesh(mesh, host_id)
    }

    fn register(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        let inner = &mut self.inner;
        self.tracer
            .time(Op::Register, None, || inner.register(spec))
    }
}
