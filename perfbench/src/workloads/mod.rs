//! The four benchmark workloads and the pieces they share: the simulation
//! type every workload builds from specs, the `drive` helper that steps it
//! (plain entry points untraced, round by round under spans traced), and
//! the output checks that feed `ok_share`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aqt_model::{
    AnyTopology, InjectionSource, ModelError, Protocol, RunMetrics, Simulation, TopologySpec,
};
use aqt_telemetry::TelemetryProbe;

use crate::trace::Tracer;

pub mod mesh_faulted;
pub mod mesh_sparse;
pub mod paper_path;
pub mod threshold_search;

/// Every workload's simulation: spec-built topology, protocol and source.
pub type Sim =
    Simulation<AnyTopology, Box<dyn Protocol<AnyTopology> + Send + Sync>, Box<dyn InjectionSource>>;

/// Instance size: `Full` is what the benchmark measures; `Tiny` is the
/// same workload shrunk for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One benchmark workload. Inputs are fixed when the workload is built
/// from its seed. A set-up serves [`passes_per_setup`] passes: one fresh
/// simulation per pass, or consecutive segments of one long-lived
/// simulation where building it is too slow to repeat per pass. Every
/// set-up replays the same passes.
///
/// [`passes_per_setup`]: Workload::passes_per_setup
pub trait Workload {
    /// Everything the passes of one set-up run, built before round 0.
    type Ready;

    /// Passes one set-up serves.
    fn passes_per_setup(&self) -> usize {
        1
    }

    /// Builds the topologies, protocols, sources, capacity and fault
    /// configuration and the simulations (timed as `setup_s`).
    fn setup(&self, t: &mut Tracer) -> Result<Self::Ready, String>;

    /// Runs pass `index` of the set-up (timed for `moves_per_s`),
    /// checking every run.
    fn pass(&self, ready: &mut Self::Ready, index: usize, t: &mut Tracer, out: &mut Outcome);
}

/// A failed output check.
#[derive(Debug, Clone)]
pub struct Failure {
    pub check: &'static str,
    pub detail: String,
}

/// What the passes of a run did: packet moves, simulation runs attempted,
/// runs that failed a check, and the failures themselves.
#[derive(Debug, Default)]
pub struct Outcome {
    pub moves: u64,
    pub runs: u64,
    pub failed_runs: u64,
    pub failures: Vec<Failure>,
}

impl Outcome {
    /// Records one simulation run that failed the given checks (none
    /// when it passed).
    pub fn record(&mut self, failures: Vec<Failure>) {
        self.runs += 1;
        if !failures.is_empty() {
            self.failed_runs += 1;
            self.failures.extend(failures);
        }
    }
}

/// Collects the failed checks of one run.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<Failure>);

impl Checks {
    pub fn expect(&mut self, check: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.0.push(Failure {
                check,
                detail: detail(),
            });
        }
    }

    /// `injected = delivered + dropped + faulted + buffered + staged`.
    pub fn conservation(&mut self, sim: &Sim) {
        let m = sim.metrics();
        let state = sim.state();
        let held = (state.total_buffered() + state.staged_len()) as u64;
        let accounted = m.delivered + m.dropped + m.faulted + held;
        self.expect("conservation", m.injected == accounted, || {
            format!(
                "injected {} != delivered {} + dropped {} + faulted {} + held {held}",
                m.injected, m.delivered, m.dropped, m.faulted
            )
        });
    }

    /// Peak occupancy within a paper bound.
    pub fn bound(&mut self, check: &'static str, m: &RunMetrics, bound: u64) {
        self.expect(check, m.max_occupancy as u64 <= bound, || {
            format!("peak occupancy {} > bound {bound}", m.max_occupancy)
        });
    }
}

/// The telemetry report's delivered count must equal the engine's.
pub fn telemetry_delivered(sim: &Sim, telemetry: &TelemetryProbe) -> Option<Failure> {
    let reported = telemetry.report().data.counters.delivered;
    let delivered = sim.metrics().delivered;
    (reported != delivered).then(|| Failure {
        check: "telemetry_delivered",
        detail: format!("telemetry delivered {reported} != metrics delivered {delivered}"),
    })
}

/// Runs `f`, turning a panic into an error so one broken run does not
/// abort the benchmark.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panic: {msg}")
    })
}

/// Builds the topology from `spec`, recording the span.
pub fn build_topology(spec: &TopologySpec, t: &mut Tracer) -> Result<AnyTopology, String> {
    t.span("TopologySpec::build", || spec.build())
        .map_err(|e| e.to_string())
}

/// Steps `sim` for `rounds` rounds on `shards` shards. Untraced, this is
/// a plain public entry point (`run`, `run_sharded`, or `step*_probed`
/// per round when `telemetry` observes the run); traced, each round runs
/// under a span with the bench probe, which forwards to `telemetry`.
pub fn drive(
    sim: &mut Sim,
    rounds: u64,
    shards: usize,
    telemetry: Option<&mut TelemetryProbe>,
    t: &mut Tracer,
) -> Result<(), ModelError> {
    if !t.enabled() {
        match (telemetry, shards) {
            (None, 1) => {
                sim.run(rounds)?;
            }
            (None, k) => {
                sim.run_sharded(rounds, k)?;
            }
            (Some(p), 1) => {
                for _ in 0..rounds {
                    sim.step_probed(p)?;
                }
            }
            (Some(p), k) => {
                for _ in 0..rounds {
                    sim.step_sharded_probed(k, p)?;
                }
            }
        }
        return Ok(());
    }
    let mut probe = t.probe(telemetry);
    let mut result = Ok(());
    for _ in 0..rounds {
        let step = if shards == 1 {
            let s = t.begin("Simulation::step_probed");
            let r = sim.step_probed(&mut probe);
            t.end(s);
            r
        } else {
            let s = t.begin("Simulation::step_sharded_probed");
            let r = sim.step_sharded_probed(shards, &mut probe);
            t.end(s);
            r
        };
        if let Err(e) = step {
            result = Err(e);
            break;
        }
    }
    t.absorb(probe);
    result
}

/// Steps `sim` for `rounds` rounds, checks conservation plus `more`,
/// counts its moves and per-layer totals, and returns the failed checks.
pub fn advance(
    sim: &mut Sim,
    rounds: u64,
    shards: usize,
    telemetry: Option<&mut TelemetryProbe>,
    t: &mut Tracer,
    out: &mut Outcome,
    more: impl FnOnce(&Sim, &mut Checks),
) -> Vec<Failure> {
    let mut checks = Checks::default();
    let (forwarded, dropped, injected, faulted) = {
        let m = sim.metrics();
        (m.forwarded, m.dropped, m.injected, m.faulted)
    };
    match guarded(|| drive(sim, rounds, shards, telemetry, t)) {
        Ok(Ok(())) => {
            checks.conservation(sim);
            more(sim, &mut checks);
        }
        Ok(Err(e)) => checks.expect("engine_error", false, || e.to_string()),
        Err(panic) => checks.expect("panic", false, || panic),
    }
    let m = sim.metrics();
    out.moves += m.forwarded - forwarded;
    t.max("state.peak_occupancy", m.max_occupancy as f64);
    t.add("capacity.injected", (m.injected - injected) as f64);
    t.add("capacity.dropped", (m.dropped - dropped) as f64);
    t.add("fault.faulted", (m.faulted - faulted) as f64);
    checks.0
}

/// Mixes the run's seed with a stream tag into an independent seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    aqt_model::util::SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}
