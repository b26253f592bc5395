//! `threshold_search`: the paper's question as users ask it — what is
//! the smallest buffer that never drops? A grid of {PTS, PPTS, HPTS,
//! Tree-PPTS, Greedy FIFO} × σ ∈ {1, 2, 4} on a small path and a random
//! tree, each cell with its own seeded stream. Each search gets the
//! static prediction from `Scenario::validate`, runs the unbounded
//! reference, then binary-searches the zero-drop uniform capacity the
//! way `aqt_analysis::capacity_threshold` does, building every probe
//! from its specs. Runs are short, so fixed per-run cost (spec builds,
//! `Simulation::from_source`, `with_capacity`) is a large share.

use aqt_adversary::{Cadence, DestSpec, SourceSpec};
use aqt_analysis::Scenario;
use aqt_core::{GreedyPolicy, ProtocolSpec};
use aqt_model::{
    CapacityConfig, DropPolicyKind, Rate, Simulation, StagingMode, TopologySpec, TreeSpec,
};

use super::{advance, build_topology, mix, Failure, Outcome, Sim, Size, Workload};
use crate::trace::Tracer;

const SIGMAS: [u64; 3] = [1, 2, 4];
const POLICIES: [DropPolicyKind; 4] = [
    DropPolicyKind::Tail,
    DropPolicyKind::Head,
    DropPolicyKind::Farthest,
    DropPolicyKind::Newest,
];

#[derive(Debug)]
struct Search {
    scenario: Scenario,
    policy: DropPolicyKind,
}

#[derive(Debug)]
pub struct ThresholdSearch {
    searches: Vec<Search>,
}

impl ThresholdSearch {
    pub fn new(seed: u64, size: Size) -> Result<Self, String> {
        let (n, rounds) = match size {
            Size::Full => (64, 128),
            Size::Tiny => (16, 32),
        };
        let rate = Rate::new(1, 2).map_err(|e| e.to_string())?;
        let path = TopologySpec::Path { n };
        let tree = TopologySpec::Tree(TreeSpec::Random {
            n,
            seed: mix(seed, 100),
        });
        let cells = [
            (
                &path,
                ProtocolSpec::Pts {
                    dest: None,
                    eager: false,
                },
                DestSpec::fixed([n - 1]),
            ),
            (
                &path,
                ProtocolSpec::Ppts { eager: false },
                DestSpec::Spread { count: n / 8 },
            ),
            (
                &path,
                ProtocolSpec::Hpts { levels: 2 },
                DestSpec::Spread { count: n / 8 },
            ),
            (
                &tree,
                ProtocolSpec::TreePpts,
                DestSpec::Spread { count: n / 16 },
            ),
            (
                &path,
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                },
                DestSpec::AnyReachable,
            ),
        ];
        let mut searches = Vec::new();
        for (topology, protocol, dests) in cells {
            for sigma in SIGMAS {
                let i = searches.len() as u64;
                let source = SourceSpec::Random {
                    rate,
                    sigma,
                    rounds,
                    dests: dests.clone(),
                    cadence: Cadence::Bursty { period: 16 },
                    seed: mix(seed, 1000 + i),
                    attempts: 8,
                };
                searches.push(Search {
                    scenario: Scenario {
                        name: None,
                        topology: topology.clone(),
                        protocol: protocol.clone(),
                        source,
                        extra: n as u64,
                        capacity: None,
                        telemetry: None,
                        faults: None,
                    },
                    policy: POLICIES[i as usize % POLICIES.len()],
                });
            }
        }
        Ok(ThresholdSearch { searches })
    }

    #[cfg(test)]
    pub fn inputs(&self) -> String {
        format!("{:?}", self.searches)
    }
}

/// Rounds from `sim`'s current round to `extra` rounds past its source's
/// horizon.
fn rounds_past_horizon(sim: &Sim, extra: u64) -> u64 {
    let horizon = sim
        .source()
        .horizon()
        .expect("benchmark sources have a known horizon");
    (horizon + extra).saturating_sub(sim.round().value())
}

/// Builds `scenario`'s simulation from its specs, recording each call.
fn build_sim(scenario: &Scenario, t: &mut Tracer) -> Result<Sim, String> {
    let topo = build_topology(&scenario.topology, t)?;
    let protocol = t
        .span("ProtocolSpec::build", || scenario.protocol.build(&topo))
        .map_err(|e| e.to_string())?;
    let source = t
        .span("SourceSpec::build", || scenario.source.build(&topo))
        .map_err(|e| e.to_string())?;
    Ok(t.span("Simulation::from_source", || {
        Simulation::from_source(topo, protocol, source)
    }))
}

impl Workload for ThresholdSearch {
    /// The unbounded reference simulation of every search.
    type Ready = Vec<Sim>;

    fn setup(&self, t: &mut Tracer) -> Result<Vec<Sim>, String> {
        self.searches
            .iter()
            .map(|s| build_sim(&s.scenario, t))
            .collect()
    }

    fn pass(&self, references: &mut Vec<Sim>, _: usize, t: &mut Tracer, out: &mut Outcome) {
        for (search, reference) in self.searches.iter().zip(references.iter_mut()) {
            let span = t.begin("search");
            let runs = run_search(search, reference, t, out);
            t.add("analysis.searches", 1.0);
            t.add("analysis.search_runs", runs.len() as f64);
            for failures in runs {
                out.record(failures);
            }
            t.end(span);
        }
    }
}

/// One search: static prediction, unbounded reference, then the
/// capacity bisection. Returns each run's failed checks; checks on the
/// search's answer are charged to its last run.
fn run_search(
    search: &Search,
    reference: &mut Sim,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Vec<Failure>> {
    let scenario = &search.scenario;
    let predicted = match t.span("Scenario::validate", || scenario.validate()) {
        Ok(report) => report.prediction("zero_drop_capacity").map(|p| p.value),
        Err(e) => {
            return vec![vec![Failure {
                check: "validate",
                detail: e.to_string(),
            }]]
        }
    };
    let rounds = rounds_past_horizon(reference, scenario.extra);
    let mut runs = vec![advance(reference, rounds, 1, None, t, out, |_, _| {})];
    let peak = reference.metrics().max_occupancy;
    if let Some(answer) = bisect(search, peak, predicted, t, out, &mut runs) {
        runs.last_mut()
            .expect("the reference run is recorded")
            .extend(answer);
    }
    runs
}

/// Bisects the zero-drop capacity and checks the answer. Returns the
/// answer's failed checks, or `None` when a probe could not be built
/// (that failure is already in `runs`).
fn bisect(
    search: &Search,
    peak: usize,
    predicted: Option<u64>,
    t: &mut Tracer,
    out: &mut Outcome,
    runs: &mut Vec<Vec<Failure>>,
) -> Option<Vec<Failure>> {
    let scenario = &search.scenario;
    // (capacity, drops) of every probe so far.
    let mut probed: Vec<(usize, u64)> = Vec::new();
    let mut probe = |capacity: usize, t: &mut Tracer| -> Option<u64> {
        if let Some(&(_, d)) = probed.iter().find(|&&(c, _)| c == capacity) {
            return Some(d);
        }
        let sim = match build_sim(scenario, t) {
            Ok(sim) => sim,
            Err(detail) => {
                runs.push(vec![Failure {
                    check: "build",
                    detail,
                }]);
                return None;
            }
        };
        let mut sim = t.span("Simulation::with_capacity", || {
            sim.with_capacity(
                CapacityConfig::uniform(capacity).staging(StagingMode::Exempt),
                search.policy.build(),
            )
        });
        let rounds = rounds_past_horizon(&sim, scenario.extra);
        runs.push(advance(&mut sim, rounds, 1, None, t, out, |_, _| {}));
        let dropped = sim.metrics().dropped;
        probed.push((capacity, dropped));
        Some(dropped)
    };

    // Under Exempt staging a capacity at the unbounded peak replays the
    // reference run, so it must be drop-free and bounds the bisection.
    let hi0 = peak.max(1);
    let at_peak = probe(hi0, t)?;
    let (mut lo, mut hi) = (1usize, hi0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid, t)? == 0 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let threshold = lo;
    let below = if threshold > 1 {
        Some(probe(threshold - 1, t)?)
    } else {
        None
    };

    let mut failures = Vec::new();
    let mut check = |check: &'static str, ok: bool, detail: String| {
        if !ok {
            failures.push(Failure { check, detail });
        }
    };
    check(
        "zero_drop_at_peak",
        at_peak == 0,
        format!("{at_peak} drops at the unbounded peak {hi0}"),
    );
    check(
        "threshold_equals_peak",
        threshold == hi0,
        format!("threshold {threshold} != unbounded peak {peak} under exempt staging"),
    );
    if let Some(bound) = predicted {
        check(
            "threshold_within_bound",
            threshold as u64 <= bound,
            format!("threshold {threshold} > predicted {bound}"),
        );
    }
    if let Some(d) = below {
        check(
            "drops_below_threshold",
            d > 0,
            format!("capacity {} dropped nothing", threshold - 1),
        );
    }
    Some(failures)
}
