//! `paper_path`: the paper's own setting. A seeded (ρ, σ) = (1/2, 4)
//! stream with bursty cadence over spread destinations feeds PPTS and
//! HPTS (ℓ = k = ⌊1/ρ⌋ = 2, so m = √n) on a path, and a second stream
//! feeds Tree-PPTS on a seeded random tree of the same size. A pass runs
//! eight such independent triples, so that one stream's luck does not
//! set the rate. Every run's peak occupancy is checked against its
//! theorem's bound. Planning dominates, so this is the workload that
//! moves with `Protocol::plan`.
//!
//! One set-up builds the simulations for 512-round streams; each pass
//! advances all of them by one 16-round segment and checks them. Passes
//! are short so that the fastest of many falls inside one of the host's
//! quiet moments (see README.md). The protocols are still filling their
//! buffers at the end, so later segments move more packets.

use std::collections::BTreeSet;

use aqt_adversary::{Cadence, DestSpec, SourceSpec};
use aqt_analysis::bounds::{hpts_bound, ppts_bound, tree_ppts_bound};
use aqt_core::{Hierarchy, ProtocolSpec};
use aqt_model::{AnyTopology, Injection, NodeId, Rate, Round, Simulation, TopologySpec, TreeSpec};

use super::{advance, build_topology, mix, Outcome, Sim, Size, Workload};
use crate::trace::Tracer;

const SIGMA: u64 = 4;
const LEVELS: u32 = 2;

/// One protocol run of a pass: what to build and the bound it must meet.
#[derive(Debug, Clone)]
struct Run {
    check: &'static str,
    topology: TopologySpec,
    protocol: ProtocolSpec,
    source: SourceSpec,
    bound: u64,
}

#[derive(Debug)]
pub struct PaperPath {
    runs: Vec<Run>,
    /// Rounds per pass.
    segment: u64,
    passes: usize,
    /// Subtracted from every bound; only the self-tests set it, to show a
    /// violated bound is caught.
    pub(crate) bound_cut: u64,
}

fn random_stream(rounds: u64, dests: usize, seed: u64) -> Result<SourceSpec, String> {
    Ok(SourceSpec::Random {
        rate: Rate::new(1, 2).map_err(|e| e.to_string())?,
        sigma: SIGMA,
        rounds,
        dests: DestSpec::Spread { count: dests },
        cadence: Cadence::Bursty { period: 16 },
        seed,
        attempts: 8,
    })
}

/// The destinations `spec` actually emits on `topo`.
fn destinations(spec: &SourceSpec, topo: &AnyTopology) -> Result<BTreeSet<NodeId>, String> {
    let mut source = spec.build(topo).map_err(|e| e.to_string())?;
    let horizon = source.horizon().ok_or("random streams have a horizon")?;
    let mut out: Vec<Injection> = Vec::new();
    let mut dests = BTreeSet::new();
    for t in 0..horizon {
        out.clear();
        source.next_round(Round::new(t), &mut out);
        dests.extend(out.iter().map(|i| i.dest));
    }
    Ok(dests)
}

impl PaperPath {
    pub fn new(seed: u64, size: Size) -> Result<Self, String> {
        let (n, segment, passes, spread, streams) = match size {
            Size::Full => (1024, 16, 32, 32, 8),
            Size::Tiny => (64, 16, 6, 8, 1),
        };
        let rounds = segment * passes as u64;
        let path = TopologySpec::Path { n };
        let path_topo = path.build().map_err(|e| e.to_string())?;
        let h = Hierarchy::covering(n, LEVELS).map_err(|e| e.to_string())?;
        let mut runs = Vec::new();
        for k in 0..streams {
            let path_source = random_stream(rounds, spread, mix(seed, 10 + k))?;
            let tree = TopologySpec::Tree(TreeSpec::Random {
                n,
                seed: mix(seed, 20 + k),
            });
            let tree_source = random_stream(rounds, spread, mix(seed, 30 + k))?;
            let d = destinations(&path_source, &path_topo)?.len();
            let tree_topo = tree.build().map_err(|e| e.to_string())?;
            let d_prime = tree_topo
                .as_tree()
                .ok_or("tree spec builds a tree")?
                .destination_depth(&destinations(&tree_source, &tree_topo)?);
            runs.extend([
                Run {
                    check: "ppts_bound",
                    topology: path.clone(),
                    protocol: ProtocolSpec::Ppts { eager: false },
                    source: path_source.clone(),
                    bound: ppts_bound(d, SIGMA),
                },
                Run {
                    check: "hpts_bound",
                    topology: path.clone(),
                    protocol: ProtocolSpec::Hpts { levels: LEVELS },
                    source: path_source,
                    bound: hpts_bound(h.levels(), h.base(), SIGMA),
                },
                Run {
                    check: "tree_ppts_bound",
                    topology: tree,
                    protocol: ProtocolSpec::TreePpts,
                    source: tree_source,
                    bound: tree_ppts_bound(d_prime, SIGMA),
                },
            ]);
        }
        Ok(PaperPath {
            runs,
            segment,
            passes,
            bound_cut: 0,
        })
    }

    /// The generated inputs, for the seed self-test.
    #[cfg(test)]
    pub fn inputs(&self) -> String {
        format!("{:?}", self.runs)
    }
}

impl Workload for PaperPath {
    type Ready = Vec<Sim>;

    fn passes_per_setup(&self) -> usize {
        self.passes
    }

    fn setup(&self, t: &mut Tracer) -> Result<Vec<Sim>, String> {
        self.runs
            .iter()
            .map(|run| {
                let topo = build_topology(&run.topology, t)?;
                let protocol = t
                    .span("ProtocolSpec::build", || run.protocol.build(&topo))
                    .map_err(|e| e.to_string())?;
                let source = t
                    .span("SourceSpec::build", || run.source.build(&topo))
                    .map_err(|e| e.to_string())?;
                Ok(t.span("Simulation::from_source", || {
                    Simulation::from_source(topo, protocol, source)
                }))
            })
            .collect()
    }

    fn pass(&self, sims: &mut Vec<Sim>, _: usize, t: &mut Tracer, out: &mut Outcome) {
        for (sim, run) in sims.iter_mut().zip(&self.runs) {
            let bound = run.bound.saturating_sub(self.bound_cut);
            let failures = advance(sim, self.segment, 1, None, t, out, |sim, c| {
                c.bound(run.check, sim.metrics(), bound)
            });
            out.record(failures);
        }
    }
}
