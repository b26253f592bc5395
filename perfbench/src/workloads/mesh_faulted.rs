//! `mesh_faulted`: the sharded engine under loss. `AllFloods` saturates a
//! 96×96 mesh (every row head and every column head injects each round)
//! on buffers capped at 3 with `DropFarthest`, while a seeded
//! `FaultSpec` slows one link for good and, in every window of
//! `segment` rounds, fails a fresh random set of links and crashes a
//! node, both recovering within the window. The run uses 2 shards with a
//! `TelemetryProbe` attached and must reproduce, metric for metric, an
//! untimed 1-shard reference run.
//! Fault expansion (`with_faults`, O(n²) next-hop queries for
//! `RandomLinks`) dominates set-up, so one set-up serves a run of
//! consecutive one-window segments; each segment is one pass.

use aqt_adversary::SourceSpec;
use aqt_core::{GreedyPolicy, ProtocolSpec};
use aqt_model::util::SplitMix64;
use aqt_model::{
    CapacityConfig, DropFarthest, FaultEvent, FaultSpec, RunMetrics, Simulation, TopologySpec,
};

use aqt_telemetry::{TelemetryProbe, TelemetrySpec};

use super::{
    advance, build_topology, drive, guarded, mix, telemetry_delivered, Outcome, Sim, Size, Workload,
};
use crate::trace::Tracer;

const CAPACITY: usize = 3;
const SHARDS: usize = 2;
const TELEMETRY: TelemetrySpec = TelemetrySpec {
    series_capacity: 1024,
    series_stride: 16,
    occupancy_stride: 16,
};

#[derive(Debug)]
pub struct MeshFaulted {
    side: usize,
    /// Rounds per pass, and the period of the fault windows.
    segment: u64,
    passes: usize,
    faults: FaultSpec,
    /// Metrics of the same run on one shard at the end of each pass,
    /// computed untimed at start.
    reference: Vec<RunMetrics>,
}

fn fault_spec(side: usize, segment: u64, passes: usize, seed: u64) -> FaultSpec {
    let mut rng = SplitMix64::new(seed);
    let mut interior = || {
        let r = 1 + rng.below(side as u64 - 2) as usize;
        let c = 1 + rng.below(side as u64 - 2) as usize;
        r * side + c
    };
    let slowed = interior();
    let mut spec = FaultSpec::new(seed).with_event(FaultEvent::LinkDelay {
        from: slowed,
        to: slowed + 1,
        extra: 1,
        at: 0,
        until: None,
    });
    for window in 0..passes as u64 {
        let start = window * segment;
        spec = spec
            .with_event(FaultEvent::RandomLinks {
                count: side,
                at: start + segment / 4,
                until: Some(start + 3 * segment / 4),
            })
            .with_event(FaultEvent::NodeCrash {
                node: interior(),
                at: start + segment / 4,
                until: Some(start + segment / 2),
            });
    }
    spec
}

impl MeshFaulted {
    pub fn new(seed: u64, size: Size) -> Result<Self, String> {
        let (side, segment, passes) = match size {
            Size::Full => (96, 16, 48),
            Size::Tiny => (12, 8, 4),
        };
        let mut w = MeshFaulted {
            side,
            segment,
            passes,
            faults: fault_spec(side, segment, passes, mix(seed, 5)),
            reference: Vec::new(),
        };
        let (mut sim, _) = w.setup(&mut Tracer::off())?;
        for _ in 0..passes {
            guarded(|| drive(&mut sim, segment, 1, None, &mut Tracer::off()))?
                .map_err(|e| format!("1-shard reference: {e}"))?;
            w.reference.push(sim.metrics().clone());
        }
        Ok(w)
    }

    /// Makes the reference disagree with every pass, for the self-test
    /// that a broken check drives `ok_share` below 1.
    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        for r in &mut self.reference {
            r.delivered += 1;
        }
    }

    #[cfg(test)]
    pub fn inputs(&self) -> String {
        format!("{:?}", self.faults)
    }
}

impl Workload for MeshFaulted {
    type Ready = (Sim, TelemetryProbe);

    fn passes_per_setup(&self) -> usize {
        self.passes
    }

    fn setup(&self, t: &mut Tracer) -> Result<Self::Ready, String> {
        let topo = build_topology(
            &TopologySpec::Grid {
                rows: self.side,
                cols: self.side,
            },
            t,
        )?;
        let protocol = t
            .span("ProtocolSpec::build", || {
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::Fifo,
                }
                .build(&topo)
            })
            .map_err(|e| e.to_string())?;
        let source = t
            .span("SourceSpec::build", || {
                SourceSpec::AllFloods {
                    rounds: self.segment * self.passes as u64,
                }
                .build(&topo)
            })
            .map_err(|e| e.to_string())?;
        let sim = t.span("Simulation::from_source", || {
            Simulation::from_source(topo, protocol, source)
        });
        let sim = t.span("Simulation::with_capacity", || {
            sim.with_capacity(CapacityConfig::uniform(CAPACITY), DropFarthest)
        });
        let sim = t.span("Simulation::with_faults", || sim.with_faults(&self.faults));
        Ok((sim, TelemetryProbe::new(TELEMETRY)))
    }

    fn pass(&self, ready: &mut Self::Ready, index: usize, t: &mut Tracer, out: &mut Outcome) {
        let (sim, telemetry) = ready;
        let reference = &self.reference[index];
        let tel = Some(&mut *telemetry);
        let mut failures = advance(sim, self.segment, SHARDS, tel, t, out, |sim, c| {
            let m = sim.metrics();
            c.expect("matches_1_shard_reference", m == reference, || {
                format!(
                    "(delivered, dropped, faulted) after pass {index}: {SHARDS} shards \
                     ({}, {}, {}), 1 shard ({}, {}, {})",
                    m.delivered,
                    m.dropped,
                    m.faulted,
                    reference.delivered,
                    reference.dropped,
                    reference.faulted
                )
            });
        });
        failures.extend(telemetry_delivered(sim, telemetry));
        out.record(failures);
    }
}
