//! `mesh_sparse`: million-node scale in the Even–Medina grid-routing
//! setting. A seeded stream injects one or two packets per round at
//! random first-row or first-column nodes of a 1024×1024 mesh, bound for
//! random reachable destinations, so about 10³ packets are live on 2²⁰
//! nodes. DagGreedy FIFO forwards on unbounded buffers at one shard with
//! a `TelemetryProbe` attached (occupancy stride > 1), the way
//! `scenarios --telemetry` runs. Rounds cost O(live packets) except for
//! the probe's strided O(n) occupancy scan, so this workload moves with
//! the active set, slab recycling, computed routing and telemetry.
//!
//! Building the 2²⁰-node state is too slow to repeat for every short
//! pass, so one set-up serves a run of consecutive segments; each segment
//! is one pass and is checked on its own.

use aqt_core::{GreedyPolicy, ProtocolSpec};
use aqt_model::util::SplitMix64;
use aqt_model::{FnSource, Injection, InjectionSource, Round, Simulation, TopologySpec};
use aqt_telemetry::{TelemetryProbe, TelemetrySpec};

use super::{advance, build_topology, mix, telemetry_delivered, Outcome, Sim, Size, Workload};
use crate::trace::Tracer;

#[derive(Debug)]
pub struct MeshSparse {
    rows: usize,
    cols: usize,
    /// Rounds per pass.
    segment: u64,
    passes: usize,
    seed: u64,
    telemetry: TelemetrySpec,
    /// Packets the stream has generated by the end of each pass, counted
    /// once from the generator alone.
    expected_injected: Vec<u64>,
}

/// The seeded sparse stream: each round one or two packets enter at a
/// random node of the first row or first column and head for a random
/// node reachable under XY routing (down-right of the source).
fn sparse_stream(rows: usize, cols: usize, rounds: u64, seed: u64) -> impl InjectionSource {
    let mut rng = SplitMix64::new(seed);
    FnSource::new(rounds, move |t, out| {
        for _ in 0..1 + rng.below(2) {
            let (r, c) = if rng.below(2) == 0 {
                (0, rng.below(cols as u64) as usize)
            } else {
                (rng.below(rows as u64) as usize, 0)
            };
            loop {
                let r2 = r + rng.below((rows - r) as u64) as usize;
                let c2 = c + rng.below((cols - c) as u64) as usize;
                if (r2, c2) != (r, c) {
                    out.push(Injection::new(t, r * cols + c, r2 * cols + c2));
                    break;
                }
            }
        }
    })
}

impl MeshSparse {
    pub fn new(seed: u64, size: Size) -> Result<Self, String> {
        let (side, segment, passes) = match size {
            Size::Full => (1024, 128, 64),
            Size::Tiny => (32, 16, 6),
        };
        let seed = mix(seed, 4);
        let mut stream = sparse_stream(side, side, segment * passes as u64, seed);
        let mut out = Vec::new();
        let expected_injected = (0..passes as u64)
            .map(|pass| {
                for t in pass * segment..(pass + 1) * segment {
                    stream.next_round(Round::new(t), &mut out);
                }
                out.len() as u64
            })
            .collect();
        Ok(MeshSparse {
            rows: side,
            cols: side,
            segment,
            passes,
            seed,
            telemetry: TelemetrySpec {
                series_capacity: 1024,
                series_stride: 16,
                occupancy_stride: 64,
            },
            expected_injected,
        })
    }

    #[cfg(test)]
    pub fn inputs(&self) -> String {
        format!("{:?}", self)
    }
}

impl Workload for MeshSparse {
    type Ready = (Sim, TelemetryProbe);

    fn passes_per_setup(&self) -> usize {
        self.passes
    }

    fn setup(&self, t: &mut Tracer) -> Result<Self::Ready, String> {
        let topo = build_topology(
            &TopologySpec::Grid {
                rows: self.rows,
                cols: self.cols,
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
        let source: Box<dyn InjectionSource> = Box::new(sparse_stream(
            self.rows,
            self.cols,
            self.segment * self.passes as u64,
            self.seed,
        ));
        let sim = t.span("Simulation::from_source", || {
            Simulation::from_source(topo, protocol, source)
        });
        Ok((sim, TelemetryProbe::new(self.telemetry)))
    }

    fn pass(&self, ready: &mut Self::Ready, index: usize, t: &mut Tracer, out: &mut Outcome) {
        let (sim, telemetry) = ready;
        let expected = self.expected_injected[index];
        let tel = Some(&mut *telemetry);
        let mut failures = advance(sim, self.segment, 1, tel, t, out, |sim, c| {
            let injected = sim.metrics().injected;
            c.expect("injected_matches_stream", injected == expected, || {
                format!("engine injected {injected} but the stream generated {expected}")
            });
        });
        failures.extend(telemetry_delivered(sim, telemetry));
        out.record(failures);
    }
}
