//! Benchmark-side tracing: spans around the public calls the workloads
//! make, and a wall-clock [`Probe`] for the engine's phase hooks.
//!
//! Nothing here reaches into the engine. A disabled [`Tracer`] records
//! nothing, and the run loop attaches no probe to untraced runs, so
//! they run exactly the code a user's program runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use aqt_model::{EnginePhase, FaultState, NetworkState, Packet, Probe, Round, RoundOutcome};
use aqt_telemetry::TelemetryProbe;

/// One recorded span: a public call (or a benchmark step such as a pass)
/// with its start and end on the run's clock and the span that was open
/// around it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Per-round engine counters gathered by [`BenchProbe`].
#[derive(Debug, Default, Clone)]
pub struct EngineCounters {
    /// Nanoseconds per phase, indexed like [`EnginePhase::ALL`].
    pub phase_ns: [u64; 4],
    pub rounds: u64,
    pub moves: u64,
    /// Rounds sampled for the state means below.
    pub sampled: u64,
    pub active_sum: u64,
    pub live_sum: u64,
    /// Σ over sharded rounds of the busiest shard's moves, and of the
    /// mean shard's moves.
    pub shard_max_sum: u64,
    pub shard_mean_sum: f64,
    pub fault_rounds: u64,
    /// Nanoseconds spent inside forwarded telemetry hooks.
    pub hook_ns: u64,
}

/// Sample the O(n / 64) state counters on every this-many rounds.
const STATE_STRIDE: u64 = 8;

/// Span and counter recorder for one benchmark run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub engine: EngineCounters,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records nothing until
    /// [`set_enabled`](Tracer::set_enabled).
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            engine: EngineCounters::default(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; recorded data is kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Tracer::end). Returns `None`
    /// when disabled.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes `span` and any span a panic left open inside it.
    pub fn end(&mut self, span: Option<u32>) {
        let Some(idx) = span else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Adds `v` to the counter `name` (recorded only when enabled).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises the counter `name` to at least `v` (recorded only when
    /// enabled).
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let c = self.counters.entry(name).or_insert(v);
            *c = c.max(v);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A probe that times phases on this run's clock and, when given,
    /// forwards every hook to `telemetry`. Hand it back with
    /// [`absorb`](Tracer::absorb) when the run ends.
    pub fn probe<'a>(&self, telemetry: Option<&'a mut TelemetryProbe>) -> BenchProbe<'a> {
        BenchProbe {
            epoch: self.epoch,
            counters: EngineCounters::default(),
            telemetry,
            round_shards: Vec::new(),
        }
    }

    /// Adds a finished probe's counters to this run's.
    pub fn absorb(&mut self, probe: BenchProbe<'_>) {
        let (e, p) = (&mut self.engine, probe.counters);
        for (a, b) in e.phase_ns.iter_mut().zip(p.phase_ns) {
            *a += b;
        }
        e.rounds += p.rounds;
        e.moves += p.moves;
        e.sampled += p.sampled;
        e.active_sum += p.active_sum;
        e.live_sum += p.live_sum;
        e.shard_max_sum += p.shard_max_sum;
        e.shard_mean_sum += p.shard_mean_sum;
        e.fault_rounds += p.fault_rounds;
        e.hook_ns += p.hook_ns;
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// The benchmark's engine probe: a real clock for `on_phase`, round and
/// shard counters, and (on the mesh workloads) a timed pass-through to the
/// workload's own [`TelemetryProbe`].
pub struct BenchProbe<'a> {
    epoch: Instant,
    counters: EngineCounters,
    telemetry: Option<&'a mut TelemetryProbe>,
    round_shards: Vec<u64>,
}

impl BenchProbe<'_> {
    fn forward(&mut self, hook: impl FnOnce(&mut TelemetryProbe)) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            let start = Instant::now();
            hook(t);
            self.counters.hook_ns += start.elapsed().as_nanos() as u64;
        }
    }
}

impl Probe for BenchProbe<'_> {
    fn now_nanos(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn on_fault(&mut self, round: Round, state: &FaultState) {
        self.counters.fault_rounds += 1;
        self.forward(|t| t.on_fault(round, state));
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        self.forward(|t| t.on_observe(round, state));
    }

    fn on_phase(&mut self, round: Round, phase: EnginePhase, nanos: u64) {
        let i = EnginePhase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("ALL lists every phase");
        self.counters.phase_ns[i] += nanos;
        self.forward(|t| t.on_phase(round, phase, nanos));
    }

    fn on_shard_moves(&mut self, round: Round, shard: usize, moves: usize) {
        self.round_shards.push(moves as u64);
        self.forward(|t| t.on_shard_moves(round, shard, moves));
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        self.forward(|t| t.on_delivery(round, packet));
    }

    fn on_round(&mut self, outcome: &RoundOutcome, state: &NetworkState) {
        let c = &mut self.counters;
        c.rounds += 1;
        c.moves += outcome.forwarded as u64;
        if outcome.round.value().is_multiple_of(STATE_STRIDE) {
            c.sampled += 1;
            c.active_sum += state.active_count() as u64;
            c.live_sum += (state.total_buffered() + state.staged_len()) as u64;
        }
        if !self.round_shards.is_empty() {
            let max = self.round_shards.iter().copied().max().unwrap_or(0);
            let sum: u64 = self.round_shards.iter().sum();
            c.shard_max_sum += max;
            c.shard_mean_sum += sum as f64 / self.round_shards.len() as f64;
            self.round_shards.clear();
        }
        self.forward(|t| t.on_round(outcome, state));
    }
}
