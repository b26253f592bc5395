//! The repository's benchmark: one seeded workload per process, checked
//! against the paper's bounds and conservation, reported as one JSON
//! line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_path --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats set-up cycles — a set-up and the passes it serves —
//! until `--seconds` have passed. With `--trace 0` it prints the
//! end-to-end metrics: `moves_per_s` from the fastest pass, `setup_s`
//! from the fastest set-up, the process's peak RSS and the share of
//! checked runs whose checks passed. With `--trace 1` it alternates
//! untraced and traced cycles and prints the per-layer metrics of the
//! traced ones (see README.md), writing every span to
//! `$CARGO_TARGET_DIR/perfbench-spans/`.

mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workloads::mesh_faulted::MeshFaulted;
use workloads::mesh_sparse::MeshSparse;
use workloads::paper_path::PaperPath;
use workloads::threshold_search::ThresholdSearch;
use workloads::{guarded, Failure, Outcome, Size, Workload};

const WORKLOADS: [&str; 4] = [
    "paper_path",
    "threshold_search",
    "mesh_sparse",
    "mesh_faulted",
];

/// Failures printed per run; the rest are only counted.
const PRINTED_FAILURES: usize = 20;

/// What the cycles of one run measured.
struct Measured {
    outcome: Outcome,
    /// Untraced cycles: set-up seconds, pass seconds and moves per second.
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    rates: Vec<f64>,
    /// Traced passes' moves per second, and how many set-up cycles were
    /// traced.
    traced_rates: Vec<f64>,
    traced_cycles: u64,
    /// `VmHWM` at the end of the first set-up cycle.
    peak_rss_mib: Option<f64>,
    tracer: Tracer,
}

/// Repeats set-up cycles of `w` — a set-up and the passes it serves —
/// until at least `seconds` have passed. With `trace`, every second
/// cycle is traced.
fn measure<W: Workload>(w: &W, seconds: f64, trace: bool) -> Measured {
    let mut m = Measured {
        outcome: Outcome::default(),
        setup_s: Vec::new(),
        pass_s: Vec::new(),
        rates: Vec::new(),
        traced_rates: Vec::new(),
        traced_cycles: 0,
        peak_rss_mib: None,
        tracer: Tracer::off(),
    };
    let t = &mut m.tracer;
    let min_cycles = if trace { 4 } else { 3 };
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < min_cycles || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && cycle % 2 == 1;
        cycle += 1;
        t.set_enabled(traced);

        let span = t.begin("setup");
        let setup_start = Instant::now();
        let ready = guarded(|| w.setup(t)).and_then(|r| r);
        let setup = setup_start.elapsed().as_secs_f64();
        t.end(span);
        let mut ready = match ready {
            Ok(ready) => ready,
            Err(detail) => {
                m.outcome.record(vec![Failure {
                    check: "setup",
                    detail,
                }]);
                continue;
            }
        };
        if traced {
            m.traced_cycles += 1;
        } else {
            m.setup_s.push(setup);
        }

        for index in 0..w.passes_per_setup() {
            let moves_before = m.outcome.moves;
            let span = t.begin("pass");
            let pass_start = Instant::now();
            w.pass(&mut ready, index, t, &mut m.outcome);
            let pass = pass_start.elapsed().as_secs_f64();
            t.end(span);
            let rate = (m.outcome.moves - moves_before) as f64 / pass;
            if traced {
                m.traced_rates.push(rate);
            } else {
                m.pass_s.push(pass);
                m.rates.push(rate);
            }
        }
        m.peak_rss_mib = m.peak_rss_mib.or_else(peak_rss_mib);
    }
    t.set_enabled(false);
    m
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The process's peak resident set in MiB (`VmHWM`). Read at the end of
/// the first set-up cycle: later set-ups reuse freed heap in an order
/// that depends on how many cycles fit in the run, which would make the
/// peak depend on the host's speed.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn ok_share(o: &Outcome) -> f64 {
    (o.runs - o.failed_runs) as f64 / o.runs.max(1) as f64
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        ("moves_per_s", max(&m.rates), "1/s"),
        ("setup_s", min(&m.setup_s), "s"),
        ("peak_rss_mib", m.peak_rss_mib.unwrap_or(0.0), "MiB"),
        ("ok_share", ok_share(&m.outcome), "ratio"),
    ]
}

/// The per-layer metrics of the traced cycles. Span totals (`*_s`
/// without a percentile) and fault counts are per traced set-up cycle:
/// one set-up plus the passes it serves.
fn per_layer(m: &Measured) -> Vec<Metric> {
    let t = &m.tracer;
    let e = &t.engine;
    let cycles = m.traced_cycles.max(1) as f64;
    let per_cycle = |names: &[&str]| names.iter().map(|n| t.total(n)).sum::<f64>() / cycles;
    let rounds = e.rounds.max(1) as f64;
    let sampled = e.sampled.max(1) as f64;
    let phase = |i: usize| e.phase_ns[i] as f64 / rounds;
    let mut round_ns = t.durations("Simulation::step_probed");
    round_ns.extend(t.durations("Simulation::step_sharded_probed"));
    round_ns.iter_mut().for_each(|s| *s *= 1e9);
    let searches = t.counter("analysis.searches");
    let search_s = t.durations("search");
    let injected = t.counter("capacity.injected");
    vec![
        ("engine.inject_ns_per_round", phase(0), "ns"),
        ("engine.plan_ns_per_round", phase(1), "ns"),
        ("engine.forward_ns_per_round", phase(2), "ns"),
        ("engine.merge_ns_per_round", phase(3), "ns"),
        ("engine.round_ns.p50", quantile(&round_ns, 0.5), "ns"),
        ("engine.round_ns.p99", quantile(&round_ns, 0.99), "ns"),
        ("engine.moves_per_round", e.moves as f64 / rounds, "count"),
        (
            "engine.shard_imbalance",
            if e.shard_mean_sum > 0.0 {
                e.shard_max_sum as f64 / e.shard_mean_sum
            } else {
                1.0
            },
            "ratio",
        ),
        (
            "state.active_nodes_mean",
            e.active_sum as f64 / sampled,
            "count",
        ),
        (
            "state.live_packets_mean",
            e.live_sum as f64 / sampled,
            "count",
        ),
        (
            "state.peak_occupancy",
            t.counter("state.peak_occupancy"),
            "count",
        ),
        ("topology.build_s", per_cycle(&["TopologySpec::build"]), "s"),
        (
            "sim.construct_s",
            per_cycle(&["Simulation::from_source", "Simulation::with_capacity"]),
            "s",
        ),
        (
            "fault.expand_s",
            per_cycle(&["Simulation::with_faults"]),
            "s",
        ),
        (
            "fault.active_rounds",
            e.fault_rounds as f64 / cycles,
            "count",
        ),
        (
            "fault.faulted",
            t.counter("fault.faulted") / cycles,
            "count",
        ),
        (
            "capacity.drop_share",
            t.counter("capacity.dropped") / injected.max(1.0),
            "ratio",
        ),
        ("core.build_s", per_cycle(&["ProtocolSpec::build"]), "s"),
        ("adversary.build_s", per_cycle(&["SourceSpec::build"]), "s"),
        (
            "analysis.validate_s",
            per_cycle(&["Scenario::validate"]),
            "s",
        ),
        (
            "analysis.runs_per_search",
            t.counter("analysis.search_runs") / searches.max(1.0),
            "count",
        ),
        ("analysis.search_s.p50", quantile(&search_s, 0.5), "s"),
        ("analysis.search_s.p90", quantile(&search_s, 0.9), "s"),
        (
            "telemetry.hook_ns_per_round",
            e.hook_ns as f64 / rounds,
            "ns",
        ),
        ("pass_s.p50", quantile(&m.pass_s, 0.5), "s"),
        ("pass_s.p90", quantile(&m.pass_s, 0.9), "s"),
        (
            "trace.overhead_share",
            1.0 - max(&m.traced_rates) / max(&m.rates).max(f64::MIN_POSITIVE),
            "ratio",
        ),
    ]
}

/// Runs `workload` for `seconds` and returns what it measured.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Measured, String> {
    Ok(match workload {
        "paper_path" => measure(&PaperPath::new(seed, size)?, seconds, trace),
        "threshold_search" => measure(&ThresholdSearch::new(seed, size)?, seconds, trace),
        "mesh_sparse" => measure(&MeshSparse::new(seed, size)?, seconds, trace),
        "mesh_faulted" => measure(&MeshFaulted::new(seed, size)?, seconds, trace),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed_runs == 0 && o.runs > 0,
        o.runs,
        o.failed_runs,
        metrics.join(", ")
    )
}

/// Writes the traced run's spans, one JSON object per line.
fn write_spans(t: &Tracer, workload: &str, seed: u64) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(
        &std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    t.write_spans(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let m = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in m.outcome.failures.iter().take(PRINTED_FAILURES) {
        println!(
            "check failed: workload={} seed={} check={}: {}",
            args.workload, args.seed, f.check, f.detail
        );
    }
    if m.outcome.failures.len() > PRINTED_FAILURES {
        println!(
            "check failed: {} more failures not shown",
            m.outcome.failures.len() - PRINTED_FAILURES
        );
    }
    let metrics = if args.trace {
        match write_spans(&m.tracer, &args.workload, args.seed) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        per_layer(&m)
    } else {
        end_to_end(&m)
    };
    eprintln!(
        "perfbench: {} seed {}: {} untraced + {} traced passes, {} runs, {} failed",
        args.workload,
        args.seed,
        m.rates.len(),
        m.traced_rates.len(),
        m.outcome.runs,
        m.outcome.failed_runs
    );
    println!("{}", result_json(&m.outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, seed: u64, trace: bool) -> Measured {
        run(workload, seed, 0.0, trace, Size::Tiny).expect("tiny inputs build")
    }

    fn names(metrics: &[Metric]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.0).collect()
    }

    fn failed_checks(m: &Measured) -> Vec<&'static str> {
        m.outcome.failures.iter().map(|f| f.check).collect()
    }

    #[test]
    fn tiny_instances_pass_their_checks() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let m = tiny(workload, 7, trace);
                assert!(m.outcome.runs > 0, "{workload}: no runs");
                assert!(
                    m.outcome.failures.is_empty(),
                    "{workload} (trace {trace}): {:?}",
                    m.outcome.failures
                );
                assert!(m.outcome.moves > 0, "{workload}: nothing moved");
                let metrics = if trace { per_layer(&m) } else { end_to_end(&m) };
                for (name, value, _) in metrics {
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                }
            }
            let m = tiny(workload, 7, false);
            assert_eq!(ok_share(&m.outcome), 1.0);
            for (name, value, _) in end_to_end(&m) {
                assert!(value > 0.0, "{workload} {name} = {value}");
            }
        }
    }

    #[test]
    fn lowered_bound_drives_ok_share_below_one() {
        let mut w = PaperPath::new(3, Size::Tiny).unwrap();
        w.bound_cut = u64::MAX;
        let m = measure(&w, 0.0, false);
        assert!(ok_share(&m.outcome) < 1.0);
        assert!(failed_checks(&m).contains(&"ppts_bound"));
        let line = result_json(&m.outcome, &end_to_end(&m));
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
    }

    #[test]
    fn altered_reference_drives_ok_share_below_one() {
        let mut w = MeshFaulted::new(3, Size::Tiny).unwrap();
        w.corrupt_reference();
        let m = measure(&w, 0.0, false);
        assert_eq!(ok_share(&m.outcome), 0.0);
        assert!(failed_checks(&m).contains(&"matches_1_shard_reference"));
    }

    #[test]
    fn seed_changes_inputs_not_metric_names() {
        let inputs = |workload: &str, seed| match workload {
            "paper_path" => PaperPath::new(seed, Size::Tiny).unwrap().inputs(),
            "threshold_search" => ThresholdSearch::new(seed, Size::Tiny).unwrap().inputs(),
            "mesh_sparse" => MeshSparse::new(seed, Size::Tiny).unwrap().inputs(),
            "mesh_faulted" => MeshFaulted::new(seed, Size::Tiny).unwrap().inputs(),
            other => panic!("no inputs for {other}"),
        };
        for workload in WORKLOADS {
            assert_ne!(inputs(workload, 1), inputs(workload, 2), "{workload}");
            assert_eq!(inputs(workload, 1), inputs(workload, 1), "{workload}");
            let (a, b) = (tiny(workload, 1, true), tiny(workload, 2, true));
            assert_eq!(names(&end_to_end(&a)), names(&end_to_end(&b)));
            assert_eq!(names(&per_layer(&a)), names(&per_layer(&b)));
        }
    }

    /// Every printed metric is declared in `BENCHMARK.json`, and vice
    /// versa; every declared workload exists.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let m = tiny("paper_path", 1, true);
        let printed: Vec<&str> = names(&end_to_end(&m))
            .into_iter()
            .chain(names(&per_layer(&m)))
            .collect();
        for name in &printed {
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not declared"
            );
        }
        let declared_metrics = declared.matches("\"unit\":").count();
        assert_eq!(declared_metrics, printed.len());
        let workloads = declared.split("\"end_to_end\"").next().unwrap_or("");
        let names = workloads.matches("\"name\":").count();
        let known = WORKLOADS
            .iter()
            .filter(|w| workloads.contains(&format!("\"name\": \"{w}\"")))
            .count();
        assert_eq!(names, known, "BENCHMARK.json declares an unknown workload");
        assert!(known >= 2);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "paper_path", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "paper_path", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "paper_path", "--bogus", "1"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(run("nope", 1, 0.0, false, Size::Tiny).is_err());
        let ok = parse(&[
            "--workload",
            "mesh_sparse",
            "--seed",
            "4",
            "--seconds",
            "20",
        ])
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 20.0, false));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
