//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--cache-dir <dir>]
//! ```
//!
//! One single-threaded client runs a closed loop of ops (the next op
//! starts when the previous one has completed) for `--seconds`, after an
//! untimed prepare step that computes every op's reference and a timed,
//! repeated set-up. Every host time is normalized by the host-speed
//! probe (see `probe.rs`) and printed beside its raw wall time; every
//! simulated quantity is an exact count checked op by op. With
//! `--trace 1` the run prints per-layer metrics instead, measured from
//! outside by timing calls into the program's public functions.
//!
//! The last line of standard output is the JSON result.

mod inputs;
mod probe;
mod stats;
mod trace;
mod workloads;

use probe::{at_stack_offset, Clock, Probe};
use stats::{mean, median, percentile, Metric};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{OwnLayers, TraceSpec, Workload};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["lenet-fx8-session", "sweep-cold", "table1-stream"];
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Minimum passes over every traced item.
const MIN_TRACE_REPS: usize = 3;
/// Least number of ops the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Layer names of LeNet's NoC layers, in op order.
const LAYERS: [&str; 5] = ["conv1", "conv2", "fc1", "fc2", "fc3"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cache_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--cache-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cache_dir: PathBuf::from(".bench_build/perfbench-cache"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"use 0 or 1")),
                }
            }
            "--cache-dir" => args.cache_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One op of the timed loop.
struct OpSample {
    raw_ms: f64,
    unit: usize,
    config: usize,
    outcome: workloads::Outcome,
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let probe = Probe::new();

    let prepare = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "lenet-fx8-session" => Box::new(workloads::LenetSession::prepare(
            &args.cache_dir,
            args.seed,
        )?),
        "sweep-cold" => Box::new(workloads::SweepCold::prepare(args.seed)?),
        _ => Box::new(workloads::Table1Stream::prepare(
            &args.cache_dir,
            args.seed,
        )?),
    };
    println!(
        "# prepare (untimed): {:.2} s",
        prepare.elapsed().as_secs_f64()
    );
    let configs = workload.configs();
    for (i, label) in configs.iter().enumerate() {
        println!("# config {i}: {label}");
    }

    let mut clock = Clock::new(&probe);
    let mut setups = Vec::new();
    for rep in 0..if args.trace { 1 } else { SETUP_REPS } {
        let unit = clock.tick();
        let t = Instant::now();
        at_stack_offset(rep, || workload.setup())?;
        setups.push((t.elapsed().as_secs_f64(), unit));
    }
    println!("# plan: {}", workload.plan());

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let start = Instant::now();
    let mut ops: Vec<OpSample> = Vec::new();
    // Whole rotations only, so every configuration weighs the same.
    while start.elapsed() < budget || !ops.len().is_multiple_of(configs.len()) {
        let unit = clock.tick();
        let k = ops.len();
        // The offset changes once per rotation, so each configuration
        // meets every offset.
        let (raw_ms, outcome) = at_stack_offset(k / configs.len(), || workload.op(k));
        ops.push(OpSample {
            raw_ms,
            unit,
            config: k % configs.len(),
            outcome,
        });
    }
    clock.finish();

    let loop_stats = LoopStats::new(&ops, &clock, configs.len(), workload.tail_percentile());
    let failed = ops.iter().filter(|s| !s.outcome.ok).count();
    for note in workload.notes() {
        println!("{note}");
    }
    println!(
        "# {} ops; tail = p{} with {} ops beyond it; probe median {:.4} ms over {} samples",
        ops.len(),
        workload.tail_percentile(),
        loop_stats.tail_beyond,
        median(clock.samples()),
        clock.samples().len()
    );

    let (metrics, attempted, failed) = if args.trace {
        let spec = workload.trace_spec()?;
        let remaining = Duration::from_secs_f64(args.seconds).saturating_sub(start.elapsed());
        let (metrics, traced, trace_failed) = trace_run(&spec, &probe, remaining, &loop_stats)?;
        (metrics, ops.len() + traced, failed + trace_failed)
    } else {
        let scale = |(s, unit): &(f64, usize)| s * clock.scale(*unit);
        let setup_norm: Vec<f64> = setups.iter().map(scale).collect();
        let setup_raw: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let (bt, cycles, reduction) = workload.exact();
        let metrics = vec![
            Metric::timed(
                "ops_per_s",
                loop_stats.ops_per_s,
                loop_stats.raw_ops_per_s,
                "1/s",
            ),
            Metric::timed("ms_per_op_p50", loop_stats.p50, loop_stats.raw_p50, "ms"),
            Metric::timed("ms_per_op_tail", loop_stats.tail, loop_stats.raw_tail, "ms"),
            Metric::timed("setup_s", median(&setup_norm), median(&setup_raw), "s"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb()?, "MB"),
            Metric::new(
                "ok_frac",
                (ops.len() - failed) as f64 / ops.len() as f64,
                "fraction",
            ),
            Metric::timed(
                "mflits_per_s",
                loop_stats.mflits_per_s,
                loop_stats.raw_mflits_per_s,
                "Mflit/s",
            ),
            Metric::new("bt_per_op", bt, "count"),
            Metric::new("sim_cycles_per_op", cycles, "cycles"),
            Metric::new("bt_reduction_pct", reduction, "%"),
        ];
        (metrics, ops.len(), failed)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !args.trace && loop_stats.tail_beyond < TAIL_BEYOND {
        println!("# warning: fewer than {TAIL_BEYOND} ops beyond the tail percentile");
    }
    stats::print_result(failed == 0 && finite, attempted, failed, &metrics);
    Ok(())
}

/// Normalized statistics of the timed loop.
struct LoopStats {
    p50: f64,
    raw_p50: f64,
    tail: f64,
    raw_tail: f64,
    tail_beyond: usize,
    ops_per_s: f64,
    raw_ops_per_s: f64,
    mflits_per_s: f64,
    raw_mflits_per_s: f64,
}

impl LoopStats {
    /// `p50` is the mean over configurations of each one's median, so a
    /// rotation over unlike configurations does not jump between their
    /// clusters; the tail is a percentile of all ops together.
    fn new(ops: &[OpSample], clock: &Clock<'_>, configs: usize, tail_p: f64) -> Self {
        let norm: Vec<f64> = ops.iter().map(|s| s.raw_ms * clock.scale(s.unit)).collect();
        let raw: Vec<f64> = ops.iter().map(|s| s.raw_ms).collect();
        let per_config_median = |values: &[f64]| {
            let medians: Vec<f64> = (0..configs)
                .map(|c| {
                    let of_c: Vec<f64> = ops
                        .iter()
                        .zip(values)
                        .filter(|(s, _)| s.config == c)
                        .map(|(_, v)| *v)
                        .collect();
                    median(&of_c)
                })
                .collect();
            mean(&medians)
        };
        let flits: u64 = ops.iter().map(|s| s.outcome.flits).sum();
        let (norm_s, raw_s) = (
            norm.iter().sum::<f64>() / 1e3,
            raw.iter().sum::<f64>() / 1e3,
        );
        let tail = percentile(&norm, tail_p);
        Self {
            p50: per_config_median(&norm),
            raw_p50: per_config_median(&raw),
            tail,
            raw_tail: percentile(&raw, tail_p),
            tail_beyond: norm.iter().filter(|&&v| v > tail).count(),
            ops_per_s: ops.len() as f64 / norm_s,
            raw_ops_per_s: ops.len() as f64 / raw_s,
            mflits_per_s: flits as f64 / norm_s / 1e6,
            raw_mflits_per_s: flits as f64 / raw_s / 1e6,
        }
    }
}

/// Runs `pass(rep)` for rep = 0, 1, ... until at least
/// [`MIN_TRACE_REPS`] passes are done and `budget` has elapsed; returns
/// the pass count.
fn repeat(
    budget: Duration,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_TRACE_REPS || start.elapsed() < budget {
        pass(rep)?;
        rep += 1;
    }
    Ok(rep)
}

/// Raw ms samples of one traced quantity, each tagged with its unit.
#[derive(Default)]
struct Samples(Vec<(f64, usize)>);

impl Samples {
    fn push(&mut self, raw_ms: f64, unit: usize) {
        self.0.push((raw_ms, unit));
    }

    /// `(normalized, raw)` medians.
    fn medians(&self, clock: &Clock<'_>) -> (f64, f64) {
        let norm: Vec<f64> = self.0.iter().map(|(ms, u)| ms * clock.scale(*u)).collect();
        let raw: Vec<f64> = self.0.iter().map(|(ms, _)| *ms).collect();
        (median(&norm), median(&raw))
    }
}

/// `(normalized, raw)` mean over traced items of each item's median.
fn mean_of_medians<'s>(items: impl Iterator<Item = &'s Samples>, clock: &Clock<'_>) -> (f64, f64) {
    let (norm, raw): (Vec<f64>, Vec<f64>) = items.map(|s| s.medians(clock)).unzip();
    (mean(&norm), mean(&raw))
}

/// The traced run: repeats every chain, staged replay and stream split
/// for the remaining time (at least [`MIN_TRACE_REPS`] passes) and
/// returns the per-layer metrics, the traced op count and its failures.
fn trace_run(
    spec: &TraceSpec,
    probe: &Probe,
    budget: Duration,
    untraced: &LoopStats,
) -> Result<(Vec<Metric>, usize, usize), String> {
    let mut clock = Clock::new(probe);
    // [chain][layer] and [chain] (whole traced op).
    let mut layer_ms: Vec<Vec<Samples>> = spec
        .chains
        .iter()
        .map(|_| LAYERS.iter().map(|_| Samples::default()).collect())
        .collect();
    let mut chain_ms: Vec<Samples> = spec.chains.iter().map(|_| Samples::default()).collect();
    let mut stage_ms: Vec<[Samples; 8]> = spec.stages.iter().map(|_| Default::default()).collect();
    let mut stage_counts: Vec<trace::StageTimes> = Vec::new();
    let mut stream_ms: Vec<[Samples; 4]> =
        spec.streams.iter().map(|_| Default::default()).collect();
    let mut stream_counts: Vec<trace::StreamStages> = Vec::new();
    let (mut traced, mut failed) = (0usize, 0usize);
    let fail = |why: String| {
        println!("# trace check failed: {why}");
        1
    };

    // Each kind of traced work runs back to back for a third of the time,
    // so no kind runs on caches and heaps the others have churned.
    let phase = budget / 3;
    let chain_passes = repeat(phase, |rep| {
        for (c, item) in spec.chains.iter().enumerate() {
            let i = rep % item.inputs.len();
            let unit = clock.tick();
            let run = at_stack_offset(rep, || item.chain.run(&item.inputs[i]))?;
            traced += 1;
            if run.layer_ms.len() != LAYERS.len() {
                return Err(format!("expected {} NoC layers", LAYERS.len()));
            }
            if run.outputs != item.outputs[i] {
                failed += fail(format!(
                    "chain {c} input {i}: outputs differ from the session's"
                ));
            }
            for (l, ms) in run.layer_ms.iter().enumerate() {
                layer_ms[c][l].push(*ms, unit);
            }
            chain_ms[c].push(run.total_ms, unit);
        }
        Ok(())
    })?;
    let stage_passes = repeat(phase, |rep| {
        for (s, item) in spec.stages.iter().enumerate() {
            let (inputs, report) = &item.runs[rep % item.runs.len()];
            let unit = clock.tick();
            let st = at_stack_offset(rep, || {
                trace::replay_first_layer(item.ops, inputs, &item.config)
            })?;
            traced += 1;
            if (st.tasks, st.flits, st.bt)
                != (
                    report.request_packets,
                    report.request_flits,
                    report.transitions,
                )
            {
                failed += fail(format!(
                    "stage replay {s}: tasks/flits/BTs {}/{}/{} vs layer report {}/{}/{}",
                    st.tasks,
                    st.flits,
                    st.bt,
                    report.request_packets,
                    report.request_flits,
                    report.transitions
                ));
            }
            for (k, (_, ms)) in st.stage_ms().iter().enumerate() {
                stage_ms[s][k].push(*ms, unit);
            }
            if rep == 0 {
                println!("# stage replay {s}: {} engine", st.resolved);
                stage_counts.push(st);
            }
        }
        Ok(())
    })?;
    let stream_passes = repeat(phase, |rep| {
        for (s, item) in spec.streams.iter().enumerate() {
            let unit = clock.tick();
            let config = btr_core::stream::WindowConfig::table1();
            let cmp = inputs::table1_comparison(&item.packets, item.seed);
            let st = at_stack_offset(rep, || match &item.packets {
                inputs::Packets::F32(p) => trace::stream_stages(p, &config, cmp),
                inputs::Packets::Fx8(p) => trace::stream_stages(p, &config, cmp),
            });
            traced += 1;
            if (st.bt_base, st.bt_ordered) != item.reference {
                failed += fail(format!("stream {s}: BTs differ from compare_windowed"));
            }
            let total = st.build_base + st.build_ordered + st.measure;
            for (k, ms) in [st.build_base, st.build_ordered, st.measure, total]
                .iter()
                .enumerate()
            {
                stream_ms[s][k].push(*ms, unit);
            }
            if rep == 0 {
                stream_counts.push(st);
            }
        }
        Ok(())
    })?;
    clock.finish();
    println!("# traced passes: chains {chain_passes}, stage replays {stage_passes}, streams {stream_passes}");

    let mut metrics = Vec::new();
    // Layer counts average the untraced runs' reports; times average the
    // chains' per-item medians.
    for (l, name) in LAYERS.iter().enumerate() {
        let of = |f: &dyn Fn(&btr_accel::LayerTrafficReport) -> f64| {
            mean(&spec.reports.iter().map(|r| f(&r[l])).collect::<Vec<_>>())
        };
        metrics.push(Metric::new(
            format!("layer.{name}.bt"),
            of(&|r| r.transitions as f64),
            "count",
        ));
        metrics.push(Metric::new(
            format!("layer.{name}.sim_cycles"),
            of(&|r| r.cycles as f64),
            "cycles",
        ));
        metrics.push(Metric::new(
            format!("layer.{name}.packets"),
            of(&|r| r.request_packets as f64),
            "count",
        ));
        metrics.push(Metric::new(
            format!("layer.{name}.flits"),
            of(&|r| r.request_flits as f64),
            "count",
        ));
        metrics.push(Metric::new(
            format!("layer.{name}.analytic"),
            of(&|r| f64::from(u8::from(r.analytic))),
            "fraction",
        ));
    }
    let mut layers_ms = 0.0;
    for (l, name) in LAYERS.iter().enumerate() {
        let (ms, raw) = mean_of_medians(layer_ms.iter().map(|c| &c[l]), &clock);
        layers_ms += ms;
        metrics.push(Metric::timed(format!("layer.{name}.ms"), ms, raw, "ms"));
    }

    let stage_names = trace::StageTimes::default().stage_ms().map(|(n, _)| n);
    for (k, name) in stage_names.iter().enumerate() {
        let (ms, raw) = mean_of_medians(stage_ms.iter().map(|s| &s[k]), &clock);
        metrics.push(Metric::timed(format!("stage.{name}.ms"), ms, raw, "ms"));
    }
    let stage_mean = |f: &dyn Fn(&trace::StageTimes) -> u64| {
        mean(&stage_counts.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    metrics.push(Metric::new(
        "stage.engine.busy_cycles",
        stage_mean(&|s| s.busy_cycles),
        "cycles",
    ));
    metrics.push(Metric::new(
        "stage.engine.idle_cycles",
        stage_mean(&|s| s.idle_cycles),
        "cycles",
    ));
    metrics.push(Metric::new(
        "stage.tasks",
        stage_mean(&|s| s.tasks),
        "count",
    ));
    metrics.push(Metric::new(
        "stage.flits",
        stage_mean(&|s| s.flits),
        "count",
    ));
    metrics.push(Metric::new("stage.bt", stage_mean(&|s| s.bt), "count"));

    let stream_norm: Vec<(f64, f64)> = (0..4)
        .map(|k| mean_of_medians(stream_ms.iter().map(|s| &s[k]), &clock))
        .collect();
    for (k, name) in ["build_base", "build_ordered", "measure"]
        .iter()
        .enumerate()
    {
        let (ms, raw) = stream_norm[k];
        metrics.push(Metric::timed(format!("stream.{name}.ms"), ms, raw, "ms"));
    }
    let stream_mean = |f: &dyn Fn(&trace::StreamStages) -> u64| {
        mean(
            &stream_counts
                .iter()
                .map(|s| f(s) as f64)
                .collect::<Vec<_>>(),
        )
    };
    metrics.push(Metric::new(
        "stream.flits",
        stream_mean(&|s| s.flits),
        "count",
    ));
    metrics.push(Metric::new(
        "stream.bt_base",
        stream_mean(&|s| s.bt_base),
        "count",
    ));
    metrics.push(Metric::new(
        "stream.bt_ordered",
        stream_mean(&|s| s.bt_ordered),
        "count",
    ));

    // Coverage and overhead compare the workload's own traced op with the
    // untraced loop of the same run.
    let (covered, traced_op) = match spec.own {
        OwnLayers::Noc => (layers_ms, mean_of_medians(chain_ms.iter(), &clock).0),
        OwnLayers::Stream => (
            stream_norm[..3].iter().map(|(ms, _)| ms).sum::<f64>(),
            stream_norm[3].0,
        ),
    };
    metrics.push(Metric::new("host.calib_ms", median(clock.samples()), "ms"));
    metrics.push(Metric::new(
        "host.wall_ms_per_op_p50",
        untraced.raw_p50,
        "ms",
    ));
    metrics.push(Metric::new(
        "trace.coverage_pct",
        100.0 * covered / untraced.p50,
        "%",
    ));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_op - untraced.p50) / untraced.p50,
        "%",
    ));
    Ok((metrics, traced, failed))
}
