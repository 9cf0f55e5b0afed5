//! End-to-end inference throughput of the accelerator driver: synchronous
//! vs pipelined encode scheduling at batch 1 / 4 / 16 on LeNet fixed-8
//! (separated ordering — the paper's best configuration, and the most
//! encode-heavy one).
//!
//! Writes `BENCH_driver.json` (schema `btr-bench-v1`) like every bench
//! group, then reads it back to print per-input throughput and the
//! pipelined-vs-sync speedups — the end-to-end perf trajectory for the
//! driver (see EXPERIMENTS.md). Prints the host's hart count first.
//!
//! `BTR_BENCH_DRIVER_SMOKE=1` switches to random weights (no training)
//! and three samples per point, then times [`SMOKE_PAIRS`] interleaved
//! sync_b4 / pipelined_b4 samples and **asserts** that the pipelined
//! driver's best time does not lose to the synchronous driver's at the
//! same batch — the CI guard for the cached encode's reason to exist.
//! Both drivers encode inline on one thread, so the gate assumes no
//! particular hart count.

use btr_accel::config::{AccelConfig, DriverMode};
use btr_accel::driver::run_inference_batch;
use btr_bits::word::DataFormat;
use btr_core::OrderingMethod;
use btr_dnn::data::SyntheticDigits;
use btr_dnn::tensor::Tensor;
use btr_noc::EngineMode;
use criterion::{black_box, Criterion};
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Sample pairs of the smoke gate. The two points alternate sample by
/// sample (and which one goes first), so a slow host phase lands on both
/// rather than on one point's whole window.
const SMOKE_PAIRS: usize = 8;

/// The benchmarked configurations, in reporting order. The engine
/// column contrasts the cycle-accurate NoC against the analytic stream
/// engine (and auto classification) on the same driver/batch point.
const POINTS: [(&str, DriverMode, usize, EngineMode); 7] = [
    ("sync_b1", DriverMode::Synchronous, 1, EngineMode::Cycle),
    ("sync_b4", DriverMode::Synchronous, 4, EngineMode::Cycle),
    ("pipelined_b1", DriverMode::Pipelined, 1, EngineMode::Cycle),
    ("pipelined_b4", DriverMode::Pipelined, 4, EngineMode::Cycle),
    (
        "pipelined_b16",
        DriverMode::Pipelined,
        16,
        EngineMode::Cycle,
    ),
    (
        "pipelined_b4_analytic",
        DriverMode::Pipelined,
        4,
        EngineMode::Analytic,
    ),
    (
        "pipelined_b4_auto",
        DriverMode::Pipelined,
        4,
        EngineMode::Auto,
    ),
];

fn main() {
    let smoke = std::env::var("BTR_BENCH_DRIVER_SMOKE").is_ok();
    let harts = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("driver bench on {harts} hart(s)");
    let source = if smoke {
        WeightSource::Random
    } else {
        WeightSource::Trained
    };
    let seed = 42u64;
    let ops = lenet(source, seed).inference_ops();
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Tensor> = (0..16)
        .map(|i| digits.sample(i % 10, &mut rng).input)
        .collect();

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("driver");
    group.sample_size(if smoke { 3 } else { 10 });
    for (name, driver, batch, engine) in POINTS {
        let config = point_config(driver, batch, engine);
        let batch_inputs: Vec<Tensor> = inputs.iter().cycle().take(batch).cloned().collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let result = run_inference_batch(black_box(&ops), &batch_inputs, &config)
                    .expect("inference");
                result.stats.total_transitions
            })
        });
    }
    group.finish();

    report_speedups();
    if smoke {
        smoke_gate(&ops, &inputs[..4], harts);
    }
}

fn point_config(driver: DriverMode, batch: usize, engine: EngineMode) -> AccelConfig {
    let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
    config.driver = driver;
    config.batch_size = batch;
    config.engine = engine;
    config
}

/// Reads the group's own `BENCH_driver.json` back (exercising the
/// round-trip CI relies on) and prints per-input throughput.
fn report_speedups() {
    let metric = experiments::json::bench_metrics(&criterion::json_dir().join("BENCH_driver.json"));

    println!("\ndriver throughput (per input):");
    let per_input = |name: &str, batch: f64| metric(name, "mean_ns") / batch;
    for (name, _, batch, engine) in POINTS {
        let ns = per_input(name, batch as f64);
        println!(
            "  {name:<22} {:>8} {:>9.2} ms/input  ({:>6.2} inferences/s)",
            engine.label(),
            ns / 1e6,
            1e9 / ns
        );
    }
    let baseline = per_input("sync_b1", 1.0);
    println!("end-to-end speedup vs sync_b1:");
    for (name, _, batch, _) in POINTS {
        println!(
            "  {name:<22} {:>5.2}x",
            baseline / per_input(name, batch as f64)
        );
    }
}

/// Asserts pipelined_b4 ≥ sync_b4 throughput on best-case times over
/// [`SMOKE_PAIRS`] interleaved sample pairs. Best-case (min) times are
/// the most noise-robust on shared runners; equal batch isolates the
/// cached encode and decode. The gate has no slack: pipelined must not
/// lose.
fn smoke_gate(ops: &[btr_dnn::model::InferenceOp], inputs: &[Tensor], harts: usize) {
    let time = |driver: DriverMode| -> f64 {
        let config = point_config(driver, inputs.len(), EngineMode::Cycle);
        let start = Instant::now();
        let result = run_inference_batch(black_box(ops), inputs, &config).expect("inference");
        black_box(result.stats.total_transitions);
        start.elapsed().as_secs_f64()
    };
    let (mut sync, mut pipelined) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(SMOKE_PAIRS);
    for pair in 0..SMOKE_PAIRS {
        let (s, p) = if pair % 2 == 0 {
            let s = time(DriverMode::Synchronous);
            (s, time(DriverMode::Pipelined))
        } else {
            let p = time(DriverMode::Pipelined);
            (time(DriverMode::Synchronous), p)
        };
        sync = sync.min(s);
        pipelined = pipelined.min(p);
        ratios.push(s / p);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratio"));
    assert!(
        pipelined <= sync,
        "pipelined driver lost to sync at batch 4: {pipelined} s vs {sync} s"
    );
    println!(
        "smoke check: pipelined_b4 {:.1} ms is {:.2}x faster than sync_b4 {:.1} ms \
         (best of {SMOKE_PAIRS} interleaved pairs; pair ratios {:.2}x-{:.2}x, median {:.2}x; \
         {harts} hart(s))",
        pipelined * 1e3,
        sync / pipelined,
        sync * 1e3,
        ratios[0],
        ratios[SMOKE_PAIRS - 1],
        ratios[SMOKE_PAIRS / 2]
    );
}
