//! Timing pin: the simulated clock the driver reports under every engine.
//!
//! The engine parity suite compares BTs, codec lanes and payloads but
//! deliberately leaves clocks out (the analytic and hybrid clocks are not
//! the cycle engine's). This file pins the clock itself — `total_cycles`,
//! each layer's `cycles` and `analytic` flag, and the mean packet latency
//! — on one tiny fixed-8 model, so a change to the layer scheduler cannot
//! move any of them silently. Under `Auto` the conv layer resolves to the
//! hybrid split (replayed requests, stepped responses) and the
//! single-neuron linear layer to the verified analytic replay.

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::run_inference;
use noc_btr::bits::word::DataFormat;
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use noc_btr::noc::EngineMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one run reports about time: total cycles, per-layer
/// `(cycles, analytic)`, and the mean packet latency.
type Timing = (u64, Vec<(u64, bool)>, f64);

fn timing(engine: EngineMode) -> Timing {
    let mut rng = StdRng::seed_from_u64(91);
    let model = Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 1, &mut rng)),
        Layer::Activation(Activation::new(ActKind::ReLU)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(3 * 4 * 4, 1, &mut rng)),
    ]);
    let input = Tensor::from_vec(
        &[1, 8, 8],
        (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap();
    let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
    config.engine = engine;
    let r = run_inference(&model.inference_ops(), &input, &config).unwrap();
    let layers = r.per_layer.iter().map(|l| (l.cycles, l.analytic)).collect();
    (r.total_cycles, layers, r.stats.latency.mean)
}

#[test]
fn cycle_engine_clock_is_pinned() {
    assert_eq!(
        timing(EngineMode::Cycle),
        (327, vec![(302, false), (25, false)], 26.10880829015544)
    );
}

#[test]
fn auto_engine_clock_is_pinned() {
    // Hybrid conv: request makespan plus the stepped response phase,
    // composed rather than overlapped.
    assert_eq!(
        timing(EngineMode::Auto),
        (605, vec![(581, true), (24, true)], 76.47150259067358)
    );
}

#[test]
fn forced_analytic_clock_is_pinned() {
    assert_eq!(
        timing(EngineMode::Analytic),
        (352, vec![(328, true), (24, true)], 82.44559585492227)
    );
}
