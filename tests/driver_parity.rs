//! Parity tests for the pipelined batch-inference driver.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Driver-mode parity**: the pipelined driver (cached encode through
//!    per-layer weight templates) is bit-exact with the legacy-faithful
//!    synchronous reference across every `OrderingMethod × CodecKind`
//!    combination — identical per-link bit transitions, total cycles,
//!    outputs, and index/codec side-channel accounting.
//! 2. **Batch-1 parity**: `run_inference_batch` with one input is the
//!    single-input driver, bit for bit.
//! 3. **Batch decomposition**: a batched run's per-element outputs equal
//!    the outputs of sequential single-input runs — each task's MAC
//!    depends only on its own operands, never on how the batch's packets
//!    interleave in the mesh (property-tested over random models).

use noc_btr::accel::config::{AccelConfig, DriverMode};
use noc_btr::accel::driver::{run_inference, run_inference_batch};
use noc_btr::bits::word::DataFormat;
use noc_btr::core::codec::{CodecKind, CodecScope};
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 1, &mut rng)),
        Layer::Activation(Activation::new(ActKind::ReLU)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(3 * 4 * 4, 5, &mut rng)),
    ])
}

fn tiny_input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        &[1, 8, 8],
        (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

fn config(
    format: DataFormat,
    ordering: OrderingMethod,
    codec: CodecKind,
    driver: DriverMode,
) -> AccelConfig {
    let mut c = AccelConfig::paper(4, 4, 2, format, ordering).with_codec(codec);
    c.driver = driver;
    c
}

/// Asserts two inference results are indistinguishable down to the
/// per-link transition totals.
fn assert_bit_exact(
    a: &noc_btr::accel::report::InferenceResult,
    b: &noc_btr::accel::report::InferenceResult,
    what: &str,
) {
    assert_eq!(a.output.data(), b.output.data(), "{what}: outputs");
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: cycles");
    assert_eq!(
        a.stats.total_transitions, b.stats.total_transitions,
        "{what}: total BTs"
    );
    assert_eq!(a.stats.per_link, b.stats.per_link, "{what}: per-link BTs");
    assert_eq!(
        a.index_overhead_bits, b.index_overhead_bits,
        "{what}: index overhead"
    );
    assert_eq!(
        a.codec_overhead_bits, b.codec_overhead_bits,
        "{what}: codec overhead"
    );
    assert_eq!(
        a.total_request_flits(),
        b.total_request_flits(),
        "{what}: request flits"
    );
}

#[test]
fn pipelined_matches_synchronous_across_orderings_and_codecs() {
    let model = tiny_model(11);
    let ops = model.inference_ops();
    let input = tiny_input(12);
    for ordering in OrderingMethod::ALL {
        for codec in CodecKind::ALL {
            let sync = run_inference(
                &ops,
                &input,
                &config(DataFormat::Fixed8, ordering, codec, DriverMode::Synchronous),
            )
            .unwrap();
            let pipelined = run_inference(
                &ops,
                &input,
                &config(DataFormat::Fixed8, ordering, codec, DriverMode::Pipelined),
            )
            .unwrap();
            assert_bit_exact(&sync, &pipelined, &format!("{ordering} {codec}"));
        }
    }
    // Float-32 exercises the other response-encoding path.
    let sync = run_inference(
        &ops,
        &input,
        &config(
            DataFormat::Float32,
            OrderingMethod::Separated,
            CodecKind::Unencoded,
            DriverMode::Synchronous,
        ),
    )
    .unwrap();
    let pipelined = run_inference(
        &ops,
        &input,
        &config(
            DataFormat::Float32,
            OrderingMethod::Separated,
            CodecKind::Unencoded,
            DriverMode::Pipelined,
        ),
    )
    .unwrap();
    assert_bit_exact(&sync, &pipelined, "f32 O2");
}

#[test]
fn per_packet_scope_is_bit_identical_to_the_pre_refactor_path() {
    // The codec-scope refactor moved codec state ownership into the NoC
    // links for `PerLink` scope; `PerPacket` scope must remain the exact
    // pre-refactor pipeline. Pinned across OrderingMethod × CodecKind:
    //
    // * a config that never names the scope (the pre-refactor
    //   construction — `with_codec` only, scope left at its default)
    //   equals an explicit `PerPacket` config, through both driver modes
    //   (Synchronous runs the preserved `encode_task_reference` /
    //   `decode_task_reference` oracle, the legacy idiom);
    // * per-link BTs, cycles, outputs and both overhead counters are
    //   compared, so "today's sweep numbers" cannot drift.
    let model = tiny_model(71);
    let ops = model.inference_ops();
    let input = tiny_input(72);
    for ordering in OrderingMethod::ALL {
        for codec in CodecKind::ALL {
            let legacy_construction =
                config(DataFormat::Fixed8, ordering, codec, DriverMode::Synchronous);
            assert_eq!(legacy_construction.codec_scope, CodecScope::PerPacket);
            let reference = run_inference(&ops, &input, &legacy_construction).unwrap();
            for driver in [DriverMode::Synchronous, DriverMode::Pipelined] {
                let explicit = config(DataFormat::Fixed8, ordering, codec, driver)
                    .with_codec_scope(CodecScope::PerPacket);
                let run = run_inference(&ops, &input, &explicit).unwrap();
                assert_bit_exact(
                    &reference,
                    &run,
                    &format!("{ordering} {codec} {driver} per-packet"),
                );
            }
        }
    }
}

#[test]
fn per_link_scope_is_lossless_and_bit_exact_across_drivers() {
    // Per-link scope: outputs stay bit-identical to per-packet scope
    // (the links' mirrored decoders recover every operand and response),
    // both driver modes agree bit-exactly with each other, packet/flit
    // shapes and side-channel accounting are scope-independent — only
    // the recorded wire changes, because its state now survives packet
    // boundaries.
    let model = tiny_model(81);
    let ops = model.inference_ops();
    let input = tiny_input(82);
    for ordering in OrderingMethod::ALL {
        for codec in CodecKind::ALL {
            let per_packet = run_inference(
                &ops,
                &input,
                &config(DataFormat::Fixed8, ordering, codec, DriverMode::Pipelined),
            )
            .unwrap();
            let pl_config = |driver| {
                config(DataFormat::Fixed8, ordering, codec, driver)
                    .with_codec_scope(CodecScope::PerLink)
            };
            let per_link = run_inference(&ops, &input, &pl_config(DriverMode::Pipelined)).unwrap();
            let per_link_sync =
                run_inference(&ops, &input, &pl_config(DriverMode::Synchronous)).unwrap();
            assert_bit_exact(
                &per_link,
                &per_link_sync,
                &format!("{ordering} {codec} per-link sync-vs-pipelined"),
            );
            // Lossless at the PEs and MCs: fixed-8 outputs bit-equal.
            assert_eq!(
                per_link.output.data(),
                per_packet.output.data(),
                "{ordering} {codec}: per-link scope changed the outputs"
            );
            // Traffic shape and side-channel accounting are
            // scope-independent.
            assert_eq!(
                per_link.total_request_flits(),
                per_packet.total_request_flits()
            );
            assert_eq!(per_link.total_cycles, per_packet.total_cycles);
            assert_eq!(per_link.index_overhead_bits, per_packet.index_overhead_bits);
            assert_eq!(per_link.codec_overhead_bits, per_packet.codec_overhead_bits);
            match codec {
                // The identity codec has no state anywhere: the scopes
                // are indistinguishable down to per-link BTs.
                CodecKind::Unencoded => assert_eq!(
                    per_link.stats.per_link, per_packet.stats.per_link,
                    "{ordering}: unencoded scopes must coincide"
                ),
                // Stateful codecs see different wires once state stops
                // resetting at packet boundaries.
                CodecKind::BusInvert | CodecKind::DeltaXor => assert_ne!(
                    per_link.stats.total_transitions, per_packet.stats.total_transitions,
                    "{ordering} {codec}: scopes must diverge on the wire"
                ),
            }
        }
    }
}

#[test]
fn batch_one_equals_single_input_driver() {
    let model = tiny_model(31);
    let ops = model.inference_ops();
    let input = tiny_input(32);
    for driver in [DriverMode::Synchronous, DriverMode::Pipelined] {
        let c = config(
            DataFormat::Fixed8,
            OrderingMethod::Separated,
            CodecKind::Unencoded,
            driver,
        );
        let single = run_inference(&ops, &input, &c).unwrap();
        let batch = run_inference_batch(&ops, std::slice::from_ref(&input), &c).unwrap();
        assert_eq!(batch.outputs.len(), 1);
        assert_eq!(batch.outputs[0].data(), single.output.data());
        assert_eq!(batch.total_cycles, single.total_cycles);
        assert_eq!(
            batch.stats.total_transitions,
            single.stats.total_transitions
        );
        assert_eq!(batch.stats.per_link, single.stats.per_link);
        assert_eq!(batch.index_overhead_bits, single.index_overhead_bits);
    }
}

#[test]
fn batched_runs_match_sequential_outputs_fx8() {
    let model = tiny_model(41);
    let ops = model.inference_ops();
    let inputs: Vec<Tensor> = (0..4).map(|i| tiny_input(100 + i)).collect();
    let mut c = config(
        DataFormat::Fixed8,
        OrderingMethod::Separated,
        CodecKind::Unencoded,
        DriverMode::Pipelined,
    );
    c.batch_size = inputs.len();
    let batched = run_inference_batch(&ops, &inputs, &c).unwrap();
    let mut single_config = c.clone();
    single_config.batch_size = 1;
    for (b, input) in inputs.iter().enumerate() {
        let single = run_inference(&ops, input, &single_config).unwrap();
        // Fixed-8 MACs are integer-exact: batched outputs are bit-equal
        // to sequential per-input runs.
        assert_eq!(
            batched.outputs[b].data(),
            single.output.data(),
            "batch element {b}"
        );
    }
    // One traffic phase per layer for the whole batch.
    assert_eq!(batched.per_layer.len(), 2);
    let singles_packets: u64 = inputs
        .iter()
        .map(|i| {
            run_inference(&ops, i, &single_config)
                .unwrap()
                .total_request_packets()
        })
        .sum();
    assert_eq!(batched.total_request_packets(), singles_packets);
}

#[test]
fn batch_size_must_match_inputs() {
    let model = tiny_model(51);
    let ops = model.inference_ops();
    let input = tiny_input(52);
    let mut c = config(
        DataFormat::Fixed8,
        OrderingMethod::Baseline,
        CodecKind::Unencoded,
        DriverMode::Pipelined,
    );
    c.batch_size = 3;
    let err = run_inference_batch(&ops, std::slice::from_ref(&input), &c).unwrap_err();
    assert!(err.to_string().contains("batch_size 3"));
    let err = run_inference(&ops, &input, &c).unwrap_err();
    assert!(err.to_string().contains("batch_size 1"));
    // Mismatched batch shapes are rejected, not silently mis-windowed:
    // layer geometry derives from element 0 alone.
    c.batch_size = 2;
    let odd = Tensor::from_vec(&[1, 10, 10], vec![0.0; 100]).unwrap();
    let err = run_inference_batch(&ops, &[input, odd], &c).unwrap_err();
    assert!(err.to_string().contains("share one shape"), "{err}");
}

proptest! {
    /// Batched MAC results equal per-input sequential results: over
    /// random tiny models, inputs, orderings and batch sizes, every
    /// batched output tensor is bit-identical (fixed-8) to its
    /// sequential single-input run.
    #[test]
    fn batched_macs_equal_sequential(
        model_seed in 0u64..1000,
        input_seed in 0u64..1000,
        method_idx in 0usize..3,
        batch in 2usize..=4,
    ) {
        let model = tiny_model(model_seed);
        let ops = model.inference_ops();
        let inputs: Vec<Tensor> = (0..batch as u64).map(|i| tiny_input(input_seed + i)).collect();
        let mut c = config(
            DataFormat::Fixed8,
            OrderingMethod::ALL[method_idx],
            CodecKind::Unencoded,
            DriverMode::Pipelined,
        );
        c.batch_size = batch;
        let batched = run_inference_batch(&ops, &inputs, &c).unwrap();
        let mut single_config = c.clone();
        single_config.batch_size = 1;
        for (b, input) in inputs.iter().enumerate() {
            let single = run_inference(&ops, input, &single_config).unwrap();
            prop_assert_eq!(batched.outputs[b].data(), single.output.data(), "element {}", b);
        }
    }
}
