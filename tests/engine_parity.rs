//! Engine parity: the analytic fast-path engine against the cycle
//! engine, at both levels it is wired in.
//!
//! 1. **Driver level** — `EngineMode::Auto` must be indistinguishable
//!    from `EngineMode::Cycle` on every number a run reports (outputs,
//!    cycles, per-link BTs, index/codec side-channel accounting) across
//!    `OrderingMethod × CodecKind × CodecScope × batch`: Auto only takes
//!    the fast path when the contention-freedom classifier *proves* the
//!    replay changes nothing, so any observable difference is a bug. A
//!    dedicated uncontended workload pins that Auto really does take the
//!    fast path (`analytic_phase_fraction > 0`) and still matches.
//! 2. **NoC level** — on an eligible (contention-free) phase the forced
//!    analytic replay must equal a fresh cycle run bit for bit: per-link
//!    transitions and flit counts, delivered payloads, closed-form
//!    cycles/latencies, and — with per-link codec scope — the final
//!    persistent `LinkCodecState` of every tx/rx lane.
//!
//! A property test drives the classifier adversarially: random packet
//! sets, eligible or not. Whenever the classifier says "contention-free"
//! the replay must match the cycle engine exactly (it never
//! misclassifies); either way every payload must deliver losslessly.

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::run_inference_batch;
use noc_btr::bits::payload::PayloadBits;
use noc_btr::bits::word::DataFormat;
use noc_btr::core::codec::{CodecKind, CodecScope};
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use noc_btr::noc::config::NocConfig;
use noc_btr::noc::legacy::LegacySimulator;
use noc_btr::noc::packet::Packet;
use noc_btr::noc::routing::Direction;
use noc_btr::noc::sim::{DeliveredPacket, Simulator};
use noc_btr::noc::EngineMode;
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

fn tiny_inputs(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
            .unwrap()
        })
        .collect()
}

fn config(
    format: DataFormat,
    ordering: OrderingMethod,
    codec: CodecKind,
    scope: CodecScope,
    batch: usize,
    engine: EngineMode,
) -> AccelConfig {
    let mut c = AccelConfig::paper(4, 4, 2, format, ordering)
        .with_codec(codec)
        .with_codec_scope(scope);
    c.batch_size = batch;
    c.engine = engine;
    c
}

/// Runs the same batch under two engine modes and asserts every
/// reported number is identical.
fn assert_engines_agree(
    ops: &[noc_btr::dnn::model::InferenceOp],
    inputs: &[Tensor],
    a: &AccelConfig,
    b: &AccelConfig,
    what: &str,
) {
    let ra = run_inference_batch(ops, inputs, a).unwrap();
    let rb = run_inference_batch(ops, inputs, b).unwrap();
    for (i, (oa, ob)) in ra.outputs.iter().zip(&rb.outputs).enumerate() {
        assert_eq!(oa.data(), ob.data(), "{what}: output {i}");
    }
    // `total_cycles` is deliberately NOT compared: the engine contract
    // covers BTs, codec states and payloads; the analytic clock is a
    // closed-form estimate, and the pipelined cycle driver overlaps
    // injection with compute, so driver-level clocks legitimately
    // differ once a phase takes the fast path. Exact clock parity for
    // whole queued phases is pinned at the NoC level below.
    assert_eq!(
        ra.stats.total_transitions, rb.stats.total_transitions,
        "{what}: total BTs"
    );
    assert_eq!(ra.stats.per_link, rb.stats.per_link, "{what}: per-link BTs");
    assert_eq!(
        ra.index_overhead_bits, rb.index_overhead_bits,
        "{what}: index overhead"
    );
    assert_eq!(
        ra.codec_overhead_bits, rb.codec_overhead_bits,
        "{what}: codec overhead"
    );
}

#[test]
fn auto_is_bit_identical_to_cycle_across_the_matrix() {
    let model = tiny_model(11);
    let ops = model.inference_ops();
    for ordering in OrderingMethod::ALL {
        for codec in CodecKind::ALL {
            for scope in CodecScope::ALL {
                if scope == CodecScope::PerLink && !codec.is_stateful() {
                    continue; // identical to per-packet by construction
                }
                for batch in [1usize, 2] {
                    let inputs = tiny_inputs(12, batch);
                    let cycle = config(
                        DataFormat::Fixed8,
                        ordering,
                        codec,
                        scope,
                        batch,
                        EngineMode::Cycle,
                    );
                    let auto = config(
                        DataFormat::Fixed8,
                        ordering,
                        codec,
                        scope,
                        batch,
                        EngineMode::Auto,
                    );
                    assert_engines_agree(
                        &ops,
                        &inputs,
                        &cycle,
                        &auto,
                        &format!("{ordering} {codec} {scope:?} batch={batch}"),
                    );
                }
            }
        }
    }
    // Float-32 exercises the other response path, where MAC accumulation
    // order matters: the analytic delivery order must preserve it.
    let inputs = tiny_inputs(13, 2);
    let cycle = config(
        DataFormat::Float32,
        OrderingMethod::Separated,
        CodecKind::DeltaXor,
        CodecScope::PerPacket,
        2,
        EngineMode::Cycle,
    );
    let mut auto = cycle.clone();
    auto.engine = EngineMode::Auto;
    assert_engines_agree(&ops, &inputs, &cycle, &auto, "f32 O2 delta-xor");
}

#[test]
fn auto_takes_the_fast_path_on_uncontended_layers_and_still_matches() {
    // One task per layer: a single (MC, PE) request/response pair whose
    // XY routes are disjoint by direction, so the classifier must prove
    // the phase eligible and Auto must actually ride the analytic
    // engine — while staying bit-identical to the cycle engine.
    let mut rng = StdRng::seed_from_u64(17);
    let model = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(16, 1, &mut rng)),
    ]);
    let ops = model.inference_ops();
    let inputs = vec![Tensor::from_vec(
        &[1, 4, 4],
        (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()];
    for codec in CodecKind::ALL {
        let cycle = config(
            DataFormat::Fixed8,
            OrderingMethod::Separated,
            codec,
            CodecScope::PerPacket,
            1,
            EngineMode::Cycle,
        );
        let mut auto = cycle.clone();
        auto.engine = EngineMode::Auto;
        let fast = run_inference_batch(&ops, &inputs, &auto).unwrap();
        assert!(
            fast.analytic_phase_fraction() > 0.0,
            "{codec}: Auto never took the fast path on a single-task layer"
        );
        assert_engines_agree(
            &ops,
            &inputs,
            &cycle,
            &auto,
            &format!("uncontended {codec}"),
        );
    }
}

#[test]
fn per_link_matrix_rides_the_analytic_fast_path() {
    // Per-link codec scope used to be the one configuration that never
    // took the fast path (the bulk replay guards refused persistent
    // lanes). With the bulk codec-lane kernels plus the hybrid
    // request-phase split, both the forced replay and Auto must report a
    // nonzero analytic phase fraction on a real multi-PE model under
    // per-link scope — and Auto must stay bit-identical to the cycle
    // engine while doing so.
    let model = tiny_model(11);
    let ops = model.inference_ops();
    let inputs = tiny_inputs(12, 1);
    for ordering in [OrderingMethod::Baseline, OrderingMethod::Separated] {
        for codec in [CodecKind::DeltaXor, CodecKind::BusInvert] {
            let what = format!("{ordering} {codec} per-link");
            let cycle = config(
                DataFormat::Fixed8,
                ordering,
                codec,
                CodecScope::PerLink,
                1,
                EngineMode::Cycle,
            );
            let mut forced = cycle.clone();
            forced.engine = EngineMode::Analytic;
            let forced_run = run_inference_batch(&ops, &inputs, &forced).unwrap();
            assert!(
                forced_run.analytic_phase_fraction() > 0.0,
                "{what}: forced analytic never replayed a phase"
            );
            let mut auto = cycle.clone();
            auto.engine = EngineMode::Auto;
            let auto_run = run_inference_batch(&ops, &inputs, &auto).unwrap();
            assert!(
                auto_run.analytic_phase_fraction() > 0.0,
                "{what}: Auto fell back to the cycle engine on every layer"
            );
            assert_engines_agree(&ops, &inputs, &cycle, &auto, &what);
        }
    }
}

/// A random full-width payload image.
fn image(width: u32, rng: &mut StdRng) -> PayloadBits {
    let mut p = PayloadBits::zero(width);
    let mut off = 0;
    while off < width {
        let len = 64.min(width - off);
        p.set_field(off, len, rng.gen());
        off += len;
    }
    p
}

/// Row-local packets on a 4×4 mesh: one packet per row, so no two share
/// any directed router-output link (ejection included).
fn disjoint_packets(width: u32, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..4usize)
        .map(|row| {
            let payload: Vec<PayloadBits> = (0..3).map(|_| image(width, &mut rng)).collect();
            Packet::new(row * 4, row * 4 + 3, payload, row as u64)
        })
        .collect()
}

/// Asserts two simulators ended with identical per-link accounting,
/// codec-lane states and (tag-ordered) delivered payloads.
fn assert_sims_agree(fast: &mut Simulator, slow: &mut Simulator, what: &str) {
    let (fs, ss) = (fast.stats(), slow.stats());
    assert_eq!(fs.per_link, ss.per_link, "{what}: per-link BTs");
    assert_eq!(
        fs.total_transitions, ss.total_transitions,
        "{what}: total BTs"
    );
    assert_eq!(fs.flit_hops, ss.flit_hops, "{what}: flit-hops");
    let nodes = fast.config().num_nodes();
    for link in 0..nodes * Direction::ALL.len() {
        assert_eq!(
            fast.out_link_codec_lanes(link),
            slow.out_link_codec_lanes(link),
            "{what}: out-link {link} codec lanes"
        );
    }
    for node in 0..nodes {
        assert_eq!(
            fast.inject_link_codec_lanes(node),
            slow.inject_link_codec_lanes(node),
            "{what}: injection-link {node} codec lanes"
        );
        let key = |d: &DeliveredPacket| (d.tag, d.src, d.packet_id);
        let mut mine = fast.drain_delivered(node);
        let mut theirs = slow.drain_delivered(node);
        mine.sort_by_key(key);
        theirs.sort_by_key(key);
        assert_eq!(mine.len(), theirs.len(), "{what}: deliveries at {node}");
        for (m, t) in mine.iter().zip(&theirs) {
            assert_eq!(
                (m.src, m.dst, m.tag, &m.payload_flits),
                (t.src, t.dst, t.tag, &t.payload_flits),
                "{what}: delivered payload at {node}"
            );
        }
    }
}

#[test]
fn analytic_replay_matches_cycle_run_with_final_codec_states() {
    // Eligible phase, per-link codec scope: the replay must leave every
    // persistent codec lane in exactly the state the cycle engine does —
    // the wire's memory, not just its transition count.
    for codec in [CodecKind::DeltaXor, CodecKind::BusInvert] {
        let width = 128 + codec.extra_wires();
        let config = NocConfig::mesh(4, 4, width).with_link_codec(Some(codec));
        let mut fast = Simulator::new(config.clone());
        let mut slow = Simulator::new(config);
        for p in disjoint_packets(128, 7) {
            fast.inject(p.clone()).unwrap();
            slow.inject(p).unwrap();
        }
        assert!(fast.queued_phase_is_contention_free());
        fast.replay_queued_analytic(true);
        slow.run_until_idle(100_000).unwrap();
        // Closed-form clock and latency are exact on eligible phases.
        let (fs, ss) = (fast.stats(), slow.stats());
        assert_eq!(fs.cycles, ss.cycles, "{codec}: cycles");
        assert_eq!(fs.latency, ss.latency, "{codec}: latencies");
        assert_sims_agree(&mut fast, &mut slow, &format!("per-link {codec}"));
    }
}

#[test]
fn consecutive_phases_keep_codec_lanes_in_lockstep() {
    // Per-link codec state survives across phases; an analytic phase in
    // the middle must hand the next phase exactly the lane states a
    // cycle phase would have.
    let config = NocConfig::mesh(4, 4, 129).with_link_codec(Some(CodecKind::BusInvert));
    let mut fast = Simulator::new(config.clone());
    let mut slow = Simulator::new(config);
    for phase_seed in 0..3u64 {
        for p in disjoint_packets(128, 100 + phase_seed) {
            fast.inject(p.clone()).unwrap();
            slow.inject(p).unwrap();
        }
        assert!(fast.queued_phase_is_contention_free());
        fast.replay_queued_analytic(true);
        slow.run_until_idle(100_000).unwrap();
        assert_sims_agree(&mut fast, &mut slow, &format!("phase {phase_seed}"));
    }
}

/// Drains `sim` and checks every delivered payload against the injected
/// images re-aligned onto the link (narrower images travel with zeroed
/// upper wires).
fn assert_delivered_payloads(delivered: &mut [DeliveredPacket], packets: &[Packet], width: u32) {
    delivered.sort_by_key(|d| d.tag);
    assert_eq!(
        delivered.len(),
        packets.len(),
        "{width}-bit link: deliveries"
    );
    for (d, p) in delivered.iter().zip(packets) {
        assert_eq!((d.tag, d.src, d.dst), (p.tag, p.src, p.dst));
        assert_eq!(d.payload_flits.width(), width);
        let want: Vec<PayloadBits> = p.payload_flits.iter().map(|i| i.resized(width)).collect();
        assert_eq!(
            d.payload_flits.to_payloads(),
            want,
            "{width}-bit link: tag {}",
            p.tag
        );
    }
}

#[test]
fn packed_delivery_matches_injected_images_and_legacy_at_every_width() {
    // Link widths: one word, fx8 (128), fx8 + a bus-invert line (129),
    // fx8 + a CRC-8 field (136), f32 (512) and two ragged f32 widths.
    // Payload images are full-width or narrower (re-aligned at
    // injection), and some packets carry no payload at all.
    for width in [64u32, 128, 129, 136, 512, 513, 521] {
        let mut rng = StdRng::seed_from_u64(u64::from(width));
        let widths = [width, width - 1, width / 2, 64.min(width), 8];
        let random_image = |rng: &mut StdRng| {
            let w = widths[rng.gen_range(0..widths.len())];
            image(w, rng)
        };
        let contended: Vec<Packet> = (0..60u64)
            .map(|tag| {
                let payload: Vec<PayloadBits> = (0..rng.gen_range(0..5))
                    .map(|_| random_image(&mut rng))
                    .collect();
                Packet::new(rng.gen_range(0..16), rng.gen_range(0..16), payload, tag)
            })
            .collect();
        let disjoint: Vec<Packet> = (0..4usize)
            .flat_map(|row| [(row * 4, row * 4 + 3), (row * 4 + 1, row * 4 + 1)])
            .enumerate()
            .map(|(tag, (src, dst))| {
                let payload: Vec<PayloadBits> = (0..rng.gen_range(0..4))
                    .map(|_| random_image(&mut rng))
                    .collect();
                Packet::new(src, dst, payload, tag as u64)
            })
            .collect();
        for (phase, packets) in [("contended", &contended), ("contention-free", &disjoint)] {
            let config = NocConfig::mesh(4, 4, width);
            let mut legacy = LegacySimulator::new(config.clone());
            let mut stepped = Simulator::new(config.clone());
            let mut replayed = Simulator::new(config);
            for p in packets {
                legacy.inject(p.clone()).unwrap();
                stepped.inject(p.clone()).unwrap();
                replayed.inject(p.clone()).unwrap();
            }
            legacy.run_until_idle(1_000_000).unwrap();
            let want = legacy.stats();
            // Cycle engine, polled every cycle into one reused buffer
            // (its payload buffers are recycled drain to drain).
            let (mut buf, mut got) = (Vec::new(), Vec::new());
            while !stepped.is_idle() {
                stepped.step();
                stepped.drain_all_delivered_into(&mut buf);
                got.extend(buf.iter().cloned());
            }
            let what = format!("{width}-bit {phase}");
            assert_eq!(
                stepped.stats().per_link,
                want.per_link,
                "{what}: step vs legacy"
            );
            assert_eq!(stepped.stats().cycles, want.cycles, "{what}: cycles");
            assert_delivered_payloads(&mut got, packets, width);
            // Analytic replay (bit-exact with the cycle engine only on a
            // contention-free phase; lossless either way).
            let eligible = replayed.queued_phase_is_contention_free();
            assert_eq!(eligible, phase == "contention-free", "{what}: classifier");
            replayed.replay_queued_analytic(eligible);
            if eligible {
                assert_eq!(
                    replayed.stats().per_link,
                    want.per_link,
                    "{what}: replay vs legacy"
                );
            }
            assert_delivered_payloads(&mut replayed.drain_all_delivered(), packets, width);
        }
    }
}

proptest! {
    /// The classifier never misclassifies: over random packet sets —
    /// eligible or not — whenever `queued_phase_is_contention_free`
    /// returns `true`, the analytic replay is bit-identical to a fresh
    /// cycle run of the same phase (per-link BTs, flit counts, codec
    /// lanes, delivered payloads, and the closed-form clock). Contended
    /// sets (the classifier said `false`) must still deliver every
    /// payload losslessly under the forced replay.
    #[test]
    fn classifier_verdict_implies_bit_exact_replay(
        seed in 0u64..10_000,
        packets in 1usize..7,
        codec_idx in 0usize..3,
    ) {
        let codec = [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)][codec_idx];
        let width = 128 + codec.map_or(0, CodecKind::extra_wires);
        let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = Simulator::new(config.clone());
        let mut slow = Simulator::new(config);
        let mut sent: Vec<(usize, usize, Vec<PayloadBits>)> = Vec::new();
        for tag in 0..packets {
            let src = rng.gen_range(0..16);
            let dst = rng.gen_range(0..16);
            let payload: Vec<PayloadBits> =
                (0..rng.gen_range(1..4)).map(|_| image(128, &mut rng)).collect();
            fast.inject(Packet::new(src, dst, payload.clone(), tag as u64)).unwrap();
            slow.inject(Packet::new(src, dst, payload.clone(), tag as u64)).unwrap();
            sent.push((src, dst, payload));
        }
        let eligible = fast.queued_phase_is_contention_free();
        fast.replay_queued_analytic(eligible);
        if eligible {
            slow.run_until_idle(1_000_000).unwrap();
            let (fs, ss) = (fast.stats(), slow.stats());
            prop_assert_eq!(fs.per_link, ss.per_link, "per-link BTs (seed {})", seed);
            prop_assert_eq!(fs.total_transitions, ss.total_transitions);
            prop_assert_eq!(fs.flit_hops, ss.flit_hops);
            prop_assert_eq!(fs.cycles, ss.cycles, "closed-form clock (seed {})", seed);
            prop_assert_eq!(fs.latency, ss.latency);
            let nodes = fast.config().num_nodes();
            for link in 0..nodes * Direction::ALL.len() {
                prop_assert_eq!(
                    fast.out_link_codec_lanes(link),
                    slow.out_link_codec_lanes(link),
                    "out-link {} lanes (seed {})", link, seed
                );
            }
        }
        // Either way: lossless delivery of every payload bit.
        prop_assert!(fast.is_idle());
        let delivered = fast.drain_all_delivered();
        prop_assert_eq!(delivered.len(), sent.len());
        for (tag, (src, dst, payload)) in sent.iter().enumerate() {
            let got = delivered
                .iter()
                .find(|d| d.tag == tag as u64 && d.src == *src && d.dst == *dst)
                .expect("packet delivered");
            prop_assert_eq!(got.payload_flits.len(), payload.len());
            for (sent_flit, got_flit) in payload.iter().zip(&got.payload_flits.to_payloads()) {
                prop_assert_eq!(&got_flit.resized(sent_flit.width()), sent_flit);
            }
        }
    }
}
