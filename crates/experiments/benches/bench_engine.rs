//! Throughput of the analytic stream engine against the cycle-accurate
//! NoC, measured at two levels:
//!
//! 1. **`engine`** — full sweep cells: the smoke-preset grid (LeNet
//!    fixed-8, 4×4 MC2, O0/O2 × every codec) run once per `EngineMode`,
//!    one bench iteration = one full grid pass. `cells/sec` is the sweep
//!    runner's unit of progress, so the ratio between the modes is the
//!    wall-clock win the analytic fast path buys a grid sweep
//!    end-to-end. A sweep cell also pays for encode/flitize/codec,
//!    PE MACs and output assembly — work both engines share — so the
//!    end-to-end ratio is Amdahl-bound well below the engine-phase
//!    ratio (EXPERIMENTS.md tabulates the composition).
//!
//! 2. **`engine_kernel`** — the engine phase alone: an identical
//!    smoke-shaped packet set (2 MCs round-robin over the 14 PEs,
//!    conv-task-sized payloads on 128-bit links) pushed through
//!    per-cycle mesh stepping vs `replay_queued_analytic`. Same
//!    traffic, same per-link accounting — the only difference is
//!    routers/VC allocation/credit stepping vs straight XOR+popcount
//!    stream passes. This isolates the speedup the tentpole claims.
//!
//! Writes `BENCH_engine.json` / `BENCH_engine_kernel.json` (schema
//! `btr-bench-v1`) like every bench group, then reads them back to
//! print per-cell cost, cells/sec and engine-phase speedup.
//!
//! `BTR_BENCH_ENGINE_SMOKE=1` switches to random weights (no training)
//! and few samples per point, and **asserts** the fast path's reason to
//! exist: the analytic replay must push the same packets at least 5x
//! faster than cycle stepping, and a forced-analytic grid pass must
//! beat the cycle grid pass end-to-end (gated on paired back-to-back
//! passes — separately timed windows drift too much on a shared box).
//! `auto` is reported but not gated — on real layer traffic it proves
//! few phases eligible and rides the cycle engine (its win is safety,
//! not speed).

use btr_bits::payload::PayloadBits;
use btr_bits::word::DataFormat;
use btr_core::codec::{CodecKind, CodecScope, ResyncPolicy};
use btr_core::edc::EdcKind;
use btr_core::ordering::{OrderingMethod, TieBreak};
use btr_dnn::data::SyntheticDigits;
use btr_dnn::tensor::Tensor;
use btr_noc::config::NocConfig;
use btr_noc::fault::{BitErrorRate, FaultMode};
use btr_noc::packet::Packet;
use btr_noc::sim::{DeliveredPacket, Simulator};
use btr_noc::stats::LinkSlab;
use btr_noc::EngineMode;
use criterion::{black_box, BatchSize, Criterion};
use experiments::sweep::{expand_grid, run_cells, MeshSpec, SweepCell, Workload};
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The smoke-preset grid restricted to one engine mode.
fn engine_grid(engine: EngineMode) -> Vec<SweepCell> {
    expand_grid(
        1,
        &[MeshSpec {
            width: 4,
            height: 4,
            mc_count: 2,
        }],
        &[DataFormat::Fixed8],
        &[OrderingMethod::Baseline, OrderingMethod::Separated],
        &[TieBreak::Stable],
        &[false],
        &CodecKind::ALL,
        &[CodecScope::PerPacket],
        &[1],
        &[engine],
        &[BitErrorRate::default()],
        &[EdcKind::None],
        &[ResyncPolicy::ReseedOnRetry],
        &[FaultMode::PerFlit],
    )
}

/// Packets shaped like MC→PE traffic on the smoke mesh: every MC of
/// the 4×4 MC2 mesh streams `flits_per_packet` 128-bit payload flits
/// round-robin over the PEs, random payload images. Four flits is the
/// smoke grid's conv-task shape; 32 flits is the weight-stream shape
/// (long batch-boundary transfers, the analytic engine's home turf).
fn kernel_traffic(
    config: &NocConfig,
    packets: usize,
    flits_per_packet: usize,
    seed: u64,
) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pes = config.pe_nodes();
    let mcs = &config.mc_nodes;
    (0..packets)
        .map(|j| {
            let src = mcs[j % mcs.len()];
            let dst = pes[(j / mcs.len()) % pes.len()];
            let flits = (0..flits_per_packet)
                .map(|_| {
                    let mut image = PayloadBits::zero(config.link_width_bits);
                    let mut off = 0;
                    while off < config.link_width_bits {
                        let len = 64.min(config.link_width_bits - off);
                        image.set_field(off, len, rng.gen());
                        off += len;
                    }
                    image
                })
                .collect();
            Packet::new(src, dst, flits, j as u64)
        })
        .collect()
}

/// Payload-flit runs in the two kernel shapes, as one `Vec` of flit
/// images per packet: the inputs `LinkSlab::observe_payload` walks flit
/// by flit and `LinkSlab::observe_payload_run` consumes in one pass.
fn lane_runs(
    data_width: u32,
    packets: usize,
    flits_per_packet: usize,
    seed: u64,
) -> Vec<Vec<PayloadBits>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..packets)
        .map(|_| {
            (0..flits_per_packet)
                .map(|_| {
                    let mut image = PayloadBits::zero(data_width);
                    let mut off = 0;
                    while off < data_width {
                        let len = 64.min(data_width - off);
                        image.set_field(off, len, rng.gen());
                        off += len;
                    }
                    image
                })
                .collect()
        })
        .collect()
}

/// The per-flit walk: every payload flit steps the persistent tx lane,
/// advances the mirrored rx lane and charges the accumulator one flit
/// at a time — the path contended per-link phases still pay.
fn lane_perflit(mut slab: LinkSlab, runs: &[Vec<PayloadBits>]) -> u64 {
    for run in runs {
        for flit in run {
            black_box(slab.observe_payload(0, flit));
        }
    }
    slab.transitions(0)
}

/// The bulk lane kernel: each packet's whole flit run advances the lane
/// and the accumulator in one XOR+popcount pass.
fn lane_bulk(mut slab: LinkSlab, runs: &[Vec<PayloadBits>]) -> u64 {
    for run in runs {
        slab.observe_payload_run(0, run.iter());
    }
    slab.transitions(0)
}

/// Builds a fresh simulator with the whole packet set queued at its
/// NIs. Runs as `iter_batched` *setup*: simulator construction,
/// traffic cloning and injection queueing are identical under either
/// engine, so the timed region holds engine work only.
fn primed_sim(config: &NocConfig, packets: &[Packet]) -> (Simulator, usize) {
    let mut sim = Simulator::new(config.clone());
    for p in packets {
        sim.inject(p.clone()).expect("kernel packet injects");
    }
    (sim, packets.len())
}

/// Pushes the queued packets through per-cycle mesh stepping until
/// every packet delivers; returns total transitions (sanity +
/// `black_box`).
fn kernel_cycle(mut sim: Simulator, expected: usize) -> u64 {
    let mut buf: Vec<DeliveredPacket> = Vec::new();
    let mut delivered = 0;
    while delivered < expected {
        sim.step();
        sim.drain_all_delivered_into(&mut buf);
        delivered += buf.len();
        assert!(sim.cycle() < 10_000_000, "kernel traffic stalled");
    }
    sim.stats().total_transitions
}

/// Pushes the same queued packets through the analytic stream replay
/// (forced mode: serialized per-source FIFO streams).
fn kernel_analytic(mut sim: Simulator, expected: usize) -> u64 {
    sim.replay_queued_analytic(false);
    let mut buf: Vec<DeliveredPacket> = Vec::new();
    sim.drain_all_delivered_into(&mut buf);
    assert_eq!(buf.len(), expected, "every kernel packet delivers");
    sim.stats().total_transitions
}

fn main() {
    let smoke = std::env::var("BTR_BENCH_ENGINE_SMOKE").is_ok();
    let source = if smoke {
        WeightSource::Random
    } else {
        WeightSource::Trained
    };
    let seed = 42u64;
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let workloads = vec![Workload {
        name: "lenet".into(),
        ops: lenet(source, seed).inference_ops(),
        inputs: (0..4)
            .map(|i| digits.sample((7 + i) % 10, &mut rng).input)
            .collect::<Vec<Tensor>>(),
    }];
    let cells_per_grid = engine_grid(EngineMode::Cycle).len();

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("engine");
    group.sample_size(if smoke { 4 } else { 5 });
    for engine in EngineMode::ALL {
        let cells = engine_grid(engine);
        assert_eq!(cells.len(), cells_per_grid);
        group.bench_function(engine.label(), |b| {
            b.iter(|| {
                let outcomes = run_cells(black_box(&workloads), cells.clone(), true);
                for outcome in &outcomes {
                    assert!(
                        outcome.transitions > 0,
                        "{} cell failed: {outcome:?}",
                        engine.label()
                    );
                }
                outcomes.len()
            })
        });
    }
    group.finish();

    // Engine-phase kernel: identical traffic through both engines, in
    // the smoke grid's task shape and the weight-stream shape.
    let noc = NocConfig::paper_mesh(4, 4, 2, 128);
    let task_traffic = kernel_traffic(&noc, 1024, 4, seed);
    let stream_traffic = kernel_traffic(&noc, 256, 32, seed);
    let mut group = criterion.benchmark_group("engine_kernel");
    group.sample_size(if smoke { 3 } else { 10 });
    for (shape, traffic) in [("task", &task_traffic), ("stream", &stream_traffic)] {
        group.bench_function(format!("cycle_{shape}"), |b| {
            b.iter_batched(
                || primed_sim(&noc, traffic),
                |(sim, n)| kernel_cycle(black_box(sim), n),
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("analytic_{shape}"), |b| {
            b.iter_batched(
                || primed_sim(&noc, traffic),
                |(sim, n)| kernel_analytic(black_box(sim), n),
                BatchSize::LargeInput,
            )
        });
    }
    // Per-link codec scope on the same stream traffic: the configuration
    // that could not replay at all before the bulk lane kernels (the
    // replay refused persistent lanes and fell back to cycle stepping).
    let coded = NocConfig::paper_mesh(4, 4, 2, 128).with_link_codec(Some(CodecKind::DeltaXor));
    let coded_traffic = kernel_traffic(&coded, 256, 32, seed);
    group.bench_function("cycle_perlink_stream", |b| {
        b.iter_batched(
            || primed_sim(&coded, &coded_traffic),
            |(sim, n)| kernel_cycle(black_box(sim), n),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("analytic_perlink_stream", |b| {
        b.iter_batched(
            || primed_sim(&coded, &coded_traffic),
            |(sim, n)| kernel_analytic(black_box(sim), n),
            BatchSize::LargeInput,
        )
    });
    group.finish();

    // Codec-lane kernel: the per-flit walk vs the bulk run kernel over
    // one persistent per-link lane, both codecs, both shapes — the
    // narrowest isolation of what the run kernels buy.
    let mut group = criterion.benchmark_group("lane_kernel");
    group.sample_size(if smoke { 3 } else { 10 });
    for (codec_name, codec) in [
        ("businvert", CodecKind::BusInvert),
        ("deltaxor", CodecKind::DeltaXor),
    ] {
        for (shape, packets, flits) in [("task", 1024, 4), ("stream", 256, 32)] {
            let runs = lane_runs(128, packets, flits, seed);
            let slab_width = 128 + codec.extra_wires();
            group.bench_function(format!("perflit_{codec_name}_{shape}"), |b| {
                b.iter_batched(
                    || LinkSlab::with_link_codec(slab_width, 1, codec),
                    |slab| lane_perflit(black_box(slab), &runs),
                    BatchSize::LargeInput,
                )
            });
            group.bench_function(format!("bulk_{codec_name}_{shape}"), |b| {
                b.iter_batched(
                    || LinkSlab::with_link_codec(slab_width, 1, codec),
                    |slab| lane_bulk(black_box(slab), &runs),
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();

    report(smoke, cells_per_grid);

    if smoke {
        // End-to-end gate. Sweep cells also pay the engine-independent
        // transport pipeline (encode/codec/MAC/assembly), so the grid
        // ratio is Amdahl-bound far below the kernel ratio — but the
        // analytic grid pass must still clearly win, or the integration
        // ate the engine's gain. This box's wall clock drifts by tens
        // of percent over seconds, which swamps two separately timed
        // bench windows; measure *paired* back-to-back passes and gate
        // the median pair ratio instead.
        let mut ratios: Vec<f64> = (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let c = run_cells(&workloads, engine_grid(EngineMode::Cycle), true);
                let cycle_s = start.elapsed().as_secs_f64();
                let start = std::time::Instant::now();
                let a = run_cells(&workloads, engine_grid(EngineMode::Analytic), true);
                let analytic_s = start.elapsed().as_secs_f64();
                assert!(c.iter().chain(&a).all(|o| o.transitions > 0));
                cycle_s / analytic_s
            })
            .collect();
        ratios.sort_by(|x, y| x.partial_cmp(y).expect("finite ratio"));
        let median = ratios[ratios.len() / 2];
        println!(
            "paired grid passes, cycle/analytic: {} -> median {median:.2}x",
            ratios
                .iter()
                .map(|r| format!("{r:.2}x"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        assert!(
            median >= 1.15,
            "analytic grid pass not clearly faster end-to-end \
             (median paired ratio {median:.2}x)"
        );
    }
}

/// Reads one `BENCH_<group>.json` back (exercising the round-trip CI
/// relies on) and returns a metric lookup over its results.
fn bench_metrics(group: &str) -> impl Fn(&str, &str) -> f64 {
    experiments::json::bench_metrics(&criterion::json_dir().join(format!("BENCH_{group}.json")))
}

/// Prints cells/sec per engine plus the engine-phase kernel speedup,
/// and in smoke mode asserts the analytic gates.
fn report(smoke: bool, cells_per_grid: usize) {
    let grid = bench_metrics("engine");
    println!("\nsweep throughput ({cells_per_grid} cells per grid pass):");
    for engine in EngineMode::ALL {
        let ns = grid(engine.label(), "mean_ns");
        println!(
            "  {:<9} {:>9.2} ms/cell  ({:>8.2} cells/sec)",
            engine.label(),
            ns / cells_per_grid as f64 / 1e6,
            cells_per_grid as f64 * 1e9 / ns
        );
    }
    let grid_cycle = grid("cycle", "min_ns");
    println!("sweep speedup vs cycle (min over samples):");
    for engine in EngineMode::ALL {
        println!(
            "  {:<9} {:>5.2}x",
            engine.label(),
            grid_cycle / grid(engine.label(), "min_ns")
        );
    }

    let kernel = bench_metrics("engine_kernel");
    println!("engine-phase kernel (same packets, engine work only):");
    for shape in ["task", "stream", "perlink_stream"] {
        let c = kernel(&format!("cycle_{shape}"), "min_ns");
        let a = kernel(&format!("analytic_{shape}"), "min_ns");
        println!(
            "  {shape:<14} cycle {:>7.3} ms, analytic {:>7.3} ms -> {:>5.1}x",
            c / 1e6,
            a / 1e6,
            c / a
        );
    }

    let lane = bench_metrics("lane_kernel");
    println!("codec-lane kernel (per-flit walk vs bulk run, one per-link lane):");
    for codec in ["businvert", "deltaxor"] {
        for shape in ["task", "stream"] {
            let walk = lane(&format!("perflit_{codec}_{shape}"), "min_ns");
            let bulk = lane(&format!("bulk_{codec}_{shape}"), "min_ns");
            println!(
                "  {codec:<9} {shape:<7} walk {:>7.3} ms, bulk {:>7.3} ms -> {:>5.1}x",
                walk / 1e6,
                bulk / 1e6,
                walk / bulk
            );
        }
    }

    if smoke {
        // The tentpole's claim lives at the engine phase: replaying the
        // very same packets must beat router/VC/credit stepping by 5x
        // (on streaming transfers, where per-packet setup amortizes) or
        // the fast path stopped being one.
        let stream_cycle = kernel("cycle_stream", "min_ns");
        let stream_analytic = kernel("analytic_stream", "min_ns");
        assert!(
            stream_analytic * 5.0 <= stream_cycle,
            "analytic replay under 5x cycle stepping on identical traffic: \
             {stream_analytic} ns vs {stream_cycle} ns"
        );
        println!(
            "smoke check: engine kernel {:.1}x on streams",
            stream_cycle / stream_analytic
        );
        // Bulk codec-lane kernel gates: never slower than the per-flit
        // walk it replaces, and ≥3x where it matters most — long
        // weight-stream runs, where per-flit wire materialization,
        // mirrored-lane advance and accumulator bookkeeping dominate.
        for codec in ["businvert", "deltaxor"] {
            for shape in ["task", "stream"] {
                let walk = lane(&format!("perflit_{codec}_{shape}"), "min_ns");
                let bulk = lane(&format!("bulk_{codec}_{shape}"), "min_ns");
                assert!(
                    bulk <= walk,
                    "bulk lane kernel slower than the per-flit walk \
                     ({codec} {shape}: {bulk} ns vs {walk} ns)"
                );
                if shape == "stream" {
                    assert!(
                        bulk * 3.0 <= walk,
                        "bulk lane kernel under 3x on stream runs \
                         ({codec}: {bulk} ns vs {walk} ns)"
                    );
                }
            }
        }
        println!("smoke check: bulk lane kernel >= per-flit walk on every point, >= 3x on streams");
    }
}
