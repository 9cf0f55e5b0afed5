//! NoC simulator throughput: uniform-random traffic drained to idle.
//!
//! Benchmarks the flat-array engine against the legacy map/deque
//! reference on identical seeded workloads, so the `BENCH_noc.json`
//! trajectory (written by the bench harness, see EXPERIMENTS.md) tracks
//! both absolute cycles/sec and the flat-vs-legacy speedup across
//! commits. Prints the host's hart count first.
//!
//! `BTR_BENCH_NOC_SMOKE=1` takes three samples per point, reads
//! `BENCH_noc.json` back and **asserts** the flat engine beats the
//! legacy one by at least [`SMOKE_MIN_SPEEDUP`] on both meshes (min
//! times). Both engines run on one thread, so the gate assumes no hart
//! count.

use btr_noc::config::NocConfig;
use btr_noc::legacy::LegacySimulator;
use btr_noc::sim::Simulator;
use btr_noc::traffic::{generate, Pattern};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The smoke gate's legacy/flat floor. Over 20 smoke runs on a 2-hart
/// host the ratio measured 4.4x-7.3x on 4x4 (median 5.8x) and
/// 6.4x-10.1x on 8x8 (median 7.3x), so a 2.5x floor leaves room for
/// host noise yet still fails if the flat engine loses most of its lead.
const SMOKE_MIN_SPEEDUP: f64 = 2.5;

const MESHES: [(usize, usize); 2] = [(4, 4), (8, 8)];

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("BTR_BENCH_NOC_SMOKE").is_ok();
    let harts = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("noc bench on {harts} hart(s)");
    let mut group = c.benchmark_group("noc");
    group.sample_size(if smoke { 3 } else { 10 });
    for (w, h) in MESHES {
        group.bench_function(format!("uniform_200pkts_{w}x{h}"), |b| {
            b.iter(|| {
                let config = NocConfig::mesh(w, h, 128);
                let mut rng = StdRng::seed_from_u64(5);
                let packets = generate(&config, Pattern::UniformRandom, 200, 4, &mut rng);
                let mut sim = Simulator::new(config);
                for p in packets {
                    sim.inject(p).unwrap();
                }
                sim.run_until_idle(1_000_000).unwrap();
                sim.stats().total_transitions
            })
        });
        group.bench_function(format!("legacy_uniform_200pkts_{w}x{h}"), |b| {
            b.iter(|| {
                let config = NocConfig::mesh(w, h, 128);
                let mut rng = StdRng::seed_from_u64(5);
                let packets = generate(&config, Pattern::UniformRandom, 200, 4, &mut rng);
                let mut sim = LegacySimulator::new(config);
                for p in packets {
                    sim.inject(p).unwrap();
                }
                sim.run_until_idle(1_000_000).unwrap();
                sim.stats().total_transitions
            })
        });
    }
    group.finish();

    let metric = experiments::json::bench_metrics(&criterion::json_dir().join("BENCH_noc.json"));
    for (w, h) in MESHES {
        let flat = metric(&format!("uniform_200pkts_{w}x{h}"), "min_ns");
        let legacy = metric(&format!("legacy_uniform_200pkts_{w}x{h}"), "min_ns");
        let speedup = legacy / flat;
        println!("flat vs legacy {w}x{h}: {speedup:.2}x ({harts} hart(s))");
        if smoke {
            assert!(
                speedup >= SMOKE_MIN_SPEEDUP,
                "flat engine only {speedup:.2}x faster than legacy on {w}x{h} \
                 (gate {SMOKE_MIN_SPEEDUP}x)"
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
