//! The Table I pipeline (reduced packet count): packet sampling,
//! flitization, ordering, and BT accounting on one link, for f32 and fx8
//! random-LeNet kernel packets, in two shapes:
//!
//! * `<fmt>_random_500pkts` — `compare_streams`: per-packet ordering,
//!   consecutive flits;
//! * `windowed_<fmt>_random_500pkts` — `compare_windowed` with
//!   `WindowConfig::table1()` and 4 × packets random flit pairs (the
//!   Table I measurement itself).
//!
//! Writes `BENCH_table1.json` (schema `btr-bench-v1`) and prints the hart
//! count. `BTR_BENCH_TABLE1_SMOKE=1` shrinks sample counts and reads the
//! JSON back to check its schema; there is no speed gate.

use btr_bits::word::DataWord;
use btr_core::stream::{compare_streams, compare_windowed, Comparison, WindowConfig};
use criterion::{black_box, BenchmarkGroup, Criterion};
use experiments::json::Json;
use experiments::workloads::{
    f32_kernel_packets, fx8_kernel_packets, lenet_random, sample_packets,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PACKETS: usize = 500;

fn main() {
    let smoke = std::env::var("BTR_BENCH_TABLE1_SMOKE").is_ok();
    let harts = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("table1 bench on {harts} hart(s)");
    let model = lenet_random(42);
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("table1");
    group.sample_size(if smoke { 3 } else { 10 });
    bench_format(&mut group, "f32", &f32_kernel_packets(&model, 25));
    bench_format(&mut group, "fx8", &fx8_kernel_packets(&model, 25));
    group.finish();
    if smoke {
        check_written(harts);
    }
}

/// Both stream shapes over `PACKETS` packets sampled from `pool`.
fn bench_format<W: DataWord>(group: &mut BenchmarkGroup<'_>, format: &str, pool: &[Vec<W>]) {
    group.bench_function(format!("{format}_random_{PACKETS}pkts"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let stream = sample_packets(pool, PACKETS, &mut rng);
            compare_streams(black_box(&stream), 8, 0).reduction_rate
        })
    });
    let comparison = Comparison::RandomPairs {
        pairs: 4 * PACKETS,
        seed: 1,
    };
    group.bench_function(format!("windowed_{format}_random_{PACKETS}pkts"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let stream = sample_packets(pool, PACKETS, &mut rng);
            compare_windowed(black_box(&stream), &WindowConfig::table1(), comparison, 0)
                .reduction_rate
        })
    });
}

/// Reads `BENCH_table1.json` back and checks it parses under the bench
/// schema (CI greps it for the point names).
fn check_written(harts: usize) {
    let text = std::fs::read_to_string(criterion::json_dir().join("BENCH_table1.json"))
        .expect("bench JSON written");
    let doc = Json::parse(&text).expect("bench JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(experiments::json::BENCH_SCHEMA)
    );
    println!("smoke check: BENCH_table1.json parses ({harts} hart(s))");
}
