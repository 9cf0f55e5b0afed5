//! Throughput of the encode front-end (`order → flitize → codec`),
//! measured at two levels:
//!
//! 1. **`ordering_kernel`** — the descending-order permutation alone:
//!    the counting-sort kernel (`descending_order_into`) against the
//!    preserved comparison sort (`descending_order_comparison_into`) on
//!    identical word sets, both tie rules. This isolates the O(n log n)
//!    → O(n) half of the tentpole.
//!
//! 2. **`encode`** — the per-task encode stage in the driver's shape:
//!    one layer of kernel groups (weights/bias fixed, activations vary
//!    per task), every task encoded through three paths over the *same*
//!    operands:
//!    - `reference_*` — `encode_task_reference`: eager slot-level
//!      materialization with a full per-task weight sort (the
//!      `DriverMode::Synchronous` oracle);
//!    - `cached_*` — `encode_parts_cached` with the per-group weight
//!      permutation precomputed (the pre-template hot path: weights are
//!      sorted once per layer but still re-rendered into flit images on
//!      every task);
//!    - `template_*` — `encode_with_template` off pre-rendered weight
//!      flit templates (this PR's hot path: clone the static weight
//!      half, OR-deal only the activation lanes).
//!
//!    Group setup (weight sorting, template rendering, task operand
//!    materialization) runs in `iter_batched` *setup*, so the timed
//!    region holds per-task encode work only — the quantity the driver's
//!    encode stage pays per task of every request.
//!
//! Writes `BENCH_encode.json` / `BENCH_ordering_kernel.json` (schema
//! `btr-bench-v1`) like every bench group, then reads them back to
//! print per-task costs and speedups.
//!
//! `BTR_BENCH_ENCODE_SMOKE=1` shrinks sample counts and **asserts** the
//! fast paths' reason to exist: the template path must beat the
//! sorted-baseline (`cached_*`) on every measured point and beat the
//! pre-template paths ≥3x on the affiliated point, and the counting
//! sort must not lose to the comparison sort. The gates use `min_ns`
//! (the least-interrupted sample) with deliberately conservative
//! margins — this container's wall clock drifts by tens of percent
//! under co-tenancy, which swamps mean-based ratios.

use btr_bits::word::Fx8Word;
use btr_core::codec::{CodecKind, CodecScope};
use btr_core::edc::EdcKind;
use btr_core::flitize::EncodeTemplate;
use btr_core::ordering::{OrderingMethod, SortScratch, TieBreak};
use btr_core::task::NeuronTask;
use btr_core::transport::{CodedTransport, TransportConfig, TransportScratch};
use criterion::{black_box, BatchSize, Criterion};
use experiments::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One layer's worth of encode work in the driver's shape: `GROUPS`
/// kernel groups (LeNet conv2-ish fan-in), tasks dealt round-robin over
/// the groups like the driver's MC assignment.
const GROUPS: usize = 16;
const FAN_IN: usize = 150;
const TASKS: usize = 512;
const VPF: usize = 8;

struct LayerFixture {
    session: CodedTransport,
    /// Per-group weights and bias (request-independent).
    kernels: Vec<Vec<Fx8Word>>,
    biases: Vec<Fx8Word>,
    /// Per-task activations (fresh per request).
    activations: Vec<Vec<Fx8Word>>,
    /// Setup products the driver caches per session.
    wperms: Vec<Vec<usize>>,
    templates: Vec<EncodeTemplate>,
    /// Prebuilt tasks for the reference path (its slot materialization
    /// is part of the timed oracle, but operand assembly is not).
    tasks: Vec<NeuronTask<Fx8Word>>,
}

impl LayerFixture {
    fn new(ordering: OrderingMethod, tiebreak: TieBreak, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = CodedTransport::new(TransportConfig {
            ordering,
            tiebreak,
            values_per_flit: VPF,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            edc: EdcKind::None,
        });
        let kernels: Vec<Vec<Fx8Word>> = (0..GROUPS)
            .map(|_| (0..FAN_IN).map(|_| Fx8Word::new(rng.gen())).collect())
            .collect();
        let biases: Vec<Fx8Word> = (0..GROUPS).map(|_| Fx8Word::new(rng.gen())).collect();
        let activations: Vec<Vec<Fx8Word>> = (0..TASKS)
            .map(|_| (0..FAN_IN).map(|_| Fx8Word::new(rng.gen())).collect())
            .collect();
        let mut scratch = TransportScratch::default();
        let wperms: Vec<Vec<usize>> = kernels
            .iter()
            .map(|k| tiebreak.descending_order(k))
            .collect();
        let templates: Vec<EncodeTemplate> = kernels
            .iter()
            .zip(&biases)
            .zip(&wperms)
            .map(|((k, &b), p)| {
                let wperm = (ordering != OrderingMethod::Baseline).then_some(p.as_slice());
                session
                    .weight_template(k, b, wperm, &mut scratch)
                    .expect("template geometry")
            })
            .collect();
        let tasks: Vec<NeuronTask<Fx8Word>> = activations
            .iter()
            .enumerate()
            .map(|(j, inputs)| {
                NeuronTask::new(
                    inputs.clone(),
                    kernels[j % GROUPS].clone(),
                    biases[j % GROUPS],
                )
                .expect("task geometry")
            })
            .collect();
        Self {
            session,
            kernels,
            biases,
            activations,
            wperms,
            templates,
            tasks,
        }
    }

    /// Sanity anchor for every timed pass: total payload flits produced.
    fn encode_all(&self, path: EncodePath, scratch: &mut TransportScratch) -> usize {
        let mut flits = 0;
        for (j, inputs) in self.activations.iter().enumerate() {
            let g = j % GROUPS;
            let enc = match path {
                EncodePath::Reference => self
                    .session
                    .encode_task_reference(&self.tasks[j])
                    .expect("reference encode"),
                EncodePath::Cached => self
                    .session
                    .encode_parts_cached(
                        inputs,
                        &self.kernels[g],
                        self.biases[g],
                        Some(&self.wperms[g]),
                        scratch,
                    )
                    .expect("cached encode"),
                EncodePath::Template => self
                    .session
                    .encode_with_template(&self.templates[g], inputs, scratch)
                    .expect("template encode"),
            };
            flits += enc.into_wire_flits().len();
        }
        flits
    }
}

#[derive(Clone, Copy)]
enum EncodePath {
    Reference,
    Cached,
    Template,
}

impl EncodePath {
    const ALL: [(EncodePath, &'static str); 3] = [
        (EncodePath::Reference, "reference"),
        (EncodePath::Cached, "cached"),
        (EncodePath::Template, "template"),
    ];
}

fn main() {
    let smoke = std::env::var("BTR_BENCH_ENCODE_SMOKE").is_ok();
    let seed = 42u64;

    let mut criterion = Criterion::default();

    // Counting-sort kernel vs the preserved comparison sort, both tie
    // rules, on a conv-fan-in-sized and a large word set.
    let mut rng = StdRng::seed_from_u64(seed);
    let small: Vec<Fx8Word> = (0..FAN_IN).map(|_| Fx8Word::new(rng.gen())).collect();
    let large: Vec<Fx8Word> = (0..4096).map(|_| Fx8Word::new(rng.gen())).collect();
    let mut group = criterion.benchmark_group("ordering_kernel");
    group.sample_size(if smoke { 10 } else { 30 });
    for (shape, values) in [("n150", &small), ("n4096", &large)] {
        for tiebreak in [TieBreak::Stable, TieBreak::Value] {
            let tie = format!("{tiebreak:?}").to_lowercase();
            group.bench_function(format!("counting_{tie}_{shape}"), |b| {
                b.iter_batched(
                    || (SortScratch::default(), Vec::new()),
                    |(mut scratch, mut out)| {
                        tiebreak.descending_order_into(black_box(values), &mut scratch, &mut out);
                        out
                    },
                    BatchSize::LargeInput,
                )
            });
            group.bench_function(format!("comparison_{tie}_{shape}"), |b| {
                b.iter_batched(
                    || (SortScratch::default(), Vec::new()),
                    |(mut scratch, mut out)| {
                        tiebreak.descending_order_comparison_into(
                            black_box(values),
                            &mut scratch,
                            &mut out,
                        );
                        out
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();

    // The encode stage in the driver's two ordered configurations:
    // affiliated/stable (O1 — no per-task sort at all on the template
    // path) and separated/value (O2 — the activations still counting-sort
    // per task and the pair index rides the side channel).
    let affiliated = LayerFixture::new(OrderingMethod::Affiliated, TieBreak::Stable, seed);
    let separated = LayerFixture::new(OrderingMethod::Separated, TieBreak::Value, seed);
    let mut group = criterion.benchmark_group("encode");
    group.sample_size(if smoke { 10 } else { 20 });
    for (config, fixture) in [("affiliated", &affiliated), ("separated", &separated)] {
        let expect = fixture.encode_all(EncodePath::Reference, &mut TransportScratch::default());
        for (path, label) in EncodePath::ALL {
            assert_eq!(
                fixture.encode_all(path, &mut TransportScratch::default()),
                expect,
                "{config} {label}: every path emits the same wire flits"
            );
            group.bench_function(format!("{label}_{config}"), |b| {
                b.iter_batched(
                    TransportScratch::default,
                    |mut scratch| fixture.encode_all(black_box(path), &mut scratch),
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();

    report(smoke);
}

/// Reads one `BENCH_<group>.json` back (exercising the round-trip CI
/// relies on) and returns a metric lookup over its results.
fn bench_metrics(group: &str) -> impl Fn(&str, &str) -> f64 {
    let path = criterion::json_dir().join(format!("BENCH_{group}.json"));
    let text = std::fs::read_to_string(&path).expect("bench JSON written");
    let doc = Json::parse(&text).expect("bench JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(experiments::json::BENCH_SCHEMA),
        "unexpected bench schema"
    );
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("bench JSON has no results array: {other:?}"),
    };
    move |name: &str, field: &str| -> f64 {
        let entry = results
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no bench entry {name:?}"));
        match entry.get(field) {
            Some(Json::F64(v)) => *v,
            Some(Json::U64(v)) => *v as f64,
            other => panic!("{name}.{field} is not a number: {other:?}"),
        }
    }
}

/// Prints per-task costs and speedups, and in smoke mode asserts the
/// fast-path gates.
fn report(smoke: bool) {
    let kernel = bench_metrics("ordering_kernel");
    println!("\nordering kernel (permutation only, min over samples):");
    for shape in ["n150", "n4096"] {
        for tie in ["stable", "value"] {
            let c = kernel(&format!("counting_{tie}_{shape}"), "min_ns");
            let cmp = kernel(&format!("comparison_{tie}_{shape}"), "min_ns");
            println!(
                "  {tie:<7} {shape:<6} counting {c:>9.0} ns, comparison {cmp:>9.0} ns -> {:>5.2}x",
                cmp / c
            );
        }
    }

    let encode = bench_metrics("encode");
    println!("encode stage ({TASKS} tasks x {FAN_IN} operands, min over samples):");
    let per_task = |name: &str| encode(name, "min_ns") / TASKS as f64;
    for config in ["affiliated", "separated"] {
        let r = per_task(&format!("reference_{config}"));
        let c = per_task(&format!("cached_{config}"));
        let t = per_task(&format!("template_{config}"));
        println!(
            "  {config:<11} reference {r:>8.0} ns/task, cached {c:>8.0} ns/task, \
             template {t:>8.0} ns/task -> {:.2}x vs cached, {:.2}x vs reference",
            c / t,
            r / t
        );
    }

    if smoke {
        // The tentpole's claim lives at the per-task encode: dealing
        // activations into a pre-rendered weight image must clearly beat
        // re-rendering the whole image (cached) and the full re-sorting
        // oracle (reference). The affiliated point carries the ≥3x gate —
        // it is the pure template win (no per-task sort left); the
        // separated point still pays the per-task activation sort on
        // both sides, so its gate is "must win", not a fixed multiple.
        for config in ["affiliated", "separated"] {
            let cached = encode(&format!("cached_{config}"), "min_ns");
            let template = encode(&format!("template_{config}"), "min_ns");
            assert!(
                template < cached,
                "{config}: template path lost to the sorted baseline \
                 ({template} ns vs {cached} ns)"
            );
        }
        let reference = encode("reference_affiliated", "min_ns");
        let cached = encode("cached_affiliated", "min_ns");
        let template = encode("template_affiliated", "min_ns");
        assert!(
            template * 3.0 <= cached && template * 3.0 <= reference,
            "affiliated encode kernel under 3x the pre-template paths \
             (template {template} ns, cached {cached} ns, reference {reference} ns)"
        );
        println!(
            "smoke check: affiliated encode kernel {:.1}x vs cached, {:.1}x vs reference",
            cached / template,
            reference / template
        );
        let counting = kernel("counting_value_n4096", "min_ns");
        let comparison = kernel("comparison_value_n4096", "min_ns");
        assert!(
            counting <= comparison * 1.10,
            "counting sort lost to the comparison sort on n4096/value \
             ({counting} ns vs {comparison} ns)"
        );
    }
}
