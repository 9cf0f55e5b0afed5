//! Models, inputs, packet pools and accelerator configurations, all
//! derived deterministically from fixed model seeds and the run's
//! `--seed`.

use btr_accel::AccelConfig;
use btr_bits::word::{DataFormat, F32Word, Fx8Word};
use btr_core::stream::{compare_windowed, Comparison, StreamComparison, WindowConfig};
use btr_core::{CodecKind, CodecScope, OrderingMethod};
use btr_dnn::data::SyntheticDigits;
use btr_dnn::models::lenet;
use btr_dnn::quant::{kernel_packets, QuantizedTensor};
use btr_dnn::train::{train, TrainConfig};
use btr_dnn::{InferenceOp, Sequential, Tensor};
use btr_noc::EngineMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Seed of the trained LeNet and of the random-weight LeNet: the repo's
/// trained-weights configuration (seed 42, 4000 samples, 10 epochs).
pub const MODEL_SEED: u64 = 42;
const TRAIN_SAMPLES: usize = 4_000;
const TRAIN_EPOCHS: usize = 10;
/// Values per kernel packet of the Table I stream (a 5x5 kernel).
const KERNEL_CHUNK: usize = 25;
/// Packets per Table I stream.
pub const STREAM_PACKETS: usize = 10_000;

fn checkpoint_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join(format!(
        "lenet_s{MODEL_SEED}_n{TRAIN_SAMPLES}_e{TRAIN_EPOCHS}.bin"
    ))
}

/// Trains the LeNet checkpoint unless it is already cached. Untimed: only
/// the prepare step calls this.
pub fn ensure_trained(cache_dir: &Path) -> Result<(), String> {
    let path = checkpoint_path(cache_dir);
    if btr_dnn::checkpoint::load(&mut lenet::build(MODEL_SEED), &path).is_ok() {
        return Ok(());
    }
    eprintln!(
        "# prepare: training LeNet once into {} (untimed)",
        path.display()
    );
    let mut model = lenet::build(MODEL_SEED);
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED.wrapping_add(1));
    let train_set = digits.dataset(TRAIN_SAMPLES, &mut rng);
    let eval_set = digits.dataset(200, &mut rng);
    train(
        &mut model,
        &train_set,
        &eval_set,
        &TrainConfig {
            epochs: TRAIN_EPOCHS,
            lr: 0.05,
            batch_size: 8,
            lr_decay: 0.8,
            weight_decay: 0.05,
        },
    );
    std::fs::create_dir_all(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    btr_dnn::checkpoint::save(&model, &path).map_err(|e| e.to_string())
}

/// Loads the trained LeNet. Fails instead of training: training belongs
/// to the untimed prepare step, never to a timed set-up.
pub fn load_trained(cache_dir: &Path) -> Result<Sequential, String> {
    let path = checkpoint_path(cache_dir);
    let mut model = lenet::build(MODEL_SEED);
    btr_dnn::checkpoint::load(&mut model, &path).map_err(|e| {
        format!(
            "trained LeNet checkpoint {} unusable ({e}); training would fall inside a timed section",
            path.display()
        )
    })?;
    Ok(model)
}

/// The random-weight LeNet.
pub fn random_lenet() -> Sequential {
    lenet::build(MODEL_SEED)
}

/// A model's lowered ops with a `'static` lifetime, so long-lived
/// sessions can borrow them. Each call leaks one small op list.
pub fn static_ops(model: &Sequential) -> &'static [InferenceOp] {
    Box::leak(model.inference_ops().into_boxed_slice())
}

/// `count` synthetic digit images drawn from `seed`.
pub fn digits(seed: u64, count: usize) -> Vec<Tensor> {
    let generator = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_d161_75ab_cdef);
    (0..count)
        .map(|_| {
            let class = rng.gen_range(0..10usize);
            generator.sample(class, &mut rng).input
        })
        .collect()
}

/// One accelerator configuration of the benchmark. Every config pins the
/// encode stage inline, so each workload runs on exactly one thread.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub format: DataFormat,
    pub ordering: OrderingMethod,
    pub mesh: (usize, usize, usize),
    pub codec: CodecKind,
    pub scope: CodecScope,
    pub engine: EngineMode,
    pub batch: usize,
}

impl Cell {
    pub fn config(&self) -> AccelConfig {
        let (w, h, mc) = self.mesh;
        let mut config = AccelConfig::paper(w, h, mc, self.format, self.ordering)
            .with_codec(self.codec)
            .with_codec_scope(self.scope);
        config.engine = self.engine;
        config.batch_size = self.batch;
        config.encode_inline = true;
        config
    }

    pub fn with_ordering(self, ordering: OrderingMethod) -> Self {
        Self { ordering, ..self }
    }

    pub fn with_engine(self, engine: EngineMode) -> Self {
        Self { engine, ..self }
    }

    pub fn label(&self) -> String {
        let (w, h, mc) = self.mesh;
        format!(
            "{} {} {w}x{h} MC{mc} {} {} {} b{}",
            self.format,
            self.ordering,
            self.codec,
            self.scope,
            self.engine.label(),
            self.batch
        )
    }
}

/// Kernel packets of one Table I configuration.
pub enum Packets {
    F32(Vec<Vec<F32Word>>),
    Fx8(Vec<Vec<Fx8Word>>),
}

/// Float-32 kernel packets of a model's conv/linear weights.
fn f32_pool(ops: &[InferenceOp]) -> Vec<Vec<F32Word>> {
    kernel_packets(ops, KERNEL_CHUNK)
        .into_iter()
        .map(|p| p.into_iter().map(F32Word::new).collect())
        .collect()
}

/// Fixed-8 kernel packets, each weight tensor quantized with its own
/// max-abs scale (Table I's per-tensor scheme).
fn fx8_pool(ops: &[InferenceOp]) -> Result<Vec<Vec<Fx8Word>>, String> {
    let mut packets = Vec::new();
    for op in ops {
        let (InferenceOp::Conv { weight, .. } | InferenceOp::Linear { weight, .. }) = op else {
            continue;
        };
        let q = QuantizedTensor::quantize(weight, 8).map_err(|e| e.to_string())?;
        let chunk = match op {
            InferenceOp::Conv { .. } => weight.shape()[2] * weight.shape()[3],
            _ => KERNEL_CHUNK,
        };
        let row = weight.shape()[1..].iter().product::<usize>();
        for kernel_row in q.codes.chunks(row) {
            packets.extend(kernel_row.chunks(chunk).map(<[Fx8Word]>::to_vec));
        }
    }
    Ok(packets)
}

fn sample<W: Clone>(pool: &[Vec<W>], rng: &mut StdRng) -> Vec<Vec<W>> {
    (0..STREAM_PACKETS)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

/// The four Table I streams — float-32 random, fixed-8 random, float-32
/// trained, fixed-8 trained — sampled in the order the repo's Table I
/// binary samples them.
pub fn table1_streams(
    random: &Sequential,
    trained: &Sequential,
    seed: u64,
) -> Result<Vec<Packets>, String> {
    let (r, t) = (random.inference_ops(), trained.inference_ops());
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(vec![
        Packets::F32(sample(&f32_pool(&r), &mut rng)),
        Packets::Fx8(sample(&fx8_pool(&r)?, &mut rng)),
        Packets::F32(sample(&f32_pool(&t), &mut rng)),
        Packets::Fx8(sample(&fx8_pool(&t)?, &mut rng)),
    ])
}

/// Labels and the paper's reported reductions (Table I) of the streams
/// [`table1_streams`] returns, in the same order.
pub const TABLE1_ROWS: [(&str, f64); 4] = [
    ("f32 random", 20.38),
    ("fx8 random", 27.70),
    ("f32 trained", 18.92),
    ("fx8 trained", 55.71),
];

/// Table I's comparison: `4 × packets` random flit pairs, seeded.
pub fn table1_comparison(packets: &Packets, seed: u64) -> Comparison {
    let len = match packets {
        Packets::F32(p) => p.len(),
        Packets::Fx8(p) => p.len(),
    };
    Comparison::RandomPairs {
        pairs: len * 4,
        seed,
    }
}

/// One Table I row: baseline vs ordered stream over the same pairs.
pub fn compare(packets: &Packets, seed: u64) -> StreamComparison {
    let config = WindowConfig::table1();
    let comparison = table1_comparison(packets, seed);
    match packets {
        Packets::F32(p) => compare_windowed(p, &config, comparison, 0),
        Packets::Fx8(p) => compare_windowed(p, &config, comparison, 0),
    }
}
