//! The inference driver: runs a lowered DNN over the NoC, layer by layer.
//!
//! Conv / linear layers generate task packets (MC → PE) and response
//! packets (PE → MC); everything else executes memory-side on the
//! assembled activations. One simulator instance persists across layers so
//! link recorders accumulate the complete inference's bit transitions —
//! the quantity Figs. 12–13 report.
//!
//! # One layer path
//!
//! The data format is matched once per call; every layer then runs the
//! same code generic over [`AccelWord`], whose hooks hold the only
//! per-format differences (operand-to-word mapping and response
//! dequantization). Conv and linear layers differ only in how their
//! [`LayerTasks`] source is built and in their output shape.
//!
//! # One layer scheduler
//!
//! Each layer resolves to an engine (`LayerEngine`): a pair of a
//! request phase and a response phase, each either *stepped* through the
//! cycle engine or *replayed* analytically from the queued ordered
//! streams. `Cycle` is (Step, Step), `Hybrid` is (Replay, Step) and
//! `Analytic` is (Replay, Replay). One per-layer state, `LayerRun`, runs
//! every pair, with exactly one place each for request send accounting,
//! delivery handling (NI acceptance, then request or response decode),
//! response encode and the stall guard.
//!
//! # The encode stage
//!
//! The paper's ordering unit sits *beside* the memory controller so that
//! sorting and flitizing never stall the link (Sec. V, Fig. 14). In the
//! simulated hardware that overlap is free; in software the scheduler
//! encodes each request inline, on its own thread, when the MC's prefetch
//! buffer has room for it. [`DriverMode::Pipelined`] makes that encode
//! cheap rather than concurrent: each kernel group's weights are sorted
//! once and pre-rendered into a flit template kept for the session's
//! lifetime, so a task only deals its activation lanes (and for O2 the
//! input sort and pair index). Host parallelism is spent where the work
//! is independent — whole sweep cells and serve sessions — not on
//! per-MC encoder threads, which lost to inline encode on a 2-hart host.
//!
//! Both driver modes inject the identical packet sequence, so they are
//! bit-exact with each other — same per-link bit transitions, cycle
//! counts, recovered MACs and overhead accounting (pinned by
//! `tests/driver_parity.rs`). Batching ([`AccelConfig::batch_size`]) runs
//! N inputs through each layer as one traffic phase on the same mesh.

use crate::config::{AccelConfig, DriverMode};
use crate::report::{BatchInferenceResult, InferenceResult, LayerTrafficReport};
use crate::tasks::{ConvGeometry, LayerQuantizers, LayerTasks};
use btr_bits::word::{DataFormat, DataWord, F32Word, Fx8Word};
use btr_core::flitize::{EncodeTemplate, FlitizeError};
use btr_core::ordering::{OrderingMethod, TieBreak};
use btr_core::task::RecoveredTask;
use btr_core::transport::{
    CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportScratch,
};
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use btr_noc::analytic::{routes_contention_free, routes_link_disjoint, EngineMode};
use btr_noc::session::{SendError, TaskPort};
use btr_noc::sim::{DeliveredPacket, InjectError, Simulator};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// Errors from [`run_inference`].
#[derive(Debug)]
pub enum AccelError {
    /// Invalid configuration.
    Config(String),
    /// Flitization failed (geometry).
    Flitize(FlitizeError),
    /// Packet injection failed.
    Inject(InjectError),
    /// Wire-level decode or recovery failed at a PE.
    Decode(String),
    /// A layer did not drain within the configured cycle budget.
    Stall {
        /// Op index of the stalled layer.
        layer: usize,
        /// Cycles spent in the layer before giving up.
        cycles: u64,
    },
    /// The fixed-16 extension format is not wired into the accelerator.
    UnsupportedFormat(DataFormat),
    /// A packet kept failing its EDC check until the NI's retry budget
    /// ran out (unreliable-link model).
    Unrecoverable {
        /// Op index of the layer the packet belonged to.
        layer: usize,
        /// Retransmissions spent before giving up.
        retries: u32,
    },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::Config(msg) => write!(f, "invalid accelerator config: {msg}"),
            AccelError::Flitize(e) => write!(f, "flitization failed: {e}"),
            AccelError::Inject(e) => write!(f, "injection failed: {e}"),
            AccelError::Decode(msg) => write!(f, "receiver decode failed: {msg}"),
            AccelError::Stall { layer, cycles } => {
                write!(f, "layer {layer} stalled after {cycles} cycles")
            }
            AccelError::UnsupportedFormat(fmt) => {
                write!(f, "format {fmt} is not supported by the accelerator")
            }
            AccelError::Unrecoverable { layer, retries } => {
                write!(
                    f,
                    "layer {layer}: a packet failed its EDC check after {retries} \
                     retransmission(s); retry budget exhausted"
                )
            }
        }
    }
}

impl std::error::Error for AccelError {}

impl From<FlitizeError> for AccelError {
    fn from(e: FlitizeError) -> Self {
        AccelError::Flitize(e)
    }
}

impl From<InjectError> for AccelError {
    fn from(e: InjectError) -> Self {
        AccelError::Inject(e)
    }
}

impl From<SendError> for AccelError {
    fn from(e: SendError) -> Self {
        match e {
            SendError::Encode(e) => AccelError::Flitize(e),
            SendError::Inject(e) => AccelError::Inject(e),
        }
    }
}

/// Words the accelerator can compute on: how one layer's operands map to
/// words, and how a PE's MAC result travels back as a 32-bit response
/// image.
///
/// These hooks are the only per-format code in the driver: every layer
/// runs through one generic path over `W`.
pub trait AccelWord: DataWord {
    /// One batch element's word scales for one layer: nothing for
    /// float-32, the activation/weight/bias quantizers for fixed-8.
    type Scales: Copy;

    /// Encodes the recovered task's MAC result (32-bit field, LSB-first).
    fn response_bits(rec: &RecoveredTask<Self>) -> u64;

    /// Derives the scales of batch element `x` for a layer with these
    /// parameters. Weight and bias scales depend on the parameters alone,
    /// so every element of a batch carries the same ones.
    fn scales(x: &Tensor, weight: &Tensor, bias: &Tensor, config: &AccelConfig) -> Self::Scales;

    /// Maps an activation to a word.
    fn from_input(scales: Self::Scales, value: f32) -> Self;

    /// Maps a weight to a word.
    fn from_weight(scales: Self::Scales, value: f32) -> Self;

    /// Maps a bias to a word.
    fn from_bias(scales: Self::Scales, value: f32) -> Self;

    /// Turns a response image back into the layer's output value; `bias`
    /// is the task's bias word.
    fn output(scales: Self::Scales, bits: u64, bias: Self) -> f32;
}

impl AccelWord for F32Word {
    type Scales = ();

    fn response_bits(rec: &RecoveredTask<Self>) -> u64 {
        u64::from((rec.mac_f64() as f32).to_bits())
    }

    fn scales(_: &Tensor, _: &Tensor, _: &Tensor, _: &AccelConfig) {}

    fn from_input((): (), value: f32) -> Self {
        F32Word::new(value)
    }

    fn from_weight((): (), value: f32) -> Self {
        F32Word::new(value)
    }

    fn from_bias((): (), value: f32) -> Self {
        F32Word::new(value)
    }

    fn output((): (), bits: u64, _: Self) -> f32 {
        f32::from_bits(bits as u32)
    }
}

impl AccelWord for Fx8Word {
    type Scales = LayerQuantizers;

    fn response_bits(rec: &RecoveredTask<Self>) -> u64 {
        let mac = rec.mac_i64();
        debug_assert!(
            i64::from(mac as i32) == mac,
            "integer MAC overflowed the 32-bit response field"
        );
        u64::from(mac as i32 as u32)
    }

    fn scales(x: &Tensor, weight: &Tensor, bias: &Tensor, config: &AccelConfig) -> LayerQuantizers {
        LayerQuantizers::derive_with(x, weight, bias, config.global_fx8_weights)
    }

    fn from_input(q: LayerQuantizers, value: f32) -> Self {
        q.input.quantize_fx8(value)
    }

    fn from_weight(q: LayerQuantizers, value: f32) -> Self {
        q.weight.quantize_fx8(value)
    }

    fn from_bias(q: LayerQuantizers, value: f32) -> Self {
        q.bias.quantize_fx8(value)
    }

    /// The bias code separates the integer dot product from the bias
    /// during dequantization.
    fn output(q: LayerQuantizers, bits: u64, bias: Self) -> f32 {
        q.dequantize_response(i64::from(bits as u32 as i32), bias.code())
    }
}

/// How a session schedules MC-side encoding, resolved once from the
/// [`DriverMode`] at session construction. Both plans are bit-exact with
/// each other (`tests/driver_parity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodePlan {
    /// [`DriverMode::Synchronous`]: uncached slot-level encode and
    /// decode — the legacy-faithful reference.
    Reference,
    /// [`DriverMode::Pipelined`]: cached encode through the session's
    /// weight templates, inline in the scheduler.
    Inline,
}

impl EncodePlan {
    /// Resolves the schedule a session built from `config` will use for
    /// every inference it serves.
    #[must_use]
    pub fn resolve(config: &AccelConfig) -> Self {
        match config.driver {
            DriverMode::Synchronous => EncodePlan::Reference,
            DriverMode::Pipelined => EncodePlan::Inline,
        }
    }
}

/// A reusable inference session: one validated [`AccelConfig`] plus the
/// encode schedule resolved once at construction, serving any number of
/// [`run`](InferenceSession::run) calls over the same lowered ops.
///
/// This is the building block of the multi-session service
/// (`btr_serve`): each pool worker owns one session and answers every
/// dispatched batch through it — config validation and the encode-plan
/// resolution happen at pool construction, never on the request hot
/// path. Each `run` call simulates on a fresh mesh, so the reported stats
/// cover exactly that call's traffic.
pub struct InferenceSession<'a> {
    ops: &'a [InferenceOp],
    config: AccelConfig,
    plan: EncodePlan,
    /// One encode cache per op: the weight permutations and pre-rendered
    /// weight flit templates of each conv/linear layer's kernel groups.
    /// Weights never change within a session, so templates built lazily
    /// by the first dispatch are shared across the batch dimension and
    /// across every subsequent [`run`](InferenceSession::run) call.
    caches: Vec<LayerEncodeCache>,
}

/// Per-layer encode cache: the lazily computed descending weight order
/// and pre-rendered [`EncodeTemplate`] of every kernel group — the
/// "weight-side work happens once per session, not once per task"
/// amortization.
#[derive(Debug, Default)]
struct LayerEncodeCache {
    wperms: Vec<OnceCell<Vec<usize>>>,
    templates: Vec<OnceCell<Result<EncodeTemplate, FlitizeError>>>,
}

impl LayerEncodeCache {
    fn with_groups(groups: usize) -> Self {
        Self {
            wperms: (0..groups).map(|_| OnceCell::new()).collect(),
            templates: (0..groups).map(|_| OnceCell::new()).collect(),
        }
    }

    /// One cache per op, sized by the op's kernel-group count (conv: one
    /// group per output channel; linear: one per output neuron).
    fn for_ops(ops: &[InferenceOp]) -> Vec<LayerEncodeCache> {
        ops.iter()
            .map(|op| match op {
                InferenceOp::Conv { weight, .. } | InferenceOp::Linear { weight, .. } => {
                    LayerEncodeCache::with_groups(weight.shape()[0])
                }
                _ => LayerEncodeCache::default(),
            })
            .collect()
    }
}

impl<'a> InferenceSession<'a> {
    /// Validates `config` once and resolves the encode schedule.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Config`] when the configuration is
    /// internally inconsistent.
    pub fn new(ops: &'a [InferenceOp], config: AccelConfig) -> Result<Self, AccelError> {
        config.validate().map_err(AccelError::Config)?;
        let plan = EncodePlan::resolve(&config);
        let caches = LayerEncodeCache::for_ops(ops);
        Ok(Self {
            ops,
            config,
            plan,
            caches,
        })
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The encode schedule resolved at construction.
    #[must_use]
    pub fn plan(&self) -> EncodePlan {
        self.plan
    }

    /// Runs one dispatch of `1..=config.batch_size` inputs as a batched
    /// inference (the batching window coalesces *up to* `batch_size`
    /// requests, so a bounded-wait flush may dispatch fewer).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError`] on an empty or oversized batch, mismatched
    /// input shapes, flitization failure, a stalled layer, or a decode
    /// failure.
    pub fn run(&self, inputs: &[Tensor]) -> Result<BatchInferenceResult, AccelError> {
        if inputs.is_empty() || inputs.len() > self.config.batch_size {
            return Err(AccelError::Config(format!(
                "a session dispatch takes 1..={} inputs (got {})",
                self.config.batch_size,
                inputs.len()
            )));
        }
        run_batch_resolved(self.ops, inputs, &self.config, self.plan, &self.caches)
    }
}

/// Runs a complete single-input inference over the NoC.
///
/// Requires `config.batch_size == 1`; use [`run_inference_batch`] to run
/// several inputs as one traffic phase per layer.
///
/// # Errors
///
/// Returns [`AccelError`] on invalid configuration, flitization failure,
/// a stalled layer, or a receiver-side decode failure.
pub fn run_inference(
    ops: &[InferenceOp],
    input: &Tensor,
    config: &AccelConfig,
) -> Result<InferenceResult, AccelError> {
    if config.batch_size != 1 {
        return Err(AccelError::Config(format!(
            "run_inference requires batch_size 1 (got {}); use run_inference_batch",
            config.batch_size
        )));
    }
    Ok(run_inference_batch(ops, std::slice::from_ref(input), config)?.into_single())
}

/// Runs a batch of inputs through the network, each conv/linear layer
/// transmitting the whole batch's tasks as **one traffic phase**: weight
/// kernels are materialized and sorted once per layer instead of once per
/// input, and the mesh stays busy across inputs instead of draining at
/// every per-input layer boundary.
///
/// `inputs.len()` must equal `config.batch_size`. With `batch_size == 1`
/// this is exactly the single-input driver (pinned by
/// `tests/driver_parity.rs`), and each batched output is bit-identical to
/// the output of a sequential single-input run: every task's MAC depends
/// only on its own operands, never on how the batch's packets interleave
/// in the mesh.
///
/// # Errors
///
/// Returns [`AccelError`] on invalid configuration or batch size,
/// flitization failure, a stalled layer, or a decode failure.
pub fn run_inference_batch(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
) -> Result<BatchInferenceResult, AccelError> {
    if inputs.len() != config.batch_size {
        return Err(AccelError::Config(format!(
            "batch_size {} does not match the {} inputs provided",
            config.batch_size,
            inputs.len()
        )));
    }
    InferenceSession::new(ops, config.clone())?.run(inputs)
}

/// The per-call body shared by [`InferenceSession::run`] (and through it
/// every one-shot entry point): `config` is already validated and `plan`
/// already resolved. The data format is matched here, once; everything
/// after runs generic over the word type.
fn run_batch_resolved(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
    plan: EncodePlan,
    caches: &[LayerEncodeCache],
) -> Result<BatchInferenceResult, AccelError> {
    // Layer geometry and window indexing derive from element 0; a
    // mismatched tensor would read the wrong pixels silently.
    if let Some(bad) = inputs.iter().find(|x| x.shape() != inputs[0].shape()) {
        return Err(AccelError::Config(format!(
            "batch inputs must share one shape: got {:?} and {:?}",
            inputs[0].shape(),
            bad.shape()
        )));
    }
    match config.format {
        DataFormat::Float32 => run_ops::<F32Word>(ops, inputs, config, plan, caches),
        DataFormat::Fixed8 => run_ops::<Fx8Word>(ops, inputs, config, plan, caches),
        other => Err(AccelError::UnsupportedFormat(other)),
    }
}

/// Runs every op on words of type `W`: conv and linear layers over the
/// NoC, everything else memory-side between them.
fn run_ops<W: AccelWord>(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
    plan: EncodePlan,
    caches: &[LayerEncodeCache],
) -> Result<BatchInferenceResult, AccelError> {
    let mut sim = Simulator::new(config.noc.clone());
    let mut xs: Vec<Tensor> = inputs.to_vec();
    let mut per_layer = Vec::new();
    let mut overhead = WireOverhead::default();

    for (op_index, op) in ops.iter().enumerate() {
        let (weight, bias, geo) = match op {
            InferenceOp::Conv {
                weight,
                bias,
                stride,
                padding,
            } => {
                let geo = ConvGeometry::from_shapes(&xs[0], weight, *stride, *padding);
                (weight, bias, Some(geo))
            }
            InferenceOp::Linear { weight, bias } => (weight, bias, None),
            // Memory-side ops run between layers (the layer-level interval).
            other => {
                xs = xs.iter().map(|x| other.execute(x)).collect();
                continue;
            }
        };
        // Activation scales are per element; weight/bias scales are shared.
        let scales: Vec<W::Scales> = xs
            .iter()
            .map(|x| W::scales(x, weight, bias, config))
            .collect();
        let s0 = scales[0];
        let input_mappers: Vec<_> = scales
            .iter()
            .map(|&s| move |v| W::from_input(s, v))
            .collect();
        let to_weight = move |v| W::from_weight(s0, v);
        let to_bias = move |v| W::from_bias(s0, v);
        let (op_name, source, out_shape) = match geo {
            Some(geo) => (
                "conv",
                LayerTasks::conv(&xs, weight, bias, geo, input_mappers, to_weight, to_bias),
                vec![geo.out_channels, geo.out_h, geo.out_w],
            ),
            None => (
                "linear",
                LayerTasks::linear(&xs, weight, bias, input_mappers, to_weight, to_bias),
                vec![weight.shape()[0]],
            ),
        };
        let responses = run_layer(
            op_index,
            op_name,
            &source,
            config,
            &mut sim,
            &mut per_layer,
            &mut overhead,
            plan,
            &caches[op_index],
        )?;
        xs = responses
            .chunks(source.per_input())
            .zip(&scales)
            .map(|(chunk, &s)| {
                let values = chunk
                    .iter()
                    .enumerate()
                    .map(|(local, &bits)| {
                        W::output(s, bits, source.bias_word(source.weight_group(local)))
                    })
                    .collect();
                Tensor::from_vec(&out_shape, values).expect("task count matches shape")
            })
            .collect();
    }

    Ok(BatchInferenceResult {
        outputs: xs,
        stats: sim.stats(),
        total_cycles: sim.cycle(),
        per_layer,
        index_overhead_bits: overhead.index_bits,
        codec_overhead_bits: overhead.codec_bits,
        edc_overhead_bits: overhead.edc_bits,
        retransmitted_flits: overhead.retransmitted_flits,
        retried_packets: overhead.retried_packets,
    })
}

/// Partitions the PEs into one balanced region per MC, each PE joining the
/// nearest non-full MC (Manhattan distance, greedy in node order).
///
/// Each MC serves only its own region, so the average hop count per flit
/// scales with routers-per-MC — the effect behind Fig. 12's observation
/// that the 8×8 mesh with 4 MCs accumulates the most BTs.
fn partition_pes_by_mc(config: &btr_noc::config::NocConfig) -> Vec<Vec<usize>> {
    let mcs = &config.mc_nodes;
    let pes = config.pe_nodes();
    let cap = pes.len().div_ceil(mcs.len());
    let mut regions: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    // Assign PEs in order of how constrained they are (largest distance to
    // their nearest MC first), so central nodes don't fill a far MC early.
    let mut order: Vec<usize> = pes;
    order.sort_by_key(|&pe| {
        std::cmp::Reverse(
            mcs.iter()
                .map(|&mc| btr_noc::routing::hop_count(config, mc, pe))
                .min()
                .unwrap_or(0),
        )
    });
    for pe in order {
        let best = mcs
            .iter()
            .enumerate()
            .filter(|(mi, _)| regions[*mi].len() < cap)
            .min_by_key(|(_, &mc)| btr_noc::routing::hop_count(config, mc, pe))
            .map(|(mi, _)| mi)
            .expect("capacity covers all PEs");
        regions[best].push(pe);
    }
    // Deterministic order within each region.
    for region in &mut regions {
        region.sort_unstable();
    }
    regions
}

/// Side-channel bits accumulated across an inference, out-of-band of the
/// data wires: the O2 re-pairing index, the link codec's invert lines and
/// the EDC check fields — plus the recovery protocol's retry accounting.
#[derive(Debug, Default, Clone, Copy)]
struct WireOverhead {
    index_bits: u64,
    codec_bits: u64,
    edc_bits: u64,
    retransmitted_flits: u64,
    retried_packets: u64,
}

/// The MC-side encode stage: task construction + ordering + flitization +
/// link coding. One instance per layer, owned by the layer's [`LayerRun`]
/// and called inline whenever an MC's prefetch buffer has room.
struct EncodeStage<'a, W: AccelWord> {
    source: &'a LayerTasks<W>,
    session: CodedTransport,
    ordering: OrderingMethod,
    tiebreak: TieBreak,
    /// The session-lifetime weight-side cache for this layer: descending
    /// weight orders and pre-rendered weight flit templates per kernel
    /// group, shared across the batch and across dispatches.
    cache: &'a LayerEncodeCache,
    /// [`EncodePlan::Reference`]: encode and decode through the
    /// legacy-faithful slot-level path instead of the cache.
    reference: bool,
    /// The cached path's scratch and operand window, reused across the
    /// layer's tasks.
    scratch: TransportScratch,
    input_buf: Vec<W>,
}

impl<'a, W: AccelWord> EncodeStage<'a, W> {
    fn new(
        source: &'a LayerTasks<W>,
        config: &AccelConfig,
        cache: &'a LayerEncodeCache,
        plan: EncodePlan,
    ) -> Self {
        debug_assert_eq!(
            cache.templates.len(),
            source.group_count(),
            "layer cache sized for a different kernel-group count"
        );
        Self {
            source,
            session: CodedTransport::new(TransportConfig {
                ordering: config.ordering,
                tiebreak: config.tiebreak,
                values_per_flit: config.values_per_flit,
                codec: config.codec,
                scope: config.codec_scope,
                edc: config.edc,
            }),
            ordering: config.ordering,
            tiebreak: config.tiebreak,
            cache,
            reference: plan == EncodePlan::Reference,
            scratch: TransportScratch::default(),
            input_buf: Vec::new(),
        }
    }

    /// The group's cached descending weight order, computed on first use.
    fn wperm(&self, group: usize) -> &'a [usize] {
        let cache = self.cache;
        cache.wperms[group].get_or_init(|| {
            self.tiebreak
                .descending_order(self.source.group_weights(group))
        })
    }

    /// The group's cached encode template: ordered weight fields, bias
    /// and O2 index overhead pre-rendered into flit images, built on the
    /// first task that touches the group and reused for every later task
    /// in the batch — and in later dispatches of the same session.
    fn template(&self, group: usize) -> Result<&'a EncodeTemplate, FlitizeError> {
        let cache = self.cache;
        cache.templates[group]
            .get_or_init(|| {
                let wperm = match self.ordering {
                    OrderingMethod::Baseline => None,
                    OrderingMethod::Affiliated | OrderingMethod::Separated => {
                        Some(self.wperm(group))
                    }
                };
                self.session.weight_template(
                    self.source.group_weights(group),
                    self.source.bias_word(group),
                    wperm,
                    &mut TransportScratch::default(),
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Builds and encodes global task `j`.
    ///
    /// The reference path is the pre-pipeline way — eager slot-level
    /// materialization, full per-task sort, fresh scratch — and bypasses
    /// the template cache so it stays an independent oracle for the cached
    /// path. The cached path is bit-identical to the plain `encode_task`
    /// path, but only the activation lanes (and for O2 the input sort and
    /// pair index) are dealt per task; the weight side comes from the
    /// group's template.
    fn encode(&mut self, j: usize) -> Result<EncodedTask<W>, FlitizeError> {
        if self.reference {
            return self.session.encode_task_reference(&self.source.build(j));
        }
        let (_weights, _bias) = self.source.operands_into(j, &mut self.input_buf);
        let template = self.template(self.source.weight_group(j))?;
        self.session
            .encode_with_template(template, &self.input_buf, &mut self.scratch)
    }
}

/// How one half of a layer's traffic — the request fan-out or the
/// response convergence — runs on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Step the mesh cycle by cycle through the cycle engine.
    Step,
    /// Queue the whole phase at its sources, then replay the ordered
    /// coded streams ([`Simulator::replay_queued_analytic`]): straight
    /// XOR+popcount passes per link, through the bulk codec-lane kernels
    /// on per-link-coded wires. `verified` arms the debug-build cycle
    /// oracle inside the replay.
    Replay { verified: bool },
}

/// Which engine [`run_layer`] resolved for one layer's traffic. Each
/// engine is a (request phase, response phase) pair
/// ([`LayerEngine::phases`]), and one scheduler, [`LayerRun::drive`],
/// runs every pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerEngine {
    /// (Step, Step): the cycle engine throughout, with responses
    /// injecting while later requests are still in flight.
    Cycle,
    /// (Replay, Replay): both phases replay the ordered coded streams,
    /// and the clock jumps over the closed-form PE compute interval in
    /// between. `verified` records that the layer's combined route set
    /// was proven contention-free, which makes the replay bit-exact with
    /// the cycle engine on per-link BTs, codec-lane states, payloads and
    /// recovered MACs. Without it (forced [`EngineMode::Analytic`])
    /// shared links record the serialized per-packet stream — the
    /// paper's pure stream metric — and cycle counts are closed-form
    /// estimates.
    Analytic { verified: bool },
    /// (Replay, Step): the request phase — the bulk of a layer's flits —
    /// replays analytically; the response phase steps the real cycle
    /// engine, injecting each response at its closed-form compute-ready
    /// cycle shifted so the first lands on the current clock (a constant
    /// shift cannot change any link's flit order). Resolved only when the
    /// split is provably invisible (see [`LayerEngine::resolve`]), so it
    /// is bit-identical to `Cycle` on per-link BTs, codec-lane states,
    /// overheads and delivered payloads. Timing is the one deviation: the
    /// layer's clock composes the request makespan and the response phase
    /// instead of overlapping them.
    Hybrid,
}

impl LayerEngine {
    /// Resolves the engine for one layer from the configured mode and
    /// the layer's static task→destination assignment.
    ///
    /// `Auto` first classifies the **combined** request *and* response
    /// route set: in the cycle engine responses inject while later
    /// requests are still in flight, so the analytic engine's clean
    /// two-phase split is provably invisible when no two packets of the
    /// whole layer — MC→PE or PE→MC — share a directed router-output
    /// link across sources ([`routes_contention_free`], which admits
    /// same-source FIFO-trailing sharing).
    ///
    /// Failing that, it tries the **hybrid split**: if the request route
    /// set alone is contention-free *and* touches no directed link any
    /// response route touches ([`routes_link_disjoint`]), then requests
    /// and responses cannot interact anywhere in the mesh — no shared
    /// output port, and (since an input port is fed by exactly one
    /// directed link) no shared input port — so the fully overlapped
    /// cycle engine factors exactly into "requests as if alone" ×
    /// "responses injected at their compute-ready cycles". The request
    /// phase replays analytically (bulk lane kernels), the converging
    /// response phase runs the true cycle engine on the same relative
    /// inject schedule, and every link's flit order is the overlapped
    /// run's. This is the case that matters in practice: DNN response
    /// traffic from many PEs converges on each MC's ejection link, which
    /// no per-link order rule can serialize, while the heavyweight
    /// request fan-out from each MC is naturally single-source per link.
    ///
    /// Error-injected wires (`ber > 0`) are categorically ineligible:
    /// the analytic replay models a perfect stream, so `Auto` resolves
    /// them to the cycle engine regardless of the route set.
    fn resolve(config: &AccelConfig, dests: &[(usize, usize)]) -> Self {
        match config.engine {
            EngineMode::Cycle => LayerEngine::Cycle,
            EngineMode::Analytic => LayerEngine::Analytic { verified: false },
            EngineMode::Auto => {
                if config.noc.injects_errors() {
                    return LayerEngine::Cycle;
                }
                if routes_contention_free(
                    &config.noc,
                    dests.iter().flat_map(|&(pe, mc)| [(mc, pe), (pe, mc)]),
                ) {
                    LayerEngine::Analytic { verified: true }
                } else if routes_contention_free(
                    &config.noc,
                    dests.iter().map(|&(pe, mc)| (mc, pe)),
                ) && routes_link_disjoint(
                    &config.noc,
                    dests.iter().map(|&(pe, mc)| (mc, pe)),
                    dests.iter().map(|&(pe, mc)| (pe, mc)),
                ) {
                    LayerEngine::Hybrid
                } else {
                    LayerEngine::Cycle
                }
            }
        }
    }

    /// The (request phase, response phase) pair this engine runs.
    fn phases(self) -> (Phase, Phase) {
        match self {
            LayerEngine::Cycle => (Phase::Step, Phase::Step),
            LayerEngine::Hybrid => (Phase::Replay { verified: true }, Phase::Step),
            LayerEngine::Analytic { verified } => {
                (Phase::Replay { verified }, Phase::Replay { verified })
            }
        }
    }

    /// True when the layer's request phase — the bulk of its flits —
    /// rides the analytic stream replay.
    fn is_analytic(self) -> bool {
        self.phases().0 != Phase::Step
    }
}

/// Runs the NI acceptance check on one delivery, mapping the typed
/// protocol outcomes into the driver's error space. `Ok(true)` means the
/// delivery verified clean and should be processed; `Ok(false)` means it
/// was NACKed and its retained original is already re-injected — skip it
/// and keep stepping the mesh.
fn accept_delivery<W: AccelWord>(
    port: &TaskPort<CodedTransport>,
    sim: &mut Simulator,
    d: &DeliveredPacket,
    layer: usize,
) -> Result<bool, AccelError> {
    use btr_core::transport::TransportError;
    match port.accept::<W>(sim, d) {
        Ok(Some(_retries)) => Ok(true),
        Ok(None) => Ok(false),
        Err(TransportError::Unrecoverable { retries }) => {
            Err(AccelError::Unrecoverable { layer, retries })
        }
        Err(e) => Err(AccelError::Decode(e.to_string())),
    }
}

/// Runs one conv/linear layer's batch of traffic to completion. Returns
/// the 32-bit response images indexed by global task id (batch-major,
/// then flat output index).
#[allow(clippy::too_many_arguments)]
fn run_layer<W: AccelWord>(
    op_index: usize,
    op_name: &'static str,
    source: &LayerTasks<W>,
    config: &AccelConfig,
    sim: &mut Simulator,
    per_layer: &mut Vec<LayerTrafficReport>,
    overhead: &mut WireOverhead,
    plan: EncodePlan,
    cache: &LayerEncodeCache,
) -> Result<Vec<u64>, AccelError> {
    let mcs = &config.noc.mc_nodes;
    let regions = partition_pes_by_mc(&config.noc);
    let total = source.total();

    // Static assignment: task j -> MC round-robin, then round-robin over
    // that MC's own PE region. O0/O1/O2 runs, both driver modes and every
    // batch element use identical assignments, so BT comparisons are
    // apples-to-apples.
    let dests: Vec<(usize, usize)> = (0..total)
        .map(|j| {
            let mi = j % mcs.len();
            let region = &regions[mi];
            (region[(j / mcs.len()) % region.len()], mcs[mi])
        })
        .collect();
    let mut per_mc_tasks: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    for j in 0..total {
        per_mc_tasks[j % mcs.len()].push(j);
    }

    // The MC-side ordering unit, the link codec and PE-side recovery all
    // live in the shared transport session; the NoC port binds it to the
    // simulator, so both the request and response paths ride the coded
    // wire.
    let stage = EncodeStage::new(source, config, cache, plan);
    // Arm the NI recovery protocol whenever a fault config exists — even
    // at ber = 0, so the EDC verify stays on the receive path and
    // zero-BER equivalence is measured, not assumed.
    let port = match &config.noc.fault {
        Some(fault) => TaskPort::with_recovery(stage.session, fault),
        None => TaskPort::new(stage.session),
    };

    let start_cycle = sim.cycle();
    let transitions_before = sim.stats().total_transitions;
    let engine = LayerEngine::resolve(config, &dests);
    // Replayed phases model perfect wires; validation and `Auto` keep
    // error injection on the cycle engine.
    debug_assert!(!engine.is_analytic() || !config.noc.injects_errors());
    let mut run = LayerRun::new(
        op_index,
        config,
        &port,
        stage,
        &dests,
        &per_mc_tasks,
        overhead,
    );
    run.drive(engine, sim)?;

    let (request_flits, responses) = run.finish();
    let transitions_after = sim.stats().total_transitions;
    per_layer.push(LayerTrafficReport {
        op_index,
        op_name,
        request_packets: total as u64,
        request_flits,
        cycles: sim.cycle() - start_cycle,
        transitions: transitions_after - transitions_before,
        pairs_per_task: source.pairs_per_task(),
        analytic: engine.is_analytic(),
    });
    let fault_stats = port.take_fault_stats();
    debug_assert_eq!(fault_stats.failed_packets, 0, "failures surface as errors");
    overhead.retransmitted_flits += fault_stats.retransmitted_flits;
    overhead.retried_packets += fault_stats.recovered_packets;
    Ok(responses)
}

/// One layer's traffic in flight: the single scheduler behind every
/// [`LayerEngine`]. Whatever mix of stepped and replayed phases the
/// engine resolved to, requests are sent and accounted in
/// [`send_request`](Self::send_request), deliveries are accepted and
/// decoded in [`deliver`](Self::deliver), responses are encoded and
/// accounted in [`send_response`](Self::send_response), and the stall
/// guard lives in [`step_until_drained`](Self::step_until_drained).
/// Allocation-free per packet on the request path: deliveries drain into
/// one reused buffer and PE decode reuses one scratch and one recovered
/// task.
struct LayerRun<'a, W: AccelWord> {
    op_index: usize,
    config: &'a AccelConfig,
    port: &'a TaskPort<CodedTransport>,
    stage: EncodeStage<'a, W>,
    /// `(pe, mc)` endpoints of every task.
    dests: &'a [(usize, usize)],
    /// Each MC's tasks in send order.
    per_mc_tasks: &'a [Vec<usize>],
    /// How many of each MC's tasks are sent, and how many of all are not.
    cursors: Vec<usize>,
    unsent: usize,
    /// Wire metadata of every sent request not yet decoded at its PE.
    wires: Vec<Option<TaskWireMeta>>,
    /// Response images by task, filled as they reach their MCs.
    responses: Vec<Option<u64>>,
    remaining: usize,
    /// Computed responses awaiting injection as `(ready cycle, task,
    /// response bits)`, kept sorted so they pop from the front in
    /// `(ready, task)` order — each PE's FIFO response-injection order,
    /// under every engine.
    staged: VecDeque<(u64, usize, u64)>,
    delivered: Vec<DeliveredPacket>,
    decode_scratch: TransportScratch,
    recovered: RecoveredTask<W>,
    request_flits: u64,
    /// The inference's side-channel totals, accumulated in place.
    overhead: &'a mut WireOverhead,
}

impl<'a, W: AccelWord> LayerRun<'a, W> {
    fn new(
        op_index: usize,
        config: &'a AccelConfig,
        port: &'a TaskPort<CodedTransport>,
        stage: EncodeStage<'a, W>,
        dests: &'a [(usize, usize)],
        per_mc_tasks: &'a [Vec<usize>],
        overhead: &'a mut WireOverhead,
    ) -> Self {
        let total = dests.len();
        Self {
            op_index,
            config,
            port,
            stage,
            dests,
            per_mc_tasks,
            cursors: vec![0; per_mc_tasks.len()],
            unsent: total,
            wires: vec![None; total],
            responses: vec![None; total],
            remaining: total,
            staged: VecDeque::new(),
            delivered: Vec::new(),
            decode_scratch: TransportScratch::default(),
            recovered: RecoveredTask {
                pairs: Vec::new(),
                bias: W::from_bits_u64(0),
            },
            request_flits: 0,
            overhead,
        }
    }

    /// Runs the layer to completion under `engine`, encoding requests in
    /// per-MC order.
    fn drive(&mut self, engine: LayerEngine, sim: &mut Simulator) -> Result<(), AccelError> {
        let (requests, responses) = engine.phases();
        if let Phase::Replay { verified } = requests {
            // Queue every task packet at its MC, replay, then decode and
            // compute at the PEs.
            self.staged.reserve_exact(self.dests.len());
            for mi in 0..self.per_mc_tasks.len() {
                while self.send_request(sim, mi)? {}
            }
            sim.replay_queued_analytic(verified);
            self.deliver(sim, requests)?;
            debug_assert_eq!(
                self.staged.len(),
                self.dests.len(),
                "every request delivered"
            );
        }
        match responses {
            Phase::Replay { verified } => {
                // Jump the clock over the PE compute interval the cycle
                // engine would idle through, queue every response in
                // completion order, replay, decode at the MCs.
                sim.advance_cycle_to(self.staged.back().map_or(0, |&(ready, ..)| ready));
                while let Some((_, j, bits)) = self.staged.pop_front() {
                    self.send_response(sim, j, bits)?;
                }
                sim.replay_queued_analytic(verified);
                self.deliver(sim, responses)
            }
            Phase::Step => {
                if requests != Phase::Step {
                    // Anchor the first replayed response at the current
                    // clock; offsets between responses are preserved.
                    let base = sim.cycle();
                    let ready0 = self.staged.front().map_or(0, |&(ready, ..)| ready);
                    for (ready, ..) in &mut self.staged {
                        *ready = base + (*ready - ready0);
                    }
                }
                self.step_until_drained(sim)
            }
        }
    }

    /// The stepped loop: inject every response whose compute finished,
    /// keep each MC's prefetch buffer topped up, then step
    /// the mesh and handle its deliveries — until every response is home.
    fn step_until_drained(&mut self, sim: &mut Simulator) -> Result<(), AccelError> {
        let config = self.config;
        let start = sim.cycle();
        // The first cycle at which the stall guard below trips.
        let stall_at = start.saturating_add(config.max_cycles_per_layer.saturating_add(1));
        while self.remaining > 0 {
            while let Some(&(ready, j, bits)) = self.staged.front() {
                if ready > sim.cycle() {
                    break;
                }
                self.staged.pop_front();
                self.send_response(sim, j, bits)?;
            }
            if self.unsent > 0 {
                for (mi, &mc) in config.noc.mc_nodes.iter().enumerate() {
                    while sim.pending_at(mc) < config.mc_prefetch_packets
                        && self.send_request(sim, mi)?
                    {}
                }
            }
            match self.staged.front() {
                // Empty mesh, nothing left to send, next response still
                // computing: an idle `step` only bumps the clock, so jump
                // to its ready cycle, capped where the guard trips.
                Some(&(ready, ..)) if sim.in_flight() == 0 && self.unsent == 0 => {
                    sim.advance_cycle_to(ready.min(stall_at));
                }
                _ => {
                    sim.step();
                    self.deliver(sim, Phase::Step)?;
                }
            }
            if sim.cycle() - start > config.max_cycles_per_layer {
                return Err(AccelError::Stall {
                    layer: self.op_index,
                    cycles: sim.cycle() - start,
                });
            }
        }
        Ok(())
    }

    /// Encodes and sends MC `mi`'s next task, if it has one left.
    fn send_request(&mut self, sim: &mut Simulator, mi: usize) -> Result<bool, AccelError> {
        let Some(&j) = self.per_mc_tasks[mi].get(self.cursors[mi]) else {
            return Ok(false);
        };
        self.cursors[mi] += 1;
        self.unsent -= 1;
        let encoded = self.stage.encode(j)?;
        let (pe, mc) = self.dests[j];
        let sent = self.port.send_encoded(sim, mc, pe, encoded, j as u64)?;
        self.overhead.index_bits += sent.index_overhead_bits;
        self.overhead.codec_bits += sent.codec_overhead_bits;
        self.overhead.edc_bits += sent.edc_overhead_bits;
        self.request_flits += sent.flit_count as u64;
        self.wires[j] = Some(sent.meta);
        Ok(true)
    }

    /// Handles everything the mesh delivered. Each delivery first runs
    /// the NI acceptance check; a NACKed one is skipped and arrives again
    /// after its retransmission. A request is decoded at its PE, its
    /// pairing recovered and its MAC result staged at the compute-ready
    /// cycle; a response is decoded at its MC.
    ///
    /// The ready cycle follows the phase that delivered the request: a
    /// stepped delivery counts from the clock after the `step` that
    /// delivered it (`arrival + 1`), a replayed one from its closed-form
    /// arrival cycle. Stepped deliveries compute in clock order, so each
    /// is inserted at its sorted place, at or near the back; a replayed
    /// phase delivers every request at once, in node order, and is sorted
    /// once at the end.
    fn deliver(&mut self, sim: &mut Simulator, phase: Phase) -> Result<(), AccelError> {
        sim.drain_all_delivered_into(&mut self.delivered);
        let session = self.port.session();
        for d in &self.delivered {
            if !accept_delivery::<W>(self.port, sim, d, self.op_index)? {
                continue;
            }
            let j = d.tag as usize;
            if self.config.noc.is_mc(d.dst) {
                let bits = session
                    .decode_response::<W>(&d.payload_flits)
                    .map_err(|e| AccelError::Decode(e.to_string()))?;
                debug_assert!(
                    self.responses[j].is_none(),
                    "duplicate response for task {j}"
                );
                self.responses[j] = Some(bits);
                self.remaining -= 1;
                continue;
            }
            // Decoded exactly once: the wire metadata is released here.
            let wire = self.wires[j]
                .take()
                .expect("request was sent before delivery");
            if self.stage.reference {
                self.recovered = session
                    .decode_task_reference::<W>(&wire, &d.payload_flits.to_payloads())
                    .map_err(|e| AccelError::Decode(e.to_string()))?;
            } else {
                session
                    .decode_task_into::<W>(
                        &wire,
                        &d.payload_flits,
                        &mut self.decode_scratch,
                        &mut self.recovered,
                    )
                    .map_err(|e| AccelError::Decode(e.to_string()))?;
            }
            let latency = self.config.pe_latency(wire.num_pairs);
            let bits = W::response_bits(&self.recovered);
            match phase {
                Phase::Step => {
                    let entry = (sim.cycle() + latency, j, bits);
                    let at = self.staged.partition_point(|e| *e < entry);
                    self.staged.insert(at, entry);
                }
                Phase::Replay { .. } => self.staged.push_back((d.arrival_cycle + latency, j, bits)),
            }
        }
        if phase != Phase::Step {
            self.staged.make_contiguous().sort_unstable();
        }
        Ok(())
    }

    /// Encodes one computed response onto the coded wire and injects it
    /// at its PE, accounting its side-channel bits.
    fn send_response(
        &mut self,
        sim: &mut Simulator,
        j: usize,
        bits: u64,
    ) -> Result<(), AccelError> {
        let image = self.port.session().encode_response::<W>(bits);
        self.overhead.codec_bits += u64::from(self.config.codec.extra_wires());
        self.overhead.edc_bits += u64::from(self.config.edc.extra_wires());
        let (pe, mc) = self.dests[j];
        self.port
            .send_images(sim, pe, mc, std::slice::from_ref(&image), j as u64)?;
        Ok(())
    }

    /// The layer's request flit count and its response images by task.
    fn finish(self) -> (u64, Vec<u64>) {
        let responses = self
            .responses
            .into_iter()
            .map(|bits| bits.expect("all responses collected"))
            .collect();
        (self.request_flits, responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_core::OrderingMethod;
    use btr_dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
    use btr_dnn::model::{Layer, Sequential};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small conv net that still exercises conv, pool, activation,
    /// flatten and linear over the NoC.
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

    fn config(format: DataFormat, ordering: OrderingMethod) -> AccelConfig {
        AccelConfig::paper(4, 4, 2, format, ordering)
    }

    #[test]
    fn f32_inference_matches_reference() {
        let model = tiny_model(1);
        let ops = model.inference_ops();
        let input = tiny_input(2);
        let reference = model.infer(&input);
        for ordering in OrderingMethod::ALL {
            let result =
                run_inference(&ops, &input, &config(DataFormat::Float32, ordering)).unwrap();
            assert_eq!(result.output.shape(), reference.shape());
            for (got, want) in result.output.data().iter().zip(reference.data().iter()) {
                assert!(
                    (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                    "{ordering}: {got} vs {want}"
                );
            }
            assert!(result.stats.packets_delivered > 0);
            assert!(result.total_cycles > 0);
        }
    }

    #[test]
    fn fx8_outputs_are_identical_across_orderings() {
        // Integer MACs make fixed-8 results bit-exact regardless of
        // transmission order — the paper's "values' integrity" claim.
        let model = tiny_model(3);
        let ops = model.inference_ops();
        let input = tiny_input(4);
        let baseline = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Baseline),
        )
        .unwrap();
        for ordering in [OrderingMethod::Affiliated, OrderingMethod::Separated] {
            let result =
                run_inference(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            assert_eq!(
                result.output.data(),
                baseline.output.data(),
                "{ordering} changed fixed-8 outputs"
            );
        }
    }

    #[test]
    fn ordering_reduces_transitions_on_tiny_model() {
        let model = tiny_model(5);
        let ops = model.inference_ops();
        let input = tiny_input(6);
        let mut totals = Vec::new();
        for ordering in OrderingMethod::ALL {
            let result =
                run_inference(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            totals.push(result.stats.total_transitions);
        }
        let (o0, o1, o2) = (totals[0], totals[1], totals[2]);
        assert!(o1 < o0, "affiliated {o1} must beat baseline {o0}");
        assert!(o2 < o0, "separated {o2} must beat baseline {o0}");
        assert!(
            o2 <= o1,
            "separated {o2} should be at least as good as affiliated {o1}"
        );
    }

    #[test]
    fn coded_links_are_lossless_for_fx8_inference() {
        // Fixed-8 outputs are bit-exact across codecs: the PEs and MCs
        // recover every operand and response off the coded wires.
        use btr_core::codec::CodecKind;
        let model = tiny_model(31);
        let ops = model.inference_ops();
        let input = tiny_input(32);
        let plain = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Separated),
        )
        .unwrap();
        for codec in [CodecKind::BusInvert, CodecKind::DeltaXor] {
            let c = config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(codec);
            let r = run_inference(&ops, &input, &c).unwrap();
            assert_eq!(
                r.output.data(),
                plain.output.data(),
                "{codec} changed fixed-8 outputs"
            );
            // Same packets and flit counts; only the wire images (and for
            // bus-invert the link width) differ.
            assert_eq!(r.total_request_packets(), plain.total_request_packets());
            assert_eq!(r.total_request_flits(), plain.total_request_flits());
            assert_ne!(
                r.stats.total_transitions, plain.stats.total_transitions,
                "{codec} should change the wire BTs"
            );
        }
    }

    #[test]
    fn coded_links_preserve_f32_inference() {
        use btr_core::codec::CodecKind;
        let model = tiny_model(33);
        let ops = model.inference_ops();
        let input = tiny_input(34);
        let reference = model.infer(&input);
        for codec in CodecKind::ALL {
            let c = config(DataFormat::Float32, OrderingMethod::Affiliated).with_codec(codec);
            let result = run_inference(&ops, &input, &c).unwrap();
            for (got, want) in result.output.data().iter().zip(reference.data().iter()) {
                assert!(
                    (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                    "{codec}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn codec_overhead_is_accounted() {
        use btr_core::codec::CodecKind;
        let model = tiny_model(35);
        let ops = model.inference_ops();
        let input = tiny_input(36);
        let run = |codec| {
            run_inference(
                &ops,
                &input,
                &config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(codec),
            )
            .unwrap()
        };
        let plain = run(CodecKind::Unencoded);
        let xor = run(CodecKind::DeltaXor);
        let bi = run(CodecKind::BusInvert);
        assert_eq!(plain.codec_overhead_bits, 0);
        assert_eq!(xor.codec_overhead_bits, 0);
        // One invert-line bit per payload flit (requests) + one per
        // response packet.
        let payload_flits = bi.total_request_flits() - bi.total_request_packets();
        assert_eq!(
            bi.codec_overhead_bits,
            payload_flits + bi.total_request_packets()
        );
        // The index side channel is codec-independent.
        assert_eq!(bi.index_overhead_bits, plain.index_overhead_bits);
    }

    #[test]
    fn traffic_identical_across_orderings() {
        // Same packets, flits and assignments; only intra-packet order
        // differs.
        let model = tiny_model(7);
        let ops = model.inference_ops();
        let input = tiny_input(8);
        let mut packet_counts = Vec::new();
        let mut flit_counts = Vec::new();
        for ordering in OrderingMethod::ALL {
            let r = run_inference(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            packet_counts.push(r.total_request_packets());
            flit_counts.push(r.total_request_flits());
        }
        assert!(packet_counts.windows(2).all(|w| w[0] == w[1]));
        assert!(flit_counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn separated_reports_index_overhead() {
        let model = tiny_model(9);
        let ops = model.inference_ops();
        let input = tiny_input(10);
        let o1 = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Affiliated),
        )
        .unwrap();
        let o2 = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Separated),
        )
        .unwrap();
        assert_eq!(o1.index_overhead_bits, 0);
        assert!(o2.index_overhead_bits > 0);
    }

    #[test]
    fn per_layer_reports_cover_noc_ops() {
        let model = tiny_model(11);
        let ops = model.inference_ops();
        let input = tiny_input(12);
        let r = run_inference(
            &ops,
            &input,
            &config(DataFormat::Float32, OrderingMethod::Baseline),
        )
        .unwrap();
        assert_eq!(r.per_layer.len(), 2); // conv + linear
        assert_eq!(r.per_layer[0].op_name, "conv");
        assert_eq!(r.per_layer[1].op_name, "linear");
        // conv on 8x8 with pad 1: 3 channels * 64 pixels = 192 tasks.
        assert_eq!(r.per_layer[0].request_packets, 192);
        assert_eq!(r.per_layer[1].request_packets, 5);
        assert!(r.per_layer.iter().all(|l| l.transitions > 0));
    }

    #[test]
    fn rejects_fixed16() {
        let model = tiny_model(13);
        let ops = model.inference_ops();
        let input = tiny_input(14);
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Baseline);
        c.format = DataFormat::Fixed16;
        c.noc.link_width_bits = 256;
        let err = run_inference(&ops, &input, &c).unwrap_err();
        assert!(matches!(
            err,
            AccelError::UnsupportedFormat(DataFormat::Fixed16)
        ));
    }

    #[test]
    fn sensitivity_options_increase_fx8_reduction() {
        // Value tiebreak + global fixed-8 weights should push the fixed-8
        // separated-ordering reduction beyond the strictly-as-described
        // configuration (see EXPERIMENTS.md).
        let model = tiny_model(21);
        let ops = model.inference_ops();
        let input = tiny_input(22);
        let reduction = |tiebreak, global| -> f64 {
            let mut totals = Vec::new();
            for ordering in [OrderingMethod::Baseline, OrderingMethod::Separated] {
                let mut c = config(DataFormat::Fixed8, ordering);
                c.tiebreak = tiebreak;
                c.global_fx8_weights = global;
                totals.push(
                    run_inference(&ops, &input, &c)
                        .unwrap()
                        .stats
                        .total_transitions,
                );
            }
            1.0 - totals[1] as f64 / totals[0] as f64
        };
        let plain = reduction(btr_core::ordering::TieBreak::Stable, false);
        let boosted = reduction(btr_core::ordering::TieBreak::Value, true);
        assert!(
            boosted > plain,
            "sensitivity options should help: {boosted} vs {plain}"
        );
    }

    #[test]
    fn pe_partition_is_balanced_and_local() {
        use btr_noc::config::NocConfig;
        use btr_noc::routing::hop_count;
        for (w, h, mc) in [(4usize, 4usize, 2usize), (8, 8, 4), (8, 8, 8)] {
            let config = NocConfig::paper_mesh(w, h, mc, 128);
            let regions = partition_pes_by_mc(&config);
            assert_eq!(regions.len(), mc);
            let total: usize = regions.iter().map(Vec::len).sum();
            assert_eq!(total, config.pe_nodes().len());
            let cap = total.div_ceil(mc);
            for region in &regions {
                assert!(region.len() <= cap);
                assert!(!region.is_empty());
            }
            // No PE appears twice.
            let mut all: Vec<usize> = regions.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), total);
            // Fewer MCs (bigger regions) means longer average distance.
            if mc == 4 {
                let c8 = NocConfig::paper_mesh(8, 8, 8, 128);
                let r8 = partition_pes_by_mc(&c8);
                let avg = |cfg: &NocConfig, regs: &[Vec<usize>]| -> f64 {
                    let mut sum = 0usize;
                    let mut n = 0usize;
                    for (mi, region) in regs.iter().enumerate() {
                        for &pe in region {
                            sum += hop_count(cfg, cfg.mc_nodes[mi], pe);
                            n += 1;
                        }
                    }
                    sum as f64 / n as f64
                };
                assert!(avg(&config, &regions) > avg(&c8, &r8));
            }
        }
    }

    #[test]
    fn encode_plan_resolves_once_from_config() {
        let base = config(DataFormat::Fixed8, OrderingMethod::Separated);
        let mut sync = base.clone();
        sync.driver = DriverMode::Synchronous;
        assert_eq!(EncodePlan::resolve(&sync), EncodePlan::Reference);
        // Pipelined encodes inline on every host, and the session pins it.
        assert_eq!(EncodePlan::resolve(&base), EncodePlan::Inline);
        let session = InferenceSession::new(&[], base).unwrap();
        assert_eq!(session.plan(), EncodePlan::Inline);
    }

    #[test]
    fn session_serves_repeated_and_partial_batches() {
        let model = tiny_model(61);
        let ops = model.inference_ops();
        let inputs: Vec<Tensor> = (0..3).map(|i| tiny_input(70 + i)).collect();
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Separated);
        c.batch_size = 4; // the coalescing window, not an exact size
        let session = InferenceSession::new(&ops, c.clone()).unwrap();
        // A partial window dispatch works; each call simulates on a
        // fresh mesh, so repeated calls are bit-identical.
        let a = session.run(&inputs).unwrap();
        let b = session.run(&inputs).unwrap();
        assert_eq!(a.outputs.len(), 3);
        for (x, y) in a.outputs.iter().zip(b.outputs.iter()) {
            assert_eq!(x.data(), y.data());
        }
        assert_eq!(a.stats.total_transitions, b.stats.total_transitions);
        assert_eq!(a.total_cycles, b.total_cycles);
        // ... and matches the one-shot entry point at the exact size.
        let mut exact = c.clone();
        exact.batch_size = 3;
        let oneshot = run_inference_batch(&ops, &inputs, &exact).unwrap();
        for (x, y) in a.outputs.iter().zip(oneshot.outputs.iter()) {
            assert_eq!(x.data(), y.data());
        }
        // Empty and oversized dispatches are rejected.
        assert!(session.run(&[]).is_err());
        let five: Vec<Tensor> = (0..5).map(|i| tiny_input(80 + i)).collect();
        let err = session.run(&five).unwrap_err();
        assert!(err.to_string().contains("1..=4"), "{err}");
    }

    #[test]
    fn engine_modes_agree_on_outputs_and_auto_matches_cycle_bts() {
        use btr_core::codec::CodecKind;
        let model = tiny_model(41);
        let ops = model.inference_ops();
        let input = tiny_input(42);
        let mut base =
            config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(CodecKind::BusInvert);
        base.engine = EngineMode::Cycle;
        let cycle = run_inference(&ops, &input, &base).unwrap();
        assert_eq!(cycle.analytic_phase_fraction(), 0.0);
        for engine in [EngineMode::Analytic, EngineMode::Auto] {
            let mut c = base.clone();
            c.engine = engine;
            let r = run_inference(&ops, &input, &c).unwrap();
            // Fixed-8 MACs are bit-exact regardless of engine: payload
            // delivery is lossless on both paths.
            assert_eq!(r.output.data(), cycle.output.data(), "{engine}");
            assert_eq!(r.total_request_packets(), cycle.total_request_packets());
            assert_eq!(r.total_request_flits(), cycle.total_request_flits());
            assert_eq!(r.index_overhead_bits, cycle.index_overhead_bits);
            assert_eq!(r.codec_overhead_bits, cycle.codec_overhead_bits);
            match engine {
                // Forced replay evaluates every layer analytically.
                EngineMode::Analytic => assert_eq!(r.analytic_phase_fraction(), 1.0),
                // Auto falls back wherever eligibility can't be proven
                // and must stay BT-identical to the cycle engine.
                EngineMode::Auto => {
                    assert_eq!(
                        r.stats.total_transitions, cycle.stats.total_transitions,
                        "auto must be bit-identical to cycle"
                    );
                    assert_eq!(r.stats.per_link, cycle.stats.per_link);
                    assert_eq!(r.stats.flit_hops, cycle.stats.flit_hops);
                }
                EngineMode::Cycle => unreachable!(),
            }
        }
    }

    #[test]
    fn fault_armed_zero_ber_is_bit_identical() {
        use btr_core::codec::ResyncPolicy;
        use btr_noc::fault::ErrorModel;
        let model = tiny_model(51);
        let ops = model.inference_ops();
        let input = tiny_input(52);
        let base = config(DataFormat::Fixed8, OrderingMethod::Separated);
        let plain = run_inference(&ops, &input, &base).unwrap();
        // Arming the full recovery machinery (packet retention, NI
        // acceptance, recovery counters) over perfect wires with no EDC
        // leaves the run bit-identical: same geometry, wires and clock.
        let armed = base
            .clone()
            .with_fault(ErrorModel::perfect(9), ResyncPolicy::ReseedOnRetry, 8);
        armed.validate().unwrap();
        let r = run_inference(&ops, &input, &armed).unwrap();
        assert_eq!(r.output.data(), plain.output.data());
        assert_eq!(r.stats.total_transitions, plain.stats.total_transitions);
        assert_eq!(r.stats.per_link, plain.stats.per_link);
        assert_eq!(r.total_cycles, plain.total_cycles);
        assert_eq!(r.retransmitted_flits, 0);
        assert_eq!(r.retried_packets, 0);
        assert_eq!(r.edc_overhead_bits, 0);
        // CRC-8 at ber 0: outputs unchanged, the check field's wires are
        // accounted, and nothing retries.
        let checked = base
            .clone()
            .with_edc(btr_core::edc::EdcKind::Crc8)
            .with_fault(ErrorModel::perfect(9), ResyncPolicy::ReseedOnRetry, 8);
        checked.validate().unwrap();
        let r = run_inference(&ops, &input, &checked).unwrap();
        assert_eq!(r.output.data(), plain.output.data());
        assert!(r.edc_overhead_bits > 0);
        // Eight check bits per payload flit: request payload flits
        // (flits minus one head per packet) plus one single-flit
        // response per packet.
        let payload_flits =
            (r.total_request_flits() - r.total_request_packets()) + r.total_request_packets();
        assert_eq!(r.edc_overhead_bits, payload_flits * 8);
        assert_eq!(r.retransmitted_flits, 0);
    }

    #[test]
    fn unreliable_links_recover_bit_exact_outputs() {
        use btr_core::codec::ResyncPolicy;
        use btr_noc::fault::{BitErrorRate, ErrorModel, FaultMode};
        let model = tiny_model(53);
        let ops = model.inference_ops();
        let input = tiny_input(54);
        let base = config(DataFormat::Fixed8, OrderingMethod::Separated);
        let plain = run_inference(&ops, &input, &base).unwrap();
        let mut faulty = base.clone().with_fault(
            ErrorModel {
                ber: BitErrorRate::from_f64(1e-5),
                seed: 7,
                mode: FaultMode::PerFlit,
            },
            ResyncPolicy::ReseedOnRetry,
            32,
        );
        // Auto must classify every error-injected phase ineligible for
        // the analytic fast path.
        faulty.engine = EngineMode::Auto;
        faulty.validate().unwrap();
        let r = run_inference(&ops, &input, &faulty).unwrap();
        assert_eq!(
            r.output.data(),
            plain.output.data(),
            "retransmission recovers every corrupted packet bit-exactly"
        );
        assert!(r.retransmitted_flits > 0, "this seed corrupts packets");
        assert!(r.retried_packets > 0);
        assert_eq!(
            r.analytic_phase_fraction(),
            0.0,
            "faults force the cycle engine"
        );
        // Forcing the analytic engine beside error injection is rejected
        // at validation time.
        let mut forced = faulty.clone();
        forced.engine = EngineMode::Analytic;
        assert!(forced.validate().unwrap_err().contains("analytic"));
    }

    #[test]
    fn stall_guard_fires() {
        let model = tiny_model(15);
        let ops = model.inference_ops();
        let input = tiny_input(16);
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Baseline);
        c.max_cycles_per_layer = 2;
        let err = run_inference(&ops, &input, &c).unwrap_err();
        assert!(matches!(err, AccelError::Stall { layer: 0, .. }));
    }
}
