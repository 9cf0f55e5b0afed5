//! Layer → neuron-task extraction.
//!
//! Each convolution output pixel (per output channel) and each linear
//! output neuron becomes one [`NeuronTask`]: `k·k·C_in` (or `in_features`)
//! paired inputs and weights plus a bias (Fig. 2). The extraction order is
//! `(ic, kh, kw)` row-major — the "natural" memory order that the baseline
//! (O0) transmits unmodified.

use btr_bits::word::{DataWord, Fx8Word};
use btr_bits::Quantizer;
use btr_core::task::NeuronTask;
use btr_dnn::tensor::Tensor;

/// A task plus the flat index of the output element it produces.
#[derive(Debug, Clone)]
pub struct IndexedTask<W> {
    /// The neuron computation.
    pub task: NeuronTask<W>,
    /// Flat index into the layer's output tensor.
    pub out_index: usize,
}

/// Per-layer quantization scales used by the fixed-8 path.
#[derive(Debug, Clone, Copy)]
pub struct LayerQuantizers {
    /// Input (activation) quantizer.
    pub input: Quantizer,
    /// Weight quantizer.
    pub weight: Quantizer,
    /// Bias quantizer.
    pub bias: Quantizer,
}

impl LayerQuantizers {
    /// Derives per-tensor scales from the layer operands.
    ///
    /// # Panics
    ///
    /// Panics if any operand contains non-finite values.
    #[must_use]
    pub fn derive(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Self {
        Self::derive_with(input, weight, bias, false)
    }

    /// [`LayerQuantizers::derive`] with an optional global Q0.7 weight
    /// scale (the sensitivity variant; weights beyond ±1 saturate).
    ///
    /// # Panics
    ///
    /// Panics if any operand contains non-finite values.
    #[must_use]
    pub fn derive_with(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        global_weights: bool,
    ) -> Self {
        let weight_q = if global_weights {
            Quantizer::new(1.0, 8).expect("unit scale is valid")
        } else {
            Quantizer::from_data(weight.data(), 8).expect("finite weights")
        };
        Self {
            input: Quantizer::from_data(input.data(), 8).expect("finite activations"),
            weight: weight_q,
            bias: Quantizer::from_data(bias.data(), 8).expect("finite biases"),
        }
    }

    /// Dequantizes a PE's integer MAC response into the float domain:
    /// the response is `Σ qi·qw + qb`; the bias code is subtracted, the
    /// integer dot product is rescaled by both operand scales, and the
    /// dequantized bias is added back.
    #[must_use]
    pub fn dequantize_response(&self, mac: i64, bias_code: i8) -> f32 {
        let dot = mac - i64::from(bias_code);
        let prod_scale = (self.input.scale() * self.weight.scale())
            / (self.input.q_max() as f32 * self.weight.q_max() as f32);
        dot as f32 * prod_scale + self.bias.dequantize_i32(i32::from(bias_code))
    }
}

/// Conv geometry needed to enumerate tasks.
#[derive(Debug, Clone, Copy)]
pub struct ConvGeometry {
    /// Output channels.
    pub out_channels: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
    /// Output spatial height.
    pub out_h: usize,
    /// Output spatial width.
    pub out_w: usize,
}

impl ConvGeometry {
    /// Derives the geometry from operand shapes.
    #[must_use]
    pub fn from_shapes(input: &Tensor, weight: &Tensor, stride: usize, padding: usize) -> Self {
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let k = weight.shape()[2];
        Self {
            out_channels: weight.shape()[0],
            in_channels: weight.shape()[1],
            kernel: k,
            stride,
            padding,
            out_h: (h + 2 * padding - k) / stride + 1,
            out_w: (w + 2 * padding - k) / stride + 1,
        }
    }

    /// Number of tasks the layer generates.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.out_channels * self.out_h * self.out_w
    }

    /// Operand pairs per task.
    #[must_use]
    pub fn pairs_per_task(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Gathers the input window for conv output `(oy, ox)` in `(ic, kh, kw)`
/// order into `out` from a pre-mapped word tensor (`zero` outside the
/// input — the mapped image of `0.0` padding).
#[allow(clippy::too_many_arguments)]
fn gather_window<W: DataWord>(
    words: &[W],
    h: usize,
    w: usize,
    geo: &ConvGeometry,
    oy: usize,
    ox: usize,
    zero: W,
    out: &mut Vec<W>,
) {
    out.reserve(geo.pairs_per_task());
    for ic in 0..geo.in_channels {
        let channel = &words[ic * h * w..(ic + 1) * h * w];
        for kh in 0..geo.kernel {
            for kw in 0..geo.kernel {
                let iy = oy * geo.stride + kh;
                let ix = ox * geo.stride + kw;
                let word = match (iy.checked_sub(geo.padding), ix.checked_sub(geo.padding)) {
                    (Some(iy), Some(ix)) if iy < h && ix < w => channel[iy * w + ix],
                    _ => zero,
                };
                out.push(word);
            }
        }
    }
}

/// Flattens the weights of output channel `oc` in `(ic, kh, kw)` order.
fn conv_kernel<W: DataWord>(
    weight: &Tensor,
    geo: &ConvGeometry,
    oc: usize,
    to_word: &impl Fn(f32) -> W,
) -> Vec<W> {
    let mut out = Vec::with_capacity(geo.pairs_per_task());
    for ic in 0..geo.in_channels {
        for kh in 0..geo.kernel {
            for kw in 0..geo.kernel {
                out.push(to_word(weight.at4(oc, ic, kh, kw)));
            }
        }
    }
    out
}

/// The input half of a [`LayerTasks`] source: how a task's paired inputs
/// are materialized for a given batch element. Activations are mapped to
/// words **once per tensor** at construction — a conv input pixel sits in
/// up to `k²` overlapping windows, so mapping at window-extraction time
/// would quantize the same value `k²` times.
enum LayerInputs<W> {
    /// Conv windows are gathered lazily per task (deferred to the encode
    /// stage) from the pre-mapped word tensors.
    Conv {
        /// Per batch element: the input tensor as words, `(ic, iy, ix)`
        /// row-major.
        words: Vec<Vec<W>>,
        /// Spatial height/width of the input tensors.
        in_h: usize,
        in_w: usize,
        geo: ConvGeometry,
        /// The mapped image of `0.0` — what zero padding drives onto the
        /// wires, per batch element.
        zero_words: Vec<W>,
    },
    /// Linear layers reuse one word vector per batch element.
    Linear { words: Vec<Vec<W>> },
}

/// Random-access task source for one conv/linear layer over a batch of
/// inputs — the MC-side half of the driver's encode stage.
///
/// Global task id `j` enumerates `batch × tasks-per-input` tasks,
/// batch-major, in exactly the order [`conv_tasks`]/[`linear_tasks`]
/// produce for each input; `j % per_input` equals the task's flat output
/// index. Weight kernels and bias words are materialized **once per
/// layer** at construction (they are shared by every output pixel and
/// every batch element), so [`LayerTasks::build`] only extracts the
/// per-task inputs.
pub struct LayerTasks<W> {
    inputs: LayerInputs<W>,
    /// Weight words per group (conv: one per output channel; linear: one
    /// per output neuron).
    kernels: Vec<Vec<W>>,
    /// Bias word per group.
    bias_words: Vec<W>,
    per_input: usize,
    batch: usize,
}

impl<W: DataWord> LayerTasks<W> {
    /// Builds the source for a convolution layer. `input_mappers` holds
    /// one word mapper per batch element (fixed-8 activation scales are
    /// per-element); weights and biases use the shared mappers.
    pub fn conv(
        xs: &[Tensor],
        weight: &Tensor,
        bias: &Tensor,
        geo: ConvGeometry,
        input_mappers: Vec<impl Fn(f32) -> W>,
        to_weight: impl Fn(f32) -> W,
        to_bias: impl Fn(f32) -> W,
    ) -> Self {
        assert_eq!(
            xs.len(),
            input_mappers.len(),
            "one input mapper per batch element"
        );
        let kernels: Vec<Vec<W>> = (0..geo.out_channels)
            .map(|oc| conv_kernel(weight, &geo, oc, &to_weight))
            .collect();
        let bias_words: Vec<W> = bias.data().iter().map(|&b| to_bias(b)).collect();
        let words: Vec<Vec<W>> = xs
            .iter()
            .zip(&input_mappers)
            .map(|(x, m)| x.data().iter().map(|&v| m(v)).collect())
            .collect();
        let zero_words: Vec<W> = input_mappers.iter().map(|m| m(0.0)).collect();
        Self {
            per_input: geo.task_count(),
            batch: xs.len(),
            inputs: LayerInputs::Conv {
                words,
                in_h: xs[0].shape()[1],
                in_w: xs[0].shape()[2],
                geo,
                zero_words,
            },
            kernels,
            bias_words,
        }
    }

    /// Builds the source for a linear layer.
    pub fn linear(
        xs: &[Tensor],
        weight: &Tensor,
        bias: &Tensor,
        input_mappers: Vec<impl Fn(f32) -> W>,
        to_weight: impl Fn(f32) -> W,
        to_bias: impl Fn(f32) -> W,
    ) -> Self {
        assert_eq!(
            xs.len(),
            input_mappers.len(),
            "one input mapper per batch element"
        );
        let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
        let words: Vec<Vec<W>> = xs
            .iter()
            .zip(&input_mappers)
            .map(|(x, m)| {
                assert_eq!(x.len(), in_f, "linear input length mismatch");
                x.data().iter().map(|&v| m(v)).collect()
            })
            .collect();
        let kernels: Vec<Vec<W>> = (0..out_f)
            .map(|o| {
                weight.data()[o * in_f..(o + 1) * in_f]
                    .iter()
                    .map(|&v| to_weight(v))
                    .collect()
            })
            .collect();
        let bias_words: Vec<W> = bias.data().iter().map(|&b| to_bias(b)).collect();
        Self {
            per_input: out_f,
            batch: xs.len(),
            inputs: LayerInputs::Linear { words },
            kernels,
            bias_words,
        }
    }

    /// Total tasks across the batch.
    #[must_use]
    pub fn total(&self) -> usize {
        self.batch * self.per_input
    }

    /// Tasks per batch element.
    #[must_use]
    pub fn per_input(&self) -> usize {
        self.per_input
    }

    /// Batch elements.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Operand pairs per task.
    #[must_use]
    pub fn pairs_per_task(&self) -> usize {
        self.kernels.first().map_or(0, Vec::len)
    }

    /// The weight group (shared-kernel id) of global task `j`: its weight
    /// vector is `group_weights(weight_group(j))` for every batch element,
    /// which is what lets the encode stage sort each kernel once per
    /// layer.
    #[must_use]
    pub fn weight_group(&self, j: usize) -> usize {
        let local = j % self.per_input;
        match &self.inputs {
            LayerInputs::Conv { geo, .. } => local / (geo.out_h * geo.out_w),
            LayerInputs::Linear { .. } => local,
        }
    }

    /// Number of distinct weight groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.kernels.len()
    }

    /// The shared weight words of a group.
    #[must_use]
    pub fn group_weights(&self, group: usize) -> &[W] {
        &self.kernels[group]
    }

    /// The bias word of a group (same across batch elements: bias scales
    /// derive from the bias tensor alone).
    #[must_use]
    pub fn bias_word(&self, group: usize) -> W {
        self.bias_words[group]
    }

    /// Materializes global task `j` (batch element `j / per_input`, local
    /// task `j % per_input`).
    #[must_use]
    pub fn build(&self, j: usize) -> NeuronTask<W> {
        let mut inputs = Vec::new();
        let (weights, bias) = self.operands_into(j, &mut inputs);
        NeuronTask::new(inputs, weights.to_vec(), bias)
            .expect("layer inputs and kernel have equal length")
    }

    /// The allocation-free view of global task `j`: writes the task's
    /// inputs into `input_buf` (cleared first, capacity reused) and
    /// returns the shared kernel slice plus the bias word. The encode
    /// stage feeds these straight to
    /// `CodedTransport::encode_parts_cached`, so per-task construction
    /// neither clones the kernel nor allocates an input vector.
    pub fn operands_into<'s>(&'s self, j: usize, input_buf: &mut Vec<W>) -> (&'s [W], W) {
        let (b, local) = (j / self.per_input, j % self.per_input);
        let group = self.weight_group(j);
        input_buf.clear();
        match &self.inputs {
            LayerInputs::Conv {
                words,
                in_h,
                in_w,
                geo,
                zero_words,
            } => {
                let pixel = local % (geo.out_h * geo.out_w);
                let (oy, ox) = (pixel / geo.out_w, pixel % geo.out_w);
                gather_window(
                    &words[b],
                    *in_h,
                    *in_w,
                    geo,
                    oy,
                    ox,
                    zero_words[b],
                    input_buf,
                );
            }
            LayerInputs::Linear { words } => input_buf.extend_from_slice(&words[b]),
        }
        (&self.kernels[group], self.bias_words[group])
    }
}

/// Builds every task of a convolution layer using the given word mappers.
///
/// `out_index` is the flat index into the `[out_c, out_h, out_w]` output
/// (equal to the task's position in the returned list). Thin eager
/// wrapper over [`LayerTasks`] for single-input callers and tests.
pub fn conv_tasks<W: DataWord>(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geo: &ConvGeometry,
    to_input: impl Fn(f32) -> W,
    to_weight: impl Fn(f32) -> W,
    to_bias: impl Fn(f32) -> W,
) -> Vec<IndexedTask<W>> {
    let source = LayerTasks::conv(
        std::slice::from_ref(input),
        weight,
        bias,
        *geo,
        vec![to_input],
        to_weight,
        to_bias,
    );
    (0..source.total())
        .map(|j| IndexedTask {
            task: source.build(j),
            out_index: j,
        })
        .collect()
}

/// Builds every task of a linear layer.
pub fn linear_tasks<W: DataWord>(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    to_input: impl Fn(f32) -> W,
    to_weight: impl Fn(f32) -> W,
    to_bias: impl Fn(f32) -> W,
) -> Vec<IndexedTask<W>> {
    let source = LayerTasks::linear(
        std::slice::from_ref(input),
        weight,
        bias,
        vec![to_input],
        to_weight,
        to_bias,
    );
    (0..source.total())
        .map(|j| IndexedTask {
            task: source.build(j),
            out_index: j,
        })
        .collect()
}

/// Fixed-8 word mappers from per-layer quantizers.
pub fn fx8_mappers(
    q: LayerQuantizers,
) -> (
    impl Fn(f32) -> Fx8Word,
    impl Fn(f32) -> Fx8Word,
    impl Fn(f32) -> Fx8Word,
) {
    (
        move |x| q.input.quantize_fx8(x),
        move |x| q.weight.quantize_fx8(x),
        move |x| q.bias.quantize_fx8(x),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::word::F32Word;
    use btr_dnn::model::conv_forward;

    fn sample_conv() -> (Tensor, Tensor, Tensor, ConvGeometry) {
        let input = Tensor::from_vec(
            &[2, 4, 4],
            (0..32).map(|i| (i as f32 * 0.23).sin()).collect(),
        )
        .unwrap();
        let weight = Tensor::from_vec(
            &[3, 2, 3, 3],
            (0..54).map(|i| (i as f32 * 0.17).cos() * 0.3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]).unwrap();
        let geo = ConvGeometry::from_shapes(&input, &weight, 1, 1);
        (input, weight, bias, geo)
    }

    #[test]
    fn geometry_matches_conv_forward() {
        let (input, weight, bias, geo) = sample_conv();
        let out = conv_forward(&input, &weight, &bias, 1, 1);
        assert_eq!(out.shape(), &[geo.out_channels, geo.out_h, geo.out_w]);
        assert_eq!(geo.task_count(), out.len());
        assert_eq!(geo.pairs_per_task(), 18);
    }

    #[test]
    fn f32_conv_tasks_reproduce_conv_forward() {
        let (input, weight, bias, geo) = sample_conv();
        let reference = conv_forward(&input, &weight, &bias, 1, 1);
        let tasks = conv_tasks(
            &input,
            &weight,
            &bias,
            &geo,
            F32Word::new,
            F32Word::new,
            F32Word::new,
        );
        assert_eq!(tasks.len(), geo.task_count());
        for t in &tasks {
            let got = t.task.mac_f64() as f32;
            let want = reference.data()[t.out_index];
            assert!(
                (got - want).abs() < 1e-4,
                "idx {}: {got} vs {want}",
                t.out_index
            );
        }
        // Every output index covered exactly once.
        let mut seen = vec![false; reference.len()];
        for t in &tasks {
            assert!(!seen[t.out_index]);
            seen[t.out_index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f32_linear_tasks_reproduce_linear_forward() {
        let input = Tensor::from_vec(&[5], vec![1.0, -2.0, 0.5, 0.0, 3.0]).unwrap();
        let weight = Tensor::from_vec(
            &[2, 5],
            vec![0.1, 0.2, 0.3, 0.4, 0.5, -0.1, -0.2, -0.3, -0.4, -0.5],
        )
        .unwrap();
        let bias = Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap();
        let reference = btr_dnn::model::linear_forward(&input, &weight, &bias);
        let tasks = linear_tasks(
            &input,
            &weight,
            &bias,
            F32Word::new,
            F32Word::new,
            F32Word::new,
        );
        assert_eq!(tasks.len(), 2);
        for t in &tasks {
            assert!((t.task.mac_f64() as f32 - reference.data()[t.out_index]).abs() < 1e-5);
        }
    }

    #[test]
    fn fx8_dequantized_response_approximates_float() {
        let (input, weight, bias, geo) = sample_conv();
        let reference = conv_forward(&input, &weight, &bias, 1, 1);
        let q = LayerQuantizers::derive(&input, &weight, &bias);
        let (ti, tw, tb) = fx8_mappers(q);
        let tasks = conv_tasks(&input, &weight, &bias, &geo, ti, tw, tb);
        for t in &tasks {
            let mac = t.task.mac_i64();
            let got = q.dequantize_response(mac, t.task.bias().code());
            let want = reference.data()[t.out_index];
            // 8-bit quantization error over an 18-element dot product.
            assert!(
                (got - want).abs() < 0.12,
                "idx {}: {got} vs {want}",
                t.out_index
            );
        }
    }

    #[test]
    fn padding_produces_zero_words() {
        let (input, weight, bias, geo) = sample_conv();
        let tasks = conv_tasks(
            &input,
            &weight,
            &bias,
            &geo,
            F32Word::new,
            F32Word::new,
            F32Word::new,
        );
        // Corner task (0,0) with padding 1: the first window element is
        // out of bounds -> 0.0.
        let corner = &tasks[0];
        assert_eq!(corner.task.inputs()[0].value(), 0.0);
    }
}
