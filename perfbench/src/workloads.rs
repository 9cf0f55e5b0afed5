//! The three workloads. Each one prepares its references untimed, sets
//! itself up (timed, repeatable), runs op `k` of its closed loop, and
//! describes what its traced run measures.

use crate::inputs::{self, Cell, Packets, TABLE1_ROWS};
use crate::trace::LayerChain;
use btr_accel::{InferenceSession, LayerTrafficReport};
use btr_bits::word::DataFormat;
use btr_core::{CodecKind, CodecScope, OrderingMethod};
use btr_dnn::{InferenceOp, Tensor};
use btr_noc::EngineMode;
use std::path::Path;
use std::time::Instant;

/// What one op did, as checked against its reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// The op completed and matched its reference exactly.
    pub ok: bool,
    /// Flit-hops on the NoC workloads; flits streamed on the stream one.
    pub flits: u64,
}

/// One end of a workload's closed loop.
pub trait Workload {
    /// Labels of the configurations op `k` rotates over (`k % len`).
    fn configs(&self) -> Vec<String>;
    /// Builds everything a fresh client needs before its first op, ending
    /// with a warm-up op. Timed by the caller; may be called repeatedly.
    fn setup(&mut self) -> Result<(), String>;
    /// Runs op `k`: returns the raw wall ms of the program call alone and
    /// the checked outcome.
    fn op(&mut self, k: usize) -> (f64, Outcome);
    /// The encode plan the sessions resolved.
    fn plan(&self) -> String;
    /// Exact per-op counts over one full rotation, from the prepare pass:
    /// `(bt_per_op, sim_cycles_per_op, bt_reduction_pct)`.
    fn exact(&self) -> (f64, f64, f64);
    /// Percentile reported as `ms_per_op_tail`.
    fn tail_percentile(&self) -> f64;
    /// Informational lines printed before the metric table.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
    /// The traced run's inputs (built untimed, after the timed loop).
    fn trace_spec(&self) -> Result<TraceSpec, String>;
}

/// A NoC chain to trace: one-op sessions over `inputs[i]`, whose final
/// outputs must equal `outputs[i]`.
pub struct ChainItem {
    pub chain: LayerChain,
    pub inputs: Vec<Vec<Tensor>>,
    pub outputs: Vec<Vec<Tensor>>,
}

/// A first-layer staged replay: `runs[i]` pairs inputs with the untraced
/// run's report of that layer.
pub struct StageItem {
    pub ops: &'static [InferenceOp],
    pub config: btr_accel::AccelConfig,
    pub runs: Vec<(Vec<Tensor>, LayerTrafficReport)>,
}

/// A Table I stream to split into stages, with its reference totals
/// `(baseline BTs, ordered BTs)`.
pub struct StreamItem {
    pub packets: Packets,
    pub seed: u64,
    pub reference: (u64, u64),
}

/// Which traced quantity reconstructs this workload's op: its NoC layers,
/// or (without a NoC) its stream stages.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum OwnLayers {
    Noc,
    Stream,
}

pub struct TraceSpec {
    pub chains: Vec<ChainItem>,
    /// Untraced per-layer reports the `layer.*` counts average over.
    pub reports: Vec<Vec<LayerTrafficReport>>,
    pub stages: Vec<StageItem>,
    pub streams: Vec<StreamItem>,
    pub own: OwnLayers,
}

fn same_outputs(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Checks that a run's per-layer BTs add up to its total.
fn check_layer_sum(reports: &[LayerTrafficReport], total: u64, what: &str) -> Result<(), String> {
    let sum: u64 = reports.iter().map(|l| l.transitions).sum();
    if sum == total {
        Ok(())
    } else {
        Err(format!(
            "{what}: per-layer BTs sum to {sum}, total is {total}"
        ))
    }
}

fn reduction_pct(ordered: u64, baseline: u64) -> f64 {
    100.0 * (1.0 - ordered as f64 / baseline as f64)
}

/// Reference results of one NoC run.
#[derive(Clone)]
struct NocRef {
    outputs: Vec<Tensor>,
    bt: u64,
    cycles: u64,
    reports: Vec<LayerTrafficReport>,
}

fn noc_run(
    session: &InferenceSession<'_>,
    inputs: &[Tensor],
    what: &str,
) -> Result<NocRef, String> {
    let r = session.run(inputs).map_err(|e| format!("{what}: {e}"))?;
    check_layer_sum(&r.per_layer, r.stats.total_transitions, what)?;
    Ok(NocRef {
        outputs: r.outputs,
        bt: r.stats.total_transitions,
        cycles: r.total_cycles,
        reports: r.per_layer,
    })
}

fn timed_run(session: &InferenceSession<'_>, inputs: &[Tensor], want: &NocRef) -> (f64, Outcome) {
    let t = Instant::now();
    let result = session.run(inputs);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, noc_outcome(result.ok(), want))
}

fn noc_outcome(result: Option<btr_accel::report::BatchInferenceResult>, want: &NocRef) -> Outcome {
    let Some(r) = result else {
        return Outcome::default();
    };
    Outcome {
        ok: same_outputs(&r.outputs, &want.outputs)
            && r.stats.total_transitions == want.bt
            && r.total_cycles == want.cycles,
        flits: r.stats.flit_hops,
    }
}

fn session<'a>(ops: &'a [InferenceOp], cell: &Cell) -> Result<InferenceSession<'a>, String> {
    InferenceSession::new(ops, cell.config()).map_err(|e| format!("{}: {e}", cell.label()))
}

fn mean_u64(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = values.fold((0u128, 0u64), |(s, n), v| (s + u128::from(v), n + 1));
    sum as f64 / n as f64
}

// ---------------------------------------------------------------- lenet

/// The served configuration: trained LeNet, fx8, 4x4 MC2, separated
/// ordering, unencoded per-packet links, auto engine, 4-input dispatches.
const LENET_CELL: Cell = Cell {
    format: DataFormat::Fixed8,
    ordering: OrderingMethod::Separated,
    mesh: (4, 4, 2),
    codec: CodecKind::Unencoded,
    scope: CodecScope::PerPacket,
    engine: EngineMode::Auto,
    batch: 4,
};
/// Distinct 4-input batches the session rotates over.
const LENET_BATCHES: usize = 8;

/// References of the served configuration over a set of batches.
struct LenetRefs {
    batches: Vec<Vec<Tensor>>,
    auto: Vec<NocRef>,
    o0_bt: Vec<u64>,
}

/// Runs every batch under auto, under the cycle engine (the reference the
/// auto outputs and BTs must equal) and under O0 (the reduction's base).
fn lenet_refs(ops: &[InferenceOp], batches: Vec<Vec<Tensor>>) -> Result<LenetRefs, String> {
    let auto = session(ops, &LENET_CELL)?;
    let cycle = session(ops, &LENET_CELL.with_engine(EngineMode::Cycle))?;
    let o0 = session(ops, &LENET_CELL.with_ordering(OrderingMethod::Baseline))?;
    let mut refs = LenetRefs {
        batches: Vec::new(),
        auto: Vec::new(),
        o0_bt: Vec::new(),
    };
    for (i, batch) in batches.iter().enumerate() {
        let a = noc_run(&auto, batch, "auto")?;
        let c = noc_run(&cycle, batch, "cycle")?;
        if !same_outputs(&a.outputs, &c.outputs) || a.bt != c.bt {
            return Err(format!(
                "batch {i}: auto (BT {}) diverges from the cycle engine (BT {})",
                a.bt, c.bt
            ));
        }
        refs.o0_bt.push(noc_run(&o0, batch, "O0")?.bt);
        refs.auto.push(a);
    }
    refs.batches = batches;
    Ok(refs)
}

/// The chain and staged-replay trace of the served configuration.
fn lenet_noc_trace(ops: &'static [InferenceOp], refs: &LenetRefs) -> Result<TraceSpec, String> {
    let chain = LayerChain::new(ops, LENET_CELL.config(), true)?;
    // Warm the chain's weight templates like the session's warm-up op.
    chain.run(&refs.batches[0])?;
    Ok(TraceSpec {
        chains: vec![ChainItem {
            chain,
            inputs: refs.batches.clone(),
            outputs: refs.auto.iter().map(|r| r.outputs.clone()).collect(),
        }],
        reports: refs.auto.iter().map(|r| r.reports.clone()).collect(),
        stages: vec![StageItem {
            ops,
            config: LENET_CELL.config(),
            runs: refs
                .batches
                .iter()
                .zip(&refs.auto)
                .map(|(b, r)| (b.clone(), r.reports[0].clone()))
                .collect(),
        }],
        streams: Vec::new(),
        own: OwnLayers::Noc,
    })
}

fn lenet_batches(seed: u64, batches: usize) -> Vec<Vec<Tensor>> {
    inputs::digits(seed, batches * LENET_CELL.batch)
        .chunks(LENET_CELL.batch)
        .map(<[Tensor]>::to_vec)
        .collect()
}

pub struct LenetSession {
    cache_dir: std::path::PathBuf,
    seed: u64,
    refs: LenetRefs,
    state: Option<(InferenceSession<'static>, Vec<Vec<Tensor>>)>,
}

impl LenetSession {
    pub fn prepare(cache_dir: &Path, seed: u64) -> Result<Self, String> {
        inputs::ensure_trained(cache_dir)?;
        let ops = inputs::load_trained(cache_dir)?.inference_ops();
        let refs = lenet_refs(&ops, lenet_batches(seed, LENET_BATCHES))?;
        Ok(Self {
            cache_dir: cache_dir.to_path_buf(),
            seed,
            refs,
            state: None,
        })
    }
}

impl Workload for LenetSession {
    fn configs(&self) -> Vec<String> {
        vec![format!("trained LeNet {}", LENET_CELL.label())]
    }

    fn setup(&mut self) -> Result<(), String> {
        let ops = inputs::static_ops(&inputs::load_trained(&self.cache_dir)?);
        let batches = lenet_batches(self.seed, LENET_BATCHES);
        let session = session(ops, &LENET_CELL)?;
        let warm = session.run(&batches[0]).ok();
        if !noc_outcome(warm, &self.refs.auto[0]).ok {
            return Err("warm-up dispatch does not match its reference".into());
        }
        self.state = Some((session, batches));
        Ok(())
    }

    fn op(&mut self, k: usize) -> (f64, Outcome) {
        let Some((session, batches)) = &self.state else {
            return (0.0, Outcome::default());
        };
        let b = k % batches.len();
        timed_run(session, &batches[b], &self.refs.auto[b])
    }

    fn plan(&self) -> String {
        self.state
            .as_ref()
            .map_or("-".into(), |(s, _)| format!("{:?}", s.plan()))
    }

    fn exact(&self) -> (f64, f64, f64) {
        let auto = &self.refs.auto;
        (
            mean_u64(auto.iter().map(|r| r.bt)),
            mean_u64(auto.iter().map(|r| r.cycles)),
            reduction_pct(
                auto.iter().map(|r| r.bt).sum(),
                self.refs.o0_bt.iter().sum(),
            ),
        )
    }

    fn tail_percentile(&self) -> f64 {
        90.0
    }

    fn trace_spec(&self) -> Result<TraceSpec, String> {
        let trained = inputs::load_trained(&self.cache_dir)?;
        let ops = inputs::static_ops(&trained);
        let mut spec = lenet_noc_trace(ops, &self.refs)?;
        let streams = inputs::table1_streams(&inputs::random_lenet(), &trained, self.seed)?;
        spec.streams = stream_items(streams, &[3], self.seed);
        Ok(spec)
    }
}

fn stream_items(streams: Vec<Packets>, keep: &[usize], seed: u64) -> Vec<StreamItem> {
    streams
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, packets)| {
            let cmp = inputs::compare(&packets, seed);
            StreamItem {
                packets,
                seed,
                reference: (cmp.baseline.transitions, cmp.ordered.transitions),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- sweep

/// Inputs each sweep cell runs on.
const SWEEP_INPUTS: usize = 16;

/// The swept cells: mesh-and-codec × format × ordering (O0 before O2, so
/// cell `c ^ 1` is `c`'s ordering peer).
fn sweep_cells() -> Vec<Cell> {
    let meshes = [
        ((4, 4, 2), CodecKind::Unencoded, CodecScope::PerPacket),
        ((8, 8, 4), CodecKind::DeltaXor, CodecScope::PerLink),
    ];
    let mut cells = Vec::new();
    for (mesh, codec, scope) in meshes {
        for format in [DataFormat::Fixed8, DataFormat::Float32] {
            for ordering in [OrderingMethod::Baseline, OrderingMethod::Separated] {
                cells.push(Cell {
                    format,
                    ordering,
                    mesh,
                    codec,
                    scope,
                    engine: EngineMode::Cycle,
                    batch: 1,
                });
            }
        }
    }
    cells
}

pub struct SweepCold {
    seed: u64,
    cells: Vec<Cell>,
    /// `refs[cell][input]`.
    refs: Vec<Vec<NocRef>>,
    state: Option<(&'static [InferenceOp], Vec<Tensor>)>,
}

impl SweepCold {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let ops = inputs::random_lenet().inference_ops();
        let xs = inputs::digits(seed, SWEEP_INPUTS);
        let cells = sweep_cells();
        let mut refs = Vec::new();
        for cell in &cells {
            let s = session(&ops, cell)?;
            let runs = xs
                .iter()
                .map(|x| noc_run(&s, std::slice::from_ref(x), &cell.label()))
                .collect::<Result<Vec<_>, _>>()?;
            refs.push(runs);
        }
        // Ordering must never change what the network computes.
        for c in (0..cells.len()).step_by(2) {
            for (i, (o0, o2)) in refs[c].iter().zip(&refs[c + 1]).enumerate() {
                if !same_outputs(&o0.outputs, &o2.outputs) {
                    return Err(format!(
                        "{} and {} disagree on input {i}",
                        cells[c].label(),
                        cells[c + 1].label()
                    ));
                }
            }
        }
        Ok(Self {
            seed,
            cells,
            refs,
            state: None,
        })
    }

    fn cell_input(&self, k: usize) -> (usize, usize) {
        (k % self.cells.len(), (k / self.cells.len()) % SWEEP_INPUTS)
    }
}

impl Workload for SweepCold {
    fn configs(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| format!("random LeNet {}", c.label()))
            .collect()
    }

    fn setup(&mut self) -> Result<(), String> {
        let ops = inputs::static_ops(&inputs::random_lenet());
        let xs = inputs::digits(self.seed, SWEEP_INPUTS);
        let first = session(ops, &self.cells[0])?.run(&xs[..1]).ok();
        if !noc_outcome(first, &self.refs[0][0]).ok {
            return Err("warm-up cell does not match its reference".into());
        }
        self.state = Some((ops, xs));
        Ok(())
    }

    fn op(&mut self, k: usize) -> (f64, Outcome) {
        let (c, i) = self.cell_input(k);
        let Some((ops, xs)) = &self.state else {
            return (0.0, Outcome::default());
        };
        let config = self.cells[c].config();
        let t = Instant::now();
        let result =
            InferenceSession::new(ops, config).and_then(|s| s.run(std::slice::from_ref(&xs[i])));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        (ms, noc_outcome(result.ok(), &self.refs[c][i]))
    }

    fn plan(&self) -> String {
        let ops = inputs::random_lenet().inference_ops();
        session(&ops, &self.cells[0]).map_or_else(|e| e, |s| format!("{:?}", s.plan()))
    }

    fn exact(&self) -> (f64, f64, f64) {
        let all = || self.refs.iter().flatten();
        let bt_of = |c: usize| self.refs[c].iter().map(|r| r.bt).sum::<u64>();
        let reductions: Vec<f64> = (0..self.cells.len())
            .step_by(2)
            .map(|c| reduction_pct(bt_of(c + 1), bt_of(c)))
            .collect();
        (
            mean_u64(all().map(|r| r.bt)),
            mean_u64(all().map(|r| r.cycles)),
            crate::stats::mean(&reductions),
        )
    }

    fn tail_percentile(&self) -> f64 {
        90.0
    }

    fn trace_spec(&self) -> Result<TraceSpec, String> {
        let random = inputs::random_lenet();
        let ops = inputs::static_ops(&random);
        let xs = inputs::digits(self.seed, SWEEP_INPUTS);
        let single = |x: &Tensor| vec![x.clone()];
        let mut chains = Vec::new();
        let mut stages = Vec::new();
        for (cell, refs) in self.cells.iter().zip(&self.refs) {
            chains.push(ChainItem {
                chain: LayerChain::new(ops, cell.config(), false)?,
                inputs: xs.iter().map(single).collect(),
                outputs: refs.iter().map(|r| r.outputs.clone()).collect(),
            });
            stages.push(StageItem {
                ops,
                config: cell.config(),
                runs: xs
                    .iter()
                    .zip(refs)
                    .map(|(x, r)| (single(x), r.reports[0].clone()))
                    .collect(),
            });
        }
        let streams = inputs::table1_streams(&random, &random, self.seed)?;
        Ok(TraceSpec {
            chains,
            reports: self
                .refs
                .iter()
                .flatten()
                .map(|r| r.reports.clone())
                .collect(),
            stages,
            streams: stream_items(streams, &[0, 1], self.seed),
            own: OwnLayers::Noc,
        })
    }
}

// ---------------------------------------------------------------- table1

/// Reference totals of one Table I stream comparison.
#[derive(Clone, Copy)]
struct StreamRef {
    bt_base: u64,
    bt_ordered: u64,
    flits: u64,
}

pub struct Table1Stream {
    cache_dir: std::path::PathBuf,
    seed: u64,
    refs: Vec<StreamRef>,
    state: Option<Vec<Packets>>,
}

impl Table1Stream {
    pub fn prepare(cache_dir: &Path, seed: u64) -> Result<Self, String> {
        inputs::ensure_trained(cache_dir)?;
        let trained = inputs::load_trained(cache_dir)?;
        let streams = inputs::table1_streams(&inputs::random_lenet(), &trained, seed)?;
        let refs = streams
            .iter()
            .map(|p| {
                let cmp = inputs::compare(p, seed);
                StreamRef {
                    bt_base: cmp.baseline.transitions,
                    bt_ordered: cmp.ordered.transitions,
                    flits: cmp.baseline.flits + cmp.ordered.flits,
                }
            })
            .collect();
        Ok(Self {
            cache_dir: cache_dir.to_path_buf(),
            seed,
            refs,
            state: None,
        })
    }
}

impl Workload for Table1Stream {
    fn configs(&self) -> Vec<String> {
        TABLE1_ROWS
            .iter()
            .map(|(label, _)| format!("Table I {label}, {} packets", inputs::STREAM_PACKETS))
            .collect()
    }

    fn setup(&mut self) -> Result<(), String> {
        let trained = inputs::load_trained(&self.cache_dir)?;
        let streams = inputs::table1_streams(&inputs::random_lenet(), &trained, self.seed)?;
        let cmp = inputs::compare(&streams[0], self.seed);
        if cmp.ordered.transitions != self.refs[0].bt_ordered {
            return Err("warm-up stream does not match its reference".into());
        }
        self.state = Some(streams);
        Ok(())
    }

    fn op(&mut self, k: usize) -> (f64, Outcome) {
        let Some(streams) = &self.state else {
            return (0.0, Outcome::default());
        };
        let c = k % streams.len();
        let t = Instant::now();
        let cmp = inputs::compare(&streams[c], self.seed);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let want = self.refs[c];
        let outcome = Outcome {
            ok: cmp.baseline.transitions == want.bt_base
                && cmp.ordered.transitions == want.bt_ordered,
            flits: cmp.baseline.flits + cmp.ordered.flits,
        };
        (ms, outcome)
    }

    fn plan(&self) -> String {
        "none (no NoC session)".into()
    }

    fn exact(&self) -> (f64, f64, f64) {
        let reductions: Vec<f64> = self
            .refs
            .iter()
            .map(|r| reduction_pct(r.bt_ordered, r.bt_base))
            .collect();
        (
            mean_u64(self.refs.iter().map(|r| r.bt_base + r.bt_ordered)),
            mean_u64(self.refs.iter().map(|r| r.flits)),
            crate::stats::mean(&reductions),
        )
    }

    fn tail_percentile(&self) -> f64 {
        95.0
    }

    fn notes(&self) -> Vec<String> {
        self.refs
            .iter()
            .zip(TABLE1_ROWS)
            .map(|(r, (label, paper))| {
                format!(
                    "# Table I {label:<12} measured reduction {:6.2}%   paper {paper:5.2}% \
                     (context only: the model is not validated against the paper; not gated)",
                    reduction_pct(r.bt_ordered, r.bt_base)
                )
            })
            .collect()
    }

    fn trace_spec(&self) -> Result<TraceSpec, String> {
        let trained = inputs::load_trained(&self.cache_dir)?;
        let ops = inputs::static_ops(&trained);
        // No NoC here: the layer and stage rows trace one dispatch of the
        // served LeNet configuration as context.
        let refs = lenet_refs(ops, lenet_batches(self.seed, 1))?;
        let mut spec = lenet_noc_trace(ops, &refs)?;
        let streams = inputs::table1_streams(&inputs::random_lenet(), &trained, self.seed)?;
        spec.streams = stream_items(streams, &[0, 1, 2, 3], self.seed);
        spec.own = OwnLayers::Stream;
        Ok(spec)
    }
}
