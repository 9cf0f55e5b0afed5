//! Outside-in layer tracing: every number here comes from timing calls
//! into the public functions of `btr_accel`, `btr_core`, `btr_noc` and
//! `btr_dnn`; the program itself is not instrumented.
//!
//! * [`LayerChain`] runs an inference as a chain of one-op sessions, each
//!   fed the output of the prefix before it, and times every NoC layer.
//! * [`replay_first_layer`] replays the first NoC layer stage by stage
//!   (task build, ordering, weight templates, encode, inject, engine, PE
//!   decode, response path) through the same public calls the driver
//!   makes, in the driver's order, so its packet, flit and transition
//!   counts must equal the layer's `LayerTrafficReport`.
//! * [`stream_stages`] splits one Table I stream comparison into flit
//!   building and transition measurement.

use btr_accel::driver::AccelWord;
use btr_accel::tasks::{ConvGeometry, LayerQuantizers, LayerTasks};
use btr_accel::{AccelConfig, InferenceSession};
use btr_bits::word::{DataFormat, DataWord, F32Word, Fx8Word};
use btr_core::ordering::SortScratch;
use btr_core::stream::{build_stream_flits, measure_flits, Comparison, WindowConfig};
use btr_core::task::RecoveredTask;
use btr_core::transport::{CodedTransport, TaskWireMeta, TransportConfig, TransportScratch};
use btr_core::OrderingMethod;
use btr_dnn::{InferenceOp, Tensor};
use btr_noc::analytic::{routes_contention_free, routes_link_disjoint};
use btr_noc::session::TaskPort;
use btr_noc::sim::{DeliveredPacket, Simulator};
use btr_noc::EngineMode;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// An inference split into one-op sessions, one per NoC layer.
pub struct LayerChain {
    ops: &'static [InferenceOp],
    config: AccelConfig,
    /// Pre-built sessions per op (NoC ops only) for a warm chain; `None`
    /// builds a fresh session inside each timed layer (a cold chain).
    sessions: Option<Vec<Option<InferenceSession<'static>>>>,
}

/// One traced pass through a [`LayerChain`].
pub struct ChainRun {
    /// Raw wall ms of each NoC layer, in op order.
    pub layer_ms: Vec<f64>,
    /// Raw wall ms of the whole chain, memory-side ops included.
    pub total_ms: f64,
    pub outputs: Vec<Tensor>,
}

impl LayerChain {
    pub fn new(
        ops: &'static [InferenceOp],
        config: AccelConfig,
        warm: bool,
    ) -> Result<Self, String> {
        let sessions = if warm {
            let built = (0..ops.len())
                .map(|i| {
                    ops[i]
                        .is_noc_op()
                        .then(|| InferenceSession::new(&ops[i..=i], config.clone()))
                        .transpose()
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            Some(built)
        } else {
            None
        };
        Ok(Self {
            ops,
            config,
            sessions,
        })
    }

    pub fn run(&self, inputs: &[Tensor]) -> Result<ChainRun, String> {
        let start = Instant::now();
        let mut xs = inputs.to_vec();
        let mut layer_ms = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            if !op.is_noc_op() {
                xs = xs.iter().map(|x| op.execute(x)).collect();
                continue;
            }
            let t = Instant::now();
            let result = match &self.sessions {
                Some(sessions) => sessions[i].as_ref().map(|s| s.run(&xs)),
                None => Some(
                    InferenceSession::new(&self.ops[i..=i], self.config.clone())
                        .and_then(|s| s.run(&xs)),
                ),
            }
            .ok_or("warm chain lacks a session for a NoC op")?
            .map_err(|e| e.to_string())?;
            layer_ms.push(ms_since(t));
            xs = result.outputs;
        }
        Ok(ChainRun {
            layer_ms,
            total_ms: ms_since(start),
            outputs: xs,
        })
    }
}

/// Raw wall ms per stage and the counts of one staged replay.
#[derive(Debug, Default, Clone)]
pub struct StageTimes {
    pub task_build: f64,
    pub order: f64,
    pub template: f64,
    pub encode: f64,
    pub inject: f64,
    pub engine: f64,
    pub pe_decode: f64,
    pub response: f64,
    /// Layer cycles not counted as idle (replayed request phases count
    /// as busy).
    pub busy_cycles: u64,
    /// Cycles stepped while no packet was in flight.
    pub idle_cycles: u64,
    pub tasks: u64,
    pub flits: u64,
    pub bt: u64,
    /// The loop the layer resolved to (`cycle`, `analytic` or `hybrid`).
    pub resolved: &'static str,
}

impl StageTimes {
    /// `(name, raw ms)` of every timed stage, in pipeline order.
    pub fn stage_ms(&self) -> [(&'static str, f64); 8] {
        [
            ("task_build", self.task_build),
            ("order", self.order),
            ("template", self.template),
            ("encode", self.encode),
            ("inject", self.inject),
            ("engine", self.engine),
            ("pe_decode", self.pe_decode),
            ("response", self.response),
        ]
    }
}

/// Which loop the driver runs a layer through, resolved with the same
/// public route classifiers the driver uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Cycle,
    Analytic,
    Hybrid,
}

fn resolve_engine(config: &AccelConfig, dests: &[(usize, usize)]) -> Result<Engine, String> {
    match config.engine {
        EngineMode::Cycle => Ok(Engine::Cycle),
        EngineMode::Analytic => Err("the staged replay covers the cycle and auto engines".into()),
        EngineMode::Auto => {
            let requests = || dests.iter().map(|&(pe, mc)| (mc, pe));
            let responses = || dests.iter().map(|&(pe, mc)| (pe, mc));
            Ok(if config.noc.injects_errors() {
                Engine::Cycle
            } else if routes_contention_free(&config.noc, requests().chain(responses())) {
                Engine::Analytic
            } else if routes_contention_free(&config.noc, requests())
                && routes_link_disjoint(&config.noc, requests(), responses())
            {
                Engine::Hybrid
            } else {
                Engine::Cycle
            })
        }
    }
}

/// The driver's static PE regions: each PE joins the nearest non-full MC,
/// most constrained PEs first.
fn pe_regions(config: &AccelConfig) -> Vec<Vec<usize>> {
    let noc = &config.noc;
    let mcs = &noc.mc_nodes;
    let cap = noc.pe_nodes().len().div_ceil(mcs.len());
    let hops = |a, b| btr_noc::routing::hop_count(noc, a, b);
    let mut order = noc.pe_nodes();
    order.sort_by_key(|&pe| Reverse(mcs.iter().map(|&mc| hops(mc, pe)).min().unwrap_or(0)));
    let mut regions: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    for pe in order {
        let best = (0..mcs.len())
            .filter(|&mi| regions[mi].len() < cap)
            .min_by_key(|&mi| hops(mcs[mi], pe))
            .unwrap_or(0);
        regions[best].push(pe);
    }
    for region in &mut regions {
        region.sort_unstable();
    }
    regions
}

/// Replays the first NoC layer of `ops` on `inputs` stage by stage. The
/// layer must be a convolution (conv1 of LeNet).
pub fn replay_first_layer(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
) -> Result<StageTimes, String> {
    let mut xs = inputs.to_vec();
    for op in ops {
        let InferenceOp::Conv {
            weight,
            bias,
            stride,
            padding,
        } = op
        else {
            if op.is_noc_op() {
                return Err("the first NoC layer is not a convolution".into());
            }
            xs = xs.iter().map(|x| op.execute(x)).collect();
            continue;
        };
        let geo = ConvGeometry::from_shapes(&xs[0], weight, *stride, *padding);
        let t = Instant::now();
        return match config.format {
            DataFormat::Fixed8 => {
                let qs: Vec<LayerQuantizers> = xs
                    .iter()
                    .map(|x| {
                        LayerQuantizers::derive_with(x, weight, bias, config.global_fx8_weights)
                    })
                    .collect();
                let q0 = qs[0];
                let mappers = qs
                    .iter()
                    .map(|&q| {
                        Box::new(move |x| q.input.quantize_fx8(x))
                            as Box<dyn Fn(f32) -> Fx8Word + Send + Sync>
                    })
                    .collect();
                let source = LayerTasks::conv(
                    &xs,
                    weight,
                    bias,
                    geo,
                    mappers,
                    move |w| q0.weight.quantize_fx8(w),
                    move |b| q0.bias.quantize_fx8(b),
                );
                replay_layer(&source, config, t)
            }
            DataFormat::Float32 => {
                let mappers = xs
                    .iter()
                    .map(|_| Box::new(F32Word::new) as Box<dyn Fn(f32) -> F32Word + Send + Sync>)
                    .collect();
                let source =
                    LayerTasks::conv(&xs, weight, bias, geo, mappers, F32Word::new, F32Word::new);
                replay_layer(&source, config, t)
            }
            other => Err(format!("format {other} is not replayed")),
        };
    }
    Err("the model has no NoC layer".into())
}

/// The staged replay proper. `build_start` marks when task-source
/// construction began, so `task_build` covers it and the operand gather.
fn replay_layer<W: AccelWord>(
    source: &LayerTasks<W>,
    config: &AccelConfig,
    build_start: Instant,
) -> Result<StageTimes, String> {
    let total = source.total();
    let task_inputs: Vec<Vec<W>> = (0..total)
        .map(|j| {
            let mut buf = Vec::new();
            source.operands_into(j, &mut buf);
            buf
        })
        .collect();
    let mut st = StageTimes {
        task_build: ms_since(build_start),
        tasks: total as u64,
        ..StageTimes::default()
    };

    // Ordering unit: one descending order per kernel group (cached by the
    // driver) and, for separated ordering, one per task's inputs (the
    // encode stage repeats this sort inside the template render).
    let t = Instant::now();
    let mut scratch = SortScratch::default();
    let mut perm = Vec::new();
    let mut wperms = Vec::with_capacity(source.group_count());
    if config.ordering != OrderingMethod::Baseline {
        for g in 0..source.group_count() {
            config
                .tiebreak
                .descending_order_into(source.group_weights(g), &mut scratch, &mut perm);
            wperms.push(std::mem::take(&mut perm));
        }
    }
    if config.ordering == OrderingMethod::Separated {
        for inputs in &task_inputs {
            config
                .tiebreak
                .descending_order_into(inputs, &mut scratch, &mut perm);
        }
    }
    st.order = ms_since(t);

    let session = CodedTransport::new(TransportConfig {
        ordering: config.ordering,
        tiebreak: config.tiebreak,
        values_per_flit: config.values_per_flit,
        codec: config.codec,
        scope: config.codec_scope,
        edc: config.edc,
    });
    let mut scratch = TransportScratch::default();
    let t = Instant::now();
    let templates = (0..source.group_count())
        .map(|g| {
            session.weight_template(
                source.group_weights(g),
                source.bias_word(g),
                wperms.get(g).map(Vec::as_slice),
                &mut scratch,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    st.template = ms_since(t);

    let t = Instant::now();
    let mut encoded = task_inputs
        .iter()
        .enumerate()
        .map(|(j, inputs)| {
            session
                .encode_with_template(&templates[source.weight_group(j)], inputs, &mut scratch)
                .map(Some)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    st.encode = ms_since(t);

    // The driver's static assignment: task j -> MC round-robin, then
    // round-robin over that MC's PE region.
    let mcs = &config.noc.mc_nodes;
    let regions = pe_regions(config);
    let dests: Vec<(usize, usize)> = (0..total)
        .map(|j| {
            let mi = j % mcs.len();
            (regions[mi][(j / mcs.len()) % regions[mi].len()], mcs[mi])
        })
        .collect();
    let mut per_mc: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    for j in 0..total {
        per_mc[j % mcs.len()].push(j);
    }

    let engine = resolve_engine(config, &dests)?;
    let mut layer = LayerReplay {
        config,
        port: TaskPort::new(session),
        sim: Simulator::new(config.noc.clone()),
        dests,
        wires: vec![None; total],
        recovered: RecoveredTask {
            pairs: Vec::new(),
            bias: W::from_bits_u64(0),
        },
        scratch,
        delivered: Vec::new(),
        remaining: total,
        st,
    };
    match engine {
        Engine::Cycle => layer.cycle_loop(&per_mc, &mut encoded)?,
        Engine::Analytic | Engine::Hybrid => {
            let staged = layer.replay_requests(&per_mc, &mut encoded)?;
            if engine == Engine::Hybrid {
                layer.step_responses(&staged)?;
            } else {
                layer.replay_responses(&staged)?;
            }
        }
    }
    let mut st = layer.st;
    st.resolved = match engine {
        Engine::Cycle => "cycle",
        Engine::Analytic => "analytic",
        Engine::Hybrid => "hybrid",
    };
    st.bt = layer.sim.stats().total_transitions;
    st.busy_cycles = layer.sim.cycle() - st.idle_cycles;
    Ok(st)
}

/// Mutable state of one replayed layer.
struct LayerReplay<'c, W: AccelWord> {
    config: &'c AccelConfig,
    port: TaskPort<CodedTransport>,
    sim: Simulator,
    dests: Vec<(usize, usize)>,
    wires: Vec<Option<TaskWireMeta>>,
    recovered: RecoveredTask<W>,
    scratch: TransportScratch,
    delivered: Vec<DeliveredPacket>,
    remaining: usize,
    st: StageTimes,
}

type Encoded<W> = Option<btr_core::transport::EncodedTask<W>>;

impl<W: AccelWord> LayerReplay<'_, W> {
    fn send(&mut self, j: usize, encoded: &mut [Encoded<W>]) -> Result<(), String> {
        let task = encoded[j].take().ok_or("task encoded twice")?;
        let (pe, mc) = self.dests[j];
        let sent = self
            .port
            .send_encoded(&mut self.sim, mc, pe, task, j as u64)
            .map_err(|e| e.to_string())?;
        self.st.flits += sent.flit_count as u64;
        self.wires[j] = Some(sent.meta);
        Ok(())
    }

    /// Runs the NI acceptance check (perfect wires: always clean).
    fn accept(&mut self, d: &DeliveredPacket) -> Result<(), String> {
        match self.port.accept::<W>(&mut self.sim, d) {
            Ok(Some(_)) => Ok(()),
            Ok(None) => Err("a delivery was NACKed on perfect wires".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// PE side: decodes a request and returns its MAC response bits.
    fn pe_decode(&mut self, d: &DeliveredPacket) -> Result<u64, String> {
        let wire = self.wires[d.tag as usize]
            .as_ref()
            .ok_or("delivery before send")?;
        self.port
            .session()
            .decode_task_into::<W>(
                wire,
                &d.payload_flits,
                &mut self.scratch,
                &mut self.recovered,
            )
            .map_err(|e| e.to_string())?;
        Ok(W::response_bits(&self.recovered))
    }

    fn send_response(&mut self, j: usize, bits: u64) -> Result<(), String> {
        let image = self.port.session().encode_response::<W>(bits);
        let (pe, mc) = self.dests[j];
        self.port
            .send_flits(&mut self.sim, pe, mc, vec![image], j as u64)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// MC side: decodes every response delivered so far.
    fn collect_responses(&mut self) -> Result<(), String> {
        let delivered = std::mem::take(&mut self.delivered);
        for d in &delivered {
            self.accept(d)?;
            self.port
                .session()
                .decode_response::<W>(&d.payload_flits)
                .map_err(|e| e.to_string())?;
            self.remaining -= 1;
        }
        self.delivered = delivered;
        Ok(())
    }

    fn step(&mut self) {
        if self.sim.in_flight() == 0 {
            self.st.idle_cycles += 1;
        }
        let t = Instant::now();
        self.sim.step();
        self.sim.drain_all_delivered_into(&mut self.delivered);
        self.st.engine += ms_since(t);
    }

    fn stall_guard(&self, start: u64) -> Result<(), String> {
        let cycles = self.sim.cycle() - start;
        if cycles > self.config.max_cycles_per_layer {
            return Err(format!("replayed layer stalled after {cycles} cycles"));
        }
        Ok(())
    }

    /// The cycle engine's loop: top up the MC prefetch buffers, step,
    /// decode deliveries, inject finished responses.
    fn cycle_loop(
        &mut self,
        per_mc: &[Vec<usize>],
        encoded: &mut [Encoded<W>],
    ) -> Result<(), String> {
        let mcs = self.config.noc.mc_nodes.clone();
        let mut cursors = vec![0usize; mcs.len()];
        let mut compute: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        let start = self.sim.cycle();
        while self.remaining > 0 {
            let t = Instant::now();
            for (mi, &mc) in mcs.iter().enumerate() {
                while self.sim.pending_at(mc) < self.config.mc_prefetch_packets {
                    let Some(&j) = per_mc[mi].get(cursors[mi]) else {
                        break;
                    };
                    cursors[mi] += 1;
                    self.send(j, encoded)?;
                }
            }
            self.st.inject += ms_since(t);
            self.step();
            if !self.delivered.is_empty() {
                let delivered = std::mem::take(&mut self.delivered);
                for d in &delivered {
                    self.accept(d)?;
                    let t = Instant::now();
                    if self.config.noc.is_mc(d.dst) {
                        self.port
                            .session()
                            .decode_response::<W>(&d.payload_flits)
                            .map_err(|e| e.to_string())?;
                        self.remaining -= 1;
                        self.st.response += ms_since(t);
                    } else {
                        let bits = self.pe_decode(d)?;
                        let pairs = self.wires[d.tag as usize]
                            .as_ref()
                            .map_or(0, |w| w.num_pairs);
                        let ready = self.sim.cycle() + self.config.pe_latency(pairs);
                        compute.push(Reverse((ready, d.tag as usize, bits)));
                        self.st.pe_decode += ms_since(t);
                    }
                }
                self.delivered = delivered;
            }
            if compute.peek().is_some_and(|r| r.0 .0 <= self.sim.cycle()) {
                let t = Instant::now();
                while let Some(&Reverse((ready, j, bits))) = compute.peek() {
                    if ready > self.sim.cycle() {
                        break;
                    }
                    compute.pop();
                    self.send_response(j, bits)?;
                }
                self.st.response += ms_since(t);
            }
            self.stall_guard(start)?;
        }
        Ok(())
    }

    /// The analytic request phase: queue every request, replay, decode at
    /// the PEs. Returns `(task, response bits, ready cycle)` in the order
    /// the cycle engine's compute heap would pop them.
    fn replay_requests(
        &mut self,
        per_mc: &[Vec<usize>],
        encoded: &mut [Encoded<W>],
    ) -> Result<Vec<(usize, u64, u64)>, String> {
        let t = Instant::now();
        for tasks in per_mc {
            for &j in tasks {
                self.send(j, encoded)?;
            }
        }
        self.st.inject += ms_since(t);
        let t = Instant::now();
        self.sim.replay_queued_analytic(true);
        self.sim.drain_all_delivered_into(&mut self.delivered);
        self.st.engine += ms_since(t);
        let t = Instant::now();
        let delivered = std::mem::take(&mut self.delivered);
        let mut staged = Vec::with_capacity(delivered.len());
        for d in &delivered {
            self.accept(d)?;
            let bits = self.pe_decode(d)?;
            let pairs = self.wires[d.tag as usize]
                .as_ref()
                .map_or(0, |w| w.num_pairs);
            staged.push((
                d.tag as usize,
                bits,
                d.arrival_cycle + self.config.pe_latency(pairs),
            ));
        }
        self.delivered = delivered;
        staged.sort_unstable_by_key(|&(j, _, ready)| (ready, j));
        self.st.pe_decode += ms_since(t);
        Ok(staged)
    }

    /// The hybrid response phase: step the cycle engine, injecting each
    /// response at its ready offset from the first one.
    fn step_responses(&mut self, staged: &[(usize, u64, u64)]) -> Result<(), String> {
        let base = self.sim.cycle();
        let ready0 = staged.first().map_or(0, |&(.., ready)| ready);
        let mut next = 0;
        while self.remaining > 0 {
            if staged
                .get(next)
                .is_some_and(|&(.., ready)| base + (ready - ready0) <= self.sim.cycle())
            {
                let t = Instant::now();
                while let Some(&(j, bits, ready)) = staged.get(next) {
                    if base + (ready - ready0) > self.sim.cycle() {
                        break;
                    }
                    self.send_response(j, bits)?;
                    next += 1;
                }
                self.st.response += ms_since(t);
            }
            self.step();
            if !self.delivered.is_empty() {
                let t = Instant::now();
                self.collect_responses()?;
                self.st.response += ms_since(t);
            }
            self.stall_guard(base)?;
        }
        Ok(())
    }

    /// The analytic response phase: jump over the PE compute interval,
    /// queue every response, replay.
    fn replay_responses(&mut self, staged: &[(usize, u64, u64)]) -> Result<(), String> {
        self.sim
            .advance_cycle_to(staged.iter().map(|&(.., ready)| ready).max().unwrap_or(0));
        let t = Instant::now();
        for &(j, bits, _) in staged {
            self.send_response(j, bits)?;
        }
        self.st.response += ms_since(t);
        let t = Instant::now();
        self.sim.replay_queued_analytic(true);
        self.sim.drain_all_delivered_into(&mut self.delivered);
        self.st.engine += ms_since(t);
        let t = Instant::now();
        self.collect_responses()?;
        self.st.response += ms_since(t);
        Ok(())
    }
}

/// Raw wall ms and counts of one Table I comparison split into stages.
#[derive(Debug, Default, Clone)]
pub struct StreamStages {
    pub build_base: f64,
    pub build_ordered: f64,
    pub measure: f64,
    /// Flits per stream (baseline and ordered streams are equally long).
    pub flits: u64,
    pub bt_base: u64,
    pub bt_ordered: u64,
}

/// Builds and measures both Table I streams, timing each stage, in the
/// order `compare_windowed` runs them (each stream is built, measured and
/// dropped before the next one is built).
pub fn stream_stages<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    comparison: Comparison,
) -> StreamStages {
    let build_and_measure = |ordered: bool| {
        let t = Instant::now();
        let flits = build_stream_flits(packets, config, ordered);
        let build = ms_since(t);
        let t = Instant::now();
        let report = measure_flits::<W>(&flits, config.values_per_flit, comparison, 0);
        (build, ms_since(t), report)
    };
    let (build_base, measure_base, base) = build_and_measure(false);
    let (build_ordered, measure_ordered, ordered) = build_and_measure(true);
    StreamStages {
        build_base,
        build_ordered,
        measure: measure_base + measure_ordered,
        flits: base.flits,
        bt_base: base.transitions,
        bt_ordered: ordered.transitions,
    }
}
