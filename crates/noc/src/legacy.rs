//! The original map/deque-based cycle simulator, kept as a semantics
//! oracle.
//!
//! [`LegacySimulator`] is the first implementation of the wormhole mesh:
//! routers hold `Vec<Vec<_>>` port/VC structures with `VecDeque` FIFOs, and
//! packet bookkeeping lives in `HashMap`s. It is cycle-for-cycle,
//! bit-for-bit equivalent to the flat-array engine in [`crate::sim`] — the
//! integration test `tests/transport_parity.rs` (and `bench_noc`) hold the
//! two implementations against each other. New code should use
//! [`crate::sim::Simulator`]; this module exists so every future hot-path
//! change can be checked against a straightforward reference.

use crate::config::{NocConfig, NodeId};
use crate::flit::Flit;
use crate::packet::Packet;
use crate::routing::{route, Direction};
use crate::sim::{DeliveredPacket, InjectError, StallError};
use crate::stats::{LatencyStats, LinkStat, NocStats};
use btr_bits::transition::TransitionRecorder;
use std::collections::{HashMap, VecDeque};

const LOCAL: usize = 0;
const NUM_PORTS: usize = 5;

/// One virtual-channel input buffer and its head-of-line packet state.
#[derive(Debug)]
struct InputVc {
    fifo: VecDeque<Flit>,
    route_port: Option<usize>,
    out_vc: Option<usize>,
}

impl InputVc {
    fn new() -> Self {
        Self {
            fifo: VecDeque::new(),
            route_port: None,
            out_vc: None,
        }
    }
}

#[derive(Debug)]
struct Router {
    /// `[port][vc]` input buffers.
    inputs: Vec<Vec<InputVc>>,
    /// `[port][vc]` output-VC holder: which (in_port, in_vc) owns it.
    out_alloc: Vec<Vec<Option<(usize, usize)>>>,
    /// `[port][vc]` credits toward the downstream input buffer.
    credits: Vec<Vec<usize>>,
    /// Round-robin pointer per output port for switch allocation.
    sw_rr: Vec<usize>,
    /// Round-robin pointer per output port for VC allocation.
    vc_rr: Vec<usize>,
}

impl Router {
    fn new(num_vcs: usize, depth: usize) -> Self {
        Self {
            inputs: (0..NUM_PORTS)
                .map(|_| (0..num_vcs).map(|_| InputVc::new()).collect())
                .collect(),
            out_alloc: vec![vec![None; num_vcs]; NUM_PORTS],
            credits: vec![vec![depth; num_vcs]; NUM_PORTS],
            sw_rr: vec![0; NUM_PORTS],
            vc_rr: vec![0; NUM_PORTS],
        }
    }
}

#[derive(Debug, Default)]
struct Reassembly {
    payload_flits: Vec<btr_bits::payload::PayloadBits>,
    tag: u64,
    src: NodeId,
}

#[derive(Debug)]
struct NiState {
    /// Flit queues of packets not yet fully injected, in order.
    pending: VecDeque<VecDeque<Flit>>,
    /// VC assigned to the packet currently being injected.
    current_vc: usize,
    /// Round-robin pointer for per-packet VC assignment.
    vc_rr: usize,
    /// Credits toward the router's local input VC buffers.
    credits: Vec<usize>,
    /// Packets being reassembled at this destination.
    reassembly: HashMap<u64, Reassembly>,
    /// Completed deliveries awaiting pickup.
    delivered: VecDeque<DeliveredPacket>,
}

impl NiState {
    fn new(num_vcs: usize, depth: usize) -> Self {
        Self {
            pending: VecDeque::new(),
            current_vc: 0,
            vc_rr: 0,
            credits: vec![depth; num_vcs],
            reassembly: HashMap::new(),
            delivered: VecDeque::new(),
        }
    }
}

/// The reference map/deque-based mesh simulator (see module docs).
#[derive(Debug)]
pub struct LegacySimulator {
    config: NocConfig,
    routers: Vec<Router>,
    nis: Vec<NiState>,
    /// Flits on inter-router / injection links, delivered next cycle:
    /// `(dst_router, in_port, vc, flit)`.
    link_inflight: Vec<(usize, usize, usize, Flit)>,
    /// Flits on ejection links, delivered to the NI next cycle.
    eject_inflight: Vec<(usize, Flit)>,
    /// BT recorders per router output port (`Local` = ejection link).
    out_recorders: Vec<Vec<TransitionRecorder>>,
    /// BT recorders per injection link (NI→router).
    inject_recorders: Vec<TransitionRecorder>,
    /// Inject cycle per in-flight packet.
    packet_meta: HashMap<u64, u64>,
    latencies: Vec<u64>,
    cycle: u64,
    next_packet_id: u64,
    packets_in_flight: u64,
    packets_delivered: u64,
    flits_delivered: u64,
    /// Count of delivered packets not yet drained.
    delivered_pending: u64,
}

impl LegacySimulator {
    /// Builds a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NocConfig::validate`]).
    #[must_use]
    pub fn new(config: NocConfig) -> Self {
        config.validate().expect("invalid NoC configuration");
        assert!(
            config.link_codec.is_none(),
            "per-link codec state is a flat-engine feature; the legacy oracle models raw wires"
        );
        let n = config.num_nodes();
        Self {
            routers: (0..n)
                .map(|_| Router::new(config.num_vcs, config.vc_buffer_depth))
                .collect(),
            nis: (0..n)
                .map(|_| NiState::new(config.num_vcs, config.vc_buffer_depth))
                .collect(),
            link_inflight: Vec::new(),
            eject_inflight: Vec::new(),
            out_recorders: (0..n)
                .map(|_| {
                    (0..NUM_PORTS)
                        .map(|_| TransitionRecorder::total_only(config.link_width_bits))
                        .collect()
                })
                .collect(),
            inject_recorders: (0..n)
                .map(|_| TransitionRecorder::total_only(config.link_width_bits))
                .collect(),
            packet_meta: HashMap::new(),
            latencies: Vec::new(),
            cycle: 0,
            next_packet_id: 0,
            packets_in_flight: 0,
            packets_delivered: 0,
            flits_delivered: 0,
            delivered_pending: 0,
            config,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Queues a packet at its source NI.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if nodes are out of range or a payload flit
    /// exceeds the link width.
    pub fn inject(&mut self, packet: Packet) -> Result<u64, InjectError> {
        let n = self.config.num_nodes();
        if packet.src >= n {
            return Err(InjectError::NodeOutOfRange(packet.src));
        }
        if packet.dst >= n {
            return Err(InjectError::NodeOutOfRange(packet.dst));
        }
        for p in &packet.payload_flits {
            if p.width() > self.config.link_width_bits {
                return Err(InjectError::PayloadTooWide {
                    width: p.width(),
                    link: self.config.link_width_bits,
                });
            }
        }
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let flits: VecDeque<Flit> = packet
            .to_flits(id, self.config.link_width_bits)
            .into_iter()
            .collect();
        self.nis[packet.src].pending.push_back(flits);
        self.packet_meta.insert(id, self.cycle);
        self.packets_in_flight += 1;
        Ok(id)
    }

    /// True when no packet is anywhere in the network.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.packets_in_flight == 0
    }

    /// Packets currently in flight (queued, buffered, or on links).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.packets_in_flight
    }

    /// Takes all packets delivered to `node` so far.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn drain_delivered(&mut self, node: NodeId) -> Vec<DeliveredPacket> {
        let out: Vec<DeliveredPacket> = self.nis[node].delivered.drain(..).collect();
        self.delivered_pending -= out.len() as u64;
        out
    }

    /// Takes every delivered packet across all nodes (ordered by node,
    /// then delivery order).
    pub fn drain_all_delivered(&mut self) -> Vec<DeliveredPacket> {
        if self.delivered_pending == 0 {
            return Vec::new();
        }
        self.delivered_pending = 0;
        let mut out = Vec::new();
        for ni in &mut self.nis {
            out.extend(ni.delivered.drain(..));
        }
        out
    }

    /// Number of packets queued at `node`'s NI that have not finished
    /// injecting.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn pending_at(&self, node: NodeId) -> usize {
        self.nis[node].pending.len()
    }

    /// Runs until every injected packet is delivered.
    ///
    /// # Errors
    ///
    /// Returns [`StallError`] if the network has not drained after
    /// `max_cycles` additional cycles.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<u64, StallError> {
        let start = self.cycle;
        while !self.is_idle() {
            if self.cycle - start >= max_cycles {
                return Err(StallError {
                    cycles: self.cycle - start,
                    in_flight: self.packets_in_flight,
                });
            }
            self.step();
        }
        Ok(self.cycle - start)
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        self.deliver_link_flits();
        self.inject_from_nis();
        self.route_and_switch();
        self.cycle += 1;
    }

    /// Phase 1: flits that were on links land in downstream buffers / NIs.
    fn deliver_link_flits(&mut self) {
        let arrivals = std::mem::take(&mut self.link_inflight);
        for (dst, port, vc, flit) in arrivals {
            let fifo = &mut self.routers[dst].inputs[port][vc].fifo;
            fifo.push_back(flit);
            debug_assert!(
                fifo.len() <= self.config.vc_buffer_depth,
                "credit protocol violated: buffer overflow at router {dst} port {port} vc {vc}"
            );
        }
        let ejections = std::mem::take(&mut self.eject_inflight);
        for (node, flit) in ejections {
            self.receive_at_ni(node, flit);
        }
    }

    /// Phase 2: each NI pushes at most one flit into its router.
    fn inject_from_nis(&mut self) {
        for node in 0..self.config.num_nodes() {
            let num_vcs = self.config.num_vcs;
            let ni = &mut self.nis[node];
            let starting = match ni.pending.front() {
                Some(q) => {
                    let is_fresh = q.front().is_some_and(|f| f.seq == 0);
                    if is_fresh {
                        ni.current_vc = ni.vc_rr;
                        ni.vc_rr = (ni.vc_rr + 1) % num_vcs;
                    }
                    true
                }
                None => false,
            };
            if !starting {
                continue;
            }
            let vc = ni.current_vc;
            if ni.credits[vc] == 0 {
                continue;
            }
            let queue = ni.pending.front_mut().expect("checked non-empty");
            let flit = queue.pop_front().expect("queues are never left empty");
            if queue.is_empty() {
                ni.pending.pop_front();
            }
            ni.credits[vc] -= 1;
            self.inject_recorders[node].observe(&flit.payload);
            self.link_inflight.push((node, LOCAL, vc, flit));
        }
    }

    /// Phase 3: per-router route computation, VC allocation, switch
    /// allocation and link traversal.
    fn route_and_switch(&mut self) {
        let num_vcs = self.config.num_vcs;
        for r in 0..self.config.num_nodes() {
            for p in 0..NUM_PORTS {
                for v in 0..num_vcs {
                    let input = &mut self.routers[r].inputs[p][v];
                    if input.route_port.is_none() {
                        if let Some(front) = input.fifo.front() {
                            if front.kind.is_head() {
                                input.route_port = Some(route(&self.config, r, front.dst).index());
                            }
                        }
                    }
                }
            }
            for p in 0..NUM_PORTS {
                for v in 0..num_vcs {
                    let (needs_vc, op) = {
                        let input = &self.routers[r].inputs[p][v];
                        let is_head_waiting = input.fifo.front().is_some_and(|f| f.kind.is_head())
                            && input.out_vc.is_none();
                        match (is_head_waiting, input.route_port) {
                            (true, Some(op)) => (true, op),
                            _ => (false, 0),
                        }
                    };
                    if !needs_vc {
                        continue;
                    }
                    let router = &mut self.routers[r];
                    let start = router.vc_rr[op];
                    for k in 0..num_vcs {
                        let ovc = (start + k) % num_vcs;
                        if router.out_alloc[op][ovc].is_none() {
                            router.out_alloc[op][ovc] = Some((p, v));
                            router.inputs[p][v].out_vc = Some(ovc);
                            router.vc_rr[op] = (ovc + 1) % num_vcs;
                            break;
                        }
                    }
                }
            }
            let mut input_port_used = [false; NUM_PORTS];
            for op in 0..NUM_PORTS {
                let winner = {
                    let router = &self.routers[r];
                    let start = router.sw_rr[op];
                    let mut found = None;
                    for k in 0..NUM_PORTS * num_vcs {
                        let idx = (start + k) % (NUM_PORTS * num_vcs);
                        let (p, v) = (idx / num_vcs, idx % num_vcs);
                        if input_port_used[p] {
                            continue;
                        }
                        let input = &router.inputs[p][v];
                        if input.fifo.is_empty() || input.route_port != Some(op) {
                            continue;
                        }
                        let Some(ovc) = input.out_vc else { continue };
                        if op != LOCAL && router.credits[op][ovc] == 0 {
                            continue;
                        }
                        found = Some((p, v, ovc, idx));
                        break;
                    }
                    found
                };
                let Some((p, v, ovc, idx)) = winner else {
                    continue;
                };
                input_port_used[p] = true;
                let router = &mut self.routers[r];
                router.sw_rr[op] = (idx + 1) % (NUM_PORTS * num_vcs);
                let flit = router.inputs[p][v]
                    .fifo
                    .pop_front()
                    .expect("winner has a flit");
                let is_tail = flit.kind.is_tail();
                if is_tail {
                    router.out_alloc[op][ovc] = None;
                    router.inputs[p][v].route_port = None;
                    router.inputs[p][v].out_vc = None;
                }
                self.out_recorders[r][op].observe(&flit.payload);
                if op == LOCAL {
                    self.eject_inflight.push((r, flit));
                } else {
                    self.routers[r].credits[op][ovc] -= 1;
                    let (nr, np) = self.neighbor(r, op);
                    self.link_inflight.push((nr, np, ovc, flit));
                }
                if p == LOCAL {
                    self.nis[r].credits[v] += 1;
                } else {
                    let (ur, u_op) = self.upstream(r, p);
                    self.routers[ur].credits[u_op][v] += 1;
                }
            }
        }
    }

    /// Downstream router and its input port for an output direction.
    fn neighbor(&self, r: usize, out_port: usize) -> (usize, usize) {
        let dir = Direction::ALL[out_port];
        let (row, col) = self.config.position(r);
        let nr = match dir {
            Direction::North => self.config.node_at(row - 1, col),
            Direction::South => self.config.node_at(row + 1, col),
            Direction::East => self.config.node_at(row, col + 1),
            Direction::West => self.config.node_at(row, col - 1),
            Direction::Local => unreachable!("local handled as ejection"),
        };
        (nr, dir.opposite().index())
    }

    /// Upstream router and the output port that feeds input port `p`.
    fn upstream(&self, r: usize, in_port: usize) -> (usize, usize) {
        let dir = Direction::ALL[in_port];
        let (row, col) = self.config.position(r);
        let ur = match dir {
            Direction::North => self.config.node_at(row - 1, col),
            Direction::South => self.config.node_at(row + 1, col),
            Direction::East => self.config.node_at(row, col + 1),
            Direction::West => self.config.node_at(row, col - 1),
            Direction::Local => unreachable!("local input is fed by the NI"),
        };
        (ur, dir.opposite().index())
    }

    /// Accepts a flit at the destination NI, reassembling packets.
    fn receive_at_ni(&mut self, node: usize, flit: Flit) {
        self.flits_delivered += 1;
        let ni = &mut self.nis[node];
        let entry = ni.reassembly.entry(flit.packet_id).or_default();
        if flit.kind.is_head() {
            let (src, _dst, _len, tag) = crate::packet::decode_head_payload(&flit.payload);
            entry.src = src;
            entry.tag = tag;
            debug_assert_eq!(src, flit.src, "head metadata corrupted");
        } else {
            entry.payload_flits.push(flit.payload);
        }
        if flit.kind.is_tail() {
            let done = ni
                .reassembly
                .remove(&flit.packet_id)
                .expect("entry just touched");
            let inject_cycle = self
                .packet_meta
                .remove(&flit.packet_id)
                .expect("packet meta tracked at inject");
            let delivered = DeliveredPacket {
                packet_id: flit.packet_id,
                src: done.src,
                dst: node,
                tag: done.tag,
                payload_flits: btr_bits::packed::PackedFlits::from_payloads(
                    self.config.link_width_bits,
                    &done.payload_flits,
                ),
                inject_cycle,
                arrival_cycle: self.cycle,
            };
            self.latencies.push(delivered.latency());
            ni.delivered.push_back(delivered);
            self.delivered_pending += 1;
            self.packets_in_flight -= 1;
            self.packets_delivered += 1;
        }
    }

    /// Builds a statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> NocStats {
        let mut per_link = Vec::new();
        let mut inter = 0u64;
        let mut eject = 0u64;
        let mut injectt = 0u64;
        let mut hops = 0u64;
        for (r, ports) in self.out_recorders.iter().enumerate() {
            for (p, rec) in ports.iter().enumerate() {
                if rec.flits() == 0 {
                    continue;
                }
                if p == LOCAL {
                    eject += rec.total();
                } else {
                    inter += rec.total();
                }
                hops += rec.flits();
                per_link.push(LinkStat {
                    node: r,
                    direction: Direction::ALL[p],
                    injection: false,
                    transitions: rec.total(),
                    flits: rec.flits(),
                });
            }
        }
        for (n, rec) in self.inject_recorders.iter().enumerate() {
            if rec.flits() == 0 {
                continue;
            }
            injectt += rec.total();
            hops += rec.flits();
            per_link.push(LinkStat {
                node: n,
                direction: Direction::Local,
                injection: true,
                transitions: rec.total(),
                flits: rec.flits(),
            });
        }
        NocStats {
            cycles: self.cycle,
            total_transitions: inter + eject + injectt,
            inter_router_transitions: inter,
            injection_transitions: injectt,
            ejection_transitions: eject,
            flit_hops: hops,
            packets_delivered: self.packets_delivered,
            flits_delivered: self.flits_delivered,
            latency: LatencyStats::from_samples(&self.latencies),
            per_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::payload::PayloadBits;

    fn image(width: u32, fill: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        p.set_field(0, 64.min(width), fill);
        p
    }

    #[test]
    fn legacy_delivers_a_packet() {
        let mut sim = LegacySimulator::new(NocConfig::mesh(4, 4, 128));
        let payload = vec![image(128, 0xdead), image(128, 0xbeef)];
        sim.inject(Packet::new(0, 15, payload, 42)).unwrap();
        sim.run_until_idle(1000).unwrap();
        let got = sim.drain_delivered(15);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 42);
        assert_eq!(got[0].payload_flits.len(), 2);
        assert!(sim.stats().total_transitions > 0);
    }

    #[test]
    fn legacy_stall_reporting() {
        let mut sim = LegacySimulator::new(NocConfig::mesh(4, 4, 128));
        sim.inject(Packet::new(0, 15, vec![image(128, 1); 100], 0))
            .unwrap();
        let err = sim.run_until_idle(3).unwrap_err();
        assert_eq!(err.cycles, 3);
        sim.run_until_idle(10_000).unwrap();
        assert!(sim.is_idle());
    }
}
