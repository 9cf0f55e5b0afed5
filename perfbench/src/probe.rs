//! The host-speed probe and the clock that normalizes op times by it.
//!
//! The probe is a fixed kernel that calls no program code: a merge sort
//! of 60k words and a 40k-entry hash-map pass over a fixed table. Like
//! the program it is branchy and works out of L2, so it slows down with
//! the program when the shared host is busy (which, on a shared 2-vCPU
//! Xeon VM, can make the same op take twice as long for a few hundred ms
//! at a time, while pure-ALU or pure-DRAM kernels barely move).
//! Because the kernel is identical on every revision of the program,
//! dividing an op's wall time by the probe time beside it measures the
//! program and not the phase of the machine.
//!
//! The probe is sampled between consecutive ops and each op is scaled by
//! the two samples around it; a sample is the fastest of a few runs.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Words in the fixed input table (1 MiB).
const TABLE_WORDS: usize = 1 << 17;
/// Words merge-sorted per run.
const SORT_WORDS: usize = 60_000;
/// Hash-map updates per run, over `MAP_KEYS` distinct keys.
const MAP_UPDATES: usize = 40_000;
const MAP_KEYS: u64 = 20_000;
/// Probe runs per sample; the sample is their minimum.
const RUNS_PER_SAMPLE: usize = 3;

/// Probe time, in ms, of the reference host speed that normalized times
/// are expressed at: `normalized = raw × REFERENCE_MS / probe_ms`.
pub const REFERENCE_MS: f64 = 2.0;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The fixed host-speed kernel and its reused buffers.
pub struct Probe {
    table: Vec<u64>,
    sort_buf: RefCell<Vec<u64>>,
    map: RefCell<FixedMap>,
}

impl Probe {
    /// Fills the table from a fixed generator and warms the kernel once.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let probe = Self {
            table,
            sort_buf: RefCell::new(vec![0; SORT_WORDS]),
            map: RefCell::new(FixedMap::with_capacity_and_hasher(
                MAP_KEYS as usize,
                BuildHasherDefault::default(),
            )),
        };
        probe.sample_ms();
        probe
    }

    fn run_once(&self) -> u64 {
        let mut sorted = self.sort_buf.borrow_mut();
        sorted.copy_from_slice(&self.table[..SORT_WORDS]);
        sorted.sort();
        let mut map = self.map.borrow_mut();
        map.clear();
        for &k in &self.table[..MAP_UPDATES] {
            *map.entry(k % MAP_KEYS).or_insert(0) += k;
        }
        sorted[SORT_WORDS / 2] ^ map.len() as u64
    }

    /// One probe sample: the fastest of a few back-to-back runs, in ms.
    pub fn sample_ms(&self) -> f64 {
        (0..RUNS_PER_SAMPLE)
            .map(|_| {
                let t = Instant::now();
                black_box(self.run_once());
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Probe samples taken between units of timed work. Call
/// [`Clock::tick`] before each unit: it samples the probe and returns the
/// unit's index. After a final [`Clock::finish`], [`Clock::scale`]
/// converts a unit's raw times to the reference host speed using the
/// samples on both sides of it.
pub struct Clock<'p> {
    probe: &'p Probe,
    samples: Vec<f64>,
}

impl<'p> Clock<'p> {
    pub fn new(probe: &'p Probe) -> Self {
        Self {
            probe,
            samples: Vec::new(),
        }
    }

    /// Samples the probe; the work that follows is unit `tick()`.
    pub fn tick(&mut self) -> usize {
        let unit = self.samples.len();
        let probe = self.probe;
        self.samples
            .push(at_stack_offset(unit, || probe.sample_ms()));
        unit
    }

    /// Closes the last unit with a final sample.
    pub fn finish(&mut self) {
        self.samples.push(self.probe.sample_ms());
    }

    /// Factor that converts raw times of `unit` to the reference host
    /// speed: the reference probe time over the mean of the samples that
    /// bracket the unit.
    pub fn scale(&self, unit: usize) -> f64 {
        REFERENCE_MS / ((self.samples[unit] + self.samples[unit + 1]) / 2.0)
    }

    /// Every probe sample taken, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Runs `f` with the stack pointer moved down by one of eight offsets
/// (chosen by `i % 8`) that spread over a 4 KiB page in 576-byte steps.
///
/// The program's speed depends on where its stack frames fall relative
/// to its heap data: on a shared 2-vCPU Xeon VM one op ran up to 15%
/// slower at some offsets than at others, and since the kernel randomizes
/// the initial stack offset per process, a run measured at a single
/// offset was fast or slow as a whole. Cycling through the offsets inside
/// a run averages that out.
pub fn at_stack_offset<R>(i: usize, f: impl FnOnce() -> R) -> R {
    match i % 8 {
        0 => below::<0, R>(f),
        1 => below::<576, R>(f),
        2 => below::<1152, R>(f),
        3 => below::<1728, R>(f),
        4 => below::<2304, R>(f),
        5 => below::<2880, R>(f),
        6 => below::<3456, R>(f),
        _ => below::<4032, R>(f),
    }
}

/// Calls `f` below a live `N`-byte stack buffer.
#[inline(never)]
fn below<const N: usize, R>(f: impl FnOnce() -> R) -> R {
    let pad = [0u8; N];
    black_box(&pad);
    let result = f();
    black_box(&pad);
    result
}
