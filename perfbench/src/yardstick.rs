//! A fixed piece of work that measures how fast the host is right now.
//!
//! The benchmark's host is a small shared machine whose speed drifts: over
//! 150 s, the 12-second median of one unchanged `Simulation::run` moved by a
//! quarter of itself (interquartile range over median) while a pure ALU loop
//! stayed within a few percent — neighbours contending for cache and memory,
//! not for the core. No length of run the driver allows averages that out, so
//! the untraced run interleaves every timed run with one batch of this
//! yardstick and reports throughput per *yardstick* second as well as per
//! wall-clock second. In the same probes the ratio moved a half to a third
//! as much as the raw time.
//!
//! The yardstick is the benchmark's own code on the standard library's
//! containers — never the program's — so no change to the program can move
//! it, and it takes no seed: it is the same work in every run. Its four
//! parts are the ones that tracked the simulator best among those tried
//! (pointer chases over 2 to 128 MiB, an allocation loop and a plain ALU
//! loop tracked worse): hold-model traffic on a small and on a large binary
//! heap, and random lookups in a hash map that fits the last-level cache and
//! in one that does not — the second is what follows the 10 000-peer
//! workload, whose working set is past the cache too.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The yardstick's median batch time on this container when it is quiet,
/// in milliseconds. It only scales the normalised throughput into the same
/// range as the raw one; comparisons between commits never depend on it.
pub const NOMINAL_BATCH_MS: f64 = 60.0;

type BigEvent = Reverse<(u64, u64, u64, u64)>;

/// The state one batch works on.
pub struct Yardstick {
    rng: u64,
    sequence: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    big_heap: BinaryHeap<BigEvent>,
    map: HashMap<u64, [u64; 4]>,
    big_map: HashMap<u64, [u64; 4]>,
}

const MAP_ENTRIES: u64 = 200_000;
const BIG_MAP_ENTRIES: u64 = 2_000_000;
const MAP_KEY_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn map_of(entries: u64) -> HashMap<u64, [u64; 4]> {
    (0..entries)
        .map(|i| (i.wrapping_mul(MAP_KEY_STRIDE), [i; 4]))
        .collect()
}

impl Yardstick {
    /// Builds the containers (about 120 MiB, nearly all of it the large map).
    pub fn new() -> Yardstick {
        let mut yardstick = Yardstick {
            rng: 0x9E37_79B9_7F4A_7C15,
            sequence: 0,
            heap: BinaryHeap::new(),
            big_heap: BinaryHeap::new(),
            map: map_of(MAP_ENTRIES),
            big_map: map_of(BIG_MAP_ENTRIES),
        };
        for i in 0..4096 {
            let at = yardstick.next() % 1_000_000;
            yardstick.heap.push(Reverse((at, i)));
        }
        for i in 0..65_536 {
            let at = yardstick.next() % 1_000_000;
            yardstick.big_heap.push(Reverse((at, i, 0, 0)));
        }
        yardstick
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One batch of fixed work; returns its wall time in milliseconds.
    pub fn batch(&mut self) -> f64 {
        let timer = Instant::now();
        for _ in 0..150_000 {
            if let Some(Reverse((at, _))) = self.heap.pop() {
                self.sequence += 1;
                let later = at + 1 + self.next() % 100_000;
                self.heap.push(Reverse((later, self.sequence)));
            }
        }
        for _ in 0..60_000 {
            if let Some(Reverse((at, ..))) = self.big_heap.pop() {
                self.sequence += 1;
                let later = at + 1 + self.next() % 100_000;
                self.big_heap.push(Reverse((later, self.sequence, 0, 0)));
            }
        }
        let mut sum = 0u64;
        for _ in 0..150_000 {
            let key = (self.next() % MAP_ENTRIES).wrapping_mul(MAP_KEY_STRIDE);
            if let Some(value) = self.map.get_mut(&key) {
                value[0] += 1;
                sum = sum.wrapping_add(value[1]);
            }
        }
        for _ in 0..150_000 {
            let key = (self.next() % BIG_MAP_ENTRIES).wrapping_mul(MAP_KEY_STRIDE);
            if let Some(value) = self.big_map.get_mut(&key) {
                value[0] += 1;
                sum = sum.wrapping_add(value[1]);
            }
        }
        std::hint::black_box(sum);
        timer.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_does_its_work_and_keeps_its_shape() {
        let mut yardstick = Yardstick::new();
        assert!(yardstick.batch() > 0.0);
        assert_eq!(yardstick.sequence, 210_000);
        assert_eq!(
            (yardstick.heap.len(), yardstick.big_heap.len()),
            (4096, 65_536)
        );
        for map in [&yardstick.map, &yardstick.big_map] {
            let touched: u64 = map.values().map(|v| v[0] - v[1]).sum();
            assert_eq!(touched, 150_000, "every lookup must hit");
        }
        yardstick.batch();
        assert_eq!(yardstick.sequence, 420_000);
    }
}
