//! The reference kernel: a fixed piece of work the benchmark owns, timed
//! between the statements of every timed pass, that says how fast the
//! machine is right now.
//!
//! The box this runs on is a two-core guest on a shared host. Its speed
//! moves by 10-40 % for tens of seconds at a time (a neighbour on the
//! sibling thread or the memory bus), which is longer than a run, so no
//! statistic over the passes of one run removes it: medians of the same
//! code on the same seed differed by up to 30 %. What a run can do is time
//! a yardstick through the same seconds. Every pass latency the benchmark
//! gates on is therefore reported at reference speed: divided by the
//! pass's `slowdown`, the median of the reference times taken inside the
//! pass over the time the kernel took on this box when it was quiet. On a
//! quiet box the division changes nothing; on a loaded one it took the
//! spread between ten runs from 16 % to 5 %. A set-up is divided by the
//! slowdown of ten samples taken around it. Everything a traced run
//! reports stays as measured.
//!
//! The kernel is random read-modify-writes over a table followed by a
//! scan of it — the access pattern of a hash join or group — and the
//! table is sized like the data the workload touches, because the loss is
//! mostly cache and memory contention: a table in the wrong level of the
//! hierarchy under-corrects (1 MiB against SF 0.1 passes left 11 % where
//! 32 MiB left 6 %).

use std::time::Instant;

use crate::stats::median;

pub struct Reference {
    table: Vec<u64>,
    nominal_ms: f64,
    /// Every execution's time, in order.
    pub samples_ms: Vec<f64>,
}

impl Reference {
    pub fn new(log2_words: u32, nominal_ms: f64) -> Reference {
        Reference { table: vec![1; 1 << log2_words], nominal_ms, samples_ms: Vec::new() }
    }

    /// Run the kernel once and keep its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut sum = 0u64;
        for _ in 0..self.table.len() / 2 {
            // xorshift64: the next slot depends on nothing in the table.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_add(x);
            sum = sum.wrapping_add(*slot);
        }
        for word in &self.table {
            sum = sum.wrapping_add(word >> 3);
        }
        std::hint::black_box(sum);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// How much slower than nominal the machine was over the samples from
    /// index `from` on.
    pub fn slowdown(&self, from: usize) -> f64 {
        median(&self.samples_ms[from..]) / self.nominal_ms
    }
}
