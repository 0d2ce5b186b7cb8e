//! The host-speed reference: a fixed integer kernel the benchmark times
//! beside every measured call and setup, so that the gated figures are
//! stated at one host speed.
//!
//! The benchmark host shares its cores with other tenants. Their load
//! slows the serving stack's integer work by up to a half, in phases
//! that last from under a second to minutes, while a latency-bound
//! loop such as a xorshift chain hardly slows at all. The reference is
//! the same kind of work as the serving kernel — int8 × integer dot
//! products through a 75-64-64 network — so it slows with it. It is
//! the benchmark's own code: no change to the library moves it.

use std::hint::black_box;
use std::time::Instant;

/// Pass time of [`Reference`] at the host speed that normalised figures
/// are stated at, ns. On the 2-core x86-64 host the benchmark was
/// written on, a pass took about 0.9 ms on a quiet core and up to
/// 1.7 ms while other tenants loaded it.
pub const STATED_PASS_NS: f64 = 1e6;

/// Inputs per pass.
const INPUTS: usize = 256;
/// Input width: the paper's 75-bit frame encoding.
const IN: usize = 75;
/// Hidden width.
const HIDDEN: usize = 64;

/// The reference kernel's fixed weights and inputs.
pub struct Reference {
    w1: Vec<i8>,
    w2: Vec<i8>,
    x: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the kernel's weights and inputs from a fixed xorshift
    /// stream.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut weights = |n: usize| (0..n).map(|_| (next() % 15) as i8 - 7).collect();
        let w1 = weights(HIDDEN * IN);
        let w2 = weights(HIDDEN * HIDDEN);
        let x = (0..INPUTS * IN).map(|_| (next() % 16) as u32).collect();
        Reference { w1, w2, x }
    }

    /// One pass: every input through both layers.
    pub fn pass(&self) -> u64 {
        let mut out = 0u64;
        let mut hidden = [0u32; HIDDEN];
        for x in self.x.chunks_exact(IN) {
            for (h, row) in hidden.iter_mut().zip(self.w1.chunks_exact(IN)) {
                let acc: i64 = row
                    .iter()
                    .zip(x)
                    .map(|(&w, &a)| i64::from(w) * i64::from(a))
                    .sum();
                *h = (acc.clamp(0, 15 * 64) / 64) as u32;
            }
            let best = self
                .w2
                .chunks_exact(HIDDEN)
                .map(|row| {
                    row.iter()
                        .zip(&hidden)
                        .map(|(&w, &a)| i64::from(w) * i64::from(a))
                        .sum::<i64>()
                })
                .max()
                .unwrap_or(0);
            out = out.wrapping_add(best as u64);
        }
        out
    }

    /// Wall ns of one pass run on `threads` threads at once, the mean
    /// over the threads.
    pub fn pass_ns(&self, threads: usize) -> f64 {
        let timed = || {
            let t0 = Instant::now();
            black_box(black_box(self).pass());
            t0.elapsed().as_nanos() as f64
        };
        if threads <= 1 {
            return timed();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
            let total: f64 = handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .sum();
            total / threads as f64
        })
    }

    /// How much slower than the stated speed the host runs now: pass
    /// time on `threads` threads ÷ [`STATED_PASS_NS`]. A figure measured
    /// beside it is stated at that speed by multiplying a rate by it, or
    /// dividing a time by it.
    pub fn slowdown(&self, threads: usize) -> f64 {
        self.pass_ns(threads) / STATED_PASS_NS
    }
}
