//! Host-speed correction for the end-to-end times.
//!
//! On a shared host the same binary, on the same inputs, runs up to 60%
//! slower for seconds at a time while its CPU time still equals its wall
//! time: neighbours contend for the core's caches and execution units,
//! not for the scheduler, so no choice of clock or statistic over one run
//! removes it. A fixed reference kernel — the benchmark's own code, not
//! the program's — is timed between blocks of measured work and reads the
//! host's speed at that moment. Each measured time is rescaled by
//! [`NOMINAL_S`] over the mean of the kernel times that bracket its block:
//! the time the work would have taken on a host where the kernel takes
//! [`NOMINAL_S`]. The kernel hashes, copies and does branchy integer work
//! on a table of its own that fits in a core's private cache, so that what
//! it reads is the core's speed and not the heap or cache state the
//! measured work left behind: it runs once to warm the table, then three
//! times timed.
//!
//! The reading is taken on one core. The two-worker engine is corrected
//! by it too, which assumes the host slows both cores alike: on the 2-core
//! VM the bounds were set on, its raw times moved with the raw set-up time
//! of the same process through a 35% slowdown, and a reading taken on two
//! threads at once steadied it no better.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::Instant;

/// The kernel's time on an uncontended core of the 2-core shared VM the
/// bounds were set on. It only sets the scale of the corrected times.
pub const NOMINAL_S: f64 = 0.000_3;

/// Measured work between two kernel timings for the analysis loop.
/// Speed phases last seconds, so a block this long sees one speed; a
/// reading costs about 3% of it.
pub const BLOCK_S: f64 = 0.05;

/// The kernel's table: 1 MiB of words.
const TABLE_WORDS: usize = 1 << 17;

/// The reference kernel: a fixed sequence of keyed hashes, cache-line
/// copies and reads over `table`, driven by xorshift. The instructions
/// run do not depend on the table's contents.
pub fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut h = DefaultHasher::new();
        h.write_u64(x);
        let k = h.finish();
        let src = (k as usize) & mask & !7;
        let dst = ((k >> 32) as usize) & mask & !7;
        table.copy_within(src..src + 8, dst);
        match x % 4 {
            0 | 1 => table[src] ^= x,
            2 => acc = acc.wrapping_add(table[dst + 3]),
            _ => acc ^= table[src + 5].rotate_left(7),
        }
    }
    acc
}

/// Seconds one warm run of the kernel takes now: the median of three
/// timed runs after one that warms the table, so that one interrupted
/// run does not skew a block.
fn sample(table: &mut [u64]) -> f64 {
    std::hint::black_box(kernel(table));
    let mut runs = [0.0; 3];
    for r in &mut runs {
        let t = Instant::now();
        std::hint::black_box(kernel(table));
        *r = t.elapsed().as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The correction factor for a block bracketed by kernel times `before`
/// and `after`.
pub fn factor(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0).max(f64::MIN_POSITIVE)
}

/// Splits a measuring loop into blocks and gives every measured item the
/// correction factor of its block.
pub struct HostSpeed {
    table: Vec<u64>,
    block_s: f64,
    before: f64,
    since: Instant,
    open: usize,
    factors: Vec<f64>,
    kernel_s: Vec<f64>,
}

impl HostSpeed {
    pub fn start(block_s: f64) -> Self {
        let mut table = vec![1; TABLE_WORDS];
        let before = sample(&mut table);
        HostSpeed {
            table,
            block_s,
            before,
            since: Instant::now(),
            open: 0,
            factors: Vec::new(),
            kernel_s: vec![before],
        }
    }

    /// One measured item has finished; closes the block once it has run
    /// for the block length.
    pub fn tick(&mut self) {
        self.open += 1;
        if self.since.elapsed().as_secs_f64() >= self.block_s {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.open == 0 {
            return;
        }
        let after = sample(&mut self.table);
        let f = factor(self.before, after);
        self.factors.extend(std::iter::repeat(f).take(self.open));
        self.kernel_s.push(after);
        self.open = 0;
        self.before = after;
        self.since = Instant::now();
    }

    /// Close the last block; the factor of every item, in tick order, and
    /// every kernel time taken.
    pub fn finish(mut self) -> (Vec<f64>, Vec<f64>) {
        self.close();
        (self.factors, self.kernel_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (vec![1; TABLE_WORDS], vec![1; TABLE_WORDS]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn factor_rescales_to_the_nominal_speed() {
        assert_eq!(factor(NOMINAL_S, NOMINAL_S), 1.0);
        // Half as fast on both sides: the work took twice as long.
        assert_eq!(factor(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert!(factor(0.0, 0.0).is_finite());
    }

    #[test]
    fn every_tick_gets_a_factor() {
        let mut s = HostSpeed::start(BLOCK_S);
        for _ in 0..5 {
            s.tick();
        }
        let (factors, kernel_s) = s.finish();
        assert_eq!(factors.len(), 5);
        assert!(factors.iter().all(|f| *f > 0.0 && f.is_finite()));
        assert!(kernel_s.len() >= 2);
    }
}
