//! Host-speed calibration.
//!
//! The reference host shares its physical cores with other tenants, and
//! its speed drifts by up to 40 % over seconds to minutes; every host-time
//! figure drifts with it. So the benchmark times a fixed piece of its own
//! code next to the measured work — on the same threads, between cells, for
//! the batch workload; on every core between phases for the service — and
//! scales the measured host times by how much slower than its reference
//! time that code ran. No change to the program can move the calibration
//! code: a faster program shows in the scaled figures exactly as it would
//! in the raw ones on a steady host.
//!
//! The calibration code is a toy interpreter: branchy dispatch over a
//! 256 KiB table that is both its program and the data it loads, like the
//! simulator's own mix of loads, branches and integer work. On the
//! reference host, two threads alternating 50 000-micro-op cells with
//! chunks of candidate code saw the cells' time over 2-second windows vary
//! with a coefficient of variation of 0.12 over a minute, and 0.04 once
//! divided by this interpreter's slowness in the same windows; a pure
//! multiply chain left 0.085 and random reads of a 16 MiB table 0.057.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Cores the reference host has: the service's calibration runs one
/// thread per core, so it feels the contention a phase that loads every
/// core feels.
const CALIB_THREADS: usize = 2;
/// Words in the interpreter's program table (256 KiB).
const TABLE_WORDS: usize = 1 << 16;
/// Words in each chunk's scratch memory, which its stores go to.
const SCRATCH_WORDS: usize = 1 << 10;
/// Interpreter steps per chunk.
const CHUNK_STEPS: u64 = 400_000;
/// Seconds one chunk took on the reference host (a 2-vCPU Xeon VM) at its
/// usual speed. Scaled figures read as if the host had run at that speed.
const REFERENCE_S: f64 = 0.001_2;
/// Chunks per thread in [`slowness`].
const CHUNKS_PER_THREAD: usize = 12;

/// The interpreter's program, built once and shared read-only, so
/// calibrating allocates nothing per thread.
fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u32)
            .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(13) ^ i.wrapping_mul(7))
            .collect()
    })
}

/// Run the interpreter for `steps` steps from a fixed initial state, so
/// every chunk does exactly the same work.
fn interpret(table: &[u32], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut scratch = [0u32; SCRATCH_WORDS];
    let mut regs = [0x1234u64; 16];
    let mut pc = 0usize;
    for k in 0..steps {
        let ins = table[pc];
        let a = ((ins >> 3) & 15) as usize;
        let b = ((ins >> 7) & 15) as usize;
        match ins & 7 {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^= regs[b].rotate_left(7),
            2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            3 => regs[a] = regs[a].wrapping_add(u64::from(table[regs[b] as usize & mask])),
            4 => {
                let at = regs[a] as usize % SCRATCH_WORDS;
                scratch[at] = scratch[at].wrapping_add(regs[b] as u32 | 1);
                regs[b] ^= u64::from(scratch[(at + 1) % SCRATCH_WORDS]);
            }
            5 => {
                if regs[a] & 1 == 0 {
                    pc = (pc + (ins >> 11) as usize) & mask;
                }
            }
            6 => regs[a] = regs[a].wrapping_sub(k),
            _ => regs[a] = regs[a] >> 1 | regs[b] << 63,
        }
        pc = (pc + 1) & mask;
    }
    regs.iter().fold(0, |x, y| x ^ y)
}

/// Time one chunk of the calibration code on the calling thread, in line
/// with the work it calibrates: `(slowness, time the chunk took)`.
/// Slowness is 1.0 at the reference speed and 1.3 when the chunk takes
/// 30 % longer. A chunk takes about 1.2 ms.
pub fn chunk() -> (f64, Duration) {
    let table = table();
    let t = Instant::now();
    black_box(interpret(table, black_box(CHUNK_STEPS)));
    let took = t.elapsed();
    (took.as_secs_f64() / REFERENCE_S, took)
}

/// How much slower than the reference the host runs right now: the median
/// chunk of [`CHUNKS_PER_THREAD`] on each of [`CALIB_THREADS`] threads at
/// once, so one preempted chunk does not move it. Takes about 15 ms; call
/// it while nothing else of the benchmark's runs.
pub fn slowness() -> f64 {
    let chunks: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALIB_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..CHUNKS_PER_THREAD)
                        .map(|_| chunk().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("the interpreter cannot panic"))
            .collect()
    });
    crate::stats::median(&chunks)
}

/// The slowness a phase ran at: the mean of the calibrations taken just
/// before and just after it.
pub fn between(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_does_the_same_work() {
        let first = interpret(table(), 10_000);
        interpret(table(), 5_000);
        assert_eq!(interpret(table(), 10_000), first);
    }

    #[test]
    fn slowness_is_positive_and_plausible() {
        let s = slowness();
        assert!(s > 0.05 && s < 20.0, "{s}");
        let (c, took) = chunk();
        assert!(c > 0.05 && c < 20.0 && took > Duration::ZERO, "{c}");
        assert_eq!(between(1.0, 1.5), 1.25);
    }
}
