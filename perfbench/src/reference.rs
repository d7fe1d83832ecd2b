//! A fixed reference kernel that every end-to-end timing is scaled by.
//!
//! On the shared 2-vCPU development VM the speed of the whole machine
//! steps up and down by up to 1.6× over minutes, moving every sample of a
//! run together, so no statistic inside one run removes it. The kernel —
//! random read-modify-writes over a table far beyond the last-level cache,
//! as the solver's BDD tables are — is timed between a run's samples, and
//! each timing is reported at the speed the machine has when the kernel
//! takes [`NOMINAL_MS`]: times are multiplied, rates divided, by
//! `NOMINAL_MS / kernel median`. The kernel's code never changes with the
//! program's, so the scaling keeps every change the program makes to its
//! own time. Over ten runs spread across a quarter of an hour it halved
//! the run-to-run spread of rows 1 and 3 and narrowed that of the other
//! rows and of `serve` (see `README.md`). The table is filled before the
//! timing starts, so page-fault costs, which depend on what the program
//! freed just before, stay out of it.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Words in the kernel's table: 32 MiB, allocated for each timing and
/// freed after it.
const WORDS: usize = 1 << 22;
/// The kernel's time, in ms, that reported timings are scaled to: about
/// its median on the development box.
pub const NOMINAL_MS: f64 = 33.0;
/// Least time between two timings of the kernel.
const EVERY: Duration = Duration::from_secs(1);
/// Fewest timings a run's median rests on.
const MIN_SAMPLES: usize = 5;

/// The kernel's timings over one run.
#[derive(Debug, Default)]
pub struct Reference {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Reference {
    /// Times the kernel once, unless it was timed less than [`EVERY`] ago.
    /// Callers sample only after they have read the run's peak RSS, which
    /// the kernel's table would otherwise raise.
    pub fn maybe_sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        let mut table: Vec<u64> = (0..WORDS as u64).collect();
        let started = Instant::now();
        let mut x = 1u64;
        for i in 0..WORDS {
            let j = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7) % WORDS;
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(table[j]);
            table[j] = x;
        }
        std::hint::black_box(x);
        self.samples.push(started.elapsed().as_secs_f64() * 1000.0);
        self.last = Some(Instant::now());
    }

    /// Times the kernel until it has [`MIN_SAMPLES`] timings.
    pub fn top_up(&mut self) {
        while self.samples.len() < MIN_SAMPLES {
            self.last = None;
            self.maybe_sample();
        }
    }

    /// `NOMINAL_MS / kernel median`: multiply a time by it, divide a rate
    /// by it.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / median(&self.samples).expect("the kernel was timed")
    }

    /// The report line: the kernel's timings and the factor.
    pub fn note(&self) -> String {
        format!(
            "reference kernel (ms): {}; timings scaled by {:.4}",
            crate::stats::summary(&self.samples),
            self.factor()
        )
    }
}
