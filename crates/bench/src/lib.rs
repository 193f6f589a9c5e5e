//! Experiment support for the `experiments` binary, the repo's one
//! experiment harness (it prints every EXPERIMENTS.md table, E1–E13).
//!
//! * [`workloads`] — the seeded instance builders the experiments sweep.
//! * [`bench_wcoj`] — the committed WCOJ op-count baseline
//!   (`BENCH_wcoj.json`) behind `experiments bench-wcoj --check|--write`.

#![forbid(unsafe_code)]

pub mod bench_wcoj;
pub mod workloads;

pub use workloads::*;
