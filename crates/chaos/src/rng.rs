//! The chaos harness's randomness source: the workspace's one SplitMix64
//! stream, [`lb_engine::rng::Rng`], re-exported under its historical path.
//! The same seed always replays the same hostile instance, which is what
//! makes every fuzz failure a one-line reproducer
//! (`lb-chaos --family sat --seed N`).

pub use lb_engine::rng::Rng;
