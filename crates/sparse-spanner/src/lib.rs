//! Sparse-spanner substrates and baselines.
//!
//! * [`mod@baswana_sen`] — distributed Baswana–Sen (2k−1)-spanner \[BS07\],
//!   used by §5 for the low-weight bucket and as a no-lightness
//!   baseline,
//! * [`mod@en_spanner`] — the sequential reference for the Elkin–Neiman
//!   unweighted spanner \[EN17b\] that §5 simulates on cluster graphs
//!   (sampling, update rule, selection rule, and a runner),
//! * [`greedy`] — the greedy (2k−1)-spanner \[ADD+93\], the existentially
//!   optimal sequential baseline \[FS16\].

pub mod baswana_sen;
pub mod en_spanner;
pub mod greedy;

pub use baswana_sen::{baswana_sen, BsSpanner};
pub use en_spanner::{en_spanner, en_update, sample_radii, EnState};
pub use greedy::{greedy_2k_minus_1, greedy_spanner};
