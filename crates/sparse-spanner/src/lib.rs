//! Sparse-spanner substrates and baselines.
//!
//! * [`mod@baswana_sen`] — distributed Baswana–Sen (2k−1)-spanner \[BS07\],
//!   used by §5 for the low-weight bucket and as a no-lightness
//!   baseline,
//! * [`greedy`] — the greedy (2k−1)-spanner \[ADD+93\], the existentially
//!   optimal sequential baseline \[FS16\].
//!
//! The Elkin–Neiman spanner \[EN17b\] that §5 simulates on cluster graphs
//! lives in `lightnet::light_spanner`, written once for both of its
//! coordination regimes.

pub mod baswana_sen;
pub mod greedy;

pub use baswana_sen::{baswana_sen, BsSpanner};
pub use greedy::{greedy_2k_minus_1, greedy_spanner};
