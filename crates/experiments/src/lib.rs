//! # webcache-experiments
//!
//! Drivers that regenerate every table and figure of the evaluation in
//! Williams et al. (SIGCOMM 1996):
//!
//! | Module | Paper artifacts |
//! |--------|-----------------|
//! | [`figures`] | Tables 1, 3, 4; Figs. 1, 2, 13, 14 |
//! | [`exp1`] | Experiment 1: Figs. 3-7, MaxNeeded |
//! | [`exp2`] | Experiment 2: Figs. 8-12, §4.4 WHR results, Fig. 15 |
//! | [`exp3`] | Experiment 3: Figs. 16-18 (+ shared-L2 extension) |
//! | [`exp4`] | Experiment 4: Figs. 19-20 |
//! | [`exp5`] | Extensions: §5 open-problem keys + seed replication |
//!
//! The `experiments` binary exposes each driver as a subcommand; see
//! `experiments help`.

#![warn(missing_docs)]

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod exp5;
pub mod figures;
pub mod runner;

pub use runner::Ctx;
