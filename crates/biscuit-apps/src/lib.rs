//! # biscuit-apps — the paper's application studies
//!
//! Runnable implementations of every application the paper evaluates on
//! Biscuit (§III-E, §V-C):
//!
//! - [`run_wordcount`] — the working example of Fig. 5 / Code 1–3 (mappers,
//!   shuffler, reducers over typed ports).
//! - [`search`] — simple string search: host `grep` vs the
//!   pattern-matcher SSDlet (Table V).
//! - [`graph`] — pointer chasing over an on-SSD social-graph store
//!   (Table IV).
//! - [`weblog`] — the synthetic web-log corpus generator (stands in for the
//!   paper's 7.8 GiB log).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod graph;
pub mod search;
pub mod weblog;
mod wordcount;

pub use graph::{biscuit_chase, chase_module, conv_chase, ChaseArgs, SocialGraph};
pub use search::{
    array_conv_grep, biscuit_grep, conv_grep, fleet_grep, fleet_grep_expected, load_grep_module,
    ArrayGrep,
};
pub use weblog::{WeblogGen, NEEDLE};
pub use wordcount::{reference_wordcount, run_wordcount};
