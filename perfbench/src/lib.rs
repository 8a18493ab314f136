//! Product-path benchmark for DEFINED: seeded workloads driven through
//! the same entry points the `defined-dbg` verbs call, under the
//! product's default configuration.

pub mod bench;
pub mod gen;
pub mod stats;
pub mod trace;
