//! The repo benchmark: seven closed-loop workloads over the smp, proc and sim
//! conduits, 13 end-to-end metrics, per-layer probes and a traced run. See
//! `README.md` for the one command, the glossary and the method.
//!
//! The program is measured only from outside: timing calls into each module's
//! public functions, reading `upcxx::metrics::to_json()` counters by key, and
//! counting allocations with this binary's own global allocator.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod cli;
pub mod driver;
pub mod gen;
pub mod json;
pub mod probes;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod tools;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;
