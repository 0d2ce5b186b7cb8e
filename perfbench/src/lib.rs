//! Wall-clock benchmark of the CAN-IDS serving tiers: end-to-end rates of
//! the public serving calls, and per-layer times measured from outside
//! the library (see `README.md` in this directory).

pub mod reference;
pub mod timed;
pub mod workloads;
