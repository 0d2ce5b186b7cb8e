//! FINN-style streaming dataflow compiler and cycle-accurate accelerator
//! simulator.
//!
//! This crate is the Rust stand-in for the AMD/Xilinx FINN flow the paper
//! uses to turn its Brevitas-trained quantised MLP into an FPGA IP core:
//!
//! * [`graph`] — the post-streamlining IR: Matrix-Vector-Threshold Units
//!   and a label-select stage, functionally identical to the
//!   [`canids_qnn::IntegerMlp`] it was lowered from,
//! * [`passes`] — hardware-IR transformations (threshold clipping),
//! * [`folding`] — PE/SIMD time-multiplexing and the auto-folder,
//! * [`simulator`] — cycle-accurate pipeline simulation with FIFO
//!   backpressure,
//! * [`resources`]/[`power`] — LUT/FF/BRAM/DSP cost model, device
//!   database (ZCU104 et al.) and the PL power model,
//! * [`ip`] — the stitched-IP artifact with its AXI-Lite register map,
//!   serving frames through the compiled `PackedMlp` kernel,
//! * [`codegen`] — SystemVerilog emission for inspection,
//! * [`verify`] — the mandatory bit-exactness gate over the graph and
//!   the kernel.
//!
//! # Example
//!
//! ```
//! use canids_dataflow::prelude::*;
//! use canids_qnn::prelude::*;
//!
//! let mlp = QuantMlp::new(MlpConfig::default())?;
//! let ip = AcceleratorIp::compile(&mlp.export()?, CompileConfig::default())?;
//!
//! // Paper-scale facts: microsecond compute latency, <4% of a ZCU104.
//! assert!(ip.latency_secs() < 2e-5);
//! assert!(ip.utilization(Device::ZCU104).max_fraction() < 0.04);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codegen;
pub mod error;
pub mod fifo;
pub mod folding;
pub mod graph;
pub mod ip;
pub mod passes;
pub mod power;
pub mod resources;
pub mod simulator;
pub mod verify;

pub use error::DataflowError;
pub use fifo::{size_fifos, validate_depths, FifoDepths};
pub use folding::{auto_fold, FoldingConfig, FoldingGoal, LayerFolding};
pub use graph::{DataflowGraph, LabelSelectNode, MvtuNode};
pub use ip::{AcceleratorIp, CompileConfig, RegisterMap};
pub use power::{estimate_power, PowerCoefficients, PowerEstimate};
pub use resources::{estimate_resources, Device, ResourceEstimate, Utilization};
pub use simulator::{AcceleratorSim, SimConfig, SimReport};
pub use verify::verify_bit_exact;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::codegen::{emit_testbench, emit_verilog};
    pub use crate::error::DataflowError;
    pub use crate::folding::{auto_fold, FoldingConfig, FoldingGoal, LayerFolding};
    pub use crate::graph::DataflowGraph;
    pub use crate::ip::{AcceleratorIp, CompileConfig, RegisterMap};
    pub use crate::power::{PowerCoefficients, PowerEstimate};
    pub use crate::resources::{Device, ResourceEstimate, Utilization};
    pub use crate::simulator::{AcceleratorSim, SimConfig, SimReport};
    pub use crate::verify::verify_bit_exact;
}
