//! End-to-end reproduction of *"Quantised Neural Network Accelerators
//! for Low-Power IDS in Automotive Networks"* (DATE 2023).
//!
//! This crate wires the substrates together into the paper's method:
//!
//! * [`pipeline`] — capture synthesis → QAT training → integer export →
//!   FINN-style compilation → ZCU104 deployment → evaluation,
//! * [`dse`] — the bit-width design-space exploration that selects 4-bit
//!   uniform quantisation,
//! * [`deploy`] — the N-detector deployment engine: per-model
//!   folding-budget allocation ([`deploy::DeploymentPlan`]), shared
//!   feature packing and pluggable ECU scheduling policies,
//! * [`stream`] — frame-at-a-time streaming evaluation
//!   ([`stream::StreamingEvaluator`]) and canned line-rate scenarios
//!   ([`stream::LineRateScenario`]) for the serving harness,
//! * [`fleet`] — the cross-ECU layer: one detector fleet sharded across
//!   heterogeneous boards ([`fleet::FleetPlan`]), gateway-coupled frame
//!   delivery, and admission policies that degrade gracefully under
//!   overload instead of dropping frames,
//! * [`net`] — the event-driven network runtime: a deterministic
//!   [`net::Scheduler`], multi-segment [`net::Topology`]s with finite
//!   gateway buffers ([`net::QueueDiscipline`]) and first-class fault
//!   events ([`net::Fault`]), selectable per replay through
//!   [`serve::FleetTransport::EventDriven`],
//! * [`serve`] — **the unified serving API**: one [`serve::ServeHarness`]
//!   over the software, single-ECU and fleet backends, with a typed
//!   per-frame verdict stream ([`serve::VerdictSink`]) and value-driven
//!   admission ([`serve::AdmissionPolicy::ShedLowestMeasuredValue`]),
//! * [`population`] — **the fourth serving tier** (software → ECU →
//!   fleet → population): many concurrent tenant capture streams
//!   ([`population::TenantStream`]) multiplexed onto a bounded backend
//!   pool with cross-tenant admission control
//!   ([`population::TenantAdmission`]) and a bit-deterministic
//!   [`population::PopulationReport`] merge,
//! * [`report`] — shared latency/energy statistics and paper-style
//!   ASCII tables for the benchmark harness,
//! * [`telemetry`] — the deterministic, sim-time-clocked observability
//!   layer: per-stage tracing spans ([`telemetry::Span`]), an integer
//!   metrics registry ([`telemetry::MetricsRegistry`]) and Chrome-trace /
//!   JSON exporters, opt-in per replay via
//!   [`serve::ReplayConfig::with_telemetry`].
//!
//! # Quickstart
//!
//! ```no_run
//! use canids_core::prelude::*;
//!
//! let report = IdsPipeline::new(PipelineConfig::dos()).run()?;
//! println!("Table I row (ours): {}", report.detector.test_cm);
//! println!("per-message latency: {}", report.ecu.mean_latency);
//! println!("board power: {:.2} W", report.ecu.mean_power_w);
//! # Ok::<(), canids_core::CoreError>(())
//! ```

pub mod deploy;
pub mod dse;
pub mod error;
pub mod fleet;
pub mod net;
mod par;
pub mod pipeline;
pub mod population;
pub mod report;
pub mod serve;
pub mod stream;
pub mod telemetry;

pub use deploy::{
    deploy_multi_ids, DeploymentPlan, DetectorBundle, ModelPlan, MultiIdsDeployment, PlanConfig,
};
pub use dse::{sweep_bitwidths, DsePoint, DseReport};
pub use error::CoreError;
pub use fleet::{AdmissionPolicy, BoardSpec, FleetConfig, FleetDeployment, FleetPlan};
pub use net::{
    DropReason, Fault, FleetNet, GatewayLoad, NetConfig, NetOutcome, NetSim, QueueDiscipline,
    Topology,
};
pub use pipeline::{IdsPipeline, PipelineConfig, PipelineReport, TrainedDetector};
pub use population::{
    Population, PopulationConfig, PopulationReport, TenantAction, TenantAdmission, TenantEvent,
    TenantReport, TenantStream,
};
pub use report::{pct, pct_of, pct_opt, EnergyStats, LatencyStats, Table};
pub use serve::{
    EcuBackend, FleetBackend, FleetTransport, Pacing, ReplayConfig, ServeBackend, ServeHarness,
    ServeReport, ServeScenario, ShardWorkers, SoftwareBackend, Verdict, VerdictSink,
};
pub use stream::{LineRateScenario, StagedNanos, StreamVerdict, StreamingEvaluator};
pub use telemetry::{
    MetricsRegistry, Probe, Span, Stage, StageStats, TelemetryConfig, TelemetryReport, WallClock,
};

/// Convenience re-exports spanning the whole stack.
pub mod prelude {
    pub use crate::deploy::{
        deploy_multi_ids, DeploymentPlan, DetectorBundle, MultiIdsDeployment, PlanConfig,
    };
    pub use crate::dse::{sweep_bitwidths, DseReport};
    pub use crate::error::CoreError;
    pub use crate::fleet::{AdmissionPolicy, BoardSpec, FleetConfig, FleetDeployment, FleetPlan};
    pub use crate::net::{
        DropReason, Fault, FleetNet, GatewayLoad, NetConfig, NetOutcome, QueueDiscipline,
    };
    pub use crate::pipeline::{IdsPipeline, PipelineConfig, PipelineReport, TrainedDetector};
    pub use crate::population::{
        Population, PopulationConfig, PopulationReport, TenantAction, TenantAdmission, TenantEvent,
        TenantReport, TenantStream,
    };
    pub use crate::report::{pct, pct_of, pct_opt, EnergyStats, LatencyStats, Table};
    pub use crate::serve::{
        CaptureSource, EcuBackend, FleetBackend, FleetTransport, Pacing, ReplayConfig,
        ServeBackend, ServeHarness, ServeReport, ServeScenario, ShardWorkers, SoftwareBackend,
        Verdict, VerdictSink,
    };
    pub use crate::stream::{LineRateScenario, StreamVerdict, StreamingEvaluator};
    pub use crate::telemetry::{
        MetricsRegistry, Probe, Span, Stage, TelemetryConfig, TelemetryReport, WallClock,
    };
    pub use canids_baselines::prelude::*;
    pub use canids_can::prelude::*;
    pub use canids_dataflow::prelude::*;
    pub use canids_dataset::prelude::*;
    pub use canids_qnn::prelude::*;
    pub use canids_soc::prelude::*;
}
