//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lane|population|ecu_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the public serving calls with no instrumentation
//! and reports the end-to-end metrics; `--trace 1` runs the same calls
//! through the timing wrapper plus outside-in layer microtimings and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object; the lines before it print every figure by name.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use canids_core::serve::ShardWorkers;
use canids_core::stream::StreamingEvaluator;
use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
use canids_dataset::{FrameEncoder, IdBitsPayloadBits};
use canids_perfbench::reference::Reference;
use canids_perfbench::timed::{Recorder, SessionLog};
use canids_perfbench::workloads::{encode_levels, Call, Kind, Workload};
use canids_qnn::export::IntScratch;

/// Input builds per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Timed calls a run makes at least, however short `--seconds` is.
const MIN_CALLS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The run's figures, printed as `name = value unit` lines and as the
/// final JSON object.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<32} {value:>16.6} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it.
fn supported_percentile(n: usize) -> f64 {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Median ns of a pass of the host-speed reference: a yardstick for
/// comparing rows measured on different machines.
fn calibration_ns(reference: &Reference) -> f64 {
    median((0..5).map(|_| reference.pass_ns(1)).collect())
}

/// Hands the allocator's free heap pages back to the kernel, so pages
/// the setups touched and freed do not stay in the resident set.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns free memory to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restarts the kernel's peak-RSS counter at the current resident set,
/// so the next reading is the peak of what ran since.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host-speed reference and the number of threads a workload runs
/// on, which the reference runs on too.
struct Host {
    reference: Reference,
    threads: usize,
}

impl Host {
    /// Runs `f` between two measurements of the host's slowdown, and
    /// returns its result with their mean.
    fn bracket<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.reference.slowdown(self.threads);
        let out = f();
        let after = self.reference.slowdown(self.threads);
        (out, (before + after) / 2.0)
    }
}

/// The timed calls of a run, with what was measured beside each.
#[derive(Default)]
struct Timings {
    calls: Vec<Call>,
    /// Peak resident set during each call, MiB.
    peaks_mib: Vec<f64>,
    /// Host slowdown around each call.
    slowdowns: Vec<f64>,
}

/// Calls the workload until `budget` has passed (and at least
/// [`MIN_CALLS`] times). Verdict gaps are kept for the first
/// [`MIN_CALLS`] calls only, so the run's memory does not grow with its
/// length.
fn timed_calls(
    workload: &mut Workload,
    budget: Duration,
    recorder: Option<&Arc<Recorder>>,
    host: &Host,
) -> Result<Timings, String> {
    let start = Instant::now();
    let mut t = Timings::default();
    while t.calls.len() < MIN_CALLS || start.elapsed() < budget {
        reset_peak_rss();
        let (call, slowdown) = host.bracket(|| workload.call(recorder));
        let mut call = call?;
        t.peaks_mib.push(peak_rss_mib());
        t.slowdowns.push(slowdown);
        if t.calls.len() >= MIN_CALLS {
            call.gaps_ns = Vec::new();
        }
        t.calls.push(call);
    }
    Ok(t)
}

/// Checks that the modelled figures repeat exactly across calls.
fn check_modelled(calls: &[Call]) -> Result<(), String> {
    match calls.iter().find(|c| c.modelled != calls[0].modelled) {
        Some(c) => Err(format!(
            "modelled figures changed between calls: {:?} vs {:?}",
            calls[0].modelled, c.modelled
        )),
        None => Ok(()),
    }
}

fn print_gaps(calls: &[Call]) {
    let mut gaps: Vec<u64> = calls
        .iter()
        .flat_map(|c| c.gaps_ns.iter().copied())
        .collect();
    if gaps.is_empty() {
        return;
    }
    gaps.sort_unstable();
    let q = supported_percentile(gaps.len());
    println!(
        "  verdict gap at the sink: p50 {:.3} us, p99 {:.3} us, p{} {:.3} us over {} gaps",
        percentile(&gaps, 0.5) as f64 / 1e3,
        percentile(&gaps, 0.99) as f64 / 1e3,
        q * 100.0,
        percentile(&gaps, q) as f64 / 1e3,
        gaps.len()
    );
}

/// The end-to-end metrics: public calls, no instrumentation.
fn end_to_end(
    args: &Args,
    workload: &mut Workload,
    setup_s: f64,
    host: &Host,
    report: &mut Report,
) -> Result<usize, String> {
    let Timings {
        calls,
        peaks_mib,
        slowdowns,
    } = timed_calls(workload, Duration::from_secs_f64(args.seconds), None, host)?;
    check_modelled(&calls)?;
    let offered: usize = calls.iter().map(|c| c.offered).sum();
    let verdicts: usize = calls.iter().map(|c| c.verdicts).sum();
    let wall: f64 = calls.iter().map(|c| c.wall.as_secs_f64()).sum();
    let rate = |c: &Call| c.offered as f64 / c.wall.as_secs_f64();
    let mut rates: Vec<f64> = calls.iter().map(rate).collect();
    let fps = median(
        calls
            .iter()
            .zip(&slowdowns)
            .map(|(c, s)| rate(c) * s)
            .collect(),
    );
    rates.sort_by(f64::total_cmp);
    let rate_at = |q: f64| rates[((rates.len() - 1) as f64 * q).round() as usize];
    println!("{} timed calls, {offered} frames offered", calls.len());
    println!(
        "  frames/s per call as measured: q1 {:.0}, median {:.0}, q3 {:.0}, p90 {:.0}; \
         all frames / all call wall {:.0}",
        rate_at(0.25),
        rate_at(0.5),
        rate_at(0.75),
        rate_at(0.9),
        offered as f64 / wall
    );
    println!(
        "  host slowdown on {} thread(s): median {:.3}, min {:.3}, max {:.3}",
        host.threads,
        median(slowdowns.clone()),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max)
    );
    print_gaps(&calls);
    let last = &calls[calls.len() - 1];
    if let [ecu_p99, mj, fleet_p99] = last.modelled[..] {
        println!(
            "  modelled (simulated SoC, not measured): ecu p99 {ecu_p99:.3} us, \
             {mj:.5} mJ/msg; fleet p99 {fleet_p99:.3} us"
        );
    }
    if let Some(cap) = last.modelled_capacity_fps {
        println!(
            "  modelled capacity {cap:.0} frames/s vs {:.0} frames/s measured over all calls",
            offered as f64 / wall
        );
    }
    report.add("setup_s", setup_s, "s");
    report.add("frames_per_s", fps, "frames/s");
    report.add("verdict_ratio", verdicts as f64 / offered as f64, "ratio");
    report.add("peak_rss_mib", median(peaks_mib), "MiB");
    Ok(calls.len())
}

/// Frames the layer microtimings run over, spread evenly across the
/// workload's captures.
const SAMPLE: usize = 4_096;

/// Wall ns per item of one pass of `f` over `items`.
fn pass_ns<T>(items: impl ExactSizeIterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    let n = items.len().max(1) as f64;
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_nanos() as f64 / n
}

/// Outside-in microtimings of the layers below the session, on the
/// workload's own frames and models.
struct LayerTimes {
    encode_ns: f64,
    infer_class_ns: f64,
    push_ns: f64,
    ip_infer_ns: f64,
    latency_cycles_ns: f64,
}

/// Times each layer's public entry point over a sample of the
/// workload's frames. The layers take turns within every round, so a
/// change in host speed during the run touches them alike; each figure
/// is the median over rounds.
fn layer_times(workload: &Workload, budget: Duration) -> Result<LayerTimes, String> {
    let model = workload.model();
    let all: Vec<_> = workload
        .captures()
        .into_iter()
        .flat_map(|d| d.iter().copied())
        .collect();
    let frames: Vec<_> = all
        .iter()
        .step_by((all.len() / SAMPLE).max(1))
        .copied()
        .collect();
    let encoder = IdBitsPayloadBits;
    let dim = encoder.dim();
    let levels: Vec<u32> = frames
        .iter()
        .flat_map(|r| encode_levels(model, &r.frame))
        .collect();
    // Software workloads time the accelerator layer on their own model
    // compiled as the paper's IP, so the row exists on every workload.
    let compiled;
    let ip = match workload.ip() {
        Some(ip) => ip,
        None => {
            compiled = AcceleratorIp::compile(model, CompileConfig::default())
                .map_err(|e| e.to_string())?;
            &compiled
        }
    };
    let mut fbuf = vec![0.0f32; dim];
    let mut scratch = IntScratch::new();
    let mut eval = StreamingEvaluator::new(model.clone());
    let mut rounds: [Vec<f64>; 5] = Default::default();
    let start = Instant::now();
    while rounds[0].len() < 5 || start.elapsed() < budget {
        rounds[0].push(pass_ns(frames.iter(), |r| {
            encoder.encode_into(black_box(&r.frame), &mut fbuf);
            black_box(&fbuf);
        }));
        rounds[1].push(pass_ns(levels.chunks_exact(dim), |x| {
            black_box(model.infer_class(black_box(x), &mut scratch));
        }));
        rounds[2].push(pass_ns(frames.iter(), |r| {
            black_box(eval.push(black_box(r)));
        }));
        rounds[3].push(pass_ns(levels.chunks_exact(dim), |x| {
            black_box(ip.infer(black_box(x)));
        }));
        rounds[4].push(pass_ns(levels.chunks_exact(dim).take(256), |_| {
            black_box(black_box(ip).latency_cycles());
        }));
    }
    let [encode_ns, infer_class_ns, push_ns, ip_infer_ns, latency_cycles_ns] = rounds.map(median);
    Ok(LayerTimes {
        encode_ns,
        infer_class_ns,
        push_ns,
        ip_infer_ns,
        latency_cycles_ns,
    })
}

/// Sums of the wrapper's session logs over the traced calls.
#[derive(Default)]
struct SessionTotals {
    sessions: usize,
    open: f64,
    push_calls: usize,
    push: f64,
    nonempty_drains: u64,
    drain: f64,
    verdicts: u64,
    inferences: u64,
    network: f64,
    finish: f64,
    busy: f64,
    /// Σ over threads of (session lifetime − session busy).
    harness_inside: f64,
    /// Lifetime of sessions on the busiest thread, per call, summed.
    busiest_span: f64,
    /// Lifetime of all sessions, summed over threads.
    span: f64,
    /// Busy time per session.
    session_busy: Vec<f64>,
    push_ns: Vec<u64>,
}

impl SessionTotals {
    fn absorb(&mut self, logs: &[SessionLog]) {
        let mut per_thread = HashMap::new();
        for log in logs {
            let busy = log.busy().as_secs_f64();
            let span = (log.closed - log.opened).as_secs_f64();
            self.sessions += 1;
            self.open += log.open.as_secs_f64();
            self.push_calls += log.push_ns.len();
            self.push += log.push_busy().as_secs_f64();
            self.nonempty_drains += log.nonempty_drains;
            self.drain += log.drain_busy.as_secs_f64();
            self.verdicts += log.verdicts;
            self.inferences += log.inferences;
            self.network += log.network.as_secs_f64();
            self.finish += log.finish.as_secs_f64();
            self.busy += busy;
            self.harness_inside += span - busy;
            self.span += span;
            self.session_busy.push(busy);
            self.push_ns.extend_from_slice(&log.push_ns);
            *per_thread.entry(log.thread).or_insert(0.0) += span;
        }
        self.busiest_span += per_thread.values().copied().fold(0.0, f64::max);
    }
}

/// The per-layer metrics: the traced run.
fn per_layer(
    args: &Args,
    workload: &mut Workload,
    dataset_s: f64,
    host: &Host,
    report: &mut Report,
) -> Result<usize, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    // Untraced calls, for the tracing overhead.
    let plain = timed_calls(workload, budget / 4, None, host)?.calls;
    check_modelled(&plain)?;
    print_gaps(&plain);
    let plain_wall = median(plain.iter().map(|c| c.wall.as_secs_f64()).collect());

    // One traced call keeps every frame and verdict for the oracle; the
    // timed traced calls keep only their timings.
    let capture = Recorder::new(true);
    workload.call(Some(&capture))?;
    let checked = workload.check_sessions(&capture.take())?;
    println!("oracle: {checked} session verdicts checked through the wrapper");

    let recorder = Recorder::new(false);
    let mut totals = SessionTotals::default();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < MIN_CALLS || start.elapsed() < budget * 2 / 5 {
        let call = workload.call(Some(&recorder))?;
        totals.absorb(&recorder.take());
        traced.push(call);
    }
    check_modelled(&traced)?;
    let n = traced.len() as f64;
    let traced_wall: f64 = traced.iter().map(|c| c.wall.as_secs_f64()).sum();
    let traced_median = median(traced.iter().map(|c| c.wall.as_secs_f64()).collect());
    let last = &traced[traced.len() - 1];

    let layers = layer_times(workload, budget / 4)?;
    let speedup = match workload.tenants() {
        Some(tenants) => {
            let serial: Vec<f64> = (0..3)
                .map(|_| {
                    tenants
                        .serve(ShardWorkers::Fixed(1))
                        .map(|(_, w)| w.as_secs_f64())
                })
                .collect::<Result<_, _>>()?;
            median(serial) / plain_wall
        }
        None => 0.0,
    };

    let outside = traced_wall - totals.busiest_span;
    let harness_self = totals.harness_inside + outside;
    // Per-inference cost of the layers inside a session push: the fused
    // software path, or the accelerator's compute plus its latency model.
    let inner_ns = match workload {
        Workload::EcuFleet(_) => layers.ip_infer_ns + layers.latency_cycles_ns,
        _ => layers.push_ns,
    };
    let named =
        harness_self + (totals.busy - totals.push) + totals.inferences as f64 * inner_ns / 1e9;
    let software = !matches!(workload, Workload::EcuFleet(_));
    let mean_busy = totals.busy / totals.sessions.max(1) as f64;
    let max_busy = totals.session_busy.iter().copied().fold(0.0, f64::max);
    let mut push_ns = totals.push_ns;
    push_ns.sort_unstable();
    let served: usize = traced.iter().map(|c| c.verdicts).sum();

    println!(
        "{} traced calls; per-call figures are averages over them",
        traced.len()
    );
    report.add("host.cores", cores() as f64, "count");
    report.add("host.calib_ns", calibration_ns(&host.reference), "ns");
    report.add("dataset.build_s", dataset_s, "s");
    report.add("dataset.encode_ns", layers.encode_ns, "ns");
    report.add("qnn.infer_class_ns", layers.infer_class_ns, "ns");
    report.add(
        "qnn.infer_class_calls",
        if software {
            totals.inferences as f64 / n
        } else {
            0.0
        },
        "count",
    );
    report.add("stream.push_ns", layers.push_ns, "ns");
    report.add(
        "stream.pack_ns",
        layers.push_ns - layers.encode_ns - layers.infer_class_ns,
        "ns",
    );
    report.add("dataflow.ip_infer_ns", layers.ip_infer_ns, "ns");
    report.add("dataflow.latency_cycles_ns", layers.latency_cycles_ns, "ns");
    report.add("serve.open_calls", totals.sessions as f64 / n, "count");
    report.add("serve.open_s", totals.open / n, "s");
    report.add("serve.push_calls", totals.push_calls as f64 / n, "count");
    report.add("serve.push_busy_s", totals.push / n, "s");
    report.add("serve.push_p50_ns", percentile(&push_ns, 0.5) as f64, "ns");
    report.add("serve.push_p99_ns", percentile(&push_ns, 0.99) as f64, "ns");
    report.add("serve.drain_busy_s", totals.drain / n, "s");
    report.add("serve.network_s", totals.network / n, "s");
    report.add("serve.finish_s", totals.finish / n, "s");
    report.add(
        "serve.verdicts_per_drain",
        totals.verdicts as f64 / totals.nonempty_drains.max(1) as f64,
        "count",
    );
    report.add("serve.session_busy_s", totals.busy / n, "s");
    report.add("serve.harness_self_s", harness_self / n, "s");
    report.add(
        "serve.modelled_capacity_fps",
        last.modelled_capacity_fps.unwrap_or(0.0),
        "frames/s",
    );
    report.add("par.parallelism", totals.busy / traced_wall, "ratio");
    report.add("par.outside_sessions_s", outside / n, "s");
    report.add("par.speedup", speedup, "ratio");
    let pop = last.population.unwrap_or_default();
    let is_pop = last.population.is_some();
    report.add(
        "population.tenant_skew",
        if is_pop { max_busy / mean_busy } else { 0.0 },
        "ratio",
    );
    report.add(
        "population.useful_infer_ratio",
        if is_pop {
            served as f64 / totals.verdicts.max(1) as f64
        } else {
            0.0
        },
        "ratio",
    );
    report.add("population.shed_frames", pop.shed_frames as f64, "count");
    report.add("population.sheds", pop.sheds as f64, "count");
    report.add("population.readmits", pop.readmits as f64, "count");
    let modelled = |i: usize| last.modelled.get(i).copied().unwrap_or(0.0);
    report.add("ecu.p99_modelled", modelled(0), "sim_us");
    report.add("ecu.energy_per_msg_modelled", modelled(1), "sim_mJ");
    report.add("fleet.p99_modelled", modelled(2), "sim_us");
    // Parallel sessions overlap in wall time, so the named layers are
    // reconciled against thread time: every session's lifetime plus the
    // time outside sessions (equal to the wall on sequential workloads).
    report.add(
        "reconcile.layer_coverage",
        named / (totals.span + outside),
        "ratio",
    );
    report.add(
        "reconcile.trace_overhead",
        traced_median / plain_wall,
        "ratio",
    );
    Ok(plain.len() + traced.len())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<(Report, usize), String> {
    let reference = Reference::new();
    println!(
        "workload {} seed {} ({}), host: {} cores, reference pass {:.0} ns",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        cores(),
        calibration_ns(&reference)
    );
    // Setup runs on one thread; each build's time is stated at the
    // reference's stated host speed.
    let single = Host {
        reference,
        threads: 1,
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut measured = Vec::with_capacity(SETUPS);
    let mut datasets = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        let (built, slowdown) = single.bracket(|| Workload::build(args.kind, args.seed));
        let (w, times) = built.map_err(|e| e.to_string())?;
        setups.push(times.total.as_secs_f64() / slowdown);
        measured.push(times.total.as_secs_f64());
        datasets.push(times.dataset.as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.ok_or("no setup ran")?;
    println!(
        "setup as measured: median {:.4} s over {SETUPS} builds",
        median(measured)
    );
    workload.prepare_oracle();
    // One unmeasured call warms caches and lazily sized buffers.
    workload.call(None)?;
    release_free_heap();
    let host = Host {
        threads: match workload {
            Workload::Population(_) => cores(),
            _ => 1,
        },
        ..single
    };
    let mut report = Report::default();
    let calls = if args.trace {
        per_layer(args, &mut workload, median(datasets), &host, &mut report)?
    } else {
        end_to_end(args, &mut workload, median(setups), &host, &mut report)?
    };
    Ok((report, calls))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, calls)) => {
            println!("{}", report.json(true, calls, 0));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.kind.name(), args.seed);
            println!("{}", Report::default().json(false, 1, 1));
            ExitCode::FAILURE
        }
    }
}
