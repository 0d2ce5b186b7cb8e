//! A delegating [`ServeBackend`]/[`ServeSession`] pair that times every
//! session call the serving harness makes, from outside `canids_core`.
//!
//! `ServeHarness::replay` and `Population::serve` drive their sessions
//! internally; wrapping the backend is the only way to see those calls
//! without editing the library. Each session keeps its own log (no
//! locking on the per-frame path) and hands it to the shared
//! [`Recorder`] when it finishes, tagged with the thread that ran it.
//! The wrapper never changes what it forwards, so every report field
//! stays identical to an unwrapped replay (see `tests/transparent.rs`).

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use canids_can::frame::CanFrame;
use canids_core::fleet::Slot;
use canids_core::net::GatewayLoad;
use canids_core::serve::{
    FleetEvent, ReplayConfig, ServeBackend, ServeSession, ServeTopology, ShardPush, ShardTotals,
    ShardVerdict,
};
use canids_core::{CoreError, Probe};
use canids_dataset::LabeledFrame;

/// Calls and wall time of one serving session.
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// Thread the session ran on.
    pub thread: ThreadId,
    /// The session's topology, for mapping shard-local model masks.
    pub topology: ServeTopology,
    /// When `ServeBackend::open` was called.
    pub opened: Instant,
    /// When `finish` returned.
    pub closed: Instant,
    /// Wall time of `ServeBackend::open`.
    pub open: Duration,
    /// Wall time of each `push_shard` call, in nanoseconds.
    pub push_ns: Vec<u64>,
    /// `drain_verdicts` calls that returned at least one verdict.
    pub nonempty_drains: u64,
    /// Wall time inside `drain_verdicts`.
    pub drain_busy: Duration,
    /// Verdicts drained (including the ones `finish` returns).
    pub verdicts: u64,
    /// Model inferences behind those verdicts (consulted models summed).
    pub inferences: u64,
    /// Wall time of `warmup`, `backlog`, `active_models` and
    /// `set_slot_active`.
    pub control_busy: Duration,
    /// Wall time of `network`.
    pub network: Duration,
    /// Wall time of `finish`.
    pub finish: Duration,
    /// Frames offered to shard 0, by ordinal (kept only when the
    /// recorder captures verdicts for the correctness oracle).
    pub frames: Vec<(usize, CanFrame)>,
    /// Every shard verdict the session produced (same condition).
    pub shard_verdicts: Vec<ShardVerdict>,
}

impl SessionLog {
    /// Wall time spent inside `push_shard`.
    pub fn push_busy(&self) -> Duration {
        Duration::from_nanos(self.push_ns.iter().sum())
    }

    /// Wall time spent inside session calls (open included).
    pub fn busy(&self) -> Duration {
        self.open
            + self.push_busy()
            + self.drain_busy
            + self.control_busy
            + self.network
            + self.finish
    }
}

/// Collects the logs of every session opened through a [`Timed`]
/// backend, from any thread.
#[derive(Debug, Default)]
pub struct Recorder {
    capture_verdicts: bool,
    logs: Mutex<Vec<SessionLog>>,
}

impl Recorder {
    /// A recorder; with `capture_verdicts` the sessions also keep the
    /// frames and verdicts they saw, for the correctness oracle.
    pub fn new(capture_verdicts: bool) -> Arc<Self> {
        Arc::new(Recorder {
            capture_verdicts,
            logs: Mutex::new(Vec::new()),
        })
    }

    /// Removes and returns the logs gathered so far.
    pub fn take(&self) -> Vec<SessionLog> {
        std::mem::take(&mut *self.logs.lock().expect("a session panicked while logging"))
    }

    fn store(&self, log: SessionLog) {
        self.logs
            .lock()
            .expect("a session panicked while logging")
            .push(log);
    }
}

/// A backend whose sessions time every call they forward.
#[derive(Debug)]
pub struct Timed<B> {
    inner: B,
    recorder: Arc<Recorder>,
}

impl<B> Timed<B> {
    /// Wraps `inner`; its sessions report to `recorder`.
    pub fn new(inner: B, recorder: &Arc<Recorder>) -> Self {
        Timed {
            inner,
            recorder: Arc::clone(recorder),
        }
    }
}

impl<B: ServeBackend> ServeBackend for Timed<B> {
    type Session<'s>
        = TimedSession<B::Session<'s>>
    where
        Self: 's;

    fn label(&self) -> String {
        self.inner.label()
    }

    fn models(&self) -> usize {
        self.inner.models()
    }

    fn open(&mut self, config: &ReplayConfig) -> Result<Self::Session<'_>, CoreError> {
        let t0 = Instant::now();
        let inner = self.inner.open(config)?;
        let open = t0.elapsed();
        let log = SessionLog {
            thread: std::thread::current().id(),
            topology: inner.topology().clone(),
            opened: t0,
            closed: t0,
            open,
            push_ns: Vec::new(),
            nonempty_drains: 0,
            drain_busy: Duration::ZERO,
            verdicts: 0,
            inferences: 0,
            control_busy: Duration::ZERO,
            network: Duration::ZERO,
            finish: Duration::ZERO,
            frames: Vec::new(),
            shard_verdicts: Vec::new(),
        };
        Ok(TimedSession {
            inner,
            log,
            query_busy: Cell::new(Duration::ZERO),
            recorder: Arc::clone(&self.recorder),
        })
    }
}

/// A session of a [`Timed`] backend.
#[derive(Debug)]
pub struct TimedSession<S> {
    inner: S,
    log: SessionLog,
    /// Wall time of the `&self` queries, folded into the log at finish.
    query_busy: Cell<Duration>,
    recorder: Arc<Recorder>,
}

impl<S: ServeSession> ServeSession for TimedSession<S> {
    fn topology(&self) -> &ServeTopology {
        self.inner.topology()
    }

    fn warmup(&mut self, rec: &LabeledFrame) {
        let t0 = Instant::now();
        self.inner.warmup(rec);
        self.log.control_busy += t0.elapsed();
    }

    fn push_shard(
        &mut self,
        shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        let t0 = Instant::now();
        let push = self.inner.push_shard(shard, ordinal, rec);
        self.log.push_ns.push(t0.elapsed().as_nanos() as u64);
        if self.recorder.capture_verdicts && shard == 0 {
            self.log.frames.push((ordinal, rec.frame));
        }
        push
    }

    fn drain_verdicts(&mut self, shard: usize, out: &mut Vec<ShardVerdict>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.drain_verdicts(shard, out);
        self.log.drain_busy += t0.elapsed();
        self.log.nonempty_drains += u64::from(out.len() > before);
        note_verdicts(
            &mut self.log,
            self.recorder.capture_verdicts,
            &out[before..],
        );
    }

    fn backlog(&self, shard: usize) -> usize {
        let t0 = Instant::now();
        let backlog = self.inner.backlog(shard);
        self.query_busy.set(self.query_busy.get() + t0.elapsed());
        backlog
    }

    fn active_models(&self, shard: usize) -> usize {
        let t0 = Instant::now();
        let active = self.inner.active_models(shard);
        self.query_busy.set(self.query_busy.get() + t0.elapsed());
        active
    }

    fn set_slot_active(&mut self, slot: Slot, active: bool) {
        let t0 = Instant::now();
        self.inner.set_slot_active(slot, active);
        self.log.control_busy += t0.elapsed();
    }

    fn network(&mut self) -> (Vec<GatewayLoad>, Vec<FleetEvent>) {
        let t0 = Instant::now();
        let out = self.inner.network();
        self.log.network += t0.elapsed();
        out
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe);
    }

    fn finish(self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        let TimedSession {
            inner,
            mut log,
            query_busy,
            recorder,
        } = self;
        let before = out.len();
        let t0 = Instant::now();
        let totals = inner.finish(out);
        log.closed = Instant::now();
        log.finish = log.closed - t0;
        log.control_busy += query_busy.get();
        note_verdicts(&mut log, recorder.capture_verdicts, &out[before..]);
        recorder.store(log);
        totals
    }
}

/// Counts freshly produced verdicts into `log`, keeping them when the
/// recorder captures verdicts for the oracle.
fn note_verdicts(log: &mut SessionLog, keep: bool, fresh: &[ShardVerdict]) {
    log.verdicts += fresh.len() as u64;
    log.inferences += fresh
        .iter()
        .map(|v| u64::from(v.active_mask.count_ones()))
        .sum::<u64>();
    if keep {
        log.shard_verdicts.extend_from_slice(fresh);
    }
}
