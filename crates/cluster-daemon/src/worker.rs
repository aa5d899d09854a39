//! The worker runtime: handshake, heartbeat, model rebuild, cell loop.
//!
//! A worker is a thin shell around [`cluster_sched::execute_cell`] — the
//! same function every in-process sweep thread runs — so a cell computes
//! the identical [`cluster_sched::ClusterReport`] no matter which side of
//! the socket it runs on. The only worker-specific machinery is the
//! heartbeat thread (started *before* model training, which takes seconds
//! and must not read as death; it wakes at once when the worker stops)
//! and the telemetry pipeline: a [`SpanSink`] stamps every event with the
//! wire-carried run id, the worker's name, a dense sequence, and the cell
//! being executed, then a rebatching forward sink ships them to the daemon
//! as `TraceBatch` frames (one frame per batch — never one frame per
//! event).
//!
//! The daemon's `HelloAck` says whether it records telemetry. Only then
//! does the worker forward. A worker-local `--trace` sink is fed either
//! way; with neither, the pipeline does not exist and cells run untraced,
//! exactly as an in-process sweep's cells do.

use std::sync::Arc;
use std::time::Duration;

use actor_core::telemetry::{
    FanoutSink, SharedSink, SpanSink, SpannedEvent, TelemetrySink, TraceEvent,
};
use cluster_rpc::{
    client_handshake, CellOutcome, Connection, Message, RpcError, SweepContext, Wire,
};
use cluster_sched::{
    execute_cell, mix_by_name, workload_shape_by_name, FleetModel, WorkloadSpec, MACHINE_MIX_NAMES,
};
use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;

use crate::error::WorkerError;

/// Ships trace events to the daemon as `TraceBatch` frames, rebatching
/// internally: *every* entry path (`record`, `record_batch`,
/// `record_spanned`) accumulates into one buffer that is sent as a single
/// frame when `capacity` events gather or on flush — so no caller can
/// regress to one frame per event. Send failures are swallowed: a dying
/// connection surfaces in the cell loop, not in telemetry.
struct TraceForwardSink {
    conn: Arc<Connection>,
    capacity: usize,
    buf: Mutex<Vec<SpannedEvent>>,
}

impl TraceForwardSink {
    /// Batch size for trace frames: a few KiB per frame.
    const DEFAULT_CAPACITY: usize = 256;

    fn new(conn: Arc<Connection>) -> Self {
        Self { conn, capacity: Self::DEFAULT_CAPACITY, buf: Mutex::new(Vec::new()) }
    }

    #[cfg(test)]
    fn with_capacity(conn: Arc<Connection>, capacity: usize) -> Self {
        Self { conn, capacity: capacity.max(1), buf: Mutex::new(Vec::new()) }
    }

    fn push(&self, events: &[SpannedEvent]) {
        let mut buf = self.buf.lock();
        buf.extend_from_slice(events);
        if buf.len() >= self.capacity {
            let batch = std::mem::take(&mut *buf);
            // Send while holding the lock so concurrent recorders cannot
            // interleave a later event ahead of this frame.
            let _ = self.conn.send(&Message::TraceBatch(batch));
        }
    }
}

impl TelemetrySink for TraceForwardSink {
    fn record(&self, event: &TraceEvent) {
        self.push(std::slice::from_ref(&SpannedEvent::unspanned(event.clone())));
    }

    fn record_batch(&self, events: &[TraceEvent]) {
        let spanned: Vec<SpannedEvent> =
            events.iter().cloned().map(SpannedEvent::unspanned).collect();
        self.push(&spanned);
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        self.push(events);
    }

    fn flush(&self) {
        let mut buf = self.buf.lock();
        if !buf.is_empty() {
            let batch = std::mem::take(&mut *buf);
            let _ = self.conn.send(&Message::TraceBatch(batch));
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Executes one assigned cell, containing panics: the daemon gets a typed
/// [`CellOutcome`] either way, never a dead worker from a bad cell.
fn run_one_cell(
    fleet: &FleetModel,
    workload: fn(usize) -> WorkloadSpec,
    max_node_w: f64,
    cell: &cluster_sched::SweepCell,
    telemetry: Option<&SharedSink>,
) -> CellOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_cell(fleet, workload, max_node_w, cell, telemetry)
    }));
    match result {
        Ok(Ok(report)) => CellOutcome::Completed(report),
        Ok(Err(e)) => CellOutcome::Failed { reason: e.to_string(), panicked: false },
        Err(payload) => {
            CellOutcome::Failed { reason: panic_message(payload.as_ref()), panicked: true }
        }
    }
}

/// Rebuilds the sweep's fleet from the wire-carried mix names —
/// [`FleetModel::build`] is deterministic in `(config, benchmarks, mixes)`,
/// so every worker trains the exact per-generation tables the daemon's
/// in-process peer would use. An unknown mix name on the wire is a loud
/// model error, never a silent fallback to the reference machine.
fn fleet_from_context(ctx: &SweepContext) -> Result<Arc<FleetModel>, String> {
    let mixes = ctx
        .machines
        .iter()
        .map(|name| {
            mix_by_name(name).ok_or_else(|| {
                format!(
                    "unknown machine mix {name:?} in sweep context; valid mixes are: {}",
                    MACHINE_MIX_NAMES.join(", ")
                )
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    FleetModel::build(&ctx.config, &ctx.benchmarks, &mixes).map(Arc::new).map_err(|e| e.to_string())
}

/// Runs the worker protocol over `wire` until the daemon says
/// [`Message::Shutdown`] (clean exit) or the connection fails.
///
/// The fleet is rebuilt from the handshake's [`SweepContext`] machine-mix
/// names, so every worker trains the exact tables the daemon's in-process
/// peer would use. `local` is an optional worker-side sink (e.g. a
/// `--trace` JSONL file) that receives the span-stamped events the daemon
/// does when it traces, and receives them all the same when it does not.
pub fn run_worker_traced(
    wire: Box<dyn Wire>,
    name: &str,
    local: Option<SharedSink>,
) -> Result<(), WorkerError> {
    run_worker_with(wire, name, local, fleet_from_context)
}

/// [`run_worker_traced`] with an injectable fleet source — tests hand every
/// duplex worker one prebuilt `Arc` instead of re-training per worker.
pub fn run_worker_with(
    wire: Box<dyn Wire>,
    name: &str,
    local: Option<SharedSink>,
    fleet_builder: impl FnOnce(&SweepContext) -> Result<Arc<FleetModel>, String>,
) -> Result<(), WorkerError> {
    let conn = Arc::new(Connection::new(wire).map_err(RpcError::from)?);
    let (ctx, trace) = client_handshake(&conn, name)?;

    // Heartbeats start before the (seconds-long) model build so training
    // never reads as death at the daemon's liveness scan. The thread waits
    // on the stop channel rather than sleeping, so dropping `stop` ends it
    // at once instead of up to one heartbeat period later.
    let (stop, stopped) = crossbeam::channel::unbounded::<()>();
    let heartbeat = {
        let conn = Arc::clone(&conn);
        let period = Duration::from_millis(ctx.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            while conn.send(&Message::Heartbeat).is_ok() {
                if !matches!(stopped.recv_timeout(period), Err(RecvTimeoutError::Timeout)) {
                    break;
                }
            }
        })
    };

    let span = telemetry(&conn, name, ctx.run_id, trace, local);
    let result = worker_loop(&conn, span, &ctx, fleet_builder);

    drop(stop);
    conn.shutdown();
    let _ = heartbeat.join();
    result
}

/// The worker's telemetry pipeline: a [`SpanSink`] (stamping run_id,
/// worker, seq and cell) in front of the daemon forwarder when the daemon
/// traces, the local sink when there is one, or both through a fan-out.
/// With neither it is `None`, and cells run untraced: no event is built
/// and no decide latency is timed, exactly as in an in-process sweep.
fn telemetry(
    conn: &Arc<Connection>,
    name: &str,
    run_id: u64,
    trace: bool,
    local: Option<SharedSink>,
) -> Option<Arc<SpanSink>> {
    let forward = trace.then(|| Arc::new(TraceForwardSink::new(Arc::clone(conn))) as SharedSink);
    let downstream: SharedSink = match (forward, local) {
        (Some(forward), Some(local)) => Arc::new(FanoutSink::new(vec![forward, local])),
        (Some(sink), None) | (None, Some(sink)) => sink,
        (None, None) => return None,
    };
    Some(Arc::new(SpanSink::new(downstream, run_id, name)))
}

fn worker_loop(
    conn: &Connection,
    span: Option<Arc<SpanSink>>,
    ctx: &SweepContext,
    fleet_builder: impl FnOnce(&SweepContext) -> Result<Arc<FleetModel>, String>,
) -> Result<(), WorkerError> {
    let workload = workload_shape_by_name(&ctx.workload)
        .ok_or_else(|| WorkerError::UnknownShape { name: ctx.workload.clone() })?;
    let fleet = fleet_builder(ctx).map_err(|reason| WorkerError::Model { reason })?;
    let telemetry = span.clone().map(|s| s as SharedSink);
    loop {
        match conn.recv()? {
            Message::AssignCell(cell) => {
                if let Some(span) = &span {
                    span.set_cell(Some(cell.index as u64));
                }
                let outcome =
                    run_one_cell(&fleet, workload, ctx.max_node_w, &cell, telemetry.as_ref());
                if let Some(span) = &span {
                    span.set_cell(None);
                    // Trace frames precede the result: once the daemon sees
                    // the CellResult, the cell's telemetry is fully
                    // delivered.
                    span.flush();
                }
                conn.send(&Message::CellResult { index: cell.index, outcome })?;
            }
            Message::Shutdown => return Ok(()),
            Message::Heartbeat => {}
            Message::Error(e) => return Err(WorkerError::Rpc(e)),
            other => {
                return Err(WorkerError::Rpc(RpcError::Protocol {
                    reason: format!("unexpected {} frame for a worker", other.kind()),
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_rpc::duplex;

    fn progress(done: usize) -> TraceEvent {
        TraceEvent::Progress { name: "t".into(), done, expected: 100 }
    }

    /// Regression for the one-frame-per-event bug: every entry path of the
    /// forwarder rebatches, so 10 single-event records at capacity 4 make
    /// 3 frames, not 10.
    #[test]
    fn forward_sink_rebatches_single_event_records_into_frames() {
        let (ours, theirs) = duplex();
        let conn = Arc::new(Connection::new(Box::new(ours)).unwrap());
        let peer = Connection::new(Box::new(theirs)).unwrap();
        let sink = TraceForwardSink::with_capacity(conn, 4);

        for i in 0..10 {
            sink.record(&progress(i));
        }
        sink.flush();

        let mut frames = 0;
        let mut events = 0;
        while events < 10 {
            match peer.recv().unwrap() {
                Message::TraceBatch(batch) => {
                    frames += 1;
                    events += batch.len();
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(events, 10, "every event arrives");
        assert_eq!(frames, 3, "4 + 4 + 2, never one frame per event");
    }

    /// Span stamps survive the forwarder: what the daemon receives is what
    /// the SpanSink stamped.
    #[test]
    fn forward_sink_preserves_span_stamps() {
        let (ours, theirs) = duplex();
        let conn = Arc::new(Connection::new(Box::new(ours)).unwrap());
        let peer = Connection::new(Box::new(theirs)).unwrap();
        let forward: SharedSink = Arc::new(TraceForwardSink::with_capacity(conn, 64));
        let span = SpanSink::new(forward.clone(), 99, "w-test");
        span.set_cell(Some(5));
        span.record(&progress(0));
        span.record(&progress(1));
        span.flush();

        match peer.recv().unwrap() {
            Message::TraceBatch(batch) => {
                assert_eq!(batch.len(), 2);
                for (i, e) in batch.iter().enumerate() {
                    let s = e.span.as_ref().expect("stamped");
                    assert_eq!(s.run_id, 99);
                    assert_eq!(s.source, "w-test");
                    assert_eq!(s.seq, i as u64);
                    assert_eq!(s.cell, Some(5));
                }
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}
