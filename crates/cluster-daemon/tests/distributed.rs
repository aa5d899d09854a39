//! Daemon + worker integration over in-memory duplexes: completion parity
//! with `run_sweep_fleet`, reassignment on worker death, stall and protocol
//! violation, terminal simulation failures, the no-worker timeout, the
//! handshake's trace gate and a prompt worker exit on shutdown.
//!
//! Every duplex worker gets the one prebuilt fleet via `run_worker_with` —
//! the process-level path (which re-trains per worker) is covered by the
//! bench crate's tests, where the worker binary exists.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use actor_core::config::ActorConfig;
use actor_core::telemetry::{MemorySink, MetricsRegistry, SharedSink, SpanSink, TraceEvent};
use cluster_daemon::{run_worker_with, serve, DaemonConfig, DaemonError};
use cluster_rpc::{
    client_handshake, duplex, request_metrics, server_handshake, CellOutcome, Connection, Message,
    SweepContext, Wire,
};
use cluster_sched::{
    quad_test_workload, run_sweep_fleet, ClusterReport, FleetModel, SweepRun, SweepSpec,
    WorkloadModel,
};
use crossbeam::channel::{unbounded, Sender};
use npb_workloads::BenchmarkId;
use xeon_sim::Machine;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn fleet() -> Arc<FleetModel> {
    static FLEET: OnceLock<Arc<FleetModel>> = OnceLock::new();
    Arc::clone(FLEET.get_or_init(|| {
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        let model = WorkloadModel::build(&Machine::xeon_qx6600(), &config, &IDS).unwrap();
        Arc::new(FleetModel::single(model))
    }))
}

/// The in-process serial reference every distributed run must reproduce.
fn serial_run(spec: &SweepSpec) -> SweepRun {
    run_sweep_fleet(spec, &fleet(), 1, None, |_, _, _| {}).unwrap()
}

fn context() -> SweepContext {
    SweepContext {
        config: ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() },
        benchmarks: IDS.to_vec(),
        workload: "quad-test".into(),
        machines: vec!["uniform".into()],
        max_node_w: 160.0,
        heartbeat_ms: 25,
        run_id: 4242,
    }
}

fn spec() -> SweepSpec {
    SweepSpec {
        nodes: vec![2],
        budgets: vec![("tight".into(), 0.45)],
        policies: vec!["fcfs".into(), "power-aware".into()],
        seeds: vec![1, 2],
        max_node_w: 160.0,
        workload: quad_test_workload,
        ..SweepSpec::default()
    }
}

/// Connects a well-behaved worker over a duplex, returning its thread.
fn spawn_worker(
    conns: &Sender<Box<dyn Wire>>,
    name: &'static str,
) -> std::thread::JoinHandle<Result<(), cluster_daemon::WorkerError>> {
    let (daemon_side, worker_side) = duplex();
    conns.send(Box::new(daemon_side)).map_err(|_| "conns channel closed").unwrap();
    std::thread::spawn(move || run_worker_with(Box::new(worker_side), name, None, |_| Ok(fleet())))
}

/// Plays the daemon by hand over one duplex: handshakes a worker (with
/// `local` as its worker-side sink) telling it `trace`, assigns every cell
/// of `spec` in order, then shuts it down. Returns the reports and the
/// number of `TraceBatch` frames the worker sent.
fn hand_daemon(
    spec: &SweepSpec,
    trace: bool,
    local: Option<SharedSink>,
) -> (Vec<ClusterReport>, usize) {
    let (daemon_side, worker_side) = duplex();
    let worker = std::thread::spawn(move || {
        run_worker_with(Box::new(worker_side), "by-hand", local, |_| Ok(fleet()))
    });
    let conn = Connection::new(Box::new(daemon_side)).unwrap();
    assert_eq!(server_handshake(&conn, &context(), trace).unwrap(), "by-hand");
    let mut reports = Vec::new();
    let mut batches = 0;
    for cell in spec.expand() {
        conn.send(&Message::AssignCell(cell.clone())).unwrap();
        loop {
            match conn.recv().unwrap() {
                Message::Heartbeat => {}
                Message::TraceBatch(_) => batches += 1,
                Message::CellResult { index, outcome: CellOutcome::Completed(report) } => {
                    assert_eq!(index, cell.index);
                    reports.push(report);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    conn.send(&Message::Shutdown).unwrap();
    worker.join().unwrap().unwrap();
    (reports, batches)
}

#[test]
fn duplex_workers_complete_the_grid_identically_to_run_sweep_fleet() {
    let spec = spec();
    let serial = serial_run(&spec);

    let (conn_tx, conn_rx) = unbounded();
    let w1 = spawn_worker(&conn_tx, "dup-1");
    let w2 = spawn_worker(&conn_tx, "dup-2");
    drop(conn_tx);

    let mut streamed = 0usize;
    let dist = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, done, total| {
        streamed += 1;
        assert!(done <= total);
    })
    .unwrap();

    assert_eq!(streamed, spec.len());
    assert_eq!(dist.workers_seen, 2);
    assert_eq!(dist.reassignments, 0);
    assert_eq!(dist.run.jobs, 2);
    // The distributed outcomes are the serial outcomes, index for index.
    assert_eq!(dist.run.outcomes, serial.outcomes);

    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
}

#[test]
fn a_worker_dying_mid_cell_gets_its_cell_reassigned() {
    let spec = spec();
    let serial = serial_run(&spec);

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A rigged worker: handshakes, accepts one cell, then drops the
    // connection without answering — a crash from the daemon's viewpoint.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let crasher = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "crasher").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(_)) => {
                    got_cell_tx.send(()).unwrap();
                    conn.shutdown();
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
    });

    // The survivor joins only once the crasher holds a cell, so the
    // reassignment path is exercised deterministically.
    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    let dist = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap();
    assert!(dist.reassignments >= 1, "the crashed worker's cell must be requeued");
    assert_eq!(dist.run.outcomes, serial.outcomes);

    crasher.join().unwrap();
    survivor.join().unwrap().unwrap();
}

#[test]
fn a_stalled_worker_is_declared_dead_by_the_heartbeat_scan() {
    let spec = spec();
    let serial = serial_run(&spec);

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A rigged worker that handshakes, takes a cell, then goes silent: no
    // heartbeats, no result. SIGKILL on a remote host looks exactly like
    // this until the kernel tears the socket down.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let staller = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "staller").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(_)) => {
                    got_cell_tx.send(()).unwrap();
                    // Outlive the liveness grace (10 × 25 ms) in silence.
                    std::thread::sleep(Duration::from_millis(600));
                }
                _ => return, // shut down once the daemon declares us dead
            }
        }
    });

    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    let dist = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap();
    assert!(dist.reassignments >= 1, "the stalled worker's cell must be requeued");
    assert_eq!(dist.run.outcomes, serial.outcomes);

    staller.join().unwrap();
    survivor.join().unwrap().unwrap();
}

#[test]
fn a_result_for_an_unassigned_cell_drops_the_worker_and_requeues_its_cell() {
    let spec = spec();
    let serial = serial_run(&spec);
    let total = spec.len();

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A rigged worker: answers its assignment with a plausible report
    // filed under another cell's index, then waits to be shut down.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let reports = serial.outcomes.clone();
    let liar = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "liar").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(cell)) => {
                    conn.send(&Message::CellResult {
                        index: (cell.index + 1) % total,
                        outcome: CellOutcome::Completed(reports[cell.index].report.clone()),
                    })
                    .unwrap();
                    let _ = got_cell_tx.send(());
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
    });

    // The honest worker joins only once the liar has answered, so the
    // protocol-violation path runs deterministically.
    let honest = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "honest");
        drop(conn_tx);
        worker.join().unwrap()
    });

    let memory = Arc::new(MemorySink::new());
    let dist = serve(
        &spec,
        &DaemonConfig::new(context()),
        conn_rx,
        Some(Arc::clone(&memory) as SharedSink),
        |_, _, _| {},
    )
    .unwrap();
    assert_eq!(dist.run.outcomes, serial.outcomes, "the misfiled report must not be recorded");
    assert!(dist.reassignments >= 1, "the liar's own cell must be requeued");
    assert!(
        memory.events().iter().any(|e| matches!(
            e,
            TraceEvent::WorkerDead { worker, reason }
                if worker == "liar" && reason.contains("not assigned")
        )),
        "the liar must be dropped for the protocol violation, not for a stall"
    );

    liar.join().unwrap();
    honest.join().unwrap().unwrap();
}

#[test]
fn simulation_failures_are_terminal_and_report_the_lowest_index() {
    let spec = spec();
    let (conn_tx, conn_rx) = unbounded();

    // A worker that answers every assignment with a deterministic failure.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let failer = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "failer").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(cell)) => {
                    conn.send(&Message::CellResult {
                        index: cell.index,
                        outcome: CellOutcome::Failed {
                            reason: format!("rigged failure {}", cell.index),
                            panicked: false,
                        },
                    })
                    .unwrap();
                }
                _ => return,
            }
        }
    });
    drop(conn_tx);

    let err = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::Cell { cell, reason, attempts } => {
            assert_eq!(cell.index, 0, "lowest-index failure wins, as in run_sweep_fleet");
            assert!(reason.contains("rigged failure 0"), "{reason}");
            assert_eq!(attempts, 1, "simulation failures are never retried");
        }
        other => panic!("expected DaemonError::Cell, got {other}"),
    }
    failer.join().unwrap();
}

#[test]
fn repeated_worker_deaths_exhaust_the_attempt_cap() {
    // One cell, three crashers: the cell dies with each in turn, and the
    // third death exhausts the default 3-attempt cap.
    let spec = SweepSpec { policies: vec!["fcfs".into()], seeds: vec![1], ..spec() };
    let (conn_tx, conn_rx) = unbounded();
    let mut crashers = Vec::new();
    for _ in 0..3 {
        let (daemon_side, worker_side) = duplex();
        conn_tx
            .send(Box::new(daemon_side) as Box<dyn Wire>)
            .map_err(|_| "conns channel closed")
            .unwrap();
        crashers.push(std::thread::spawn(move || {
            let conn = Connection::new(Box::new(worker_side)).unwrap();
            client_handshake(&conn, "crasher").unwrap();
            loop {
                match conn.recv() {
                    Ok(Message::AssignCell(_)) => {
                        conn.shutdown();
                        return;
                    }
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        }));
    }
    drop(conn_tx);

    // A guard against hangs: a correct daemon resolves the cell (as a
    // failure) long before this expires.
    let mut config = DaemonConfig::new(context());
    config.no_worker_timeout = Some(Duration::from_secs(10));
    let err = serve(&spec, &config, conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::Cell { cell, attempts, reason } => {
            assert_eq!(cell.index, 0);
            assert_eq!(attempts, 3, "the cap is 3 attempts");
            assert!(reason.contains("died") || reason.contains("stalled"), "{reason}");
        }
        other => panic!("expected DaemonError::Cell, got {other}"),
    }
    for c in crashers {
        c.join().unwrap();
    }
}

#[test]
fn lifecycle_events_and_worker_spans_survive_a_death_and_merge_causally() {
    let spec = spec();

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A crasher that dies holding a cell, exactly as in the reassignment
    // test above — but this run watches the telemetry.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let crasher = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "crasher").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(_)) => {
                    got_cell_tx.send(()).unwrap();
                    conn.shutdown();
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
    });
    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    // The daemon's own pipeline: a SpanSink stamping source "daemon" in
    // front of a MemorySink. Worker frames arrive pre-stamped and must
    // pass through untouched.
    let memory = Arc::new(MemorySink::new());
    let span: SharedSink =
        Arc::new(SpanSink::new(Arc::clone(&memory) as SharedSink, 4242, "daemon"));
    let dist =
        serve(&spec, &DaemonConfig::new(context()), conn_rx, Some(span), |_, _, _| {}).unwrap();
    assert!(dist.reassignments >= 1);
    crasher.join().unwrap();
    survivor.join().unwrap().unwrap();

    let events = memory.spanned_events();
    let kinds: Vec<&'static str> = events.iter().map(|e| e.event.kind()).collect();
    assert!(kinds.iter().filter(|k| **k == "worker_connected").count() >= 2, "{kinds:?}");
    assert!(kinds.contains(&"worker_dead"), "{kinds:?}");
    assert!(kinds.contains(&"cell_reassigned"), "{kinds:?}");
    assert_eq!(kinds.iter().filter(|k| **k == "sweep_cell").count(), spec.len());

    // Every event is stamped (the daemon stamps its own, workers stamp
    // theirs), all under the handshake's run_id, and per-source sequences
    // are dense from 0 — the invariant trace_tool's gap check relies on.
    let mut by_source: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for e in &events {
        let s = e.span.as_ref().expect("all events stamped");
        assert_eq!(s.run_id, 4242);
        by_source.entry(s.source.as_str()).or_default().push(s.seq);
    }
    assert!(by_source.contains_key("daemon"), "{by_source:?}");
    assert!(by_source.contains_key("survivor"), "worker spans must survive the wire");
    for (source, mut seqs) in by_source {
        seqs.sort_unstable();
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(*seq, i as u64, "gap in {source} sequence: {seqs:?}");
        }
    }

    // Worker events carry the cell they executed under.
    assert!(
        events.iter().any(|e| {
            e.span.as_ref().is_some_and(|s| s.source == "survivor" && s.cell.is_some())
        }),
        "survivor's in-cell events must be stamped with their cell index"
    );
}

#[test]
fn a_live_daemon_answers_metrics_requests_and_keeps_counters_current() {
    let spec = spec();
    let registry = Arc::new(MetricsRegistry::new());
    registry.incr("preseeded");

    let (conn_tx, conn_rx) = unbounded();
    let w1 = spawn_worker(&conn_tx, "dup-1");

    // A metrics client is just another accepted connection whose first
    // frame is MetricsRequest: served a snapshot by the handler thread,
    // never reaching the control loop.
    let (daemon_side, client_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let client = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(client_side)).unwrap();
        request_metrics(&conn).unwrap()
    });
    drop(conn_tx);

    let mut config = DaemonConfig::new(context());
    config.metrics = Some(Arc::clone(&registry));
    let dist = serve(&spec, &config, conn_rx, None, |_, _, _| {}).unwrap();
    w1.join().unwrap().unwrap();

    let text = client.join().unwrap();
    assert!(text.contains("preseeded 1"), "snapshot must render the registry:\n{text}");

    assert_eq!(registry.counter("workers_connected"), 1);
    assert_eq!(registry.counter("cells_completed"), spec.len() as u64);
    assert_eq!(registry.counter("workers_dead"), 0);
    assert_eq!(
        registry.counter("trace_events_ingested"),
        0,
        "a daemon with no sink must not be sent worker telemetry"
    );
    assert_eq!(dist.run.outcomes.len(), spec.len());
}

#[test]
fn a_workerless_daemon_gives_up_after_the_configured_wait() {
    // Accept source open but silent: the no-worker timeout fires.
    let (conn_tx, conn_rx) = unbounded::<Box<dyn Wire>>();
    let mut config = DaemonConfig::new(context());
    config.no_worker_timeout = Some(Duration::from_millis(50));
    let err = serve(&spec(), &config, conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::NoWorkers { waited_s } => assert!(waited_s >= 0.05),
        other => panic!("expected DaemonError::NoWorkers, got {other}"),
    }
    drop(conn_tx);

    // Accept source gone with no workers: nothing can ever arrive, which
    // is a disconnection, not a timeout.
    let (conn_tx, conn_rx) = unbounded::<Box<dyn Wire>>();
    drop(conn_tx);
    let err =
        serve(&spec(), &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::Disconnected { resolved, total } => {
            assert_eq!((resolved, total), (0, 4));
        }
        other => panic!("expected DaemonError::Disconnected, got {other}"),
    }
}

#[test]
fn an_untraced_daemon_is_sent_no_trace_frames() {
    let spec = spec();
    let (reports, batches) = hand_daemon(&spec, false, None);
    assert_eq!(batches, 0, "an untraced handshake must stop all forwarding");
    let serial: Vec<ClusterReport> =
        serial_run(&spec).outcomes.into_iter().map(|o| o.report).collect();
    assert_eq!(reports, serial);

    // The same handshake told traced: the worker forwards.
    let (_, batches) = hand_daemon(&spec, true, None);
    assert!(batches > 0, "a traced handshake must forward worker telemetry");
}

/// Together with the untraced parity test at the top, this pins that a
/// sweep's cells are identical traced and untraced.
#[test]
fn a_traced_daemon_counts_exactly_the_worker_events_its_sink_records() {
    let spec = spec();
    let (conn_tx, conn_rx) = unbounded();
    let w1 = spawn_worker(&conn_tx, "dup-1");
    let w2 = spawn_worker(&conn_tx, "dup-2");
    drop(conn_tx);

    let registry = Arc::new(MetricsRegistry::new());
    let mut config = DaemonConfig::new(context());
    config.metrics = Some(Arc::clone(&registry));
    let memory = Arc::new(MemorySink::new());
    let span: SharedSink =
        Arc::new(SpanSink::new(Arc::clone(&memory) as SharedSink, 4242, "daemon"));
    let dist = serve(&spec, &config, conn_rx, Some(span), |_, _, _| {}).unwrap();
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
    assert_eq!(dist.run.outcomes, serial_run(&spec).outcomes);

    // Worker events are the ones not stamped by the daemon's own SpanSink.
    let recorded = memory
        .spanned_events()
        .iter()
        .filter(|e| e.span.as_ref().is_some_and(|s| s.source != "daemon"))
        .count();
    assert!(recorded > 0, "a traced sweep must record worker events");
    assert_eq!(registry.counter("trace_events_ingested"), recorded as u64);
}

#[test]
fn a_local_sink_under_an_untraced_daemon_still_gets_every_stamped_event() {
    let spec = spec();
    let local = Arc::new(MemorySink::new());
    let (_, batches) = hand_daemon(&spec, false, Some(Arc::clone(&local) as SharedSink));
    assert_eq!(batches, 0, "the local sink must not turn forwarding back on");

    let events = local.spanned_events();
    assert!(!events.is_empty(), "the worker's own --trace sink must still be fed");
    for (i, e) in events.iter().enumerate() {
        let s = e.span.as_ref().expect("every local event is span-stamped");
        assert_eq!((s.run_id, s.source.as_str()), (4242, "by-hand"));
        assert_eq!(s.seq, i as u64, "the local sequence must be gap-free");
    }
    let cells: std::collections::BTreeSet<u64> =
        events.iter().filter_map(|e| e.span.as_ref().and_then(|s| s.cell)).collect();
    assert_eq!(cells.len(), spec.len(), "every cell's events carry its index");
}

#[test]
fn a_worker_exits_promptly_on_shutdown_whatever_its_heartbeat_period() {
    let fleet = fleet();
    let (daemon_side, worker_side) = duplex();
    let worker = std::thread::spawn(move || {
        run_worker_with(Box::new(worker_side), "prompt", None, move |_| Ok(fleet))
    });
    let conn = Connection::new(Box::new(daemon_side)).unwrap();
    let context = SweepContext { heartbeat_ms: 10_000, ..context() };
    server_handshake(&conn, &context, false).unwrap();
    // The first heartbeat proves the heartbeat thread is running and now
    // waits out its 10 s period; only the exit after Shutdown is timed.
    assert_eq!(conn.recv().unwrap(), Message::Heartbeat);
    let started = Instant::now();
    conn.send(&Message::Shutdown).unwrap();
    worker.join().unwrap().unwrap();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "worker took {waited:?} to exit after Shutdown");
}
