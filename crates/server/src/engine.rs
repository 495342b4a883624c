//! The server runtime: accept loop, per-connection reader/writer threads,
//! a single-threaded device engine, durable ack ordering, graceful drain,
//! and `SIGKILL` recovery.
//!
//! # Thread structure
//!
//! ```text
//! accept loop ──spawns──▶ conn reader ──bounded channel──▶ engine
//!                             │  ▲                            │
//!                             ▼  │ direct replies             │ completions
//!                         conn writer ◀───────────────────────┘
//! ```
//!
//! One **engine** thread owns the [`FrontEnd`] and the disk shelf; each
//! connection gets a reader thread (frame decode, timeout policing,
//! overload shedding) and a writer thread (response encode). The reader's
//! [`crate::proto::FrameReader`] and the writer's scratch buffer are the
//! only buffers on the steady-state path — request decode and response
//! encode allocate nothing per request.
//!
//! # Durability contract
//!
//! The engine persists the whole device image (shelf save, atomic rename)
//! after every batch that acknowledged at least one write, **before** any
//! of that batch's responses are handed to writer threads. `WriteOk` on
//! the wire therefore implies the write is recoverable, which is exactly
//! the invariant the chaos harness audits across `SIGKILL`.
//!
//! # Drain state machine
//!
//! `SIGTERM`/`SIGINT` → accept loop stops accepting and drops its engine
//! sender → connection readers answer new requests with
//! [`ErrCode::ShuttingDown`], wait for their in-flight responses to
//! flush, and close → once the last sender is gone the engine's queue
//! disconnects → the engine runs [`FrontEnd::drain_checkpoint`], saves
//! the shelf a final time, and the process exits 0.

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, Ns, PcmError, TimingModel};
use srbsg_persist::{CheckpointPolicy, Journaled, JournaledScheme};
use srbsg_serve::{FrontEnd, Op, Rejected, Request, ServeConfig};
use srbsg_workloads::splitmix64;

use crate::client::{Endpoint, Stream};
use crate::os;
use crate::proto::{
    encode_response, ErrCode, FrameReader, RequestFrame, ResponseFrame, StatsWire, WireRequest,
    WireResponse,
};
use crate::shelf::{save_with_healing, BankShelf, DiskShelf, RetryPolicy, SaveOutcome, ShelfState};

/// The scheme stack a server bank runs.
pub type ServerScheme = Journaled<SecurityRbsg>;

/// Server configuration (the `srbsg-server` CLI flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen endpoint.
    pub endpoint: Endpoint,
    /// Data directory for the shelf and sidecar files.
    pub data_dir: PathBuf,
    /// Bank count.
    pub banks: usize,
    /// Address-space width per bank (2^width logical lines per bank).
    pub width: u32,
    /// Security RBSG sub-regions per bank.
    pub sub_regions: u64,
    /// Base seed; per-bank and per-generation seeds derive from it.
    pub seed: u64,
    /// Flush saves through the page cache (power-loss durability).
    pub fsync: bool,
    /// Front-end policy.
    pub serve: ServeConfig,
    /// Optional per-request simulated deadline budget.
    pub deadline_ns: Option<u64>,
    /// Worker threads for `submit_batch`.
    pub jobs: usize,
    /// Largest request batch the engine coalesces.
    pub batch_max: usize,
    /// Bound on requests queued for the engine (then: typed overload).
    pub inflight_max: usize,
    /// Bound on concurrent connections (then: typed overload + close).
    pub max_conns: usize,
    /// Close a connection idle this long between frames.
    pub idle_timeout: Duration,
    /// Close a connection that dribbles a single frame this long
    /// (slow-loris defense).
    pub frame_timeout: Duration,
    /// Checkpoint cadence for the per-bank journals.
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            data_dir: PathBuf::from("srbsg-data"),
            banks: 4,
            width: 8,
            sub_regions: 4,
            seed: 0x5EC0_12B5,
            fsync: false,
            serve: ServeConfig {
                queue_depth: 1024,
                quarantine_spare_frac: 0.0,
                ..ServeConfig::default()
            },
            deadline_ns: None,
            jobs: 1,
            batch_max: 64,
            inflight_max: 1024,
            max_conns: 64,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(5),
            checkpoint_every: 128,
        }
    }
}

/// What `boot` found on the shelf.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootReport {
    /// Generation now running (0 = fresh store).
    pub generation: u64,
    /// Whether state was recovered from a previous power session.
    pub recovered: bool,
    /// Journal steps replayed across banks.
    pub replayed_steps: u64,
    /// Line movements performed by the re-keying remap.
    pub rekey_movements: u64,
    /// Acked writes carried over from previous generations.
    pub acked_writes: u64,
    /// Shelf save counter committed at boot; the engine continues from
    /// the next value.
    pub save_seq: u64,
    /// Whether the load scrub healed a damaged shelf copy.
    pub healed_shelf_slot: bool,
}

/// State every server thread sees. `stats` is the fold
/// ([`StatsWire::note`]) of every response frame sent this session plus
/// the connection gauges; its `draining` field is filled from `draining`
/// only when a Stats reply is built.
struct Shared {
    stats: Mutex<StatsWire>,
    draining: AtomicBool,
    logical_lines: u64,
    idle_timeout: Duration,
    frame_timeout: Duration,
}

impl Shared {
    fn stats(&self) -> MutexGuard<'_, StatsWire> {
        self.stats.lock().expect("stats lock poisoned")
    }

    /// Write `frame` to `stream`, counting it first so no client ever
    /// sees a response the counters do not yet hold.
    fn write_frame(&self, stream: &mut Stream, scratch: &mut Vec<u8>, frame: &ResponseFrame) {
        self.stats().note(&frame.resp);
        scratch.clear();
        encode_response(scratch, frame);
        let _ = stream.write_all(scratch);
    }
}

/// Response handed to a connection's writer thread. `engine_reply` marks
/// responses completing an engine round-trip, whose flush decrements the
/// connection's in-flight counter.
struct WriterMsg {
    frame: ResponseFrame,
    engine_reply: bool,
}

struct EngineMsg {
    resp: mpsc::Sender<WriterMsg>,
    req_id: u64,
    la: u64,
    op: Op,
}

fn policy(cfg: &ServerConfig) -> CheckpointPolicy {
    CheckpointPolicy::every_steps(cfg.checkpoint_every)
}

/// Snapshot a front-end's durable image for the shelf: every bank's
/// persistence store and PCM image plus the device clock. This is the one
/// place a [`ShelfState`] is built from a live front-end.
pub fn capture<S: JournaledScheme + Send>(
    fe: &FrontEnd<Journaled<S>>,
    save_seq: u64,
    generation: u64,
    seed: u64,
    acked: u64,
) -> ShelfState {
    let sys = fe.system();
    ShelfState {
        save_seq,
        generation,
        seed,
        now_ns: sys.now_ns(),
        acked_writes: acked,
        banks: sys
            .banks()
            .iter()
            .map(|mc| BankShelf::capture(mc.scheme().store(), mc.bank()))
            .collect(),
    }
}

/// Rebuild the front-end a shelved image describes, as the next power
/// generation: every bank goes through **re-keyed** journal recovery (a
/// fresh per-generation seed derived from `rekey_base`, exactly as the
/// paper prescribes after a power cycle) and resumes the shelved clock.
/// `rekey_base` must not be derivable from the shelf: [`boot`] draws it
/// from the OS entropy pool and never writes it to media. The caller
/// commits the new-generation image; the report carries the counters to
/// commit with (`generation`, `save_seq`) and what recovery did.
pub fn restore<S: JournaledScheme + Send>(
    state: &ShelfState,
    policy: CheckpointPolicy,
    serve: ServeConfig,
    rekey_base: u64,
) -> std::io::Result<(FrontEnd<Journaled<S>>, BootReport)> {
    let generation = state.generation + 1;
    let mut report = BootReport {
        generation,
        recovered: true,
        acked_writes: state.acked_writes,
        save_seq: state.save_seq + 1,
        ..BootReport::default()
    };
    let mut banks = Vec::with_capacity(state.banks.len());
    for (b, bs) in state.banks.iter().enumerate() {
        let mut bank = bs.restore_bank(u64::MAX, TimingModel::PAPER);
        let rekey = splitmix64(rekey_base ^ (generation << 20) ^ b as u64);
        let (jw, rec) =
            Journaled::<S>::recover_rekeyed_with_policy(&bs.store, &mut bank, rekey, policy)
                .map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bank {b} recovery failed: {e:?}"),
                    )
                })?;
        report.replayed_steps += rec.replayed_steps;
        report.rekey_movements += rec.rekey_movements;
        let mut mc = MemoryController::from_bank(jw, bank);
        mc.advance_clock(state.now_ns);
        banks.push(mc);
    }
    let fe = FrontEnd::new(MultiBankSystem::from_controllers(banks), serve);
    Ok((fe, report))
}

/// Eight bytes from the OS entropy pool. An error, never a predictable
/// fallback: a re-key seed anyone can guess keeps the old mapping's
/// secrecy no better than the shelf's.
fn entropy_seed() -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    std::fs::File::open("/dev/urandom")?.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Build a fresh device or recover the shelved one. On recovery the
/// Security RBSG mapping is **re-keyed** from fresh entropy (see
/// [`restore`]), and the new-generation image is committed back to the
/// shelf before serving.
pub fn boot(
    cfg: &ServerConfig,
) -> std::io::Result<(FrontEnd<ServerScheme>, DiskShelf, BootReport)> {
    let mut shelf = DiskShelf::open(&cfg.data_dir, cfg.fsync)?;
    let pol = policy(cfg);
    // `ShelfError` is typed: a corrupt image, a truncated image, and a
    // failing medium each surface distinctly in the operator log.
    let loaded = shelf.load().map_err(std::io::Error::from)?;
    match loaded {
        None => {
            let banks = (0..cfg.banks)
                .map(|b| {
                    let mut c = SecurityRbsgConfig::small(cfg.width, cfg.sub_regions);
                    c.seed = splitmix64(cfg.seed ^ b as u64);
                    MemoryController::new(
                        Journaled::with_policy(SecurityRbsg::new(c), pol),
                        u64::MAX,
                        TimingModel::PAPER,
                    )
                })
                .collect();
            let fe = FrontEnd::new(MultiBankSystem::from_controllers(banks), cfg.serve);
            let report = BootReport {
                save_seq: 1,
                ..BootReport::default()
            };
            shelf.save(&capture(&fe, 1, 0, cfg.seed, 0))?;
            Ok((fe, shelf, report))
        }
        Some((state, scrub)) => {
            if let Some(slot) = scrub.healed_slot {
                eprintln!(
                    "srbsg-server: shelf scrub healed copy {} ({}) from the survivor",
                    slot,
                    scrub
                        .damage
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "unknown damage".into()),
                );
            }
            let (fe, mut report) = restore(&state, pol, cfg.serve, entropy_seed()?)?;
            report.healed_shelf_slot = scrub.healed_slot.is_some();
            shelf.save(&capture(
                &fe,
                report.save_seq,
                report.generation,
                state.seed,
                state.acked_writes,
            ))?;
            Ok((fe, shelf, report))
        }
    }
}

fn reject_to_wire(rej: &Rejected) -> (ErrCode, u64) {
    match rej {
        Rejected::QueueFull { bank, .. } => (ErrCode::QueueFull, *bank as u64),
        Rejected::DeadlineExceeded { bank, .. } => (ErrCode::DeadlineExceeded, *bank as u64),
        Rejected::BankQuarantined { bank } => (ErrCode::BankQuarantined, *bank as u64),
        Rejected::RetriesExhausted { attempts, .. } => {
            (ErrCode::RetriesExhausted, *attempts as u64)
        }
        Rejected::ReadOnly => (ErrCode::ReadOnly, 0),
        Rejected::Fault(PcmError::AddressOutOfRange { la, .. }) => {
            (ErrCode::AddressOutOfRange, *la)
        }
        Rejected::Fault(_) => (ErrCode::DeviceFault, 0),
    }
}

fn clamp_ns(ns: Ns) -> u64 {
    ns.min(u64::MAX as Ns) as u64
}

struct EngineState {
    fe: FrontEnd<ServerScheme>,
    shelf: DiskShelf,
    generation: u64,
    seed: u64,
    acked_writes: u64,
    save_seq: u64,
    read_only: bool,
}

fn engine_loop(
    mut st: EngineState,
    rx: mpsc::Receiver<EngineMsg>,
    cfg: ServerConfig,
) -> std::io::Result<()> {
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut msgs = vec![first];
        while msgs.len() < cfg.batch_max {
            match rx.try_recv() {
                Ok(m) => msgs.push(m),
                Err(_) => break,
            }
        }
        let arrival = st.fe.system().now_ns();
        let deadline = cfg
            .deadline_ns
            .map(|d| arrival + d as Ns)
            .unwrap_or(Ns::MAX);
        let batch: Vec<Request> = msgs
            .iter()
            .map(|m| Request {
                la: m.la,
                op: m.op,
                arrival_ns: arrival,
                deadline_ns: deadline,
            })
            .collect();
        let mut completions = st.fe.submit_batch(batch, cfg.jobs);
        completions.sort_by_key(|c| c.id);
        debug_assert_eq!(completions.len(), msgs.len());

        let new_acks = completions
            .iter()
            .zip(&msgs)
            .filter(|(c, m)| c.result.is_ok() && matches!(m.op, Op::Write(_)))
            .count() as u64;
        // Acks must not outrun durability: a batch with fresh write acks
        // is saved *before* its responses dispatch, with self-healing —
        // transient media errors are retried away; persistent ENOSPC
        // degrades the tier to typed read-only shedding; anything else
        // refuses the acks and drains.
        let mut persist_failed = false;
        let mut entered_read_only = false;
        if new_acks > 0 {
            st.acked_writes += new_acks;
            st.save_seq += 1;
            let snap = capture(&st.fe, st.save_seq, st.generation, st.seed, st.acked_writes);
            match save_with_healing(&mut st.shelf, &snap, &RetryPolicy::default()) {
                SaveOutcome::Saved { attempts } => {
                    if attempts > 1 {
                        eprintln!(
                            "srbsg-server: shelf save healed after {attempts} attempts (transient media errors)"
                        );
                    }
                }
                SaveOutcome::ReadOnly(e) => {
                    eprintln!(
                        "srbsg-server: shelf out of space ({e}); degrading to read-only serving"
                    );
                    st.acked_writes -= new_acks;
                    st.save_seq -= 1;
                    entered_read_only = true;
                    st.read_only = true;
                    st.fe.set_read_only(true);
                }
                SaveOutcome::Failed(e) => {
                    eprintln!("srbsg-server: shelf save failed, draining: {e}");
                    st.acked_writes -= new_acks;
                    st.save_seq -= 1;
                    persist_failed = true;
                    os::request_shutdown();
                }
            }
        }

        for (c, m) in completions.iter().zip(&msgs) {
            let is_write = matches!(m.op, Op::Write(_));
            let resp = match (&c.result, (persist_failed || entered_read_only) && is_write) {
                (Ok(s), false) if is_write => WireResponse::WriteOk {
                    retries: s.retries,
                    latency_ns: clamp_ns(s.latency_ns),
                },
                (Ok(s), false) => WireResponse::ReadOk {
                    data: s.data.unwrap_or(LineData::Zeros),
                    latency_ns: clamp_ns(s.latency_ns),
                },
                (Ok(_), true) => {
                    // The device applied this write but durability failed:
                    // the ack is refused with the typed reason.
                    let code = if entered_read_only {
                        ErrCode::ReadOnly
                    } else {
                        ErrCode::ShuttingDown
                    };
                    WireResponse::Err { code, aux: 0 }
                }
                (Err(rej), _) => {
                    let (code, aux) = reject_to_wire(rej);
                    WireResponse::Err { code, aux }
                }
            };
            // A dead connection just drops its responses.
            let _ = m.resp.send(WriterMsg {
                frame: ResponseFrame {
                    req_id: m.req_id,
                    resp,
                },
                engine_reply: true,
            });
        }
    }

    // Drain finale: compact journals into checkpoints and commit the
    // final image. Reached only when every connection has flushed. A
    // read-only tier tolerates the final save failing for space — its
    // durable state is exactly the last successful save, by construction.
    st.fe
        .drain_checkpoint()
        .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    st.save_seq += 1;
    let finale = capture(&st.fe, st.save_seq, st.generation, st.seed, st.acked_writes);
    match save_with_healing(&mut st.shelf, &finale, &RetryPolicy::default()) {
        SaveOutcome::Saved { .. } => Ok(()),
        SaveOutcome::ReadOnly(e) if st.read_only => {
            eprintln!("srbsg-server: final save skipped, shelf still out of space: {e}");
            Ok(())
        }
        SaveOutcome::ReadOnly(e) | SaveOutcome::Failed(e) => Err(e.into()),
    }
}

fn writer_loop(
    mut stream: Stream,
    rx: mpsc::Receiver<WriterMsg>,
    inflight: Arc<AtomicU64>,
    shared: Arc<Shared>,
) {
    let mut scratch = Vec::with_capacity(128);
    // A failed write does not stop the loop: the queue keeps draining so
    // in-flight counts still settle and every frame is still counted.
    while let Ok(msg) = rx.recv() {
        shared.write_frame(&mut stream, &mut scratch, &msg.frame);
        if msg.engine_reply {
            inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn conn_loop(stream: Stream, shared: Arc<Shared>, engine_tx: SyncSender<EngineMsg>) {
    let inflight = Arc::new(AtomicU64::new(0));
    let (wtx, wrx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let ws = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                shared.stats().open_conns -= 1;
                return;
            }
        };
        let _ = ws.set_write_timeout(Some(Duration::from_secs(5)));
        let infl = inflight.clone();
        let shared = shared.clone();
        thread::spawn(move || writer_loop(ws, wrx, infl, shared))
    };

    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut stream = stream;
    let mut reader = FrameReader::new();
    let mut last_activity = Instant::now();
    let mut frame_start: Option<Instant> = None;

    'conn: loop {
        // Decode everything buffered before reading more.
        loop {
            match reader.next_request() {
                Ok(Some(frame)) => {
                    last_activity = Instant::now();
                    if !dispatch(frame, &shared, &engine_tx, &wtx, &inflight) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = wtx.send(WriterMsg {
                        frame: ResponseFrame {
                            req_id: 0,
                            resp: WireResponse::Err {
                                code: ErrCode::BadFrame,
                                aux: malformed_aux(e),
                            },
                        },
                        engine_reply: false,
                    });
                    break 'conn;
                }
            }
        }
        frame_start = if reader.mid_frame() {
            Some(frame_start.unwrap_or_else(Instant::now))
        } else {
            None
        };

        match reader.fill_from(&mut stream) {
            Ok(0) => break 'conn,
            Ok(_) => last_activity = Instant::now(),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::Acquire) && inflight.load(Ordering::Acquire) == 0
                {
                    break 'conn;
                }
                if let Some(fs) = frame_start {
                    if fs.elapsed() > shared.frame_timeout {
                        // Slow-loris: a frame has been dribbling too long.
                        // The one malformed frame that sends no response.
                        shared.stats().malformed_frames += 1;
                        break 'conn;
                    }
                }
                if last_activity.elapsed() > shared.idle_timeout {
                    break 'conn;
                }
            }
            Err(_) => break 'conn,
        }
    }

    // Let in-flight responses flush before closing (bounded wait).
    let flush_deadline = Instant::now() + Duration::from_secs(10);
    while inflight.load(Ordering::Acquire) > 0 && Instant::now() < flush_deadline {
        thread::sleep(Duration::from_millis(1));
    }
    drop(wtx);
    let _ = writer.join();
    stream.shutdown();
    shared.stats().open_conns -= 1;
}

fn malformed_aux(e: crate::proto::FrameError) -> u64 {
    use crate::proto::FrameError::*;
    match e {
        TooLarge { .. } => 1,
        TooSmall { .. } => 2,
        BadVersion(_) => 3,
        BadOpcode(_) => 4,
        BadCrc => 5,
        Malformed(_) => 6,
    }
}

/// Handle one decoded request on the reader thread; returns `false` when
/// the connection must close.
fn dispatch(
    frame: RequestFrame,
    shared: &Shared,
    engine_tx: &SyncSender<EngineMsg>,
    wtx: &mpsc::Sender<WriterMsg>,
    inflight: &Arc<AtomicU64>,
) -> bool {
    let direct = |resp: WireResponse| {
        wtx.send(WriterMsg {
            frame: ResponseFrame {
                req_id: frame.req_id,
                resp,
            },
            engine_reply: false,
        })
        .is_ok()
    };
    let (la, op) = match frame.req {
        WireRequest::Ping => return direct(WireResponse::Pong),
        WireRequest::Stats => {
            let mut s = *shared.stats();
            s.draining = shared.draining.load(Ordering::Acquire) as u64;
            return direct(WireResponse::StatsOk(s));
        }
        WireRequest::Read { la } => (la, Op::Read),
        WireRequest::Write { la, data } => (la, Op::Write(data)),
    };
    if shared.draining.load(Ordering::Acquire) {
        return direct(WireResponse::Err {
            code: ErrCode::ShuttingDown,
            aux: 0,
        });
    }
    if la >= shared.logical_lines {
        return direct(WireResponse::Err {
            code: ErrCode::AddressOutOfRange,
            aux: la,
        });
    }
    inflight.fetch_add(1, Ordering::AcqRel);
    match engine_tx.try_send(EngineMsg {
        resp: wtx.clone(),
        req_id: frame.req_id,
        la,
        op,
    }) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            inflight.fetch_sub(1, Ordering::AcqRel);
            direct(WireResponse::Err {
                code: ErrCode::Overloaded,
                aux: 0,
            })
        }
        Err(TrySendError::Disconnected(_)) => {
            inflight.fetch_sub(1, Ordering::AcqRel);
            let _ = direct(WireResponse::Err {
                code: ErrCode::ShuttingDown,
                aux: 0,
            });
            false
        }
    }
}

/// Run the server to completion. Returns once a graceful drain finishes;
/// the process exit code is the returned value (0 on a clean drain).
pub fn run(cfg: ServerConfig) -> std::io::Result<i32> {
    os::install_shutdown_handlers();
    let (fe, shelf, boot_report) = boot(&cfg)?;
    let logical_lines = fe.system().logical_lines();
    let (listener, bound) = cfg.endpoint.listen()?;
    listener.set_nonblocking(true)?;
    std::fs::write(shelf.sidecar("endpoint"), bound.to_string())?;
    std::fs::write(shelf.sidecar("pid"), std::process::id().to_string())?;
    println!(
        "srbsg-server listening on {bound} pid={} generation={} recovered={} replayed_steps={} rekey_movements={} lines={}",
        std::process::id(),
        boot_report.generation,
        boot_report.recovered,
        boot_report.replayed_steps,
        boot_report.rekey_movements,
        logical_lines,
    );
    let _ = std::io::stdout().flush();

    let shared = Arc::new(Shared {
        stats: Mutex::new(StatsWire {
            generation: boot_report.generation,
            ..StatsWire::default()
        }),
        draining: AtomicBool::new(false),
        logical_lines,
        idle_timeout: cfg.idle_timeout,
        frame_timeout: cfg.frame_timeout,
    });
    let (etx, erx) = mpsc::sync_channel::<EngineMsg>(cfg.inflight_max);
    let engine = {
        let st = EngineState {
            fe,
            shelf,
            generation: boot_report.generation,
            seed: cfg.seed,
            acked_writes: boot_report.acked_writes,
            save_seq: boot_report.save_seq,
            read_only: false,
        };
        let cfg = cfg.clone();
        thread::spawn(move || engine_loop(st, erx, cfg))
    };

    while !os::shutdown_requested() {
        match listener.accept() {
            Ok(stream) => {
                let admitted = {
                    let mut s = shared.stats();
                    s.accepted_conns += 1;
                    let admitted = s.open_conns < cfg.max_conns as u64;
                    s.open_conns += admitted as u64;
                    admitted
                };
                if !admitted {
                    refuse_overloaded(stream, &shared);
                    continue;
                }
                let shared = shared.clone();
                let etx = etx.clone();
                thread::spawn(move || conn_loop(stream, shared, etx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }

    // Graceful drain: stop accepting, flip the drain flag, release our
    // engine sender, and wait for the engine's finale.
    shared.draining.store(true, Ordering::Release);
    drop(listener);
    drop(etx);
    let res = engine
        .join()
        .map_err(|_| std::io::Error::other("engine thread panicked"))?;
    res?;
    let s = *shared.stats();
    println!(
        "srbsg-server drained: served_reads={} served_writes={} shed_overload={} malformed_frames={}",
        s.served_reads, s.served_writes, s.shed_overload, s.malformed_frames
    );
    Ok(0)
}

fn refuse_overloaded(mut stream: Stream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let frame = ResponseFrame {
        req_id: 0,
        resp: WireResponse::Err {
            code: ErrCode::Overloaded,
            aux: 0,
        },
    };
    shared.write_frame(&mut stream, &mut Vec::with_capacity(64), &frame);
    stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(dir: &str) -> ServerConfig {
        ServerConfig {
            data_dir: std::env::temp_dir().join(dir),
            banks: 2,
            width: 4,
            sub_regions: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn boot_fresh_then_recover_preserves_contents() {
        let cfg = test_cfg(&format!("srbsg_boot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let (mut fe, mut shelf, rep) = boot(&cfg).unwrap();
        assert_eq!(rep.generation, 0);
        assert!(!rep.recovered);

        // Write a few lines through the front-end, persist, drop.
        let lines = fe.system().logical_lines();
        let reqs: Vec<Request> = (0..8u64)
            .map(|i| Request {
                la: i % lines,
                op: Op::Write(LineData::Mixed(i as u32 + 1)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            })
            .collect();
        let comps = fe.submit_batch(reqs, 1);
        assert!(comps.iter().all(|c| c.result.is_ok()));
        shelf.save(&capture(&fe, 2, 0, cfg.seed, 8)).unwrap();
        let expect: Vec<LineData> = (0..lines)
            .map(|la| fe.system_mut().try_read(la).unwrap().0)
            .collect();
        drop(fe);

        // "Restart": boot from the same directory recovers and re-keys.
        let (mut fe2, _shelf2, rep2) = boot(&cfg).unwrap();
        assert_eq!(rep2.generation, 1);
        assert!(rep2.recovered);
        assert_eq!(rep2.acked_writes, 8);
        let got: Vec<LineData> = (0..lines)
            .map(|la| fe2.system_mut().try_read(la).unwrap().0)
            .collect();
        assert_eq!(got, expect, "logical contents must survive recovery");
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }

    #[test]
    fn recovery_rekeys_the_mapping() {
        let cfg = test_cfg(&format!("srbsg_rekey_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let (fe, mut shelf, _) = boot(&cfg).unwrap();
        shelf.save(&capture(&fe, 2, 0, cfg.seed, 0)).unwrap();
        drop(fe);
        let (_fe2, _s, rep) = boot(&cfg).unwrap();
        assert!(rep.recovered);
        // Re-keying physically moves lines into the fresh mapping.
        assert!(rep.rekey_movements > 0, "expected rekey movements");
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }

    #[test]
    fn recovery_rekeys_from_fresh_entropy_not_the_shelved_seed() {
        let cfg = ServerConfig {
            width: 8,
            ..test_cfg(&format!("srbsg_entropy_{}", std::process::id()))
        };
        let twin = ServerConfig {
            data_dir: cfg.data_dir.with_extension("twin"),
            ..cfg.clone()
        };
        for dir in [&cfg.data_dir, &twin.data_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        drop(boot(&cfg).unwrap());
        std::fs::create_dir_all(&twin.data_dir).unwrap();
        for f in std::fs::read_dir(&cfg.data_dir).unwrap() {
            let f = f.unwrap().path();
            std::fs::copy(&f, twin.data_dir.join(f.file_name().unwrap())).unwrap();
        }
        let (state, _) = DiskShelf::open(&cfg.data_dir, false)
            .unwrap()
            .load()
            .unwrap()
            .expect("boot shelved the fresh image");
        let mapping = |fe: &FrontEnd<ServerScheme>| -> Vec<u64> {
            let per_bank = fe.system().logical_lines() / cfg.banks as u64;
            fe.system()
                .banks()
                .iter()
                .flat_map(|mc| (0..per_bank).map(|la| mc.translate(la)))
                .collect()
        };
        let (from_shelf, _) =
            restore::<SecurityRbsg>(&state, policy(&cfg), cfg.serve, state.seed).unwrap();
        let (a, _, _) = boot(&cfg).unwrap();
        let (b, _, _) = boot(&twin).unwrap();
        assert_ne!(
            mapping(&a),
            mapping(&b),
            "two boots of one image re-keyed alike"
        );
        assert_ne!(
            mapping(&a),
            mapping(&from_shelf),
            "re-key predictable from the shelf"
        );
        assert_ne!(
            mapping(&b),
            mapping(&from_shelf),
            "re-key predictable from the shelf"
        );
        for dir in [&cfg.data_dir, &twin.data_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
