//! The traced run (`--trace 1`): a per-layer profile of the whole stack.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions; the program itself is not instrumented.
//! Every traced run profiles every layer, so each per-layer metric is
//! present and measured in every run:
//!
//! * **live server** — the workload's request mix (server-mixed's for the
//!   simulation workloads) at its reference rate against the release
//!   server, read from outside through `/proc/<pid>` and the Stats opcode;
//! * **replay** — the same generated requests, in process, batched as the
//!   engine batches them (a batch is every request due by the time the
//!   previous batch finished, at most the engine's cap), through
//!   `FrameReader` → `FrontEnd::submit_batch` → `BankShelf::capture` →
//!   `DiskShelf::save` on a timing [`Media`] wrapper around `DirMedia` in
//!   the same filesystem → `encode_response`. A mix without writes never
//!   saves, so the shelf and media layers are then timed on saves of the
//!   replayed device;
//! * **lifetime** — RAA trials of the recorded pool at 1 and at `nproc`
//!   workers, and a no-op `par_map`;
//! * **simulator** — trace generation, PCM writes and reads and batched
//!   Feistel translation on one paper-scale Security RBSG bank, and one
//!   sharded step at 1 and at `nproc` workers on the trace-sim system.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_lifetime::srbsg_raa_lifetime_split;
use srbsg_pcm::{LineData, MemoryController, Ns, TimingModel};
use srbsg_persist::{DirMedia, Media, MediaError};
use srbsg_serve::{Completion, FrontEnd, Op, Request};
use srbsg_server::{
    encode_request, encode_response, BankShelf, DiskShelf, ErrCode, FrameReader, RequestFrame,
    ResponseFrame, ServerConfig, ServerScheme, ShelfState, WireRequest, WireResponse,
};
use srbsg_workloads::{Access, ShardedTraceRunner, TraceGenerator, ZipfTrace};

use crate::driver::{median, mix64, percentile, Planned};
use crate::server::{self, ServerWorkload, Session, MIXED, READ};
use crate::{expected, metric, sim, Metric, Outcome};

/// Counts spans, so the cost of taking them can be charged back.
#[derive(Default)]
struct Tracer {
    spans: u64,
}

impl Tracer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        self.spans += 1;
        let t = Instant::now();
        let r = f();
        (r, t.elapsed().as_nanos() as u64)
    }
}

/// Host cost of one span (two clock reads), ns.
fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..N {
        let s = Instant::now();
        std::hint::black_box(s.elapsed());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Time and bytes of every media operation.
#[derive(Debug, Default, Clone, Copy)]
struct MediaTally {
    write_ns: u64,
    rename_ns: u64,
    sync_ns: u64,
    other_ns: u64,
    bytes: u64,
    ops: u64,
}

impl MediaTally {
    fn total_ns(&self) -> u64 {
        self.write_ns + self.rename_ns + self.sync_ns + self.other_ns
    }
}

/// A [`Media`] that times each operation of the real directory medium.
#[derive(Debug)]
struct TimingMedia {
    inner: DirMedia,
    tally: Arc<Mutex<MediaTally>>,
}

impl TimingMedia {
    fn timed<T>(
        &mut self,
        f: impl FnOnce(&mut DirMedia) -> T,
        slot: fn(&mut MediaTally) -> &mut u64,
    ) -> T {
        let t = Instant::now();
        let r = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        let mut tally = self.tally.lock().expect("media tally lock poisoned");
        *slot(&mut tally) += ns;
        tally.ops += 1;
        r
    }
}

impl Media for TimingMedia {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.timed(|m| m.read(name), |t| &mut t.other_ns)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.tally.lock().expect("media tally lock poisoned").bytes += bytes.len() as u64;
        self.timed(|m| m.write(name, bytes), |t| &mut t.write_ns)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.timed(|m| m.rename(from, to), |t| &mut t.rename_ns)
    }
    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.timed(|m| m.remove(name), |t| &mut t.other_ns)
    }
    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.timed(|m| m.list(), |t| &mut t.other_ns)
    }
    fn sync(&mut self) -> Result<(), MediaError> {
        self.timed(|m| m.sync(), |t| &mut t.sync_ns)
    }
}

/// Stage totals of a replay.
#[derive(Debug, Default)]
struct Replay {
    requests: u64,
    failed: u64,
    decode_ns: u64,
    submit_ns: u64,
    encode_ns: u64,
    saves: u64,
    capture_ns: u64,
    /// `DiskShelf::save` time not spent in the medium: serialisation.
    shelf_encode_ns: u64,
    media: MediaTally,
    /// Per request: the traced time of the batch that answered it, ns.
    stage_sum_ns: Vec<u64>,
}

/// Saves of the replayed device the shelf and media figures rest on, at
/// least.
const MIN_SAVES: u64 = 5;

/// The engine's shelf capture, from the public shelf types.
fn capture(fe: &FrontEnd<ServerScheme>, save_seq: u64, seed: u64, acked: u64) -> ShelfState {
    let sys = fe.system();
    ShelfState {
        save_seq,
        generation: 0,
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

struct ReplayDevice {
    fe: FrontEnd<ServerScheme>,
    shelf: DiskShelf,
    tally: Arc<Mutex<MediaTally>>,
    save_seq: u64,
    acked: u64,
    seed: u64,
}

impl ReplayDevice {
    fn boot(cfg: &ServerConfig) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let (fe, shelf, boot) = srbsg_server::boot(cfg)?;
        drop(shelf);
        let tally = Arc::new(Mutex::new(MediaTally::default()));
        let media = TimingMedia {
            inner: DirMedia::open(&cfg.data_dir, cfg.fsync)?,
            tally: tally.clone(),
        };
        let shelf = DiskShelf::with_media(Box::new(media));
        // Count only the saves: opening swept the directory.
        *tally.lock().expect("media tally lock poisoned") = MediaTally::default();
        Ok(Self {
            fe,
            shelf,
            tally,
            save_seq: boot.save_seq,
            acked: 0,
            seed: cfg.seed,
        })
    }

    /// One shelf save, split into capture, shelf encoding and media time.
    /// Returns its traced time.
    fn save(&mut self, tracer: &mut Tracer, r: &mut Replay) -> std::io::Result<u64> {
        self.save_seq += 1;
        let (snap, capture_ns) =
            tracer.time(|| capture(&self.fe, self.save_seq, self.seed, self.acked));
        let before = *self.tally.lock().expect("media tally lock poisoned");
        let (res, save_ns) = tracer.time(|| self.shelf.save(&snap));
        res.map_err(std::io::Error::from)?;
        let after = *self.tally.lock().expect("media tally lock poisoned");
        let media_ns = after.total_ns() - before.total_ns();
        tracer.spans += after.ops - before.ops;
        r.saves += 1;
        r.capture_ns += capture_ns;
        r.shelf_encode_ns += save_ns.saturating_sub(media_ns);
        Ok(capture_ns + save_ns)
    }
}

fn wire(c: &Completion, req: WireRequest) -> WireResponse {
    let clamp = |ns: Ns| ns.min(u64::MAX as Ns) as u64;
    match (&c.result, req) {
        (Ok(s), WireRequest::Write { .. }) => WireResponse::WriteOk {
            retries: s.retries,
            latency_ns: clamp(s.latency_ns),
        },
        (Ok(s), _) => WireResponse::ReadOk {
            data: s.data.unwrap_or(LineData::Zeros),
            latency_ns: clamp(s.latency_ns),
        },
        (Err(_), _) => WireResponse::Err {
            code: ErrCode::DeviceFault,
            aux: 0,
        },
    }
}

/// Replay `reqs` (in due order) through the serving layers in process.
fn replay(reqs: &[Planned], cfg: &ServerConfig, tracer: &mut Tracer) -> std::io::Result<Replay> {
    let mut dev = ReplayDevice::boot(cfg)?;
    let mut r = Replay {
        requests: reqs.len() as u64,
        ..Replay::default()
    };
    let mut frames = Vec::new();
    let mut out = Vec::new();
    let mut reader = FrameReader::new();
    // Virtual engine clock: a batch starts when the previous one finished
    // (or at the next arrival) and takes every request due by then.
    let mut clock = Duration::ZERO;
    let mut i = 0;
    while i < reqs.len() {
        clock = clock.max(reqs[i].due);
        let mut j = i + 1;
        while j < reqs.len() && j - i < cfg.batch_max && reqs[j].due <= clock {
            j += 1;
        }
        frames.clear();
        for p in &reqs[i..j] {
            encode_request(
                &mut frames,
                &RequestFrame {
                    req_id: p.index,
                    req: p.req,
                },
            );
        }
        let (decoded, decode_ns) = tracer.time(|| {
            reader.extend(&frames);
            let mut v = Vec::with_capacity(j - i);
            while let Ok(Some(f)) = reader.next_request() {
                v.push(f);
            }
            v
        });
        if decoded.len() != j - i {
            return Err(std::io::Error::other("replayed frames did not decode"));
        }
        let arrival = dev.fe.system().now_ns();
        let batch: Vec<Request> = decoded
            .iter()
            .map(|f| {
                let (la, op) = match f.req {
                    WireRequest::Write { la, data } => (la, Op::Write(data)),
                    WireRequest::Read { la } => (la, Op::Read),
                    _ => unreachable!("the driver sends only reads and writes"),
                };
                Request {
                    la,
                    op,
                    arrival_ns: arrival,
                    deadline_ns: Ns::MAX,
                }
            })
            .collect();
        let (mut comps, submit_ns) = tracer.time(|| dev.fe.submit_batch(batch, cfg.jobs));
        comps.sort_by_key(|c| c.id);
        r.failed += comps.iter().filter(|c| c.result.is_err()).count() as u64;
        let acks = comps
            .iter()
            .zip(&decoded)
            .filter(|(c, f)| c.result.is_ok() && matches!(f.req, WireRequest::Write { .. }))
            .count() as u64;
        let save_ns = if acks > 0 {
            dev.acked += acks;
            dev.save(tracer, &mut r)?
        } else {
            0
        };
        let (_, encode_ns) = tracer.time(|| {
            out.clear();
            for (c, f) in comps.iter().zip(&decoded) {
                encode_response(
                    &mut out,
                    &ResponseFrame {
                        req_id: f.req_id,
                        resp: wire(c, f.req),
                    },
                );
            }
        });
        r.decode_ns += decode_ns;
        r.submit_ns += submit_ns;
        r.encode_ns += encode_ns;
        let batch_ns = decode_ns + submit_ns + save_ns + encode_ns;
        r.stage_sum_ns.extend(std::iter::repeat_n(batch_ns, j - i));
        clock += Duration::from_nanos(batch_ns);
        i = j;
    }
    while r.saves < MIN_SAVES {
        dev.save(tracer, &mut r)?;
    }
    r.media = *dev.tally.lock().expect("media tally lock poisoned");
    r.stage_sum_ns.sort_unstable();
    Ok(r)
}

/// The same rename onto an existing file and onto a new name, `bytes`
/// each, median ms over a few tries. ext4's `auto_da_alloc` flushes the
/// data of a file renamed over another one, and only then.
fn rename_control(dir: &Path, bytes: usize) -> std::io::Result<(f64, f64)> {
    let data = vec![0xA5u8; bytes];
    let (tmp, target) = (dir.join("control.tmp"), dir.join("control.target"));
    let (mut replace, mut fresh) = (Vec::new(), Vec::new());
    for k in 0..5 {
        std::fs::write(&target, &data)?;
        std::fs::write(&tmp, &data)?;
        let t = Instant::now();
        std::fs::rename(&tmp, &target)?;
        replace.push(t.elapsed().as_secs_f64() * 1e3);
        std::fs::write(&tmp, &data)?;
        let new_name = dir.join(format!("control.new{k}"));
        let t = Instant::now();
        std::fs::rename(&tmp, &new_name)?;
        fresh.push(t.elapsed().as_secs_f64() * 1e3);
        std::fs::remove_file(&new_name)?;
    }
    std::fs::remove_file(&target)?;
    Ok((median(&replace), median(&fresh)))
}

/// Live-run figures read from outside the server.
struct Live {
    sent: u64,
    failed: u64,
    lost: u64,
    p50_ns: u64,
    late_p99_ns: u64,
    cpu_ms_per_kreq: f64,
    disk_b_per_ack: f64,
    shed_per_req: f64,
    reqs: Vec<Planned>,
}

fn live(bin: &Path, which: ServerWorkload, seed: u64, secs: f64) -> std::io::Result<Live> {
    let dir = Path::new(".bench_run").join("trace-live");
    let (mut sess, _) = Session::start(bin, &dir, which, seed, 1)?;
    let (s0, st0) = (sess.srv.sample()?, sess.srv.stats()?);
    let (res, reqs) = sess.phase_with_plan(
        which.ref_rate,
        secs,
        4 * which.limit + Duration::from_secs(1),
    )?;
    let (s1, st1) = (sess.srv.sample()?, sess.srv.stats()?);
    let lost = sess.audit()?;
    sess.srv.stop()?;
    let acks = st1.served_writes - st0.served_writes;
    let sent = res.sent;
    Ok(Live {
        sent,
        failed: res.failed(),
        lost,
        p50_ns: percentile(&res.latencies_from(0), 0.5),
        late_p99_ns: percentile(&res.late_ns, 0.99),
        cpu_ms_per_kreq: (s1.cpu_ms - s0.cpu_ms) / (sent as f64 / 1000.0),
        disk_b_per_ack: if acks == 0 {
            0.0
        } else {
            (s1.write_bytes - s0.write_bytes) as f64 / acks as f64
        },
        shed_per_req: (server::sheds(&st1) - server::sheds(&st0)) as f64 / sent as f64,
        reqs,
    })
}

/// Lifetime-layer figures.
struct Lifetime {
    trial_ms_j1: f64,
    trial_ms_jn: f64,
    par_map_us: f64,
    trials: u64,
    failed: u64,
}

fn lifetime(seed: u64, tracer: &mut Tracer) -> Lifetime {
    let jobs = crate::nproc();
    let params = sim::raa_params();
    let mut l = Lifetime {
        trial_ms_j1: 0.0,
        trial_ms_jn: 0.0,
        par_map_us: 0.0,
        trials: 0,
        failed: 0,
    };
    let picks: Vec<(usize, u64)> = sim::permuted(&sim::raa_pool(), seed)
        .into_iter()
        .take(3)
        .collect();
    // Per pick: slot 0 at one worker, slot 1 at `nproc`, alternating which
    // runs first.
    let mut total_ms = [0.0f64; 2];
    for (k, &(stages, trial_seed)) in picks.iter().enumerate() {
        let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            let j = if slot == 0 { 1 } else { jobs };
            let (life, ns) = tracer
                .time(|| srbsg_raa_lifetime_split(&params, &sim::raa_cfg(stages), trial_seed, j));
            l.trials += 1;
            if expected::raa_writes(stages, trial_seed) != Some(life.writes) {
                l.failed += 1;
            }
            total_ms[slot] += ns as f64 / 1e6;
        }
    }
    l.trial_ms_j1 = total_ms[0] / picks.len() as f64;
    l.trial_ms_jn = total_ms[1] / picks.len() as f64;
    let items: Vec<usize> = (0..jobs).collect();
    let samples: Vec<f64> = (0..201)
        .map(|_| {
            let (_, ns) = tracer.time(|| srbsg_parallel::par_map(items.clone(), jobs, |x| x));
            ns as f64 / 1e3
        })
        .collect();
    l.par_map_us = median(&samples);
    l
}

/// Simulator-layer figures.
struct Simulator {
    gen_ns: f64,
    write_ns: f64,
    read_ns: f64,
    translate_ns: f64,
    phys_writes_per_demand: f64,
    shard_speedup: f64,
}

/// Accesses generated for the per-operation figures.
const SIM_ACCESSES: usize = 1 << 20;
/// Accesses per bank of the sharded step timed at 1 and `nproc` workers.
const SHARD_EVENTS: u64 = 1 << 18;

fn simulator(seed: u64, tracer: &mut Tracer) -> Simulator {
    let lines = 1u64 << 22;
    let mut gen = ZipfTrace::new(lines, 1.1, 0.7, 20, mix64(seed));
    let (accesses, gen_total) = tracer.time(|| {
        (0..SIM_ACCESSES)
            .map(|_| gen.next_access())
            .collect::<Vec<Access>>()
    });
    let mut c = SecurityRbsgConfig::paper_default();
    c.seed = mix64(seed ^ 1);
    let mut mc = MemoryController::new(SecurityRbsg::new(c), 100_000_000, TimingModel::PAPER);
    let writes: Vec<u64> = accesses
        .iter()
        .filter(|a| a.is_write)
        .map(|a| a.addr)
        .collect();
    let reads: Vec<u64> = accesses
        .iter()
        .filter(|a| !a.is_write)
        .map(|a| a.addr)
        .collect();
    let (_, write_total) = tracer.time(|| {
        for (k, &la) in writes.iter().enumerate() {
            mc.write(la, LineData::Mixed(k as u32));
        }
    });
    let phys_writes_per_demand = mc.bank().total_writes() as f64 / mc.demand_writes() as f64;
    let (_, read_total) = tracer.time(|| {
        for &la in &reads {
            std::hint::black_box(mc.read(la));
        }
    });
    let mut out = Vec::with_capacity(256);
    let (_, translate_total) = tracer.time(|| {
        for w in reads.chunks(256) {
            mc.translate_batch(w, &mut out);
            std::hint::black_box(&out);
        }
    });
    drop(mc);

    let jobs = crate::nproc();
    let spec = sim::trace_spec();
    let mut sys = sim::trace_system(mix64(seed ^ 2));
    let mut step = |k: u64, j: usize, tracer: &mut Tracer| {
        let runner = ShardedTraceRunner {
            master_seed: mix64(seed ^ (k << 8)),
            events_per_bank: SHARD_EVENTS,
            curve_points: 20,
            max_regions: 512,
        };
        tracer
            .time(|| runner.run(&mut sys, &|_b, l, s| spec.build(l, s), j))
            .1
    };
    let j1 = step(1, 1, tracer);
    let jn = step(2, jobs, tracer);
    Simulator {
        gen_ns: gen_total as f64 / SIM_ACCESSES as f64,
        write_ns: write_total as f64 / writes.len() as f64,
        read_ns: read_total as f64 / reads.len() as f64,
        translate_ns: translate_total as f64 / reads.len() as f64,
        phys_writes_per_demand,
        shard_speedup: j1 as f64 / jn as f64,
    }
}

/// The traced profile of `workload`.
pub fn profile(
    workload: &str,
    seed: u64,
    budget: Duration,
    bin: &Path,
) -> std::io::Result<Outcome> {
    let which = if workload == "server-read" {
        READ
    } else {
        MIXED
    };
    let live = live(bin, which, seed, 0.25 * budget.as_secs_f64())?;

    let mut tracer = Tracer::default();
    let t0 = Instant::now();
    let cfg = ServerConfig {
        data_dir: Path::new(".bench_run").join("trace-replay"),
        banks: server::BANKS as usize,
        width: server::WIDTH,
        ..ServerConfig::default()
    };
    let r = replay(&live.reqs, &cfg, &mut tracer)?;
    let lt = lifetime(seed, &mut tracer);
    let sm = simulator(seed, &mut tracer);
    let traced_ns = t0.elapsed().as_nanos() as f64;
    let overhead_frac = tracer.spans as f64 * span_cost_ns() / traced_ns;
    let write_bytes = (r.media.bytes / (2 * r.saves)).max(1) as usize;
    let (replace_ms, fresh_ms) = rename_control(&cfg.data_dir, write_bytes)?;

    let per_req_us = |ns: u64| ns as f64 / r.requests as f64 / 1e3;
    let per_save_us = |ns: u64| ns as f64 / r.saves as f64 / 1e3;
    let unattributed_ms = (live.p50_ns as f64 - percentile(&r.stage_sum_ns, 0.5) as f64) / 1e6;
    let m = &r.media;
    let save_total = r.capture_ns + r.shelf_encode_ns + m.total_ns();
    let share = |ns: u64| 100.0 * ns as f64 / save_total as f64;
    let stages = [
        ("capture", r.capture_ns),
        ("encode", r.shelf_encode_ns),
        ("write", m.write_ns),
        ("rename", m.rename_ns),
        ("sync", m.sync_ns),
    ];
    let (heaviest, heaviest_ns) = stages
        .iter()
        .copied()
        .max_by_key(|s| s.1)
        .expect("five stages");
    let notes = vec![
        format!(
            "live {} at {} rps: {} requests, {} failed, {} lost acked writes",
            if which.write_frac > 0.0 { "server-mixed" } else { "server-read" },
            which.ref_rate,
            live.sent,
            live.failed,
            live.lost
        ),
        format!(
            "replay: {} requests, {} saves; per save {:.3} ms = {}",
            r.requests,
            r.saves,
            per_save_us(save_total) / 1e3,
            stages
                .iter()
                .map(|(n, ns)| format!("{n} {:.3} ms ({:.1}%)", per_save_us(*ns) / 1e3, share(*ns)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "the save cost on this host is carried by {heaviest} ({:.1}% of each save)",
            share(heaviest_ns)
        ),
        format!(
            "rename control ({write_bytes} B, no fsync): onto an existing file {replace_ms:.3} ms, \
             onto a new name {fresh_ms:.3} ms{}",
            if replace_ms > 10.0 * fresh_ms {
                " — only the replacing rename is slow, as ext4 auto_da_alloc's flush-on-replace predicts"
            } else {
                " — the replacing rename is not markedly slower"
            }
        ),
    ];
    let metrics: Vec<Metric> = vec![
        metric("driver.late_p99_ms", live.late_p99_ns as f64 / 1e6, "ms"),
        metric("server.cpu_ms_per_kreq", live.cpu_ms_per_kreq, "ms"),
        metric("server.disk_b_per_ack", live.disk_b_per_ack, "B"),
        metric("server.shed_per_req", live.shed_per_req, "frac"),
        metric("proto.decode_us", per_req_us(r.decode_ns), "us"),
        metric("proto.encode_us", per_req_us(r.encode_ns), "us"),
        metric("serve.submit_us", per_req_us(r.submit_ns), "us"),
        metric("shelf.capture_us", per_save_us(r.capture_ns), "us"),
        metric("shelf.encode_us", per_save_us(r.shelf_encode_ns), "us"),
        metric("media.write_us", per_save_us(m.write_ns), "us"),
        metric("media.rename_us", per_save_us(m.rename_ns), "us"),
        metric("media.sync_us", per_save_us(m.sync_ns), "us"),
        metric("media.bytes_per_save", m.bytes as f64 / r.saves as f64, "B"),
        metric("media.ops_per_save", m.ops as f64 / r.saves as f64, "count"),
        metric("server.unattributed_ms", unattributed_ms, "ms"),
        metric("lifetime.trial_ms_j1", lt.trial_ms_j1, "ms"),
        metric("lifetime.trial_ms_jN", lt.trial_ms_jn, "ms"),
        metric("parallel.speedup", lt.trial_ms_j1 / lt.trial_ms_jn, "x"),
        metric("parallel.par_map_us", lt.par_map_us, "us"),
        metric("workloads.gen_ns", sm.gen_ns, "ns"),
        metric("pcm.write_ns", sm.write_ns, "ns"),
        metric("pcm.read_ns", sm.read_ns, "ns"),
        metric("feistel.translate_ns", sm.translate_ns, "ns"),
        metric(
            "pcm.phys_writes_per_demand",
            sm.phys_writes_per_demand,
            "ratio",
        ),
        metric("workloads.shard_speedup", sm.shard_speedup, "x"),
        metric("trace.overhead_frac", overhead_frac, "frac"),
    ];
    let failed = live.failed + live.lost + r.failed + lt.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: live.sent + server::LINES + r.requests + lt.trials,
        failed,
        metrics,
        notes,
    })
}
