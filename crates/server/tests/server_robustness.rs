//! Live-server hardening tests: every class of malformed input sent to a
//! *real* server process produces a typed error response (where framing
//! permits) and a clean connection close — never a server death — and the
//! slow-loris/idle timeouts and out-of-range shedding behave as
//! documented, and the Stats counters account for exactly the responses
//! sent.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_persist::crc64;
use srbsg_server::{
    encode_request, os, Client, Endpoint, ErrCode, RequestFrame, StatsWire, WireRequest,
    WireResponse,
};

struct TestServer {
    child: Child,
    endpoint: Endpoint,
    dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("srbsg_rob_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("s.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_srbsg-server"))
            .args([
                "--listen",
                &format!("uds:{}", sock.display()),
                "--data-dir",
                dir.to_str().unwrap(),
                "--banks",
                "2",
                "--width",
                "5",
                "--sub-regions",
                "2",
                "--idle-timeout-ms",
                "600",
                "--frame-timeout-ms",
                "400",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn srbsg-server");
        let endpoint = Endpoint::Uds(sock);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(&endpoint, Duration::from_millis(200)) {
                if c.ping().is_ok() {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "server never came up");
            std::thread::sleep(Duration::from_millis(20));
        }
        Self {
            child,
            endpoint,
            dir,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.endpoint, Duration::from_secs(5)).expect("connect")
    }

    fn assert_alive(&self) {
        self.client()
            .ping()
            .expect("server must still answer pings");
    }

    fn stop(mut self) {
        os::send_signal(self.child.id(), os::SIGTERM).expect("SIGTERM");
        let status = self.child.wait().expect("wait");
        assert_eq!(status.code(), Some(0), "drain must exit 0");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Send raw bytes, expect a `BadFrame` error response and then EOF.
fn expect_bad_frame_then_close(server: &TestServer, bytes: &[u8], what: &str) {
    let mut c = server.client();
    c.send_raw(bytes).expect("send");
    match c.recv() {
        Ok(resp) => {
            assert!(
                matches!(
                    resp.resp,
                    WireResponse::Err {
                        code: ErrCode::BadFrame,
                        ..
                    }
                ),
                "{what}: expected BadFrame, got {resp:?}"
            );
            // And then a clean close.
            let err = c.recv().expect_err("connection must close after BadFrame");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{what}");
        }
        // A close without the error frame is acceptable only if the
        // transport ate the write; the server must still be alive.
        Err(e) => panic!("{what}: expected a BadFrame response, got {e}"),
    }
    server.assert_alive();
}

fn valid_ping_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(
        &mut buf,
        &RequestFrame {
            req_id: 42,
            req: WireRequest::Ping,
        },
    );
    buf
}

#[test]
fn malformed_inputs_get_typed_errors_and_never_kill_the_server() {
    let server = TestServer::start("fuzz");

    // Class 1 — oversized length prefix: rejected from the prefix alone.
    expect_bad_frame_then_close(&server, &u32::MAX.to_le_bytes(), "oversized length");

    // Class 2 — undersized length prefix.
    expect_bad_frame_then_close(&server, &2u32.to_le_bytes(), "undersized length");

    // Class 3 — bit-flipped payload (checksum catches it).
    let mut flipped = valid_ping_bytes();
    let last = flipped.len() - 9; // inside the body, before the CRC
    flipped[last] ^= 0x10;
    expect_bad_frame_then_close(&server, &flipped, "bit flip");

    // Class 4 — unknown opcode with a *valid* checksum.
    let mut body = vec![1u8, 0x7F]; // version, bogus opcode
    body.extend_from_slice(&99u64.to_le_bytes());
    let crc = crc64(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let mut bad_op = (body.len() as u32).to_le_bytes().to_vec();
    bad_op.extend_from_slice(&body);
    expect_bad_frame_then_close(&server, &bad_op, "bad opcode");

    // Class 5 — truncated frame then abrupt close: no response expected,
    // the server just drops the connection without dying.
    {
        let mut c = server.client();
        let ping = valid_ping_bytes();
        c.send_raw(&ping[..ping.len() - 3]).expect("send partial");
        drop(c);
        server.assert_alive();
    }

    // Malformed-frame accounting surfaced over the wire.
    let stats = server.client().stats().expect("stats");
    assert!(
        stats.malformed_frames >= 4,
        "expected ≥4 malformed frames counted, got {}",
        stats.malformed_frames
    );

    // A valid request still works after all of that.
    let mut c = server.client();
    assert!(c.write(3, srbsg_pcm::LineData::Mixed(7)).unwrap().is_ok());
    assert_eq!(c.read(3).unwrap().unwrap(), srbsg_pcm::LineData::Mixed(7));

    server.stop();
}

#[test]
fn slow_loris_and_idle_connections_are_closed() {
    let server = TestServer::start("loris");

    // Slow loris: dribble a frame forever — closed by the frame timeout.
    {
        let mut s = server.endpoint.connect(Duration::from_secs(2)).unwrap();
        let ping = valid_ping_bytes();
        s.write_all(&ping[..3]).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 64];
        // Read until EOF; the server must cut us off well before 5s.
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("expected EOF from frame timeout, got {e}"),
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "slow-loris close took {:?}",
            start.elapsed()
        );
    }

    // Idle: connect, send nothing — closed by the idle timeout.
    {
        let mut s = server.endpoint.connect(Duration::from_secs(2)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("expected EOF from idle timeout, got {e}"),
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "idle close took {:?}",
            start.elapsed()
        );
    }

    server.assert_alive();
    server.stop();
}

#[test]
fn out_of_range_addresses_are_typed_rejections() {
    let server = TestServer::start("oor");
    let mut c = server.client();
    match c.read(1 << 40).unwrap() {
        Err(WireResponse::Err {
            code: ErrCode::AddressOutOfRange,
            aux,
        }) => assert_eq!(aux, 1 << 40),
        other => panic!("expected AddressOutOfRange, got {other:?}"),
    }
    // The connection stays usable after a typed rejection.
    c.ping().expect("ping after rejection");
    server.stop();
}

#[test]
fn wire_counters_are_exactly_the_fold_of_sent_responses() {
    let server = TestServer::start("acct");
    // Two clients pipeline reads, writes, pings and out-of-range requests
    // concurrently, so the engine batches across connections.
    let clients: Vec<_> = (0..2u64)
        .map(|t| {
            let mut c = server.client();
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let reqs: Vec<WireRequest> = (0..60u64)
                    .map(|i| match i % 6 {
                        0 | 1 => WireRequest::Write {
                            la: (i + t) % 64,
                            data: LineData::Mixed((i * 10 + t) as u32),
                        },
                        2 | 3 => WireRequest::Read { la: (i + t) % 64 },
                        4 => WireRequest::Ping,
                        _ if i % 12 == 5 => WireRequest::Read { la: 64 + i },
                        _ => WireRequest::Write {
                            la: 1 << 40,
                            data: LineData::Ones,
                        },
                    })
                    .collect();
                for (req_id, &req) in reqs.iter().enumerate() {
                    let frame = RequestFrame {
                        req_id: req_id as u64,
                        req,
                    };
                    encode_request(&mut buf, &frame);
                }
                c.send_raw(&buf).expect("send");
                (0..reqs.len())
                    .map(|_| c.recv().expect("response").resp)
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut sent: Vec<WireResponse> = clients
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();

    // A malformed frame: answered with BadFrame, then the close.
    let mut bad = server.client();
    bad.send_raw(&u32::MAX.to_le_bytes()).expect("send");
    sent.push(bad.recv().expect("BadFrame response").resp);

    let mut want = StatsWire::default();
    for resp in &sent {
        want.note(resp);
    }
    assert!(want.served_reads > 0 && want.served_writes > 0 && want.shed_fault > 0);
    assert_eq!(want.malformed_frames, 1);

    // Every received response was counted before it was written, so the
    // counters equal the fold exactly; only the gauges are the server's.
    let got = server.client().stats().expect("stats");
    let want = StatsWire {
        generation: got.generation,
        accepted_conns: got.accepted_conns,
        open_conns: got.open_conns,
        draining: got.draining,
        ..want
    };
    assert_eq!(got, want);
    server.stop();
}
