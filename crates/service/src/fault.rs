//! Deterministic fault injection for resilience testing.
//!
//! Everything here is reproducible from a `u64` seed: a failing chaos run
//! prints its seed, and re-running with that seed replays the exact same
//! byte-level fault schedule. Two layers:
//!
//! - [`FaultyStream`] wraps any `Write` transport and applies a
//!   [`FaultScript`] to the bytes written — split writes into 1-byte
//!   chunks, inject a delay, corrupt a byte, sever, or stall at scripted
//!   stream offsets.
//! - [`FaultProxy`] is an in-process TCP proxy that applies a
//!   [`FaultPlan`] (one script per direction) between a real client and a
//!   real server, for integration tests: the peers run unmodified and the
//!   proxy misbehaves on cue. Each direction is one pump writing through
//!   a [`FaultyStream`].
//!
//! In a [`FaultyStream`], a stall surfaces immediately as an
//! [`std::io::ErrorKind::TimedOut`] error (modelling what a socket
//! timeout would deliver); the proxy turns it into a genuinely silent
//! open connection, bounded by dropping the proxy.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The `splitmix64` PRNG step: advances `state` and returns the next
/// pseudo-random value. This is the one generator behind every seeded
/// fault schedule, retry jitter, and fuzz mutation in the crate, so a seed
/// means the same byte stream everywhere.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How a scripted cut terminates a stream direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// The connection dies: writes fail with `BrokenPipe`, reads hit EOF.
    Sever,
    /// The peer goes silent but the connection stays open — the failure
    /// mode only a timeout can unstick.
    Stall,
}

/// One direction's scripted misbehavior, keyed by byte offsets into the
/// stream so a schedule can hit precisely mid-frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// Split every write into 1-byte chunks (tests short-read/short-write
    /// handling; the bytes themselves arrive intact).
    pub chunk: bool,
    /// Sleep once, just before the first byte at or past this offset.
    pub delay: Option<(u64, Duration)>,
    /// XOR one byte: `(offset, mask)` with a non-zero mask.
    pub corrupt: Option<(u64, u8)>,
    /// Stop forwarding at this offset, by severing or stalling.
    pub cut: Option<(u64, CutKind)>,
}

impl FaultScript {
    /// No faults: bytes pass through untouched.
    pub fn clean() -> Self {
        FaultScript::default()
    }

    /// 1-byte write chunking only.
    pub fn chunked() -> Self {
        FaultScript {
            chunk: true,
            ..Default::default()
        }
    }

    /// A single delay before the byte at `offset`.
    pub fn delay_at(offset: u64, delay: Duration) -> Self {
        FaultScript {
            delay: Some((offset, delay)),
            ..Default::default()
        }
    }

    /// Flip bits of the byte at `offset` with `mask`.
    pub fn corrupt_at(offset: u64, mask: u8) -> Self {
        FaultScript {
            corrupt: Some((offset, mask.max(1))),
            ..Default::default()
        }
    }

    /// Kill the connection once `offset` bytes have passed.
    pub fn sever_at(offset: u64) -> Self {
        FaultScript {
            cut: Some((offset, CutKind::Sever)),
            ..Default::default()
        }
    }

    /// Go silent (connection open, no progress) once `offset` bytes have
    /// passed.
    pub fn stall_at(offset: u64) -> Self {
        FaultScript {
            cut: Some((offset, CutKind::Stall)),
            ..Default::default()
        }
    }

    fn derive(rng: &mut u64) -> Self {
        let mut script = FaultScript {
            chunk: splitmix64(rng).is_multiple_of(3),
            ..Default::default()
        };
        if splitmix64(rng).is_multiple_of(3) {
            script.delay = Some((
                splitmix64(rng) % 256,
                Duration::from_millis(1 + splitmix64(rng) % 5),
            ));
        }
        if splitmix64(rng).is_multiple_of(3) {
            script.corrupt = Some((splitmix64(rng) % 256, (splitmix64(rng) % 255) as u8 + 1));
        }
        match splitmix64(rng) % 4 {
            0 => script.cut = Some((splitmix64(rng) % 512, CutKind::Sever)),
            1 => script.cut = Some((splitmix64(rng) % 512, CutKind::Stall)),
            _ => {}
        }
        script
    }
}

/// A full connection's fault schedule: one script per direction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Applied to bytes flowing client → server.
    pub client_to_server: FaultScript,
    /// Applied to bytes flowing server → client.
    pub server_to_client: FaultScript,
}

impl FaultPlan {
    /// A randomized but fully reproducible plan: the same seed always
    /// yields the same plan, and most seeds combine several fault kinds.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = seed ^ 0xfa17_u64.rotate_left(17);
        FaultPlan {
            client_to_server: FaultScript::derive(&mut rng),
            server_to_client: FaultScript::derive(&mut rng),
        }
    }

    /// Faults on the client→server direction only.
    pub fn uplink(script: FaultScript) -> Self {
        FaultPlan {
            client_to_server: script,
            server_to_client: FaultScript::clean(),
        }
    }

    /// Faults on the server→client direction only.
    pub fn downlink(script: FaultScript) -> Self {
        FaultPlan {
            client_to_server: FaultScript::clean(),
            server_to_client: script,
        }
    }
}

/// A `Write` transport that misbehaves on schedule: the script's offsets
/// count bytes written. See the module docs for stall semantics.
pub struct FaultyStream<S> {
    inner: S,
    script: FaultScript,
    written: u64,
    delay_pending: bool,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner`, faulting the bytes written to it per `script`.
    pub fn writes_only(inner: S, script: FaultScript) -> Self {
        FaultyStream {
            inner,
            delay_pending: script.delay.is_some(),
            script,
            written: 0,
        }
    }

    /// Unwraps the transport.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn cut_error(kind: CutKind) -> io::Error {
        match kind {
            CutKind::Sever => {
                io::Error::new(io::ErrorKind::BrokenPipe, "fault injection: stream severed")
            }
            CutKind::Stall => {
                io::Error::new(io::ErrorKind::TimedOut, "fault injection: stream stalled")
            }
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        if self.delay_pending {
            if let Some((offset, delay)) = self.script.delay {
                if self.written >= offset {
                    self.delay_pending = false;
                    std::thread::sleep(delay);
                }
            }
        }
        let mut limit = buf.len();
        if let Some((offset, kind)) = self.script.cut {
            if self.written >= offset {
                return Err(Self::cut_error(kind));
            }
            limit = limit.min((offset - self.written) as usize);
        }
        if self.script.chunk {
            limit = limit.min(1);
        }
        let n = if let Some((offset, mask)) = self.script.corrupt {
            if offset >= self.written && offset < self.written + limit as u64 {
                let mut corrupted = buf[..limit].to_vec();
                corrupted[(offset - self.written) as usize] ^= mask.max(1);
                self.inner.write(&corrupted)?
            } else {
                self.inner.write(&buf[..limit])?
            }
        } else {
            self.inner.write(&buf[..limit])?
        };
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An in-process TCP proxy that forwards `127.0.0.1` traffic to an
/// upstream address through a [`FaultPlan`].
///
/// Every accepted connection gets a fresh copy of the plan (offsets start
/// at zero per connection), so one proxy can serve a sequence of chaos
/// episodes. Dropping the proxy stops the accept loop, unsticks any
/// stalled direction, and joins every pump thread — a stalled schedule
/// never outlives the test that scripted it.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// How often pump threads wake to check the stop flag (bounds both
/// proxy-drop latency and the granularity of a stalled direction).
const PUMP_TICK: Duration = Duration::from_millis(20);

impl FaultProxy {
    /// Binds an ephemeral loopback port and forwards connections to
    /// `upstream` through `plan`.
    pub fn launch(upstream: SocketAddr, plan: FaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("fj-fault-proxy".to_string())
            .spawn(move || proxy_accept_loop(listener, upstream, plan, accept_stop))
            .expect("spawn fault-proxy thread");
        Ok(FaultProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection (errors mean
        // it is already past accept()).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn proxy_accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    stop: Arc<AtomicBool>,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(PUMP_TICK);
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break; // the drop poke, or a client racing it
        }
        // A dead upstream drops the client connection — exactly what the
        // client of a crashed server would see.
        let Ok(server) = TcpStream::connect(upstream) else {
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        for (src, dst, script) in [
            (client_rx, server, plan.client_to_server.clone()),
            (server_rx, client, plan.server_to_client.clone()),
        ] {
            let stop = Arc::clone(&stop);
            pumps.push(
                std::thread::Builder::new()
                    .name("fj-fault-pump".to_string())
                    .spawn(move || pump(src, dst, script, &stop))
                    .expect("spawn fault-pump thread"),
            );
        }
    }
    for pump in pumps {
        let _ = pump.join();
    }
}

/// Forwards one direction through its script until EOF, a cut, a transport
/// error, or the stop flag.
fn pump(mut src: TcpStream, dst: TcpStream, script: FaultScript, stop: &AtomicBool) {
    // The read timeout doubles as the stop-flag poll interval, so a pump
    // blocked on a quiet source still notices the proxy being dropped.
    let _ = src.set_read_timeout(Some(PUMP_TICK));
    let mut out = FaultyStream::writes_only(dst, script);
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => match out.write_all(&buf[..n]) {
                Ok(()) => {
                    let _ = out.flush();
                }
                // A scripted stall: hold the connection open and silent
                // until the proxy is dropped.
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(PUMP_TICK);
                    }
                    break;
                }
                // A scripted sever, or the destination actually died.
                Err(_) => break,
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = out.into_inner().shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_deterministic_and_seed_sensitive() {
        let mut a = 42u64;
        let mut b = 42u64;
        let seq_a: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same stream");
        let mut c = 43u64;
        let seq_c: Vec<u64> = (0..8).map(|_| splitmix64(&mut c)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different stream");
        // Known-good first output for seed 0 (reference splitmix64).
        let mut zero = 0u64;
        assert_eq!(splitmix64(&mut zero), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn fault_plans_replay_identically_from_a_seed() {
        for seed in 0..200u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        // And seeds actually vary the plan.
        let distinct: std::collections::HashSet<String> = (0..50u64)
            .map(|s| format!("{:?}", FaultPlan::from_seed(s)))
            .collect();
        assert!(distinct.len() > 10, "seeds vary plans: {}", distinct.len());
    }

    #[test]
    fn chunked_writes_deliver_every_byte_intact() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut stream = FaultyStream::writes_only(Vec::new(), FaultScript::chunked());
        stream.write_all(&payload).unwrap();
        assert_eq!(stream.into_inner(), payload);
    }

    #[test]
    fn corruption_flips_exactly_the_scripted_byte() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut stream = FaultyStream::writes_only(Vec::new(), FaultScript::corrupt_at(100, 0xff));
        stream.write_all(&payload).unwrap();
        let got = stream.into_inner();
        assert_eq!(got.len(), payload.len());
        for (i, (&g, &p)) in got.iter().zip(&payload).enumerate() {
            if i == 100 {
                assert_eq!(g, p ^ 0xff, "scripted byte flipped");
            } else {
                assert_eq!(g, p, "byte {i} untouched");
            }
        }
    }

    #[test]
    fn sever_cuts_after_exactly_the_scripted_prefix() {
        let payload = [7u8; 64];
        let mut stream = FaultyStream::writes_only(Vec::new(), FaultScript::sever_at(10));
        let err = stream.write_all(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(stream.into_inner().len(), 10, "prefix made it through");
    }
}
