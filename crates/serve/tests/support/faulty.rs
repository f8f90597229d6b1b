//! Deterministic transport-level fault injection for the serving chaos
//! suite (`net_faultinject.rs`).
//!
//! The mirror of [`tcss_core::fault`] for the wire path: production code
//! never constructs these faults; the harness exists so the resilience
//! contracts of the `poll(2)` front end — typed truncation errors, the
//! idle reaper, panic isolation, reconnect/retry — can be driven through
//! real socket misbehaviour in tests instead of being trusted on
//! inspection.
//!
//! A [`TransportFaultPlan`] keys each [`TransportFault`] to a
//! **request index** (0-based, counted per transport), and every trigger
//! is consumed at most once — exactly the discipline of
//! `tcss_core::fault::FaultPlan`'s epoch-keyed triggers, so failing
//! chaos runs replay identically. [`FaultyTransport`] then behaves like
//! a [`NetClient`](tcss_serve::net::NetClient) whose send path detours
//! through the armed fault:
//!
//! * [`TransportFault::StallMidFrame`] — write the first half of the
//!   request frame, go silent for the configured pause, then finish.
//!   Exercises the decoder's byte-boundary resilience and (when the
//!   pause exceeds the server's idle timeout) the reaper.
//! * [`TransportFault::PartialWrite`] — write only a prefix of the
//!   frame, then half-close. The server must answer a typed `Truncated`
//!   error, never hang waiting for the rest.
//! * [`TransportFault::Reset`] — send the request, then abort the
//!   connection with an RST (SO_LINGER 0). The server must absorb the
//!   reset and keep serving other connections.
//! * [`TransportFault::CorruptPayloadByte`] — XOR one byte of the
//!   request *payload* after framing (length prefix and checksum trailer
//!   left intact), modelling in-flight corruption. The frame checksum
//!   catches every such flip: the server answers a typed
//!   `ChecksumMismatch` error (id 0 — nothing in an untrusted frame is
//!   salvaged) and closes, so a corrupted byte can never be served as a
//!   different-but-valid request.
//!
//! Faults that kill the transport ([`PartialWrite`](TransportFault) and
//! `CorruptPayloadByte` — after their typed answer is read — and
//! [`Reset`](TransportFault)) leave the shim disconnected; [`FaultyTransport::reconnect`] restores
//! a clean connection while the request counter (and therefore the
//! remaining plan) keeps advancing.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use tcss_serve::net::frame::{read_frame, write_frame, FrameDecoder, HEADER_LEN};
use tcss_serve::net::proto::{self, Request, RequestBody, Response};
use tcss_serve::net::{ClientError, DEFAULT_MAX_FRAME_LEN};

/// One injectable socket misbehaviour, keyed by request index in a
/// [`TransportFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Write the frame's first half, stay silent for `pause_ms`, then
    /// write the rest. The request still completes; the server must
    /// neither mis-frame it nor (for pauses under its idle timeout)
    /// reap the connection.
    StallMidFrame {
        /// Silence between the two halves, in milliseconds.
        pause_ms: u64,
    },
    /// Write only the frame's first `bytes` bytes, then half-close the
    /// write side. The server must answer a typed `Truncated` error
    /// (readable via `recv`) and then close; the transport is dead for
    /// further sends (reconnect required).
    PartialWrite {
        /// Prefix length actually written (clamped to the frame).
        bytes: usize,
    },
    /// Send the request, then abort with an RST (`SO_LINGER` 0). Kills
    /// the transport (reconnect required).
    Reset,
    /// XOR the payload byte at `offset` (mod payload length) with
    /// `mask` after framing, so the trailer no longer matches. The
    /// server must answer a typed `ChecksumMismatch` error and close;
    /// the transport is dead for further sends (reconnect required).
    CorruptPayloadByte {
        /// Byte position within the encoded payload.
        offset: usize,
        /// Nonzero XOR mask.
        mask: u8,
    },
}

/// A schedule of transport faults for one connection's request stream,
/// keyed by 0-based request index. Each trigger fires at most once —
/// the consumed-once discipline of `tcss_core::fault::FaultPlan`.
#[derive(Debug, Default)]
pub struct TransportFaultPlan {
    faults: HashMap<usize, TransportFault>,
}

impl TransportFaultPlan {
    /// No faults: the shim behaves like a plain client.
    pub fn none() -> Self {
        TransportFaultPlan::default()
    }

    /// Arm `fault` for the request with 0-based index `request_index`.
    /// Re-arming the same index replaces the previous fault.
    pub fn fault_at(mut self, request_index: usize, fault: TransportFault) -> Self {
        if let TransportFault::CorruptPayloadByte { mask, .. } = fault {
            assert_ne!(mask, 0, "a zero mask would not corrupt anything");
        }
        self.faults.insert(request_index, fault);
        self
    }

    /// Triggers not yet consumed (the suite asserts this reaches 0).
    pub fn remaining(&self) -> usize {
        self.faults.len()
    }

    fn take(&mut self, request_index: usize) -> Option<TransportFault> {
        self.faults.remove(&request_index)
    }
}

/// A wire-protocol client whose send path injects the faults of a
/// [`TransportFaultPlan`]; see the module docs for the fault catalogue.
#[derive(Debug)]
pub struct FaultyTransport {
    addr: SocketAddr,
    read_timeout: Duration,
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    next_id: u64,
    /// 0-based index of the next request sent; keys into the plan.
    request_index: usize,
    plan: TransportFaultPlan,
}

impl FaultyTransport {
    /// Connect to `addr`; `read_timeout` bounds every blocking read so
    /// a hung server fails the suite typed instead of wedging it.
    pub fn connect(
        addr: SocketAddr,
        plan: TransportFaultPlan,
        read_timeout: Duration,
    ) -> io::Result<Self> {
        let stream = open_stream(addr, read_timeout)?;
        Ok(FaultyTransport {
            addr,
            read_timeout,
            stream: Some(stream),
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_LEN),
            next_id: 1,
            request_index: 0,
            plan,
        })
    }

    /// Triggers not yet consumed from the plan.
    pub fn faults_remaining(&self) -> usize {
        self.plan.remaining()
    }

    /// True while the underlying connection is usable (a `PartialWrite`
    /// or `Reset` fault leaves it dead until [`FaultyTransport::reconnect`]).
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Open a fresh connection after a transport-killing fault. The
    /// request counter keeps advancing, so the remaining plan stays
    /// keyed to the same global request indices.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Some(open_stream(self.addr, self.read_timeout)?);
        self.decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        Ok(())
    }

    /// Send one `Recommend` through whatever fault is armed for this
    /// request index. Returns the correlation id and the fault that was
    /// applied (`None` for a clean send). After a transport-killing
    /// fault the send itself has happened (prefix or full frame), but
    /// the connection is gone — [`FaultyTransport::recv`] will fail
    /// typed and [`FaultyTransport::reconnect`] restores service.
    pub fn send_recommend(
        &mut self,
        user: u64,
        time: u64,
        n: u32,
    ) -> io::Result<(u64, Option<TransportFault>)> {
        let id = self.next_id;
        self.next_id += 1;
        let idx = self.request_index;
        self.request_index += 1;
        let fault = self.plan.take(idx);

        let payload = proto::encode_request(&Request {
            id,
            body: RequestBody::Recommend { user, time, n },
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload);
        if let Some(TransportFault::CorruptPayloadByte { offset, mask }) = fault {
            framed[HEADER_LEN + offset % payload.len()] ^= mask;
        }

        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "transport killed"))?;
        match fault {
            Some(TransportFault::StallMidFrame { pause_ms }) => {
                let half = framed.len() / 2;
                stream.write_all(&framed[..half])?;
                stream.flush()?;
                std::thread::sleep(Duration::from_millis(pause_ms));
                stream.write_all(&framed[half..])?;
            }
            Some(TransportFault::PartialWrite { bytes }) => {
                // Half-close only the write side: the read side stays
                // open so the server's typed `Truncated` answer (sent
                // before it closes) is still observable via `recv`.
                let keep = bytes.min(framed.len().saturating_sub(1));
                stream.write_all(&framed[..keep])?;
                stream.flush()?;
                let _ = stream.shutdown(Shutdown::Write);
            }
            Some(TransportFault::Reset) => {
                stream.write_all(&framed)?;
                stream.flush()?;
                abort_with_rst(self.stream.take().expect("stream present"));
            }
            _ => stream.write_all(&framed)?,
        }
        Ok((id, fault))
    }

    /// Read the next response frame (arrival order). Fails typed on a
    /// dead transport, timeout, or server close — never hangs past the
    /// read timeout.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let stream = self.stream.as_mut().ok_or(ClientError::ServerClosed)?;
        match read_frame::<ClientError>(stream, &mut self.decoder)? {
            Some(payload) => proto::decode_response(&payload).map_err(ClientError::Wire),
            None => {
                self.stream = None;
                Err(ClientError::ServerClosed)
            }
        }
    }
}

fn open_stream(addr: SocketAddr, read_timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    Ok(stream)
}

// ---------------------------------------------------------------------------
// RST injection: closing with SO_LINGER {on, 0} makes the kernel send a
// reset instead of an orderly FIN. std's TcpStream::set_linger is
// unstable, so the sockopt is set by hand (std already links libc — the
// same posture as the server's `poll` declaration).

#[cfg(target_os = "linux")]
fn abort_with_rst(stream: TcpStream) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        l_onoff: std::ffi::c_int,
        l_linger: std::ffi::c_int,
    }
    const SOL_SOCKET: std::ffi::c_int = 1;
    const SO_LINGER: std::ffi::c_int = 13;
    extern "C" {
        fn setsockopt(
            fd: std::ffi::c_int,
            level: std::ffi::c_int,
            optname: std::ffi::c_int,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> std::ffi::c_int;
    }
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: fd is live (we own `stream`), and optval/optlen describe a
    // valid repr(C) linger struct for the duration of the call.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
    drop(stream); // close(2) now aborts with RST
}

#[cfg(not(target_os = "linux"))]
fn abort_with_rst(stream: TcpStream) {
    // Portable fallback: an orderly close. The chaos suite's assertions
    // (typed error or correct answer, no hangs) hold either way.
    drop(stream);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_exactly_once_and_in_index_order() {
        let mut plan = TransportFaultPlan::none()
            .fault_at(2, TransportFault::Reset)
            .fault_at(0, TransportFault::PartialWrite { bytes: 3 });
        assert_eq!(plan.remaining(), 2);
        assert_eq!(
            plan.take(0),
            Some(TransportFault::PartialWrite { bytes: 3 })
        );
        assert_eq!(plan.take(0), None, "trigger must be consumed");
        assert_eq!(plan.take(1), None);
        assert_eq!(plan.take(2), Some(TransportFault::Reset));
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "zero mask")]
    fn zero_corruption_mask_is_rejected() {
        let _ = TransportFaultPlan::none()
            .fault_at(0, TransportFault::CorruptPayloadByte { offset: 8, mask: 0 });
    }
}
