//! The TCSS serving wire protocol: message encoding inside frames.
//!
//! One frame payload ([`crate::net::frame`]) carries one message. All
//! integers are little-endian; scores travel as raw `f64::to_bits` so a
//! wire response is **bitwise** identical to the in-process ranking that
//! produced it — the repo's determinism contract extends across the
//! socket unchanged.
//!
//! ```text
//! request payload  := kind:u8  id:u64  body
//!   kind 1 Recommend  body := user:u64 time:u64 n:u32
//!   kind 2 Ping       body := (empty)
//! response payload := kind:u8  id:u64  body
//!   kind 1 Ranking    body := version:u64 count:u32 (poi:u64 score:u64-bits)*count
//!   kind 2 Pong       body := (empty)
//!   kind 3 Overloaded body := queue_depth:u32
//!   kind 4 Error      body := code:u8 msg_len:u32 msg:utf8
//! ```
//!
//! Frame format: every payload travels as `[u32 LE len][payload][u64 LE
//! checksum]`, the workspace's one frame codec (`tcss_core::frame`,
//! shared with the training transport). Earlier releases sent
//! `[u32 LE len][payload]` with no trailer; there is no version
//! handshake, so mixing the two is unsupported: an old peer's frames
//! fail the checksum (typed `ChecksumMismatch`, then close) or stall
//! until the idle reaper closes them.
//!
//! `id` is a caller-chosen correlation id echoed verbatim in the
//! response, so clients may pipeline. Decoding is exact: short bodies,
//! unknown kinds, bad UTF-8 and trailing garbage are typed
//! [`WireError`]s — never a panic, and (server-side) never a dropped
//! connection without a typed `Error` response first.

use crate::ServeError;

/// Recommendation request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestBody {
    /// Top-`n` POIs for `(user, time)`.
    Recommend {
        /// User index.
        user: u64,
        /// Time-unit index.
        time: u64,
        /// Result-list length.
        n: u32,
    },
    /// Liveness probe; answered out-of-band with `Pong` (no admission).
    Ping,
}

/// One request message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Correlation id echoed in the response.
    pub id: u64,
    /// The request body.
    pub body: RequestBody,
}

/// Typed error codes carried by `Response::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Request payload failed to decode (see message for detail).
    Malformed = 1,
    /// User index outside the serving model.
    UserOutOfRange = 2,
    /// Time-unit index outside the serving model.
    TimeOutOfRange = 3,
    /// Frame length prefix exceeded the server's cap.
    FrameTooLarge = 4,
    /// Connection ended mid-frame.
    Truncated = 5,
    /// The request sat past the server's per-request deadline before it
    /// could enter a scoring batch; it was **not** scored. Retry is safe.
    DeadlineExceeded = 6,
    /// The server hit an internal failure (a panic during batch
    /// execution) scoring this request. The connection survives; the
    /// request was not answered with data and may be retried.
    Internal = 7,
    /// A frame's payload did not hash to its checksum trailer: the bytes
    /// were corrupted in flight. Connection-fatal, like the other
    /// framing errors.
    ChecksumMismatch = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UserOutOfRange),
            3 => Some(ErrorCode::TimeOutOfRange),
            4 => Some(ErrorCode::FrameTooLarge),
            5 => Some(ErrorCode::Truncated),
            6 => Some(ErrorCode::DeadlineExceeded),
            7 => Some(ErrorCode::Internal),
            8 => Some(ErrorCode::ChecksumMismatch),
            _ => None,
        }
    }
}

/// Response message body.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Top-`n` answer under `version` of the serving model.
    Ranking {
        /// Model version that produced the ranking.
        version: u64,
        /// `(poi, score)` in ranking order; scores bitwise-exact.
        items: Vec<(u64, f64)>,
    },
    /// Liveness answer.
    Pong,
    /// Load shed: the admission queue was at capacity. The request was
    /// **not** scored; retry later.
    Overloaded {
        /// The configured admission-queue depth that was exceeded.
        queue_depth: u32,
    },
    /// Typed failure for this request (or, for protocol-level errors,
    /// for the connection — the server closes after sending it).
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One response message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlation id of the request this answers (0 when the request
    /// was too mangled to recover one).
    pub id: u64,
    /// The response body.
    pub body: ResponseBody,
}

/// Typed wire-decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Zero-length payload (no kind byte).
    Empty,
    /// Unknown message kind byte.
    UnknownKind(u8),
    /// Payload shorter than its kind requires.
    Short {
        /// Message kind being decoded.
        kind: u8,
        /// Bytes the body needed.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Payload longer than its kind consumes (trailing garbage).
    Trailing {
        /// Message kind being decoded.
        kind: u8,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// Error message bytes were not UTF-8.
    BadUtf8,
    /// Error response carried an unknown code byte.
    BadErrorCode(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty message payload"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::Short { kind, need, have } => {
                write!(f, "kind-{kind} message needs {need} body bytes, got {have}")
            }
            WireError::Trailing { kind, extra } => {
                write!(f, "kind-{kind} message has {extra} trailing byte(s)")
            }
            WireError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Map an engine-level serving error to its wire error code + message.
pub fn serve_error_to_wire(e: &ServeError) -> (ErrorCode, String) {
    let code = match e {
        ServeError::UserOutOfRange { .. } => ErrorCode::UserOutOfRange,
        ServeError::TimeOutOfRange { .. } => ErrorCode::TimeOutOfRange,
    };
    (code, e.to_string())
}

const REQ_RECOMMEND: u8 = 1;
const REQ_PING: u8 = 2;
const RESP_RANKING: u8 = 1;
const RESP_PONG: u8 = 2;
const RESP_OVERLOADED: u8 = 3;
const RESP_ERROR: u8 = 4;

/// Exact-consumption little-endian reader over a message payload.
struct Reader<'a> {
    kind: u8,
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.body.len() - self.pos;
        if have < n {
            return Err(WireError::Short {
                kind: self.kind,
                need: self.pos + n,
                have: self.body.len(),
            });
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn done(&self) -> Result<(), WireError> {
        let extra = self.body.len() - self.pos;
        if extra != 0 {
            return Err(WireError::Trailing {
                kind: self.kind,
                extra,
            });
        }
        Ok(())
    }
}

fn reader(payload: &[u8]) -> Result<Reader<'_>, WireError> {
    let (&kind, body) = payload.split_first().ok_or(WireError::Empty)?;
    Ok(Reader { kind, body, pos: 0 })
}

/// Encode a request message payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match req.body {
        RequestBody::Recommend { user, time, n } => {
            out.push(REQ_RECOMMEND);
            out.extend_from_slice(&req.id.to_le_bytes());
            out.extend_from_slice(&user.to_le_bytes());
            out.extend_from_slice(&time.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        RequestBody::Ping => {
            out.push(REQ_PING);
            out.extend_from_slice(&req.id.to_le_bytes());
        }
    }
    out
}

/// Decode a request message payload (exact length).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = reader(payload)?;
    let id = r.u64()?;
    let req = match r.kind {
        REQ_RECOMMEND => Request {
            id,
            body: RequestBody::Recommend {
                user: r.u64()?,
                time: r.u64()?,
                n: r.u32()?,
            },
        },
        REQ_PING => Request {
            id,
            body: RequestBody::Ping,
        },
        k => return Err(WireError::UnknownKind(k)),
    };
    r.done()?;
    Ok(req)
}

/// Best-effort correlation id of a payload that may fail full decoding
/// (any kind byte + at least 8 body bytes); 0 otherwise. Lets the server
/// address a typed `Error` response to the request that caused it.
pub fn salvage_id(payload: &[u8]) -> u64 {
    if payload.len() >= 9 {
        u64::from_le_bytes(payload[1..9].try_into().expect("8"))
    } else {
        0
    }
}

/// Encode a response message payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match &resp.body {
        ResponseBody::Ranking { version, items } => {
            out.push(RESP_RANKING);
            out.extend_from_slice(&resp.id.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            let count = u32::try_from(items.len()).expect("ranking fits u32");
            out.extend_from_slice(&count.to_le_bytes());
            for &(poi, score) in items {
                out.extend_from_slice(&poi.to_le_bytes());
                out.extend_from_slice(&score.to_bits().to_le_bytes());
            }
        }
        ResponseBody::Pong => {
            out.push(RESP_PONG);
            out.extend_from_slice(&resp.id.to_le_bytes());
        }
        ResponseBody::Overloaded { queue_depth } => {
            out.push(RESP_OVERLOADED);
            out.extend_from_slice(&resp.id.to_le_bytes());
            out.extend_from_slice(&queue_depth.to_le_bytes());
        }
        ResponseBody::Error { code, message } => {
            out.push(RESP_ERROR);
            out.extend_from_slice(&resp.id.to_le_bytes());
            out.push(*code as u8);
            let len = u32::try_from(message.len()).expect("message fits u32");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
    }
    out
}

/// Decode a response message payload (exact length).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = reader(payload)?;
    let id = r.u64()?;
    let body = match r.kind {
        RESP_RANKING => {
            let version = r.u64()?;
            let count = r.u32()? as usize;
            let mut items = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let poi = r.u64()?;
                let score = f64::from_bits(r.u64()?);
                items.push((poi, score));
            }
            ResponseBody::Ranking { version, items }
        }
        RESP_PONG => ResponseBody::Pong,
        RESP_OVERLOADED => ResponseBody::Overloaded {
            queue_depth: r.u32()?,
        },
        RESP_ERROR => {
            let raw = r.u8()?;
            let code = ErrorCode::from_u8(raw).ok_or(WireError::BadErrorCode(raw))?;
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadUtf8)?
                .to_string();
            ResponseBody::Error { code, message }
        }
        k => return Err(WireError::UnknownKind(k)),
    };
    r.done()?;
    Ok(Response { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        for req in [
            Request {
                id: 42,
                body: RequestBody::Recommend {
                    user: 7,
                    time: 5,
                    n: 10,
                },
            },
            Request {
                id: u64::MAX,
                body: RequestBody::Ping,
            },
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrips_bitwise() {
        let resp = Response {
            id: 9,
            body: ResponseBody::Ranking {
                version: 3,
                items: vec![(5, 1.25), (0, -0.0), (2, f64::MIN_POSITIVE)],
            },
        };
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back.id, 9);
        match (&resp.body, &back.body) {
            (
                ResponseBody::Ranking { items: a, .. },
                ResponseBody::Ranking {
                    version: 3,
                    items: b,
                },
            ) => {
                for ((pa, sa), (pb, sb)) in a.iter().zip(b) {
                    assert_eq!(pa, pb);
                    assert_eq!(sa.to_bits(), sb.to_bits());
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_typed() {
        assert_eq!(decode_request(&[]).unwrap_err(), WireError::Empty);
        assert_eq!(
            decode_request(&[77, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err(),
            WireError::UnknownKind(77)
        );
        let mut good = encode_request(&Request {
            id: 1,
            body: RequestBody::Ping,
        });
        good.push(0xAA);
        assert_eq!(
            decode_request(&good).unwrap_err(),
            WireError::Trailing { kind: 2, extra: 1 }
        );
        let short = &encode_request(&Request {
            id: 1,
            body: RequestBody::Recommend {
                user: 1,
                time: 1,
                n: 1,
            },
        })[..12];
        assert!(matches!(
            decode_request(short).unwrap_err(),
            WireError::Short { kind: 1, .. }
        ));
    }

    #[test]
    fn salvage_id_recovers_when_possible() {
        let wire = encode_request(&Request {
            id: 0xDEAD_BEEF,
            body: RequestBody::Ping,
        });
        assert_eq!(salvage_id(&wire), 0xDEAD_BEEF);
        assert_eq!(salvage_id(&wire[..5]), 0);
    }
}
