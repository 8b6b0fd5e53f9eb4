//! Length-prefixed binary wire protocol of the kernel service.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes. Payloads are a tag byte plus
//! fixed-width little-endian fields; strings and byte buffers are
//! `u32`-length-prefixed. There is no external serialization dependency
//! — the encoding is hand-rolled, bounds-checked, and covered by
//! round-trip tests.
//!
//! Responses classify failures with the stable error codes of
//! [`CoreError::code`](dpvk_core::CoreError::code) (plus the
//! server-level codes `proto`, `denied`, `name_conflict` and `quota`),
//! never with `Display` text.

use std::fmt;
use std::io::{self, Read, Write};

/// Largest accepted frame payload (64 MiB): a malformed or hostile
/// length prefix must not make the server allocate unboundedly.
pub const MAX_FRAME: u32 = 64 << 20;

/// A launch parameter as carried on the wire. Buffers are referenced by
/// index into the request's buffer list; the server resolves them to
/// device pointers after upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireParam {
    /// 32-bit unsigned immediate.
    U32(u32),
    /// 64-bit unsigned immediate.
    U64(u64),
    /// 32-bit float immediate.
    F32(f32),
    /// 64-bit float immediate.
    F64(f64),
    /// Index into [`LaunchSpec::buffers`].
    Buffer(u32),
}

/// One device buffer of a launch request: its initial contents and
/// whether the client wants the bytes copied back after the launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBuffer {
    /// Initial contents, uploaded before every attempt (retries re-run
    /// the kernel on fresh inputs, so non-idempotent kernels stay
    /// correct).
    pub bytes: Vec<u8>,
    /// Copy the buffer back to the client in the `Launched` response.
    pub read_back: bool,
}

/// A launch request as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpec {
    /// Tenant the request bills to.
    pub tenant: String,
    /// Kernel name (must have been registered by the same tenant).
    pub kernel: String,
    /// Grid dimensions (CTAs).
    pub grid: [u32; 3],
    /// CTA dimensions (threads).
    pub block: [u32; 3],
    /// Per-attempt deadline in milliseconds; `0` uses the server
    /// default (2 s). Clamped to 10 s.
    pub deadline_ms: u32,
    /// Device buffers, uploaded in order.
    pub buffers: Vec<WireBuffer>,
    /// Kernel parameters, in signature order.
    pub params: Vec<WireParam>,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register kernel source under a tenant. Kernels are owned by the
    /// registering tenant; other tenants cannot launch (or re-register)
    /// them.
    Register {
        /// Owning tenant.
        tenant: String,
        /// Kernel source text.
        source: String,
    },
    /// Launch a registered kernel.
    Launch(LaunchSpec),
    /// Fetch a tenant's serving statistics.
    Stats {
        /// Tenant to report on.
        tenant: String,
    },
}

/// Per-tenant serving statistics returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Launch requests received (before admission).
    pub requests: u64,
    /// Requests admitted past the bucket and capacity gates.
    pub admitted: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Server-side retries of transient failures.
    pub retries: u64,
    /// Requests that fell back to the scalar baseline.
    pub degraded: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that surfaced a typed error.
    pub failed: u64,
    /// Cumulative device execution wall time, nanoseconds.
    pub exec_ns: u64,
    /// Device heap bytes currently live (device-wide, snapshotted when
    /// the stats response was built).
    pub heap_live_bytes: u64,
    /// Device heap high-water mark, bytes (device-wide).
    pub heap_high_water: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Registration succeeded.
    Registered,
    /// The launch completed.
    Launched {
        /// Total launch attempts (1 = first try succeeded).
        attempts: u32,
        /// Whether the result came from the scalar-baseline rung of the
        /// retry ladder.
        degraded: bool,
        /// Contents of each `read_back` buffer, in buffer order.
        outputs: Vec<Vec<u8>>,
    },
    /// The request was shed by admission control; retry after the hint.
    Overloaded {
        /// Client backoff hint, milliseconds.
        retry_after_ms: u32,
    },
    /// The request failed with a typed error.
    Error {
        /// Stable machine-readable code (see module docs).
        code: String,
        /// Whether a client-side retry may plausibly succeed.
        retryable: bool,
        /// Launch attempts consumed (0 if the request never launched).
        attempts: u32,
        /// Human-readable rendering, for logs only.
        message: String,
    },
    /// Tenant statistics.
    Stats(TenantStats),
}

/// A malformed payload (truncated fields, unknown tags, oversized or
/// non-UTF-8 strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before a field was complete.
    Truncated,
    /// Unknown request/response/param tag.
    BadTag(u8),
    /// A length prefix exceeded [`MAX_FRAME`].
    TooLarge(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Payload had bytes left over after the message.
    TrailingBytes(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            ProtoError::TooLarge(n) => write!(f, "length {n} exceeds the frame cap"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between requests).
///
/// # Errors
///
/// I/O errors pass through; an oversized length prefix surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::TooLarge(u64::from(len)).to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Write one frame.
///
/// # Errors
///
/// I/O errors pass through; a payload over [`MAX_FRAME`] surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > u64::from(MAX_FRAME) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::TooLarge(payload.len() as u64).to_string(),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.data.len() {
            return Err(ProtoError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()?;
        if len > MAX_FRAME {
            return Err(ProtoError::TooLarge(u64::from(len)));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtoError::BadUtf8)
    }

    fn finish(self) -> Result<(), ProtoError> {
        let left = self.data.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(left))
        }
    }
}

impl WireParam {
    fn encode(self, buf: &mut Vec<u8>) {
        match self {
            WireParam::U32(v) => {
                buf.push(0);
                put_u32(buf, v);
            }
            WireParam::U64(v) => {
                buf.push(1);
                put_u64(buf, v);
            }
            WireParam::F32(v) => {
                buf.push(2);
                put_u32(buf, v.to_bits());
            }
            WireParam::F64(v) => {
                buf.push(3);
                put_u64(buf, v.to_bits());
            }
            WireParam::Buffer(i) => {
                buf.push(4);
                put_u32(buf, i);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<WireParam, ProtoError> {
        Ok(match d.u8()? {
            0 => WireParam::U32(d.u32()?),
            1 => WireParam::U64(d.u64()?),
            2 => WireParam::F32(f32::from_bits(d.u32()?)),
            3 => WireParam::F64(f64::from_bits(d.u64()?)),
            4 => WireParam::Buffer(d.u32()?),
            t => return Err(ProtoError::BadTag(t)),
        })
    }
}

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Register { tenant, source } => {
                buf.push(1);
                put_str(&mut buf, tenant);
                put_str(&mut buf, source);
            }
            Request::Launch(spec) => {
                buf.push(2);
                put_str(&mut buf, &spec.tenant);
                put_str(&mut buf, &spec.kernel);
                for v in spec.grid.iter().chain(&spec.block) {
                    put_u32(&mut buf, *v);
                }
                put_u32(&mut buf, spec.deadline_ms);
                put_u32(&mut buf, spec.buffers.len() as u32);
                for b in &spec.buffers {
                    put_bytes(&mut buf, &b.bytes);
                    buf.push(u8::from(b.read_back));
                }
                put_u32(&mut buf, spec.params.len() as u32);
                for p in &spec.params {
                    p.encode(&mut buf);
                }
            }
            Request::Stats { tenant } => {
                buf.push(3);
                put_str(&mut buf, tenant);
            }
        }
        buf
    }

    /// Deserialize from a frame payload.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`] on malformed input.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(payload);
        let req = match d.u8()? {
            1 => Request::Register { tenant: d.string()?, source: d.string()? },
            2 => {
                let tenant = d.string()?;
                let kernel = d.string()?;
                let mut dims = [0u32; 6];
                for v in &mut dims {
                    *v = d.u32()?;
                }
                let deadline_ms = d.u32()?;
                let n_buffers = d.u32()?;
                let mut buffers = Vec::with_capacity(n_buffers.min(1024) as usize);
                for _ in 0..n_buffers {
                    let bytes = d.bytes()?;
                    let read_back = d.u8()? != 0;
                    buffers.push(WireBuffer { bytes, read_back });
                }
                let n_params = d.u32()?;
                let mut params = Vec::with_capacity(n_params.min(1024) as usize);
                for _ in 0..n_params {
                    params.push(WireParam::decode(&mut d)?);
                }
                Request::Launch(LaunchSpec {
                    tenant,
                    kernel,
                    grid: [dims[0], dims[1], dims[2]],
                    block: [dims[3], dims[4], dims[5]],
                    deadline_ms,
                    buffers,
                    params,
                })
            }
            3 => Request::Stats { tenant: d.string()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Registered => buf.push(1),
            Response::Launched { attempts, degraded, outputs } => {
                buf.push(2);
                put_u32(&mut buf, *attempts);
                buf.push(u8::from(*degraded));
                put_u32(&mut buf, outputs.len() as u32);
                for o in outputs {
                    put_bytes(&mut buf, o);
                }
            }
            Response::Overloaded { retry_after_ms } => {
                buf.push(3);
                put_u32(&mut buf, *retry_after_ms);
            }
            Response::Error { code, retryable, attempts, message } => {
                buf.push(4);
                put_str(&mut buf, code);
                buf.push(u8::from(*retryable));
                put_u32(&mut buf, *attempts);
                put_str(&mut buf, message);
            }
            Response::Stats(s) => {
                buf.push(5);
                for v in [
                    s.requests,
                    s.admitted,
                    s.shed,
                    s.retries,
                    s.degraded,
                    s.completed,
                    s.failed,
                    s.exec_ns,
                    s.heap_live_bytes,
                    s.heap_high_water,
                ] {
                    put_u64(&mut buf, v);
                }
            }
        }
        buf
    }

    /// Deserialize from a frame payload.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`] on malformed input.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let resp = match d.u8()? {
            1 => Response::Registered,
            2 => {
                let attempts = d.u32()?;
                let degraded = d.u8()? != 0;
                let n = d.u32()?;
                let mut outputs = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    outputs.push(d.bytes()?);
                }
                Response::Launched { attempts, degraded, outputs }
            }
            3 => Response::Overloaded { retry_after_ms: d.u32()? },
            4 => Response::Error {
                code: d.string()?,
                retryable: d.u8()? != 0,
                attempts: d.u32()?,
                message: d.string()?,
            },
            5 => Response::Stats(TenantStats {
                requests: d.u64()?,
                admitted: d.u64()?,
                shed: d.u64()?,
                retries: d.u64()?,
                degraded: d.u64()?,
                completed: d.u64()?,
                failed: d.u64()?,
                exec_ns: d.u64()?,
                heap_live_bytes: d.u64()?,
                heap_high_water: d.u64()?,
            }),
            t => return Err(ProtoError::BadTag(t)),
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Register {
            tenant: "alpha".into(),
            source: ".kernel k () { ret; }".into(),
        });
        round_trip_request(Request::Stats { tenant: "β-tenant".into() });
        round_trip_request(Request::Launch(LaunchSpec {
            tenant: "alpha".into(),
            kernel: "triple".into(),
            grid: [4, 2, 1],
            block: [64, 1, 1],
            deadline_ms: 250,
            buffers: vec![
                WireBuffer { bytes: vec![1, 2, 3, 4], read_back: true },
                WireBuffer { bytes: vec![], read_back: false },
            ],
            params: vec![
                WireParam::Buffer(0),
                WireParam::U32(7),
                WireParam::U64(u64::MAX),
                WireParam::F32(1.5),
                WireParam::F64(-0.25),
            ],
        }));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Registered);
        round_trip_response(Response::Launched {
            attempts: 3,
            degraded: true,
            outputs: vec![vec![9, 8, 7], vec![]],
        });
        round_trip_response(Response::Overloaded { retry_after_ms: 40 });
        round_trip_response(Response::Error {
            code: "worker_panic".into(),
            retryable: true,
            attempts: 4,
            message: "worker 1 panicked".into(),
        });
        round_trip_response(Response::Stats(TenantStats {
            requests: 10,
            admitted: 8,
            shed: 2,
            retries: 1,
            degraded: 1,
            completed: 7,
            failed: 1,
            exec_ns: 123_456,
            heap_live_bytes: 4096,
            heap_high_water: 1 << 20,
        }));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(Request::decode(&[0x7f]), Err(ProtoError::BadTag(0x7f)));
        // Truncated string length.
        assert_eq!(Request::decode(&[1, 5, 0, 0]), Err(ProtoError::Truncated));
        // String length past the payload.
        assert_eq!(Request::decode(&[1, 255, 0, 0, 0]), Err(ProtoError::Truncated));
        // Invalid UTF-8 tenant.
        assert_eq!(Request::decode(&[1, 1, 0, 0, 0, 0xff]), Err(ProtoError::BadUtf8));
        // Trailing garbage after a well-formed message.
        let mut payload = Response::Registered.encode();
        payload.push(0);
        assert_eq!(Response::decode(&payload), Err(ProtoError::TrailingBytes(1)));
        // A hostile length prefix is refused before allocation.
        let mut big = vec![1u8];
        big.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(Request::decode(&big), Err(ProtoError::TooLarge(u64::from(MAX_FRAME) + 1)));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, &[]).unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at frame boundary");

        let mut hostile = io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        let err = read_frame(&mut hostile).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
