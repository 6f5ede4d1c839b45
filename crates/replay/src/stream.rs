//! The streaming frame envelope: how `.jtrace` bytes travel from a
//! client to the `jinn-serve` ingestion daemon.
//!
//! A `.jtrace` file is an artifact — self-contained, checksummed at the
//! end, rejected wholesale on any damage. A *service* cannot wait for
//! the end: traces arrive interleaved from many sessions over one byte
//! stream, and a single corrupt client must be quarantined without
//! disturbing its neighbours. The frame envelope adds exactly the
//! missing properties, and nothing else:
//!
//! * a **stream preamble** (`JFRM` + a little-endian `u16` version) so a
//!   server can distinguish an ingest stream from anything else by its
//!   first bytes;
//! * **length-prefixed frames**, each carrying a session id, so frames
//!   from many sessions interleave on one connection and a reader never
//!   needs lookahead;
//! * a **per-frame FNV-1a checksum**, so corruption is detected at the
//!   frame where it happened — the offending *session* is quarantined,
//!   the stream (and every other session on it) keeps going;
//! * a **frame-size cap** ([`MAX_FRAME_PAYLOAD`]), so a hostile length
//!   prefix cannot make the server allocate unbounded memory.
//!
//! The trace bytes inside `Append` frames are the unmodified `.jtrace`
//! wire format (`crate::format`) — the envelope frames a byte stream,
//! it does not reinterpret it. `Seal` repeats the total length and the
//! whole-trace FNV-1a checksum so reassembly errors (lost or reordered
//! chunks) are caught before the trace reaches a replay worker.
//!
//! See `TRACE_FORMAT.md` (appendix A) for the byte-level layout.

use std::fmt;

use crate::format::fnv1a;

/// Stream preamble magic: the first four bytes of every ingest stream.
pub const STREAM_MAGIC: [u8; 4] = *b"JFRM";

/// Current envelope version. Bump on any frame-layout change.
pub const STREAM_VERSION: u16 = 1;

/// Hard cap on one frame's payload. A length prefix above this is a
/// protocol error, not an allocation request.
pub const MAX_FRAME_PAYLOAD: u64 = 4 * 1024 * 1024;

/// Cap on tenant / config / reason strings inside control frames.
pub const MAX_CONTROL_STRING: u64 = 256;

/// Cap on the function count inside a `Manifest` frame. The JNI
/// registry holds a few hundred functions; a count beyond this is a
/// protocol error, not an allocation request.
pub const MAX_MANIFEST_FUNCTIONS: u64 = 512;

/// Frame kinds.
mod kind {
    pub const OPEN: u8 = 0x01;
    pub const APPEND: u8 = 0x02;
    pub const SEAL: u8 = 0x03;
    pub const ABORT: u8 = 0x04;
    pub const MANIFEST: u8 = 0x05;
}

/// Why a frame stream failed to decode. Every variant is a *typed*
/// error: adversarial bytes at the service boundary must never panic or
/// allocate unboundedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside the preamble or a frame (only reported by
    /// [`decode_stream`]; the incremental decoder just waits for more).
    Truncated,
    /// The stream does not start with `JFRM`.
    BadMagic,
    /// The stream was written by an envelope version this reader rejects.
    UnsupportedVersion(u16),
    /// A frame declared a payload larger than [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The frame checksum does not match its payload bytes.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        expected: u64,
        /// Checksum computed from the payload.
        actual: u64,
    },
    /// An unknown frame kind byte.
    BadKind(u8),
    /// A structurally invalid payload (bad varint, oversized string…).
    Corrupt(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame stream truncated"),
            FrameError::BadMagic => f.write_str("not a jinn frame stream (bad magic)"),
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported frame-stream version {v} (reader speaks {STREAM_VERSION})"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
                )
            }
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded ingest frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Begin a session: subsequent `Append` frames with this id extend
    /// its trace.
    Open {
        /// Client-chosen session id (unique per daemon).
        session: u64,
        /// Tenant tag, for per-tenant queries and accounting.
        tenant: String,
        /// Checker-stack selection, `replay diff --config` syntax
        /// (comma-separated labels, e.g. `jinn` or `jinn,xcheck:j9`).
        config: String,
    },
    /// A chunk of `.jtrace` bytes for an open session.
    Append {
        /// Session the chunk belongs to.
        session: u64,
        /// Raw trace bytes (any chunking; reassembly is by arrival
        /// order within the session).
        chunk: Vec<u8>,
    },
    /// End of a session's trace: declares what the reassembled bytes
    /// must look like.
    Seal {
        /// Session being sealed.
        session: u64,
        /// Total `.jtrace` byte length the appends must sum to.
        total_len: u64,
        /// FNV-1a checksum of the complete trace bytes.
        checksum: u64,
    },
    /// Client-side cancellation of a session.
    Abort {
        /// Session being abandoned.
        session: u64,
        /// Client-supplied reason (quoted in the session's stats).
        reason: String,
    },
    /// Declares a tenant's call-site manifest: the JNI functions its
    /// native code can call. The daemon acks with the static-discharge
    /// report for the set and flags each later session of the tenant as
    /// covered by it or not. Tenant-scoped, not session-scoped; a repeat
    /// declaration replaces the previous one.
    Manifest {
        /// The tenant the manifest belongs to.
        tenant: String,
        /// Every JNI function the workload can call (names unknown to
        /// the registry are kept callable and reported, not fatal).
        functions: Vec<String>,
    },
}

impl Frame {
    /// The session id the frame addresses, or `None` for tenant-scoped
    /// frames (`Manifest`).
    pub fn session(&self) -> Option<u64> {
        match self {
            Frame::Open { session, .. }
            | Frame::Append { session, .. }
            | Frame::Seal { session, .. }
            | Frame::Abort { session, .. } => Some(*session),
            Frame::Manifest { .. } => None,
        }
    }
}

fn varint_into(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn push_string(buf: &mut Vec<u8>, s: &str) {
    varint_into(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// The stream preamble bytes (send once, before the first frame).
pub fn stream_preamble() -> [u8; 6] {
    let v = STREAM_VERSION.to_le_bytes();
    [
        STREAM_MAGIC[0],
        STREAM_MAGIC[1],
        STREAM_MAGIC[2],
        STREAM_MAGIC[3],
        v[0],
        v[1],
    ]
}

/// Encodes one frame: `u32` LE payload length, payload, `u64` LE
/// FNV-1a of the payload.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::Open {
            session,
            tenant,
            config,
        } => {
            payload.push(kind::OPEN);
            varint_into(&mut payload, *session);
            push_string(&mut payload, tenant);
            push_string(&mut payload, config);
        }
        Frame::Append { session, chunk } => {
            payload.push(kind::APPEND);
            varint_into(&mut payload, *session);
            payload.extend_from_slice(chunk);
        }
        Frame::Seal {
            session,
            total_len,
            checksum,
        } => {
            payload.push(kind::SEAL);
            varint_into(&mut payload, *session);
            varint_into(&mut payload, *total_len);
            payload.extend_from_slice(&checksum.to_le_bytes());
        }
        Frame::Abort { session, reason } => {
            payload.push(kind::ABORT);
            varint_into(&mut payload, *session);
            push_string(&mut payload, reason);
        }
        Frame::Manifest { tenant, functions } => {
            payload.push(kind::MANIFEST);
            push_string(&mut payload, tenant);
            varint_into(&mut payload, functions.len() as u64);
            for f in functions {
                push_string(&mut payload, f);
            }
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let checksum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Encodes a complete single-session ingest stream: preamble, `Open`,
/// `Append` chunks of at most `chunk_size` bytes, `Seal`. The
/// convenience constructor for clients, tests, and the fleet bench.
pub fn encode_ingest(
    session: u64,
    tenant: &str,
    config: &str,
    trace: &[u8],
    chunk_size: usize,
) -> Vec<u8> {
    let chunk_size = chunk_size.max(1);
    let mut out = Vec::with_capacity(trace.len() + 128);
    out.extend_from_slice(&stream_preamble());
    out.extend_from_slice(&encode_frame(&Frame::Open {
        session,
        tenant: tenant.to_string(),
        config: config.to_string(),
    }));
    for chunk in trace.chunks(chunk_size) {
        out.extend_from_slice(&encode_frame(&Frame::Append {
            session,
            chunk: chunk.to_vec(),
        }));
    }
    out.extend_from_slice(&encode_frame(&Frame::Seal {
        session,
        total_len: trace.len() as u64,
        checksum: fnv1a(trace),
    }));
    out
}

/// Why a `Seal` declaration failed against the bytes actually received.
/// The `Display` strings are quarantine reasons surfaced to clients and
/// pinned by tests — both the buffered and the streaming judge quote
/// them verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealMismatch {
    /// The appends did not sum to the declared byte length.
    Length {
        /// Length the `Seal` frame declared.
        declared: u64,
        /// Bytes actually received.
        received: u64,
    },
    /// The received bytes hash to a different whole-trace checksum.
    Checksum {
        /// Checksum the `Seal` frame declared.
        declared: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
}

impl fmt::Display for SealMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealMismatch::Length { declared, received } => {
                write!(f, "seal declared {declared} bytes, received {received}")
            }
            SealMismatch::Checksum { declared, computed } => {
                write!(
                    f,
                    "seal checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for SealMismatch {}

/// Verifies a `Seal` frame's declaration (total length + whole-trace
/// FNV-1a) against what the session actually received. Length is checked
/// before checksum: a length mismatch means lost or duplicated chunks,
/// which makes the checksum comparison meaningless noise.
///
/// The single audited implementation shared by the buffered judge
/// (hashing its reassembled buffer) and the streaming judge (carrying
/// running totals) — the two paths must quarantine identically.
///
/// # Errors
///
/// The first [`SealMismatch`] found, in length-then-checksum order.
pub fn verify_seal_declaration(
    declared_len: u64,
    declared_sum: u64,
    received_len: u64,
    received_sum: u64,
) -> Result<(), SealMismatch> {
    if declared_len != received_len {
        return Err(SealMismatch::Length {
            declared: declared_len,
            received: received_len,
        });
    }
    if declared_sum != received_sum {
        return Err(SealMismatch::Checksum {
            declared: declared_sum,
            computed: received_sum,
        });
    }
    Ok(())
}

/// Payload cursor used while decoding one checks-passed frame.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, FrameError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| FrameError::Corrupt("payload ends mid-field".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, FrameError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(FrameError::Corrupt("varint overflow".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| FrameError::Corrupt("length overflow".into()))?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| FrameError::Corrupt("payload ends mid-field".into()))?;
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.varint()?;
        if len > MAX_CONTROL_STRING {
            return Err(FrameError::Corrupt(format!(
                "control string of {len} bytes exceeds cap {MAX_CONTROL_STRING}"
            )));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Corrupt("control string not UTF-8".into()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }

    fn u64_le(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let frame = match c.u8()? {
        kind::OPEN => Frame::Open {
            session: c.varint()?,
            tenant: c.string()?,
            config: c.string()?,
        },
        kind::APPEND => Frame::Append {
            session: c.varint()?,
            chunk: c.rest().to_vec(),
        },
        kind::SEAL => Frame::Seal {
            session: c.varint()?,
            total_len: c.varint()?,
            checksum: c.u64_le()?,
        },
        kind::ABORT => Frame::Abort {
            session: c.varint()?,
            reason: c.string()?,
        },
        kind::MANIFEST => {
            let tenant = c.string()?;
            let count = c.varint()?;
            if count > MAX_MANIFEST_FUNCTIONS {
                return Err(FrameError::Corrupt(format!(
                    "manifest of {count} functions exceeds cap {MAX_MANIFEST_FUNCTIONS}"
                )));
            }
            let mut functions = Vec::with_capacity(count as usize);
            for _ in 0..count {
                functions.push(c.string()?);
            }
            Frame::Manifest { tenant, functions }
        }
        other => return Err(FrameError::BadKind(other)),
    };
    if c.pos != payload.len() {
        return Err(FrameError::Corrupt(format!(
            "{} trailing payload bytes",
            payload.len() - c.pos
        )));
    }
    Ok(frame)
}

/// Incremental frame decoder: feed bytes as they arrive, pull frames as
/// they complete. Errors are terminal — a stream that has lied about a
/// length or checksum has no trustworthy resynchronization point.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    preamble_done: bool,
    failed: bool,
}

impl FrameDecoder {
    /// An empty decoder expecting the stream preamble.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends newly-arrived bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        // Reclaim consumed prefix once it dominates the buffer, so a
        // long-lived connection doesn't grow without bound.
        if self.pos > 64 * 1024 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Decodes the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; after an error the decoder refuses further
    /// frames (the stream is poisoned).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.failed {
            return Err(FrameError::Corrupt("stream already failed".into()));
        }
        let result = self.next_frame_inner();
        if result.is_err() {
            self.failed = true;
        }
        result
    }

    fn next_frame_inner(&mut self) -> Result<Option<Frame>, FrameError> {
        if !self.preamble_done {
            let avail = &self.buf[self.pos..];
            // Reject a wrong magic as early as the bytes allow.
            let probe = avail.len().min(4);
            if avail[..probe] != STREAM_MAGIC[..probe] {
                return Err(FrameError::BadMagic);
            }
            if avail.len() < 6 {
                return Ok(None);
            }
            let version = u16::from_le_bytes([avail[4], avail[5]]);
            if version != STREAM_VERSION {
                return Err(FrameError::UnsupportedVersion(version));
            }
            self.pos += 6;
            self.preamble_done = true;
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as u64;
        if len == 0 {
            return Err(FrameError::Corrupt("zero-length frame".into()));
        }
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME_PAYLOAD,
            });
        }
        let need = 4 + len as usize + 8;
        if avail.len() < need {
            return Ok(None);
        }
        let payload = &avail[4..4 + len as usize];
        let stored = &avail[4 + len as usize..need];
        let expected = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        let actual = fnv1a(payload);
        if expected != actual {
            return Err(FrameError::ChecksumMismatch { expected, actual });
        }
        let frame = decode_payload(payload)?;
        self.pos += need;
        self.compact();
        Ok(Some(frame))
    }
}

/// Decodes a complete in-memory stream into its frames. A stream that
/// ends mid-frame is [`FrameError::Truncated`].
///
/// # Errors
///
/// Any [`FrameError`] raised by the incremental decoder.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    let mut frames = Vec::new();
    while let Some(f) = dec.next_frame()? {
        frames.push(f);
    }
    if dec.pending() > 0 {
        return Err(FrameError::Truncated);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Open {
                session: 7,
                tenant: "acme".into(),
                config: "jinn".into(),
            },
            Frame::Append {
                session: 7,
                chunk: vec![1, 2, 3, 4, 5],
            },
            Frame::Seal {
                session: 7,
                total_len: 5,
                checksum: fnv1a(&[1, 2, 3, 4, 5]),
            },
            Frame::Abort {
                session: 8,
                reason: "client went away".into(),
            },
            Frame::Manifest {
                tenant: "acme".into(),
                functions: vec!["NewGlobalRef".into(), "DeleteGlobalRef".into()],
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let frames = sample_frames();
        let mut bytes = stream_preamble().to_vec();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        assert_eq!(decode_stream(&bytes).unwrap(), frames);
    }

    #[test]
    fn incremental_byte_at_a_time() {
        let frames = sample_frames();
        let mut bytes = stream_preamble().to_vec();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in bytes {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn encode_ingest_reassembles() {
        let trace = (0u16..1000).flat_map(u16::to_le_bytes).collect::<Vec<_>>();
        let stream = encode_ingest(3, "t", "jinn", &trace, 64);
        let frames = decode_stream(&stream).unwrap();
        assert!(matches!(frames[0], Frame::Open { session: 3, .. }));
        let mut rebuilt = Vec::new();
        for f in &frames[1..frames.len() - 1] {
            match f {
                Frame::Append { session: 3, chunk } => rebuilt.extend_from_slice(chunk),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(rebuilt, trace);
        match frames.last().unwrap() {
            Frame::Seal {
                total_len,
                checksum,
                ..
            } => {
                assert_eq!(*total_len, trace.len() as u64);
                assert_eq!(*checksum, fnv1a(&trace));
            }
            other => panic!("expected seal, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_streams_yield_typed_errors() {
        // Bad magic, detected from the very first byte.
        assert_eq!(decode_stream(b"XFRM\x01\x00"), Err(FrameError::BadMagic));
        // Wrong version.
        assert_eq!(
            decode_stream(b"JFRM\x63\x00"),
            Err(FrameError::UnsupportedVersion(0x63))
        );
        // Oversized length prefix must not allocate.
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stream(&bytes),
            Err(FrameError::Oversized { .. })
        ));
        // Bit flip in the payload trips the frame checksum.
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&encode_frame(&Frame::Append {
            session: 1,
            chunk: vec![9; 32],
        }));
        bytes[12] ^= 0x40;
        assert!(matches!(
            decode_stream(&bytes),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // Truncated mid-frame.
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&encode_frame(&Frame::Open {
            session: 1,
            tenant: "t".into(),
            config: "jinn".into(),
        }));
        bytes.truncate(bytes.len() - 3);
        assert_eq!(decode_stream(&bytes), Err(FrameError::Truncated));
        // Unknown kind byte (re-checksum a forged payload).
        let payload = vec![0x77u8, 0x01];
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let ck = fnv1a(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&ck.to_le_bytes());
        assert_eq!(decode_stream(&bytes), Err(FrameError::BadKind(0x77)));
    }

    #[test]
    fn decoder_is_poisoned_after_an_error() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"XXXXXX");
        assert!(dec.next_frame().is_err());
        dec.feed(&stream_preamble());
        assert!(dec.next_frame().is_err(), "no resync after a stream error");
    }

    #[test]
    fn manifest_function_count_cap_is_enforced() {
        // Forge a Manifest frame claiming 1<<20 functions: the decoder
        // must reject the count before allocating for it.
        let mut payload = vec![kind::MANIFEST, 0x01, b't'];
        varint_into(&mut payload, 1 << 20);
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let ck = fnv1a(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&ck.to_le_bytes());
        match decode_stream(&bytes) {
            Err(FrameError::Corrupt(msg)) => assert!(msg.contains("exceeds cap"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // At the cap with the payload truncated: typed error, no panic.
        let mut payload = vec![kind::MANIFEST, 0x01, b't'];
        varint_into(&mut payload, MAX_MANIFEST_FUNCTIONS);
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let ck = fnv1a(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&ck.to_le_bytes());
        assert!(matches!(decode_stream(&bytes), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn seal_declaration_verifier_orders_and_words_its_errors() {
        let trace = b"some trace bytes".to_vec();
        let sum = fnv1a(&trace);
        assert_eq!(
            verify_seal_declaration(trace.len() as u64, sum, trace.len() as u64, sum),
            Ok(())
        );
        // Length mismatch wins even when the checksum also differs.
        let err = verify_seal_declaration(trace.len() as u64, sum, 3, fnv1a(b"xyz")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("seal declared {} bytes, received 3", trace.len())
        );
        // Same length, different bytes: checksum mismatch.
        let other = fnv1a(b"EVIL trace bytes");
        let err = verify_seal_declaration(trace.len() as u64, sum, trace.len() as u64, other)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("seal checksum mismatch: declared {sum:#018x}, computed {other:#018x}")
        );
    }

    #[test]
    fn manifest_frames_are_tenant_scoped() {
        let f = Frame::Manifest {
            tenant: "t".into(),
            functions: vec![],
        };
        assert_eq!(f.session(), None);
        let f = Frame::Open {
            session: 9,
            tenant: "t".into(),
            config: String::new(),
        };
        assert_eq!(f.session(), Some(9));
    }

    #[test]
    fn control_string_cap_is_enforced() {
        // Forge an Open frame whose tenant length claims 100 KiB.
        let mut payload = vec![0x01u8, 0x01];
        // varint(100_000)
        payload.extend_from_slice(&[0xa0, 0x8d, 0x06]);
        let mut bytes = stream_preamble().to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let ck = fnv1a(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&ck.to_le_bytes());
        match decode_stream(&bytes) {
            Err(FrameError::Corrupt(msg)) => assert!(msg.contains("exceeds cap"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
