//! The wire protocol: length-framed, CRC-protected binary request/response
//! messages built on `gputx-storage`'s little-endian codec.
//!
//! Every message travels in one *frame*:
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! and every payload starts with `[version: u8][kind: u8][request_id: u64]`.
//! The `request_id` is client-assigned and opaque to the server — responses
//! echo it back, which is what lets one connection multiplex many in-flight
//! submits (the reply demux in `gputx-client` routes on it). See
//! `docs/wire-protocol.md` for the full layout and the versioning rules.
//!
//! Decoding is hardened the same way the WAL reader is: every read is
//! bounds-checked, lengths are validated against the frame size before any
//! allocation, CRC mismatches and unknown tags are typed errors, and a
//! truncated stream is data (a dirty disconnect), never a panic.

use gputx_storage::wire::{crc32, WireError, WireReader, WireWriter};
use gputx_storage::Value;
use gputx_txn::{TxnId, TxnTypeId};
use std::io::{self, Read, Write};

/// Protocol version carried as the first payload byte. A server speaking
/// version `N` rejects frames with any other version with
/// [`Response::Error`]; bumping this is a wire-format break.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on a frame's payload length. A corrupted or hostile length
/// prefix beyond the cap is rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame header size: payload length + CRC-32, both little-endian `u32`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Errors produced while reading or decoding frames.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (reset, broken pipe, …).
    Io(io::Error),
    /// The bytes were readable but not a valid frame or message: bad CRC,
    /// oversized length, unknown version/kind/tag, truncated payload, or a
    /// stream that ended mid-frame.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Corrupt(e.to_string())
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one transaction into the pipeline. The response (resolved
    /// asynchronously, once the transaction's bulk commits) echoes
    /// `request_id`.
    Submit {
        /// Client-assigned correlation id, echoed by the response.
        request_id: u64,
        /// Registered transaction type to run.
        txn_type: TxnTypeId,
        /// The transaction's parameters.
        params: Vec<Value>,
        /// When set, the server sheds instead of blocking on a full admission
        /// queue: the reply is [`Response::QueueFull`] immediately (the
        /// open-loop client policy). When clear, the server blocks — which
        /// backpressures this connection's reader, i.e. the TCP window.
        no_wait: bool,
    },
    /// Liveness probe. Responses are FIFO per connection, so the
    /// [`Response::Pong`] arrives only after every earlier request on this
    /// connection has been answered — a Ping doubles as a commit barrier.
    Ping {
        /// Client-assigned correlation id, echoed by the response.
        request_id: u64,
    },
    /// Ask for the engine's [`HealthReport`](gputx_faults::HealthReport):
    /// WAL state (including heals/degradation), replication progress, last
    /// injected fault. Read-only and always safe to retry.
    Health {
        /// Client-assigned correlation id, echoed by the response.
        request_id: u64,
    },
}

impl Request {
    /// The client-assigned correlation id.
    pub fn request_id(&self) -> u64 {
        match self {
            Request::Submit { request_id, .. }
            | Request::Ping { request_id }
            | Request::Health { request_id } => *request_id,
        }
    }
}

/// A server → client message. Except for [`Response::Error`], every response
/// echoes the `request_id` of the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The transaction's bulk committed and the transaction committed.
    Committed {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// The engine-assigned transaction id (admission timestamp).
        txn_id: TxnId,
    },
    /// The transaction's bulk committed but the procedure aborted.
    Aborted {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// The engine-assigned transaction id (admission timestamp).
        txn_id: TxnId,
    },
    /// A `no_wait` submit found the admission queue full and was shed.
    QueueFull {
        /// Echo of the request's correlation id.
        request_id: u64,
    },
    /// The transaction's bulk failed (planner/runner error or panic).
    BulkFailed {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// Human-readable failure cause.
        message: String,
    },
    /// The engine shut down (or a stage died) before resolving this
    /// transaction.
    Disconnected {
        /// Echo of the request's correlation id.
        request_id: u64,
    },
    /// Protocol-level failure. `request_id` is `0` when the offending frame
    /// could not be attributed to a request (bad CRC, bad version, …); the
    /// server closes the connection after sending this.
    Error {
        /// Echo of the request's correlation id, or `0` if unattributable.
        request_id: u64,
        /// What was wrong with the frame or request.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echo of the request's correlation id.
        request_id: u64,
    },
    /// Answer to [`Request::Health`].
    Health {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// The engine's health snapshot (a server with no health surface
        /// wired answers [`HealthReport::unwired`](gputx_faults::HealthReport::unwired)).
        report: gputx_faults::HealthReport,
    },
}

impl Response {
    /// The echoed correlation id (`0` on unattributable errors).
    pub fn request_id(&self) -> u64 {
        match self {
            Response::Committed { request_id, .. }
            | Response::Aborted { request_id, .. }
            | Response::QueueFull { request_id }
            | Response::BulkFailed { request_id, .. }
            | Response::Disconnected { request_id }
            | Response::Error { request_id, .. }
            | Response::Pong { request_id }
            | Response::Health { request_id, .. } => *request_id,
        }
    }
}

fn payload_header(w: &mut WireWriter, kind: u8, request_id: u64) {
    w.put_u8(PROTOCOL_VERSION);
    w.put_u8(kind);
    w.put_u64(request_id);
}

/// Encode a request as a frame payload (header + body, no framing).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = WireWriter::new();
    match req {
        Request::Submit {
            request_id,
            txn_type,
            params,
            no_wait,
        } => {
            payload_header(&mut w, 0, *request_id);
            w.put_u8(u8::from(*no_wait));
            w.put_u32(*txn_type);
            w.put_len(params.len());
            for p in params {
                w.put_value(p);
            }
        }
        Request::Ping { request_id } => payload_header(&mut w, 1, *request_id),
        Request::Health { request_id } => payload_header(&mut w, 2, *request_id),
    }
    w.into_bytes()
}

/// Encode a response as a frame payload (header + body, no framing).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = WireWriter::new();
    match resp {
        Response::Committed { request_id, txn_id } => {
            payload_header(&mut w, 0, *request_id);
            w.put_u64(*txn_id);
        }
        Response::Aborted { request_id, txn_id } => {
            payload_header(&mut w, 1, *request_id);
            w.put_u64(*txn_id);
        }
        Response::QueueFull { request_id } => payload_header(&mut w, 2, *request_id),
        Response::BulkFailed {
            request_id,
            message,
        } => {
            payload_header(&mut w, 3, *request_id);
            w.put_str(message);
        }
        Response::Disconnected { request_id } => payload_header(&mut w, 4, *request_id),
        Response::Error {
            request_id,
            message,
        } => {
            payload_header(&mut w, 5, *request_id);
            w.put_str(message);
        }
        Response::Pong { request_id } => payload_header(&mut w, 6, *request_id),
        Response::Health { request_id, report } => {
            payload_header(&mut w, 7, *request_id);
            w.put_u8(report.wal.as_u8());
            w.put_u64(report.heals);
            w.put_u64(report.repl_followers);
            w.put_u64(report.repl_next_lsn);
            w.put_u64(report.repl_min_acked);
            w.put_u64(report.faults_injected);
            w.put_str(report.last_fault.as_deref().unwrap_or(""));
        }
    }
    w.into_bytes()
}

fn decode_header(r: &mut WireReader<'_>) -> Result<(u8, u64), WireError> {
    let version = r.get_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Invalid(format!(
            "unsupported protocol version {version} (this side speaks {PROTOCOL_VERSION})"
        )));
    }
    let kind = r.get_u8()?;
    let request_id = r.get_u64()?;
    Ok((kind, request_id))
}

/// Decode a request payload. Trailing bytes after a complete message are an
/// error (a length-corrupted frame must not half-parse).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = WireReader::new(payload);
    let (kind, request_id) = decode_header(&mut r)?;
    let req = match kind {
        0 => {
            let no_wait = match r.get_u8()? {
                0 => false,
                1 => true,
                flag => {
                    return Err(WireError::Invalid(format!(
                        "unknown submit flags {flag:#x}"
                    )))
                }
            };
            let txn_type = r.get_u32()?;
            let n = r.get_len()?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(r.get_value()?);
            }
            Request::Submit {
                request_id,
                txn_type,
                params,
                no_wait,
            }
        }
        1 => Request::Ping { request_id },
        2 => Request::Health { request_id },
        kind => return Err(WireError::Invalid(format!("unknown request kind {kind}"))),
    };
    r.expect_end()?;
    Ok(req)
}

/// Decode a response payload. Trailing bytes are an error.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = WireReader::new(payload);
    let (kind, request_id) = decode_header(&mut r)?;
    let resp = match kind {
        0 => Response::Committed {
            request_id,
            txn_id: r.get_u64()?,
        },
        1 => Response::Aborted {
            request_id,
            txn_id: r.get_u64()?,
        },
        2 => Response::QueueFull { request_id },
        3 => Response::BulkFailed {
            request_id,
            message: r.get_str()?,
        },
        4 => Response::Disconnected { request_id },
        5 => Response::Error {
            request_id,
            message: r.get_str()?,
        },
        6 => Response::Pong { request_id },
        7 => {
            let wal = gputx_faults::WalState::from_u8(r.get_u8()?);
            let heals = r.get_u64()?;
            let repl_followers = r.get_u64()?;
            let repl_next_lsn = r.get_u64()?;
            let repl_min_acked = r.get_u64()?;
            let faults_injected = r.get_u64()?;
            let last_fault = match r.get_str()? {
                s if s.is_empty() => None,
                s => Some(s),
            };
            Response::Health {
                request_id,
                report: gputx_faults::HealthReport {
                    wal,
                    heals,
                    repl_followers,
                    repl_next_lsn,
                    repl_min_acked,
                    faults_injected,
                    last_fault,
                },
            }
        }
        kind => return Err(WireError::Invalid(format!("unknown response kind {kind}"))),
    };
    r.expect_end()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Replication frames
// ---------------------------------------------------------------------------

/// A message on a primary↔follower replication connection.
///
/// Replication shares the request/response frame layer (length + CRC) and the
/// `[version][kind]` payload prefix, but runs on *dedicated* connections with
/// its own kind-byte space (`32..`), so a replication frame sent to the
/// request port (or vice versa) decodes to a typed error, never to a
/// misinterpreted message. There is no `request_id`: the stream itself is the
/// correlation — records arrive in LSN order, acks in applied order.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Follower → primary, first frame of every subscription: what the
    /// follower already has. A primary skips the snapshot only when `epoch`
    /// matches its own and `applied_lsn` equals its next LSN (the follower is
    /// exactly caught up); anything else gets a full snapshot first. A
    /// subscribe carrying an epoch *newer* than the primary's fences the
    /// primary (it learns it is stale).
    Subscribe {
        /// Replication epoch of the follower's current state (`0` = empty).
        epoch: u64,
        /// LSN the follower would apply next within that epoch.
        applied_lsn: u64,
    },
    /// Primary → follower: one piece of a `Database::encode_into` snapshot.
    /// `seq` starts at 0 and increments; a new `seq == 0` chunk discards any
    /// partially accumulated snapshot (that is the resync path). When `last`
    /// is set the accumulated bytes decode to the full database, and the
    /// follower's replay resumes at `next_lsn` under `epoch`.
    SnapshotChunk {
        /// Replication epoch the snapshot belongs to.
        epoch: u64,
        /// LSN of the first log record that post-dates the snapshot.
        next_lsn: u64,
        /// Chunk sequence number within this snapshot, from 0.
        seq: u32,
        /// True on the final chunk.
        last: bool,
        /// This chunk's slice of the encoded database.
        bytes: Vec<u8>,
    },
    /// Primary → follower: one committed bulk's redo record
    /// (`BulkLogRecord::encode` bytes), stamped with the primary's epoch and
    /// the commit wall-clock time the follower uses for lag accounting.
    LogRecord {
        /// Replication epoch the record belongs to.
        epoch: u64,
        /// Primary wall clock at commit, nanoseconds since the Unix epoch.
        commit_nanos: u64,
        /// The framed `BulkLogRecord` payload (LSN + write-set).
        payload: Vec<u8>,
    },
    /// Follower → primary: everything below `applied_lsn` has been applied —
    /// the replication-lag watermark the primary reports per follower.
    Ack {
        /// LSN the follower would apply next (records applied so far).
        applied_lsn: u64,
    },
    /// Primary → follower, controlled handoff: after this frame the sender
    /// stops streaming and the receiver should promote itself with (at
    /// least) the given epoch. Uncontrolled promotion (primary loss) skips
    /// this frame and bumps the epoch locally.
    Promote {
        /// Epoch the promoted follower must exceed or match.
        epoch: u64,
    },
}

/// Encode a replication message as a frame payload (no framing).
pub fn encode_repl(msg: &ReplMsg) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(PROTOCOL_VERSION);
    match msg {
        ReplMsg::Subscribe { epoch, applied_lsn } => {
            w.put_u8(32);
            w.put_u64(*epoch);
            w.put_u64(*applied_lsn);
        }
        ReplMsg::SnapshotChunk {
            epoch,
            next_lsn,
            seq,
            last,
            bytes,
        } => {
            w.put_u8(33);
            w.put_u64(*epoch);
            w.put_u64(*next_lsn);
            w.put_u32(*seq);
            w.put_u8(u8::from(*last));
            w.put_blob(bytes);
        }
        ReplMsg::LogRecord {
            epoch,
            commit_nanos,
            payload,
        } => {
            w.put_u8(34);
            w.put_u64(*epoch);
            w.put_u64(*commit_nanos);
            w.put_blob(payload);
        }
        ReplMsg::Ack { applied_lsn } => {
            w.put_u8(35);
            w.put_u64(*applied_lsn);
        }
        ReplMsg::Promote { epoch } => {
            w.put_u8(36);
            w.put_u64(*epoch);
        }
    }
    w.into_bytes()
}

/// Decode a replication payload. Trailing bytes are an error, like the
/// request/response decoders.
pub fn decode_repl(payload: &[u8]) -> Result<ReplMsg, WireError> {
    let mut r = WireReader::new(payload);
    let version = r.get_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Invalid(format!(
            "unsupported protocol version {version} (this side speaks {PROTOCOL_VERSION})"
        )));
    }
    let msg = match r.get_u8()? {
        32 => ReplMsg::Subscribe {
            epoch: r.get_u64()?,
            applied_lsn: r.get_u64()?,
        },
        33 => {
            let epoch = r.get_u64()?;
            let next_lsn = r.get_u64()?;
            let seq = r.get_u32()?;
            let last = match r.get_u8()? {
                0 => false,
                1 => true,
                flag => {
                    return Err(WireError::Invalid(format!(
                        "unknown snapshot-chunk flags {flag:#x}"
                    )))
                }
            };
            ReplMsg::SnapshotChunk {
                epoch,
                next_lsn,
                seq,
                last,
                bytes: r.get_blob()?,
            }
        }
        34 => ReplMsg::LogRecord {
            epoch: r.get_u64()?,
            commit_nanos: r.get_u64()?,
            payload: r.get_blob()?,
        },
        35 => ReplMsg::Ack {
            applied_lsn: r.get_u64()?,
        },
        36 => ReplMsg::Promote {
            epoch: r.get_u64()?,
        },
        kind => {
            return Err(WireError::Invalid(format!(
                "unknown replication message kind {kind}"
            )))
        }
    };
    r.expect_end()?;
    Ok(msg)
}

/// Append one frame (header + payload) to `buf` — the in-memory half of
/// [`write_frame`], which coalescing writers call once per frame and then
/// hand the whole buffer to the transport in one write.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::new();
    append_frame(&mut buf, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame's payload. Returns `Ok(None)` on a *clean* end of stream
/// (the peer closed exactly at a frame boundary); a stream ending mid-frame
/// is [`FrameError::Corrupt`] — a dirty disconnect, reported but never a
/// panic and never a half-parsed message.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Corrupt(format!(
                    "stream ended {got} bytes into a frame header"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = r.read_exact(&mut payload) {
        return if e.kind() == io::ErrorKind::UnexpectedEof {
            Err(FrameError::Corrupt(format!(
                "stream ended inside a {len}-byte frame payload"
            )))
        } else {
            Err(e.into())
        };
    }
    if crc32(&payload) != crc {
        return Err(FrameError::Corrupt(
            "frame CRC mismatch (corrupted payload)".into(),
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Submit {
            request_id: 7,
            txn_type: 3,
            params: vec![Value::Int(-1), Value::Str("héllo".into()), Value::Null],
            no_wait: false,
        });
        roundtrip_request(Request::Submit {
            request_id: u64::MAX,
            txn_type: 0,
            params: vec![],
            no_wait: true,
        });
        roundtrip_request(Request::Ping { request_id: 99 });
        roundtrip_request(Request::Health { request_id: 100 });
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Committed {
            request_id: 1,
            txn_id: 42,
        });
        roundtrip_response(Response::Aborted {
            request_id: 2,
            txn_id: 43,
        });
        roundtrip_response(Response::QueueFull { request_id: 3 });
        roundtrip_response(Response::BulkFailed {
            request_id: 4,
            message: "worker panicked".into(),
        });
        roundtrip_response(Response::Disconnected { request_id: 5 });
        roundtrip_response(Response::Error {
            request_id: 0,
            message: "bad frame".into(),
        });
        roundtrip_response(Response::Pong { request_id: 6 });
        roundtrip_response(Response::Health {
            request_id: 7,
            report: gputx_faults::HealthReport::unwired(),
        });
        roundtrip_response(Response::Health {
            request_id: 8,
            report: gputx_faults::HealthReport {
                wal: gputx_faults::WalState::Healed,
                heals: 3,
                repl_followers: 2,
                repl_next_lsn: 100,
                repl_min_acked: 97,
                faults_injected: 12,
                last_fault: Some("wal/fsync-error#12".into()),
            },
        });
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let payloads = [
            encode_request(&Request::Ping { request_id: 1 }),
            encode_request(&Request::Submit {
                request_id: 2,
                txn_type: 9,
                params: vec![Value::Double(0.5)],
                no_wait: true,
            }),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut cursor = &stream[..];
        for p in &payloads {
            let got = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().unwrap();
            assert_eq!(&got, p);
        }
        assert!(read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().is_none());
    }

    #[test]
    fn truncated_stream_is_corrupt_not_a_panic() {
        let mut stream = Vec::new();
        write_frame(
            &mut stream,
            &encode_request(&Request::Ping { request_id: 1 }),
        )
        .unwrap();
        for cut in 1..stream.len() {
            let mut cursor = &stream[..cut];
            assert!(
                matches!(
                    read_frame(&mut cursor, MAX_FRAME_LEN),
                    Err(FrameError::Corrupt(_))
                ),
                "cut at {cut} must be a dirty disconnect"
            );
        }
    }

    #[test]
    fn bad_crc_and_oversized_length_rejected() {
        let mut stream = Vec::new();
        write_frame(
            &mut stream,
            &encode_request(&Request::Ping { request_id: 1 }),
        )
        .unwrap();
        let mut flipped = stream.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &flipped[..], MAX_FRAME_LEN),
            Err(FrameError::Corrupt(_))
        ));
        // A giant length prefix is rejected before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..], MAX_FRAME_LEN),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_version_and_unknown_kinds_rejected() {
        let mut bad_version = encode_request(&Request::Ping { request_id: 1 });
        bad_version[0] = PROTOCOL_VERSION + 1;
        assert!(decode_request(&bad_version).is_err());
        let mut bad_kind = encode_request(&Request::Ping { request_id: 1 });
        bad_kind[1] = 200;
        assert!(decode_request(&bad_kind).is_err());
        let mut resp_bad_kind = encode_response(&Response::Pong { request_id: 1 });
        resp_bad_kind[1] = 200;
        assert!(decode_response(&resp_bad_kind).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Ping { request_id: 1 });
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }

    fn roundtrip_repl(msg: ReplMsg) {
        let payload = encode_repl(&msg);
        assert_eq!(decode_repl(&payload).unwrap(), msg);
    }

    #[test]
    fn replication_messages_round_trip() {
        roundtrip_repl(ReplMsg::Subscribe {
            epoch: 0,
            applied_lsn: 0,
        });
        roundtrip_repl(ReplMsg::Subscribe {
            epoch: u64::MAX,
            applied_lsn: 17,
        });
        roundtrip_repl(ReplMsg::SnapshotChunk {
            epoch: 3,
            next_lsn: 42,
            seq: 0,
            last: false,
            bytes: vec![1, 2, 3, 0xFF],
        });
        roundtrip_repl(ReplMsg::SnapshotChunk {
            epoch: 3,
            next_lsn: 42,
            seq: 9,
            last: true,
            bytes: vec![],
        });
        roundtrip_repl(ReplMsg::LogRecord {
            epoch: 3,
            commit_nanos: 1_234_567_890,
            payload: vec![0; 64],
        });
        roundtrip_repl(ReplMsg::Ack { applied_lsn: 43 });
        roundtrip_repl(ReplMsg::Promote { epoch: 4 });
    }

    #[test]
    fn replication_and_request_kind_spaces_do_not_overlap() {
        // A replication frame fed to the request/response decoders (a
        // follower dialed the wrong port) is a typed error, and vice versa.
        let repl = encode_repl(&ReplMsg::Ack { applied_lsn: 1 });
        assert!(decode_request(&repl).is_err());
        assert!(decode_response(&repl).is_err());
        let req = encode_request(&Request::Ping { request_id: 1 });
        assert!(decode_repl(&req).is_err());
        let resp = encode_response(&Response::Pong { request_id: 1 });
        assert!(decode_repl(&resp).is_err());
    }

    #[test]
    fn replication_decode_hardening() {
        let mut bad_version = encode_repl(&ReplMsg::Ack { applied_lsn: 1 });
        bad_version[0] = PROTOCOL_VERSION + 1;
        assert!(decode_repl(&bad_version).is_err());
        let mut bad_kind = encode_repl(&ReplMsg::Ack { applied_lsn: 1 });
        bad_kind[1] = 200;
        assert!(decode_repl(&bad_kind).is_err());
        let mut trailing = encode_repl(&ReplMsg::Promote { epoch: 1 });
        trailing.push(0);
        assert!(decode_repl(&trailing).is_err());
        // Truncation anywhere inside a snapshot chunk is a typed error.
        let chunk = encode_repl(&ReplMsg::SnapshotChunk {
            epoch: 1,
            next_lsn: 2,
            seq: 0,
            last: true,
            bytes: vec![7; 32],
        });
        for cut in 1..chunk.len() {
            assert!(decode_repl(&chunk[..cut]).is_err(), "cut at {cut}");
        }
    }
}
