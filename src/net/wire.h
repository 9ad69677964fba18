#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace wmsketch::net {

/// Shared socket + frame wire helpers, used by BOTH network tiers: the
/// distributed-training sync protocol (src/dist/frame.cc is a thin wrapper
/// adding its FrameType enum) and the serving daemon (src/net/server.cc).
///
/// Every message on a SOCK_STREAM socket is one *typed frame*:
///
///   [u8 frame type][16-byte envelope header][u32 CRC32C][payload]
///
/// where the 16-byte header is the v3 snapshot envelope prefix
/// (core/snapshot_io.h: magic "WMS3", version, u64 payload length) and the
/// CRC32C covers header + payload. A frame is accepted only after its
/// declared length is bounded and its checksum verifies: a torn frame (peer
/// died mid-send), a bit-flipped payload, and a lying length field are all
/// rejected *before* any protocol state is touched — the receiver's only
/// possible reactions to a bad frame are "drop the connection" or "reject
/// with an error frame", never "apply half".
///
/// Failpoint sites are caller-named (e.g. "dist:send" / "net:recv") so each
/// tier's chaos harness can kill exactly its own protocol steps:
///   <site-send>  — error: fail before writing; short: write a torn prefix
///                  then fail; crash: exit mid-protocol.
///   <site-recv>  — error: fail before reading; short: consume a partial
///                  frame then fail (connection torn mid-read).

/// Upper bound on a single frame payload. Model snapshots and request
/// batches are KBs to MBs; anything near this bound is a corrupt length
/// field, rejected before allocation.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 28;

/// Bytes on the wire before the payload: type byte + 16-byte envelope
/// header + CRC32C.
inline constexpr size_t kFrameHeaderBytes = 1 + 16 + 4;

/// A received frame: the raw type byte (already range-checked against the
/// caller's [min_type, max_type] window) and the CRC-verified payload.
struct TypedFrame {
  uint8_t type = 0;
  std::string payload;
};

/// Writes all `n` bytes to `fd`, looping over partial writes. Uses
/// MSG_NOSIGNAL so a peer that died between frames surfaces as EPIPE, not a
/// process-killing SIGPIPE. IOError on any failure — a prefix may already
/// be on the wire, so the caller must treat the connection as dead.
Status WriteAll(int fd, const char* data, size_t n);

/// Reads exactly `n` bytes unless EOF intervenes; `*got` reports the bytes
/// actually read (short only at EOF). Timeouts (SO_RCVTIMEO) and resets
/// surface as IOError.
Status ReadUpTo(int fd, char* dst, size_t n, size_t* got);

/// Drains everything currently readable on `fd` into `*in` with
/// MSG_DONTWAIT (the fd itself stays blocking for the send path). Returns
/// false when the connection must be dropped (error or injected fault);
/// clean EOF sets `*eof` instead so buffered frames still get served.
/// `failpoint_site` as in RecvFrame (error / torn read).
bool ReadAvailable(int fd, std::string* in, bool* eof, const char* failpoint_site);

/// Polls `fds` with a zero timeout until one of them has an event or
/// `until` passes. The wait costs CPU instead of a thread wake-up, which is
/// worth it only where the event is expected within microseconds. Returns
/// what poll(2) returned last: the ready count, 0 once `until` has passed,
/// or -1 with errno set (EINTR is retried).
int SpinPoll(pollfd* fds, size_t n, std::chrono::steady_clock::time_point until);

/// Arms SO_RCVTIMEO/SO_SNDTIMEO on `fd` (no-op for timeout_ms <= 0), so a
/// hung peer surfaces as a timed-out IOError instead of a stuck thread.
Status SetIoTimeouts(int fd, int timeout_ms);

/// Assembles one complete frame (type + envelope header + CRC + payload).
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Starts a frame in `*frame`, replacing its contents with the type byte
/// and room for the envelope header and CRC. Append the payload, then call
/// SealFrame. Together they build the frame in one buffer the caller keeps
/// across frames, so the payload is written once and never copied.
void BeginFrame(std::string* frame, uint8_t type);

/// Completes a frame begun by BeginFrame: fills in the envelope header for
/// the payload appended since, and the CRC32C over header + payload.
void SealFrame(std::string* frame);

/// Writes one frame to `fd` (blocking, loops over partial writes).
/// `failpoint_site` names the WMS_FAILPOINT consulted first (error: fail
/// before writing; short: write a torn prefix then fail). IOError on any
/// write failure — by then a prefix may already be on the wire, so the
/// caller must treat the connection as dead.
Status SendFrame(int fd, uint8_t type, std::string_view payload,
                 const char* failpoint_site);

/// SendFrame for a frame already assembled by EncodeFrame or
/// BeginFrame/SealFrame.
Status SendEncodedFrame(int fd, std::string_view frame, const char* failpoint_site);

/// Reads one frame from `fd` (blocking). NotFound on clean EOF before the
/// first byte (peer closed between frames); IOError on timeouts/resets;
/// Corruption on a torn frame, a type outside [min_type, max_type], a bad
/// envelope, or a checksum mismatch. Only a returned OK frame has been
/// fully validated. `failpoint_site` as in SendFrame (error / short read).
/// The payload buffer grows in bounded chunks as bytes arrive, so a header
/// that lies about its length costs one chunk, not the declared length.
Result<TypedFrame> RecvFrame(int fd, uint8_t min_type, uint8_t max_type,
                             const char* failpoint_site);

/// RecvFrame into caller-kept storage: `frame->payload` keeps its capacity
/// across calls, so a connection that receives frames of similar size
/// allocates only for the first. On error `*frame` holds no valid frame.
Status RecvFrame(int fd, uint8_t min_type, uint8_t max_type, const char* failpoint_site,
                 TypedFrame* frame);

/// Non-blocking decode for buffered event loops: attempts to extract one
/// complete frame from the front of `buf`. Returns OK with *consumed == 0
/// when more bytes are needed (frame incomplete), OK with *consumed > 0
/// when `*frame` was decoded (the caller drops `*consumed` bytes), and
/// Corruption as in RecvFrame — after which the connection is
/// unrecoverable (framing is lost) and must be dropped.
Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type,
                      TypedFrame* frame, size_t* consumed);

/// TryDecodeFrame without the copy: a decoded frame's payload is a view
/// into `buf`, valid while the bytes it points at are.
Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type, uint8_t* type,
                      std::string_view* payload, size_t* consumed);

}  // namespace wmsketch::net
