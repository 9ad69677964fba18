#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.h"
#include "util/status.h"

namespace wmsketch::dist {

/// Wire framing for the distributed sync protocol (src/dist/README section
/// in the top-level README): every message on the Unix-domain socket is
///
///   [u8 frame type][20-byte v3 envelope header][payload]
///
/// — the same checksummed envelope the snapshot files use (core/snapshot_io),
/// so a frame is accepted only after its declared length is bounded and its
/// CRC32C verifies. A torn frame (peer died mid-send), a bit-flipped payload,
/// and a lying length field are all rejected *before* any protocol state is
/// touched; the receiver's only possible reactions to a bad frame are "drop
/// the connection" or "reject with an error frame", never "apply half".
///
/// Failpoint sites (util/failpoint.h), exercised by the chaos harness:
///   "dist:send"         — error: fail before writing; short: write a torn
///                         prefix then fail (the peer sees a truncated
///                         frame); crash: exit mid-protocol.
///   "dist:recv"         — error: fail before reading; short: consume a
///                         partial frame then fail (connection torn mid-read).
///   "dist:frame_decode" — reject a fully-read, CRC-valid frame as corrupt
///                         (decode-layer fault).

enum class FrameType : uint8_t {
  kHello = 1,        ///< worker → aggregator: merge-compatibility handshake
  kHelloAck = 2,     ///< aggregator → worker: session token + resume verdict
  kFullState = 3,    ///< worker → aggregator: full enveloped learner snapshot
  kDelta = 4,        ///< worker → aggregator: written-cell delta payload
  kAck = 5,          ///< aggregator → worker: sync committed
  kError = 6,        ///< aggregator → worker: rejected (encoded Status)
  kFetchMerged = 7,  ///< client → aggregator: request the merged model
  kMergedState = 8,  ///< aggregator → client: enveloped merged snapshot
  kShutdown = 9,     ///< client → aggregator: stop serving
};

/// Stable name for logging ("hello", "delta", ...).
const char* FrameTypeName(FrameType type);

/// Upper bound on a single frame payload. Model snapshots are KBs to MBs
/// (budgets cap them); anything near this bound is a corrupt length field.
/// (The envelope itself lives in net/wire.h, shared with the serving tier.)
inline constexpr uint64_t kMaxFramePayloadBytes = net::kMaxFramePayloadBytes;

struct Frame {
  FrameType type{};
  std::string payload;
};

/// Writes one frame to `fd` (blocking, loops over partial writes). IOError
/// on any write failure — by then a prefix may already be on the wire, so
/// the caller must treat the connection as dead.
Status SendFrame(int fd, FrameType type, std::string_view payload);

/// SendFrame for a frame the caller built with net::BeginFrame/SealFrame.
Status SendEncodedFrame(int fd, std::string_view frame);

/// Reads one frame from `fd`. NotFound on clean EOF before the first byte
/// (peer closed between frames); IOError on timeouts/resets; Corruption on
/// a torn frame, an unknown type, a bad envelope, or a checksum mismatch.
/// Only a returned OK frame has been fully validated.
Result<Frame> RecvFrame(int fd);

/// RecvFrame into a frame the caller keeps: its payload buffer is reused,
/// so a connection allocates for its largest frame once.
Status RecvFrame(int fd, Frame* frame);

}  // namespace wmsketch::dist
