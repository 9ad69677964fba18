#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "net/wire.h"
#include "util/status.h"

namespace wmsketch::dist {

/// The frame types of the distributed sync protocol (the protocol itself is
/// described in the top-level README's "Distributed training" section).
/// Both ends move them over the frame path of net/wire.h: the checksummed
/// envelope the snapshot files use (core/snapshot_io), read through one
/// net::Inbox per connection under kFrameRules, so a torn frame, a
/// bit-flipped payload or a lying length field is rejected *before* any
/// protocol state is touched.
///
/// Failpoint sites (util/failpoint.h), exercised by the chaos harness:
///   "dist:send"         — error: fail before writing; short: write a torn
///                         prefix then fail (the peer sees a truncated
///                         frame); crash: exit mid-protocol.
///   "dist:recv"         — error: fail before reading; short: consume a few
///                         bytes then fail (connection torn mid-read).
///                         The aggregator consults it once per readable
///                         connection, the worker once per frame.
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

/// What both ends of a sync connection accept, and their receive sites.
inline constexpr net::FrameRules kFrameRules{
    static_cast<uint8_t>(FrameType::kHello), static_cast<uint8_t>(FrameType::kShutdown),
    static_cast<uint8_t>(FrameType::kError), "dist:recv", "dist:frame_decode"};

/// How long each end of a sync polls with a zero timeout before it blocks:
/// the worker for its ack, the aggregator for the next frame after serving
/// one. A blocked thread pays a wake-up when the bytes arrive, twice per
/// round trip, which is a large share of a small delta sync; the ack and
/// the next worker's frame usually arrive well within this budget. Chosen
/// from a sweep of perfbench `sync` (README, Distributed training).
inline constexpr std::chrono::microseconds kSyncSpinBudget{400};

/// Writes one frame to `fd` (blocking, loops over partial writes). IOError
/// on any write failure — by then a prefix may already be on the wire, so
/// the caller must treat the connection as dead.
Status SendFrame(int fd, FrameType type, std::string_view payload);

/// SendFrame for a frame the caller built with net::BeginFrame/SealFrame.
Status SendEncodedFrame(int fd, std::string_view frame);

}  // namespace wmsketch::dist
