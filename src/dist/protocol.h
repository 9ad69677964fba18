#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/delta_io.h"
#include "util/status.h"

namespace wmsketch::dist {

/// Payload codecs for the sync protocol frames (see dist/frame.h for the
/// framing). All payloads are little-endian fixed-field sections encoded
/// with the snapshot WriteRaw/SnapshotReader primitives, so truncation is
/// detected field-by-field and a malformed payload is Corruption, never a
/// partial parse.
///
/// Protocol flow:
///
///   worker                                aggregator
///     | -- kHello {id, session, acked, identity} -->  (identity checked)
///     | <-- kHelloAck {session, resume_ok, next} ---
///     | -- kFullState {sync hdr | learner bytes} -->  (replica replaced)
///     | <-- kAck {seq} ----------------------------
///     | -- kDelta {sync hdr | delta bytes} ------->  (cells applied)
///     | <-- kAck {seq} ----------------------------
///     | -- kFetchMerged ---------------------------> (replicas merged)
///     | <-- kMergedState {learner bytes} ----------
///
/// A rejected frame comes back as kError carrying a Status encoded by
/// net::EncodeError (net/wire.h); the worker reacts by reconnecting,
/// re-handshaking, and falling back to a full-state sync.

inline constexpr uint32_t kProtocolVersion = 1;

/// kHello payload: who the worker is, what session/sync state it believes
/// in, and the merge identity the aggregator must verify before any of this
/// worker's bytes can touch a replica.
struct HelloPayload {
  uint32_t protocol_version = kProtocolVersion;
  uint64_t worker_id = 0;
  /// Aggregator session the worker last spoke to (0 = first contact). An
  /// aggregator restart mints a new token, so a stale token can never pass
  /// for a live baseline.
  uint64_t session_token = 0;
  /// Last sync sequence the worker saw acked (0 = none).
  uint64_t acked_sync_seq = 0;
  MergeIdentity identity;
};

/// kHelloAck payload. resume_ok means the aggregator still holds this
/// worker's replica at exactly `acked_sync_seq` — delta sync may continue.
/// Otherwise the worker's next sync must be a full snapshot.
struct HelloAckPayload {
  uint64_t session_token = 0;
  uint8_t resume_ok = 0;
  uint64_t next_sync_seq = 1;
};

/// Prefix of every kFullState / kDelta payload; the body (enveloped learner
/// bytes or delta section) follows immediately.
struct SyncHeader {
  uint64_t worker_id = 0;
  uint64_t session_token = 0;
  uint64_t sync_seq = 0;
};

/// kAck payload.
struct AckPayload {
  uint64_t sync_seq = 0;
};

std::string EncodeHello(const HelloPayload& hello);
Result<HelloPayload> DecodeHello(std::string_view payload);

std::string EncodeHelloAck(const HelloAckPayload& ack);
Result<HelloAckPayload> DecodeHelloAck(std::string_view payload);

/// Appends a sync header to `*out`; the caller appends the body after it,
/// so the body is written once, straight into the frame.
void EncodeSyncHeader(const SyncHeader& header, std::string* out);
/// Splits a sync payload into its header and `*body` (a view into
/// `payload`, valid while `payload`'s storage lives).
Result<SyncHeader> DecodeSyncHeader(std::string_view payload, std::string_view* body);

/// Appends an ack payload to `*out` (the aggregator's kept ack frame).
void EncodeAck(const AckPayload& ack, std::string* out);
Result<AckPayload> DecodeAck(std::string_view payload);

}  // namespace wmsketch::dist
