#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/snapshot_io.h"
#include "util/status.h"

namespace wmsketch::net {

/// The frame path of both network tiers: the distributed-training sync
/// protocol (src/dist/, which adds its FrameType enum in dist/frame.h) and
/// the serving daemon (src/net/). Sockets are opened in net/socket.h; every
/// endpoint, daemon or client, reads frames through one Inbox.
///
/// Every message on a SOCK_STREAM socket is one *typed frame*:
///
///   [u8 frame type][20-byte envelope header][payload]
///
/// where the header is the v3 snapshot envelope's (core/snapshot_io.h:
/// magic "WMS3", version, u64 payload length, CRC32C over the header's first
/// 16 bytes and the payload), written and checked by the same two functions
/// as the snapshot files'. A frame is accepted only after its declared
/// length is bounded and its checksum verifies: a torn frame (peer died
/// mid-send), a bit-flipped payload, and a lying length field are all
/// rejected *before* any protocol state is touched — the receiver's only
/// possible reactions to a bad frame are "drop the connection" or "reject
/// with an error frame", never "apply half".
///
/// Failpoint sites are caller-named (e.g. "dist:send" / "net:recv") so each
/// tier's chaos harness can kill exactly its own protocol steps:
///   <site-send>   — error: fail before writing; short: write a torn prefix
///                   then fail; crash: exit mid-protocol.
///   <site-recv>   — error: fail before reading; short: consume a few bytes
///                   of the stream then fail (connection torn mid-read).
///   <site-decode> — any action: reject a frame cut whole as corrupt.

/// Upper bound on a single frame payload. Model snapshots and request
/// batches are KBs to MBs; anything near this bound is a corrupt length
/// field, rejected before allocation.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 28;

/// Bytes on the wire before the payload: type byte + envelope header.
inline constexpr size_t kFrameHeaderBytes = 1 + snapshot::kEnvelopeHeaderBytes;

/// A received frame with its own copy of the CRC-verified payload.
struct TypedFrame {
  uint8_t type = 0;
  std::string payload;
};

/// A frame cut from an Inbox: the type byte and a view of the CRC-verified
/// payload where it lies in the inbox, valid until the inbox next reads,
/// shrinks or clears.
struct FrameView {
  uint8_t type = 0;
  std::string_view payload;
};

/// What one side of a tier accepts and where its failpoints sit.
struct FrameRules {
  /// The accepted type window; a type byte outside it is Corruption.
  uint8_t min_type = 0;
  uint8_t max_type = 0xff;
  /// The tier's error frame, which a client's reply check turns into the
  /// remote Status.
  uint8_t error_type = 0;
  /// <site-recv>: consulted once per Fill and once per Recv.
  const char* recv_site = "";
  /// <site-decode>: consulted once per frame cut whole; null for none.
  const char* decode_site = nullptr;
};

/// The receive buffer of one connection, and the one way both tiers read
/// frames. The daemons drain a readable socket into it without blocking
/// (Fill) and cut the complete frames off its front (Next); the clients
/// block on it (Recv, under their SO_RCVTIMEO). A read takes what has
/// arrived, so a reply usually costs one recv(2), and the bytes read past a
/// frame stay for the next one.
///
/// It owns its bytes, so a read lands in place and growing copies only the
/// bytes not yet consumed. Once the header of the frame at the front is in,
/// it makes room for the whole frame in one allocation, but never more than
/// kRecvChunkBytes past the bytes at hand, so a header that lies about its
/// length costs at most one chunk. Single-threaded; move-only.
class Inbox {
 public:
  explicit Inbox(const FrameRules& rules) : rules_(rules) {}

  /// Drains everything readable on `fd` with MSG_DONTWAIT (the fd itself
  /// stays blocking for the send path). False when the connection must be
  /// dropped (a read error or an injected fault); a clean EOF sets eof()
  /// instead, so buffered frames are still served.
  bool Fill(int fd);

  /// Cuts the complete frame at the front: OK with `*cut` true and `*frame`
  /// set; OK with `*cut` false while the frame is incomplete; Corruption
  /// for a type outside the rules' window, a bad envelope or a checksum
  /// mismatch, each checked as soon as its bytes are in. After an error the
  /// framing is lost and the connection must drop.
  Status Next(FrameView* frame, bool* cut);

  /// Blocks until a whole frame is buffered and cuts it, reading only when
  /// none is. NotFound on a clean EOF between frames; IOError on a timeout
  /// (its message says "timed out") or a reset; Corruption as Next, and for
  /// an EOF inside a frame. Only an OK frame has been fully validated.
  Status Recv(int fd, FrameView* frame);

  /// The one reply check of both clients: the payload of `reply` when it
  /// is of type `expected`; the remote Status when it is the rules' error
  /// frame; Corruption for any other type.
  Result<std::string_view> CheckReply(const FrameView& reply, uint8_t expected) const;

  /// Recv, then CheckReply.
  Result<std::string_view> RecvReply(int fd, uint8_t expected);

  /// Bytes buffered and not yet cut.
  size_t size() const { return end_ - begin_; }
  bool empty() const { return end_ == begin_; }
  size_t capacity() const { return capacity_; }
  /// The peer closed its write side (set by Fill).
  bool eof() const { return eof_; }

  /// Gives back storage beyond max(`bytes`, size()).
  void ShrinkTo(size_t bytes);
  /// Drops every buffered byte and the EOF mark, keeping the storage: the
  /// connection is gone and the next one starts clean.
  void Clear();

 private:
  /// One recv(2) with `flags` into the free tail, after making room for it.
  ssize_t ReadOnce(int fd, int flags);
  /// Moves the unconsumed bytes into storage of `capacity` bytes.
  void Reallocate(size_t capacity);

  FrameRules rules_;
  std::unique_ptr<char[]> bytes_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
};

/// Writes all `n` bytes to `fd`, looping over partial writes. Uses
/// MSG_NOSIGNAL so a peer that died between frames surfaces as EPIPE, not a
/// process-killing SIGPIPE. IOError on any failure — a prefix may already
/// be on the wire, so the caller must treat the connection as dead.
Status WriteAll(int fd, const char* data, size_t n);

/// Assembles one complete frame (type + envelope header + payload).
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Starts a frame in `*frame`, replacing its contents with the type byte
/// and room for the envelope header. Append the payload, then call
/// SealFrame. Together they build the frame in one buffer the caller keeps
/// across frames, so the payload is written once and never copied.
void BeginFrame(std::string* frame, uint8_t type);

/// Completes a frame begun by BeginFrame: writes the envelope header for
/// the payload appended since.
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

/// The error payload of both tiers (net's kErrorResponse, dist's kError):
/// the rejecting side's Status, round-tripped so the peer reacts to the real
/// failure, not a generic "rejected". Layout: u8 code, u16 detail, u32
/// message length, message bytes.
std::string EncodeError(const Status& status);
/// The remote Status, its message prefixed "remote: " (Corruption if the
/// payload itself is malformed).
Status DecodeErrorStatus(std::string_view payload);

/// The frame decoder: attempts to cut one complete frame from the front of
/// `buf`. OK with *consumed == 0 while more bytes are needed, OK with
/// *consumed > 0 when the frame was cut (`*payload` views it inside `buf`),
/// Corruption as Inbox::Next.
Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type, uint8_t* type,
                      std::string_view* payload, size_t* consumed);

/// TryDecodeFrame into a frame with its own copy of the payload.
Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type,
                      TypedFrame* frame, size_t* consumed);

}  // namespace wmsketch::net
