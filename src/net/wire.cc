#include "net/wire.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/snapshot_io.h"
#include "util/failpoint.h"

namespace wmsketch::net {

namespace {

/// The first storage an inbox takes: one read of a request, a reply or a
/// sync delta fits it.
constexpr size_t kMinInboxBytes = size_t{8} << 10;

/// How far past the bytes at hand an inbox grows for the declared size of
/// the frame at its front. A header that lies about its length therefore
/// costs at most one chunk of memory before the missing bytes surface as a
/// torn frame, however large the declared length. One chunk holds a full
/// snapshot of the sync workload's model (~260 kB), so receiving it takes
/// one allocation, not a grow-and-copy.
constexpr size_t kRecvChunkBytes = size_t{512} << 10;

// The <site-recv> failpoint of Fill and Recv; `flags` are the reads'.
Status InjectedRecvFault(const char* site, int fd, int flags) {
  const failpoint::Action act = WMS_FAILPOINT(site);
  if (act == failpoint::Action::kError) return Status::IOError("injected recv failure");
  if (act == failpoint::Action::kShortWrite) {
    // Consume a few bytes, then fail: the connection is torn mid-frame.
    char tear[8];
    (void)::recv(fd, tear, sizeof(tear), flags);
    return Status::IOError("injected torn read mid-frame");
  }
  return Status::OK();
}

}  // namespace

bool Inbox::Fill(int fd) {
  if (!InjectedRecvFault(rules_.recv_site, fd, MSG_DONTWAIT).ok()) return false;
  for (;;) {
    const ssize_t r = ReadOnce(fd, MSG_DONTWAIT);
    if (r > 0) continue;
    if (r == 0) {
      eof_ = true;
      return true;
    }
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

Status Inbox::Next(FrameView* frame, bool* cut) {
  *cut = false;
  if (empty()) return Status::OK();
  size_t consumed = 0;
  WMS_RETURN_NOT_OK(TryDecodeFrame(std::string_view(bytes_.get() + begin_, size()),
                                   rules_.min_type, rules_.max_type, &frame->type,
                                   &frame->payload, &consumed));
  if (consumed == 0) return Status::OK();
  begin_ += consumed;
  if (begin_ == end_) begin_ = end_ = 0;  // the next read starts at the front
  *cut = true;
  if (rules_.decode_site != nullptr &&
      WMS_FAILPOINT(rules_.decode_site) != failpoint::Action::kOff) {
    return Status::Corruption("injected frame decode failure");
  }
  return Status::OK();
}

Status Inbox::Recv(int fd, FrameView* frame) {
  WMS_RETURN_NOT_OK(InjectedRecvFault(rules_.recv_site, fd, 0));
  for (;;) {
    bool cut = false;
    WMS_RETURN_NOT_OK(Next(frame, &cut));
    if (cut) return Status::OK();
    const ssize_t r = ReadOnce(fd, 0);
    if (r > 0) continue;
    if (r == 0) {
      if (empty()) return Status::NotFound("connection closed");
      return Status::Corruption("torn frame: connection closed mid-frame");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::IOError("frame read timed out");
    return Status::IOError(std::string("frame read failed: ") + std::strerror(errno));
  }
}

Result<std::string_view> Inbox::RecvReply(int fd, uint8_t expected) {
  FrameView reply;
  WMS_RETURN_NOT_OK(Recv(fd, &reply));
  return CheckReply(reply, expected);
}

Result<std::string_view> Inbox::CheckReply(const FrameView& reply, uint8_t expected) const {
  if (reply.type == expected) return reply.payload;
  if (reply.type == rules_.error_type) return DecodeErrorStatus(reply.payload);
  return Status::Corruption("unexpected reply type " + std::to_string(reply.type) +
                            " (expected " + std::to_string(expected) + ")");
}

void Inbox::ShrinkTo(size_t bytes) {
  bytes = std::max(bytes, size());
  if (capacity_ > bytes) Reallocate(bytes);
}

void Inbox::Clear() {
  begin_ = end_ = 0;
  eof_ = false;
}

ssize_t Inbox::ReadOnce(int fd, int flags) {
  // Room for the rest of the frame at the front once its header is in, up
  // to one chunk past the bytes at hand, and growth that leaves room for
  // the read after it; otherwise room for any byte. Only the header goes to
  // CheckEnvelope, so no checksum is computed here.
  size_t need = 1;
  size_t grow_to = std::max(2 * capacity_, kMinInboxBytes);
  size_t envelope = 0;
  if (size() >= kFrameHeaderBytes &&
      snapshot::CheckEnvelope(std::string_view(bytes_.get() + begin_ + 1,
                                               snapshot::kEnvelopeHeaderBytes),
                              "frame", kMaxFramePayloadBytes, "sanity cap", &envelope)
          .ok() &&
      1 + envelope > size()) {
    need = std::min(1 + envelope, size() + kRecvChunkBytes) - size();
    grow_to = std::max(grow_to, size() + need + kMinInboxBytes);
  }
  if (capacity_ - end_ < need) {
    if (capacity_ - size() >= need) {
      std::memmove(bytes_.get(), bytes_.get() + begin_, size());
      end_ -= begin_;
      begin_ = 0;
    } else {
      Reallocate(grow_to);
    }
  }
  for (;;) {
    const ssize_t r = ::recv(fd, bytes_.get() + end_, capacity_ - end_, flags);
    if (r < 0 && errno == EINTR) continue;
    if (r > 0) end_ += static_cast<size_t>(r);
    return r;
  }
}

void Inbox::Reallocate(size_t capacity) {
  std::unique_ptr<char[]> bytes = std::make_unique_for_overwrite<char[]>(capacity);
  if (!empty()) std::memcpy(bytes.get(), bytes_.get() + begin_, size());
  end_ = size();
  begin_ = 0;
  bytes_ = std::move(bytes);
  capacity_ = capacity;
}

Status WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that died between frames must surface as EPIPE,
    // not kill the process with SIGPIPE — the retry loops depend on it.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("frame write failed: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

std::string EncodeError(const Status& status) {
  std::string out;
  snapshot::WriteRaw(out, static_cast<uint8_t>(status.code()));
  snapshot::WriteRaw(out, status.detail());
  snapshot::WriteRaw(out, static_cast<uint32_t>(status.message().size()));
  snapshot::WriteBytes(out, status.message().data(), status.message().size());
  return out;
}

Status DecodeErrorStatus(std::string_view payload) {
  snapshot::SnapshotReader in(payload);
  uint8_t code = 0;
  uint16_t detail = 0;
  uint32_t len = 0;
  if (!in.ReadRaw(&code) || !in.ReadRaw(&detail) || !in.ReadRaw(&len)) {
    return Status::Corruption("truncated error payload");
  }
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kUnimplemented)) {
    return Status::Corruption("error payload has unknown status code");
  }
  if (!in.CanRead(len, 1)) return Status::Corruption("error message exceeds payload");
  std::string message(len, '\0');
  if (!in.ReadExactRaw(message.data(), len)) {
    return Status::Corruption("truncated error message");
  }
  return Status(static_cast<StatusCode>(code), "remote: " + message, detail);
}

void BeginFrame(std::string* frame, uint8_t type) {
  frame->assign(kFrameHeaderBytes, '\0');
  (*frame)[0] = static_cast<char>(type);
}

void SealFrame(std::string* frame) {
  snapshot::WriteEnvelopeHeader(std::string_view(*frame).substr(kFrameHeaderBytes),
                                frame->data() + 1);
}

std::string EncodeFrame(uint8_t type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  BeginFrame(&frame, type);
  frame.append(payload);
  SealFrame(&frame);
  return frame;
}

Status SendFrame(int fd, uint8_t type, std::string_view payload,
                 const char* failpoint_site) {
  return SendEncodedFrame(fd, EncodeFrame(type, payload), failpoint_site);
}

Status SendEncodedFrame(int fd, std::string_view frame, const char* failpoint_site) {
  // The whole frame is assembled before the first byte goes out, so a torn
  // write is a contiguous prefix — exactly what a process death mid-send
  // leaves on a SOCK_STREAM socket.
  const failpoint::Action act = WMS_FAILPOINT(failpoint_site);
  if (act == failpoint::Action::kError) {
    return Status::IOError("injected send failure");
  }
  if (act == failpoint::Action::kShortWrite) {
    WMS_RETURN_NOT_OK(WriteAll(fd, frame.data(), frame.size() / 2));
    return Status::IOError("injected torn write mid-frame");
  }
  return WriteAll(fd, frame.data(), frame.size());
}

Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type, uint8_t* type,
                      std::string_view* payload, size_t* consumed) {
  *consumed = 0;
  if (buf.empty()) return Status::OK();
  // The type byte and each header field are checked as soon as they are
  // in, so a garbage connection is dropped without waiting for a (lying)
  // payload length worth of bytes to accumulate.
  const uint8_t raw_type = static_cast<uint8_t>(buf[0]);
  if (raw_type < min_type || raw_type > max_type) {
    return Status::Corruption("unknown frame type " + std::to_string(raw_type));
  }
  size_t envelope = 0;
  WMS_RETURN_NOT_OK(snapshot::CheckEnvelope(buf.substr(1), "frame", kMaxFramePayloadBytes,
                                            "sanity cap", &envelope));
  if (envelope == 0 || buf.size() - 1 < envelope) return Status::OK();
  *type = raw_type;
  *payload = buf.substr(kFrameHeaderBytes, envelope - snapshot::kEnvelopeHeaderBytes);
  *consumed = 1 + envelope;
  return Status::OK();
}

Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type,
                      TypedFrame* frame, size_t* consumed) {
  std::string_view payload;
  WMS_RETURN_NOT_OK(TryDecodeFrame(buf, min_type, max_type, &frame->type, &payload, consumed));
  if (*consumed > 0) frame->payload.assign(payload);
  return Status::OK();
}

}  // namespace wmsketch::net
