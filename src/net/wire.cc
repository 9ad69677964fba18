#include "net/wire.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/snapshot_io.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace wmsketch::net {

namespace {

// One read(2) of at most `n` bytes: blocks until some arrive, then takes
// what has arrived. `*got` is 0 only at EOF.
Status ReadSome(int fd, char* dst, size_t n, size_t* got) {
  for (;;) {
    const ssize_t r = ::read(fd, dst, n);
    if (r >= 0) {
      *got = static_cast<size_t>(r);
      return Status::OK();
    }
    if (errno == EINTR) continue;
    *got = 0;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("frame read timed out");
    }
    return Status::IOError(std::string("frame read failed: ") + std::strerror(errno));
  }
}

}  // namespace

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

Status ReadUpTo(int fd, char* dst, size_t n, size_t* got) {
  *got = 0;
  while (*got < n) {
    size_t r = 0;
    WMS_RETURN_NOT_OK(ReadSome(fd, dst + *got, n - *got, &r));
    if (r == 0) return Status::OK();  // EOF; caller inspects *got
    *got += r;
  }
  return Status::OK();
}

bool ReadAvailable(int fd, std::string* in, bool* eof, const char* failpoint_site) {
  const failpoint::Action act = WMS_FAILPOINT(failpoint_site);
  if (act == failpoint::Action::kError) return false;
  if (act == failpoint::Action::kShortWrite) {
    // Consume a torn prefix, then fail: the peer died mid-frame.
    char tear[8];
    (void)::recv(fd, tear, sizeof(tear), MSG_DONTWAIT);
    return false;
  }
  char buf[64 * 1024];
  while (true) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (r == 0) {
      *eof = true;
      return true;
    }
    in->append(buf, static_cast<size_t>(r));
  }
}

int SpinPoll(pollfd* fds, size_t n, std::chrono::steady_clock::time_point until) {
  for (;;) {
    const int ready = ::poll(fds, n, 0);
    if (ready < 0 && errno == EINTR) continue;
    if (ready != 0 || std::chrono::steady_clock::now() >= until) return ready;
  }
}

Status SetIoTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return Status::OK();
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(std::string("setsockopt failed: ") + std::strerror(errno));
  }
  return Status::OK();
}

void BeginFrame(std::string* frame, uint8_t type) {
  frame->assign(kFrameHeaderBytes, '\0');
  (*frame)[0] = static_cast<char>(type);
}

void SealFrame(std::string* frame) {
  char* header = frame->data() + 1;
  const uint32_t magic = snapshot::kEnvelopeMagic;
  const uint32_t version = snapshot::kEnvelopeVersion;
  const uint64_t length = frame->size() - kFrameHeaderBytes;
  std::memcpy(header + 0, &magic, sizeof(magic));
  std::memcpy(header + 4, &version, sizeof(version));
  std::memcpy(header + 8, &length, sizeof(length));
  const uint32_t crc = crc32c::Extend(crc32c::Value(header, 16),
                                      frame->data() + kFrameHeaderBytes, length);
  std::memcpy(header + 16, &crc, sizeof(crc));
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

namespace {

/// Payload bytes the receive buffer grows by per read. A header that lies
/// about its length therefore costs at most one chunk of memory before the
/// missing bytes surface as a torn frame, however large the declared length.
/// One chunk holds a full snapshot of the sync workload's model (~260 kB),
/// so receiving it takes one allocation, not a grow-and-copy.
constexpr size_t kRecvChunkBytes = size_t{512} << 10;

/// Reads up to `n` bytes from `fd` into the empty `*payload`, growing it one
/// chunk at a time as bytes arrive. It comes back shorter than `n` only at
/// EOF.
Status ReadPayload(int fd, size_t n, std::string* payload) {
  while (payload->size() < n) {
    const size_t old_size = payload->size();
    const size_t chunk = std::min(kRecvChunkBytes, n - old_size);
    payload->resize(old_size + chunk);
    size_t got = 0;
    const Status st = ReadUpTo(fd, payload->data() + old_size, chunk, &got);
    payload->resize(old_size + got);
    WMS_RETURN_NOT_OK(st);
    if (got < chunk) break;  // EOF
  }
  return Status::OK();
}

/// Validates the 20 header bytes after the type byte (magic, version,
/// length cap) and extracts the declared payload length + CRC.
Status DecodeHeader(const char* head, uint64_t* length, uint32_t* declared_crc) {
  uint32_t magic, version;
  std::memcpy(&magic, head + 1, sizeof(magic));
  std::memcpy(&version, head + 5, sizeof(version));
  std::memcpy(length, head + 9, sizeof(*length));
  std::memcpy(declared_crc, head + 17, sizeof(*declared_crc));
  if (magic != snapshot::kEnvelopeMagic) return Status::Corruption("bad frame magic");
  if (version != snapshot::kEnvelopeVersion) {
    return Status::Corruption("unsupported frame envelope version");
  }
  if (*length > kMaxFramePayloadBytes) {
    return Status::Corruption("frame payload length exceeds sanity cap");
  }
  return Status::OK();
}

Status CheckCrc(const char* head, std::string_view payload, uint32_t declared_crc) {
  const uint32_t actual_crc = crc32c::Extend(crc32c::Value(head + 1, 16),
                                             payload.data(), payload.size());
  if (actual_crc != declared_crc) return Status::Corruption("frame checksum mismatch");
  return Status::OK();
}

}  // namespace

Result<TypedFrame> RecvFrame(int fd, uint8_t min_type, uint8_t max_type,
                             const char* failpoint_site) {
  TypedFrame frame;
  WMS_RETURN_NOT_OK(RecvFrame(fd, min_type, max_type, failpoint_site, &frame));
  return frame;
}

Status RecvFrame(int fd, uint8_t min_type, uint8_t max_type, const char* failpoint_site,
                 TypedFrame* frame) {
  frame->payload.clear();  // no stale payload survives a failed receive
  const failpoint::Action act = WMS_FAILPOINT(failpoint_site);
  if (act == failpoint::Action::kError) {
    return Status::IOError("injected recv failure");
  }
  // One read takes the type byte and as much of the header as has arrived,
  // usually all of it. The type byte is checked before any wait for the
  // rest, so a garbage connection is dropped at its first byte.
  char head[kFrameHeaderBytes];
  size_t got = 0;
  WMS_RETURN_NOT_OK(ReadSome(fd, head, sizeof(head), &got));
  if (got == 0) return Status::NotFound("connection closed");
  const uint8_t raw_type = static_cast<uint8_t>(head[0]);
  if (raw_type < min_type || raw_type > max_type) {
    return Status::Corruption("unknown frame type " + std::to_string(raw_type));
  }
  if (got < sizeof(head)) {
    size_t rest = 0;
    WMS_RETURN_NOT_OK(ReadUpTo(fd, head + got, sizeof(head) - got, &rest));
    if (got + rest != sizeof(head)) return Status::Corruption("torn frame header");
  }

  uint64_t length;
  uint32_t declared_crc;
  WMS_RETURN_NOT_OK(DecodeHeader(head, &length, &declared_crc));

  frame->type = raw_type;
  if (act == failpoint::Action::kShortWrite) {
    // Consume a partial payload, then fail: the connection is now mid-frame
    // desynchronized, exactly like a peer reset halfway through a read.
    WMS_RETURN_NOT_OK(ReadPayload(fd, static_cast<size_t>(length / 2), &frame->payload));
    return Status::IOError("injected torn read mid-frame");
  }
  WMS_RETURN_NOT_OK(ReadPayload(fd, static_cast<size_t>(length), &frame->payload));
  if (frame->payload.size() != length) return Status::Corruption("torn frame payload");
  return CheckCrc(head, frame->payload, declared_crc);
}

Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type,
                      TypedFrame* frame, size_t* consumed) {
  std::string_view payload;
  WMS_RETURN_NOT_OK(TryDecodeFrame(buf, min_type, max_type, &frame->type, &payload, consumed));
  if (*consumed > 0) frame->payload.assign(payload);
  return Status::OK();
}

Status TryDecodeFrame(std::string_view buf, uint8_t min_type, uint8_t max_type, uint8_t* type,
                      std::string_view* payload, size_t* consumed) {
  *consumed = 0;
  if (buf.empty()) return Status::OK();
  // The type byte and header are validated as soon as they are available —
  // a garbage connection is dropped without waiting for a (lying) payload
  // length worth of bytes to accumulate.
  const uint8_t raw_type = static_cast<uint8_t>(buf[0]);
  if (raw_type < min_type || raw_type > max_type) {
    return Status::Corruption("unknown frame type " + std::to_string(raw_type));
  }
  if (buf.size() < kFrameHeaderBytes) return Status::OK();
  uint64_t length;
  uint32_t declared_crc;
  WMS_RETURN_NOT_OK(DecodeHeader(buf.data(), &length, &declared_crc));
  if (buf.size() - kFrameHeaderBytes < length) return Status::OK();

  const std::string_view body = buf.substr(kFrameHeaderBytes, static_cast<size_t>(length));
  WMS_RETURN_NOT_OK(CheckCrc(buf.data(), body, declared_crc));
  *type = raw_type;
  *payload = body;
  *consumed = kFrameHeaderBytes + static_cast<size_t>(length);
  return Status::OK();
}

}  // namespace wmsketch::net
