#include "core/snapshot_io.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <optional>

#include "util/crc32c.h"
#include "util/failpoint.h"

namespace wmsketch::snapshot {

namespace {

// Payload bytes read per chunk when the stream can't report its size:
// bounds transient over-allocation for a lying length field to one chunk.
constexpr size_t kReadChunkBytes = size_t{1} << 20;

void EncodeHeader(char (&header)[16], uint64_t payload_length) {
  const uint32_t magic = kEnvelopeMagic;
  const uint32_t version = kEnvelopeVersion;
  std::memcpy(header + 0, &magic, sizeof(magic));
  std::memcpy(header + 4, &version, sizeof(version));
  std::memcpy(header + 8, &payload_length, sizeof(payload_length));
}

// Bytes from the stream's current position to its end, or nullopt when the
// stream can't seek.
std::optional<uint64_t> ProbeRemaining(std::istream& in) {
  const std::streampos cur = in.tellg();
  if (cur == std::streampos(-1)) {
    in.clear();
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(cur);
  if (end == std::streampos(-1) || !in) {
    in.clear();
    in.seekg(cur);
    return std::nullopt;
  }
  return static_cast<uint64_t>(end - cur);
}

}  // namespace

Status WriteEnveloped(std::ostream& out, std::string_view payload) {
  const failpoint::Action act = WMS_FAILPOINT("envelope:write");
  if (act == failpoint::Action::kError) {
    return Status::IOError("injected write failure in snapshot envelope");
  }
  char header[16];
  EncodeHeader(header, payload.size());
  const uint32_t crc = crc32c::Extend(crc32c::Value(header, sizeof(header)),
                                      payload.data(), payload.size());
  out.write(header, sizeof(header));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (act == failpoint::Action::kShortWrite) {
    out.write(payload.data(), static_cast<std::streamsize>(payload.size() / 2));
    out.flush();
    return Status::IOError("injected short write in snapshot envelope");
  }
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) return Status::IOError("write failed in snapshot envelope");
  return Status::OK();
}

Status SectionGuard(std::ostream& out, const char* snapshot_kind, const char* section) {
  const failpoint::Action act = WMS_FAILPOINT("save:section");
  if (act != failpoint::Action::kOff) out.setstate(std::ios::failbit);
  if (!out) {
    return Status::IOError(std::string("write failed in ") + snapshot_kind +
                           " section '" + section + "'");
  }
  return Status::OK();
}

SnapshotReader::SnapshotReader(std::string_view bytes) : mem_(bytes) {}

bool SnapshotReader::ReadExactRaw(char* dst, size_t n) {
  if (remaining() < n) {
    pos_ = mem_.size();
    return false;
  }
  // An empty section (a heap of 0 entries) may pass a null `dst`, and
  // memcpy with a null pointer is undefined even for 0 bytes.
  if (n > 0) std::memcpy(dst, mem_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool SnapshotReader::ReadView(size_t n, std::string_view* view) {
  if (remaining() < n) {
    pos_ = mem_.size();
    return false;
  }
  *view = mem_.substr(pos_, n);
  pos_ += n;
  return true;
}

Result<SnapshotReader> OpenSnapshot(std::istream& in, std::string* payload_storage) {
  char head[4];
  in.read(head, sizeof(head));
  if (!in) return Status::Corruption("truncated snapshot header");
  uint32_t magic;
  std::memcpy(&magic, head, sizeof(magic));
  if (magic != kEnvelopeMagic) return Status::Corruption("not an enveloped snapshot");

  char header[16];
  std::memcpy(header, head, sizeof(head));
  in.read(header + 4, sizeof(header) - 4);
  uint32_t declared_crc = 0;
  in.read(reinterpret_cast<char*>(&declared_crc), sizeof(declared_crc));
  if (!in) return Status::Corruption("truncated snapshot envelope");

  uint32_t version;
  uint64_t length;
  std::memcpy(&version, header + 4, sizeof(version));
  std::memcpy(&length, header + 8, sizeof(length));
  if (version != kEnvelopeVersion) {
    return Status::Corruption("unsupported snapshot envelope version");
  }

  // Bound the declared payload length by the actual stream size *before*
  // allocating: a corrupt header claiming 2^60 bytes must be Corruption,
  // not an allocation attempt. Unseekable streams fall back to chunked
  // reads, so even there over-allocation is bounded to one chunk.
  if (const std::optional<uint64_t> left = ProbeRemaining(in)) {
    if (length > *left) {
      return Status::Corruption("snapshot payload length exceeds stream size");
    }
    payload_storage->reserve(static_cast<size_t>(length));
  }
  payload_storage->clear();
  while (payload_storage->size() < length) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(kReadChunkBytes, length - payload_storage->size()));
    const size_t old_size = payload_storage->size();
    payload_storage->resize(old_size + chunk);
    in.read(payload_storage->data() + old_size, static_cast<std::streamsize>(chunk));
    if (!in) return Status::Corruption("truncated snapshot payload");
  }

  const uint32_t actual_crc =
      crc32c::Extend(crc32c::Value(header, sizeof(header)),
                     payload_storage->data(), payload_storage->size());
  if (actual_crc != declared_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  return SnapshotReader(std::string_view(*payload_storage));
}

}  // namespace wmsketch::snapshot
