#include "core/snapshot_io.h"

#include <algorithm>
#include <cstdint>
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

void WriteEnvelopeHeader(std::string_view payload, char* header) {
  const uint32_t magic = kEnvelopeMagic;
  const uint32_t version = kEnvelopeVersion;
  const uint64_t length = payload.size();
  std::memcpy(header + 0, &magic, sizeof(magic));
  std::memcpy(header + 4, &version, sizeof(version));
  std::memcpy(header + 8, &length, sizeof(length));
  const uint32_t crc = crc32c::Extend(crc32c::Value(header, 16), payload.data(), payload.size());
  std::memcpy(header + 16, &crc, sizeof(crc));
}

Status CheckEnvelope(std::string_view bytes, const char* what, uint64_t max_length,
                     const char* limit, size_t* total) {
  *total = 0;
  if (bytes.size() < 4) return Status::OK();
  uint32_t field;
  std::memcpy(&field, bytes.data(), sizeof(field));
  if (field != kEnvelopeMagic) return Status::Corruption(std::string("not an enveloped ") + what);
  if (bytes.size() < 8) return Status::OK();
  std::memcpy(&field, bytes.data() + 4, sizeof(field));
  if (field != kEnvelopeVersion) {
    return Status::Corruption(std::string("unsupported ") + what + " envelope version");
  }
  if (bytes.size() < kEnvelopeHeaderBytes) return Status::OK();
  uint64_t length;
  std::memcpy(&length, bytes.data() + 8, sizeof(length));
  if (length > std::min<uint64_t>(max_length, SIZE_MAX - kEnvelopeHeaderBytes)) {
    return Status::Corruption(std::string(what) + " payload length exceeds " + limit);
  }
  *total = kEnvelopeHeaderBytes + static_cast<size_t>(length);
  if (bytes.size() < *total) return Status::OK();
  std::memcpy(&field, bytes.data() + 16, sizeof(field));
  const uint32_t crc = crc32c::Extend(crc32c::Value(bytes.data(), 16),
                                      bytes.data() + kEnvelopeHeaderBytes, length);
  if (crc != field) return Status::Corruption(std::string(what) + " checksum mismatch");
  return Status::OK();
}

Status WriteEnveloped(std::ostream& out, std::string_view payload) {
  const failpoint::Action act = WMS_FAILPOINT("envelope:write");
  if (act == failpoint::Action::kError) {
    return Status::IOError("injected write failure in snapshot envelope");
  }
  char header[kEnvelopeHeaderBytes];
  WriteEnvelopeHeader(payload, header);
  out.write(header, sizeof(header));
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

Result<SnapshotReader> OpenSnapshot(std::string_view bytes) {
  if (bytes.size() < 4) return Status::Corruption("truncated snapshot header");
  size_t total = 0;
  WMS_RETURN_NOT_OK(CheckEnvelope(bytes, "snapshot",
                                  bytes.size() - std::min(bytes.size(), kEnvelopeHeaderBytes),
                                  "the bytes given", &total));
  if (total == 0) return Status::Corruption("truncated snapshot envelope");
  return SnapshotReader(bytes.substr(kEnvelopeHeaderBytes, total - kEnvelopeHeaderBytes));
}

Status ReadEnvelope(std::istream& in, std::string* bytes) {
  bytes->resize(kEnvelopeHeaderBytes);
  in.read(bytes->data(), 4);
  if (!in) return Status::Corruption("truncated snapshot header");
  size_t total = 0;
  WMS_RETURN_NOT_OK(
      CheckEnvelope(std::string_view(*bytes).substr(0, 4), "snapshot", 0, "", &total));
  in.read(bytes->data() + 4, kEnvelopeHeaderBytes - 4);
  if (!in) return Status::Corruption("truncated snapshot envelope");

  // Bound the declared payload length by the actual stream size *before*
  // allocating: a corrupt header claiming 2^60 bytes must be Corruption,
  // not an allocation attempt. Unseekable streams fall back to chunked
  // reads, so even there over-allocation is bounded to one chunk.
  const std::optional<uint64_t> left = ProbeRemaining(in);
  WMS_RETURN_NOT_OK(
      CheckEnvelope(*bytes, "snapshot", left.value_or(UINT64_MAX), "stream size", &total));
  if (left.has_value()) bytes->reserve(total);
  while (bytes->size() < total) {
    const size_t chunk = std::min(kReadChunkBytes, total - bytes->size());
    const size_t old_size = bytes->size();
    bytes->resize(old_size + chunk);
    in.read(bytes->data() + old_size, static_cast<std::streamsize>(chunk));
    if (!in) return Status::Corruption("truncated snapshot payload");
  }
  return Status::OK();
}

}  // namespace wmsketch::snapshot
