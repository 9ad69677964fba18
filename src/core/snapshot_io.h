#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "util/status.h"

namespace wmsketch::snapshot {

/// The checksummed snapshot envelope and the bounded reader every snapshot
/// loader parses through.
///
/// Envelope layout (little-endian, 20-byte header):
///
///   offset  size  field
///        0     4  magic "WMS3" (0x33534d57)
///        4     4  envelope version (3)
///        8     8  payload length in bytes
///       16     4  CRC32C over header[0..16) + payload
///       20     -  payload: the v1/v2 snapshot stream (method or facade
///                 header included), unchanged
///
/// Loaders sniff the leading magic: enveloped streams get their declared
/// length validated against the *actual* stream size and their checksum
/// verified before any model state is parsed; v1/v2 unwrapped streams (the
/// pre-envelope formats) parse directly, so old snapshots keep loading.
///
/// All raw stream I/O in the serialization paths lives here — the
/// `checked-io` lint rule (tools/lint/wms_lint.py) forbids naked
/// `.read(`/`.write(` calls in serialization.cc / learner.cc /
/// checkpoint.cc so size-validation can't be bypassed by accident.

inline constexpr uint32_t kEnvelopeMagic = 0x33534d57;  // "WMS3"
inline constexpr uint32_t kEnvelopeVersion = 3;
inline constexpr size_t kEnvelopeHeaderBytes = 20;

/// Absolute sanity cap on declared heap/active-set/tracked capacities.
/// Capacity fields size allocations that are not stream-backed (an empty
/// heap with capacity k is legal and occupies no stream bytes), so they
/// cannot be bounded by remaining bytes; this cap keeps a corrupt header
/// from turning into a multi-gigabyte allocation. 2^24 entries is orders of
/// magnitude beyond any budgeted configuration (budgets are KBs to MBs).
inline constexpr uint64_t kMaxDeclaredCapacity = uint64_t{1} << 24;

/// Fallback bound for stream-backed data when the stream cannot report its
/// size (unseekable legacy input): a declared array larger than this is
/// rejected rather than allocated. Enveloped snapshots never hit this —
/// their payload is fully length- and CRC-validated in memory.
inline constexpr uint64_t kUnseekableStreamBound = uint64_t{1} << 31;

/// Writes `value`'s object representation to `out`.
template <typename T>
inline void WriteRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Writes `n` raw bytes to `out`.
inline void WriteBytes(std::ostream& out, const void* data, size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

/// The string-appending writer: the same bytes as the stream overloads,
/// appended to a buffer that the caller sends whole and reuses (the sync
/// frames of src/dist/). Appending cannot fail, so there is no state to
/// guard.
template <typename T>
inline void WriteRaw(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Appends `n` raw bytes to `out`.
inline void WriteBytes(std::string& out, const void* data, size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Wraps a fully serialized snapshot payload in the checksummed envelope
/// and writes it to `out`. Failpoint site "envelope:write" can force an
/// IOError or a torn (short) write.
Status WriteEnveloped(std::ostream& out, std::string_view payload);

/// Returns IOError naming the failing section when `out` has entered a
/// failed state (savers call this after every section so a short write
/// surfaces precisely, not as one opaque failure at the end). Failpoint
/// site "save:section" forces the failure.
Status SectionGuard(std::ostream& out, const char* snapshot_kind, const char* section);

/// The single parsing surface for snapshot loaders: serves bytes either
/// from a verified in-memory envelope payload (remaining() exact) or from a
/// legacy stream (remaining() probed via seek when the stream supports it),
/// and answers CanRead() so loaders bound declared sizes *before*
/// allocating.
class SnapshotReader {
 public:
  /// Memory-backed reader over a verified envelope payload.
  explicit SnapshotReader(std::string_view bytes);

  /// Stream-backed reader for legacy unwrapped snapshots. `pushback` (the
  /// sniffed magic) is re-served before stream bytes.
  SnapshotReader(std::istream& in, std::string_view pushback);

  SnapshotReader(SnapshotReader&&) noexcept = default;
  SnapshotReader& operator=(SnapshotReader&&) noexcept = default;

  /// Reads sizeof(T) bytes into `*value`; false on truncation.
  template <typename T>
  bool ReadRaw(T* value) {
    return ReadExactRaw(reinterpret_cast<char*>(value), sizeof(T));
  }

  /// Reads exactly `n` bytes into `dst`; false on truncation.
  bool ReadExactRaw(char* dst, size_t n);

  /// Consumes the next `n` bytes and points `*view` at them in place, with
  /// no copy. Memory-backed readers only: false on truncation and always
  /// for a stream-backed reader.
  bool ReadView(size_t n, std::string_view* view);

  /// True when the byte count left in the source is known exactly.
  bool remaining_known() const { return remaining_known_; }
  /// Bytes left (meaningful only when remaining_known()).
  uint64_t remaining() const { return remaining_; }

  /// True when `count` elements of `elem_size` bytes may still follow:
  /// bounded by remaining() when known, by kUnseekableStreamBound
  /// otherwise. The pre-allocation guard every loader must pass before
  /// resizing to a declared size.
  bool CanRead(uint64_t count, size_t elem_size) const {
    const uint64_t bound = remaining_known_ ? remaining_ : kUnseekableStreamBound;
    return elem_size == 0 || count <= bound / elem_size;
  }

 private:
  std::istream* in_ = nullptr;
  std::string pushback_;
  size_t pushback_pos_ = 0;
  std::string_view mem_;
  size_t mem_pos_ = 0;
  bool remaining_known_ = false;
  uint64_t remaining_ = 0;
};

/// Sniffs `in` and returns a reader over the snapshot bytes. Enveloped
/// input: validates version, bounds the declared payload length against the
/// actual stream size before allocating (a header claiming 2^60 bytes is
/// Corruption, not OOM), reads the payload into `*payload_storage` in
/// bounded chunks, and verifies the CRC32C — the returned reader serves the
/// verified payload, which must not outlive `*payload_storage`. Legacy
/// v1/v2 input: returns a stream-backed reader with the sniffed magic
/// pushed back.
Result<SnapshotReader> OpenSnapshot(std::istream& in, std::string* payload_storage);

}  // namespace wmsketch::snapshot
