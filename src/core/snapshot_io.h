#pragma once

#include <bit>
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
///       20     -  payload: the facade header and the method payload
///
/// The envelope is the only snapshot format loaders accept: its declared
/// length is validated against the *actual* stream size and its checksum
/// verified before any model state is parsed, so every loader check runs on
/// bytes the writer produced or a CRC-valid forgery of them.
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

/// Writes a run of 8-byte (u32, f32) records, the shape of both the heap
/// section's (feature, weight) pairs and a delta's (offset, cell bits)
/// pairs, through a stack buffer: `out` gets one write per chunk of records
/// instead of two per record, and the same (little-endian) bytes. Put()
/// itself never writes to `out`: Drain() does, once a chunk is full, and
/// must be called at least every kBurst Put()s; Flush() after the last.
template <typename Sink>
class PairWriter {
 public:
  static constexpr uint32_t kBurst = 64;

  explicit PairWriter(Sink& out) : out_(out) {}

  /// Appends (first, the bits of second).
  void Put(uint32_t first, float second) {
    buf_[used_++] = (uint64_t{std::bit_cast<uint32_t>(second)} << 32) | first;
  }

  /// Hands a full chunk to the sink.
  void Drain() {
    if (used_ >= kChunkPairs) Flush();
  }

  /// Hands every buffered record to the sink.
  void Flush() {
    if (used_ != 0) WriteBytes(out_, buf_, used_ * sizeof(uint64_t));
    used_ = 0;
  }

 private:
  static constexpr uint32_t kChunkPairs = 256;

  Sink& out_;
  uint64_t buf_[kChunkPairs + kBurst];
  // Not a size_t: a uint64_t store into buf_ cannot alias a uint32_t, so
  // the count stays in a register across Put()s.
  uint32_t used_ = 0;
};

/// The one envelope-header writer, for snapshot files and frames alike:
/// fills header[0, kEnvelopeHeaderBytes) with the magic, the version,
/// `payload`'s length and the CRC32C over those 16 bytes and `payload`.
void WriteEnvelopeHeader(std::string_view payload, char* header);

/// The one envelope parser. Checks the envelope at the front of `bytes` as
/// far as `bytes` holds it, so a reader can reject a bad header before the
/// payload arrives: the magic, the version, a declared payload length of at
/// most `max_length` (named `limit` in the message), and, once `bytes`
/// holds the whole payload, its CRC32C. Corruption, naming `what`
/// ("snapshot", "frame"), at the first field that fails. Otherwise OK, with
/// *total the envelope's size (header and payload) once `bytes` holds the
/// header, and 0 before. Bytes past *total are not read.
Status CheckEnvelope(std::string_view bytes, const char* what, uint64_t max_length,
                     const char* limit, size_t* total);

/// Wraps a fully serialized snapshot payload in the checksummed envelope
/// and writes it to `out`. Failpoint site "envelope:write" can force an
/// IOError or a torn (short) write.
Status WriteEnveloped(std::ostream& out, std::string_view payload);

/// Returns IOError naming the failing section when `out` has entered a
/// failed state (savers call this after every section so a short write
/// surfaces precisely, not as one opaque failure at the end). Failpoint
/// site "save:section" forces the failure.
Status SectionGuard(std::ostream& out, const char* snapshot_kind, const char* section);

/// The single parsing surface for snapshot and frame loaders: serves bytes
/// from an in-memory buffer (a verified envelope payload or a received
/// frame) and answers CanRead() so loaders bound declared sizes *before*
/// allocating.
class SnapshotReader {
 public:
  /// Reader over `bytes`, which must outlive it.
  explicit SnapshotReader(std::string_view bytes);

  /// Reads sizeof(T) bytes into `*value`; false on truncation.
  template <typename T>
  bool ReadRaw(T* value) {
    return ReadExactRaw(reinterpret_cast<char*>(value), sizeof(T));
  }

  /// Reads exactly `n` bytes into `dst`; false on truncation.
  bool ReadExactRaw(char* dst, size_t n);

  /// Consumes the next `n` bytes and points `*view` at them in place, with
  /// no copy; false on truncation.
  bool ReadView(size_t n, std::string_view* view);

  /// Bytes left.
  uint64_t remaining() const { return mem_.size() - pos_; }

  /// True when `count` elements of `elem_size` bytes may still follow. The
  /// pre-allocation guard every loader must pass before resizing to a
  /// declared size.
  bool CanRead(uint64_t count, size_t elem_size) const {
    return elem_size == 0 || count <= remaining() / elem_size;
  }

 private:
  std::string_view mem_;
  size_t pos_ = 0;
};

/// Validates the enveloped snapshot `bytes` holds (magic, version, a
/// declared payload length that `bytes` covers, the CRC32C) and returns a
/// reader over its payload, in place: no copy. The reader must not outlive
/// `bytes`. Input that does not start with the envelope magic is
/// Corruption. Bytes after the payload are not read.
Result<SnapshotReader> OpenSnapshot(std::string_view bytes);

/// Reads one enveloped snapshot from `in` into `*bytes` (header and
/// payload) for OpenSnapshot to validate. The declared payload length is
/// bounded against the actual stream size before anything is allocated (a
/// header claiming 2^60 bytes is Corruption, not OOM), and the payload is
/// read in bounded chunks. Input that does not start with the envelope
/// magic is Corruption.
Status ReadEnvelope(std::istream& in, std::string* bytes);

}  // namespace wmsketch::snapshot
