#pragma once

#include <cstddef>
#include <cstdint>

namespace wmsketch::crc32c {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum used
/// by the snapshot envelope (core/snapshot_io.h). Two implementations ship
/// in one binary, following the util/simd.h pattern exactly: a hardware
/// kernel built on the SSE4.2 `crc32` instruction with a per-function target
/// attribute (no global -msse4.2), and a scalar slicing-by-8 fallback. The
/// process picks one via cpuid at startup; both are bit-identical for every
/// input (enforced by the simd-paired coverage table in hash_plan_test).
///
/// Convention: values are *finalized* CRCs (init 0xFFFFFFFF, final xor), so
/// Extend composes over concatenation: Extend(Extend(0, a), b) == Value(ab).

/// The CRC32C of `data[0, n)` continued from a previous finalized `crc`.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// The CRC32C of `data[0, n)`.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

/// True when the CPU exposes the SSE4.2 crc32 instruction (and the build
/// carries the hardware kernel).
bool HardwareAvailable();

/// Whether the hardware kernel is in use. Starts as HardwareAvailable();
/// only SetEnabled changes it.
bool Enabled();

/// Forces the scalar path (`false`) or re-enables hardware (`true`, ignored
/// without HardwareAvailable()). Test/bench hook for the bit-identity suite.
void SetEnabled(bool enabled);

}  // namespace wmsketch::crc32c
