#include "util/crc32c.h"

#include <array>
#include <atomic>
#include <cstring>

// Like src/util/simd.cc: the hardware kernel is compiled with a per-function
// target attribute, so one binary carries both paths and picks per-process
// via cpuid. A machine without SSE4.2 (or a WMS_SIMD=OFF build) runs the
// scalar slicing-by-8 fallback of the very same build.
#if defined(WMS_SIMD) && (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define WMS_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace wmsketch::crc32c {

namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // t[0] is the classic byte-at-a-time table; t[1..7] extend it so eight
  // input bytes fold in one step (slicing-by-8).
  uint32_t t[8][256];
};

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (int slice = 1; slice < 8; ++slice) {
      crc = tables.t[0][crc & 0xff] ^ (crc >> 8);
      tables.t[slice][i] = crc;
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Scalar slicing-by-8. `state` is the raw (non-finalized) CRC register.
uint32_t Crc32cScalar(uint32_t state, const uint8_t* p, size_t n) {
  const auto& t = kTables.t;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    state = t[0][(state ^ *p++) & 0xff] ^ (state >> 8);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= state;
    state = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
            t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
            t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
            t[1][(word >> 48) & 0xff] ^ t[0][(word >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    state = t[0][(state ^ *p++) & 0xff] ^ (state >> 8);
    --n;
  }
  return state;
}

#ifdef WMS_CRC32C_X86

// Hardware kernel: one crc32q per eight bytes. Registered in the
// simd-paired coverage table (tests/hash_plan_test.cc); the paired test
// proves bit-identity with Crc32cScalar on every length/alignment class.
__attribute__((target("sse4.2")))
uint32_t Crc32cSse42(uint32_t state, const uint8_t* p, size_t n) {
  uint64_t crc = state;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  return static_cast<uint32_t>(crc);
}

#endif  // WMS_CRC32C_X86

bool CpuHasSse42() {
#ifdef WMS_CRC32C_X86
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

// Relaxed for the same reason as simd.cc's g_enabled: both paths compute
// identical results, so the flag itself is the only shared state.
std::atomic<bool> g_enabled{CpuHasSse42()};

}  // namespace

bool HardwareAvailable() { return CpuHasSse42(); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled && CpuHasSse42(), std::memory_order_relaxed);
}

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t state = crc ^ 0xffffffffu;
#ifdef WMS_CRC32C_X86
  if (g_enabled.load(std::memory_order_relaxed)) {
    return Crc32cSse42(state, p, n) ^ 0xffffffffu;
  }
#endif
  return Crc32cScalar(state, p, n) ^ 0xffffffffu;
}

}  // namespace wmsketch::crc32c
