#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aurora::crc32c {

namespace {

// Table generated at compile time from the Castagnoli polynomial (reflected
// form 0x82F63B78).
struct Table {
  std::array<uint32_t, 256> t;
  constexpr Table() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
  }
};

constexpr Table kTable;

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the same reflected Castagnoli CRC as the table, 8
// bytes per instruction. Unaligned words are read through memcpy, which
// compiles to a plain load.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Picks the implementation on first use (which may precede main, so the CPU
// feature probe is initialized explicitly). Both candidates produce the same
// bits; the choice is visible only in speed.
ExtendFn Implementation() {
  static const ExtendFn fn = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
    return &internal::ExtendPortable;
  }();
  return fn;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable.t[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool HardwareAvailable() { return Implementation() != &ExtendPortable; }

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return Implementation()(init_crc, data, n);
}

}  // namespace aurora::crc32c
