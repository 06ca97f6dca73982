// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum used by the page-frame headers to detect bit rot and torn
// writes. Every device read and write checksums a whole frame, so once an
// index outgrows its buffer pool this is on the hot path of every
// operation. Crc32c therefore uses the SSE4.2 `crc32` instruction, eight
// bytes per step, when the CPU has it (checked once at run time), and a
// table-driven byte loop otherwise. Both compute the same checksum.

#ifndef REXP_COMMON_CRC32C_H_
#define REXP_COMMON_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define REXP_CRC32C_X86 1
#endif

namespace rexp {

namespace internal {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

// The portable path: one table lookup per byte.
inline uint32_t Crc32cTable(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef REXP_CRC32C_X86

// Whether the CPU executes the SSE4.2 crc32 instruction.
inline bool HaveHwCrc32c() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}

// The hardware path: 8 bytes per crc32 step, then the tail bytewise.
// Callable only when HaveHwCrc32c().
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHw(
    const uint8_t* data, size_t n, uint32_t seed) {
  uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}

#else

inline bool HaveHwCrc32c() { return false; }

inline uint32_t Crc32cHw(const uint8_t* data, size_t n, uint32_t seed) {
  return Crc32cTable(data, n, seed);
}

#endif  // REXP_CRC32C_X86

}  // namespace internal

// CRC-32C of `data[0, n)`, continuing from `seed` (pass the result of a
// previous call to checksum discontiguous buffers as one stream).
inline uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
  return internal::HaveHwCrc32c() ? internal::Crc32cHw(data, n, seed)
                                  : internal::Crc32cTable(data, n, seed);
}

}  // namespace rexp

#endif  // REXP_COMMON_CRC32C_H_
