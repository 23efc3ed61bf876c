#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace hetkg {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] is the CRC state after
/// byte b followed by k zero bytes, so one 8-byte step is eight lookups.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

// Built at compile time: no lazy initialization for threads to race on.
constexpr Tables kTables = BuildTables();

#if defined(__x86_64__)
/// PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
/// bit-reflected domain. `size` is a multiple of 16 and at least 64.
/// Four 128-bit lanes advance 64 bytes per step, are folded into one,
/// that one absorbs the remaining 16-byte blocks, and a Barrett
/// reduction takes the last 64 bits down to the 32-bit state.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldBlocks(
    uint32_t crc, const uint8_t* p, size_t size) {
  // Reflected x^k mod P (shifted left one bit) for fold distances of
  // 512+32 / 512-32 bits (k1/k2), 128+32 / 128-32 bits (k3/k4) and 64
  // bits (k5); then P itself and the Barrett quotient mu = x^64 / P.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  const auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // a.lo * k.lo + a.hi * k.hi. A macro, not a helper: a helper would
  // need the target attribute too.
#define HETKG_CRC_FOLD(a, k)                          \
  _mm_xor_si128(_mm_clmulepi64_si128((a), (k), 0x00), \
                _mm_clmulepi64_si128((a), (k), 0x11))

  // Folding by k1/k2 moves a lane 512 bits on, past the next 64 bytes.
  __m128i lane[4];
  for (int i = 0; i < 4; ++i) lane[i] = load(p + 16 * i);
  lane[0] = _mm_xor_si128(lane[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    for (int i = 0; i < 4; ++i) {
      lane[i] = _mm_xor_si128(HETKG_CRC_FOLD(lane[i], k1k2), load(p + 16 * i));
    }
  }
  // Folding by k3/k4 moves 128 bits on: lanes 1-3, then every remaining
  // 16-byte block, join lane 0.
  __m128i x = lane[0];
  for (int i = 1; i < 4; ++i) {
    x = _mm_xor_si128(HETKG_CRC_FOLD(x, k3k4), lane[i]);
  }
  for (; size >= 16; p += 16, size -= 16) {
    x = _mm_xor_si128(HETKG_CRC_FOLD(x, k3k4), load(p));
  }
#undef HETKG_CRC_FOLD

  // 128 -> 96 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett: q = (x mod x^32) * mu, then x ^= (q mod x^32) * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}
#endif

}  // namespace

namespace crc32_internal {

uint32_t UpdatePortable(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    word ^= crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
bool CpuHasFolding() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

uint32_t UpdateFolding(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  if (size >= 64) {
    const size_t blocks = size & ~size_t{15};
    crc = FoldBlocks(crc, p, blocks);
    p += blocks;
    size -= blocks;
  }
  return UpdatePortable(crc, p, size);
}
#endif

}  // namespace crc32_internal

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
#if defined(__x86_64__)
  // A function-local static is initialized exactly once even when the
  // heartbeat thread and the main thread make their first calls
  // together.
  static const bool folding = crc32_internal::CpuHasFolding();
  if (folding) return crc32_internal::UpdateFolding(crc, data, size);
#endif
  return crc32_internal::UpdatePortable(crc, data, size);
}

uint32_t Crc32Finish(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finish(Crc32Update(Crc32Init(), data, size));
}

}  // namespace hetkg
