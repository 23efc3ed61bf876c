#ifndef HETKG_COMMON_CRC32_INTERNAL_H_
#define HETKG_COMMON_CRC32_INTERNAL_H_

// The two bodies behind Crc32Update (common/crc32.h), exposed so tests
// and micro benchmarks can run each one directly. Production code calls
// Crc32Update, which picks a body once per process from the CPU.

#include <cstddef>
#include <cstdint>

namespace hetkg::crc32_internal {

/// Slicing-by-8 over 8x256 tables: the body on every host, and the
/// tail of the folding body. Same state convention as Crc32Update.
uint32_t UpdatePortable(uint32_t crc, const void* data, size_t size);

#if defined(__x86_64__)
/// True when the CPU has PCLMULQDQ and SSE4.1, which UpdateFolding
/// needs.
bool CpuHasFolding();

/// PCLMULQDQ folding over the whole 16-byte blocks of inputs of 64
/// bytes or more; the rest, and shorter inputs, go through
/// UpdatePortable. Call only when CpuHasFolding().
uint32_t UpdateFolding(uint32_t crc, const void* data, size_t size);
#endif

}  // namespace hetkg::crc32_internal

#endif  // HETKG_COMMON_CRC32_INTERNAL_H_
