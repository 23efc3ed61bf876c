#ifndef HETKG_COMMON_CRC32_H_
#define HETKG_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hetkg {

/// IEEE CRC-32 (polynomial 0xEDB88320 reflected, init and xorout
/// 0xFFFFFFFF: the zlib/PNG variant). Detects any single-byte
/// corruption of a checkpoint payload, unlike the order-sensitive XOR
/// fold the HETKGCK1 format used (which a pair of compensating flips
/// could defeat).
///
/// On x86-64 CPUs with PCLMULQDQ and SSE4.1 the bulk of each buffer is
/// folded with carry-less multiplies; elsewhere, and for short inputs
/// and tails, slicing-by-8 tables. The body is picked once per process
/// and both give the same value (common/crc32_internal.h).
///
/// `Crc32(data, size)` checksums one buffer; the Update form chains
/// over multiple buffers:
///   uint32_t crc = Crc32Init();
///   crc = Crc32Update(crc, a, na);
///   crc = Crc32Update(crc, b, nb);
///   crc = Crc32Finish(crc);
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);
uint32_t Crc32Finish(uint32_t crc);
uint32_t Crc32(const void* data, size_t size);

}  // namespace hetkg

#endif  // HETKG_COMMON_CRC32_H_
