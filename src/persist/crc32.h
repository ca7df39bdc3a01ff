#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace riptide::persist {

// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320) — the checksum
// zlib's crc32() computes, so the run fingerprints built on it (the golden
// CRC, chaos and perfbench fingerprints) can be recomputed with stock
// tooling. crc32("123456789") == 0xCBF43926.
//
// `seed` chains incremental computations: crc32(b, crc32(a)) ==
// crc32(a + b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace riptide::persist
