// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — used to
// validate parameter snapshots and sweep checkpoints against torn writes
// and bit rot, and by the serve corruption audit, which re-CRCs a
// lane's whole float parameter image on every published batch
// (DESIGN.md §13). Matches zlib's crc32, so external tools can verify
// files.
//
// Two paths compute the same value. crc32() checks once whether the
// carry-less-multiply unit (util/crc32_clmul.cc) was built and the CPU
// has PCLMULQDQ + SSE4.1; if so it folds the 16-byte-multiple body of
// every buffer of 64 bytes or more and finishes the tail with the
// byte-at-a-time table loop. Short buffers and other CPUs run the table
// loop alone. There is no switch: both paths return identical values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qnn {

// Streaming form: feed `seed` the previous return value to continue a
// running checksum (start from 0).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

// The two paths behind crc32(), for tests and micro_bench. The table
// loop is portable. crc32_clmul runs the folding path and may only be
// called where crc32_kernel() names "clmul".
std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed = 0);
std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed = 0);

// Whether util/crc32_clmul.cc was compiled with its ISA flags.
bool crc32_clmul_built();

// The path crc32() takes on this machine: "clmul" or "table".
const char* crc32_kernel();

}  // namespace qnn
