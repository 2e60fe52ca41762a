#include "util/crc32.h"

#include <array>

namespace qnn {
namespace {

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

bool clmul_supported() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool supported = crc32_clmul_built() &&
                                __builtin_cpu_supports("pclmul") &&
                                __builtin_cpu_supports("sse4.1");
  return supported;
#else
  return false;
#endif
}

}  // namespace

std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  return clmul_supported() ? crc32_clmul(data, size, seed)
                           : crc32_table(data, size, seed);
}

const char* crc32_kernel() { return clmul_supported() ? "clmul" : "table"; }

}  // namespace qnn
