// FNV-1a 64-bit, the one copy in the tree (ngdlint's fnv-duplicate rule
// rejects another): the checksum of the binary snapshot sections
// (NGDSNAP1), the update journal (NGDWAL1) and the violation spill
// segments (NGDVSEG1), plus the Σ-cache key (FingerprintSigma) and the
// snapshot fingerprint.
// Not cryptographic — it detects torn writes and bit rot, not
// adversaries.

#ifndef NGD_UTIL_HASH_H_
#define NGD_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace ngd {

inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

inline uint64_t Fnv1a64(const void* data, size_t n,
                        uint64_t h = kFnv1aOffset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace ngd

#endif  // NGD_UTIL_HASH_H_
