// Hashing utilities: unkeyed combiners for hash tables / canonical-form
// fingerprints, and SipHash-2-4 as the keyed PRF the watermarking schemes use
// for secret, reproducible selections (Agrawal-Kiernan tuple selection, pair
// ordering). SipHash is implemented from the reference description; it is a
// PRF under a secret 128-bit key, which matches the "limited knowledge"
// attacker assumption.
#ifndef QPWM_UTIL_HASH_H_
#define QPWM_UTIL_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace qpwm {

/// Mixes a 64-bit value into a running hash (boost::hash_combine style,
/// 64-bit variant).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  seed ^= v + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4);
  return seed * 0xFF51AFD7ED558CCDULL;
}

/// FNV-1a over arbitrary bytes.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) { return HashBytes(s.data(), s.size()); }

/// 128-bit secret key for the keyed PRF.
struct PrfKey {
  uint64_t k0 = 0;
  uint64_t k1 = 0;

  /// Derives a subkey for an independent purpose (domain separation).
  PrfKey Derive(uint64_t purpose) const;
};

/// SipHash-2-4 of a byte string under `key`.
uint64_t SipHash24(const PrfKey& key, const void* data, size_t len);

/// Keyed PRF over a sequence of 64-bit words (tuple ids, element ids...).
uint64_t Prf(const PrfKey& key, const std::vector<uint64_t>& words);

/// The PRF of a single word: equal to Prf(key, std::vector<uint64_t>{word}),
/// without the allocation (hot per-candidate seeding).
uint64_t Prf(const PrfKey& key, uint64_t word);

/// Keyed PRF of a string (e.g. a relational primary key rendered as text).
uint64_t Prf(const PrfKey& key, std::string_view s);

}  // namespace qpwm

#endif  // QPWM_UTIL_HASH_H_
