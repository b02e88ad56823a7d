#include "qpwm/util/hash.h"

namespace qpwm {
namespace {

inline uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

inline void SipRound(uint64_t& v0, uint64_t& v1, uint64_t& v2, uint64_t& v3) {
  v0 += v1;
  v1 = Rotl(v1, 13);
  v1 ^= v0;
  v0 = Rotl(v0, 32);
  v2 += v3;
  v3 = Rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = Rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = Rotl(v1, 17);
  v1 ^= v2;
  v2 = Rotl(v2, 32);
}

inline uint64_t ReadLe64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // Little-endian hosts only (x86-64 / aarch64 targets).
}

}  // namespace

PrfKey PrfKey::Derive(uint64_t purpose) const {
  // Feed the purpose tag through the PRF itself to get an independent subkey.
  uint64_t a = SipHash24(*this, &purpose, sizeof(purpose));
  uint64_t b = purpose ^ 0xA5A5A5A5A5A5A5A5ULL;
  uint64_t c = SipHash24(*this, &b, sizeof(b));
  return PrfKey{a, c};
}

uint64_t SipHash24(const PrfKey& key, const void* data, size_t len) {
  const auto* in = static_cast<const unsigned char*>(data);
  uint64_t v0 = 0x736F6D6570736575ULL ^ key.k0;
  uint64_t v1 = 0x646F72616E646F6DULL ^ key.k1;
  uint64_t v2 = 0x6C7967656E657261ULL ^ key.k0;
  uint64_t v3 = 0x7465646279746573ULL ^ key.k1;

  const size_t end = len - (len % 8);
  for (size_t i = 0; i < end; i += 8) {
    uint64_t m = ReadLe64(in + i);
    v3 ^= m;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    v0 ^= m;
  }

  uint64_t b = static_cast<uint64_t>(len) << 56;
  for (size_t i = end; i < len; ++i) {
    b |= static_cast<uint64_t>(in[i]) << (8 * (i - end));
  }
  v3 ^= b;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= b;

  v2 ^= 0xFF;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

uint64_t Prf(const PrfKey& key, const std::vector<uint64_t>& words) {
  return SipHash24(key, words.data(), words.size() * sizeof(uint64_t));
}

uint64_t Prf(const PrfKey& key, uint64_t word) {
  return SipHash24(key, &word, sizeof(word));
}

uint64_t Prf(const PrfKey& key, std::string_view s) {
  return SipHash24(key, s.data(), s.size());
}

}  // namespace qpwm
