// SHA-256, HMAC-SHA256 and a simplified HKDF. Implemented from scratch for
// the ACE secure-channel substitution of the paper's SSL layer (§3.1).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace ace::crypto {

using Digest = std::array<std::uint8_t, 32>;

// Copyable hash state: 32 bytes of chaining value, the partial block and
// the message length (104 bytes), so a state taken after a prefix is a
// reusable midstate.
class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t n);
  void update(const util::Bytes& b) { update(b.data(), b.size()); }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  Digest finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;  // total_len_ % 64 bytes pending
  std::uint64_t total_len_ = 0;
};

Digest sha256(const util::Bytes& data);
Digest sha256(std::string_view data);

// HMAC-SHA256 (RFC 2104) with the key absorbed once: the inner and outer
// hash states after the key's ipad and opad blocks are kept, so each mac()
// copies two midstates and runs the message's compressions plus one,
// with no heap allocation. One instance per key; mac() is const and may
// run concurrently.
class HmacSha256 {
 public:
  HmacSha256();  // keyed with the empty key
  HmacSha256(const std::uint8_t* key, std::size_t n);
  explicit HmacSha256(const util::Bytes& key)
      : HmacSha256(key.data(), key.size()) {}

  Digest mac(const std::uint8_t* message, std::size_t n) const;
  Digest mac(const util::Bytes& message) const {
    return mac(message.data(), message.size());
  }

 private:
  Sha256 inner_;
  Sha256 outer_;
};

Digest hmac_sha256(const util::Bytes& key, const util::Bytes& message);
// Range form, for MACing a prefix of a buffer without copying it out.
Digest hmac_sha256(const util::Bytes& key, const std::uint8_t* message,
                   std::size_t n);

// Compares n bytes in time independent of where they differ, for checking
// MAC tags and authenticators without leaking the matching prefix length.
bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n);

// HKDF-style key derivation: extract with `salt`, expand `length` bytes of
// output keyed material labelled by `info`.
util::Bytes hkdf(const util::Bytes& salt, const util::Bytes& ikm,
                 std::string_view info, std::size_t length);

util::Bytes digest_bytes(const Digest& d);

}  // namespace ace::crypto
