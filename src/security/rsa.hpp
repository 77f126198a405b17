// RSA keypairs, PKCS#1-v1.5-style SHA-256 signatures, and raw encryption
// (used for the TLS-lite key exchange).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "security/bignum.hpp"
#include "security/sha256.hpp"

namespace gs::security {

struct RsaPublicKey {
  BigUint n;  // modulus
  BigUint e;  // public exponent

  size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  BigUint d;  // private exponent
  // The CRT form of d that signing and decryption use: the primes, d mod
  // (p-1), d mod (q-1) and q^-1 mod p.
  BigUint p, q, dp, dq, qinv;

  /// Generates a keypair with a `bits`-bit modulus. `rng` is the entropy
  /// source; pass a fixed-seed generator for reproducible test fixtures.
  static RsaKeyPair generate(size_t bits, std::mt19937_64& rng);
};

/// Signs a SHA-256 digest: EMSA-PKCS1-v1_5-shaped padding, then RSA-d by
/// the Chinese remainder theorem.
std::vector<std::uint8_t> rsa_sign(const RsaKeyPair& key, const Digest256& digest);

/// Verifies a signature over a SHA-256 digest.
bool rsa_verify(const RsaPublicKey& key, const Digest256& digest,
                std::span<const std::uint8_t> signature);

/// Raw RSA encryption of a short secret (must be shorter than the modulus).
/// Used for the TLS-lite pre-master-secret exchange.
std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext);
std::vector<std::uint8_t> rsa_decrypt(const RsaKeyPair& key,
                                      std::span<const std::uint8_t> ciphertext);

}  // namespace gs::security
