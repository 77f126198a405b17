// Arbitrary-precision unsigned integers and modular arithmetic for RSA.
//
// Little-endian 64-bit limbs with 128-bit products, schoolbook
// multiplication, word-level (Knuth D) division, and windowed Montgomery
// exponentiation whose products run in one caller-owned scratch buffer, so
// an exponentiation allocates a fixed number of times whatever the
// exponent's length. The Montgomery product is one template on the limb
// count, instantiated at 8 and 16 limbs (the 512-bit primes and 1024-bit
// moduli of the paper's WSE X.509 profile) and run-time sized otherwise.
//
// Key generation draws exactly what the original 32-bit code
// (tests/bignum_reference.hpp) draws: every seed gives the same keys and
// leaves the generator in the same state. is_probable_prime trial-divides
// by the odd primes below 4096, one limb division per run of primes. A
// factor up to 47 rejects before any draw, as the original's 15-prime
// trial division does. A larger factor q is used after each round's base a
// is drawn: a base that passes the round has a^(n-1) = 1 (mod n), so a base
// with a^((n-1) mod (q-1)) != 1 (mod q) is a witness, found in one-limb
// arithmetic. Otherwise the round runs in full, on one Montgomery context
// shared by every round.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gs::security {

class BigUint {
 public:
  BigUint() = default;
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal init

  /// Big-endian byte import/export (minimal-length export).
  static BigUint from_bytes(std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> to_bytes() const;

  /// Linear in the digit count; throws std::invalid_argument on a non-hex
  /// digit.
  static BigUint from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t bit_length() const noexcept;
  bool bit(size_t i) const noexcept;

  int compare(const BigUint& other) const noexcept;
  friend bool operator==(const BigUint& a, const BigUint& b) {
    return a.compare(b) == 0;
  }
  friend bool operator<(const BigUint& a, const BigUint& b) {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const BigUint& a, const BigUint& b) {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const BigUint& a, const BigUint& b) {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const BigUint& a, const BigUint& b) {
    return a.compare(b) >= 0;
  }
  friend bool operator!=(const BigUint& a, const BigUint& b) {
    return a.compare(b) != 0;
  }

  friend BigUint operator+(const BigUint& a, const BigUint& b);
  /// Requires a >= b; throws std::underflow_error otherwise.
  friend BigUint operator-(const BigUint& a, const BigUint& b);
  friend BigUint operator*(const BigUint& a, const BigUint& b);
  BigUint operator<<(size_t bits) const;
  BigUint operator>>(size_t bits) const;

  /// {quotient, remainder}; throws std::domain_error on division by zero.
  static std::pair<BigUint, BigUint> divmod(const BigUint& a, const BigUint& b);
  friend BigUint operator/(const BigUint& a, const BigUint& b) {
    return divmod(a, b).first;
  }
  friend BigUint operator%(const BigUint& a, const BigUint& b) {
    return divmod(a, b).second;
  }

  /// base^exp mod modulus. Uses windowed Montgomery exponentiation when the
  /// modulus is odd (the RSA case), plain square-and-multiply otherwise.
  static BigUint mod_exp(const BigUint& base, const BigUint& exp,
                         const BigUint& modulus);

  /// Modular inverse (extended Euclid); throws std::domain_error when
  /// gcd(a, m) != 1.
  static BigUint mod_inverse(const BigUint& a, const BigUint& m);

  /// Uniform random integer with exactly `bits` bits (msb set). Draws one
  /// rng() per 32 bits and keeps its low half, so a seed yields the same
  /// number whatever the limb width.
  static BigUint random_bits(size_t bits, std::mt19937_64& rng);
  /// Uniform random integer in [0, bound), drawn like random_bits.
  static BigUint random_below(const BigUint& bound, std::mt19937_64& rng);

  /// Miller-Rabin probable-prime test with `rounds` random bases, after
  /// trial division by the primes below 4096 (see the file comment).
  static bool is_probable_prime(const BigUint& n, int rounds,
                                std::mt19937_64& rng);
  /// Random probable prime with exactly `bits` bits.
  static BigUint random_prime(size_t bits, std::mt19937_64& rng);

  std::uint64_t to_u64() const;  // low 64 bits

 private:
  class Montgomery;

  void trim();
  // Little-endian limbs; empty == zero.
  std::vector<std::uint64_t> limbs_;
};

}  // namespace gs::security
