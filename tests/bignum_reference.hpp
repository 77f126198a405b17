// Test oracle: the original 32-bit-limb BigUint arithmetic (schoolbook
// products, bitwise long division) and the original keygen draws, so the
// word-level implementation in src/security/bignum.cpp and CRT signing can
// be checked against it. Its mod_exp is bit-at-a-time square-and-multiply
// with a full reduction per step for every modulus, so it shares no
// Montgomery code with what it checks. Slow on purpose; test-only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gs::security::reference {

class RefUint {
 public:
  RefUint() = default;
  RefUint(std::uint64_t v) {  // NOLINT(google-explicit-constructor)
    if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
    if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
  }

  static RefUint from_hex(std::string_view hex) {
    RefUint out;
    for (char c : hex) {
      int v;
      if (c >= '0' && c <= '9') v = c - '0';
      else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
      else throw std::invalid_argument("invalid hex digit");
      out = (out << 4) + RefUint(static_cast<std::uint64_t>(v));
    }
    return out;
  }

  std::string to_hex() const {
    if (is_zero()) return "0";
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (size_t i = limbs_.size(); i-- > 0;) {
      for (int shift = 28; shift >= 0; shift -= 4) {
        out += kHex[(limbs_[i] >> shift) & 0xF];
      }
    }
    size_t skip = out.find_first_not_of('0');
    return out.substr(skip == std::string::npos ? out.size() - 1 : skip);
  }

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  size_t bit_length() const {
    if (limbs_.empty()) return 0;
    std::uint32_t top = limbs_.back();
    size_t bits = (limbs_.size() - 1) * 32;
    while (top) {
      ++bits;
      top >>= 1;
    }
    return bits;
  }

  bool bit(size_t i) const {
    size_t limb = i / 32;
    if (limb >= limbs_.size()) return false;
    return (limbs_[limb] >> (i % 32)) & 1;
  }

  int compare(const RefUint& other) const {
    if (limbs_.size() != other.limbs_.size()) {
      return limbs_.size() < other.limbs_.size() ? -1 : 1;
    }
    for (size_t i = limbs_.size(); i-- > 0;) {
      if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
    return 0;
  }
  friend bool operator==(const RefUint& a, const RefUint& b) { return a.compare(b) == 0; }
  friend bool operator!=(const RefUint& a, const RefUint& b) { return a.compare(b) != 0; }
  friend bool operator<(const RefUint& a, const RefUint& b) { return a.compare(b) < 0; }
  friend bool operator>=(const RefUint& a, const RefUint& b) { return a.compare(b) >= 0; }

  friend RefUint operator+(const RefUint& a, const RefUint& b) {
    RefUint out;
    size_t n = std::max(a.limbs_.size(), b.limbs_.size());
    out.limbs_.resize(n);
    std::uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      std::uint64_t sum = carry;
      if (i < a.limbs_.size()) sum += a.limbs_[i];
      if (i < b.limbs_.size()) sum += b.limbs_[i];
      out.limbs_[i] = static_cast<std::uint32_t>(sum);
      carry = sum >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
    return out;
  }

  friend RefUint operator-(const RefUint& a, const RefUint& b) {
    if (a < b) throw std::underflow_error("RefUint subtraction underflow");
    RefUint out;
    out.limbs_.resize(a.limbs_.size());
    std::int64_t borrow = 0;
    for (size_t i = 0; i < a.limbs_.size(); ++i) {
      std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow -
                          (i < b.limbs_.size() ? b.limbs_[i] : 0);
      if (diff < 0) {
        diff += (1LL << 32);
        borrow = 1;
      } else {
        borrow = 0;
      }
      out.limbs_[i] = static_cast<std::uint32_t>(diff);
    }
    out.trim();
    return out;
  }

  friend RefUint operator*(const RefUint& a, const RefUint& b) {
    if (a.is_zero() || b.is_zero()) return RefUint();
    RefUint out;
    out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
    for (size_t i = 0; i < a.limbs_.size(); ++i) {
      std::uint64_t carry = 0;
      for (size_t j = 0; j < b.limbs_.size(); ++j) {
        std::uint64_t cur = out.limbs_[i + j] +
                            static_cast<std::uint64_t>(a.limbs_[i]) * b.limbs_[j] +
                            carry;
        out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
        carry = cur >> 32;
      }
      size_t k = i + b.limbs_.size();
      while (carry) {
        std::uint64_t cur = out.limbs_[k] + carry;
        out.limbs_[k] = static_cast<std::uint32_t>(cur);
        carry = cur >> 32;
        ++k;
      }
    }
    out.trim();
    return out;
  }

  RefUint operator<<(size_t bits) const {
    if (is_zero()) return RefUint();
    size_t limb_shift = bits / 32;
    size_t bit_shift = bits % 32;
    RefUint out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (size_t i = 0; i < limbs_.size(); ++i) {
      std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
      out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
      out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
    }
    out.trim();
    return out;
  }

  RefUint operator>>(size_t bits) const {
    size_t limb_shift = bits / 32;
    size_t bit_shift = bits % 32;
    if (limb_shift >= limbs_.size()) return RefUint();
    RefUint out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (size_t i = 0; i < out.limbs_.size(); ++i) {
      std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
      if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
        v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
             << (32 - bit_shift);
      }
      out.limbs_[i] = static_cast<std::uint32_t>(v);
    }
    out.trim();
    return out;
  }

  // Bitwise long division.
  static std::pair<RefUint, RefUint> divmod(const RefUint& a, const RefUint& b) {
    if (b.is_zero()) throw std::domain_error("RefUint division by zero");
    if (a < b) return {RefUint(), a};
    RefUint quotient;
    size_t shift = a.bit_length() - b.bit_length();
    RefUint divisor = b << shift;
    RefUint remainder = a;
    quotient.limbs_.assign((shift + 32) / 32, 0);
    for (size_t i = shift + 1; i-- > 0;) {
      if (remainder >= divisor) {
        remainder = remainder - divisor;
        quotient.limbs_[i / 32] |= (1u << (i % 32));
      }
      divisor = divisor >> 1;
    }
    quotient.trim();
    return {std::move(quotient), std::move(remainder)};
  }
  friend RefUint operator%(const RefUint& a, const RefUint& b) {
    return divmod(a, b).second;
  }

  // Bit-at-a-time square-and-multiply with full reductions.
  static RefUint mod_exp(const RefUint& base, const RefUint& exp,
                         const RefUint& modulus) {
    if (modulus.is_zero()) throw std::domain_error("mod_exp modulus is zero");
    if (modulus == RefUint(1)) return RefUint();
    RefUint result(1);
    RefUint b = base % modulus;
    for (size_t i = exp.bit_length(); i-- > 0;) {
      result = (result * result) % modulus;
      if (exp.bit(i)) result = (result * b) % modulus;
    }
    return result;
  }

  static RefUint mod_inverse(const RefUint& a, const RefUint& m) {
    struct Signed {
      RefUint mag;
      bool neg = false;
    };
    auto sub = [](const Signed& x, const Signed& y) -> Signed {
      if (x.neg == y.neg) {
        if (x.mag >= y.mag) return {x.mag - y.mag, x.neg};
        return {y.mag - x.mag, !x.neg};
      }
      return {x.mag + y.mag, x.neg};
    };
    RefUint r0 = m, r1 = a % m;
    Signed t0{RefUint(), false}, t1{RefUint(1), false};
    while (!r1.is_zero()) {
      auto [q, r] = divmod(r0, r1);
      Signed t2 = sub(t0, Signed{t1.mag * q, t1.neg});
      r0 = std::move(r1);
      r1 = std::move(r);
      t0 = std::move(t1);
      t1 = std::move(t2);
    }
    if (r0 != RefUint(1)) throw std::domain_error("mod_inverse: not coprime");
    if (t0.neg) return m - (t0.mag % m);
    return t0.mag % m;
  }

  static RefUint random_bits(size_t bits, std::mt19937_64& rng) {
    if (bits == 0) return RefUint();
    RefUint out;
    out.limbs_.resize((bits + 31) / 32);
    for (auto& limb : out.limbs_) limb = static_cast<std::uint32_t>(rng());
    size_t top_bit = (bits - 1) % 32;
    std::uint32_t mask = top_bit == 31 ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
    out.limbs_.back() &= mask;
    out.limbs_.back() |= (1u << top_bit);
    return out;
  }

  static RefUint random_below(const RefUint& bound, std::mt19937_64& rng) {
    size_t bits = bound.bit_length();
    for (;;) {
      RefUint candidate;
      candidate.limbs_.resize((bits + 31) / 32);
      for (auto& limb : candidate.limbs_) limb = static_cast<std::uint32_t>(rng());
      size_t extra = candidate.limbs_.size() * 32 - bits;
      if (extra > 0) candidate.limbs_.back() >>= extra;
      candidate.trim();
      if (candidate < bound) return candidate;
    }
  }

  static bool is_probable_prime(const RefUint& n, int rounds, std::mt19937_64& rng) {
    if (n < RefUint(2)) return false;
    static const std::uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                                 23, 29, 31, 37, 41, 43, 47};
    for (std::uint32_t p : kSmallPrimes) {
      if (n == RefUint(p)) return true;
      if ((n % RefUint(p)).is_zero()) return false;
    }
    RefUint n_minus_1 = n - RefUint(1);
    RefUint d = n_minus_1;
    size_t s = 0;
    while (!d.is_odd()) {
      d = d >> 1;
      ++s;
    }
    for (int round = 0; round < rounds; ++round) {
      RefUint a = RefUint(2) + random_below(n - RefUint(4), rng);
      RefUint x = mod_exp(a, d, n);
      if (x == RefUint(1) || x == n_minus_1) continue;
      bool witness = true;
      for (size_t i = 1; i < s; ++i) {
        x = (x * x) % n;
        if (x == n_minus_1) {
          witness = false;
          break;
        }
      }
      if (witness) return false;
    }
    return true;
  }

  static RefUint random_prime(size_t bits, std::mt19937_64& rng) {
    for (;;) {
      RefUint candidate = random_bits(bits, rng);
      if (!candidate.is_odd()) candidate = candidate + RefUint(1);
      if (is_probable_prime(candidate, 20, rng)) return candidate;
    }
  }

 private:
  void trim() {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  }
  std::vector<std::uint32_t> limbs_;  // little-endian; empty == zero
};

/// The original keygen: same draws, primes and retries as
/// RsaKeyPair::generate, returning {n, d}.
inline std::pair<RefUint, RefUint> generate_key(size_t bits, std::mt19937_64& rng) {
  const RefUint e(65537);
  for (;;) {
    RefUint p = RefUint::random_prime(bits / 2, rng);
    RefUint q = RefUint::random_prime(bits - bits / 2, rng);
    if (p == q) continue;
    RefUint n = p * q;
    if (n.bit_length() != bits) continue;
    RefUint phi = (p - RefUint(1)) * (q - RefUint(1));
    if ((phi % e).is_zero()) continue;
    return {std::move(n), RefUint::mod_inverse(e, phi)};
  }
}

}  // namespace gs::security::reference
