#include "security/bignum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace gs::security {

namespace {

using Limb = std::uint64_t;
__extension__ typedef unsigned __int128 Wide;

constexpr size_t kLimbBits = 64;

Limb lo(Wide v) { return static_cast<Limb>(v); }
Limb hi(Wide v) { return static_cast<Limb>(v >> kLimbBits); }

// a[0..n) / d for a single-limb divisor: writes the quotient to q (when
// given, n limbs) and returns the remainder.
Limb div_limb(const Limb* a, size_t n, Limb d, Limb* q) {
  Limb rem = 0;
  for (size_t i = n; i-- > 0;) {
    Wide cur = (static_cast<Wide>(rem) << kLimbBits) | a[i];
    if (q) q[i] = lo(cur / d);
    rem = lo(cur % d);
  }
  return rem;
}

// Low 32 bits of one draw: the unit every random number is built from.
Limb draw32(std::mt19937_64& rng) { return rng() & 0xFFFFFFFFu; }

}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes(std::span<const std::uint8_t> bytes) {
  BigUint out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    out.limbs_[i / 8] |= static_cast<Limb>(bytes[bytes.size() - 1 - i])
                         << (8 * (i % 8));
  }
  out.trim();
  return out;
}

std::vector<std::uint8_t> BigUint::to_bytes() const {
  if (is_zero()) return {0};
  std::vector<std::uint8_t> out((bit_length() + 7) / 8);
  for (size_t i = 0; i < out.size(); ++i) {
    out[out.size() - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

BigUint BigUint::from_hex(std::string_view hex) {
  BigUint out;
  out.limbs_.assign((hex.size() + 15) / 16, 0);
  for (size_t i = 0; i < hex.size(); ++i) {
    char c = hex[hex.size() - 1 - i];
    Limb v;
    if (c >= '0' && c <= '9') v = static_cast<Limb>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<Limb>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<Limb>(c - 'A' + 10);
    else throw std::invalid_argument("invalid hex digit");
    out.limbs_[i / 16] |= v << (4 * (i % 16));
  }
  out.trim();
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out((bit_length() + 3) / 4, '0');
  for (size_t i = 0; i < out.size(); ++i) {
    out[out.size() - 1 - i] = kHex[(limbs_[i / 16] >> (4 * (i % 16))) & 0xF];
  }
  return out;
}

size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         static_cast<size_t>(std::bit_width(limbs_.back()));
}

bool BigUint::bit(size_t i) const noexcept {
  size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

int BigUint::compare(const BigUint& other) const noexcept {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint operator+(const BigUint& a, const BigUint& b) {
  const BigUint& big = a.limbs_.size() >= b.limbs_.size() ? a : b;
  const BigUint& small = &big == &a ? b : a;
  BigUint out;
  out.limbs_.resize(big.limbs_.size() + 1);
  Limb carry = 0;
  for (size_t i = 0; i < big.limbs_.size(); ++i) {
    Wide sum = static_cast<Wide>(big.limbs_[i]) + carry;
    if (i < small.limbs_.size()) sum += small.limbs_[i];
    out.limbs_[i] = lo(sum);
    carry = hi(sum);
  }
  out.limbs_.back() = carry;
  out.trim();
  return out;
}

BigUint operator-(const BigUint& a, const BigUint& b) {
  if (a < b) throw std::underflow_error("BigUint subtraction underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size());
  Limb borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    Wide diff = static_cast<Wide>(a.limbs_[i]) - borrow -
                (i < b.limbs_.size() ? b.limbs_[i] : 0);
    out.limbs_[i] = lo(diff);
    borrow = hi(diff) & 1;  // a wrapped difference has every high bit set
  }
  out.trim();
  return out;
}

BigUint operator*(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint();
  BigUint out;
  const size_t nb = b.limbs_.size();
  out.limbs_.assign(a.limbs_.size() + nb, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    Limb carry = 0;
    const Limb ai = a.limbs_[i];
    for (size_t j = 0; j < nb; ++j) {
      Wide cur = static_cast<Wide>(ai) * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = lo(cur);
      carry = hi(cur);
    }
    out.limbs_[i + nb] = carry;
  }
  out.trim();
  return out;
}

BigUint BigUint::operator<<(size_t bits) const {
  if (is_zero()) return BigUint();
  size_t limb_shift = bits / kLimbBits;
  size_t bit_shift = bits % kLimbBits;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::operator>>(size_t bits) const {
  size_t limb_shift = bits / kLimbBits;
  size_t bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    Limb v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& a, const BigUint& b) {
  if (b.is_zero()) throw std::domain_error("BigUint division by zero");
  if (a < b) return {BigUint(), a};

  BigUint quotient;
  const size_t n = b.limbs_.size();
  const size_t m = a.limbs_.size() - n;
  quotient.limbs_.assign(m + 1, 0);
  if (n == 1) {
    Limb rem = div_limb(a.limbs_.data(), a.limbs_.size(), b.limbs_[0],
                        quotient.limbs_.data());
    quotient.trim();
    return {std::move(quotient), BigUint(rem)};
  }

  // Knuth's Algorithm D (TAOCP 4.3.1): normalize so the divisor's top limb
  // has its high bit set, estimate each quotient limb from the top two
  // remainder limbs, correct it, multiply-subtract, and add back on the
  // rare overshoot.
  const int shift = std::countl_zero(b.limbs_.back());
  auto normalize = [shift](const std::vector<Limb>& src, std::vector<Limb>& dst) {
    for (size_t i = 0; i < src.size(); ++i) {
      dst[i] |= src[i] << shift;
      if (shift) dst[i + 1] = src[i] >> (kLimbBits - shift);
    }
  };
  std::vector<Limb> v(n + 1, 0), u(a.limbs_.size() + 1, 0);
  normalize(b.limbs_, v);
  normalize(a.limbs_, u);
  const Limb vtop = v[n - 1], vnext = v[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    Wide num = (static_cast<Wide>(u[j + n]) << kLimbBits) | u[j + n - 1];
    Wide qhat = num / vtop;
    Wide rhat = num % vtop;
    while (hi(qhat) != 0 ||
           qhat * vnext > ((rhat << kLimbBits) | u[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (hi(rhat) != 0) break;
    }

    Limb mul_carry = 0, borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      Wide p = qhat * v[i] + mul_carry;
      mul_carry = hi(p);
      Wide diff = static_cast<Wide>(u[i + j]) - lo(p) - borrow;
      u[i + j] = lo(diff);
      borrow = hi(diff) & 1;
    }
    Wide diff = static_cast<Wide>(u[j + n]) - mul_carry - borrow;
    u[j + n] = lo(diff);
    Limb q = lo(qhat);
    if (hi(diff) & 1) {  // qhat was one too large: add the divisor back
      --q;
      Limb carry = 0;
      for (size_t i = 0; i < n; ++i) {
        Wide sum = static_cast<Wide>(u[i + j]) + v[i] + carry;
        u[i + j] = lo(sum);
        carry = hi(sum);
      }
      u[j + n] += carry;
    }
    quotient.limbs_[j] = q;
  }
  quotient.trim();

  BigUint remainder;
  remainder.limbs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    remainder.limbs_[i] = u[i] >> shift;
    if (shift) remainder.limbs_[i] |= u[i + 1] << (kLimbBits - shift);
  }
  remainder.trim();
  return {std::move(quotient), std::move(remainder)};
}

namespace {

// Montgomery product out = a*b*R^{-1} mod n over k-limb operands, R =
// 2^(64k), with the multiply and reduce steps of each row fused in one
// inner loop (FIOS). A nonzero K fixes k at compile time, so the loops
// unroll and the k+1 limbs of scratch live on the stack; K == 0 takes k at
// run time and uses `scratch`. `out` may alias `a` or `b`.
template <size_t K>
void mont_mul(Limb* out, const Limb* a, const Limb* b, const Limb* n,
              Limb n0inv, size_t k_run, Limb* scratch) {
  const size_t k = K ? K : k_run;
  Limb local[K + 1];
  Limb* t = K ? local : scratch;
  std::fill(t, t + k + 1, 0);
  for (size_t i = 0; i < k; ++i) {
    // t = (t + a[i]*b + m*n) / 2^64, with m chosen to clear the low limb.
    const Limb ai = a[i];
    Wide cur = static_cast<Wide>(ai) * b[0] + t[0];
    Limb carry = hi(cur);
    const Limb m = lo(cur) * n0inv;
    Limb red_carry = hi(static_cast<Wide>(m) * n[0] + lo(cur));
    // Unrolled, a fixed width runs 1.2-1.3x faster than the run-time one;
    // left rolled at -O2, it gains nothing.
#pragma GCC unroll 16
    for (size_t j = 1; j < k; ++j) {
      cur = static_cast<Wide>(ai) * b[j] + t[j] + carry;
      carry = hi(cur);
      const Wide red = static_cast<Wide>(m) * n[j] + lo(cur) + red_carry;
      red_carry = hi(red);
      t[j - 1] = lo(red);
    }
    const Wide top = static_cast<Wide>(t[k]) + carry + red_carry;
    t[k - 1] = lo(top);
    t[k] = hi(top);
  }
  // The product is below 2n: subtract n once, and keep t instead when
  // that borrows past t's top limb (t < n).
  Limb borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    Wide diff = static_cast<Wide>(t[i]) - n[i] - borrow;
    out[i] = lo(diff);
    borrow = hi(diff) & 1;
  }
  if (borrow > t[k]) std::copy(t, t + k, out);
}

// Odd primes below kSieveBound (563 of them), smallest first, for trial
// division. Bounds from 1024 to 16384 time within 4% of each other on
// AblationSecurity/Pki1024; 4096 sits in the middle of that range.
constexpr Limb kSieveBound = 4096;

constexpr bool is_small_prime(Limb v) {
  if (v < 2) return false;
  for (Limb f = 2; f * f <= v; ++f) {
    if (v % f == 0) return false;
  }
  return true;
}

constexpr size_t kSievePrimeCount = [] {
  size_t count = 0;
  for (Limb v = 3; v < kSieveBound; v += 2) count += is_small_prime(v);
  return count;
}();

constexpr auto kSievePrimes = [] {
  std::array<std::uint16_t, kSievePrimeCount> out{};
  size_t i = 0;
  for (Limb v = 3; v < kSieveBound; v += 2) {
    if (is_small_prime(v)) out[i++] = static_cast<std::uint16_t>(v);
  }
  return out;
}();

// The smallest sieve prime dividing a[0..n), or 0 when none does. The
// primes go in runs whose product fits one limb (100 runs): one div_limb
// pass gives a modulo the product, and so modulo each prime of the run.
Limb smallest_sieve_factor(const Limb* a, size_t n) {
  for (size_t first = 0, end; first < kSievePrimes.size(); first = end) {
    Limb product = 1;
    for (end = first; end < kSievePrimes.size(); ++end) {
      Limb next;
      if (__builtin_mul_overflow(product, Limb{kSievePrimes[end]}, &next)) break;
      product = next;
    }
    const Limb rem = div_limb(a, n, product, nullptr);
    for (size_t i = first; i < end; ++i) {
      if (rem % kSievePrimes[i] == 0) return kSievePrimes[i];
    }
  }
  return 0;
}

// base^exp mod m for a one-limb m below 2^32.
Limb pow_small(Limb base, Limb exp, Limb m) {
  Limb result = 1 % m;
  base %= m;
  for (; exp != 0; exp >>= 1) {
    if (exp & 1) result = result * base % m;
    base = base * base % m;
  }
  return result;
}

}  // namespace

// Montgomery context for an odd modulus > 1. Products run on raw limb
// arrays; pow() and is_witness() take their table and scratch from one
// caller-owned buffer, laid out as [acc | one | y | t | window table].
class BigUint::Montgomery {
 public:
  explicit Montgomery(const BigUint& n) : n_(n), k_(n.limbs_.size()) {
    // n0inv = -n^{-1} mod 2^64 via Newton iteration (each step doubles the
    // correct low bits: 3 -> 6 -> ... -> 96).
    Limb x = n.limbs_[0];
    Limb inv = x;
    for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
    n0inv_ = ~inv + 1;

    // R^2 mod n where R = 2^(64k), by one word-level division.
    r2_ = ((BigUint(1) << (2 * kLimbBits * k_)) % n).limbs_;
    r2_.resize(k_, 0);

    // The 512-bit primes and 1024-bit moduli of every key here get a
    // product of fixed width.
    mul_ = k_ == 8 ? &mont_mul<8> : k_ == 16 ? &mont_mul<16> : &mont_mul<0>;
  }

  // out = a*b*R^{-1} mod n; `t` is k+1 limbs of scratch.
  void mul(Limb* out, const Limb* a, const Limb* b, Limb* t) const {
    mul_(out, a, b, n_.limbs_.data(), n0inv_, k_, t);
  }

  // base^exp mod n, exp > 0.
  BigUint pow(const BigUint& base, const BigUint& exp) const {
    std::vector<Limb> work;
    pow_mont(base, exp, work);
    Limb* acc = work.data();
    mul(acc, acc, one(work), scratch(work));  // out of the Montgomery domain
    BigUint out;
    out.limbs_.assign(acc, acc + k_);
    out.trim();
    return out;
  }

  // One Miller-Rabin round: whether base a (below n) proves n composite,
  // where n - 1 = d * 2^s with d odd. x is squared in the Montgomery domain
  // and compared with 1 and n - 1 through y, its plain value.
  bool is_witness(const BigUint& a, const BigUint& d, size_t s,
                  std::vector<Limb>& work) const {
    pow_mont(a, d, work);
    Limb* x = work.data();
    Limb* y = x + 2 * k_;
    Limb* t = scratch(work);
    const Limb* n = n_.limbs_.data();
    // Sets y = x out of the Montgomery domain. n is odd, so n - 1 differs
    // from n in limb 0 only.
    auto x_is_minus_one = [&] {
      mul(y, x, one(work), t);
      return y[0] == n[0] - 1 && std::equal(y + 1, y + k_, n + 1);
    };
    if (x_is_minus_one()) return false;
    const bool x_is_one =
        y[0] == 1 && std::all_of(y + 1, y + k_, [](Limb v) { return v == 0; });
    if (x_is_one) return false;
    for (size_t i = 1; i < s; ++i) {
      mul(x, x, x, t);
      if (x_is_minus_one()) return false;
    }
    return true;
  }

 private:
  Limb* one(std::vector<Limb>& work) const { return work.data() + k_; }
  Limb* scratch(std::vector<Limb>& work) const { return work.data() + 3 * k_; }

  // work's accumulator = base^exp in Montgomery form, exp > 0: left-to-right
  // fixed-window exponentiation. Short exponents (the public e) use 1-bit
  // windows so they pay for no table. `work` is resized here; a caller that
  // keeps it across calls allocates it once.
  void pow_mont(const BigUint& base, const BigUint& exp,
                std::vector<Limb>& work) const {
    const size_t k = k_;
    const size_t bits = exp.bit_length();
    const size_t w = bits <= 32 ? 1 : 4;
    const size_t entries = size_t{1} << w;

    work.assign((entries + 4) * k + 1, 0);
    Limb* acc = work.data();
    Limb* t = scratch(work);
    Limb* table = t + k + 1;
    one(work)[0] = 1;

    // table[i] = base^i in Montgomery form. Slot 0 stays unused: a zero
    // window multiplies by nothing.
    if (base < n_) {
      std::copy(base.limbs_.begin(), base.limbs_.end(), acc);
    } else {
      const BigUint reduced = base % n_;
      std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), acc);
    }
    mul(table + k, acc, r2_.data(), t);
    for (size_t i = 2; i < entries; ++i) {
      mul(table + i * k, table + (i - 1) * k, table + k, t);
    }

    // Windows are aligned to the exponent's low end; the top one may be
    // short.
    size_t pos = (bits - 1) / w * w;
    auto window = [&](size_t at) {
      size_t value = 0;
      for (size_t b = std::min(at + w, bits); b-- > at;) {
        value = (value << 1) | (exp.bit(b) ? 1 : 0);
      }
      return value;
    };
    const Limb* top = table + window(pos) * k;
    std::copy(top, top + k, acc);
    while (pos > 0) {
      pos -= w;
      for (size_t s = 0; s < w; ++s) mul(acc, acc, acc, t);
      if (size_t v = window(pos)) mul(acc, acc, table + v * k, t);
    }
  }

  using MulFn = void (*)(Limb*, const Limb*, const Limb*, const Limb*, Limb,
                         size_t, Limb*);

  BigUint n_;
  size_t k_;
  Limb n0inv_;
  std::vector<Limb> r2_;
  MulFn mul_;
};

BigUint BigUint::mod_exp(const BigUint& base, const BigUint& exp,
                         const BigUint& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp modulus is zero");
  if (modulus == BigUint(1)) return BigUint();
  if (exp.is_zero()) return BigUint(1);
  if (modulus.is_odd()) {
    return Montgomery(modulus).pow(base, exp);
  }
  // Plain square-and-multiply (rare path; RSA moduli are odd).
  BigUint result(1);
  BigUint b = base % modulus;
  for (size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % modulus;
    if (exp.bit(i)) result = (result * b) % modulus;
  }
  return result;
}

BigUint BigUint::mod_inverse(const BigUint& a, const BigUint& m) {
  // Extended Euclid with signed coefficients tracked as (magnitude, sign).
  struct Signed {
    BigUint mag;
    bool neg = false;
  };
  auto sub = [](const Signed& x, const Signed& y) -> Signed {
    if (x.neg == y.neg) {
      if (x.mag >= y.mag) return {x.mag - y.mag, x.neg};
      return {y.mag - x.mag, !x.neg};
    }
    return {x.mag + y.mag, x.neg};
  };
  auto mul_big = [](const Signed& x, const BigUint& q) -> Signed {
    return {x.mag * q, x.neg};
  };

  BigUint r0 = m, r1 = a % m;
  Signed t0{BigUint(), false}, t1{BigUint(1), false};
  while (!r1.is_zero()) {
    auto [q, r] = divmod(r0, r1);
    Signed t2 = sub(t0, mul_big(t1, q));
    r0 = std::move(r1);
    r1 = std::move(r);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigUint(1)) throw std::domain_error("mod_inverse: not coprime");
  if (t0.neg) return m - (t0.mag % m);
  return t0.mag % m;
}

BigUint BigUint::random_bits(size_t bits, std::mt19937_64& rng) {
  if (bits == 0) return BigUint();
  const size_t words = (bits + 31) / 32;
  BigUint out;
  out.limbs_.assign((words + 1) / 2, 0);
  for (size_t i = 0; i < words; ++i) {
    out.limbs_[i / 2] |= draw32(rng) << (32 * (i % 2));
  }
  const size_t top_bit = (bits - 1) % kLimbBits;
  if (top_bit != kLimbBits - 1) out.limbs_.back() &= (Limb{1} << (top_bit + 1)) - 1;
  out.limbs_.back() |= Limb{1} << top_bit;  // force exact bit length
  return out;
}

BigUint BigUint::random_below(const BigUint& bound, std::mt19937_64& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  const size_t bits = bound.bit_length();
  const size_t words = (bits + 31) / 32;
  const size_t extra = words * 32 - bits;  // dropped from the top draw
  for (;;) {
    BigUint candidate;
    candidate.limbs_.assign((words + 1) / 2, 0);
    for (size_t i = 0; i < words; ++i) {
      Limb word = draw32(rng);
      if (i + 1 == words) word >>= extra;
      candidate.limbs_[i / 2] |= word << (32 * (i % 2));
    }
    candidate.trim();
    if (candidate < bound) return candidate;
  }
}

bool BigUint::is_probable_prime(const BigUint& n, int rounds,
                                std::mt19937_64& rng) {
  if (n < BigUint(2)) return false;
  if (!n.is_odd()) return n == BigUint(2);
  // Trial division. A factor up to 47 answers before any draw, as the
  // reference's 15-prime trial division does; a sieve prime n itself takes
  // the full rounds. A larger factor q settles a round exactly (below) and
  // draws what the full round would.
  Limb q = smallest_sieve_factor(n.limbs_.data(), n.limbs_.size());
  if (n.limbs_.size() == 1 && n.limbs_[0] == q) {
    if (q <= 47) return true;
    q = 0;
  } else if (q != 0 && q <= 47) {
    return false;
  }
  // n - 1 = d * 2^s with d odd.
  const BigUint n_minus_1 = n - BigUint(1);
  size_t s = 0;
  while (!n_minus_1.bit(s)) ++s;
  const BigUint d = n_minus_1 >> s;
  const BigUint base_span = n - BigUint(4);
  const Limb q_exp = q ? div_limb(n_minus_1.limbs_.data(), n_minus_1.limbs_.size(),
                                  q - 1, nullptr)
                       : 0;
  const Montgomery mont(n);
  std::vector<Limb> work;  // shared by every round's exponentiation
  for (int round = 0; round < rounds; ++round) {
    BigUint a = BigUint(2) + random_below(base_span, rng);
    // A base that passes the round has a^(n-1) = 1 mod n, so also mod q:
    // a base failing that mod q is a witness, found in one-limb arithmetic.
    if (q != 0) {
      const Limb a_mod_q = div_limb(a.limbs_.data(), a.limbs_.size(), q, nullptr);
      if (a_mod_q == 0 || pow_small(a_mod_q, q_exp, q) != 1) return false;
    }
    if (mont.is_witness(a, d, s, work)) return false;
  }
  return true;
}

BigUint BigUint::random_prime(size_t bits, std::mt19937_64& rng) {
  for (;;) {
    BigUint candidate = random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigUint(1);
    if (is_probable_prime(candidate, 20, rng)) return candidate;
  }
}

std::uint64_t BigUint::to_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

}  // namespace gs::security
