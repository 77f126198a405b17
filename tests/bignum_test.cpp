// Parity of the word-level BigUint and CRT RSA against the original 32-bit
// arithmetic (tests/bignum_reference.hpp): arithmetic, division, modular
// exponentiation and inversion on seeded operands from 1 to 2048 bits,
// fixed-seed keys pinned to their original hex, CRT signatures against
// em^d mod n, and a heap-allocation count that must not grow with the
// exponent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "bignum_reference.hpp"
#include "security/bignum.hpp"
#include "security/rsa.hpp"

// Counting global operator new for this binary: heap allocations made on
// the calling thread. The replacements are kept out of line so the compiler
// does not pair an inlined malloc() or free() with the allocation function
// it sees at a call site.
namespace {
thread_local std::uint64_t tl_heap_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++tl_heap_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gs::security {
namespace {

using reference::RefUint;

RefUint to_ref(const BigUint& v) { return RefUint::from_hex(v.to_hex()); }

BigUint odd(const BigUint& v) { return v.is_odd() ? v : v + BigUint(1); }

// A `bits`-bit operand (msb set) whose 64-bit limbs follow `shape`:
// 0 random, 1 all-ones top limb, 2 all ones, 3 a power of two, 4 sparse
// (limbs of 0 and 1), 5 top limb 0x8000... then random.
std::string operand_hex(size_t bits, int shape, std::mt19937_64& rng) {
  if (bits == 0) return "0";
  std::string bin(bits, '0');  // bin[0] is the msb
  for (size_t i = 0; i < bits; ++i) {
    const bool in_top_limb = i < (bits - 1) % 64 + 1;
    bool one;
    switch (shape) {
      case 1: one = in_top_limb || (rng() & 1); break;
      case 2: one = true; break;
      case 3: one = i == 0; break;
      case 4: one = i == 0 || (bits - 1 - i) % 64 == 0; break;
      case 5: one = i == 0 || (!in_top_limb && (rng() & 1)); break;
      default: one = i == 0 || (rng() & 1); break;
    }
    bin[i] = one ? '1' : '0';
  }
  std::string hex;
  size_t lead = bits % 4;
  size_t pos = 0;
  auto nibble = [&](size_t len) {
    int v = 0;
    for (size_t j = 0; j < len; ++j) v = v * 2 + (bin[pos++] - '0');
    hex += "0123456789abcdef"[v];
  };
  if (lead) nibble(lead);
  while (pos < bits) nibble(4);
  return hex;
}

const size_t kSizes[] = {1,   2,   31,  32,  33,   63,   64,   65,   127,
                         128, 129, 255, 256, 257,  511,  512,  513,  1023,
                         1024, 1025, 1536, 2047, 2048};

class ArithmeticParity : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Shapes, ArithmeticParity, ::testing::Range(0, 6));

TEST_P(ArithmeticParity, MatchesReferenceFrom1To2048Bits) {
  const int shape = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(shape) * 104729 + 17);
  for (size_t abits : kSizes) {
    for (size_t bbits : kSizes) {
      const std::string ahex = operand_hex(abits, shape, rng);
      const std::string bhex = operand_hex(bbits, (shape + bbits) % 6, rng);
      SCOPED_TRACE(ahex + " / " + bhex);
      const BigUint a = BigUint::from_hex(ahex), b = BigUint::from_hex(bhex);
      const RefUint ra = RefUint::from_hex(ahex), rb = RefUint::from_hex(bhex);
      ASSERT_EQ(a.to_hex(), ra.to_hex());

      EXPECT_EQ((a + b).to_hex(), (ra + rb).to_hex());
      if (ra >= rb) {
        EXPECT_EQ((a - b).to_hex(), (ra - rb).to_hex());
      } else {
        EXPECT_THROW(a - b, std::underflow_error);
      }
      EXPECT_EQ((a * b).to_hex(), (ra * rb).to_hex());
      auto [q, r] = BigUint::divmod(a, b);
      auto [rq, rr] = RefUint::divmod(ra, rb);
      EXPECT_EQ(q.to_hex(), rq.to_hex());
      EXPECT_EQ(r.to_hex(), rr.to_hex());
    }
    for (size_t shift : {0, 1, 4, 31, 32, 33, 63, 64, 65, 127, 128, 700}) {
      const std::string ahex = operand_hex(abits, shape, rng);
      const BigUint a = BigUint::from_hex(ahex);
      const RefUint ra = RefUint::from_hex(ahex);
      EXPECT_EQ((a << shift).to_hex(), (ra << shift).to_hex()) << ahex << " << " << shift;
      EXPECT_EQ((a >> shift).to_hex(), (ra >> shift).to_hex()) << ahex << " >> " << shift;
    }
  }
}

TEST(BigUintParity, DivisionEdgeCases) {
  const std::string ones64(16, 'f');
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"1", "1"},
      {ones64, ones64},                                      // equal, one limb
      {ones64 + ones64, ones64 + ones64},                    // equal, two limbs
      {ones64 + ones64 + ones64, ones64},                    // single-limb divisor
      {"1" + std::string(32, '0'), "1" + std::string(16, '0')},   // 2^128 / 2^64
      {ones64 + ones64 + ones64 + ones64, "1" + ones64},     // divisor top limb 1
      {"8" + std::string(47, '0'), "8" + std::string(15, '0') + ones64},
      {"7fffffffffffffff" + ones64 + "0000000000000000" + ones64,
       "8000000000000000" + ones64},
      // The quotient-digit estimate overshoots here (Knuth D's add-back).
      {"80000000000000007fffffffffffffff8000000000000001"
       "80000000000000018000000000000000",
       "80000000000000007fffffffffffffff" + ones64},
  };
  for (const auto& [ahex, bhex] : cases) {
    SCOPED_TRACE(ahex + " / " + bhex);
    auto [q, r] = BigUint::divmod(BigUint::from_hex(ahex), BigUint::from_hex(bhex));
    auto [rq, rr] = RefUint::divmod(RefUint::from_hex(ahex), RefUint::from_hex(bhex));
    EXPECT_EQ(q.to_hex(), rq.to_hex());
    EXPECT_EQ(r.to_hex(), rr.to_hex());
  }
}

TEST(BigUintParity, ModExpOddAndEvenModuliTo2048Bits) {
  std::mt19937_64 rng(4242);
  for (size_t mbits : {2, 3, 17, 64, 65, 127, 512, 1024, 2048}) {
    for (size_t ebits : {1, 2, 17, 33, 64, 160}) {
      if (mbits >= 1024 && ebits > 64) continue;  // the oracle is slow there
      for (int parity = 0; parity < 2; ++parity) {
        BigUint m = BigUint::from_hex(operand_hex(mbits, ebits % 6, rng));
        if (m.is_odd() != (parity == 1)) {
          m = m.is_odd() ? m - BigUint(1) : m + BigUint(1);
        }
        // Bases below, equal to and above the modulus.
        for (size_t bbits : {mbits / 2 + 1, mbits, mbits + 70}) {
          const BigUint base = BigUint::from_hex(operand_hex(bbits, 0, rng));
          const BigUint exp = BigUint::from_hex(operand_hex(ebits, 0, rng));
          SCOPED_TRACE(base.to_hex() + " ^ " + exp.to_hex() + " mod " + m.to_hex());
          EXPECT_EQ(BigUint::mod_exp(base, exp, m).to_hex(),
                    RefUint::mod_exp(to_ref(base), to_ref(exp), to_ref(m)).to_hex());
        }
      }
    }
  }
}

TEST(BigUintParity, ModExpFullSizeExponent) {
  // A 512-bit exponent over a 512-bit odd modulus: every window width the
  // exponent loop uses, with zero windows in between.
  std::mt19937_64 rng(77);
  BigUint m = odd(BigUint::from_hex(operand_hex(512, 0, rng)));
  BigUint base = BigUint::from_hex(operand_hex(511, 0, rng));
  BigUint exp = BigUint::from_hex("f00000000000000000000000000001" +
                                  operand_hex(392, 4, rng));
  EXPECT_EQ(BigUint::mod_exp(base, exp, m).to_hex(),
            RefUint::mod_exp(to_ref(base), to_ref(exp), to_ref(m)).to_hex());
}

TEST(BigUintParity, ModInverse) {
  std::mt19937_64 rng(9);
  for (size_t bits : {8, 64, 65, 256, 512, 1024}) {
    for (int i = 0; i < 4; ++i) {
      const BigUint m = BigUint::from_hex(operand_hex(bits, i, rng));
      const BigUint a = BigUint::from_hex(operand_hex(bits - bits / 3, 0, rng));
      SCOPED_TRACE(a.to_hex() + " mod " + m.to_hex());
      try {
        const std::string ref = RefUint::mod_inverse(to_ref(a), to_ref(m)).to_hex();
        EXPECT_EQ(BigUint::mod_inverse(a, m).to_hex(), ref);
      } catch (const std::domain_error&) {
        EXPECT_THROW(BigUint::mod_inverse(a, m), std::domain_error);
      }
    }
  }
}

TEST(BigUintParity, RandomDrawsMatchReference) {
  // One rng() per 32 bits, low half kept, top word masked or shifted: the
  // same seed must give the same numbers and leave the generator in the
  // same state, at every width.
  for (size_t bits : {1, 5, 31, 32, 33, 63, 64, 65, 95, 96, 97, 130, 512, 1000}) {
    SCOPED_TRACE(bits);
    std::mt19937_64 rng(bits), ref_rng(bits);
    const BigUint a = BigUint::random_bits(bits, rng);
    const RefUint ra = RefUint::random_bits(bits, ref_rng);
    EXPECT_EQ(a.to_hex(), ra.to_hex());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(BigUint::random_below(a, rng).to_hex(),
                RefUint::random_below(ra, ref_rng).to_hex());
    }
    if (bits >= 8 && bits <= 130) {
      EXPECT_EQ(BigUint::random_prime(bits, rng).to_hex(),
                RefUint::random_prime(bits, ref_rng).to_hex());
    }
    EXPECT_EQ(rng(), ref_rng());
  }
}

TEST(BigUintParity, PrimalityMatchesReferenceOnSievedCandidates) {
  // Odd candidates as random_prime draws them, at widths inside and far
  // beyond the sieve's primes, through every path: a factor up to 47 (no
  // draw), a larger sieve factor (settled after a round's draw), none (the
  // full rounds), and no rounds at all. The verdict and the generator's
  // state must match the original's 15-prime trial division.
  const int kRounds[] = {20, 1, 2, 0};
  for (size_t bits : {12, 16, 24, 33, 64, 130, 256, 512}) {
    SCOPED_TRACE(bits);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      std::mt19937_64 rng(seed * 1000 + bits);
      const BigUint n = odd(BigUint::random_bits(bits, rng));
      std::mt19937_64 ref_rng = rng;
      const int rounds = kRounds[seed % 4];
      ASSERT_EQ(BigUint::is_probable_prime(n, rounds, rng),
                RefUint::is_probable_prime(to_ref(n), rounds, ref_rng))
          << n.to_hex() << " rounds " << rounds;
      ASSERT_EQ(rng(), ref_rng()) << n.to_hex();
    }
  }
}

TEST(BigUintParity, SieveFactorFallsThroughToTheFullRoundOnFermatLiars) {
  // n with a sieve factor q > 47 is settled in one-limb arithmetic unless
  // the drawn base a has a^(n-1) = 1 (mod q); then the full round runs.
  // 3233 = 53 * 61: 4 of the 52 nonzero residues mod 53 are such liars.
  // 56052361 = 211 * 421 * 631 is a Carmichael number: every base coprime
  // to it is, and so is every base coprime to 16752649 = 4093^2, the square
  // of the sieve's top prime (4092 divides n - 1).
  // 286903 = 379 * 757 has strong liars among a quarter of its bases, so
  // round 0 often passes whole and round 1 draws again. 53 and 4093 are
  // sieve primes themselves and take every round.
  struct Case {
    std::uint64_t n, q;  // q: the smallest factor, 0 for a prime
  };
  for (const Case& c : {Case{3233, 53}, Case{56052361, 211}, Case{16752649, 4093},
                        Case{286903, 379}, Case{53, 0}, Case{4093, 0}}) {
    SCOPED_TRACE(c.n);
    const BigUint n(c.n);
    int liars = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      std::mt19937_64 rng(seed), ref_rng(seed), peek(seed);
      const BigUint a = BigUint(2) + BigUint::random_below(n - BigUint(4), peek);
      if (c.q != 0 &&
          BigUint::mod_exp(a, n - BigUint(1), BigUint(c.q)) == BigUint(1)) {
        ++liars;
      }
      const int rounds = seed % 2 ? 20 : 1;
      const bool prime = BigUint::is_probable_prime(n, rounds, rng);
      ASSERT_EQ(prime, RefUint::is_probable_prime(RefUint(c.n), rounds, ref_rng));
      if (c.q == 0) {
        ASSERT_TRUE(prime);
      }
      ASSERT_EQ(rng(), ref_rng());
    }
    if (c.q != 0) {
      EXPECT_GT(liars, 0);  // the full round did run
    }
  }
}

// --- keys ------------------------------------------------------------------

struct PinnedKey {
  size_t bits;
  std::uint64_t seed;
  const char* n;
  const char* d;
};

// RsaKeyPair::generate output as of the 32-bit implementation; the first is
// the perfbench PKI's CA key.
const PinnedKey kPinnedKeys[] = {
    {1024, 20050712,
     "c236de9f22091792a16a8659ac2a1183034bb8e48fbe0eb77614ddff0e1b0925"
     "e7a24a14893a8a2cb75d9d3dcf237519fdaadd17d03a815c0855eb097261f28e"
     "86af9637e7e2a122657edab34d5fe53607a267f60bdccc46fb59788bd1972805"
     "df114c7e92bb8eb26e6de28f374a2f5f7fd6aabaaa063d4049cfb7b57d884ffb",
     "8c029e6f3e4c2bb04ba9cdfd2b7e906d509cf047e5d0702f9672e8af8cedb4a4"
     "9cde846555a0dc27ec71128092a9cf2bd391b01e10c17cac6a5df639333aa56f"
     "13ead2ff63ee36ec7a514d17b59c211b0fdfe25564c149ebcd646b6e8dc38eb0"
     "cf0d2fbcbf3ef4b971e3e5d19f6a1149647ec6f753c126abbdaf3c8c6c208bd1"},
    {512, 11,
     "b221f06cdde5e96c92715fffbb039cca507bd786a464d6e1d7bbb74c6dd3de85"
     "e6325fbc39eb051e9debd3be4f49b5f2964e1c9ad20239c1cc7786a14ff9ae1d",
     "9a8343f83ad6260eae4c37982c90ea9cb709651efe5415ec5a64128ff2283838"
     "7a3aaddad1f6b015b462e76091354592cccaa6450a41abaa8ce21840d36e0e81"},
    {512, 99,
     "a160b0c6fbce0f51ac4e44c5e3105cd93edc43b96e761f5e921f19dd75705b81"
     "31482feaecd96cbf33d959d6693526099a85f605e15ae8ab8c2f3421baec0713",
     "131d93f30e12bb87ce243b4b417947b64816e942c6cde12b5f9da57fb1108d16"
     "115d8a1e8b33b60dca60390d668115fd772de07ddd289d1d2106c6e5b5899321"},
};

TEST(RsaKeys, FixedSeedKeysAreByteIdentical) {
  for (const PinnedKey& pin : kPinnedKeys) {
    SCOPED_TRACE(pin.seed);
    std::mt19937_64 rng(pin.seed);
    RsaKeyPair key = RsaKeyPair::generate(pin.bits, rng);
    EXPECT_EQ(key.pub.n.to_hex(), pin.n);
    EXPECT_EQ(key.d.to_hex(), pin.d);
    EXPECT_EQ(key.pub.e, BigUint(65537));
    // The CRT parts describe the same key.
    EXPECT_EQ(key.p * key.q, key.pub.n);
    EXPECT_EQ(key.dp, key.d % (key.p - BigUint(1)));
    EXPECT_EQ(key.dq, key.d % (key.q - BigUint(1)));
    EXPECT_EQ((key.qinv * key.q) % key.p, BigUint(1));
  }
}

TEST(RsaKeys, KeygenMatchesReferenceDraws) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    std::mt19937_64 rng(seed), ref_rng(seed);
    RsaKeyPair key = RsaKeyPair::generate(256, rng);
    auto [n, d] = reference::generate_key(256, ref_rng);
    EXPECT_EQ(key.pub.n.to_hex(), n.to_hex());
    EXPECT_EQ(key.d.to_hex(), d.to_hex());
    EXPECT_EQ(rng(), ref_rng());  // same number of draws consumed
  }
}

TEST(RsaKeys, CrtSignatureEqualsPlainExponentiation) {
  std::mt19937_64 rng(11);
  RsaKeyPair key = RsaKeyPair::generate(512, rng);
  for (int i = 0; i < 3; ++i) {
    Digest256 digest = Sha256::digest(std::string("message ") + std::to_string(i));
    std::vector<std::uint8_t> sig = rsa_sign(key, digest);
    // em = 0x00 0x01 FF..FF 0x00 || digest, sized to the modulus.
    std::vector<std::uint8_t> em(key.pub.modulus_bytes(), 0xFF);
    em[0] = 0x00;
    em[1] = 0x01;
    em[em.size() - digest.size() - 1] = 0x00;
    std::copy(digest.begin(), digest.end(), em.end() - digest.size());
    const RefUint expected =
        RefUint::mod_exp(to_ref(BigUint::from_bytes(em)), to_ref(key.d),
                         to_ref(key.pub.n));
    EXPECT_EQ(BigUint::from_bytes(sig).to_hex(), expected.to_hex());
    EXPECT_TRUE(rsa_verify(key.pub, digest, sig));
  }
  // Decryption takes the same CRT path.
  const std::vector<std::uint8_t> secret(40, 0xA5);
  EXPECT_EQ(rsa_decrypt(key, rsa_encrypt(key.pub, secret)), secret);
}

// --- allocation ---------------------------------------------------------------

TEST(BigUintAlloc, ModExpAllocationsDoNotGrowWithTheExponent) {
  std::mt19937_64 rng(5);
  const BigUint m = odd(BigUint::from_hex(operand_hex(1024, 0, rng)));
  const BigUint base = BigUint::from_hex(operand_hex(1000, 0, rng));
  const BigUint short_exp = BigUint::from_hex(operand_hex(64, 0, rng));
  const BigUint long_exp = BigUint::from_hex(operand_hex(1024, 0, rng));
  auto count = [&](const BigUint& exp) {
    const std::uint64_t before = tl_heap_allocations;
    BigUint r = BigUint::mod_exp(base, exp, m);
    const std::uint64_t used = tl_heap_allocations - before;
    EXPECT_FALSE(r.is_zero());
    return used;
  };
  const std::uint64_t short_allocs = count(short_exp);
  const std::uint64_t long_allocs = count(long_exp);
  EXPECT_EQ(short_allocs, long_allocs);
  EXPECT_LE(long_allocs, 12u);  // context, window scratch and the result
}

}  // namespace
}  // namespace gs::security
