#include "security/rsa.hpp"

#include <stdexcept>

namespace gs::security {

RsaKeyPair RsaKeyPair::generate(size_t bits, std::mt19937_64& rng) {
  if (bits < 128) throw std::invalid_argument("RSA modulus too small");
  const BigUint e(65537);
  for (;;) {
    BigUint p = BigUint::random_prime(bits / 2, rng);
    BigUint q = BigUint::random_prime(bits - bits / 2, rng);
    if (p == q) continue;
    BigUint n = p * q;
    if (n.bit_length() != bits) continue;
    BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
    if ((phi % e).is_zero()) continue;  // e must be coprime with phi
    RsaKeyPair key;
    key.pub = {std::move(n), e};
    key.d = BigUint::mod_inverse(e, phi);
    key.dp = key.d % (p - BigUint(1));
    key.dq = key.d % (q - BigUint(1));
    key.qinv = BigUint::mod_inverse(q, p);
    key.p = std::move(p);
    key.q = std::move(q);
    return key;
  }
}

namespace {

// EMSA-PKCS1-v1_5 shape: 0x00 0x01 FF..FF 0x00 || digest, sized to the
// modulus. (We skip the DER DigestInfo prefix; the digest length pins the
// hash choice.)
BigUint pad_digest(const Digest256& digest, size_t modulus_bytes) {
  if (modulus_bytes < digest.size() + 11) {
    throw std::invalid_argument("RSA modulus too small for digest padding");
  }
  std::vector<std::uint8_t> em(modulus_bytes, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(), em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return BigUint::from_bytes(em);
}

// x^d mod n by the Chinese remainder theorem (Garner's recombination):
// two half-size exponentiations instead of one full-size one.
BigUint private_op(const RsaKeyPair& key, const BigUint& x) {
  BigUint mp = BigUint::mod_exp(x % key.p, key.dp, key.p);
  BigUint mq = BigUint::mod_exp(x % key.q, key.dq, key.q);
  // h = qinv * (mp - mq) mod p, taking the difference mod p first.
  BigUint mq_mod_p = mq % key.p;
  BigUint diff = mp >= mq_mod_p ? mp - mq_mod_p : mp + key.p - mq_mod_p;
  BigUint h = (key.qinv * diff) % key.p;
  return mq + h * key.q;
}

std::vector<std::uint8_t> to_fixed_bytes(const BigUint& v, size_t size) {
  std::vector<std::uint8_t> bytes = v.to_bytes();
  if (bytes.size() > size) throw std::logic_error("RSA value exceeds modulus size");
  std::vector<std::uint8_t> out(size - bytes.size(), 0);
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

}  // namespace

std::vector<std::uint8_t> rsa_sign(const RsaKeyPair& key, const Digest256& digest) {
  BigUint em = pad_digest(digest, key.pub.modulus_bytes());
  BigUint sig = private_op(key, em);
  return to_fixed_bytes(sig, key.pub.modulus_bytes());
}

bool rsa_verify(const RsaPublicKey& key, const Digest256& digest,
                std::span<const std::uint8_t> signature) {
  if (signature.size() != key.modulus_bytes()) return false;
  BigUint sig = BigUint::from_bytes(signature);
  if (sig >= key.n) return false;
  BigUint em = BigUint::mod_exp(sig, key.e, key.n);
  return em == pad_digest(digest, key.modulus_bytes());
}

std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext) {
  BigUint m = BigUint::from_bytes(plaintext);
  if (m >= key.n) throw std::invalid_argument("RSA plaintext too large");
  return to_fixed_bytes(BigUint::mod_exp(m, key.e, key.n), key.modulus_bytes());
}

std::vector<std::uint8_t> rsa_decrypt(const RsaKeyPair& key,
                                      std::span<const std::uint8_t> ciphertext) {
  BigUint c = BigUint::from_bytes(ciphertext);
  if (c >= key.pub.n) throw std::invalid_argument("RSA ciphertext too large");
  return private_op(key, c).to_bytes();
}

}  // namespace gs::security
