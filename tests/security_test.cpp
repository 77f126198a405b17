// Tests for the security substrate: hashes, ciphers, bignum/RSA,
// certificates, XML signing and the TLS-lite channel.
#include <gtest/gtest.h>

#include <chrono>

#include "common/encoding.hpp"
#include "security/cert.hpp"
#include "security/chacha20.hpp"
#include "security/sha256.hpp"
#include "security/tls.hpp"
#include "security/xmlsig.hpp"
#include "soap/envelope.hpp"
#include "soap/namespaces.hpp"
#include "xml/writer.hpp"

namespace gs::security {
namespace {

std::mt19937_64 test_rng(0xC0FFEE);

// Shared small keypair fixture (keygen is the slow part; reuse it).
const RsaKeyPair& test_key() {
  static RsaKeyPair key = RsaKeyPair::generate(512, test_rng);
  return key;
}

// --- SHA-256 (FIPS vectors) ----------------------------------------------------

struct ShaCase {
  const char* name;
  const char* input;
  const char* digest;
};

class Sha256Vectors : public ::testing::TestWithParam<ShaCase> {};

INSTANTIATE_TEST_SUITE_P(
    Fips, Sha256Vectors,
    ::testing::Values(
        ShaCase{"Empty", "",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        ShaCase{"Abc", "abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        ShaCase{"TwoBlocks",
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"}),
    [](const auto& info) { return info.param.name; });

TEST_P(Sha256Vectors, MatchesReference) {
  Digest256 d = Sha256::digest(std::string_view(GetParam().input));
  EXPECT_EQ(common::hex_encode(d), GetParam().digest);
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(common::hex_encode(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : data) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), Sha256::digest(data));
}

TEST(Hmac, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  std::string msg = "Hi There";
  Digest256 tag = hmac_sha256(key, common::as_bytes(msg));
  EXPECT_EQ(common::hex_encode(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  std::string key = "Jefe";
  std::string msg = "what do ya want for nothing?";
  Digest256 tag = hmac_sha256(common::as_bytes(key), common::as_bytes(msg));
  EXPECT_EQ(common::hex_encode(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  std::vector<std::uint8_t> key(131, 0xaa);
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  Digest256 tag = hmac_sha256(key, common::as_bytes(msg));
  EXPECT_EQ(common::hex_encode(tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- ChaCha20 (RFC 8439 §2.4.2 vector) ------------------------------------------

TEST(ChaCha20, Rfc8439Vector) {
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[static_cast<size_t>(i)] = static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce{};
  nonce[7] = 0x4a;
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  auto ct = ChaCha20::crypt(key, nonce, common::as_bytes(plaintext), 1);
  EXPECT_EQ(common::hex_encode(std::span<const std::uint8_t>(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Decrypt restores the plaintext.
  auto pt = ChaCha20::crypt(key, nonce, ct, 1);
  EXPECT_EQ(std::string(pt.begin(), pt.end()), plaintext);
}

TEST(ChaCha20, DifferentNoncesDiverge) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> n1{}, n2{};
  n2[0] = 1;
  std::string msg = "same message";
  EXPECT_NE(ChaCha20::crypt(key, n1, common::as_bytes(msg)),
            ChaCha20::crypt(key, n2, common::as_bytes(msg)));
}

// --- bignum ----------------------------------------------------------------------

TEST(BigUint, HexRoundTrip) {
  BigUint v = BigUint::from_hex("deadbeefcafebabe1234567890");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe1234567890");
}

TEST(BigUint, BytesRoundTrip) {
  std::vector<std::uint8_t> bytes = {0x01, 0x02, 0x03, 0xFF};
  EXPECT_EQ(BigUint::from_bytes(bytes).to_bytes(), bytes);
}

TEST(BigUint, ComparisonAndArithmetic) {
  BigUint a(1000000007);
  BigUint b(999999937);
  EXPECT_GT(a, b);
  EXPECT_EQ((a + b).to_u64(), 1999999944ULL);
  EXPECT_EQ((a - b).to_u64(), 70ULL);
  EXPECT_EQ((a * b).to_hex(), BigUint(1000000007ULL * 999999937ULL).to_hex());
  EXPECT_THROW(b - a, std::underflow_error);
}

TEST(BigUint, Shifts) {
  BigUint one(1);
  EXPECT_EQ((one << 100).bit_length(), 101u);
  EXPECT_EQ(((one << 100) >> 100), one);
  EXPECT_EQ((BigUint(0xF0) >> 4).to_u64(), 0xFu);
}

TEST(BigUint, DivModAgainstU64) {
  BigUint a = BigUint::from_hex("123456789abcdef0123456789abcdef");
  BigUint b(0x87654321);
  auto [q, r] = BigUint::divmod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
  EXPECT_THROW(BigUint::divmod(a, BigUint(0)), std::domain_error);
}

// Property sweep: divmod identity on random operands.
class DivModProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Random, DivModProperty, ::testing::Range(0, 10));

TEST_P(DivModProperty, QuotientRemainderIdentity) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  BigUint a = BigUint::random_bits(160 + GetParam() * 16, rng);
  BigUint b = BigUint::random_bits(64 + GetParam() * 8, rng);
  auto [q, r] = BigUint::divmod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigUint, ModExpMatchesReference) {
  // 3^200 mod 1000000007 computed with 64-bit arithmetic.
  unsigned long long ref = 1;
  for (int i = 0; i < 200; ++i) ref = ref * 3 % 1000000007ULL;
  EXPECT_EQ(BigUint::mod_exp(BigUint(3), BigUint(200), BigUint(1000000007)).to_u64(),
            ref);
}

TEST(BigUint, ModExpOddModulusUsesMontgomery) {
  // Fermat: a^(p-1) = 1 mod p for prime p.
  BigUint p = BigUint::from_hex("ffffffffffffffc5");  // large 64-bit prime
  EXPECT_EQ(BigUint::mod_exp(BigUint(2), p - BigUint(1), p), BigUint(1));
}

TEST(BigUint, ModExpEvenModulusFallback) {
  EXPECT_EQ(BigUint::mod_exp(BigUint(3), BigUint(4), BigUint(100)).to_u64(),
            81u % 100u);
  EXPECT_EQ(BigUint::mod_exp(BigUint(7), BigUint(3), BigUint(1)).to_u64(), 0u);
}

TEST(BigUint, ModInverse) {
  BigUint inv = BigUint::mod_inverse(BigUint(3), BigUint(11));
  EXPECT_EQ((inv * BigUint(3) % BigUint(11)), BigUint(1));
  EXPECT_THROW(BigUint::mod_inverse(BigUint(4), BigUint(8)), std::domain_error);
}

TEST(BigUint, MillerRabinKnownPrimes) {
  std::mt19937_64 rng(1);
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(2), 10, rng));
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(1000000007), 10, rng));
  EXPECT_FALSE(BigUint::is_probable_prime(BigUint(1000000008), 10, rng));
  EXPECT_FALSE(BigUint::is_probable_prime(BigUint(1), 10, rng));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(BigUint::is_probable_prime(BigUint(561), 10, rng));
}

TEST(BigUint, RandomPrimeHasExactBits) {
  std::mt19937_64 rng(7);
  BigUint p = BigUint::random_prime(96, rng);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
}

// --- RSA -------------------------------------------------------------------------

TEST(Rsa, SignVerify) {
  Digest256 d = Sha256::digest(std::string_view("message"));
  auto sig = rsa_sign(test_key(), d);
  EXPECT_TRUE(rsa_verify(test_key().pub, d, sig));
}

TEST(Rsa, VerifyRejectsWrongDigest) {
  Digest256 d = Sha256::digest(std::string_view("message"));
  auto sig = rsa_sign(test_key(), d);
  d[0] ^= 1;
  EXPECT_FALSE(rsa_verify(test_key().pub, d, sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  Digest256 d = Sha256::digest(std::string_view("message"));
  auto sig = rsa_sign(test_key(), d);
  sig[sig.size() / 2] ^= 0x40;
  EXPECT_FALSE(rsa_verify(test_key().pub, d, sig));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  std::mt19937_64 rng(99);
  RsaKeyPair other = RsaKeyPair::generate(512, rng);
  Digest256 d = Sha256::digest(std::string_view("message"));
  auto sig = rsa_sign(test_key(), d);
  EXPECT_FALSE(rsa_verify(other.pub, d, sig));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  std::vector<std::uint8_t> secret = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05};
  auto ct = rsa_encrypt(test_key().pub, secret);
  auto pt = rsa_decrypt(test_key(), ct);
  // Leading zeros are dropped by the numeric round trip.
  std::vector<std::uint8_t> expected = {0x01, 0x02, 0x03, 0x04, 0x05};
  EXPECT_EQ(pt, expected);
}

TEST(Rsa, SignatureLengthIsModulusLength) {
  Digest256 d = Sha256::digest(std::string_view("x"));
  EXPECT_EQ(rsa_sign(test_key(), d).size(), test_key().pub.modulus_bytes());
}

// --- certificates -----------------------------------------------------------------

TEST(Cert, IssueAndVerify) {
  std::mt19937_64 rng(5);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  Credential cred = ca.issue("CN=alice", 512, rng, 0, 10000);
  EXPECT_NO_THROW(verify_certificate(cred.cert, ca.root(), 500));
}

TEST(Cert, RejectsExpired) {
  std::mt19937_64 rng(6);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  Credential cred = ca.issue("CN=alice", 512, rng, 100, 200);
  EXPECT_THROW(verify_certificate(cred.cert, ca.root(), 300), SecurityError);
  EXPECT_THROW(verify_certificate(cred.cert, ca.root(), 50), SecurityError);
}

TEST(Cert, RejectsWrongIssuer) {
  std::mt19937_64 rng(7);
  auto ca1 = CertificateAuthority::create("CN=CA1", 512, rng);
  auto ca2 = CertificateAuthority::create("CN=CA2", 512, rng);
  Credential cred = ca1.issue("CN=alice", 512, rng, 0, 10000);
  EXPECT_THROW(verify_certificate(cred.cert, ca2.root(), 500), SecurityError);
}

TEST(Cert, RejectsTamperedSubject) {
  std::mt19937_64 rng(8);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  Credential cred = ca.issue("CN=alice", 512, rng, 0, 10000);
  cred.cert.subject_dn = "CN=mallory";
  EXPECT_THROW(verify_certificate(cred.cert, ca.root(), 500), SecurityError);
}

TEST(Cert, TokenRoundTrip) {
  std::mt19937_64 rng(9);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  Credential cred = ca.issue("CN=alice", 512, rng, 0, 10000);
  Certificate back = Certificate::from_token(cred.cert.to_token());
  EXPECT_EQ(back.subject_dn, "CN=alice");
  EXPECT_EQ(back.subject_key, cred.cert.subject_key);
  EXPECT_NO_THROW(verify_certificate(back, ca.root(), 500));
}

TEST(Cert, MalformedValidityBoundsAreRejectedNotFatal) {
  // A peer's token is attacker-controlled text; garbage in NotBefore used
  // to escape Certificate::from_xml as std::invalid_argument from stoll
  // and kill the process. It must read as "bad certificate" instead.
  std::mt19937_64 rng(11);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  Credential cred = ca.issue("CN=alice", 512, rng, 0, 10000);
  for (const char* bad : {"boom", "", "12abc", "99999999999999999999999"}) {
    auto doc = cred.cert.to_xml();
    doc->child_local("NotBefore")->set_text(bad);
    EXPECT_THROW(Certificate::from_xml(*doc), SecurityError)
        << "NotBefore=" << bad;
  }
  auto doc = cred.cert.to_xml();
  doc->child_local("NotAfter")->set_text("never");
  EXPECT_THROW(Certificate::from_xml(*doc), SecurityError);
  // Untampered round trip still parses.
  EXPECT_NO_THROW(Certificate::from_xml(*cred.cert.to_xml()));
}

// The key numbers in a peer's token are bounded and typed: an oversized
// Modulus costs a length check, not a quadratic parse, and a bad digit is a
// rejected certificate, not a std::invalid_argument the container does not
// catch.
std::string token_with_key(const Certificate& cert, const std::string& modulus,
                           const std::string& exponent) {
  auto doc = cert.to_xml();
  xml::Element* key = doc->child_local("PublicKey");
  key->child_local("Modulus")->set_text(modulus);
  key->child_local("Exponent")->set_text(exponent);
  return common::base64_encode(common::as_bytes(xml::write(*doc)));
}

TEST(Cert, OversizedModulusIsRejectedFast) {
  std::mt19937_64 rng(12);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  const std::string huge(1 << 20, 'f');  // 1 MiB of hex: 4 Mbit
  EXPECT_THROW(Certificate::from_token(token_with_key(ca.root(), huge, "10001")),
               SecurityError);
  // The certificate decoder rejects it in bounded time. Timed on the parsed
  // element: the base64 and XML layers in front of it are linear with their
  // own limits, and under sanitizers they alone take longer than 50 ms.
  auto doc = ca.root().to_xml();
  doc->child_local("PublicKey")->child_local("Modulus")->set_text(huge);
  auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(Certificate::from_xml(*doc), SecurityError);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  // 4096 bits is the ceiling: one more digit is over it.
  const std::string at_cap = "8" + std::string(1023, '1');
  EXPECT_EQ(Certificate::from_token(token_with_key(ca.root(), at_cap, "10001"))
                .subject_key.n.bit_length(),
            4096u);
  EXPECT_THROW(Certificate::from_token(token_with_key(ca.root(), at_cap + "1", "3")),
               SecurityError);
}

TEST(Cert, MalformedKeyHexIsASecurityError) {
  std::mt19937_64 rng(13);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  const std::string n = ca.root().subject_key.n.to_hex();
  EXPECT_THROW(Certificate::from_token(token_with_key(ca.root(), n + "g", "10001")),
               SecurityError);
  EXPECT_THROW(Certificate::from_token(token_with_key(ca.root(), n, "1 0001")),
               SecurityError);
  // The exponent may not be longer than the modulus.
  EXPECT_THROW(Certificate::from_token(token_with_key(ca.root(), n, n + "1")),
               SecurityError);
  EXPECT_EQ(Certificate::from_token(token_with_key(ca.root(), n, "10001")).subject_key,
            ca.root().subject_key);
}

TEST(Cert, RootIsSelfSigned) {
  std::mt19937_64 rng(10);
  auto ca = CertificateAuthority::create("CN=TestCA", 512, rng);
  EXPECT_NO_THROW(verify_certificate(ca.root(), ca.root(), 12345));
}

// --- XML message signing ------------------------------------------------------------

struct SigningFixture {
  std::mt19937_64 rng{11};
  CertificateAuthority ca = CertificateAuthority::create("CN=GridCA", 512, rng);
  Credential alice = ca.issue("CN=alice", 512, rng, 0, 1'000'000);

  soap::Envelope make_message() {
    soap::Envelope env;
    soap::MessageInfo info;
    info.to = "http://host/svc";
    info.action = "urn:op";
    info.message_id = "urn:uuid:42";
    env.write_addressing(info);
    env.add_payload(xml::QName("urn:app", "Op")).set_text("data");
    return env;
  }
};

TEST(XmlSig, SignAndVerify) {
  SigningFixture fx;
  soap::Envelope env = fx.make_message();
  EXPECT_FALSE(is_signed(env));
  sign_envelope(env, fx.alice);
  EXPECT_TRUE(is_signed(env));
  VerifiedIdentity id = verify_envelope(env, fx.ca.root(), 500);
  EXPECT_EQ(id.subject_dn, "CN=alice");
}

TEST(XmlSig, SurvivesWireRoundTrip) {
  SigningFixture fx;
  soap::Envelope env = fx.make_message();
  sign_envelope(env, fx.alice);
  soap::Envelope received = soap::Envelope::from_xml(env.to_xml());
  EXPECT_NO_THROW(verify_envelope(received, fx.ca.root(), 500));
}

TEST(XmlSig, DetectsBodyTampering) {
  SigningFixture fx;
  soap::Envelope env = fx.make_message();
  sign_envelope(env, fx.alice);
  env.payload()->set_text("tampered");
  EXPECT_THROW(verify_envelope(env, fx.ca.root(), 500), SecurityError);
}

TEST(XmlSig, DetectsAddressingTampering) {
  SigningFixture fx;
  soap::Envelope env = fx.make_message();
  sign_envelope(env, fx.alice);
  // Redirect the To header after signing: replay-style attack, on the wire
  // and on the signed envelope itself.
  std::string wire = env.to_xml();
  const std::string to = "http://host/svc";
  wire.replace(wire.find(to), to.size(), "http://evil/svc");
  EXPECT_THROW(verify_envelope(soap::Envelope::from_xml(wire), fx.ca.root(), 500),
               SecurityError);
  auto evil = std::make_unique<xml::Element>(soap::ns::kAddressing, "To");
  evil->set_text("http://evil/svc");
  env.replace_header(std::move(evil));
  EXPECT_THROW(verify_envelope(env, fx.ca.root(), 500), SecurityError);
}

TEST(XmlSig, TamperAfterVerifyIsDetectedInBothStates) {
  // A verify memoizes the signed content; any later mutation must drop it,
  // whether the envelope was built (parts) or received (view).
  SigningFixture fx;
  soap::Envelope built = fx.make_message();
  sign_envelope(built, fx.alice);
  soap::Envelope received = soap::Envelope::from_xml(built.to_xml());
  for (soap::Envelope* env : {&built, &received}) {
    EXPECT_NO_THROW(verify_envelope(*env, fx.ca.root(), 500));
    env->payload()->set_text("tampered");
    EXPECT_THROW(verify_envelope(*env, fx.ca.root(), 500), SecurityError);
  }
  soap::Envelope relayed = fx.make_message();
  sign_envelope(relayed, fx.alice);
  EXPECT_NO_THROW(verify_envelope(relayed, fx.ca.root(), 500));
  soap::MessageInfo extra;
  extra.relates_to = "urn:uuid:forged";
  relayed.write_addressing(std::move(extra));  // the first RelatesTo now
  EXPECT_THROW(verify_envelope(relayed, fx.ca.root(), 500), SecurityError);
}

TEST(XmlSig, RejectsUnsignedMessage) {
  SigningFixture fx;
  soap::Envelope env = fx.make_message();
  EXPECT_THROW(verify_envelope(env, fx.ca.root(), 500), SecurityError);
}

TEST(XmlSig, RejectsUntrustedSigner) {
  SigningFixture fx;
  std::mt19937_64 rng(12);
  auto other_ca = CertificateAuthority::create("CN=OtherCA", 512, rng);
  Credential mallory = other_ca.issue("CN=mallory", 512, rng, 0, 1'000'000);
  soap::Envelope env = fx.make_message();
  sign_envelope(env, mallory);
  EXPECT_THROW(verify_envelope(env, fx.ca.root(), 500), SecurityError);
}

TEST(XmlSig, ResigningReplacesHeader) {
  SigningFixture fx;
  soap::Envelope env = fx.make_message();
  sign_envelope(env, fx.alice);
  env.payload()->set_text("v2");
  sign_envelope(env, fx.alice);  // re-sign after mutation
  EXPECT_NO_THROW(verify_envelope(env, fx.ca.root(), 500));
  // Only one Security header on the wire.
  const std::string wire = env.to_xml();
  const std::string open = "<wsse:Security";
  EXPECT_EQ(wire.find(open), wire.rfind(open)) << wire;
  EXPECT_NE(wire.find(open), std::string::npos);
}

// --- TLS-lite -----------------------------------------------------------------------

struct TlsFixture {
  std::mt19937_64 rng{13};
  CertificateAuthority ca = CertificateAuthority::create("CN=GridCA", 512, rng);
  Credential server = ca.issue("CN=server", 512, rng, 0, 1'000'000);
  TlsSessionCache cache;
};

TEST(Tls, FullHandshakeAndRecords) {
  TlsFixture fx;
  TlsHandshake hs = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                      "host:443", 500, fx.rng);
  EXPECT_FALSE(hs.resumed);
  EXPECT_EQ(hs.round_trips, 2);

  std::string msg = "GET / HTTP/1.1\r\n\r\n";
  auto sealed = hs.client.seal(common::as_bytes(msg));
  auto opened = hs.server.open(sealed);
  EXPECT_EQ(std::string(opened.begin(), opened.end()), msg);

  // And the reverse direction.
  std::string reply = "HTTP/1.1 200 OK\r\n\r\n";
  auto sealed2 = hs.server.seal(common::as_bytes(reply));
  auto opened2 = hs.client.open(sealed2);
  EXPECT_EQ(std::string(opened2.begin(), opened2.end()), reply);
}

TEST(Tls, SessionCacheEnablesResumption) {
  TlsFixture fx;
  TlsHandshake first = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                         "host:443", 500, fx.rng);
  EXPECT_FALSE(first.resumed);
  TlsHandshake second = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                          "host:443", 500, fx.rng);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.round_trips, 1);
  // Resumed channels still carry data.
  std::string msg = "resumed";
  auto opened = second.server.open(second.client.seal(common::as_bytes(msg)));
  EXPECT_EQ(std::string(opened.begin(), opened.end()), msg);
}

TEST(Tls, CacheIsPerAuthority) {
  TlsFixture fx;
  (void)TlsHandshake::run(fx.ca.root(), fx.cache, fx.server, "a:443", 500, fx.rng);
  TlsHandshake other = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                         "b:443", 500, fx.rng);
  EXPECT_FALSE(other.resumed);
  EXPECT_EQ(fx.cache.size(), 2u);
}

TEST(Tls, TamperedRecordRejected) {
  TlsFixture fx;
  TlsHandshake hs = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                      "host:443", 500, fx.rng);
  std::string msg = "secret";
  auto sealed = hs.client.seal(common::as_bytes(msg));
  sealed[6] ^= 1;  // flip a ciphertext bit
  EXPECT_THROW(hs.server.open(sealed), SecurityError);
}

TEST(Tls, ReplayedRecordRejected) {
  TlsFixture fx;
  TlsHandshake hs = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                      "host:443", 500, fx.rng);
  std::string msg = "once";
  auto sealed = hs.client.seal(common::as_bytes(msg));
  (void)hs.server.open(sealed);
  // The sequence number advanced; replaying the same frame fails the MAC.
  EXPECT_THROW(hs.server.open(sealed), SecurityError);
}

TEST(Tls, TruncatedRecordRejected) {
  TlsFixture fx;
  TlsHandshake hs = TlsHandshake::run(fx.ca.root(), fx.cache, fx.server,
                                      "host:443", 500, fx.rng);
  auto sealed = hs.client.seal(common::as_bytes(std::string_view("x")));
  sealed.resize(sealed.size() - 5);
  EXPECT_THROW(hs.server.open(sealed), SecurityError);
}

TEST(Tls, ExpiredServerCertFailsHandshake) {
  TlsFixture fx;
  Credential expired = fx.ca.issue("CN=server", 512, fx.rng, 0, 100);
  EXPECT_THROW(TlsHandshake::run(fx.ca.root(), fx.cache, expired, "host:443",
                                 5000, fx.rng),
               SecurityError);
}

}  // namespace
}  // namespace gs::security
