#include "security/cert.hpp"

#include <limits>
#include <stdexcept>

#include "common/encoding.hpp"
#include "common/parse.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace gs::security {

namespace {
constexpr const char* kCertNs = "http://gridstacks.dev/security/cert";
xml::QName cert_name(const char* local) { return {kCertNs, local}; }

constexpr size_t kMaxModulusBits = 4096;

// A key number from a peer-supplied token: at most `max_bits` bits of hex,
// checked before parsing, so an oversized field costs one length test.
BigUint parse_key_hex(const std::string& hex, size_t max_bits, const char* what) {
  if (hex.size() > (max_bits + 3) / 4) {
    throw SecurityError(std::string("certificate ") + what + " exceeds " +
                        std::to_string(max_bits) + " bits");
  }
  try {
    return BigUint::from_hex(hex);
  } catch (const std::invalid_argument&) {
    throw SecurityError(std::string("certificate ") + what + " is not hex");
  }
}
}  // namespace

std::string Certificate::tbs() const {
  return subject_dn + "\n" + issuer_dn + "\n" + subject_key.n.to_hex() + "\n" +
         subject_key.e.to_hex() + "\n" + std::to_string(not_before) + "\n" +
         std::to_string(not_after);
}

std::unique_ptr<xml::Element> Certificate::to_xml() const {
  auto el = std::make_unique<xml::Element>(cert_name("Certificate"));
  el->append_element(cert_name("Subject")).set_text(subject_dn);
  el->append_element(cert_name("Issuer")).set_text(issuer_dn);
  auto& key = el->append_element(cert_name("PublicKey"));
  key.append_element(cert_name("Modulus")).set_text(subject_key.n.to_hex());
  key.append_element(cert_name("Exponent")).set_text(subject_key.e.to_hex());
  el->append_element(cert_name("NotBefore")).set_text(std::to_string(not_before));
  el->append_element(cert_name("NotAfter")).set_text(std::to_string(not_after));
  el->append_element(cert_name("Signature"))
      .set_text(common::base64_encode(signature));
  return el;
}

Certificate Certificate::from_xml(const xml::Element& el) {
  auto text_of = [&](const char* local) -> std::string {
    const xml::Element* child = el.child(cert_name(local));
    if (!child) throw SecurityError(std::string("certificate missing ") + local);
    return child->text();
  };
  Certificate out;
  out.subject_dn = text_of("Subject");
  out.issuer_dn = text_of("Issuer");
  const xml::Element* key = el.child(cert_name("PublicKey"));
  if (!key) throw SecurityError("certificate missing PublicKey");
  const xml::Element* mod = key->child(cert_name("Modulus"));
  const xml::Element* exp = key->child(cert_name("Exponent"));
  if (!mod || !exp) throw SecurityError("certificate PublicKey incomplete");
  out.subject_key.n = parse_key_hex(mod->text(), kMaxModulusBits, "Modulus");
  out.subject_key.e =
      parse_key_hex(exp->text(), out.subject_key.n.bit_length(), "Exponent");
  // Validity bounds arrive inside a peer-supplied token: a malformed value
  // must reject the certificate, not abort the process out of std::stoll.
  auto not_before = common::parse_number<common::TimeMs>(text_of("NotBefore"));
  auto not_after = common::parse_number<common::TimeMs>(text_of("NotAfter"));
  if (!not_before || !not_after) {
    throw SecurityError("certificate validity bounds are malformed");
  }
  out.not_before = *not_before;
  out.not_after = *not_after;
  auto sig = common::base64_decode(text_of("Signature"));
  if (!sig) throw SecurityError("certificate signature is not valid base64");
  out.signature = std::move(*sig);
  return out;
}

std::string Certificate::to_token() const {
  std::string xml_text = xml::write(*to_xml());
  return common::base64_encode(common::as_bytes(xml_text));
}

Certificate Certificate::from_token(std::string_view token) {
  auto bytes = common::base64_decode(token);
  if (!bytes) throw SecurityError("security token is not valid base64");
  std::string xml_text(bytes->begin(), bytes->end());
  return from_xml(*xml::parse_element(xml_text));
}

CertificateAuthority::CertificateAuthority(std::string dn, RsaKeyPair key)
    : dn_(std::move(dn)), key_(std::move(key)) {
  root_.subject_dn = dn_;
  root_.issuer_dn = dn_;
  root_.subject_key = key_.pub;
  root_.not_before = 0;
  root_.not_after = std::numeric_limits<common::TimeMs>::max();
  root_.signature = rsa_sign(key_, Sha256::digest(root_.tbs()));
}

CertificateAuthority CertificateAuthority::create(std::string dn, size_t bits,
                                                  std::mt19937_64& rng) {
  return CertificateAuthority(std::move(dn), RsaKeyPair::generate(bits, rng));
}

Credential CertificateAuthority::issue(const std::string& subject_dn, size_t bits,
                                       std::mt19937_64& rng,
                                       common::TimeMs not_before,
                                       common::TimeMs not_after) const {
  RsaKeyPair key = RsaKeyPair::generate(bits, rng);
  Certificate cert = certify(subject_dn, key.pub, not_before, not_after);
  return Credential{std::move(cert), std::move(key)};
}

Certificate CertificateAuthority::certify(const std::string& subject_dn,
                                          const RsaPublicKey& key,
                                          common::TimeMs not_before,
                                          common::TimeMs not_after) const {
  Certificate cert;
  cert.subject_dn = subject_dn;
  cert.issuer_dn = dn_;
  cert.subject_key = key;
  cert.not_before = not_before;
  cert.not_after = not_after;
  cert.signature = rsa_sign(key_, Sha256::digest(cert.tbs()));
  return cert;
}

void verify_certificate(const Certificate& cert, const Certificate& anchor,
                        common::TimeMs now) {
  if (cert.issuer_dn != anchor.subject_dn) {
    throw SecurityError("certificate issuer '" + cert.issuer_dn +
                        "' does not match trust anchor '" + anchor.subject_dn + "'");
  }
  if (now < cert.not_before) throw SecurityError("certificate not yet valid");
  if (now > cert.not_after) throw SecurityError("certificate expired");
  if (!rsa_verify(anchor.subject_key, Sha256::digest(cert.tbs()), cert.signature)) {
    throw SecurityError("certificate signature verification failed");
  }
}

}  // namespace gs::security
