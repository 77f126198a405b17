#include "security/xmlsig.hpp"

#include "common/encoding.hpp"
#include "soap/namespaces.hpp"

namespace gs::security {

namespace {

xml::QName wsse(const char* local) { return {soap::ns::kSecurity, local}; }
xml::QName ds(const char* local) { return {soap::ns::kDsig, local}; }

const xml::Element* find_security_header(const soap::Envelope& env) {
  // header_child answers from the wire view when the envelope was parsed on
  // the fast path, materializing only the Security subtree.
  return env.header_child(wsse("Security"));
}

}  // namespace

std::string signed_content(const soap::Envelope& env) {
  // Canonical Body, then the addressing headers in a fixed order (the
  // envelope computes this straight from its wire view when it has one, and
  // memoizes until mutation — verification paths reuse it). Any mutation of
  // these parts after signing invalidates the signature.
  return env.canonical_signed_content();
}

void sign_envelope(soap::Envelope& env, const Credential& credential) {
  // The signed content leaves out the Security header, so an earlier
  // signature (re-signing after mutation) does not change it; replace_header
  // swaps that signature for this one.
  Digest256 digest = Sha256::digest(signed_content(env));
  std::vector<std::uint8_t> signature = rsa_sign(credential.key, digest);

  auto sec = std::make_unique<xml::Element>(wsse("Security"));
  sec->declare_prefix("wsse", soap::ns::kSecurity);
  sec->declare_prefix("ds", soap::ns::kDsig);
  sec->append_element(wsse("BinarySecurityToken"))
      .set_text(credential.cert.to_token());

  xml::Element& sig = sec->append_element(ds("Signature"));
  xml::Element& signed_info = sig.append_element(ds("SignedInfo"));
  signed_info.append_element(ds("CanonicalizationMethod"))
      .set_attr("Algorithm", "urn:gridstacks:c14n-lite");
  signed_info.append_element(ds("SignatureMethod"))
      .set_attr("Algorithm", "urn:gridstacks:rsa-sha256");
  xml::Element& reference = signed_info.append_element(ds("Reference"));
  reference.set_attr("URI", "#body-and-addressing");
  reference.append_element(ds("DigestValue")).set_text(common::base64_encode(digest));
  sig.append_element(ds("SignatureValue"))
      .set_text(common::base64_encode(signature));
  env.replace_header(std::move(sec));
}

bool is_signed(const soap::Envelope& env) {
  return find_security_header(env) != nullptr;
}

VerifiedIdentity verify_envelope(const soap::Envelope& env,
                                 const Certificate& anchor, common::TimeMs now) {
  const xml::Element* sec = find_security_header(env);
  if (!sec) throw SecurityError("message is not signed (no wsse:Security header)");

  const xml::Element* token = sec->child(wsse("BinarySecurityToken"));
  if (!token) throw SecurityError("Security header has no BinarySecurityToken");
  Certificate cert = Certificate::from_token(token->text());
  verify_certificate(cert, anchor, now);

  const xml::Element* sig = sec->child(ds("Signature"));
  if (!sig) throw SecurityError("Security header has no Signature");
  const xml::Element* signed_info = sig->child(ds("SignedInfo"));
  const xml::Element* sig_value = sig->child(ds("SignatureValue"));
  if (!signed_info || !sig_value) throw SecurityError("Signature is incomplete");
  const xml::Element* reference = signed_info->child(ds("Reference"));
  const xml::Element* digest_el =
      reference ? reference->child(ds("DigestValue")) : nullptr;
  if (!digest_el) throw SecurityError("Signature has no DigestValue");

  // Recompute the digest over the received content.
  Digest256 actual = Sha256::digest(signed_content(env));
  auto claimed = common::base64_decode(digest_el->text());
  if (!claimed || claimed->size() != actual.size() ||
      !std::equal(actual.begin(), actual.end(), claimed->begin())) {
    throw SecurityError("message digest mismatch (content was modified)");
  }

  auto signature = common::base64_decode(sig_value->text());
  if (!signature) throw SecurityError("SignatureValue is not valid base64");
  if (!rsa_verify(cert.subject_key, actual, *signature)) {
    throw SecurityError("message signature verification failed");
  }
  return VerifiedIdentity{cert.subject_dn, cert.subject_key};
}

}  // namespace gs::security
