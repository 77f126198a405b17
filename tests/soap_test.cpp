// Tests for SOAP envelopes and WS-Addressing.
#include <gtest/gtest.h>

#include "soap/envelope.hpp"
#include "soap/namespaces.hpp"
#include "xml/parser.hpp"

namespace gs::soap {
namespace {

TEST(Envelope, FreshEnvelopeHasHeaderAndBody) {
  Envelope env;
  const std::string wire = env.to_xml();
  EXPECT_NE(wire.find("<soap:Header/><soap:Body/>"), std::string::npos) << wire;
  EXPECT_EQ(env.payload(), nullptr);
  EXPECT_EQ(Envelope::from_xml(wire).payload(), nullptr);
}

TEST(Envelope, PayloadAccess) {
  Envelope env;
  env.add_payload(xml::QName("urn:app", "Op")).set_text("x");
  ASSERT_NE(env.payload(), nullptr);
  EXPECT_EQ(env.payload()->name().local(), "Op");
}

TEST(Envelope, WireRoundTrip) {
  Envelope env;
  MessageInfo info;
  info.to = "http://host/svc";
  info.action = "urn:app/Op";
  info.message_id = "urn:uuid:123";
  env.write_addressing(info);
  env.add_payload(xml::QName("urn:app", "Op")).set_text("payload");

  Envelope back = Envelope::from_xml(env.to_xml());
  MessageInfo read = back.read_addressing();
  EXPECT_EQ(read.to, "http://host/svc");
  EXPECT_EQ(read.action, "urn:app/Op");
  EXPECT_EQ(read.message_id, "urn:uuid:123");
  EXPECT_EQ(back.payload()->text(), "payload");
}

TEST(Envelope, FromXmlRejectsNonEnvelope) {
  EXPECT_THROW(Envelope::from_xml("<notsoap/>"), std::runtime_error);
}

TEST(Envelope, CopyIsDeep) {
  Envelope a;
  a.add_payload(xml::QName("x")).set_text("1");
  Envelope b = a;
  b.payload()->set_text("2");
  EXPECT_EQ(a.payload()->text(), "1");
}

// --- addressing -----------------------------------------------------------------

TEST(Addressing, ReferenceHeadersEchoEprProperties) {
  EndpointReference epr("http://host/svc");
  epr.add_reference_property(xml::QName("urn:impl", "ResourceID"), "abc");

  Envelope env;
  MessageInfo info;
  info.target(epr);
  info.action = "urn:op";
  env.write_addressing(info);

  MessageInfo read = Envelope::from_xml(env.to_xml()).read_addressing();
  EXPECT_EQ(read.to, "http://host/svc");
  EXPECT_EQ(read.reference_header(xml::QName("urn:impl", "ResourceID")), "abc");
}

TEST(Addressing, AddressingHeadersAreNotReferenceHeaders) {
  Envelope env;
  MessageInfo info;
  info.to = "http://a";
  info.action = "urn:op";
  info.message_id = "urn:uuid:1";
  env.write_addressing(info);
  MessageInfo read = env.read_addressing();
  EXPECT_TRUE(read.reference_headers.empty());
}

TEST(Addressing, ReplyToRoundTrips) {
  EndpointReference reply("http://client/sink");
  Envelope env;
  MessageInfo info;
  info.reply_to = reply;
  env.write_addressing(info);
  MessageInfo read = Envelope::from_xml(env.to_xml()).read_addressing();
  EXPECT_EQ(read.reply_to.address(), "http://client/sink");
}

TEST(Addressing, EprEquality) {
  EndpointReference a("http://x");
  a.add_reference_property(xml::QName("id"), "1");
  EndpointReference b("http://x");
  b.add_reference_property(xml::QName("id"), "1");
  EXPECT_EQ(a, b);
  b.add_reference_property(xml::QName("id2"), "2");
  EXPECT_NE(a, b);
}

TEST(Addressing, EprCopySemantics) {
  EndpointReference a("http://x");
  a.add_reference_property(xml::QName("id"), "1");
  EndpointReference b = a;
  b.add_reference_property(xml::QName("id2"), "2");
  EXPECT_EQ(a.reference_properties().size(), 1u);
  EXPECT_EQ(b.reference_properties().size(), 2u);
}

TEST(Addressing, EprXmlRoundTrip) {
  EndpointReference epr("http://host/svc");
  epr.add_reference_property(xml::QName("urn:impl", "ResourceID"), "abc");
  auto el = epr.to_xml(xml::QName("urn:t", "EPR"));
  EndpointReference back = EndpointReference::from_xml(*el);
  EXPECT_EQ(epr, back);
}

TEST(Addressing, FromXmlRequiresAddress) {
  auto el = xml::parse_element("<EPR/>");
  EXPECT_THROW(EndpointReference::from_xml(*el), std::runtime_error);
}

TEST(Addressing, StructuredReferenceProperty) {
  EndpointReference epr("http://host");
  auto prop = std::make_unique<xml::Element>(xml::QName("urn:x", "Key"));
  prop->append_element(xml::QName("urn:x", "Part")).set_text("v");
  epr.add_reference_property(std::move(prop));
  auto el = epr.to_xml(xml::QName("EPR"));
  EndpointReference back = EndpointReference::from_xml(*el);
  EXPECT_EQ(back, epr);
}

// --- faults ----------------------------------------------------------------------

TEST(Fault, RoundTrip) {
  Fault f;
  f.code = "Sender";
  f.subcode = "wsbf:ResourceUnknownFault";
  f.reason = "no such resource";
  f.detail = "details here";
  Envelope env = Envelope::make_fault(f);
  EXPECT_TRUE(env.is_fault());

  Envelope back = Envelope::from_xml(env.to_xml());
  ASSERT_TRUE(back.is_fault());
  Fault read = back.fault();
  EXPECT_EQ(read.code, "Sender");
  EXPECT_EQ(read.subcode, "wsbf:ResourceUnknownFault");
  EXPECT_EQ(read.reason, "no such resource");
  EXPECT_EQ(read.detail, "details here");
}

TEST(Fault, ThrowIfFault) {
  Envelope env = Envelope::make_fault({"Receiver", "boom", "", ""});
  EXPECT_THROW(env.throw_if_fault(), SoapFault);
  Envelope ok;
  EXPECT_NO_THROW(ok.throw_if_fault());
}

TEST(Fault, NonFaultEnvelopeFaultAccessorThrows) {
  Envelope env;
  EXPECT_FALSE(env.is_fault());
  EXPECT_THROW(env.fault(), std::runtime_error);
}

TEST(Fault, SoapFaultCarriesReasonAsWhat) {
  SoapFault f("Sender", "bad input");
  EXPECT_STREQ(f.what(), "bad input");
  EXPECT_EQ(f.fault().code, "Sender");
}

}  // namespace
}  // namespace gs::soap
