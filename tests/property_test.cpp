// Property-based tests: randomized inputs driving invariants that must
// hold for every document / number / message, not just fixtures.
//
// Each suite is a TEST_P over seeds; generators derive structure from a
// seeded mt19937, so failures reproduce exactly.
#include <gtest/gtest.h>

#include <random>

#include "common/encoding.hpp"
#include "net/http.hpp"
#include "security/bignum.hpp"
#include "security/sha256.hpp"
#include "soap/envelope.hpp"
#include "soap/namespaces.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"
#include "xml/pull.hpp"
#include "xml/writer.hpp"
#include "xml/xpath.hpp"

namespace gs {
namespace {

class Seeded : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937 rng{static_cast<unsigned>(GetParam() * 2654435761u + 1)};

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  }

  std::string random_name() {
    static const char* kNames[] = {"a", "item", "Counter", "cv", "Owner",
                                   "Status", "x-y", "deep_node", "T1"};
    return kNames[pick(0, 8)];
  }

  std::string random_text() {
    std::string out;
    int len = pick(0, 12);
    for (int i = 0; i < len; ++i) {
      // Includes the characters that must be escaped plus whitespace.
      static const char kAlphabet[] =
          "abcXYZ012 <>&\"'\t\n._-";
      out += kAlphabet[pick(0, static_cast<int>(sizeof(kAlphabet)) - 2)];
    }
    return out;
  }

  std::string random_ns() {
    static const char* kNs[] = {"", "urn:a", "urn:b", "http://x.example/ns"};
    return kNs[pick(0, 3)];
  }

  std::unique_ptr<xml::Element> random_tree(int depth) {
    auto el = std::make_unique<xml::Element>(
        xml::QName(random_ns(), random_name()));
    int attrs = pick(0, 3);
    for (int i = 0; i < attrs; ++i) {
      el->set_attr(xml::QName(random_ns(), random_name() + std::to_string(i)),
                   random_text());
    }
    int kids = depth > 0 ? pick(0, 3) : 0;
    for (int i = 0; i < kids; ++i) {
      if (pick(0, 3) == 0) {
        el->append_text(random_text());
      } else {
        el->append(random_tree(depth - 1));
      }
    }
    if (kids == 0 && pick(0, 1)) el->set_text(random_text());
    return el;
  }
};

// --- XML round trip -----------------------------------------------------------

class XmlRoundTripProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty, ::testing::Range(0, 25));

TEST_P(XmlRoundTripProperty, ParseOfWriteIsIdentity) {
  auto tree = random_tree(3);
  auto reparsed = xml::parse_element(xml::write(*tree));
  EXPECT_TRUE(xml::Element::deep_equal(*tree, *reparsed))
      << xml::write(*tree);
}

TEST_P(XmlRoundTripProperty, PrettyAndCompactAgreeStructurally) {
  auto tree = random_tree(3);
  // Pretty output inserts whitespace between elements, which is
  // insignificant only for element-only content; compare canonical forms
  // of reparsed compact output instead (whitespace-exact).
  auto compact = xml::parse_element(xml::write(*tree));
  EXPECT_EQ(xml::canonicalize(*tree), xml::canonicalize(*compact));
}

TEST_P(XmlRoundTripProperty, CloneEqualsOriginal) {
  auto tree = random_tree(3);
  EXPECT_TRUE(xml::Element::deep_equal(*tree, *tree->clone_element()));
}

TEST_P(XmlRoundTripProperty, CanonicalFormIsRoundTripInvariant) {
  auto tree = random_tree(3);
  auto reparsed = xml::parse_element(xml::write(*tree));
  EXPECT_EQ(xml::canonicalize(*tree), xml::canonicalize(*reparsed));
}

TEST_P(XmlRoundTripProperty, AttributeOrderDoesNotAffectCanonicalForm) {
  auto tree = random_tree(2);
  // Rebuild with attributes in reversed order.
  std::function<std::unique_ptr<xml::Element>(const xml::Element&)> reversed =
      [&](const xml::Element& el) {
        auto out = std::make_unique<xml::Element>(el.name());
        auto attrs = el.attributes();
        for (auto it = attrs.rbegin(); it != attrs.rend(); ++it) {
          out->set_attr(it->name, it->value);
        }
        for (const auto& child : el.children()) {
          if (child->kind() == xml::NodeKind::kElement) {
            out->append(reversed(static_cast<const xml::Element&>(*child)));
          } else {
            out->append(child->clone());
          }
        }
        return out;
      };
  EXPECT_EQ(xml::canonicalize(*tree), xml::canonicalize(*reversed(*tree)));
}

// --- envelopes ------------------------------------------------------------------

class EnvelopeProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeProperty, ::testing::Range(0, 10));

TEST_P(EnvelopeProperty, AddressingSurvivesTheWire) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.to = "http://host-" + std::to_string(pick(0, 99)) + "/svc";
  info.action = "urn:act-" + std::to_string(pick(0, 99));
  info.message_id = "urn:uuid:" + std::to_string(pick(0, 1 << 30));
  soap::EndpointReference reply("http://reply-" + std::to_string(pick(0, 9)));
  reply.add_reference_property(xml::QName("urn:impl", "Key"), random_text());
  info.reply_to = reply;
  env.write_addressing(info);
  env.add_payload(random_tree(2));

  soap::MessageInfo read =
      soap::Envelope::from_xml(env.to_xml()).read_addressing();
  EXPECT_EQ(read.to, info.to);
  EXPECT_EQ(read.action, info.action);
  EXPECT_EQ(read.message_id, info.message_id);
  EXPECT_EQ(read.reply_to, info.reply_to);
}

TEST_P(EnvelopeProperty, PayloadSurvivesTheWire) {
  soap::Envelope env;
  auto payload = random_tree(3);
  auto expected = payload->clone_element();
  env.add_payload(std::move(payload));
  soap::Envelope back = soap::Envelope::from_xml(env.to_xml());
  ASSERT_NE(back.payload(), nullptr);
  EXPECT_TRUE(xml::Element::deep_equal(*expected, *back.payload()));
}

TEST_P(EnvelopeProperty, SignedContentOfPartsMatchesTheWire) {
  // A signature made from an envelope's parts must verify against the view
  // the receiver parses: both canonicalize to the same bytes, which are
  // xml::canonicalize of the Body and the four addressing headers.
  soap::Envelope env;
  soap::MessageInfo info;
  info.to = "http://host-" + std::to_string(pick(0, 99)) + "/svc";
  info.action = "urn:act-" + random_text();
  info.message_id = "urn:uuid:" + std::to_string(pick(0, 1 << 30));
  if (pick(0, 1)) info.relates_to = "urn:uuid:" + std::to_string(pick(0, 99));
  if (pick(0, 1)) {
    soap::EndpointReference reply("http://reply-" + std::to_string(pick(0, 9)));
    reply.add_reference_property(xml::QName("urn:impl", "Key"), random_text());
    info.reply_to = reply;
  }
  for (int i = pick(0, 2); i > 0; --i) info.reference_headers.push_back(random_tree(1));
  env.write_addressing(std::move(info));
  if (pick(0, 1)) env.add_payload(random_tree(2));
  if (pick(0, 1)) {
    env.add_payload_octets(
        std::make_shared<const std::string>(xml::write(*random_tree(2))));
  }
  const std::string wire = env.to_xml();

  auto dom = xml::ArenaDocument::parse(wire).to_dom();
  std::string expected = xml::canonicalize(*dom->child({soap::ns::kEnvelope, "Body"}));
  const xml::Element* header = dom->child({soap::ns::kEnvelope, "Header"});
  for (const char* name : {"To", "Action", "MessageID", "RelatesTo"}) {
    if (const xml::Element* h = header->child({soap::ns::kAddressing, name}))
      expected += xml::canonicalize(*h);
  }
  EXPECT_EQ(env.canonical_signed_content(), expected) << wire;
  EXPECT_EQ(soap::Envelope::from_xml(wire).canonical_signed_content(), expected);
}

// --- base64 / hex -----------------------------------------------------------------

class CodecProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range(0, 15));

TEST_P(CodecProperty, Base64RoundTripsArbitraryBytes) {
  std::vector<std::uint8_t> bytes(static_cast<size_t>(pick(0, 200)));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(pick(0, 255));
  auto decoded = common::base64_decode(common::base64_encode(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bytes);
}

TEST_P(CodecProperty, HexRoundTripsArbitraryBytes) {
  std::vector<std::uint8_t> bytes(static_cast<size_t>(pick(0, 200)));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(pick(0, 255));
  auto decoded = common::hex_decode(common::hex_encode(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bytes);
}

// --- bignum ------------------------------------------------------------------------

class BignumProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, BignumProperty, ::testing::Range(0, 12));

TEST_P(BignumProperty, AdditionSubtractionInverse) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 99);
  auto a = security::BigUint::random_bits(static_cast<size_t>(pick(8, 256)), rng64);
  auto b = security::BigUint::random_bits(static_cast<size_t>(pick(8, 256)), rng64);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a + b) - a, b);
}

TEST_P(BignumProperty, MultiplicationDistributes) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 7);
  auto a = security::BigUint::random_bits(96, rng64);
  auto b = security::BigUint::random_bits(80, rng64);
  auto c = security::BigUint::random_bits(64, rng64);
  EXPECT_EQ(a * (b + c), a * b + a * c);
}

TEST_P(BignumProperty, ModExpHomomorphism) {
  // (x^a * x^b) mod n == x^(a+b) mod n
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 13);
  auto n = security::BigUint::random_bits(128, rng64);
  if (!n.is_odd()) n = n + security::BigUint(1);
  auto x = security::BigUint::random_below(n, rng64);
  auto a = security::BigUint::random_bits(32, rng64);
  auto b = security::BigUint::random_bits(32, rng64);
  auto lhs = (security::BigUint::mod_exp(x, a, n) *
              security::BigUint::mod_exp(x, b, n)) % n;
  auto rhs = security::BigUint::mod_exp(x, a + b, n);
  EXPECT_EQ(lhs, rhs);
}

TEST_P(BignumProperty, BytesRoundTrip) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 23);
  auto v = security::BigUint::random_bits(static_cast<size_t>(pick(1, 300)), rng64);
  EXPECT_EQ(security::BigUint::from_bytes(v.to_bytes()), v);
  EXPECT_EQ(security::BigUint::from_hex(v.to_hex()), v);
}

TEST_P(BignumProperty, ModInverseIsInverse) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 31);
  auto m = security::BigUint::random_prime(64, rng64);
  auto a = security::BigUint(2) +
           security::BigUint::random_below(m - security::BigUint(3), rng64);
  auto inv = security::BigUint::mod_inverse(a, m);
  EXPECT_EQ((a * inv) % m, security::BigUint(1));
}

// --- hashes --------------------------------------------------------------------------

class HashProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, HashProperty, ::testing::Range(0, 8));

TEST_P(HashProperty, ChunkingDoesNotChangeDigest) {
  std::string data;
  int len = pick(0, 500);
  for (int i = 0; i < len; ++i) data += static_cast<char>(pick(0, 255));

  security::Sha256 chunked;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t take = std::min<size_t>(static_cast<size_t>(pick(1, 64)),
                                   data.size() - pos);
    chunked.update(std::string_view(data).substr(pos, take));
    pos += take;
  }
  EXPECT_EQ(chunked.finish(), security::Sha256::digest(data));
}

TEST_P(HashProperty, SingleBitChangesDigest) {
  std::string data(static_cast<size_t>(pick(1, 100)), 'x');
  auto original = security::Sha256::digest(data);
  data[static_cast<size_t>(pick(0, static_cast<int>(data.size()) - 1))] ^= 1;
  EXPECT_NE(security::Sha256::digest(data), original);
}

// --- HTTP framing ----------------------------------------------------------------------

class HttpProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, HttpProperty, ::testing::Range(0, 10));

TEST_P(HttpProperty, RequestFramingRoundTrips) {
  net::HttpRequest req;
  req.method = pick(0, 1) ? "POST" : "GET";
  req.path = "/p" + std::to_string(pick(0, 999));
  req.host = "h" + std::to_string(pick(0, 99));
  int headers = pick(0, 4);
  for (int i = 0; i < headers; ++i) {
    req.headers["X-H" + std::to_string(i)] = "v" + std::to_string(pick(0, 9));
  }
  int len = pick(0, 300);
  for (int i = 0; i < len; ++i) req.body += static_cast<char>(pick(0, 255));

  auto back = net::HttpRequest::parse(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->method, req.method);
  EXPECT_EQ(back->path, req.path);
  EXPECT_EQ(back->host, req.host);
  EXPECT_EQ(back->headers, req.headers);
  EXPECT_EQ(back->body, req.body);
}

// --- XPath algebra ------------------------------------------------------------------------

class XPathProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, XPathProperty, ::testing::Range(0, 10));

TEST_P(XPathProperty, UnionIsCommutativeOnRandomTrees) {
  auto tree = random_tree(3);
  auto ab = xml::XPathExpr::compile("//item | //a").select_elements(*tree);
  auto ba = xml::XPathExpr::compile("//a | //item").select_elements(*tree);
  // Same node sets (order may differ).
  std::set<const xml::Element*> sa(ab.begin(), ab.end());
  std::set<const xml::Element*> sb(ba.begin(), ba.end());
  EXPECT_EQ(sa, sb);
}

TEST_P(XPathProperty, CountMatchesSelectionSize) {
  auto tree = random_tree(3);
  auto selected = xml::XPathExpr::compile("//item").select_elements(*tree);
  double counted =
      xml::XPathExpr::compile("count(//item)").eval(*tree).to_number();
  EXPECT_EQ(static_cast<size_t>(counted), selected.size());
}

TEST_P(XPathProperty, PredicateTrueIsIdentity) {
  auto tree = random_tree(3);
  auto plain = xml::XPathExpr::compile("//a").select_elements(*tree);
  auto filtered = xml::XPathExpr::compile("//a[true()]").select_elements(*tree);
  EXPECT_EQ(plain, filtered);
  EXPECT_TRUE(
      xml::XPathExpr::compile("//a[false()]").select_elements(*tree).empty());
}

TEST_P(XPathProperty, DescendantSupersetOfChild) {
  auto tree = random_tree(3);
  auto children = xml::XPathExpr::compile("item").select_elements(*tree);
  auto descendants = xml::XPathExpr::compile("//item").select_elements(*tree);
  std::set<const xml::Element*> d(descendants.begin(), descendants.end());
  for (const auto* c : children) {
    EXPECT_TRUE(d.contains(c));
  }
}

}  // namespace
}  // namespace gs
