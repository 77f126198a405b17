// Tests for the zero-copy wire path: BufferChain ownership semantics, the
// envelope's direct writer against xml::write of the same envelope built as
// one DOM tree (the byte reference, DomEnvelope) over every message shape
// the stacks send, and the end-to-end contract that a container's HTTP and
// in-process entries answer with the same octets (modulo fresh MessageID/
// trace ids) — for counter, gridbox and batch-job document shapes on both
// stacks. Also pins the Get envelopes each stack sends and bounds the DOM
// nodes and heap allocations of a Get round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <random>
#include <regex>
#include <string>

#include "common/buffer_chain.hpp"
#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "security/cert.hpp"
#include "security/xmlsig.hpp"
#include "telemetry/propagation.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"
#include "xml/parser.hpp"
#include "xml/probe.hpp"
#include "xml/writer.hpp"

// Counting global operator new for this binary: heap allocations made on
// the calling thread. The virtual fabric serves a request on the caller's
// thread, so one thread's count covers a whole round trip.
namespace {
thread_local std::uint64_t tl_heap_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_heap_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// Kept out of line so the compiler does not pair an inlined free() with the
// operator new it sees at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gs {
namespace {

// --- BufferChain -------------------------------------------------------------

TEST(BufferChain, OwnedSharedAndStaticSegments) {
  auto shared = std::make_shared<const std::string>("SHARED");
  common::BufferChain chain;
  chain.append("owned");
  chain.append_shared(shared, std::string_view(*shared).substr(0, 5));
  chain.append_static("lit");
  EXPECT_EQ(chain.segments(), 3u);
  EXPECT_EQ(chain.size(), 13u);
  EXPECT_EQ(chain.join(), "ownedSHARElit");
}

TEST(BufferChain, EmptyAppendsAreDropped) {
  common::BufferChain chain;
  chain.append("");
  chain.append_static("");
  chain.append_shared(nullptr);
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.segments(), 0u);
}

TEST(BufferChain, JoinIntoAppendsWithoutClobbering) {
  common::BufferChain chain;
  chain.append("abc");
  std::string out = "pre:";
  chain.join_into(out);
  EXPECT_EQ(out, "pre:abc");
}

TEST(BufferChain, ForEachVisitsSegmentsInOrder) {
  common::BufferChain chain;
  chain.append("a");
  chain.append_static("b");
  std::string seen;
  chain.for_each([&](std::string_view s) { seen.append(s); });
  EXPECT_EQ(seen, "ab");
}

TEST(BufferChain, CopyFlattensAndDoesNotBorrow) {
  common::BufferChain source;
  source.append("hello ");
  source.append_static("world");

  common::BufferChain copy(source);
  EXPECT_EQ(copy.join(), "hello world");
  EXPECT_EQ(copy.segments(), 1u);  // flattened into one owned segment

  // The copy must not view the source's storage: destroying the source
  // leaves the copy intact (ASan would flag a dangling view).
  source.clear();
  EXPECT_EQ(copy.join(), "hello world");
}

TEST(BufferChain, CopyAssignReplacesContents) {
  common::BufferChain a;
  a.append("old");
  common::BufferChain b;
  b.append("new");
  a = b;
  EXPECT_EQ(a.join(), "new");
  a = a;  // self-assignment is a no-op
  EXPECT_EQ(a.join(), "new");
}

TEST(BufferChain, MoveTransfersSegments) {
  common::BufferChain a;
  a.append("payload");
  common::BufferChain b(std::move(a));
  EXPECT_EQ(b.join(), "payload");
}

TEST(BufferChain, AppendChainSharesRefcountedCopiesOwned) {
  auto shared = std::make_shared<const std::string>("SKEL");
  common::BufferChain source;
  source.append("owned");
  source.append_shared(shared, *shared);

  long before = shared.use_count();
  common::BufferChain dest;
  dest.append_chain(source);
  // The refcounted segment is shared (use_count goes up), not copied.
  EXPECT_GT(shared.use_count(), before);
  EXPECT_EQ(dest.join(), "ownedSKEL");

  // The owned segment was copied by value: clearing the source must not
  // invalidate the destination.
  source.clear();
  EXPECT_EQ(dest.join(), "ownedSKEL");
}

TEST(BufferChain, SharedSegmentKeepsBackingAlive) {
  common::BufferChain chain;
  {
    auto backing = std::make_shared<const std::string>("kept alive");
    chain.append_shared(backing, *backing);
  }
  EXPECT_EQ(chain.join(), "kept alive");
}

/// Octets must survive parse -> to_dom -> write unchanged.
void expect_round_trip(const std::string& octets) {
  EXPECT_EQ(xml::write(*xml::ArenaDocument::parse(octets).to_dom()), octets);
}

// --- the direct writer vs the DOM reference -----------------------------------

xml::QName test_qn(const char* local) { return {"urn:wiretest", local}; }

std::uint64_t dom_nodes_now() { return xml::probe::snapshot().dom_nodes; }

/// The byte reference for the direct writer: an envelope kept as one DOM
/// tree — Envelope (soap and wsa declared), Header, Body — that each
/// operation edits the way the envelope's own tree once was edited, written
/// with xml::write. Addressing text headers are appended after any header
/// already present; replace_header removes the first header of that name
/// and appends; stored octets are parsed into the Body.
class DomEnvelope {
 public:
  DomEnvelope() : root_(std::make_unique<xml::Element>(soap::ns::kEnvelope, "Envelope")) {
    root_->declare_prefix("soap", soap::ns::kEnvelope);
    root_->declare_prefix("wsa", soap::ns::kAddressing);
    header_ = &root_->append_element(soap::ns::kEnvelope, "Header");
    body_ = &root_->append_element(soap::ns::kEnvelope, "Body");
  }

  void write_addressing(soap::MessageInfo info) {
    for (auto [local, text] : {std::pair<const char*, std::string*>{"To", &info.to},
                               {"Action", &info.action},
                               {"MessageID", &info.message_id},
                               {"RelatesTo", &info.relates_to}}) {
      if (!text->empty()) header_->append_element(soap::ns::kAddressing, local).set_text(*text);
    }
    if (!info.reply_to.empty())
      header_->append(info.reply_to.to_xml({soap::ns::kAddressing, "ReplyTo"}));
    for (auto& h : info.reference_headers) header_->append(std::move(h));
  }
  void replace_header(std::unique_ptr<xml::Element> el) {
    if (const xml::Element* old = header_->child(el->name())) header_->remove_child(*old);
    header_->append(std::move(el));
  }
  xml::Element& add_payload(xml::QName name) { return body_->append_element(std::move(name)); }
  void add_payload(std::unique_ptr<xml::Element> el) { body_->append(std::move(el)); }
  void add_payload_octets(std::shared_ptr<const std::string> octets) {
    body_->append(xml::parse_element(*octets));
  }
  std::string to_xml() const { return xml::write(*root_); }

 private:
  std::unique_ptr<xml::Element> root_;
  xml::Element* header_;
  xml::Element* body_;
};

/// The direct writer's octets for `env` (to_xml and wire_chain, which must
/// agree, and build no DOM node), checked against the reference.
std::string expect_direct_matches_dom(const soap::Envelope& env,
                                      const DomEnvelope& reference) {
  std::uint64_t before = dom_nodes_now();
  std::string direct = env.to_xml();
  common::BufferChain chain;
  std::shared_ptr<std::string> scratch;
  env.wire_chain(chain, &scratch);
  EXPECT_EQ(chain.join(), direct);
  EXPECT_EQ(dom_nodes_now(), before) << "the direct writer built DOM nodes";
  EXPECT_EQ(direct, reference.to_xml());
  return direct;
}

/// Runs `build` on an envelope and on the DOM reference; both must write
/// the same octets.
template <typename Build>
std::string expect_builds_match(const Build& build) {
  soap::Envelope env;
  build(env);
  DomEnvelope reference;
  build(reference);
  return expect_direct_matches_dom(env, reference);
}

soap::MessageInfo reply_info(const std::string& action) {
  soap::MessageInfo info;
  info.action = action;
  info.message_id = "urn:uuid:00000000-0000-0000-0000-0000000000aa";
  info.relates_to = "urn:uuid:00000000-0000-0000-0000-0000000000bb";
  return info;
}

void stamp(soap::Envelope& env, std::uint64_t trace_id, std::uint64_t span_id) {
  telemetry::TraceContext trace;
  trace.trace_id = trace_id;
  trace.span_id = span_id;
  telemetry::write_trace_header(env, trace);
}

/// The trace header write_trace_header stamps, on the reference.
void stamp(DomEnvelope& env, std::uint64_t trace_id, std::uint64_t span_id) {
  auto el = std::make_unique<xml::Element>(telemetry::trace_header_qname());
  el->set_attr("TraceId", std::to_string(trace_id));
  el->set_attr("SpanId", std::to_string(span_id));
  env.replace_header(std::move(el));
}

TEST(WireDirect, EmptyEnvelopeMatchesDom) {
  EXPECT_EQ(expect_builds_match([](auto&) {}),
            "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\" "
            "xmlns:wsa=\"http://schemas.xmlsoap.org/ws/2004/08/addressing\">"
            "<soap:Header/><soap:Body/></soap:Envelope>");
}

TEST(WireDirect, EscapedValuesMatchDom) {
  // Addressing text, payload text and attribute values that the writer
  // must escape, C0 controls included.
  std::string octets = expect_builds_match([](auto& env) {
    soap::MessageInfo info = reply_info("urn:wiretest/Echo?a=1&b=<2>");
    info.to = "http://h.example/p?x=\"1\"&y=2";
    info.message_id = "urn:uuid:<mid>&\x01";
    env.write_addressing(std::move(info));
    xml::Element& echo = env.add_payload(test_qn("Echo"));
    echo.append_element(test_qn("Value")).set_text("x < y & \"z\" > w");
    echo.set_attr("note", "tab\there \"quoted\"\nline & <more>");
  });
  EXPECT_NE(octets.find("a=1&amp;b=&lt;2&gt;"), std::string::npos);
  expect_round_trip(octets);
}

TEST(WireDirect, PayloadNamespacesNumberAfterHeaders) {
  // The trace header and two payloads in new namespaces: generated prefixes
  // continue across the Header/Body boundary exactly as in one DOM write.
  const char* doc =
      "<Job xmlns=\"urn:sched\"><Nodes>4</Nodes><State>queued</State></Job>";
  std::string octets = expect_builds_match([&](auto& env) {
    env.write_addressing(reply_info("urn:wiretest/GetResponse"));
    env.add_payload(test_qn("Wrapper"))
        .append_element(xml::QName("urn:inner", "Item"))
        .set_text("1");
    env.add_payload(xml::parse_element(doc));
    stamp(env, 12345, 678);
  });
  EXPECT_NE(octets.find("<n1:TraceContext"), std::string::npos);
  EXPECT_NE(octets.find("<n2:Wrapper"), std::string::npos);
  EXPECT_NE(octets.find("<n3:Item"), std::string::npos);
}

TEST(WireDirect, OctetPayloadSplicesVerbatim) {
  // Octets that round-trip through the writer (as database octets do) write
  // exactly what the parsed element would, and read back as it.
  for (const char* doc :
       {"<Job xmlns=\"urn:sched\"><Nodes>4</Nodes></Job>",
        "<n1:Job xmlns:n1=\"urn:sched\"><n1:Nodes>4</n1:Nodes></n1:Job>"}) {
    auto build = [&](bool as_octets) {
      return [=](auto& env) {
        env.write_addressing(reply_info("urn:wiretest/GetResponse"));
        if (as_octets) {
          env.add_payload_octets(std::make_shared<const std::string>(doc));
        } else {
          env.add_payload(xml::parse_element(doc));
        }
        stamp(env, 1, 2);
      };
    };
    soap::Envelope via_octets;
    build(true)(via_octets);
    ASSERT_NE(via_octets.payload(), nullptr);  // parses the octets
    EXPECT_EQ(via_octets.payload()->name(), xml::QName("urn:sched", "Job"));
    EXPECT_EQ(expect_builds_match(build(true)), expect_builds_match(build(false)))
        << doc;
  }
}

TEST(WireDirect, OctetPayloadKeepsItsPlaceAmongElements) {
  // A payload element added after stored octets follows them, and a second
  // set of octets follows both.
  const auto octets = std::make_shared<const std::string>(
      "<Job xmlns=\"urn:sched\"><Nodes>4</Nodes></Job>");
  expect_builds_match([&](auto& env) {
    env.add_payload(test_qn("First"));
    env.add_payload_octets(octets);
    env.add_payload(test_qn("Between"));
    env.add_payload_octets(octets);
  });
}

TEST(WireDirect, ReplyToAndReferenceHeadersMatchDom) {
  std::string octets = expect_builds_match([](auto& env) {
    soap::EndpointReference target("http://target.example/Svc");
    target.add_reference_property(xml::QName("urn:ids", "ResourceID"), "r-1");
    target.add_reference_property(xml::QName("urn:other", "Shard"), "7");
    soap::EndpointReference reply_to("http://client.example/Reply");
    reply_to.add_reference_property(xml::QName("urn:ids", "Callback"), "cb");
    soap::MessageInfo info;
    info.target(target);
    info.action = "urn:wiretest/Op";
    info.message_id = "urn:uuid:1";
    info.reply_to = reply_to;
    env.write_addressing(std::move(info));
    env.add_payload(test_qn("Op"));
    stamp(env, 9, 10);
  });
  EXPECT_NE(octets.find("<wsa:ReplyTo>"), std::string::npos);
  EXPECT_NE(octets.find(">r-1<"), std::string::npos);
  soap::Envelope env = soap::Envelope::from_xml(octets);
  EXPECT_EQ(env.read_addressing().reply_to.address(), "http://client.example/Reply");
}

TEST(WireDirect, TraceRestampReplacesAndMovesLast) {
  std::string octets = expect_builds_match([](auto& env) {
    env.write_addressing(reply_info("urn:wiretest/AckResponse"));
    env.add_payload(test_qn("Ack"));
    stamp(env, 1, 2);
    auto extra = std::make_unique<xml::Element>(test_qn("Extra"));
    extra->set_text("x");
    env.replace_header(std::move(extra));
    stamp(env, 3, 4);  // the restamp: one TraceContext, after Extra
  });
  EXPECT_EQ(octets.find("TraceId=\"1\""), std::string::npos);
  EXPECT_LT(octets.find("Extra"), octets.find("TraceId=\"3\""));
}

TEST(WireDirect, HeaderBeforeAddressingKeepsItsPlace) {
  // A header set before write_addressing stays first, and the addressing
  // headers follow it.
  std::string octets = expect_builds_match([](auto& env) {
    stamp(env, 5, 6);
    env.write_addressing(reply_info("urn:wiretest/AckResponse"));
    env.add_payload(test_qn("Ack"));
  });
  EXPECT_EQ(octets,
            "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\" "
            "xmlns:wsa=\"http://schemas.xmlsoap.org/ws/2004/08/addressing\">"
            "<soap:Header><n1:TraceContext xmlns:n1=\"http://gridstacks.dev/telemetry\" "
            "TraceId=\"5\" SpanId=\"6\"/>"
            "<wsa:Action>urn:wiretest/AckResponse</wsa:Action>"
            "<wsa:MessageID>urn:uuid:00000000-0000-0000-0000-0000000000aa</wsa:MessageID>"
            "<wsa:RelatesTo>urn:uuid:00000000-0000-0000-0000-0000000000bb</wsa:RelatesTo>"
            "</soap:Header><soap:Body><n2:Ack xmlns:n2=\"urn:wiretest\"/></soap:Body>"
            "</soap:Envelope>");
}

TEST(WireDirect, SecondAddressingAndAddressingReplaceMatchDom) {
  // A second write_addressing appends after the first; replacing a wsa
  // header removes its first occurrence, text or element, and appends.
  std::string octets = expect_builds_match([](auto& env) {
    env.write_addressing(reply_info("urn:wiretest/First"));
    soap::MessageInfo again = reply_info("urn:wiretest/Second");
    again.to = "http://second.example/";
    env.write_addressing(std::move(again));
    auto action = std::make_unique<xml::Element>(soap::ns::kAddressing, "Action");
    action->set_text("urn:wiretest/Replaced");
    env.replace_header(std::move(action));
    auto to = std::make_unique<xml::Element>(soap::ns::kAddressing, "To");
    to->set_text("http://replaced.example/");
    env.replace_header(std::move(to));
  });
  EXPECT_EQ(octets.find("urn:wiretest/First"), std::string::npos);
  EXPECT_NE(octets.find("urn:wiretest/Second"), std::string::npos);
  EXPECT_EQ(octets.find("http://second.example/"), std::string::npos);
  // Reads see each header's first occurrence, in both states.
  soap::Envelope built;
  built.write_addressing(reply_info("urn:wiretest/First"));
  built.write_addressing(reply_info("urn:wiretest/Second"));
  EXPECT_EQ(built.read_addressing().action, "urn:wiretest/First");
  EXPECT_EQ(soap::Envelope::from_xml(built.to_xml()).read_addressing().action,
            "urn:wiretest/First");
}

TEST(WireDirect, WsnNotifyAndWseEventMatchDom) {
  xml::Element event(xml::QName("http://counter.example", "CounterChanged"));
  event.append_element(xml::QName("http://counter.example", "Value")).set_text("3 < 4");
  soap::EndpointReference consumer("http://consumer.example/Sink");
  consumer.add_reference_property(xml::QName("urn:ids", "SubscriptionID"), "s-1");

  // make_notify_envelope's steps, replayed on the reference: its
  // addressing, then its payload.
  soap::Envelope notify =
      wsn::make_notify_envelope("counter/changed", event, "http://p.example", consumer);
  stamp(notify, 11, 12);
  DomEnvelope reference;
  reference.write_addressing(notify.read_addressing());
  reference.add_payload(notify.payload()->clone_element());
  stamp(reference, 11, 12);
  std::string wsn_octets = expect_direct_matches_dom(notify, reference);
  EXPECT_NE(wsn_octets.find("NotificationMessage"), std::string::npos);

  // The WS-Eventing delivery shape: the event document is the whole body.
  expect_builds_match([&](auto& env) {
    soap::MessageInfo info;
    info.target(consumer);
    info.action = "http://counter.example/CounterChanged";
    info.message_id = "urn:uuid:2";
    env.write_addressing(std::move(info));
    env.add_payload(event.clone_element());
    stamp(env, 13, 14);
  });
}

TEST(WireDirect, FaultMatchesDom) {
  soap::Envelope fault = soap::Envelope::make_fault(
      {"Sender", "bad <input> & more", "detail \"text\"", "wsrf-bf:Unknown"});
  stamp(fault, 7, 8);
  EXPECT_TRUE(fault.is_fault());
  DomEnvelope reference;
  reference.add_payload(fault.payload()->clone_element());
  stamp(reference, 7, 8);
  std::string octets = expect_direct_matches_dom(fault, reference);
  soap::Envelope parsed = soap::Envelope::from_xml(octets);
  EXPECT_TRUE(parsed.is_fault());
  EXPECT_EQ(parsed.fault().reason, "bad <input> & more");
  EXPECT_EQ(parsed.fault().subcode, "wsrf-bf:Unknown");
}

TEST(WireDirect, SignedRoundTrip) {
  // The Security header is one more header element: the signed envelope
  // writes from its parts and verifies on the other side.
  std::mt19937_64 rng(11);
  auto ca = security::CertificateAuthority::create("CN=WireCA", 512, rng);
  security::Credential cred = ca.issue("CN=alice", 512, rng, 0, 10000);
  auto build = [](auto& env) {
    soap::MessageInfo info = reply_info("urn:wiretest/SignedResponse");
    info.to = "http://signed.example/Svc";
    env.write_addressing(std::move(info));
    env.add_payload(test_qn("Signed")).set_text("payload & more");
    stamp(env, 21, 22);
  };
  soap::Envelope env;
  build(env);
  security::sign_envelope(env, cred);
  DomEnvelope reference;
  build(reference);
  reference.replace_header(
      env.header_child({soap::ns::kSecurity, "Security"})->clone_element());
  std::string octets = expect_direct_matches_dom(env, reference);
  soap::Envelope received = soap::Envelope::from_xml(octets);
  EXPECT_EQ(security::verify_envelope(received, ca.root(), 500).subject_dn,
            "CN=alice");
}

// --- container level: both entries write the same octets ---------------------

/// Fresh MessageIDs and trace ids differ between any two runs; everything
/// else must be byte-identical.
std::string normalize(std::string xml) {
  static const std::regex uuid("urn:uuid:[0-9a-fA-F-]+");
  xml = std::regex_replace(xml, uuid, "urn:uuid:NORM");
  static const std::regex trace_id("TraceId=\"[0-9]*\"");
  xml = std::regex_replace(xml, trace_id, "TraceId=\"NORM\"");
  static const std::regex span_id("SpanId=\"[0-9]*\"");
  xml = std::regex_replace(xml, span_id, "SpanId=\"NORM\"");
  // WSRF BaseFault details carry a wall-clock timestamp that can tick
  // between the two runs being compared.
  static const std::regex stamp("Timestamp&gt;[0-9]*&lt;");
  return std::regex_replace(xml, stamp, "Timestamp&gt;NORM&lt;");
}

const std::string kRequestId = "urn:uuid:00000000-0000-0000-0000-000000000001";

net::HttpRequest soap_post(const soap::EndpointReference& target,
                           const std::string& action,
                           std::unique_ptr<xml::Element> payload,
                           const std::string& message_id = kRequestId) {
  soap::Envelope request;
  soap::MessageInfo info;
  info.target(target);
  info.action = action;
  info.message_id = message_id;
  request.write_addressing(info);
  if (payload) request.add_payload(std::move(payload));

  auto url = net::Url::parse(target.address());
  net::HttpRequest http;
  http.host = url->authority();
  http.path = url->path;
  http.headers["Content-Type"] = "application/soap+xml";
  http.body = request.to_xml();
  return http;
}

std::unique_ptr<xml::Element> property_name_element(const xml::QName& prop) {
  auto el = std::make_unique<xml::Element>(
      xml::QName(soap::ns::kWsrfRp, "GetResourceProperty"));
  if (!prop.ns().empty()) el->set_attr("ns", prop.ns());
  el->set_text(prop.local());
  return el;
}

/// The in-process entry's answer to `http`.
soap::Envelope in_process(container::Container& container,
                          const net::HttpRequest& http) {
  return container.process(soap::Envelope::from_xml(http.body), http.path);
}

/// The direct writer's octets for a reply the container built, checked
/// against the reference rebuilt from the reply's reads: its addressing
/// (which carries the trace and other reference headers in order) and its
/// payload. A DOM of the octets also writes them back unchanged.
std::string expect_direct_writes(const soap::Envelope& reply) {
  DomEnvelope reference;
  reference.write_addressing(reply.read_addressing());
  if (const xml::Element* payload = reply.payload()) {
    reference.add_payload(payload->clone_element());
  }
  std::string direct = expect_direct_matches_dom(reply, reference);
  expect_round_trip(direct);
  return direct;
}

/// Sends the request through the HTTP entry and through the in-process
/// entry. The two answers must be the same octets (modulo fresh ids), and
/// the in-process answer's direct-writer octets must equal the reference
/// (expect_direct_writes).
/// Returns the HTTP body for additional assertions.
std::string expect_entries_match_dom(
    container::Container& container,
    const std::function<net::HttpRequest()>& make_request) {
  net::HttpRequest http = make_request();
  std::string wire = container.handle(http).body_str();
  soap::Envelope reply = in_process(container, http);
  EXPECT_EQ(normalize(wire), normalize(expect_direct_writes(reply)));
  return wire;
}

struct WireFixture {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> sink;
  std::unique_ptr<net::VirtualCaller> tcp_sink;
  std::unique_ptr<counter::WsrfCounterDeployment> wsrf;
  std::unique_ptr<counter::WstCounterDeployment> wst;

  explicit WireFixture(telemetry::MetricsRegistry* metrics = nullptr) {
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    tcp_sink = std::make_unique<net::VirtualCaller>(
        net,
        net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp});
    container::ContainerConfig cc;
    cc.metrics = metrics;
    wsrf = std::make_unique<counter::WsrfCounterDeployment>(
        counter::WsrfCounterDeployment::Params{
            .backend = std::make_unique<xmldb::MemoryBackend>(),
            .write_through_cache = true,
            .container = cc,
            .notification_sink = sink.get(),
            .address_base = "http://wsrf.example",
        });
    wst = std::make_unique<counter::WstCounterDeployment>(
        counter::WstCounterDeployment::Params{
            .backend = std::make_unique<xmldb::MemoryBackend>(),
            .container = cc,
            .notification_sink = tcp_sink.get(),
            .address_base = "http://wst.example",
            .subscription_file = {},
        });
    net.bind("wsrf.example", wsrf->container());
    net.bind("wst.example", wst->container());
  }
};

// Document shapes: the counter and Grid-in-a-Box applications the repo
// models, and a batch-job document in a default namespace.
const char* kCounterDoc = "<cnt:counter xmlns:cnt=\"http://counter.example\"><cnt:cv>7</cnt:cv></cnt:counter>";
const char* kGridboxDoc =
    "<Reservation xmlns=\"http://gridstacks.dev/gridbox\"><Host>node1</Host>"
    "<User>CN=alice,O=VO</User><Start>1000</Start><End>2000</End></Reservation>";
const char* kSchedDoc =
    "<Job xmlns=\"http://gridstacks.dev/sched\"><Partition>batch</Partition>"
    "<Nodes>4</Nodes><State>queued</State></Job>";

TEST(WireEntries, WsrfGetResourcePropertyByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(41);

  std::string body =
      expect_entries_match_dom(fx.wsrf->container(), [&] {
        return soap_post(epr, wsrf::actions::kGetResourceProperty,
                         property_name_element(counter::cv_qname()));
      });
  EXPECT_NE(body.find("41"), std::string::npos);
  EXPECT_NE(body.find("GetResourcePropertyResponse"), std::string::npos);
}

TEST(WireEntries, WsrfComputedPropertyByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(21);

  std::string body =
      expect_entries_match_dom(fx.wsrf->container(), [&] {
        return soap_post(epr, wsrf::actions::kGetResourceProperty,
                         property_name_element(counter::double_value_qname()));
      });
  EXPECT_NE(body.find("42"), std::string::npos);
}

TEST(WireEntries, WsrfGetPropertyDocumentByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(5);

  expect_entries_match_dom(fx.wsrf->container(), [&] {
    return soap_post(epr, wsrf::actions::kGetResourcePropertyDocument,
                     std::make_unique<xml::Element>(xml::QName(
                         soap::ns::kWsrfRp, "GetResourcePropertyDocument")));
  });
}

TEST(WireEntries, WsrfSetAckByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();

  expect_entries_match_dom(fx.wsrf->container(), [&] {
    auto request = std::make_unique<xml::Element>(
        xml::QName(soap::ns::kWsrfRp, "SetResourceProperties"));
    xml::Element& update = request->append_element(
        xml::QName(soap::ns::kWsrfRp, "Update"));
    update.append_element(counter::cv_qname()).set_text("9");
    return soap_post(epr, wsrf::actions::kSetResourceProperties,
                     std::move(request));
  });
}

TEST(WireEntries, WsrfFaultParity) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();

  // Requesting an undeclared property faults; the fault must serialize
  // identically whichever parser/serializer handled the request.
  std::string body = expect_entries_match_dom(fx.wsrf->container(), [&] {
    return soap_post(epr, wsrf::actions::kGetResourceProperty,
                     property_name_element({"urn:none", "Missing"}));
  });
  EXPECT_NE(body.find("Fault"), std::string::npos);
}

TEST(WireEntries, WsrfDocumentShapesByteIdentical) {
  WireFixture fx;
  for (const char* doc : {kGridboxDoc, kSchedDoc}) {
    soap::EndpointReference epr =
        fx.wsrf->service().create_resource(xml::parse_element(doc));
    expect_entries_match_dom(fx.wsrf->container(), [&] {
      return soap_post(epr, wsrf::actions::kGetResourcePropertyDocument,
                       std::make_unique<xml::Element>(xml::QName(
                           soap::ns::kWsrfRp, "GetResourcePropertyDocument")));
    });
  }
}

TEST(WireEntries, WstGetByteIdenticalAcrossDocumentShapes) {
  WireFixture fx;
  struct Case {
    const char* id;
    const char* doc;
  };
  for (const Case& c : {Case{"doc-counter", kCounterDoc},
                        Case{"doc-gridbox", kGridboxDoc},
                        Case{"doc-sched", kSchedDoc}}) {
    // Get works on documents seeded out of band (no Create required).
    fx.wst->db().store(fx.wst->service().collection(), c.id,
                       *xml::parse_element(c.doc));
    std::string body = expect_entries_match_dom(fx.wst->container(), [&] {
      return soap_post(fx.wst->service().epr_for(c.id), wst::actions::kGet,
                       nullptr);
    });
    // The representation crossed database → wire: spot-check content.
    auto parsed = xml::parse_element(c.doc);
    EXPECT_NE(body.find(parsed->name().local()), std::string::npos) << c.id;
  }
}

TEST(WireEntries, WstPutAckByteIdentical) {
  WireFixture fx;
  counter::WstCounterClient client(*fx.caller, fx.wst->counter_address(),
                                   fx.wst->source_address());
  soap::EndpointReference epr = client.create();

  expect_entries_match_dom(fx.wst->container(), [&] {
    auto replacement = xml::parse_element(
        "<c:counter xmlns:c=\"" + std::string(soap::ns::kCounter) +
        "\"><c:cv>3</c:cv></c:counter>");
    return soap_post(epr, wst::actions::kPut, std::move(replacement));
  });
}

TEST(WireEntries, WstDeleteAckByteIdentical) {
  WireFixture fx;
  // Delete is destructive: run the two entries against two distinct seeded
  // resources (the ack carries no resource id, so the normalized octets
  // must still match).
  const std::string collection = fx.wst->service().collection();
  fx.wst->db().store(collection, "del-a", *xml::parse_element(kSchedDoc));
  fx.wst->db().store(collection, "del-b", *xml::parse_element(kSchedDoc));

  std::string wire =
      fx.wst->container()
          .handle(soap_post(fx.wst->service().epr_for("del-a"),
                            wst::actions::kDelete, nullptr))
          .body_str();
  soap::Envelope reply = in_process(
      fx.wst->container(),
      soap_post(fx.wst->service().epr_for("del-b"), wst::actions::kDelete, nullptr));
  EXPECT_EQ(normalize(wire), normalize(expect_direct_writes(reply)));
  EXPECT_NE(wire.find("DeleteResponse"), std::string::npos);
}

TEST(WireEntries, WstFaultParity) {
  WireFixture fx;
  std::string body = expect_entries_match_dom(fx.wst->container(), [&] {
    return soap_post(fx.wst->service().epr_for("no-such-resource"),
                     wst::actions::kGet, nullptr);
  });
  EXPECT_NE(body.find("Fault"), std::string::npos);
}

TEST(WireEntries, RequestWithoutMessageIdGetsNoRelatesTo) {
  WireFixture fx;
  fx.wst->db().store(fx.wst->service().collection(), "no-mid",
                     *xml::parse_element(kCounterDoc));
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  std::string wst_body = expect_entries_match_dom(fx.wst->container(), [&] {
    return soap_post(fx.wst->service().epr_for("no-mid"), wst::actions::kGet,
                     nullptr, /*message_id=*/"");
  });
  std::string wsrf_body = expect_entries_match_dom(fx.wsrf->container(), [&] {
    return soap_post(epr, wsrf::actions::kGetResourceProperty,
                     property_name_element(counter::cv_qname()),
                     /*message_id=*/"");
  });
  for (const std::string& body : {wst_body, wsrf_body}) {
    EXPECT_EQ(body.find("RelatesTo"), std::string::npos) << body;
    EXPECT_NE(body.find("<wsa:MessageID>"), std::string::npos) << body;
  }
}

// --- allocation probe: DOM node churn per request -----------------------------

constexpr int kProbeRequests = 20;

/// Sends `kProbeRequests` identical requests through the HTTP entry and
/// returns the DOM nodes they built (the container's xml.nodes_per_request
/// sum), plus the nodes as many in-process requests build when each
/// response is also made a whole DOM (the thread-local probe delta around
/// from_xml + process + a DOM of the reply's octets + write).
std::pair<std::uint64_t, std::uint64_t> measure_nodes(
    container::Container& container, telemetry::Histogram& nodes,
    const std::function<net::HttpRequest()>& request) {
  net::HttpRequest http = request();
  container.handle(http);  // warm caches and the scratch buffer
  std::uint64_t before = nodes.sum_us();
  for (int i = 0; i < kProbeRequests; ++i) container.handle(http);
  std::uint64_t wire = nodes.sum_us() - before;

  std::uint64_t dom_before = dom_nodes_now();
  for (int i = 0; i < kProbeRequests; ++i) {
    const soap::Envelope reply = in_process(container, http);
    xml::write(*xml::ArenaDocument::parse(reply.to_xml()).to_dom());
  }
  std::uint64_t dom = dom_nodes_now() - dom_before;
  return {wire, dom};
}

TEST(WireProbe, WstGetAllocatesFiveTimesFewerNodes) {
  telemetry::MetricsRegistry metrics;
  WireFixture fx(&metrics);
  // Get on the uncached WST database is the end-to-end zero-copy path:
  // arena-parsed request, stored octets spliced into the reply — the only
  // DOM nodes are the reference header read_addressing copies out and the
  // reply's trace header.
  fx.wst->db().store(fx.wst->service().collection(), "probe",
                     *xml::parse_element(kSchedDoc));

  auto [wire_nodes, dom_nodes] = measure_nodes(
      fx.wst->container(), metrics.histogram("xml.nodes_per_request"), [&] {
        return soap_post(fx.wst->service().epr_for("probe"),
                         wst::actions::kGet, nullptr);
      });

  // Two bars: at most 2 nodes per request (the count before the request
  // parse and the DOM response path shared one parser), and >= 5x fewer
  // than a whole DOM of the same responses builds.
  EXPECT_LE(wire_nodes, 2u * kProbeRequests);
  EXPECT_GT(dom_nodes, 0u);
  EXPECT_GE(dom_nodes, 5 * std::max<std::uint64_t>(wire_nodes, 1))
      << "wire=" << wire_nodes << " dom=" << dom_nodes;
  std::printf("nodes per WS-Transfer Get: wire %.2f, whole DOM %.2f\n",
              static_cast<double>(wire_nodes) / kProbeRequests,
              static_cast<double>(dom_nodes) / kProbeRequests);

  // The arena probe recorded input-buffer bytes for the request parses.
  EXPECT_GT(metrics.counter("xml.arena_bytes").value(), 0);
}

TEST(WireProbe, WsrfGetPropertyReducesNodes) {
  telemetry::MetricsRegistry metrics;
  WireFixture fx(&metrics);
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(41);

  auto [wire_nodes, dom_nodes] = measure_nodes(
      fx.wsrf->container(), metrics.histogram("xml.nodes_per_request"), [&] {
        return soap_post(epr, wsrf::actions::kGetResourceProperty,
                         property_name_element(counter::cv_qname()));
      });

  // The WSRF read path still clones the cached state document (the
  // resource-cache behaviour the paper measures), and the reply's payload
  // and trace header are elements, so nodes don't reach zero — but the
  // envelope frame and addressing are written without nodes. Two bars: at
  // most 9 nodes per request (the count before the request parse and the
  // DOM response path shared one parser), and under half of what the same
  // responses build as a whole DOM.
  EXPECT_LE(wire_nodes, 9u * kProbeRequests);
  EXPECT_GT(dom_nodes, 0u);
  EXPECT_LT(2 * wire_nodes, dom_nodes)
      << "wire=" << wire_nodes << " dom=" << dom_nodes;
  std::printf("nodes per WSRF GetResourceProperty: wire %.2f, whole DOM %.2f\n",
              static_cast<double>(wire_nodes) / kProbeRequests,
              static_cast<double>(dom_nodes) / kProbeRequests);
}

/// Answers every call with one recorded reply, parsed afresh as the wire
/// would deliver it: a proxy call then builds only its own DOM nodes.
class ReplayCaller final : public net::SoapCaller {
 public:
  explicit ReplayCaller(std::string reply) : reply_(std::move(reply)) {}
  soap::Envelope call(const std::string&, const soap::Envelope&) override {
    return soap::Envelope::from_xml(reply_);
  }

 private:
  std::string reply_;
};

// A proxy that only reads a reply builds the payload subtree, not a DOM of
// the whole received envelope. The Create reply's payload is the new
// resource's EPR: EndpointReference, Address and its text,
// ReferenceProperties, ResourceID and its text.
TEST(WireProbe, CreateReplyBuildsOnlyItsPayloadNodes) {
  WireFixture fx;
  net::HttpResponse response = fx.wsrf->container().handle(
      soap_post(soap::EndpointReference(fx.wsrf->counter_address()),
                counter::wsrf_counter_create_action(), nullptr));
  ASSERT_EQ(response.status, 200);
  const std::string reply = response.body_str();

  const soap::Envelope read = soap::Envelope::from_xml(reply);
  std::uint64_t before = dom_nodes_now();
  ASSERT_NE(read.payload(), nullptr);
  const std::uint64_t payload_nodes = dom_nodes_now() - before;
  EXPECT_EQ(payload_nodes, 6u);

  // A mutable read thaws the view into parts: the four header elements
  // (Action, MessageID, RelatesTo with their text, TraceContext) and the
  // payload. A whole-envelope DOM also built Envelope, Header and Body: 16.
  soap::Envelope mutable_read = soap::Envelope::from_xml(reply);
  before = dom_nodes_now();
  ASSERT_NE(mutable_read.payload(), nullptr);
  EXPECT_EQ(dom_nodes_now() - before, 13u);

  // The proxy's whole Create: its request plus the EPR it keeps (5 nodes),
  // and the payload read. Reading the whole envelope made it 21.
  ReplayCaller replay(reply);
  counter::WsrfCounterClient client(replay, fx.wsrf->counter_address());
  before = dom_nodes_now();
  soap::EndpointReference epr = client.create();
  EXPECT_EQ(dom_nodes_now() - before, payload_nodes + 5);
  EXPECT_FALSE(epr.address().empty());
}

// --- the envelopes both stacks send for a Get, octet for octet --------------

/// Records the request and response bodies crossing one endpoint.
class CapturingEndpoint final : public net::Endpoint {
 public:
  explicit CapturingEndpoint(net::Endpoint& inner) : inner_(inner) {}
  net::HttpResponse handle(const net::HttpRequest& request) override {
    request_ = request.body;
    net::HttpResponse response = inner_.handle(request);
    response_ = response.body_str();
    return response;
  }
  const std::string& request() const { return request_; }
  const std::string& response() const { return response_; }

 private:
  net::Endpoint& inner_;
  std::string request_, response_;
};

/// normalize(), plus the resource id (a bare UUID).
std::string normalize_ids(const std::string& xml) {
  static const std::regex id(">[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}<");
  return std::regex_replace(normalize(xml), id, ">ID<");
}

const char* kEnvelopeOpen =
    "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\" "
    "xmlns:wsa=\"http://schemas.xmlsoap.org/ws/2004/08/addressing\"><soap:Header>";
const char* kTraceHeader =
    "<n1:TraceContext xmlns:n1=\"http://gridstacks.dev/telemetry\" "
    "TraceId=\"NORM\" SpanId=\"NORM\"/></soap:Header>";

TEST(WireOctets, GetEnvelopesMatchPinsAndRoundTrip) {
  WireFixture fx;
  CapturingEndpoint wsrf_wire(fx.wsrf->container()), wst_wire(fx.wst->container());
  fx.net.bind("wsrf.example", wsrf_wire);
  fx.net.bind("wst.example", wst_wire);
  counter::WsrfCounterClient wsrf(*fx.caller, fx.wsrf->counter_address());
  counter::WstCounterClient wst(*fx.caller, fx.wst->counter_address(),
                                fx.wst->source_address());
  wsrf.create();
  wsrf.set(41);
  wst.create();
  wst.set(42);

  ASSERT_EQ(wsrf.get(), 41);
  EXPECT_EQ(normalize_ids(wsrf_wire.request()),
            std::string(kEnvelopeOpen) +
                "<wsa:To>http://wsrf.example/Counter</wsa:To>"
                "<wsa:Action>http://docs.oasis-open.org/wsrf/rp-2/GetResourceProperty"
                "</wsa:Action><wsa:MessageID>urn:uuid:NORM</wsa:MessageID>"
                "<n3:ResourceID xmlns:n3=\"http://gridstacks.dev/wsrf\">ID"
                "</n3:ResourceID>" +
                kTraceHeader +
                "<soap:Body><n2:GetResourceProperty "
                "xmlns:n2=\"http://docs.oasis-open.org/wsrf/rp-2\" "
                "ns=\"http://gridstacks.dev/counter\">cv</n2:GetResourceProperty>"
                "</soap:Body></soap:Envelope>");
  EXPECT_EQ(normalize_ids(wsrf_wire.response()),
            std::string(kEnvelopeOpen) +
                "<wsa:Action>http://docs.oasis-open.org/wsrf/rp-2/"
                "GetResourcePropertyResponse</wsa:Action>"
                "<wsa:MessageID>urn:uuid:NORM</wsa:MessageID>"
                "<wsa:RelatesTo>urn:uuid:NORM</wsa:RelatesTo>" +
                kTraceHeader +
                "<soap:Body><n2:GetResourcePropertyResponse "
                "xmlns:n2=\"http://docs.oasis-open.org/wsrf/rp-2\"><n3:cv "
                "xmlns:n3=\"http://gridstacks.dev/counter\">41</n3:cv>"
                "</n2:GetResourcePropertyResponse></soap:Body></soap:Envelope>");

  ASSERT_EQ(wst.get(), 42);
  EXPECT_EQ(normalize_ids(wst_wire.request()),
            std::string(kEnvelopeOpen) +
                "<wsa:To>http://wst.example/Counter</wsa:To>"
                "<wsa:Action>http://schemas.xmlsoap.org/ws/2004/09/transfer/Get"
                "</wsa:Action><wsa:MessageID>urn:uuid:NORM</wsa:MessageID>"
                "<n3:ResourceID xmlns:n3=\"http://gridstacks.dev/wst\">ID"
                "</n3:ResourceID>" +
                kTraceHeader + "<soap:Body/></soap:Envelope>");
  EXPECT_EQ(normalize_ids(wst_wire.response()),
            std::string(kEnvelopeOpen) +
                "<wsa:Action>http://schemas.xmlsoap.org/ws/2004/09/transfer/"
                "GetResponse</wsa:Action>"
                "<wsa:MessageID>urn:uuid:NORM</wsa:MessageID>"
                "<wsa:RelatesTo>urn:uuid:NORM</wsa:RelatesTo>" +
                kTraceHeader +
                "<soap:Body><n2:Counter xmlns:n2=\"http://gridstacks.dev/counter\">"
                "<n2:cv>42</n2:cv></n2:Counter></soap:Body></soap:Envelope>");

  for (const CapturingEndpoint* wire : {&wsrf_wire, &wst_wire}) {
    expect_round_trip(wire->request());
    expect_round_trip(wire->response());
  }
}

// The WS-Transfer Create reply holds ResourceCreated/EndpointReference (and
// a Representation only when the service changed the document): the proxy
// reads them off the view and builds only the EPR it returns — 6 nodes
// (EndpointReference, Address and its text, ReferenceProperties,
// ResourceID and its text), of which from_xml keeps a 2-node clone of the
// ResourceID. The counter client copies that EPR once (for its retarget;
// the return value is moved), and the request costs the counter document
// (Counter, cv and its text) and the trace header.
TEST(WireProbe, WstCreateReplyBuildsOnlyTheEpr) {
  WireFixture fx;
  counter::WstCounterClient live(*fx.caller, fx.wst->counter_address(),
                                 fx.wst->source_address());
  CapturingEndpoint wire(fx.wst->container());
  fx.net.bind("wst.example", wire);
  live.create();
  ASSERT_NE(wire.response().find("ResourceCreated"), std::string::npos);

  ReplayCaller replay(wire.response());
  counter::WstCounterClient client(replay, fx.wst->counter_address(),
                                   fx.wst->source_address());
  std::uint64_t before = dom_nodes_now();
  soap::EndpointReference epr = client.create();
  EXPECT_EQ(dom_nodes_now() - before, 6u + 2u + 2u + 3u + 1u);
  EXPECT_EQ(epr.address(), fx.wst->counter_address());
  ASSERT_EQ(epr.reference_properties().size(), 1u);
  EXPECT_EQ(epr.reference_properties().front()->name().local(), "ResourceID");
}

// A consumer that reads a wrapped Notify builds the payload subtree and the
// message it keeps: Notify, NotificationMessage, Topic and its text,
// ProducerReference, Address and its text, Message, the 3-node event
// (CounterChanged, Value and its text), and the event's kept clone. Reading
// it through a mutable envelope thawed the headers too: 8 more.
TEST(WireProbe, ConsumerBuildsOnlyTheNotifyPayload) {
  xml::Element event(xml::QName("http://counter.example", "CounterChanged"));
  event.append_element(xml::QName("http://counter.example", "Value")).set_text("3 < 4");
  soap::EndpointReference consumer_epr("http://consumer.example/Sink");
  consumer_epr.add_reference_property(xml::QName("urn:ids", "SubscriptionID"), "s-1");
  net::HttpRequest request;
  request.path = "/Sink";
  request.body = wsn::make_notify_envelope("counter/changed", event, "http://p.example",
                                           consumer_epr)
                     .to_xml();

  wsn::NotificationConsumer consumer;
  std::uint64_t before = dom_nodes_now();
  ASSERT_EQ(consumer.handle(request).status, 200);
  EXPECT_EQ(dom_nodes_now() - before, 11u + 3u);
  ASSERT_EQ(consumer.count(), 1u);
  EXPECT_EQ(consumer.received().front().topic, "counter/changed");
}

// --- heap allocations per Get round trip ---------------------------------------

// The counts the direct envelope writer reached (tier-1 build; the
// response templates it replaced reached 143 and 99).
constexpr double kWsrfGetAllocations = 115;
constexpr double kWstGetAllocations = 75;

/// Heap allocations one Get costs end to end through the virtual fabric —
/// the client's request build, both HTTP hops, the container and the
/// client's read of the value — averaged over identical calls. Returns -1
/// if a Get read the wrong value.
template <typename Client>
double allocations_per_get(Client& client, int expected) {
  for (int i = 0; i < 5; ++i) client.get();  // warm caches and scratch buffers
  constexpr int kCalls = 50;
  bool correct = true;
  std::uint64_t before = tl_heap_allocations;
  for (int i = 0; i < kCalls; ++i) correct = client.get() == expected && correct;
  std::uint64_t made = tl_heap_allocations - before;
  return correct ? static_cast<double>(made) / kCalls : -1;
}

TEST(WireAllocations, GetRoundTripStaysUnderBound) {
  WireFixture fx;
  counter::WsrfCounterClient wsrf(*fx.caller, fx.wsrf->counter_address());
  counter::WstCounterClient wst(*fx.caller, fx.wst->counter_address(),
                                fx.wst->source_address());
  wsrf.create();
  wsrf.set(41);
  wst.create();
  wst.set(42);

  double wsrf_allocations = allocations_per_get(wsrf, 41);
  double wst_allocations = allocations_per_get(wst, 42);
  ASSERT_GT(wsrf_allocations, 0);
  ASSERT_GT(wst_allocations, 0);
  // Two bars per stack: the 200 the allocation-light wire path was built to
  // (a Get cost 379 on WSRF and 344 on WS-Transfer before it), and the
  // count it reached, with 10% slack.
  EXPECT_LE(wsrf_allocations, 200.0);
  EXPECT_LE(wst_allocations, 200.0);
  EXPECT_LE(wsrf_allocations, kWsrfGetAllocations * 1.1) << wsrf_allocations;
  EXPECT_LE(wst_allocations, kWstGetAllocations * 1.1) << wst_allocations;
  std::printf("allocations per Get: wsrf %.1f, wst %.1f\n", wsrf_allocations,
              wst_allocations);
}

}  // namespace
}  // namespace gs
