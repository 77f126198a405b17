// Tests for the zero-copy wire path: BufferChain ownership semantics,
// ResponseTemplate byte identity with the DOM writer, and the end-to-end
// contract that a container's HTTP answer (template responses) is
// byte-identical (modulo fresh MessageID/trace ids) to the DOM response its
// in-process entry builds for the same request — for counter, gridbox and
// scheduler document shapes on both stacks. Also pins the Get envelopes
// each stack sends and bounds the heap allocations of a Get round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <regex>
#include <string>

#include "common/buffer_chain.hpp"
#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "soap/template.hpp"
#include "telemetry/propagation.hpp"
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

// --- ResponseTemplate: byte identity with the DOM writer ---------------------

xml::QName test_qn(const char* local) { return {"urn:wiretest", local}; }

soap::Envelope dom_reply(const std::string& action, const std::string& mid,
                         const std::string& rel) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.action = action;
  info.message_id = mid;
  info.relates_to = rel;
  env.write_addressing(info);
  return env;
}

const std::string kMid = "urn:uuid:00000000-0000-0000-0000-0000000000aa";
const std::string kRel = "urn:uuid:00000000-0000-0000-0000-0000000000bb";

TEST(ResponseTemplate, TextSlotsMatchDomWriterWithEscaping) {
  soap::ResponseTemplate::Spec spec;
  spec.action = "urn:wiretest/EchoResponse";
  spec.slots = 1;
  spec.trace_qname = telemetry::trace_header_qname();
  spec.build_payload = [](xml::Element& body) {
    xml::Element& echo = body.append_element(test_qn("Echo"));
    echo.append_element(test_qn("Value"))
        .set_text(soap::ResponseTemplate::slot_marker(0));
  };
  auto tpl = soap::ResponseTemplate::compile(std::move(spec));

  soap::PendingResponse pr;
  pr.tpl = tpl;
  pr.message_id = kMid;
  pr.relates_to = kRel;
  pr.values = {"x < y & \"z\""};  // must be escaped exactly like the writer

  soap::Envelope dom = dom_reply("urn:wiretest/EchoResponse", kMid, kRel);
  xml::Element& echo = dom.add_payload(test_qn("Echo"));
  echo.append_element(test_qn("Value")).set_text("x < y & \"z\"");

  EXPECT_EQ(pr.render_string(), dom.to_xml());
}

TEST(ResponseTemplate, ElementFragmentMatchesDomWriter) {
  soap::ResponseTemplate::Spec spec;
  spec.action = "urn:wiretest/GetResponse";
  spec.fragment = true;
  spec.trace_qname = telemetry::trace_header_qname();
  spec.build_payload = [](xml::Element& body) {
    body.append(soap::ResponseTemplate::placeholder());
  };
  auto tpl = soap::ResponseTemplate::compile(std::move(spec));

  // A fragment with its own namespace: the writer must bind prefixes for
  // it exactly as it would mid-tree on the DOM path.
  const char* doc =
      "<Job xmlns=\"urn:sched\"><Nodes>4</Nodes><State>queued</State></Job>";

  soap::PendingResponse pr;
  pr.tpl = tpl;
  pr.message_id = kMid;
  pr.relates_to = kRel;
  pr.fragment.push_back(xml::parse_element(doc));

  soap::Envelope dom = dom_reply("urn:wiretest/GetResponse", kMid, kRel);
  dom.add_payload(xml::parse_element(doc));

  EXPECT_EQ(pr.render_string(), dom.to_xml());
}

TEST(ResponseTemplate, RawOctetFragmentsSpliceVerbatim) {
  soap::ResponseTemplate::Spec spec;
  spec.action = "urn:wiretest/GetResponse";
  spec.fragment = true;
  spec.trace_qname = telemetry::trace_header_qname();
  spec.build_payload = [](xml::Element& body) {
    body.append(soap::ResponseTemplate::placeholder());
  };
  auto tpl = soap::ResponseTemplate::compile(std::move(spec));

  // Octets that round-trip through the writer unchanged (as database
  // octets do) must splice byte-identically to the element path.
  const char* doc = "<Job xmlns=\"urn:sched\"><Nodes>4</Nodes></Job>";
  soap::PendingResponse via_element;
  via_element.tpl = tpl;
  via_element.message_id = kMid;
  via_element.relates_to = kRel;
  via_element.fragment.push_back(xml::parse_element(doc));

  soap::PendingResponse via_shared;
  via_shared.tpl = tpl;
  via_shared.message_id = kMid;
  via_shared.relates_to = kRel;
  via_shared.fragment_shared = std::make_shared<const std::string>(doc);

  soap::PendingResponse via_raw;
  via_raw.tpl = tpl;
  via_raw.message_id = kMid;
  via_raw.relates_to = kRel;
  via_raw.fragment_raw = doc;

  EXPECT_EQ(via_shared.render_string(), via_element.render_string());
  EXPECT_EQ(via_raw.render_string(), via_element.render_string());
}

TEST(ResponseTemplate, TracedVariantMatchesDomWriter) {
  soap::ResponseTemplate::Spec spec;
  spec.action = "urn:wiretest/AckResponse";
  spec.trace_qname = telemetry::trace_header_qname();
  spec.build_payload = [](xml::Element& body) {
    body.append_element(test_qn("Ack"));
  };
  auto tpl = soap::ResponseTemplate::compile(std::move(spec));

  soap::PendingResponse pr;
  pr.tpl = tpl;
  pr.message_id = kMid;
  pr.relates_to = kRel;
  pr.trace_id = "12345";
  pr.span_id = "678";

  // The DOM path: payload first, trace header appended after the service
  // returns — the same order the container uses.
  soap::Envelope dom = dom_reply("urn:wiretest/AckResponse", kMid, kRel);
  dom.add_payload(test_qn("Ack"));
  telemetry::TraceContext trace;
  trace.trace_id = 12345;
  trace.span_id = 678;
  telemetry::write_trace_header(dom, trace);

  EXPECT_EQ(pr.render_string(), dom.to_xml());
}

TEST(ResponseTemplate, CompileRejectsMissingPlaceholder) {
  soap::ResponseTemplate::Spec spec;
  spec.action = "urn:wiretest/BadResponse";
  spec.fragment = true;  // declared but build_payload never places it
  spec.trace_qname = telemetry::trace_header_qname();
  spec.build_payload = [](xml::Element& body) {
    body.append_element(test_qn("NoSlot"));
  };
  EXPECT_THROW(soap::ResponseTemplate::compile(std::move(spec)),
               std::logic_error);
}

// --- container level: templates vs the DOM response path, byte for byte -----

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
                           std::unique_ptr<xml::Element> payload) {
  soap::Envelope request;
  soap::MessageInfo info;
  info.target(target);
  info.action = action;
  info.message_id = kRequestId;
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

/// The DOM response path: the in-process entry never answers from a
/// template, so it builds and writes the reply as a DOM.
std::string dom_response(container::Container& container,
                         const net::HttpRequest& http) {
  return container.process(soap::Envelope::from_xml(http.body), http.path)
      .to_xml();
}

/// Sends the request through the HTTP entry (template responses where
/// eligible) and through the in-process entry (DOM responses) and asserts
/// the normalized response octets are identical. Returns the HTTP body for
/// additional assertions.
std::string expect_templates_match_dom(
    container::Container& container,
    const std::function<net::HttpRequest()>& make_request) {
  net::HttpRequest http = make_request();
  std::string wire = container.handle(http).body_str();
  EXPECT_EQ(normalize(wire), normalize(dom_response(container, http)));
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

// Document shapes from the three applications the repo models.
const char* kCounterDoc = "<cnt:counter xmlns:cnt=\"http://counter.example\"><cnt:cv>7</cnt:cv></cnt:counter>";
const char* kGridboxDoc =
    "<Reservation xmlns=\"http://gridstacks.dev/gridbox\"><Host>node1</Host>"
    "<User>CN=alice,O=VO</User><Start>1000</Start><End>2000</End></Reservation>";
const char* kSchedDoc =
    "<Job xmlns=\"http://gridstacks.dev/sched\"><Partition>batch</Partition>"
    "<Nodes>4</Nodes><State>queued</State></Job>";

TEST(WireFastPath, WsrfGetResourcePropertyByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(41);

  std::string body =
      expect_templates_match_dom(fx.wsrf->container(), [&] {
        return soap_post(epr, wsrf::actions::kGetResourceProperty,
                         property_name_element(counter::cv_qname()));
      });
  EXPECT_NE(body.find("41"), std::string::npos);
  EXPECT_NE(body.find("GetResourcePropertyResponse"), std::string::npos);
}

TEST(WireFastPath, WsrfComputedPropertyByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(21);

  std::string body =
      expect_templates_match_dom(fx.wsrf->container(), [&] {
        return soap_post(epr, wsrf::actions::kGetResourceProperty,
                         property_name_element(counter::double_value_qname()));
      });
  EXPECT_NE(body.find("42"), std::string::npos);
}

TEST(WireFastPath, WsrfGetPropertyDocumentByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();
  client.set(5);

  expect_templates_match_dom(fx.wsrf->container(), [&] {
    return soap_post(epr, wsrf::actions::kGetResourcePropertyDocument,
                     std::make_unique<xml::Element>(xml::QName(
                         soap::ns::kWsrfRp, "GetResourcePropertyDocument")));
  });
}

TEST(WireFastPath, WsrfSetAckByteIdentical) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();

  expect_templates_match_dom(fx.wsrf->container(), [&] {
    auto request = std::make_unique<xml::Element>(
        xml::QName(soap::ns::kWsrfRp, "SetResourceProperties"));
    xml::Element& update = request->append_element(
        xml::QName(soap::ns::kWsrfRp, "Update"));
    update.append_element(counter::cv_qname()).set_text("9");
    return soap_post(epr, wsrf::actions::kSetResourceProperties,
                     std::move(request));
  });
}

TEST(WireFastPath, WsrfFaultParity) {
  WireFixture fx;
  counter::WsrfCounterClient client(*fx.caller, fx.wsrf->counter_address());
  soap::EndpointReference epr = client.create();

  // Requesting an undeclared property faults; the fault must serialize
  // identically whichever parser/serializer handled the request.
  std::string body = expect_templates_match_dom(fx.wsrf->container(), [&] {
    return soap_post(epr, wsrf::actions::kGetResourceProperty,
                     property_name_element({"urn:none", "Missing"}));
  });
  EXPECT_NE(body.find("Fault"), std::string::npos);
}

TEST(WireFastPath, WsrfDocumentShapesByteIdentical) {
  WireFixture fx;
  for (const char* doc : {kGridboxDoc, kSchedDoc}) {
    soap::EndpointReference epr =
        fx.wsrf->service().create_resource(xml::parse_element(doc));
    expect_templates_match_dom(fx.wsrf->container(), [&] {
      return soap_post(epr, wsrf::actions::kGetResourcePropertyDocument,
                       std::make_unique<xml::Element>(xml::QName(
                           soap::ns::kWsrfRp, "GetResourcePropertyDocument")));
    });
  }
}

TEST(WireFastPath, WstGetByteIdenticalAcrossDocumentShapes) {
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
    std::string body = expect_templates_match_dom(fx.wst->container(), [&] {
      return soap_post(fx.wst->service().epr_for(c.id), wst::actions::kGet,
                       nullptr);
    });
    // The representation crossed database → wire: spot-check content.
    auto parsed = xml::parse_element(c.doc);
    EXPECT_NE(body.find(parsed->name().local()), std::string::npos) << c.id;
  }
}

TEST(WireFastPath, WstPutAckByteIdentical) {
  WireFixture fx;
  counter::WstCounterClient client(*fx.caller, fx.wst->counter_address(),
                                   fx.wst->source_address());
  soap::EndpointReference epr = client.create();

  expect_templates_match_dom(fx.wst->container(), [&] {
    auto replacement = xml::parse_element(
        "<c:counter xmlns:c=\"" + std::string(soap::ns::kCounter) +
        "\"><c:cv>3</c:cv></c:counter>");
    return soap_post(epr, wst::actions::kPut, std::move(replacement));
  });
}

TEST(WireFastPath, WstDeleteAckByteIdentical) {
  WireFixture fx;
  // Delete is destructive: run the template and DOM paths against two
  // distinct seeded resources (the ack carries no resource id, so the
  // normalized octets must still match).
  const std::string collection = fx.wst->service().collection();
  fx.wst->db().store(collection, "del-a", *xml::parse_element(kSchedDoc));
  fx.wst->db().store(collection, "del-b", *xml::parse_element(kSchedDoc));

  std::string wire =
      fx.wst->container()
          .handle(soap_post(fx.wst->service().epr_for("del-a"),
                            wst::actions::kDelete, nullptr))
          .body_str();
  std::string dom = dom_response(
      fx.wst->container(),
      soap_post(fx.wst->service().epr_for("del-b"), wst::actions::kDelete, nullptr));
  EXPECT_EQ(normalize(wire), normalize(dom));
  EXPECT_NE(wire.find("DeleteResponse"), std::string::npos);
}

TEST(WireFastPath, WstFaultParity) {
  WireFixture fx;
  std::string body = expect_templates_match_dom(fx.wst->container(), [&] {
    return soap_post(fx.wst->service().epr_for("no-such-resource"),
                     wst::actions::kGet, nullptr);
  });
  EXPECT_NE(body.find("Fault"), std::string::npos);
}

// --- allocation probe: templates must slash DOM node churn ------------------

constexpr int kProbeRequests = 20;

/// Sends `kProbeRequests` identical requests through the HTTP entry and as
/// many through the DOM response path, returning the DOM nodes each built:
/// the container's xml.nodes_per_request sum, and the thread-local probe
/// delta around from_xml + process + to_xml.
std::pair<std::uint64_t, std::uint64_t> measure_nodes(
    container::Container& container, telemetry::Histogram& nodes,
    const std::function<net::HttpRequest()>& request) {
  net::HttpRequest http = request();
  container.handle(http);  // warm the compiled template
  std::uint64_t before = nodes.sum_us();
  for (int i = 0; i < kProbeRequests; ++i) container.handle(http);
  std::uint64_t wire = nodes.sum_us() - before;

  std::uint64_t dom_before = xml::probe::snapshot().dom_nodes;
  for (int i = 0; i < kProbeRequests; ++i) dom_response(container, http);
  std::uint64_t dom = xml::probe::snapshot().dom_nodes - dom_before;
  return {wire, dom};
}

TEST(WireProbe, WstGetAllocatesFiveTimesFewerNodes) {
  telemetry::MetricsRegistry metrics;
  WireFixture fx(&metrics);
  // Get on the uncached WST database is the end-to-end zero-copy path:
  // arena-parsed request, stored octets spliced into the skeleton — the
  // only DOM nodes are the resource-id reference header read_addressing
  // copies out (element + text).
  fx.wst->db().store(fx.wst->service().collection(), "probe",
                     *xml::parse_element(kSchedDoc));

  auto [wire_nodes, dom_nodes] = measure_nodes(
      fx.wst->container(), metrics.histogram("xml.nodes_per_request"), [&] {
        return soap_post(fx.wst->service().epr_for("probe"),
                         wst::actions::kGet, nullptr);
      });

  // Two bars: at most 2 nodes per request (the count before the request
  // parse and the DOM response path shared one parser), and >= 5x fewer
  // than the DOM response path builds for the same request.
  EXPECT_LE(wire_nodes, 2u * kProbeRequests);
  EXPECT_GT(dom_nodes, 0u);
  EXPECT_GE(dom_nodes, 5 * std::max<std::uint64_t>(wire_nodes, 1))
      << "wire=" << wire_nodes << " dom=" << dom_nodes;

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
  // resource-cache behaviour the paper measures), so nodes don't reach
  // zero — but response building is gone. Two bars: at most 9 nodes per
  // request (the count before the request parse and the DOM response path
  // shared one parser), and under half of what the DOM response path builds.
  EXPECT_LE(wire_nodes, 9u * kProbeRequests);
  EXPECT_GT(dom_nodes, 0u);
  EXPECT_LT(2 * wire_nodes, dom_nodes)
      << "wire=" << wire_nodes << " dom=" << dom_nodes;
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

/// Octets must survive parse -> to_dom -> write unchanged.
void expect_round_trip(const std::string& octets) {
  EXPECT_EQ(xml::write(*xml::ArenaDocument::parse(octets).to_dom()), octets);
}

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

// --- heap allocations per Get round trip ---------------------------------------

// The counts the wire path reached (tier-1 build).
constexpr double kWsrfGetAllocations = 143;
constexpr double kWstGetAllocations = 99;

/// Heap allocations one Get costs end to end through the virtual fabric —
/// the client's request build, both HTTP hops, the container and the
/// client's read of the value — averaged over identical calls. Returns -1
/// if a Get read the wrong value.
template <typename Client>
double allocations_per_get(Client& client, int expected) {
  for (int i = 0; i < 5; ++i) client.get();  // warm templates, caches, scratch
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
