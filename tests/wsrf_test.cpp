// Tests for the WSRF stack: resource model, the four spec port types,
// base faults, and service groups.
#include <gtest/gtest.h>

#include "container/container.hpp"
#include "net/virtual_network.hpp"
#include "wsrf/base_faults.hpp"
#include "wsrf/client.hpp"
#include "wsrf/service_group.hpp"
#include "xml/parser.hpp"

namespace gs::wsrf {
namespace {

const char* kNs = "urn:app";
xml::QName app(const char* local) { return {kNs, local}; }

// A service whose resources are <Thing><value>N</value></Thing>, with a
// computed Squared property — the standard fixture for the port types.
struct Fixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(),
                        {.write_through_cache = true}};
  container::Container container{{.clock = &clock}};
  ResourceHome home{db, "things", &container.lifetime()};
  std::unique_ptr<WsrfService> service;
  std::unique_ptr<net::VirtualCaller> caller;

  Fixture() {
    PropertySet props;
    props.declare_stored(app("value"));
    props.declare_computed(app("Squared"), [](const xml::Element& state) {
      std::vector<std::unique_ptr<xml::Element>> out;
      int v = 0;
      if (const xml::Element* value = state.child(app("value"))) {
        v = std::stoi(value->text());
      }
      auto el = std::make_unique<xml::Element>(app("Squared"));
      el->set_text(std::to_string(v * v));
      out.push_back(std::move(el));
      return out;
    });
    props.declare_stored(app("tag"));
    service = std::make_unique<WsrfService>("Thing", home, std::move(props),
                                            "http://h/Thing");
    service->import_resource_properties();
    service->import_query_resource_properties();
    service->import_query_resources();
    service->import_resource_lifetime();
    container.deploy("/Thing", *service);
    net.bind("h", container);
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
  }

  soap::EndpointReference create_thing(int value,
                                       common::TimeMs termination =
                                           container::LifetimeManager::kNever) {
    auto state = std::make_unique<xml::Element>(app("Thing"));
    state->append_element(app("value")).set_text(std::to_string(value));
    return service->create_resource(std::move(state), termination);
  }

  WsResourceProxy proxy_for(const soap::EndpointReference& epr) {
    return WsResourceProxy(*caller, epr);
  }
};

// --- resource home ------------------------------------------------------------

TEST(ResourceHome, CreateAssignsGuidIds) {
  Fixture fx;
  soap::EndpointReference a = fx.create_thing(1);
  soap::EndpointReference b = fx.create_thing(2);
  auto id_a = a.reference_property(resource_id_qname());
  auto id_b = b.reference_property(resource_id_qname());
  ASSERT_TRUE(id_a && id_b);
  EXPECT_NE(*id_a, *id_b);
  EXPECT_EQ(id_a->size(), 36u);  // GUID: service-minted, opaque
}

TEST(ResourceHome, LoadUnknownThrowsResourceUnknownFault) {
  Fixture fx;
  try {
    (void)fx.home.load("no-such-id");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kResourceUnknown));
  }
}

TEST(ResourceHome, DestroyHooksFire) {
  Fixture fx;
  std::vector<std::string> destroyed;
  fx.home.on_destroyed([&](const std::string& id) { destroyed.push_back(id); });
  soap::EndpointReference epr = fx.create_thing(1);
  std::string id = *epr.reference_property(resource_id_qname());
  EXPECT_TRUE(fx.home.destroy(id));
  ASSERT_EQ(destroyed.size(), 1u);
  EXPECT_EQ(destroyed[0], id);
}

// --- GetResourceProperty ---------------------------------------------------------

TEST(ResourceProperties, GetStoredProperty) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(7));
  EXPECT_EQ(proxy.get_property_text(app("value")), "7");
}

TEST(ResourceProperties, GetComputedProperty) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(9));
  EXPECT_EQ(proxy.get_property_text(app("Squared")), "81");
}

TEST(ResourceProperties, GetUnknownPropertyFaults) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  try {
    proxy.get_property(app("nope"));
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kInvalidResourcePropertyQName));
  }
}

TEST(ResourceProperties, RequestWithoutResourceHeaderFaults) {
  Fixture fx;
  (void)fx.create_thing(1);
  // Target the bare service address: no ResourceID reference property.
  auto proxy = fx.proxy_for(soap::EndpointReference("http://h/Thing"));
  try {
    proxy.get_property(app("value"));
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kResourceUnknown));
  }
}

TEST(ResourceProperties, EachResourceHasIndependentState) {
  Fixture fx;
  auto p1 = fx.proxy_for(fx.create_thing(1));
  auto p2 = fx.proxy_for(fx.create_thing(2));
  p1.update_property_text(app("value"), "100");
  EXPECT_EQ(p1.get_property_text(app("value")), "100");
  EXPECT_EQ(p2.get_property_text(app("value")), "2");
}

TEST(ResourceProperties, GetMultiple) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(4));
  auto values = proxy.get_properties({app("value"), app("Squared")});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0]->text(), "4");
  EXPECT_EQ(values[1]->text(), "16");
}

TEST(ResourceProperties, GetDocumentProjectsAllProperties) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(3));
  auto doc = proxy.get_property_document();
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->child(app("value"))->text(), "3");
  EXPECT_EQ(doc->child(app("Squared"))->text(), "9");
}

// --- SetResourceProperties ---------------------------------------------------------

TEST(SetResourceProperties, UpdateReplacesValues) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(5));
  proxy.update_property_text(app("value"), "42");
  EXPECT_EQ(proxy.get_property_text(app("value")), "42");
  EXPECT_EQ(proxy.get_property_text(app("Squared")), "1764");
}

TEST(SetResourceProperties, InsertAppendsValues) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  auto tag = std::make_unique<xml::Element>(app("tag"));
  tag->set_text("first");
  proxy.insert_property(std::move(tag));
  auto tag2 = std::make_unique<xml::Element>(app("tag"));
  tag2->set_text("second");
  proxy.insert_property(std::move(tag2));
  auto values = proxy.get_property(app("tag"));
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0]->text(), "first");
  EXPECT_EQ(values[1]->text(), "second");
}

TEST(SetResourceProperties, DeleteRemovesAllValues) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  auto tag = std::make_unique<xml::Element>(app("tag"));
  tag->set_text("x");
  proxy.insert_property(std::move(tag));
  proxy.delete_property(app("tag"));
  EXPECT_TRUE(proxy.get_property(app("tag")).empty());
}

TEST(SetResourceProperties, ComputedPropertyIsReadOnly) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  try {
    proxy.update_property_text(app("Squared"), "999");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kInvalidResourcePropertyQName));
  }
}

TEST(SetResourceProperties, ChangeListenerFires) {
  Fixture fx;
  std::vector<std::string> changed;
  fx.service->on_property_changed(
      [&](const std::string&, const xml::QName& prop, const xml::Element&) {
        changed.push_back(prop.local());
      });
  auto proxy = fx.proxy_for(fx.create_thing(1));
  proxy.update_property_text(app("value"), "2");
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], "value");
}

TEST(SetResourceProperties, UpdatePersistsAcrossCacheBypass) {
  // The write must reach the backend, not just the cache.
  Fixture fx;
  soap::EndpointReference epr = fx.create_thing(5);
  auto proxy = fx.proxy_for(epr);
  proxy.update_property_text(app("value"), "50");
  std::string id = *epr.reference_property(resource_id_qname());
  auto raw = fx.db.backend().get("things", id);
  ASSERT_TRUE(raw.has_value());
  EXPECT_NE(raw->find("50"), std::string::npos);
}

// --- QueryResourceProperties ---------------------------------------------------------

TEST(QueryResourceProperties, XPathOverPropertyDocument) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(6));
  auto result = proxy.query("/ResourceProperties/value[. = 6]");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0]->text(), "6");
  EXPECT_TRUE(proxy.query("value[. = 7]").empty());
}

TEST(QueryResourceProperties, QueryCanUseComputedProperties) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(6));
  EXPECT_EQ(proxy.query("Squared[. = 36]").size(), 1u);
}

TEST(QueryResourceProperties, BadDialectFaults) {
  Fixture fx;
  soap::EndpointReference epr = fx.create_thing(1);

  class RawProxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    void query_with_dialect(const std::string& dialect) {
      auto req = std::make_unique<xml::Element>(
          xml::QName(soap::ns::kWsrfRp, "QueryResourceProperties"));
      auto& expr = req->append_element(
          xml::QName(soap::ns::kWsrfRp, "QueryExpression"));
      expr.set_attr("Dialect", dialect);
      expr.set_text("value");
      invoke(actions::kQueryResourceProperties, std::move(req));
    }
  };
  RawProxy proxy(*fx.caller, epr);
  try {
    proxy.query_with_dialect("urn:unknown-dialect");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kQueryEvaluationError));
  }
}

TEST(QueryResourceProperties, MalformedXPathFaults) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  try {
    proxy.query("value[");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kQueryEvaluationError));
  }
}

// --- QueryResources (multi-resource query extension) ----------------------------------

TEST(QueryResources, SelectsAcrossAllResourcesOfTheService) {
  // "This model of Resources allows WSRF.NET to perform rich queries over
  // that state of multiple resources."
  Fixture fx;
  (void)fx.create_thing(5);
  (void)fx.create_thing(50);
  (void)fx.create_thing(500);
  auto proxy = fx.proxy_for(soap::EndpointReference("http://h/Thing"));
  auto matches = proxy.query_resources("/Thing[number(value) > 10]");
  ASSERT_EQ(matches.size(), 2u);
  for (const auto& match : matches) {
    EXPECT_FALSE(match.epr.empty());
    ASSERT_TRUE(match.state);
    EXPECT_GT(std::stoi(match.state->child(app("value"))->text()), 10);
  }
}

TEST(QueryResources, ReturnedEprsAreLive) {
  Fixture fx;
  (void)fx.create_thing(7);
  auto proxy = fx.proxy_for(soap::EndpointReference("http://h/Thing"));
  auto matches = proxy.query_resources("/Thing[value = 7]");
  ASSERT_EQ(matches.size(), 1u);
  // The EPR from the query addresses a usable WS-Resource.
  auto resource = fx.proxy_for(matches[0].epr);
  EXPECT_EQ(resource.get_property_text(app("value")), "7");
  resource.destroy();
  EXPECT_TRUE(proxy.query_resources("/Thing[value = 7]").empty());
}

TEST(QueryResources, EmptyServiceYieldsNoMatches) {
  Fixture fx;
  auto proxy = fx.proxy_for(soap::EndpointReference("http://h/Thing"));
  EXPECT_TRUE(proxy.query_resources("/Thing").empty());
}

TEST(QueryResources, BadExpressionFaults) {
  Fixture fx;
  auto proxy = fx.proxy_for(soap::EndpointReference("http://h/Thing"));
  try {
    proxy.query_resources("broken[");
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kQueryEvaluationError));
  }
}

// --- WS-ResourceLifetime --------------------------------------------------------------

TEST(ResourceLifetime, DestroyRemovesResource) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  proxy.destroy();
  try {
    proxy.get_property(app("value"));
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kResourceUnknown));
  }
}

TEST(ResourceLifetime, DestroyTwiceFaults) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1));
  proxy.destroy();
  EXPECT_THROW(proxy.destroy(), soap::SoapFault);
}

TEST(ResourceLifetime, ScheduledTerminationDestroysOnSweep) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1, /*termination=*/2000));
  EXPECT_EQ(proxy.get_property_text(app("value")), "1");
  fx.clock.set(2001);
  // The next request sweeps the lifetime manager first.
  EXPECT_THROW(proxy.get_property(app("value")), soap::SoapFault);
}

TEST(ResourceLifetime, SetTerminationTimeExtendsLife) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1, /*termination=*/2000));
  EXPECT_EQ(proxy.set_termination_time(50'000), 50'000);
  fx.clock.set(10'000);
  EXPECT_EQ(proxy.get_property_text(app("value")), "1");  // still alive
  fx.clock.set(50'001);
  EXPECT_THROW(proxy.get_property(app("value")), soap::SoapFault);
}

TEST(ResourceLifetime, InfinityMeansNever) {
  Fixture fx;
  auto proxy = fx.proxy_for(fx.create_thing(1, /*termination=*/2000));
  EXPECT_EQ(proxy.set_termination_time(container::LifetimeManager::kNever),
            container::LifetimeManager::kNever);
  fx.clock.set(std::numeric_limits<common::TimeMs>::max() - 1);
  EXPECT_EQ(proxy.get_property_text(app("value")), "1");
}

// --- WS-BaseFaults ---------------------------------------------------------------------

TEST(BaseFaults, CarryStructuredDetail) {
  try {
    throw_base_fault(FaultType::kResourceUnknown, "gone", "the-originator");
  } catch (const soap::SoapFault& f) {
    EXPECT_EQ(f.fault().subcode, "wsbf:ResourceUnknownFault");
    auto detail = xml::parse_element(f.fault().detail);
    EXPECT_EQ(detail->name().local(), "BaseFault");
    EXPECT_NE(detail->child_local("Timestamp"), nullptr);
    EXPECT_EQ(detail->child_local("Description")->text(), "gone");
    EXPECT_EQ(detail->child_local("Originator")->text(), "the-originator");
  }
}

TEST(BaseFaults, SubcodeSurvivesWire) {
  Fixture fx;
  auto proxy = fx.proxy_for(soap::EndpointReference("http://h/Thing"));
  try {
    proxy.get_property(app("value"));
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kResourceUnknown));
    EXPECT_FALSE(is_base_fault(f, FaultType::kQueryEvaluationError));
  }
}

// --- WS-ServiceGroup ---------------------------------------------------------------------

struct GroupFixture {
  common::ManualClock clock{0};
  net::VirtualNetwork net;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container container{{.clock = &clock}};
  ResourceHome home{db, "entries", &container.lifetime()};
  ServiceGroupService group{"Registry", home, "http://h/Registry"};
  std::unique_ptr<net::VirtualCaller> caller;

  GroupFixture() {
    container.deploy("/Registry", group);
    net.bind("h", container);
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
  }

  ServiceGroupProxy proxy() {
    return ServiceGroupProxy(*caller, soap::EndpointReference("http://h/Registry"));
  }
};

TEST(ServiceGroup, AddAndListEntries) {
  GroupFixture fx;
  auto proxy = fx.proxy();
  auto content = std::make_unique<xml::Element>(app("SiteInfo"));
  content->set_text("node1");
  proxy.add(soap::EndpointReference("http://node1/Exec"), std::move(content));
  proxy.add(soap::EndpointReference("http://node2/Exec"), nullptr);

  auto entries = proxy.entries();
  ASSERT_EQ(entries.size(), 2u);
  std::set<std::string> members;
  for (const auto& e : entries) members.insert(e.member.address());
  EXPECT_TRUE(members.contains("http://node1/Exec"));
  EXPECT_TRUE(members.contains("http://node2/Exec"));
}

TEST(ServiceGroup, EntryContentRoundTrips) {
  GroupFixture fx;
  auto proxy = fx.proxy();
  auto content = std::make_unique<xml::Element>(app("SiteInfo"));
  content->set_attr("cpus", "8");
  proxy.add(soap::EndpointReference("http://node1/Exec"), std::move(content));
  auto entries = proxy.entries();
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(entries[0].content);
  EXPECT_EQ(entries[0].content->attr("cpus"), "8");
}

TEST(ServiceGroup, DestroyEntryRemovesMember) {
  GroupFixture fx;
  auto proxy = fx.proxy();
  soap::EndpointReference entry =
      proxy.add(soap::EndpointReference("http://node1/Exec"), nullptr);
  WsResourceProxy entry_proxy(*fx.caller, entry);
  entry_proxy.destroy();
  EXPECT_TRUE(proxy.entries().empty());
}

TEST(ServiceGroup, ContentRulesRejectForeignContent) {
  GroupFixture fx;
  fx.group.add_content_rule(app("SiteInfo"));
  auto proxy = fx.proxy();
  auto good = std::make_unique<xml::Element>(app("SiteInfo"));
  EXPECT_NO_THROW(
      proxy.add(soap::EndpointReference("http://ok/Exec"), std::move(good)));
  auto bad = std::make_unique<xml::Element>(app("Other"));
  try {
    proxy.add(soap::EndpointReference("http://bad/Exec"), std::move(bad));
    FAIL() << "expected fault";
  } catch (const soap::SoapFault& f) {
    EXPECT_TRUE(is_base_fault(f, FaultType::kAddRefused));
  }
}

TEST(ServiceGroup, BoundedLifetimeEntriesExpire) {
  GroupFixture fx;
  auto proxy = fx.proxy();
  proxy.add(soap::EndpointReference("http://node1/Exec"), nullptr,
            /*termination_time=*/500);
  EXPECT_EQ(proxy.entries().size(), 1u);
  fx.clock.set(501);
  EXPECT_TRUE(proxy.entries().empty());  // self-cleaning registry
}

}  // namespace
}  // namespace gs::wsrf
