// Tests for the extension surfaces: WS-MetadataExchange (the paper's
// suggested fix for WS-Transfer's schema gap), WSN GetCurrentMessage, and
// the real-process JobRunner mode.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gridbox/clients.hpp"
#include "net/virtual_network.hpp"
#include "wsn/client.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"
#include "wst/client.hpp"
#include "wst/metadata.hpp"
#include "xml/parser.hpp"

namespace gs {
namespace {

const char* kNs = "urn:app";
xml::QName app(const char* local) { return {kNs, local}; }

// ---------------------------------------------------------------------------
// WS-MetadataExchange
// ---------------------------------------------------------------------------

struct MexFixture {
  net::VirtualNetwork net;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container container{{}};
  wst::TransferService service{"Things", db, "things", "http://h/Things"};
  wst::MetadataExtension mex{service};
  std::unique_ptr<net::VirtualCaller> caller;

  MexFixture() {
    xml::ElementDecl thing(app("Thing"));
    thing.child(xml::ElementDecl(app("value"), xml::ContentType::kInteger));
    mex.declare("Thing", std::move(thing));
    container.deploy("/Things", service);
    net.bind("h", container);
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
  }

  wst::MetadataProxy proxy() {
    return wst::MetadataProxy(*caller, soap::EndpointReference("http://h/Things"));
  }
};

TEST(MetadataExchange, SchemaRoundTripsTheWire) {
  MexFixture fx;
  auto schemas = fx.proxy().get_metadata();
  ASSERT_EQ(schemas.size(), 1u);
  ASSERT_TRUE(schemas.contains("Thing"));
  const xml::Schema& schema = schemas.at("Thing");
  EXPECT_EQ(schema.root().name(), app("Thing"));
  ASSERT_EQ(schema.root().children().size(), 1u);
  EXPECT_EQ(schema.root().children()[0].decl->content(),
            xml::ContentType::kInteger);
}

TEST(MetadataExchange, FetchedSchemaValidatesDocuments) {
  MexFixture fx;
  xml::Schema schema = fx.proxy().get_schema("Thing");

  auto good = xml::parse_element("<Thing xmlns=\"urn:app\"><value>3</value></Thing>");
  EXPECT_TRUE(schema.validate(*good).valid());
  auto bad = xml::parse_element("<Thing xmlns=\"urn:app\"><val>3</val></Thing>");
  EXPECT_FALSE(schema.validate(*bad).valid());
}

TEST(MetadataExchange, ClosesTheSchemaGap) {
  // The wst_test SchemaGap scenario, repaired: a client that discovers the
  // schema via mex catches its drift BEFORE uploading, instead of storing
  // garbage the typed reader chokes on later.
  MexFixture fx;
  xml::Schema contract = fx.proxy().get_schema("Thing");

  auto drifted = std::make_unique<xml::Element>(app("Thing"));
  drifted->append_element(app("val")).set_text("1");  // wrong element name
  ASSERT_FALSE(contract.validate(*drifted).valid());  // caught client-side

  // A conforming document passes and the upload proceeds.
  auto ok = std::make_unique<xml::Element>(app("Thing"));
  ok->append_element(app("value")).set_text("1");
  ASSERT_TRUE(contract.validate(*ok).valid());
  wst::TransferProxy factory(*fx.caller,
                             soap::EndpointReference("http://h/Things"));
  EXPECT_NO_THROW(factory.create(std::move(ok)));
}

TEST(MetadataExchange, UnknownTypeFaults) {
  MexFixture fx;
  auto proxy = fx.proxy();
  EXPECT_THROW(proxy.get_schema("Nope"), soap::SoapFault);
}

TEST(MetadataExchange, MultipleTypesAdvertisedTogether) {
  MexFixture fx;
  xml::ElementDecl site(app("Site"));
  site.require_attr(xml::QName("host"));
  site.open_content();
  fx.mex.declare("Site", std::move(site));

  auto schemas = fx.proxy().get_metadata();
  EXPECT_EQ(schemas.size(), 2u);
  // Occurrence bounds and flags survive the wire.
  EXPECT_TRUE(schemas.at("Site").root().is_open());
  EXPECT_EQ(schemas.at("Site").root().required_attrs().size(), 1u);
}

TEST(MetadataExchange, UnboundedOccursSurvivesWire) {
  MexFixture fx;
  xml::ElementDecl list(app("List"));
  list.child_unbounded(xml::ElementDecl(app("item"), xml::ContentType::kString));
  fx.mex.declare("List", std::move(list));
  xml::Schema schema = fx.proxy().get_schema("List");
  auto many = xml::parse_element(
      "<List xmlns=\"urn:app\"><item>a</item><item>b</item><item>c</item></List>");
  EXPECT_TRUE(schema.validate(*many).valid());
  auto none = xml::parse_element("<List xmlns=\"urn:app\"/>");
  EXPECT_TRUE(schema.validate(*none).valid());  // minOccurs 0
}

// ---------------------------------------------------------------------------
// WSN GetCurrentMessage
// ---------------------------------------------------------------------------

struct CurrentMessageFixture {
  common::ManualClock clock{0};
  net::VirtualNetwork net;
  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container container{{.clock = &clock}};
  wsrf::ResourceHome sub_home{db, "subs", &container.lifetime()};
  std::unique_ptr<wsn::SubscriptionManagerService> manager;
  std::unique_ptr<container::Service> source;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<wsn::NotificationProducer> producer;

  CurrentMessageFixture() {
    manager = std::make_unique<wsn::SubscriptionManagerService>(
        sub_home, "http://p/Subs");
    source = std::make_unique<container::Service>("Source");
    caller = std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
    wsn::TopicNamespace topics;
    topics.add("job/done");
    producer = std::make_unique<wsn::NotificationProducer>(
        wsn::NotificationProducer::Config{caller.get(), "http://p/Source",
                                          manager.get(), &clock},
        std::move(topics));
    producer->register_into(*source);
    container.deploy("/Source", *source);
    net.bind("p", container);
  }

  wsn::NotificationProducerProxy proxy() {
    return wsn::NotificationProducerProxy(
        *caller, soap::EndpointReference("http://p/Source"));
  }
};

TEST(GetCurrentMessage, ReturnsLastPublishedMessage) {
  CurrentMessageFixture fx;
  xml::Element first(app("Event"));
  first.append_element(app("seq")).set_text("1");
  xml::Element second(app("Event"));
  second.append_element(app("seq")).set_text("2");
  fx.producer->notify("job/done", first);
  fx.producer->notify("job/done", second);

  auto current = fx.proxy().get_current_message("job/done");
  ASSERT_TRUE(current);
  EXPECT_EQ(current->child(app("seq"))->text(), "2");
}

TEST(GetCurrentMessage, FaultsBeforeAnyPublish) {
  CurrentMessageFixture fx;
  auto proxy = fx.proxy();
  EXPECT_THROW(proxy.get_current_message("job/done"), soap::SoapFault);
}

TEST(GetCurrentMessage, FaultsOnUnsupportedTopic) {
  CurrentMessageFixture fx;
  auto proxy = fx.proxy();
  EXPECT_THROW(proxy.get_current_message("not/a/topic"), soap::SoapFault);
}

TEST(GetCurrentMessage, PublishWithZeroSubscribersStillRecorded) {
  // Late joiners can catch up even though delivery fanned out to nobody.
  CurrentMessageFixture fx;
  xml::Element ev(app("Event"));
  ev.append_element(app("seq")).set_text("7");
  EXPECT_EQ(fx.producer->notify("job/done", ev), 0u);
  auto current = fx.proxy().get_current_message("job/done");
  ASSERT_TRUE(current);
  EXPECT_EQ(current->child(app("seq"))->text(), "7");
}

// ---------------------------------------------------------------------------
// Real-process jobs
// ---------------------------------------------------------------------------

TEST(RealJobs, RunsARealProcessToCompletion) {
  common::ManualClock clock(0);
  gridbox::JobRunner runner(clock);
  std::string pid = runner.spawn("exec:exit 0", "");
  // Wait for the child (bounded).
  for (int i = 0; i < 200; ++i) {
    auto status = runner.status(pid);
    ASSERT_TRUE(status.has_value());
    if (status->state != gridbox::JobRunner::State::kRunning) break;
    ::usleep(10'000);
  }
  auto status = runner.status(pid);
  EXPECT_EQ(status->state, gridbox::JobRunner::State::kExited);
  EXPECT_EQ(status->exit_code, 0);
}

TEST(RealJobs, PropagatesExitCode) {
  common::ManualClock clock(0);
  gridbox::JobRunner runner(clock);
  std::string pid = runner.spawn("exec:exit 17", "");
  for (int i = 0; i < 200; ++i) {
    if (runner.status(pid)->state != gridbox::JobRunner::State::kRunning) break;
    ::usleep(10'000);
  }
  EXPECT_EQ(runner.status(pid)->exit_code, 17);
}

TEST(RealJobs, RunsInWorkingDirectory) {
  common::ManualClock clock(0);
  auto dir = std::filesystem::temp_directory_path() / "gs-realjob";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  gridbox::JobRunner runner(clock);
  std::string pid = runner.spawn("exec:echo computed-output > result.txt", dir);
  for (int i = 0; i < 200; ++i) {
    if (runner.status(pid)->state != gridbox::JobRunner::State::kRunning) break;
    ::usleep(10'000);
  }
  EXPECT_EQ(runner.status(pid)->exit_code, 0);
  std::ifstream in(dir / "result.txt");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "computed-output");
  std::filesystem::remove_all(dir);
}

TEST(RealJobs, KillTerminatesRealProcess) {
  common::ManualClock clock(0);
  gridbox::JobRunner runner(clock);
  std::string pid = runner.spawn("exec:sleep 30", "");
  EXPECT_EQ(runner.status(pid)->state, gridbox::JobRunner::State::kRunning);
  EXPECT_TRUE(runner.kill(pid));
  EXPECT_EQ(runner.status(pid)->state, gridbox::JobRunner::State::kKilled);
}

TEST(RealJobs, ExitCallbackFiresOnPoll) {
  common::ManualClock clock(0);
  gridbox::JobRunner runner(clock);
  std::string completed_pid;
  std::string pid = runner.spawn(
      "exec:exit 3", "",
      [&](const std::string& p, const gridbox::JobRunner::Status& status) {
        completed_pid = p;
        EXPECT_EQ(status.exit_code, 3);
      });
  for (int i = 0; i < 200 && completed_pid.empty(); ++i) {
    runner.poll();
    ::usleep(10'000);
  }
  EXPECT_EQ(completed_pid, pid);
}

TEST(RealJobs, EndToEndThroughTheExecService) {
  // A real shell job through the full WSRF Grid-in-a-Box path: the job
  // reads the staged input and writes an output file, which the client
  // downloads afterwards — the complete Figure-5 loop with a real process.
  common::ManualClock clock(1'000'000);
  net::VirtualNetwork net;
  net::VirtualCaller caller(net, {});
  net::VirtualCaller outcalls(net, {});
  net::VirtualCaller sink(net, {.keep_alive = false});
  container::ContainerConfig cc;
  cc.clock = &clock;
  gridbox::WsrfGridDeployment grid({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .central_container = cc,
      .outcall_caller = &outcalls,
      .outcall_security = {},
      .notification_sink = &sink,
      .central_base = "http://vo.example",
      .reservation_ttl_ms = 4LL * 3600 * 1000,
      .admin_dn = "CN=admin,O=VO",
  });
  auto scratch = std::filesystem::temp_directory_path() / "gs-realjob-grid";
  std::filesystem::remove_all(scratch);
  grid.add_host({.host = "node1",
                 .base = "http://node1.example",
                 .backend = std::make_unique<xmldb::MemoryBackend>(),
                 .container = cc,
                 .file_root = scratch});
  net.bind("vo.example", grid.central_container());
  net.bind("node1.example", grid.host_container("node1"));

  net::VirtualCaller admin_caller(net, {});
  gridbox::WsrfAdminClient admin(admin_caller, grid, {"CN=admin,O=VO", {}});
  admin.add_account("CN=alice,O=VO", {gridbox::kPrivilegeSubmit});
  admin.register_site({"node1", grid.exec_address("node1"),
                       grid.data_address("node1"), {"wordcount"}});

  gridbox::WsrfUserClient alice(caller, grid, {"CN=alice,O=VO", {}});
  auto reservation = alice.make_reservation("node1");
  auto directory = alice.create_directory(grid.data_address("node1"));
  alice.upload(directory, "input.txt", "alpha beta gamma\n");
  auto job = alice.start_job(grid.exec_address("node1"),
                             "exec:wc -w < input.txt > output.txt", reservation,
                             directory);
  for (int i = 0; i < 300 && alice.job_status(job) == "running"; ++i) {
    ::usleep(10'000);
  }
  EXPECT_EQ(alice.job_status(job), "exited");
  EXPECT_EQ(alice.job_exit_code(job), 0);
  std::string output = alice.download(directory, "output.txt");
  EXPECT_NE(output.find("3"), std::string::npos);
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace gs
