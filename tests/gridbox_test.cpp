// Tests for Grid-in-a-Box on both stacks: the full Figure-5 workflow,
// authorization, resource modeling differences, lifetime management
// (automatic vs manual unreserve, including the leak), and outcall counts
// (the quantity Figure 6 turns on).
#include <gtest/gtest.h>

#include <filesystem>

#include "common/encoding.hpp"
#include "gridbox/clients.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "wsn/consumer.hpp"
#include "wst/service.hpp"

namespace gs::gridbox {
namespace {

const std::string kAdminDn = "CN=admin,O=VO";
const std::string kAliceDn = "CN=alice,O=VO";
const std::string kMalloryDn = "CN=mallory,O=Evil";

std::filesystem::path temp_dir(const std::string& tag) {
  auto p = std::filesystem::temp_directory_path() / ("gs-gridbox-" + tag);
  std::filesystem::remove_all(p);
  return p;
}

// ---------------------------------------------------------------------------
// WSRF fixture
// ---------------------------------------------------------------------------

struct WsrfFixture {
  common::ManualClock clock{1'000'000};
  net::VirtualNetwork net;
  net::WireMeter meter;
  std::unique_ptr<net::VirtualCaller> caller;     // client traffic
  std::unique_ptr<net::VirtualCaller> outcalls;   // server-to-server
  std::unique_ptr<net::VirtualCaller> sink;       // notifications
  std::unique_ptr<WsrfGridDeployment> grid;
  wsn::NotificationConsumer consumer;

  WsrfFixture() {
    caller = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});
    outcalls = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});
    sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    container::ContainerConfig cc;
    cc.clock = &clock;
    grid = std::make_unique<WsrfGridDeployment>(WsrfGridDeployment::Params{
        .backend = std::make_unique<xmldb::MemoryBackend>(),
        .central_container = cc,
        .outcall_caller = outcalls.get(),
        .outcall_security = {},
        .notification_sink = sink.get(),
        .central_base = "http://vo.example",
        .reservation_ttl_ms = 4LL * 3600 * 1000,
        .admin_dn = kAdminDn,
    });
    grid->add_host({.host = "node1",
                    .base = "http://node1.example",
                    .backend = std::make_unique<xmldb::MemoryBackend>(),
                    .container = cc,
                    .file_root = temp_dir("wsrf-node1")});
    net.bind("vo.example", grid->central_container());
    net.bind("node1.example", grid->host_container("node1"));
    net.bind("user.example", consumer);

    WsrfAdminClient admin(*caller, *grid, {kAdminDn, {}});
    admin.add_account(kAliceDn, {kPrivilegeSubmit});
    admin.register_site({"node1", grid->exec_address("node1"),
                         grid->data_address("node1"), {"blast", "render"}});
  }

  WsrfUserClient alice() { return WsrfUserClient(*caller, *grid, {kAliceDn, {}}); }
  WsrfUserClient mallory() {
    return WsrfUserClient(*caller, *grid, {kMalloryDn, {}});
  }
};

// ---------------------------------------------------------------------------
// WST fixture
// ---------------------------------------------------------------------------

struct WstFixture {
  common::ManualClock clock{1'000'000};
  net::VirtualNetwork net;
  net::WireMeter meter;
  std::unique_ptr<net::VirtualCaller> caller;
  std::unique_ptr<net::VirtualCaller> outcalls;
  std::unique_ptr<net::VirtualCaller> tcp_sink;
  std::unique_ptr<WstGridDeployment> grid;
  wsn::NotificationConsumer consumer;

  WstFixture() {
    caller = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});
    outcalls = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.meter = &meter});
    tcp_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.transport = net::TransportKind::kSoapTcp});
    container::ContainerConfig cc;
    cc.clock = &clock;
    grid = std::make_unique<WstGridDeployment>(WstGridDeployment::Params{
        .backend = std::make_unique<xmldb::MemoryBackend>(),
        .central_container = cc,
        .outcall_caller = outcalls.get(),
        .outcall_security = {},
        .notification_sink = tcp_sink.get(),
        .central_base = "http://vo.example",
        .reservation_ttl_ms = 4LL * 3600 * 1000,
        .admin_dn = kAdminDn,
    });
    grid->add_host({.host = "node1",
                    .base = "http://node1.example",
                    .backend = std::make_unique<xmldb::MemoryBackend>(),
                    .container = cc,
                    .file_root = temp_dir("wst-node1"),
                    .subscription_file = {}});
    net.bind("vo.example", grid->central_container());
    net.bind("node1.example", grid->host_container("node1"));
    net.bind("user.example", consumer);

    WstAdminClient admin(*caller, *grid, {kAdminDn, {}});
    admin.add_account(kAliceDn, {kPrivilegeSubmit});
    admin.register_site({"node1", grid->exec_address("node1"),
                         grid->data_address("node1"), {"blast", "render"}});
  }

  WstUserClient alice() { return WstUserClient(*caller, *grid, {kAliceDn, {}}); }
  WstUserClient mallory() {
    return WstUserClient(*caller, *grid, {kMalloryDn, {}});
  }
};

// ---------------------------------------------------------------------------
// WSRF variant
// ---------------------------------------------------------------------------

TEST(WsrfGrid, FullWorkflowFigure5) {
  WsrfFixture fx;
  auto alice = fx.alice();

  // 1. What resources are available for my application?
  auto sites = alice.get_available_resources("blast");
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].host, "node1");

  // 4. Reserve.
  auto reservation = alice.make_reservation("node1");

  // 5-7. Create a data resource and stage in.
  auto directory = alice.create_directory(sites[0].data_address);
  alice.upload(directory, "input.dat", "sequence data");
  EXPECT_EQ(alice.list_files(directory),
            std::vector<std::string>{"input.dat"});

  // 9-10a. Subscribe for completion, start the job.
  auto sub = alice.subscribe_completion(
      sites[0].exec_address, soap::EndpointReference("http://user.example/s"));
  auto job = alice.start_job(sites[0].exec_address, "sim:duration=100,exit=0",
                             reservation, directory);
  EXPECT_EQ(alice.job_status(job), "running");
  EXPECT_FALSE(alice.job_exit_code(job).has_value());

  // The job finishes; the notification carries the job EPR.
  fx.clock.advance(150);
  fx.grid->job_runner("node1").poll();
  EXPECT_EQ(alice.job_status(job), "exited");
  EXPECT_EQ(alice.job_exit_code(job), 0);
  ASSERT_TRUE(fx.consumer.wait_for(1, 2000));
  auto received = fx.consumer.received();
  EXPECT_EQ(received[0].topic, kJobCompletedTopic);
  EXPECT_NE(received[0].payload->child_local("JobEPR"), nullptr);

  // 11. Cleanup.
  alice.delete_file(directory, "input.dat");
  alice.destroy(job);
  alice.destroy(directory);
}

TEST(WsrfGrid, ReservationRemovesHostFromAvailability) {
  WsrfFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  EXPECT_TRUE(alice.get_available_resources("blast").empty());
}

TEST(WsrfGrid, DoubleReservationRejected) {
  WsrfFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  EXPECT_THROW(alice.make_reservation("node1"), soap::SoapFault);
}

TEST(WsrfGrid, AutomaticUnreserveAfterJobCompletes) {
  // "Un-reserving a resource also happens automatically in the WSRF
  // version (so no time is reported)." Claimed reservations are destroyed
  // by the ExecService when the job exits.
  WsrfFixture fx;
  auto alice = fx.alice();
  auto reservation = alice.make_reservation("node1");
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  auto job = alice.start_job(fx.grid->exec_address("node1"),
                             "sim:duration=50,exit=0", reservation, directory);
  EXPECT_TRUE(alice.get_available_resources("blast").empty());
  fx.clock.advance(100);
  fx.grid->job_runner("node1").poll();
  EXPECT_EQ(alice.get_available_resources("blast").size(), 1u);
  (void)job;
}

TEST(WsrfGrid, UnclaimedReservationExpiresByScheduledTermination) {
  // Reservations get "current time plus an administrator specified delta";
  // if never claimed, the lifetime manager reclaims the host.
  WsrfFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  fx.clock.advance(4LL * 3600 * 1000 + 1);
  EXPECT_EQ(alice.get_available_resources("blast").size(), 1u);
}

TEST(WsrfGrid, ClaimedReservationDoesNotExpire) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto reservation = alice.make_reservation("node1");
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  // Claim happens inside start_job (termination time -> infinity). A job
  // longer than the reservation TTL keeps the host.
  (void)alice.start_job(fx.grid->exec_address("node1"),
                        "sim:duration=100000000,exit=0", reservation, directory);
  fx.clock.advance(5LL * 3600 * 1000);
  EXPECT_TRUE(alice.get_available_resources("blast").empty());
}

TEST(WsrfGrid, UnknownUserRejected) {
  WsrfFixture fx;
  auto mallory = fx.mallory();
  EXPECT_THROW(mallory.get_available_resources("blast"), soap::SoapFault);
  EXPECT_THROW(mallory.make_reservation("node1"), soap::SoapFault);
}

TEST(WsrfGrid, JobNeedsCallersOwnReservation) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto reservation = alice.make_reservation("node1");
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  // Mallory (even with an account) cannot use alice's reservation.
  WsrfAdminClient admin(*fx.caller, *fx.grid, {kAdminDn, {}});
  admin.add_account(kMalloryDn, {kPrivilegeSubmit});
  auto mallory = fx.mallory();
  EXPECT_THROW(mallory.start_job(fx.grid->exec_address("node1"), "sim:exit=0",
                                 reservation, directory),
               soap::SoapFault);
}

TEST(WsrfGrid, SubmitPrivilegeRequired) {
  WsrfFixture fx;
  WsrfAdminClient admin(*fx.caller, *fx.grid, {kAdminDn, {}});
  admin.add_account("CN=bob,O=VO", {});  // account, but no submit privilege
  WsrfUserClient bob(*fx.caller, *fx.grid, {"CN=bob,O=VO", {}});
  auto reservation = bob.make_reservation("node1");
  auto directory = bob.create_directory(fx.grid->data_address("node1"));
  EXPECT_THROW(bob.start_job(fx.grid->exec_address("node1"), "sim:exit=0",
                             reservation, directory),
               soap::SoapFault);
}

TEST(WsrfGrid, DirectoryOwnershipEnforced) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  alice.upload(directory, "secret.txt", "classified");
  WsrfAdminClient admin(*fx.caller, *fx.grid, {kAdminDn, {}});
  admin.add_account(kMalloryDn, {kPrivilegeSubmit});
  auto mallory = fx.mallory();
  EXPECT_THROW(mallory.download(directory, "secret.txt"), soap::SoapFault);
  EXPECT_THROW(mallory.upload(directory, "virus.txt", "x"), soap::SoapFault);
}

TEST(WsrfGrid, FilesPropertyIsComputedFromDirectory) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  EXPECT_TRUE(alice.list_files(directory).empty());
  alice.upload(directory, "b.txt", "2");
  alice.upload(directory, "a.txt", "1");
  std::vector<std::string> expected = {"a.txt", "b.txt"};
  EXPECT_EQ(alice.list_files(directory), expected);
  alice.delete_file(directory, "a.txt");
  EXPECT_EQ(alice.list_files(directory), std::vector<std::string>{"b.txt"});
}

TEST(WsrfGrid, DestroyDirectoryRemovesFiles) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  alice.upload(directory, "data.txt", "x");
  alice.destroy(directory);
  EXPECT_THROW(alice.list_files(directory), soap::SoapFault);
}

TEST(WsrfGrid, DestroyKillsRunningJob) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto reservation = alice.make_reservation("node1");
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  auto job = alice.start_job(fx.grid->exec_address("node1"),
                             "sim:duration=1000000,exit=0", reservation,
                             directory);
  EXPECT_EQ(alice.job_status(job), "running");
  EXPECT_TRUE(alice.get_available_resources("blast").empty());
  alice.destroy(job);
  // The kill fired the job's exit callback, whose automatic unreserve hands
  // the host back; the clock never moved, so nothing else could have.
  EXPECT_EQ(alice.get_available_resources("blast").size(), 1u);
}

TEST(WsrfGrid, DownloadReturnsUploadedBytes) {
  WsrfFixture fx;
  auto alice = fx.alice();
  auto directory = alice.create_directory(fx.grid->data_address("node1"));
  std::string payload = "binary\0data\xff with arbitrary bytes";
  alice.upload(directory, "out.bin", payload);
  EXPECT_EQ(alice.download(directory, "out.bin"), payload);
}

// ---------------------------------------------------------------------------
// WST variant
// ---------------------------------------------------------------------------

TEST(WstGrid, FullWorkflow) {
  WstFixture fx;
  auto alice = fx.alice();

  auto sites = alice.get_available_resources("blast");
  ASSERT_EQ(sites.size(), 1u);

  alice.make_reservation("node1");
  alice.upload(sites[0].data_address, "input.dat", "sequence data");
  EXPECT_EQ(alice.list_files(sites[0].data_address),
            std::vector<std::string>{"input.dat"});

  alice.subscribe_completion(fx.grid->event_source_address("node1"),
                             soap::EndpointReference("http://user.example/s"));
  auto job = alice.start_job(sites[0].exec_address, "sim:duration=100,exit=3");
  EXPECT_EQ(alice.job_status(job), "running");

  fx.clock.advance(150);
  fx.grid->job_runner("node1").poll();
  EXPECT_EQ(alice.job_status(job), "exited");
  EXPECT_EQ(alice.job_exit_code(job), 3);
  ASSERT_TRUE(fx.consumer.wait_for(1, 2000));

  alice.delete_file(sites[0].data_address, "input.dat");
  alice.remove(job);
  alice.unreserve("node1");
  EXPECT_EQ(alice.get_available_resources("blast").size(), 1u);
}

TEST(WstGrid, NonOpaqueFileIds) {
  // "The EPR of the resource (file) is in the format user's DN/filename" —
  // the name is legible and client-predictable.
  WstFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  auto epr = alice.upload(fx.grid->data_address("node1"), "input.dat", "x");
  EXPECT_EQ(*epr.reference_property(wst::transfer_id_qname()),
            kAliceDn + "/input.dat");
}

TEST(WstGrid, UploadRequiresReservation) {
  WstFixture fx;
  auto alice = fx.alice();
  // No reservation: the Data service's outcall to the allocation service
  // rejects the upload.
  EXPECT_THROW(alice.upload(fx.grid->data_address("node1"), "f.txt", "x"),
               soap::SoapFault);
}

TEST(WstGrid, ManualUnreserveRequired_TheLeak) {
  // WS-Transfer lacks lifetime management: "A failure to destroy a
  // reservation after a job is finished would prevent the subsequent use
  // of that execution resource." The host stays reserved forever.
  WstFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  auto job = alice.start_job(fx.grid->exec_address("node1"),
                             "sim:duration=50,exit=0");
  fx.clock.advance(100);
  fx.grid->job_runner("node1").poll();
  EXPECT_EQ(alice.job_status(job), "exited");
  // Job done, client "forgets" to unreserve. Even days later the host is
  // still unavailable — the leak.
  fx.clock.advance(72LL * 3600 * 1000);
  EXPECT_TRUE(alice.get_available_resources("blast").empty());
  // Recovery is manual.
  alice.unreserve("node1");
  EXPECT_EQ(alice.get_available_resources("blast").size(), 1u);
}

TEST(WstGrid, OnlyHolderCanUnreserve) {
  WstFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  WstAdminClient admin(*fx.caller, *fx.grid, {kAdminDn, {}});
  admin.add_account(kMalloryDn, {kPrivilegeSubmit});
  auto mallory = fx.mallory();
  EXPECT_THROW(mallory.unreserve("node1"), soap::SoapFault);
}

TEST(WstGrid, ReservationRequiredForJobs) {
  WstFixture fx;
  auto alice = fx.alice();
  EXPECT_THROW(alice.start_job(fx.grid->exec_address("node1"), "sim:exit=0"),
               soap::SoapFault);
}

TEST(WstGrid, UnknownUserCannotReserve) {
  WstFixture fx;
  auto mallory = fx.mallory();
  EXPECT_THROW(mallory.make_reservation("node1"), soap::SoapFault);
}

TEST(WstGrid, GetModesDispatchOnIdShape) {
  // Get with "1<app>" = availability query; Get with "<host>" =
  // reservation probe — one operation, two meanings (the paper's CRUD
  // overloading trade-off).
  WstFixture fx;
  auto alice = fx.alice();
  EXPECT_EQ(alice.get_available_resources("render").size(), 1u);
  alice.make_reservation("node1");

  // Raw reservation probe, as the Exec/Data services use it.
  soap::EndpointReference probe(fx.grid->allocation_address());
  probe.add_reference_property(wst::transfer_id_qname(), "node1");
  wst::TransferProxy proxy(*fx.caller, with_identity(probe, {kAliceDn, {}}));
  auto info = proxy.get();
  EXPECT_EQ(info->name().local(), "ReservationInfo");
  EXPECT_EQ(info->child_local("Owner")->text(), kAliceDn);
}

TEST(WstGrid, FileOverwriteViaPut) {
  WstFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  auto epr = alice.upload(fx.grid->data_address("node1"), "f.txt", "v1");
  // Put overrides an existing file with a newer version.
  wst::TransferProxy proxy(*fx.caller, with_identity(epr, {kAliceDn, {}}));
  auto doc = std::make_unique<xml::Element>(gb("File"));
  doc->set_attr("name", "f.txt");
  doc->append_element(gb("Content"))
      .set_text(common::base64_encode(common::as_bytes(std::string("v2"))));
  proxy.put(std::move(doc));
  EXPECT_EQ(alice.download(fx.grid->data_address("node1"), "f.txt"), "v2");
}

TEST(WstGrid, DirectoryListingViaTrailingSlash) {
  WstFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");
  alice.upload(fx.grid->data_address("node1"), "a.txt", "1");
  alice.upload(fx.grid->data_address("node1"), "b.txt", "2");
  std::vector<std::string> expected = {"a.txt", "b.txt"};
  EXPECT_EQ(alice.list_files(fx.grid->data_address("node1")), expected);
}

TEST(WstGrid, AdminOperationsRejectNonAdmins) {
  WstFixture fx;
  WstAdminClient fake_admin(*fx.caller, *fx.grid, {kAliceDn, {}});
  EXPECT_THROW(fake_admin.add_account("CN=x", {}), soap::SoapFault);
  EXPECT_THROW(fake_admin.register_site({"node2", "http://x", "http://y", {}}),
               soap::SoapFault);
}

TEST(WstGrid, RetimeModeAdjustsReservationWindow) {
  // Put mode 'T': "change the time to which a site is reserved."
  WstFixture fx;
  auto alice = fx.alice();
  alice.make_reservation("node1");

  soap::EndpointReference epr(fx.grid->allocation_address());
  epr.add_reference_property(wst::transfer_id_qname(),
                             std::string(1, kModeRetime) + "node1");
  wst::TransferProxy proxy(*fx.caller, with_identity(epr, {kAliceDn, {}}));
  auto retime = std::make_unique<xml::Element>(gb("Retime"));
  retime->append_element(gb("Until")).set_text("123456789");
  proxy.put(std::move(retime));

  // The reservation probe reflects the new window.
  soap::EndpointReference probe(fx.grid->allocation_address());
  probe.add_reference_property(wst::transfer_id_qname(), "node1");
  wst::TransferProxy probe_proxy(*fx.caller, with_identity(probe, {kAliceDn, {}}));
  auto info = probe_proxy.get();
  EXPECT_EQ(info->child_local("Until")->text(), "123456789");
}

TEST(WstGrid, RetimeWithoutReservationFaults) {
  WstFixture fx;
  auto alice = fx.alice();
  soap::EndpointReference epr(fx.grid->allocation_address());
  epr.add_reference_property(wst::transfer_id_qname(),
                             std::string(1, kModeRetime) + "node1");
  wst::TransferProxy proxy(*fx.caller, with_identity(epr, {kAliceDn, {}}));
  auto retime = std::make_unique<xml::Element>(gb("Retime"));
  retime->append_element(gb("Until")).set_text("1");
  EXPECT_THROW(proxy.put(std::move(retime)), soap::SoapFault);
}

// ---------------------------------------------------------------------------
// Multi-host VOs
// ---------------------------------------------------------------------------

TEST(MultiHost, WsrfSchedulingAcrossTwoHosts) {
  WsrfFixture fx;
  fx.grid->add_host({.host = "node2",
                     .base = "http://node2.example",
                     .backend = std::make_unique<xmldb::MemoryBackend>(),
                     .container = {container::SecurityMode::kNone, nullptr,
                                   nullptr, &fx.clock},
                     .file_root = temp_dir("wsrf-node2")});
  fx.net.bind("node2.example", fx.grid->host_container("node2"));
  WsrfAdminClient admin(*fx.caller, *fx.grid, {kAdminDn, {}});
  admin.register_site({"node2", fx.grid->exec_address("node2"),
                       fx.grid->data_address("node2"), {"blast"}});

  auto alice = fx.alice();
  EXPECT_EQ(alice.get_available_resources("blast").size(), 2u);

  // Reserve both; run a job on each; they are fully independent.
  auto res1 = alice.make_reservation("node1");
  auto res2 = alice.make_reservation("node2");
  EXPECT_TRUE(alice.get_available_resources("blast").empty());

  auto dir1 = alice.create_directory(fx.grid->data_address("node1"));
  auto dir2 = alice.create_directory(fx.grid->data_address("node2"));
  auto job1 = alice.start_job(fx.grid->exec_address("node1"),
                              "sim:duration=100,exit=1", res1, dir1);
  auto job2 = alice.start_job(fx.grid->exec_address("node2"),
                              "sim:duration=200,exit=2", res2, dir2);
  fx.clock.advance(150);
  fx.grid->job_runner("node1").poll();
  fx.grid->job_runner("node2").poll();
  EXPECT_EQ(alice.job_status(job1), "exited");
  EXPECT_EQ(alice.job_status(job2), "running");
  fx.clock.advance(100);
  fx.grid->job_runner("node2").poll();
  EXPECT_EQ(alice.job_exit_code(job1), 1);
  EXPECT_EQ(alice.job_exit_code(job2), 2);
}

TEST(MultiHost, ReservationIsPerHost) {
  // A reservation for node1 cannot start jobs on node2.
  WsrfFixture fx;
  fx.grid->add_host({.host = "node2",
                     .base = "http://node2.example",
                     .backend = std::make_unique<xmldb::MemoryBackend>(),
                     .container = {container::SecurityMode::kNone, nullptr,
                                   nullptr, &fx.clock},
                     .file_root = temp_dir("wsrf-node2b")});
  fx.net.bind("node2.example", fx.grid->host_container("node2"));
  WsrfAdminClient admin(*fx.caller, *fx.grid, {kAdminDn, {}});
  admin.register_site({"node2", fx.grid->exec_address("node2"),
                       fx.grid->data_address("node2"), {"blast"}});

  auto alice = fx.alice();
  auto res1 = alice.make_reservation("node1");
  auto dir2 = alice.create_directory(fx.grid->data_address("node2"));
  EXPECT_THROW(alice.start_job(fx.grid->exec_address("node2"), "sim:exit=0",
                               res1, dir2),
               soap::SoapFault);
}

// ---------------------------------------------------------------------------
// The outcall asymmetry behind Figure 6
// ---------------------------------------------------------------------------

TEST(OutcallCounts, InstantiateJobNeedsMoreCallsOnWsrf) {
  // "due to the design of its services the WSRF implementation requires
  // several more outcalls to Instantiate a Job than the WS-Transfer
  // version."
  std::int64_t wsrf_messages;
  {
    WsrfFixture fx;
    auto alice = fx.alice();
    auto reservation = alice.make_reservation("node1");
    auto directory = alice.create_directory(fx.grid->data_address("node1"));
    fx.meter.reset();
    (void)alice.start_job(fx.grid->exec_address("node1"),
                          "sim:duration=1000000,exit=0", reservation, directory);
    wsrf_messages = fx.meter.messages();
  }
  std::int64_t wst_messages;
  {
    WstFixture fx;
    auto alice = fx.alice();
    alice.make_reservation("node1");
    fx.meter.reset();
    (void)alice.start_job(fx.grid->exec_address("node1"),
                          "sim:duration=1000000,exit=0");
    wst_messages = fx.meter.messages();
  }
  // WSRF: client call + 3 outcalls = 8 messages; WST: client call +
  // 1 outcall = 4 messages.
  EXPECT_EQ(wst_messages, 4);
  EXPECT_EQ(wsrf_messages, 8);
}

TEST(OutcallCounts, DeleteFileIsOneCallOnBothStacks) {
  // "The Delete File operation involves a single call in both
  // implementations."
  std::int64_t wsrf_messages;
  {
    WsrfFixture fx;
    auto alice = fx.alice();
    auto directory = alice.create_directory(fx.grid->data_address("node1"));
    alice.upload(directory, "f.txt", "x");
    fx.meter.reset();
    alice.delete_file(directory, "f.txt");
    wsrf_messages = fx.meter.messages();
  }
  std::int64_t wst_messages;
  {
    WstFixture fx;
    auto alice = fx.alice();
    alice.make_reservation("node1");
    alice.upload(fx.grid->data_address("node1"), "f.txt", "x");
    fx.meter.reset();
    alice.delete_file(fx.grid->data_address("node1"), "f.txt");
    wst_messages = fx.meter.messages();
  }
  EXPECT_EQ(wsrf_messages, 2);  // one request/response pair
  EXPECT_EQ(wst_messages, 2);
}

TEST(OutcallCounts, UploadIsAPairOfCallsOnBothStacks) {
  // "Upload File requires a pair of calls in both."
  std::int64_t wsrf_messages;
  {
    WsrfFixture fx;
    auto alice = fx.alice();
    auto directory = alice.create_directory(fx.grid->data_address("node1"));
    fx.meter.reset();
    alice.upload(directory, "f.txt", "x");
    wsrf_messages = fx.meter.messages();
  }
  std::int64_t wst_messages;
  {
    WstFixture fx;
    auto alice = fx.alice();
    alice.make_reservation("node1");
    fx.meter.reset();
    alice.upload(fx.grid->data_address("node1"), "f.txt", "x");
    wst_messages = fx.meter.messages();
  }
  EXPECT_EQ(wsrf_messages, wst_messages);
}

// ---------------------------------------------------------------------------
// Malformed numeric input (strict-parsing sweep)
// ---------------------------------------------------------------------------

TEST(WsrfGrid, MalformedSimParamsKeepDefaultsAndWarn) {
  // "duration=5x" used to truncate to 5 under stoll; now the malformed
  // pieces keep their defaults, the job still runs, and the mangling is
  // reported (counter + warn) instead of silently reshaping the job.
  WsrfFixture fx;
  auto alice = fx.alice();
  auto reservation = alice.make_reservation("node1");
  auto directory = alice.create_directory(fx.grid->data_address("node1"));

  auto& malformed = telemetry::MetricsRegistry::global().counter(
      "jobrunner.malformed_command_params");
  std::uint64_t before = malformed.value();
  std::uint64_t warns =
      telemetry::EventLog::global().count(telemetry::Level::kWarn);

  auto job = alice.start_job(fx.grid->exec_address("node1"),
                             "sim:duration=5x,exit=zz", reservation, directory);
  EXPECT_EQ(malformed.value(), before + 2);  // one per bad parameter
  EXPECT_EQ(telemetry::EventLog::global().count(telemetry::Level::kWarn),
            warns + 2);

  // Defaults survived: duration 0 (exits on the next poll), exit code 0.
  fx.clock.advance(1);
  fx.grid->job_runner("node1").poll();
  EXPECT_EQ(alice.job_status(job), "exited");
  EXPECT_EQ(alice.job_exit_code(job), 0);
}

TEST(WstGrid, MalformedExitCodeReadsAsNotYetExited) {
  // The ExitCode text comes from a remote job document; a broken or
  // hostile execution service must not be able to throw std::stoi
  // exceptions out of a status poll. The client warns and reports "no
  // exit code yet".
  WstFixture fx;

  class BrokenExecService : public container::Service {
   public:
    BrokenExecService() : container::Service("BrokenExec") {
      register_operation(
          wst::actions::kGet, [](container::RequestContext& ctx) {
            soap::Envelope r =
                container::make_response(ctx, wst::actions::kGet + "Response");
            xml::Element& job =
                r.add_payload(xml::QName(soap::ns::kGridBox, "Job"));
            job.append_element(xml::QName(soap::ns::kGridBox, "Status"))
                .set_text("exited");
            job.append_element(xml::QName(soap::ns::kGridBox, "ExitCode"))
                .set_text("boom");
            return r;
          });
    }
  };

  container::Container stub({});
  BrokenExecService svc;
  stub.deploy("/Job", svc);
  fx.net.bind("stub.example", stub);

  auto& malformed = telemetry::MetricsRegistry::global().counter(
      "gridbox.malformed_exit_codes");
  std::uint64_t before = malformed.value();
  std::uint64_t warns =
      telemetry::EventLog::global().count(telemetry::Level::kWarn);

  auto alice = fx.alice();
  soap::EndpointReference job("http://stub.example/Job");
  EXPECT_EQ(alice.job_status(job), "exited");
  EXPECT_FALSE(alice.job_exit_code(job).has_value());
  EXPECT_EQ(malformed.value(), before + 1);
  EXPECT_EQ(telemetry::EventLog::global().count(telemetry::Level::kWarn),
            warns + 1);
}

}  // namespace
}  // namespace gs::gridbox
