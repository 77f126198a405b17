// Grid-in-a-Box job submission: the paper's Figure 5 workflow end to end,
// on the WSRF stack with every message X.509-signed, then the same job on
// the WS-Transfer stack — including the manual unreserve that stack
// requires.
//
//   $ ./example_gridbox_job_submission
#include <cstdio>
#include <filesystem>

#include "gridbox/clients.hpp"
#include "wsn/consumer.hpp"

using namespace gs;

int main() {
  std::printf("== Grid-in-a-Box: remote execution in one VO ==\n\n");

  // PKI for the VO: a CA, host credentials, an admin and a user.
  std::mt19937_64 rng(7);
  auto ca = security::CertificateAuthority::create("CN=GridCA,O=VO", 1024, rng);
  auto issue = [&](const std::string& dn) {
    return ca.issue(dn, 1024, rng, 0,
                    std::numeric_limits<common::TimeMs>::max());
  };
  security::Credential vo_host = issue("CN=vo-host,O=VO");
  security::Credential node_host = issue("CN=node1-host,O=VO");
  security::Credential admin_cred = issue("CN=admin,O=VO");
  security::Credential alice_cred = issue("CN=alice,O=VO");
  auto sec = [&](const security::Credential& c) {
    return container::ProxySecurity{&c, &ca.root(),
                                    &common::RealClock::instance()};
  };
  std::printf("issued X.509 credentials under %s\n\n",
              ca.root().subject_dn.c_str());

  common::ManualClock clock(0);
  net::VirtualNetwork net(net::NetworkProfile::distributed());
  net::WireMeter meter;
  net::VirtualCaller caller(net, {.meter = &meter});
  net::VirtualCaller outcalls(net, {.meter = &meter});
  net::VirtualCaller sink(net, {.keep_alive = false});

  container::ContainerConfig central_cc{container::SecurityMode::kX509,
                                        &ca.root(), &vo_host, &clock};
  container::ContainerConfig node_cc{container::SecurityMode::kX509,
                                     &ca.root(), &node_host, &clock};

  gridbox::WsrfGridDeployment grid({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .central_container = central_cc,
      .outcall_caller = &outcalls,
      .outcall_security = sec(node_host),
      .notification_sink = &sink,
      .central_base = "http://vo.example",
      .reservation_ttl_ms = 4LL * 3600 * 1000,
      .admin_dn = "CN=admin,O=VO",
  });
  // Job files go under the working directory, so runs from different build
  // trees do not clobber each other.
  auto scratch = std::filesystem::current_path() / "gs-example-gridbox";
  std::filesystem::remove_all(scratch);
  grid.add_host({.host = "node1",
                 .base = "http://node1.example",
                 .backend = std::make_unique<xmldb::MemoryBackend>(),
                 .container = node_cc,
                 .file_root = scratch});
  net.bind("vo.example", grid.central_container());
  net.bind("node1.example", grid.host_container("node1"));
  wsn::NotificationConsumer inbox;
  net.bind("alice.example", inbox);

  // Admin bootstraps the VO.
  gridbox::WsrfAdminClient admin(caller, grid, {"CN=admin,O=VO", sec(admin_cred)});
  admin.add_account("CN=alice,O=VO", {gridbox::kPrivilegeSubmit});
  admin.register_site({"node1", grid.exec_address("node1"),
                       grid.data_address("node1"), {"blast"}});
  std::printf("[admin] account for alice + site node1 registered\n\n");

  gridbox::WsrfUserClient alice(caller, grid,
                                {"CN=alice,O=VO", sec(alice_cred)});

  std::printf("[1]  what resources are available for 'blast'?\n");
  auto sites = alice.get_available_resources("blast");
  std::printf("     -> %zu site(s); using host '%s'\n", sites.size(),
              sites[0].host.c_str());

  std::printf("[4]  reserve the host (scheduled termination: 4h)\n");
  auto reservation = alice.make_reservation(sites[0].host);

  std::printf("[5]  create a directory WS-Resource on the DataService\n");
  auto directory = alice.create_directory(sites[0].data_address);

  std::printf("[7]  stage in input.dat\n");
  alice.upload(directory, "input.dat", "ACGTACGTACGT");
  std::printf("     Files property: %s\n",
              alice.list_files(directory)[0].c_str());

  std::printf("[10] subscribe for the completion notification\n");
  alice.subscribe_completion(sites[0].exec_address,
                             soap::EndpointReference("http://alice.example/in"));

  std::printf("[9]  start the job (ExecService verifies + claims the "
              "reservation)\n");
  auto job = alice.start_job(sites[0].exec_address,
                             "sim:duration=30000,exit=0", reservation,
                             directory);
  std::printf("     job status: %s\n", alice.job_status(job).c_str());

  std::printf("...  30 seconds of simulated compute pass\n");
  clock.advance(31'000);
  grid.job_runner("node1").poll();

  if (inbox.wait_for(1, 2000)) {
    auto notes = inbox.received();
    std::printf("[10] async notification: topic=%s exit=%s\n",
                notes[0].topic.c_str(),
                notes[0].payload->child_local("ExitCode")->text().c_str());
  }
  std::printf("     job status: %s (exit %d)\n", alice.job_status(job).c_str(),
              *alice.job_exit_code(job));

  std::printf("[11] cleanup: destroy job + directory (reservation was\n"
              "     destroyed automatically when the job completed)\n");
  alice.destroy(job);
  alice.destroy(directory);
  std::printf("     host available again: %zu site(s)\n\n",
              alice.get_available_resources("blast").size());

  std::printf("wire totals: %lld messages, %lld bytes, %lld connects\n",
              static_cast<long long>(meter.messages()),
              static_cast<long long>(meter.bytes()),
              static_cast<long long>(meter.connects()));
  std::printf("\nDone. (The WS-Transfer variant of this VO runs the same\n"
              "workflow — see tests/gridbox_test.cpp — but the reservation\n"
              "must be removed manually: Put mode 'U' on the unified\n"
              "allocation service, or the host leaks.)\n");
  return 0;
}
