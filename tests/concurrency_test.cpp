// Tests for concurrent dispatch: the pinned service registry, per-resource
// write serialization in the application core, an 8-thread hammer over one
// container (run under SANITIZE=tsan), and binding equivalence — the same
// operation sequence through the WSRF and WS-Transfer front-ends must leave
// the stack-agnostic core in identical state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "app/counter_core.hpp"
#include "app/job_runner.hpp"
#include "container/container.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "gridbox/clients.hpp"
#include "wsn/consumer.hpp"
#include "wsrf/resource.hpp"
#include "wst/service.hpp"
#include "xml/writer.hpp"

namespace gs {
namespace {

// Prefix-independent canonical form of an element tree: prefixes are
// assigned by whichever parser/writer the document last travelled through,
// so equivalence must compare Clark names, attributes, text and children.
std::string canon(const xml::Element& el) {
  std::string out = "<" + el.name().clark();
  for (const auto& attr : el.attributes()) {
    if (attr.name.local() == "xmlns" ||
        attr.name.ns() == "http://www.w3.org/2000/xmlns/") {
      continue;
    }
    out += " " + attr.name.clark() + "='" + attr.value + "'";
  }
  out += ">";
  std::vector<const xml::Element*> kids = el.child_elements();
  if (kids.empty()) {
    out += el.text();
  } else {
    for (const xml::Element* kid : kids) out += canon(*kid);
  }
  return out + "</>";
}

class EchoService : public container::Service {
 public:
  EchoService() : Service("Echo") {
    register_operation("urn:test/Echo", [](container::RequestContext& ctx) {
      soap::Envelope r = container::make_response(ctx, "urn:test/EchoResponse");
      r.add_payload(xml::QName("urn:test", "Out"));
      return r;
    });
  }
};

// ---------------------------------------------------------------------------
// Service registry: pins and undeploy drains
// ---------------------------------------------------------------------------

TEST(Registry, PinResolvesDeployedService) {
  container::ServiceRegistry registry;
  EchoService svc;
  registry.deploy("/Echo", svc);
  container::ServiceHandle handle = registry.pin("/Echo");
  ASSERT_TRUE(handle);
  EXPECT_EQ(handle.get(), &svc);
  EXPECT_FALSE(registry.pin("/Nope"));
}

TEST(Registry, UndeployAbsentPathReturnsFalse) {
  container::ServiceRegistry registry;
  EXPECT_FALSE(registry.undeploy("/Nope"));
}

TEST(Registry, UndeployBlocksUntilPinReleased) {
  container::ServiceRegistry registry;
  EchoService svc;
  registry.deploy("/Echo", svc);

  container::ServiceHandle handle = registry.pin("/Echo");
  std::atomic<bool> undeployed{false};
  std::thread undeployer([&] {
    registry.undeploy("/Echo");
    undeployed.store(true);
  });

  // The path disappears immediately (no new pins) but the drain must wait
  // for the live handle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(registry.pin("/Echo"));
  EXPECT_FALSE(undeployed.load());
  EXPECT_EQ(handle.get(), &svc);  // still safe to use while pinned

  handle.release();
  undeployer.join();
  EXPECT_TRUE(undeployed.load());
}

TEST(Registry, RedeployKeepsOldPinsAlive) {
  container::ServiceRegistry registry;
  EchoService old_svc;
  EchoService new_svc;
  registry.deploy("/Echo", old_svc);
  container::ServiceHandle old_pin = registry.pin("/Echo");

  registry.deploy("/Echo", new_svc);
  EXPECT_EQ(old_pin.get(), &old_svc);  // replacement does not invalidate
  container::ServiceHandle new_pin = registry.pin("/Echo");
  EXPECT_EQ(new_pin.get(), &new_svc);
}

// Pins take no lock: they read the published path table and count on their
// own shard. Pinning threads racing redeploys always get a deployed
// service; once undeploy returns, every pin on the entry it removed has
// drained (pins on entries replaced earlier may live on) and no new pin
// resolves.
TEST(Registry, PinsRacingRedeployAndUndeploy) {
  container::ServiceRegistry registry;
  EchoService a, b, last;
  registry.deploy("/Echo", a);
  std::atomic<bool> undeployed{false};
  std::atomic<bool> failed{false};
  std::atomic<long> pins_on_last{0};  // held right now
  std::atomic<long> seen_last{0};
  std::vector<std::thread> pinners;
  for (int t = 0; t < 4; ++t) {
    pinners.emplace_back([&] {
      while (!undeployed.load()) {
        container::ServiceHandle pin = registry.pin("/Echo");
        if (!pin) continue;  // between undeploy's table swap and its return
        if (pin.get() == &last) {
          ++pins_on_last;
          ++seen_last;
          --pins_on_last;
        } else if (pin.get() != &a && pin.get() != &b) {
          failed = true;
        }
      }
      if (registry.pin("/Echo")) failed = true;
    });
  }
  for (int i = 0; i < 2000; ++i) registry.deploy("/Echo", i % 2 ? a : b);
  registry.deploy("/Echo", last);
  while (seen_last.load() < 100) std::this_thread::yield();
  ASSERT_TRUE(registry.undeploy("/Echo"));
  EXPECT_EQ(pins_on_last.load(), 0);  // drained before undeploy returned
  undeployed = true;
  for (auto& t : pinners) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(registry.paths().empty());
}

// ---------------------------------------------------------------------------
// Application core: per-resource write serialization
// ---------------------------------------------------------------------------

TEST(Concurrency, ConcurrentApplyPutNeverLosesDocument) {
  xmldb::XmlDatabase db(std::make_unique<xmldb::MemoryBackend>(),
                        {.write_through_cache = false});
  app::CounterCore core(db);
  db.store(core.collection(), "shared", *app::CounterCore::make_document(0));

  std::atomic<int> fires{0};
  core.on_value_changed(
      [&](const std::string&, const std::string&) { ++fires; });

  constexpr int kThreads = 8;
  constexpr int kPutsPerThread = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPutsPerThread; ++i) {
        auto doc = app::CounterCore::make_document(t * kPutsPerThread + i);
        core.apply_put("shared", *doc);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(fires.load(), kThreads * kPutsPerThread);
  auto final_doc = db.load(core.collection(), "shared");
  ASSERT_TRUE(final_doc);
  int value = app::CounterCore::value_of(*final_doc);
  EXPECT_GE(value, 0);
  EXPECT_LT(value, kThreads * kPutsPerThread);
}

// ---------------------------------------------------------------------------
// 8-thread hammer: mixed counter traffic + deploy/undeploy churn
// ---------------------------------------------------------------------------

TEST(Concurrency, EightThreadHammerWithDeployChurn) {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller sink(net, {.transport = net::TransportKind::kSoapTcp});
  counter::WstCounterDeployment wst(counter::WstCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &sink,
      .address_base = "http://hammer.example",
      .subscription_file = {},
  });
  net.bind("hammer.example", wst.container());

  // A counter every worker hammers concurrently.
  net::VirtualCaller setup_caller(net, {});
  counter::WstCounterClient setup(setup_caller, wst.counter_address(),
                                  wst.source_address());
  soap::EndpointReference shared_epr = setup.create();

  constexpr int kWorkers = 6;
  constexpr int kChurners = 2;
  constexpr int kIters = 30;
  std::atomic<int> ops{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      try {
        net::VirtualCaller caller(net, {});
        counter::WstCounterClient mine(caller, wst.counter_address(),
                                       wst.source_address());
        counter::WstCounterClient shared(caller, wst.counter_address(),
                                         wst.source_address());
        shared.attach(shared_epr);
        for (int i = 0; i < kIters; ++i) {
          mine.create();
          mine.set(t * kIters + i);
          if (mine.get() != t * kIters + i) failed.store(true);
          mine.remove();
          shared.set(i);
          shared.get();
          ops += 6;
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (int t = 0; t < kChurners; ++t) {
    threads.emplace_back([&, t] {
      try {
        EchoService churn_svc;
        std::string path = "/Churn-" + std::to_string(t);
        for (int i = 0; i < kIters * 4; ++i) {
          wst.container().deploy(path, churn_svc);
          container::ServiceHandle pin = wst.container().service_at(path);
          if (!pin) failed.store(true);
          pin.release();
          wst.container().undeploy(path);
          ops += 1;
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ops.load(), kWorkers * kIters * 6 + kChurners * kIters * 4);
  // The shared counter survived the storm with a value some worker wrote.
  int final_value = setup.get();
  EXPECT_GE(final_value, 0);
  EXPECT_LT(final_value, kIters);
}

// ---------------------------------------------------------------------------
// Destroy ordering: a read-modify-write racing a destroy never writes the
// resource back, and no subscription-table entry outlives its document
// ---------------------------------------------------------------------------

struct RaceFixture {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller sink{net, {.keep_alive = false}};
  wsn::NotificationConsumer consumer;
  counter::WsrfCounterDeployment wsrf{counter::WsrfCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .write_through_cache = true,
      .container = {},
      .notification_sink = &sink,
      .address_base = "http://race.example",
  }};

  RaceFixture() {
    net.bind("race.example", wsrf.container());
    net.bind("sink.example", consumer);
  }
};

TEST(Concurrency, SetRacingDestroyNeverResurrectsTheResource) {
  RaceFixture fx;
  net::VirtualCaller set_caller(fx.net, {});
  net::VirtualCaller destroy_caller(fx.net, {});
  counter::WsrfCounterClient setter(set_caller, fx.wsrf.counter_address());
  counter::WsrfCounterClient destroyer(destroy_caller, fx.wsrf.counter_address());
  for (int round = 0; round < 100; ++round) {
    soap::EndpointReference epr = setter.create();
    destroyer.attach(epr);
    std::string id = *epr.reference_property(wsrf::resource_id_qname());
    // The destroy goes out once the Sets are under way, so it lands in
    // the middle of one.
    std::atomic<bool> setting{false};
    std::thread set_thread([&] {
      try {
        for (int i = 0; i < 1000; ++i) {
          setter.set(i);
          setting.store(true);
        }
      } catch (const soap::SoapFault&) {
        // ResourceUnknown once the destroy has won.
      }
      setting.store(true);
    });
    while (!setting.load()) std::this_thread::yield();
    destroyer.destroy();
    set_thread.join();
    ASSERT_FALSE(fx.wsrf.db().contains(fx.wsrf.core().collection(), id))
        << "round " << round;
  }
}

TEST(Concurrency, PauseRacingUnsubscribeLeavesNoSubscription) {
  RaceFixture fx;
  net::VirtualCaller caller(fx.net, {});
  counter::WsrfCounterClient client(caller, fx.wsrf.counter_address());
  client.create();
  wsn::SubscriptionManagerService& manager = fx.wsrf.producer().manager();
  for (int round = 0; round < 100; ++round) {
    wsn::SubscriptionProxy sub =
        client.subscribe(soap::EndpointReference("http://sink.example/n"));
    std::string id = *sub.target().reference_property(wsrf::resource_id_qname());
    std::atomic<bool> pausing{false};
    std::thread pause_thread([&] {
      for (int i = 0; i < 10000 && manager.set_paused(id, i % 2 == 0); ++i) {
        pausing.store(true);
      }
      pausing.store(true);
    });
    while (!pausing.load()) std::this_thread::yield();
    sub.unsubscribe();
    pause_thread.join();
    ASSERT_EQ(manager.count(), 0u) << "round " << round;
    ASSERT_TRUE(fx.wsrf.db().ids("counter-subscriptions").empty())
        << "round " << round;
  }
  // With no entry left, a Set publishes nothing.
  client.set(1);
  EXPECT_EQ(fx.consumer.count(), 0u);
}

// ---------------------------------------------------------------------------
// Binding equivalence: identical core state through either stack
// ---------------------------------------------------------------------------

TEST(BindingEquivalence, CounterStateIdenticalAcrossStacks) {
  net::VirtualNetwork net{net::NetworkProfile::colocated()};
  net::VirtualCaller caller(net, {});
  net::VirtualCaller http_sink(net, {.keep_alive = false});
  net::VirtualCaller tcp_sink(net, {.transport = net::TransportKind::kSoapTcp});
  counter::WsrfCounterDeployment wsrf(counter::WsrfCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &http_sink,
      .address_base = "http://wsrf.example",
  });
  counter::WstCounterDeployment wst(counter::WstCounterDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &tcp_sink,
      .address_base = "http://wst.example",
      .subscription_file = {},
  });
  net.bind("wsrf.example", wsrf.container());
  net.bind("wst.example", wst.container());

  counter::WsrfCounterClient wsrf_client(caller, wsrf.counter_address());
  counter::WstCounterClient wst_client(caller, wst.counter_address(),
                                       wst.source_address());
  soap::EndpointReference wsrf_epr = wsrf_client.create();
  soap::EndpointReference wst_epr = wst_client.create();
  for (int v : {5, 17, 42}) {
    wsrf_client.set(v);
    wst_client.set(v);
  }
  EXPECT_EQ(wsrf_client.get(), wst_client.get());

  auto wsrf_id = wsrf_epr.reference_property(wsrf::resource_id_qname());
  auto wst_id = wst_epr.reference_property(wst::transfer_id_qname());
  ASSERT_TRUE(wsrf_id.has_value());
  ASSERT_TRUE(wst_id.has_value());
  auto wsrf_doc = wsrf.core().db().load(wsrf.core().collection(), *wsrf_id);
  auto wst_doc = wst.core().db().load(wst.core().collection(), *wst_id);
  ASSERT_TRUE(wsrf_doc);
  ASSERT_TRUE(wst_doc);
  EXPECT_EQ(canon(*wsrf_doc), canon(*wst_doc));
  EXPECT_EQ(app::CounterCore::value_of(*wsrf_doc), 42);
}

TEST(BindingEquivalence, GridAccountsAndSitesIdenticalAcrossStacks) {
  const std::string admin_dn = "CN=admin,O=VO";
  const std::string alice_dn = "CN=alice,O=VO";
  app::SiteInfo site{.host = "node1",
                     .exec_address = "http://node1.example/Exec",
                     .data_address = "http://node1.example/Data",
                     .applications = {"blast", "render"}};

  common::ManualClock clock{1'000'000};
  container::ContainerConfig cc;
  cc.clock = &clock;

  net::VirtualNetwork net;
  net::VirtualCaller caller(net, {});
  net::VirtualCaller outcalls(net, {});
  net::VirtualCaller sink(net, {.keep_alive = false});
  net::VirtualCaller tcp_sink(net, {.transport = net::TransportKind::kSoapTcp});

  gridbox::WsrfGridDeployment wsrf(gridbox::WsrfGridDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .central_container = cc,
      .outcall_caller = &outcalls,
      .outcall_security = {},
      .notification_sink = &sink,
      .central_base = "http://wsrf-vo.example",
      .reservation_ttl_ms = 4LL * 3600 * 1000,
      .admin_dn = admin_dn,
  });
  gridbox::WstGridDeployment wst(gridbox::WstGridDeployment::Params{
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .central_container = cc,
      .outcall_caller = &outcalls,
      .outcall_security = {},
      .notification_sink = &tcp_sink,
      .central_base = "http://wst-vo.example",
      .reservation_ttl_ms = 4LL * 3600 * 1000,
      .admin_dn = admin_dn,
  });
  net.bind("wsrf-vo.example", wsrf.central_container());
  net.bind("wst-vo.example", wst.central_container());

  gridbox::WsrfAdminClient wsrf_admin(caller, wsrf, {admin_dn, {}});
  gridbox::WstAdminClient wst_admin(caller, wst, {admin_dn, {}});
  wsrf_admin.add_account(alice_dn, {gridbox::kPrivilegeSubmit});
  wst_admin.add_account(alice_dn, {gridbox::kPrivilegeSubmit});
  wsrf_admin.register_site(site);
  wst_admin.register_site(site);

  // The stack-agnostic core persisted byte-identical state either way.
  auto wsrf_account = wsrf.central_db().load("accounts", alice_dn);
  auto wst_account = wst.central_db().load("accounts", alice_dn);
  ASSERT_TRUE(wsrf_account);
  ASSERT_TRUE(wst_account);
  EXPECT_EQ(canon(*wsrf_account), canon(*wst_account));

  auto wsrf_site = wsrf.central_db().load("sites", "node1");
  auto wst_site = wst.central_db().load("sites", "node1");
  ASSERT_TRUE(wsrf_site);
  ASSERT_TRUE(wst_site);
  EXPECT_EQ(canon(*wsrf_site), canon(*wst_site));
  EXPECT_EQ(app::SiteInfo::from_xml(*wsrf_site).applications,
            app::SiteInfo::from_xml(*wst_site).applications);
}

// ---------------------------------------------------------------------------
// JobRunner edge cases: the exec-substrate contracts Grid-in-a-Box's Exec
// service leans on — kill fires the exit callback, reap refuses running jobs,
// callbacks run outside the runner lock, and misconfigured submissions are
// visible instead of silently "succeeding".
// ---------------------------------------------------------------------------

TEST(JobRunnerEdge, KillFiresExitCallbackThenReapRetires) {
  common::ManualClock clock(1000);
  app::JobRunner runner(clock);

  std::vector<std::pair<std::string, app::JobRunner::Status>> exits;
  std::string pid = runner.spawn(
      "sim:duration=60000,exit=0", "",
      [&](const std::string& p, const app::JobRunner::Status& s) {
        exits.emplace_back(p, s);
      });

  ASSERT_TRUE(runner.kill(pid));
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].first, pid);
  EXPECT_EQ(exits[0].second.state, app::JobRunner::State::kKilled);
  EXPECT_EQ(exits[0].second.exit_code, -9);
  EXPECT_EQ(exits[0].second.ended, clock.now());

  // Killing an already-dead job neither fires again nor succeeds.
  EXPECT_FALSE(runner.kill(pid));
  EXPECT_EQ(exits.size(), 1u);
  EXPECT_TRUE(runner.reap(pid));
  EXPECT_FALSE(runner.reap(pid));
}

TEST(JobRunnerEdge, ReapRefusesRunningJobs) {
  common::ManualClock clock(1000);
  app::JobRunner runner(clock);
  std::string pid = runner.spawn("sim:duration=60000,exit=0", "");
  // Still running: reap must refuse — the slot stays until the job ends.
  EXPECT_FALSE(runner.reap(pid));
  ASSERT_TRUE(runner.status(pid).has_value());
  EXPECT_EQ(runner.status(pid)->state, app::JobRunner::State::kRunning);
  ASSERT_TRUE(runner.kill(pid));
  EXPECT_TRUE(runner.reap(pid));
  EXPECT_FALSE(runner.status(pid).has_value());
}

TEST(JobRunnerEdge, ExitCallbacksMayReenterTheRunner) {
  common::ManualClock clock(1000);
  app::JobRunner runner(clock);

  // A callback that calls straight back into the runner (reap itself and
  // spawn a successor) would deadlock if callbacks fired under the lock —
  // this is what the Exec service's exit callback does when it publishes
  // completion and destroys the reservation.
  std::string chained;
  std::string pid = runner.spawn(
      "sim:duration=1000,exit=0", "",
      [&](const std::string& p, const app::JobRunner::Status&) {
        EXPECT_TRUE(runner.reap(p));
        chained = runner.spawn("sim:duration=1000,exit=0", "");
      });

  clock.advance(1000);
  EXPECT_EQ(runner.poll(), 1u);
  ASSERT_FALSE(chained.empty());
  ASSERT_TRUE(runner.status(chained).has_value());
  EXPECT_EQ(runner.status(chained)->state, app::JobRunner::State::kRunning);
  EXPECT_FALSE(runner.status(pid).has_value());  // reaped from the callback

  // The kill path fires callbacks outside the lock too.
  bool reentered = false;
  std::string pid2 = runner.spawn(
      "sim:duration=60000,exit=0", "",
      [&](const std::string& p, const app::JobRunner::Status&) {
        reentered = runner.reap(p);
      });
  ASSERT_TRUE(runner.kill(pid2));
  EXPECT_TRUE(reentered);
}

TEST(JobRunnerEdge, UnrecognizedCommandWarnsAndCounts) {
  common::ManualClock clock(1000);
  app::JobRunner runner(clock);
  auto& counter = telemetry::MetricsRegistry::global().counter(
      "jobrunner.unrecognized_command");
  std::uint64_t count_before = counter.value();
  std::uint64_t warns_before =
      telemetry::EventLog::global().count(telemetry::Level::kWarn);

  // Neither "sim:" nor "exec:": runs as a 0 ms simulation, but loudly.
  std::string pid = runner.spawn("/usr/bin/blast -query q.fa", "");
  EXPECT_EQ(counter.value(), count_before + 1);
  EXPECT_GT(telemetry::EventLog::global().count(telemetry::Level::kWarn),
            warns_before);
  runner.poll();
  auto status = runner.status(pid);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, app::JobRunner::State::kExited);

  // Well-formed commands stay silent.
  runner.spawn("sim:duration=0,exit=0", "");
  EXPECT_EQ(counter.value(), count_before + 1);
}

TEST(JobRunnerEdge, ConcurrentKillPollAndSpawnStayConsistent) {
  common::ManualClock clock(1000);
  app::JobRunner runner(clock);

  constexpr int kJobs = 64;
  std::atomic<int> exits{0};
  std::vector<std::string> pids;
  for (int i = 0; i < kJobs; ++i) {
    pids.push_back(runner.spawn(
        "sim:duration=500,exit=0", "",
        [&](const std::string&, const app::JobRunner::Status&) { ++exits; }));
  }

  // Half the jobs get killed while pollers race to retire the other half
  // past their deadline; every job must exit exactly once.
  clock.advance(500);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] { runner.poll(); });
  }
  for (int i = 0; i < kJobs; i += 2) {
    threads.emplace_back([&, i] { runner.kill(pids[i]); });
  }
  for (std::thread& th : threads) th.join();
  runner.poll();

  EXPECT_EQ(exits.load(), kJobs);
  for (const std::string& pid : pids) {
    auto status = runner.status(pid);
    ASSERT_TRUE(status.has_value());
    EXPECT_NE(status->state, app::JobRunner::State::kRunning);
    EXPECT_TRUE(runner.reap(pid));
  }
}

}  // namespace
}  // namespace gs
