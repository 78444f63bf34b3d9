// Structural thread gate: a deployment's background duties (ASD reaper,
// store peer monitors and replication lanes, Robustness Manager watchdog,
// HRM sampler, chaos injector, lease renewal) all run as reactor timer
// loops and ops-pool tasks, so bringing one up adds exactly the reactor's
// own threads to the process — core + ops + the timer thread — and no
// daemon owns a thread of its own.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>

#include "ace_test_env.hpp"
#include "chaos/chaos.hpp"
#include "services/monitors.hpp"
#include "store/persistent_store.hpp"
#include "store/robustness.hpp"
#include "store/store_client.hpp"

using namespace ace;
using namespace std::chrono_literals;

namespace {

// The kernel's count of this process's threads.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

int reactor_threads(const net::Reactor& reactor) {
  const auto s = reactor.stats();
  return s.core_threads + s.ops_threads + 1;  // + the timer thread
}

}  // namespace

TEST(ThreadGate, DeploymentAddsOnlyTheReactorsThreads) {
  // ThreadSanitizer's runtime starts a helper thread at the process's first
  // thread creation; create (and join) one first so the baseline has it.
  std::thread([] {}).join();
  const int before = process_threads();
  ASSERT_GT(before, 0) << "no Threads: line in /proc/self/status";

  testenv::AceTestEnv deployment;
  ASSERT_TRUE(deployment.start().ok());
  auto& env = deployment.env;

  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts;
  std::vector<store::PersistentStoreDaemon*> replicas;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<daemon::DaemonHost>(
        env, "store" + std::to_string(i + 1)));
    daemon::DaemonConfig c;
    c.name = "store" + std::to_string(i + 1);
    c.room = "machine-room";
    c.port = 6000;
    replicas.push_back(
        &hosts.back()->add_daemon<store::PersistentStoreDaemon>(c, i + 1));
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<net::Address> peers;
    for (int j = 0; j < 3; ++j)
      if (j != i) peers.push_back(replicas[j]->address());
    replicas[i]->set_peers(peers);
    ASSERT_TRUE(replicas[i]->start().ok());
  }

  daemon::DaemonHost ops_host(env, "ops");
  daemon::DaemonConfig rm_config;
  rm_config.name = "rm";
  rm_config.room = "machine-room";
  auto& rm = ops_host.add_daemon<store::RobustnessManagerDaemon>(
      rm_config, store::RobustnessOptions{.watch_interval = 20ms});
  ASSERT_TRUE(rm.start().ok());
  daemon::DaemonConfig hrm_config;
  hrm_config.name = "hrm";
  hrm_config.room = "machine-room";
  auto& hrm = ops_host.add_daemon<services::HrmDaemon>(
      hrm_config, services::HrmOptions{.sample_period = 20ms});
  ASSERT_TRUE(hrm.start().ok());

  // A running chaos engine whose one event lies far beyond the test.
  chaos::Schedule schedule;
  schedule.duration = 60s;
  schedule.events.push_back(chaos::FaultEvent{
      .at = 60s, .kind = chaos::FaultKind::link_down, .a = "store1",
      .b = "store2"});
  chaos::ChaosEngine engine(env, schedule);
  engine.start();

  // Writes exercise the replication lanes too.
  auto client = deployment.make_client("app-host", "svc/app");
  std::vector<net::Address> addresses;
  for (auto* r : replicas) addresses.push_back(r->address());
  store::StoreClient store(*client, addresses);
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(
        store.put("gate/" + std::to_string(i), util::to_bytes("v")).ok());
  std::this_thread::sleep_for(100ms);  // every loop has ticked by now
  EXPECT_FALSE(engine.done());

  // The ops pool may grow or shrink around the /proc read; retry while
  // the pool size read on either side of it disagrees or the counts differ.
  int grown = 0;
  int reactor = 0;
  for (int attempt = 0; attempt < 20; ++attempt) {
    reactor = reactor_threads(env.reactor());
    grown = process_threads() - before;
    if (reactor_threads(env.reactor()) == reactor && grown == reactor) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(grown, reactor)
      << "the deployment added " << grown << " threads, the reactor owns "
      << reactor << ": some daemon runs a thread of its own";

  engine.stop();
}
