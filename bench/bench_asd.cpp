// E2  — ASD registration/lookup and lease behaviour (paper §2.4, Fig 7).
// E15 — directory scalability: indexed snapshot reads under churn,
//       client-side lookup caching, and batched lease renewal.
// E21 — federated campus: per-room directories under gossip membership,
//       cross-room query forwarding (scoped cache on/off) vs one flat
//       directory, convergence after a chaos-injected inter-room partition,
//       a relay-served room during a direct-link partition, and batched
//       notification fan-out.
//
// E2 reproduces the Fig 7 interaction quantitatively. E15 measures the
// AsdIndex rework: query throughput and tail latency at 1k/10k/50k
// registrations with a concurrent writer churning the directory, cached
// vs. uncached AsdClient lookups, and batched renewal traffic. The retired
// linear-scan and per-lease baselines keep their recorded numbers in
// EXPERIMENTS.md.
//
// `--smoke` runs a seconds-scale subset (used by ci.sh bench-smoke) and
// still exports bench_asd.metrics.json.
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "services/asd.hpp"
#include "services/monitors.hpp"
#include "services/relay.hpp"
#include "util/rng.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

void register_synthetic(daemon::AceClient& client, const net::Address& asd,
                        int index, std::int64_t lease_ms = 60000) {
  CmdLine reg("register");
  reg.arg("name", Word{"svc" + std::to_string(index)});
  reg.arg("host", "host" + std::to_string(index % 32));
  reg.arg("port", std::int64_t{1000 + index % 60000});
  reg.arg("room", Word{"room" + std::to_string(index % 16)});
  reg.arg("class", "Service/Synthetic/Kind" + std::to_string(index % 8));
  reg.arg("lease", lease_ms);
  auto r = client.call(asd, reg, daemon::kCallOk);
  if (!r.ok()) std::fprintf(stderr, "register failed: %s\n",
                            r.error().to_string().c_str());
}

void lookup_latency_vs_directory_size() {
  bench::header("E2a", "lookup latency vs directory size (Fig 7 flow)");
  std::printf("%10s %14s %14s %14s\n", "services", "lookup_us(p50)",
              "lookup_us(p95)", "query_us(p50)");
  for (int n : {10, 100, 500, 2000}) {
    testenv::AceTestEnv deployment(42);
    if (!deployment.start().ok()) return;
    auto client = deployment.make_client("bench", "user/bench");
    for (int i = 0; i < n; ++i)
      register_synthetic(*client, deployment.env.asd_address, i);

    bench::Series lookup_us, query_us;
    util::Rng rng(7);
    for (int i = 0; i < 300; ++i) {
      std::string name =
          "svc" + std::to_string(rng.next_below(static_cast<std::uint64_t>(n)));
      auto start = bench::Clock::now();
      auto r = services::AsdClient(*client, deployment.env.asd_address).lookup(name);
      lookup_us.add(bench::us_since(start));
      if (!r.ok()) std::fprintf(stderr, "lookup failed\n");
    }
    for (int i = 0; i < 50; ++i) {
      auto start = bench::Clock::now();
      auto r = services::AsdClient(*client, deployment.env.asd_address).query("*", "Service/Synthetic/Kind3", "*");
      query_us.add(bench::us_since(start));
      if (!r.ok()) std::fprintf(stderr, "query failed\n");
    }
    std::printf("%10d %14.1f %14.1f %14.1f\n", n, lookup_us.percentile(50),
                lookup_us.percentile(95), query_us.percentile(50));
  }
}

void registration_throughput() {
  bench::header("E2b", "registration throughput");
  testenv::AceTestEnv deployment(43);
  if (!deployment.start().ok()) return;
  auto client = deployment.make_client("bench", "user/bench");
  constexpr int kCount = 1000;
  auto start = bench::Clock::now();
  for (int i = 0; i < kCount; ++i)
    register_synthetic(*client, deployment.env.asd_address, i);
  double total_us = bench::us_since(start);
  std::printf("  %d registrations in %.1f ms -> %.0f registrations/s\n",
              kCount, total_us / 1000.0, kCount / (total_us / 1e6));
}

void lease_expiry_ablation() {
  bench::header("E2c",
                "lease ablation: stale-entry removal time vs lease length");
  std::printf("%12s %18s %22s\n", "lease_ms", "removal_ms(mean)",
              "renewals_per_svc_min");
  for (int lease_ms : {200, 500, 1000, 2000}) {
    testenv::AceTestEnv deployment(44);
    if (!deployment.start().ok()) return;
    auto client = deployment.make_client("bench", "user/bench");

    bench::Series removal_ms;
    for (int trial = 0; trial < 3; ++trial) {
      register_synthetic(*client, deployment.env.asd_address, trial,
                         lease_ms);
      // The "service" crashes immediately (never renews). Measure the time
      // until the directory stops returning it.
      auto start = bench::Clock::now();
      std::string name = "svc" + std::to_string(trial);
      while (services::AsdClient(*client, deployment.env.asd_address).lookup(name)
                 .ok()) {
        std::this_thread::sleep_for(5ms);
      }
      removal_ms.add(bench::us_since(start) / 1000.0);
    }
    // A service renews at half its lease: renewal rate per minute.
    double renewals_per_min = 60000.0 / (lease_ms / 2.0);
    std::printf("%12d %18.1f %22.1f\n", lease_ms, removal_ms.mean(),
                renewals_per_min);
  }
  std::printf(
      "  (shape: removal time tracks the lease; shorter leases buy faster\n"
      "   failure detection with proportionally more renewal traffic)\n");
}

// ------------------------------------------------------------------- E15a

struct QueryBenchResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Drives the directory core directly (execute(); transport cost is E13's
// subject, not this experiment's): seeds `n` registrations, then hammers
// class-constrained queries from `readers` threads while one writer churns
// re-registrations and renewals. Class cardinality scales with n so bucket
// sizes stay realistic (many small classes, not 8 giant ones).
QueryBenchResult run_query_config(int n, int readers,
                                  std::chrono::milliseconds duration,
                                  obs::MetricsSnapshot* snapshot_out = nullptr) {
  daemon::Environment env(7);
  daemon::DaemonHost host(env, "bench-dir");
  daemon::DaemonConfig c;
  c.name = "asd";
  c.room = "machine-room";
  c.register_with_asd = false;
  c.register_with_room_db = false;
  c.log_to_net_logger = false;
  auto& asd = host.add_daemon<services::AsdDaemon>(c);
  const daemon::CallerInfo caller{"bench", {}};

  const int classes = std::max(8, n / 64);
  const int rooms = std::max(4, n / 256);
  auto register_one = [&](int i, std::int64_t port_salt) {
    CmdLine reg("register");
    reg.arg("name", Word{"svc" + std::to_string(i)});
    reg.arg("host", "host" + std::to_string(i % 32));
    reg.arg("port", std::int64_t{1 + (i + port_salt) % 60000});
    reg.arg("room", Word{"room" + std::to_string(i % rooms)});
    reg.arg("class", "Service/Synthetic/Kind" + std::to_string(i % classes));
    reg.arg("lease", std::int64_t{60000});
    (void)asd.execute(reg, caller);
  };
  for (int i = 0; i < n; ++i) register_one(i, 0);

  // Writer churn: steady re-registrations (which move index buckets) and
  // renewals (which push expiry-heap nodes) throughout the read window.
  std::atomic<bool> stop{false};
  std::jthread churn([&] {
    util::Rng rng(99);
    while (!stop.load()) {
      const int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      register_one(i, static_cast<std::int64_t>(rng.next_below(50000)));
      CmdLine renew("renew");
      renew.arg("name",
                Word{"svc" + std::to_string(rng.next_below(
                         static_cast<std::uint64_t>(n)))});
      (void)asd.execute(renew, caller);
    }
  });

  std::vector<bench::Series> latencies(static_cast<std::size_t>(readers));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(readers), 0);
  std::vector<std::jthread> threads;
  const auto deadline = bench::Clock::now() + duration;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      while (bench::Clock::now() < deadline) {
        CmdLine query("query");
        query.arg("name", "*");
        query.arg("class",
                  "Service/Synthetic/Kind" +
                      std::to_string(rng.next_below(
                          static_cast<std::uint64_t>(classes))));
        query.arg("room", "*");
        auto start = bench::Clock::now();
        (void)asd.execute(query, caller);
        latencies[static_cast<std::size_t>(t)].add(bench::us_since(start));
        counts[static_cast<std::size_t>(t)]++;
      }
    });
  }
  threads.clear();  // join readers
  stop.store(true);
  churn = {};

  bench::Series merged;
  std::uint64_t total = 0;
  for (int t = 0; t < readers; ++t) {
    total += counts[static_cast<std::size_t>(t)];
    for (double v : latencies[static_cast<std::size_t>(t)].samples)
      merged.add(v);
  }
  QueryBenchResult result;
  result.qps = static_cast<double>(total) /
               std::chrono::duration<double>(duration).count();
  result.p50_us = merged.percentile(50);
  result.p99_us = merged.percentile(99);
  if (snapshot_out) *snapshot_out = env.metrics().snapshot();
  return result;
}

void query_scaling(bool smoke) {
  bench::header("E15a", "indexed query throughput under churn");
  std::printf("%10s %14s %12s %12s\n", "services", "queries/s", "p50_us",
              "p99_us");
  const std::vector<int> sizes =
      smoke ? std::vector<int>{500} : std::vector<int>{1000, 10000, 50000};
  const auto duration = smoke ? 150ms : 400ms;
  const int readers = 4;
  for (int n : sizes) {
    auto indexed = run_query_config(n, readers, duration);
    std::printf("%10d %14.0f %12.1f %12.1f\n", n, indexed.qps, indexed.p50_us,
                indexed.p99_us);
  }
  // The bench_asd.metrics.json artifact is exported by E21 (last in the
  // binary); its campus registry also carries the index-hit proof.
}

// ------------------------------------------------------------------- E15b

void client_cache(bool smoke) {
  bench::header("E15b", "client lookup cache: cached vs uncached AsdClient");
  testenv::AceTestEnv deployment(45);
  if (!deployment.start().ok()) return;
  auto client = deployment.make_client("bench", "user/bench");
  for (int i = 0; i < 64; ++i)
    register_synthetic(*client, deployment.env.asd_address, i);

  const int lookups = smoke ? 500 : 5000;
  // Skewed workload: most lookups go to a handful of hot services, as when
  // every application in a room resolves the same camera and display.
  auto run = [&](services::AsdClient& asd, const char* label) {
    util::Rng rng(11);
    bench::Series lat;
    auto start = bench::Clock::now();
    for (int i = 0; i < lookups; ++i) {
      const std::uint64_t idx = rng.next_below(100) < 90
                                    ? rng.next_below(5)
                                    : rng.next_below(64);
      auto t0 = bench::Clock::now();
      auto r = asd.lookup("svc" + std::to_string(idx));
      lat.add(bench::us_since(t0));
      if (!r.ok()) std::fprintf(stderr, "lookup failed\n");
    }
    double total_s = bench::us_since(start) / 1e6;
    std::printf("  %-10s %10.0f lookups/s   p50=%.2f us  p99=%.2f us\n",
                label, lookups / total_s, lat.percentile(50),
                lat.percentile(99));
  };

  services::AsdClient uncached(*client, deployment.env.asd_address);
  run(uncached, "uncached");
  services::AsdClient cached(*client, deployment.env.asd_address,
                             services::AsdCacheOptions{.enabled = true});
  run(cached, "cached");
  auto& m = deployment.env.metrics();
  std::printf("  cache: %lld hits / %lld misses\n",
              static_cast<long long>(m.counter("asd_client.cache_hits").value()),
              static_cast<long long>(
                  m.counter("asd_client.cache_misses").value()));
}

// ------------------------------------------------------------------- E15c

void renewal_batching(bool smoke) {
  bench::header("E15c", "renewal traffic: one renewBatch per host");
  const auto window = smoke ? 600ms : 2s;
  const int workers = 10;
  testenv::AceTestEnv deployment(46);
  if (!deployment.start().ok()) return;
  daemon::DaemonHost host(deployment.env, "workstation");
  for (int i = 0; i < workers; ++i) {
    daemon::DaemonConfig c;
    c.name = "w" + std::to_string(i);
    c.room = "hawk";
    c.lease = 1000ms;
    c.lease_renew = 100ms;
    host.add_daemon<services::HrmDaemon>(c);
  }
  if (!host.start_all().ok()) return;
  auto& rpcs = deployment.env.metrics().counter("asd.renew_rpcs");
  const auto before = rpcs.value();
  std::this_thread::sleep_for(window);
  const double per_s = static_cast<double>(rpcs.value() - before) /
                       std::chrono::duration<double>(window).count();
  std::printf("  %d-service host: %.1f renew rpcs/s, %.1f per 100ms interval\n",
              workers, per_s, per_s * 0.1);
  host.stop_all();
}

// -------------------------------------------------------------------- E21

// Polls `pred` until it holds or the budget runs out; returns the elapsed
// milliseconds (budget count on failure).
double poll_ms(std::chrono::milliseconds budget,
               const std::function<bool()>& pred) {
  const auto start = bench::Clock::now();
  const auto deadline = start + budget;
  while (bench::Clock::now() < deadline) {
    if (pred()) return bench::us_since(start) / 1000.0;
    std::this_thread::sleep_for(5ms);
  }
  return static_cast<double>(budget.count());
}

// A minimal subscriber for the fan-out measurement: counts `noted`
// deliveries (the notify pump's method) and exposes a `poke` trigger.
class NotifySink : public daemon::ServiceDaemon {
 public:
  NotifySink(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("noted", "bench notification sink")
            .arg(cmdlang::string_arg("source"))
            .arg(cmdlang::word_arg("command"))
            .arg(cmdlang::string_arg("detail"))
            .concurrent_ok(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          received_.fetch_add(1);
          return cmdlang::make_ok();
        });
    register_command(
        cmdlang::CommandSpec("poke", "notification trigger").concurrent_ok(),
        [](const CmdLine&, const daemon::CallerInfo&) {
          return cmdlang::make_ok();
        });
  }
  int received() const { return received_.load(); }

 private:
  std::atomic<int> received_{0};
};

// A campus of federated rooms, one ASD per room on its own host, all in a
// single simulated Environment (so one metrics registry sees every room).
// The last room sits behind a rendezvous relay.
struct BenchCampus {
  struct Room {
    std::string name;
    std::unique_ptr<daemon::DaemonHost> host;
    services::AsdDaemon* asd = nullptr;
    net::Address address;
  };

  explicit BenchCampus(std::uint64_t seed) : env(seed) {}

  // Gossip cadence, set before build_and_start. The full 100-room campus
  // runs a slower round clock than the 6-room smoke: 100 agents at a 50 ms
  // interval saturate a small CI container, and a starved round clock reads
  // as spurious suspicion/eviction churn rather than an honest measurement.
  std::chrono::milliseconds gossip_interval{50};
  int gossip_fanout = 3;
  std::chrono::milliseconds sync_timeout{250};

  bool build_and_start(int room_count, const net::Address& relay_addr) {
    for (int i = 0; i < room_count; ++i) {
      Room room;
      room.name = "r" + std::to_string(i);
      room.host =
          std::make_unique<daemon::DaemonHost>(env, "site-" + room.name);
      room.address = {"site-" + room.name, daemon::kAsdPort};
      rooms.push_back(std::move(room));
    }
    const std::size_t relayed = rooms.size() - 1;  // last room, behind relay
    for (std::size_t i = 0; i < rooms.size(); ++i) {
      services::FederationOptions fed;
      fed.enabled = true;
      fed.gossip_interval = gossip_interval;
      fed.gossip_fanout = gossip_fanout;
      fed.sync_timeout = sync_timeout;
      fed.forward_timeout = 750ms;
      fed.forward_cache_ttl = 60000ms;  // invalidation by gossip, not TTL
      if (i == relayed) fed.relay = relay_addr;
      for (std::size_t j = 0; j < rooms.size(); ++j) {
        if (j == i) continue;
        services::GossipPeerSeed seed;
        seed.room = rooms[j].name;
        seed.address = rooms[j].address;
        if (j == relayed) seed.relay = relay_addr;
        fed.seeds.push_back(std::move(seed));
      }
      daemon::DaemonConfig c;
      c.name = "asd-" + rooms[i].name;
      c.port = daemon::kAsdPort;
      c.room = rooms[i].name;
      c.register_with_room_db = false;
      c.log_to_net_logger = false;
      services::AsdOptions opts;
      // The default 60 s lease cap is tuned for liveness experiments; the
      // full campaign runs longer than that and E21 is not a lease
      // experiment, so raise the cap and let entries outlive the run.
      opts.max_lease = std::chrono::milliseconds{600000};
      opts.federation = std::move(fed);
      rooms[i].asd = &rooms[i].host->add_daemon<services::AsdDaemon>(c, opts);
    }
    for (auto& room : rooms)
      if (!room.host->start_all().ok()) return false;
    return true;
  }

  // Every room has heard from every room (seeds start alive at heartbeat
  // 0, so heartbeat > 0 distinguishes "configured" from "actually heard
  // from") and nobody is evicted. Transient *suspicion* is accepted: at
  // 100 rooms some pair is always a few rounds stale on somebody's local
  // clock, so "all pairs alive at one instant" is a condition steady-state
  // gossip never satisfies — eviction, not suspicion, is what removes a
  // room from query fan-out.
  bool converged() const {
    for (const auto& room : rooms) {
      auto view = room.asd->gossip()->view();
      if (view.size() != rooms.size()) return false;
      for (const auto& v : view)
        if (v.state == services::RoomState::evicted || v.heartbeat == 0)
          return false;
    }
    return true;
  }

  daemon::Environment env;
  std::vector<Room> rooms;
};

// Issues `query name=<glob> class=* room=<glob>` at a directory and returns
// the latency in microseconds (entry count via out param).
double timed_query(services::AsdDaemon& asd, const std::string& name_glob,
                   const std::string& room_glob, const daemon::CallerInfo& who,
                   std::size_t* count_out = nullptr) {
  CmdLine query("query");
  query.arg("name", name_glob);
  query.arg("class", "*");
  query.arg("room", room_glob);
  auto start = bench::Clock::now();
  auto reply = asd.execute(query, who);
  double us = bench::us_since(start);
  if (count_out) {
    *count_out = 0;
    if (auto vec = reply.get_vector("services")) *count_out = vec->elements.size();
  }
  return us;
}

void federated_campus(bool smoke) {
  bench::header("E21",
                "federated campus: cross-room queries, gossip, relay, "
                "batched fan-out");
  const int kRooms = smoke ? 6 : 100;
  const int kPerRoom = smoke ? 40 : 100;  // 240 smoke / 10k full
  const daemon::CallerInfo caller{"bench", {}};

  BenchCampus campus(21);
  if (!smoke) {
    campus.gossip_interval = 250ms;
    campus.gossip_fanout = 2;
    campus.sync_timeout = 1000ms;
  }

  // Rendezvous relay on its own host, up before the rooms so the relayed
  // room's first gossip round can take out its lease.
  daemon::DaemonHost relay_host(campus.env, "relay-site");
  daemon::DaemonConfig rc;
  rc.name = "relay";
  rc.port = 5100;
  rc.room = "machine-room";
  rc.register_with_room_db = false;
  rc.log_to_net_logger = false;
  auto& relay = relay_host.add_daemon<services::RelayDaemon>(rc);
  if (!relay_host.start_all().ok()) return;

  const auto build_start = bench::Clock::now();
  if (!campus.build_and_start(kRooms, {"relay-site", 5100})) return;

  // Populate each room's directory (registration is room-local).
  for (int r = 0; r < kRooms; ++r) {
    auto& room = campus.rooms[static_cast<std::size_t>(r)];
    for (int i = 0; i < kPerRoom; ++i) {
      CmdLine reg("register");
      reg.arg("name", Word{"svc-" + room.name + "-" + std::to_string(i)});
      reg.arg("host", "site-" + room.name);
      reg.arg("port", std::int64_t{1000 + i});
      reg.arg("room", Word{room.name});
      reg.arg("class", "Service/Synthetic/Kind" + std::to_string(i % 8));
      // Long lease: the full campaign runs for minutes and E21 is not a
      // lease experiment (E2 is) — entries must outlive the measurements.
      reg.arg("lease", std::int64_t{600000});
      (void)room.asd->execute(reg, caller);
    }
  }
  // Some explicit lease renewals at room 0 (renewal is room-local too).
  for (int i = 0; i < kPerRoom; ++i) {
    CmdLine renew("renew");
    renew.arg("name", Word{"svc-r0-" + std::to_string(i)});
    (void)campus.rooms[0].asd->execute(renew, caller);
  }

  const double startup_ms =
      poll_ms(smoke ? 15000ms : 60000ms, [&] { return campus.converged(); });
  std::printf("  %d rooms x %d services: gossip converged %.0f ms after "
              "start (%.0f ms total build)\n",
              kRooms, kPerRoom, startup_ms,
              bench::us_since(build_start) / 1000.0);

  // ---- cross-room query latency, federated vs one flat directory --------
  auto& asd0 = *campus.rooms[0].asd;
  bench::Series targeted_uncached, targeted_cached, fanout_lat;
  for (int r = 1; r < kRooms; ++r)  // first touch per room: cache miss
    targeted_uncached.add(
        timed_query(asd0, "*", campus.rooms[static_cast<std::size_t>(r)].name,
                    caller));
  for (int round = 0; round < 3; ++round)
    for (int r = 1; r < kRooms; ++r)
      targeted_cached.add(
          timed_query(asd0, "*",
                      campus.rooms[static_cast<std::size_t>(r)].name, caller));
  std::size_t fanout_count = 0;
  for (int i = 0; i < 10; ++i)
    fanout_lat.add(timed_query(asd0, "*", "*", caller, &fanout_count));

  // Baseline: the same campus as one flat directory (no federation).
  daemon::Environment flat_env(22);
  daemon::DaemonHost flat_host(flat_env, "flat-site");
  daemon::DaemonConfig fc;
  fc.name = "asd-flat";
  fc.room = "r0";
  fc.register_with_room_db = false;
  fc.log_to_net_logger = false;
  services::AsdOptions flat_opts;
  flat_opts.max_lease = std::chrono::milliseconds{600000};
  auto& flat = flat_host.add_daemon<services::AsdDaemon>(fc, flat_opts);
  if (!flat_host.start_all().ok()) return;
  for (int r = 0; r < kRooms; ++r)
    for (int i = 0; i < kPerRoom; ++i) {
      CmdLine reg("register");
      reg.arg("name", Word{"svc-r" + std::to_string(r) + "-" +
                           std::to_string(i)});
      reg.arg("host", "site-r" + std::to_string(r));
      reg.arg("port", std::int64_t{1000 + i});
      reg.arg("room", Word{"r" + std::to_string(r)});
      reg.arg("class", "Service/Synthetic/Kind" + std::to_string(i % 8));
      reg.arg("lease", std::int64_t{600000});
      (void)flat.execute(reg, caller);
    }
  bench::Series flat_targeted, flat_fanout;
  for (int round = 0; round < 4; ++round)
    for (int r = 1; r < kRooms; ++r)
      flat_targeted.add(
          timed_query(flat, "*", "r" + std::to_string(r), caller));
  for (int i = 0; i < 10; ++i)
    flat_fanout.add(timed_query(flat, "*", "*", caller));

  std::printf("  cross-room query latency (us):\n");
  std::printf("  %-28s %10s %10s\n", "shape", "p50", "p99");
  std::printf("  %-28s %10.1f %10.1f\n", "targeted, uncached",
              targeted_uncached.percentile(50),
              targeted_uncached.percentile(99));
  std::printf("  %-28s %10.1f %10.1f\n", "targeted, scoped cache",
              targeted_cached.percentile(50), targeted_cached.percentile(99));
  std::printf("  %-28s %10.1f %10.1f   (%zu entries)\n", "fan-out room=*",
              fanout_lat.percentile(50), fanout_lat.percentile(99),
              fanout_count);
  std::printf("  %-28s %10.1f %10.1f\n", "flat directory, targeted",
              flat_targeted.percentile(50), flat_targeted.percentile(99));
  std::printf("  %-28s %10.1f %10.1f\n", "flat directory, full",
              flat_fanout.percentile(50), flat_fanout.percentile(99));
  flat_host.stop_all();

  // ---- chaos: inter-room partition, then convergence after the heal -----
  // Room r1 is cut off from the entire rest of the campus (the "rest"
  // group holds every other host incl. the relay), repeatedly, while room
  // r0 keeps querying. After the final heal the views must knit back.
  chaos::ScheduleParams cp;
  cp.duration = smoke ? 1500ms : 4000ms;
  cp.mean_interval = 300ms;
  cp.weight_service_crash = 0;
  cp.weight_link_down = 0;
  cp.weight_host_isolate = 0;
  cp.weight_latency_spike = 0;
  cp.weight_loss_burst = 0;
  cp.weight_room_partition = 6;
  chaos::Targets ct;
  chaos::Targets::RoomGroup isolated{"r1", {"site-r1"}};
  chaos::Targets::RoomGroup rest{"rest", {"relay-site"}};
  for (const auto& room : campus.rooms)
    if (room.name != "r1") rest.hosts.push_back("site-" + room.name);
  ct.rooms = {isolated, rest};
  auto schedule =
      chaos::generate_schedule(chaos::seed_from_env(2100), cp, ct);
  chaos::ChaosEngine engine(campus.env, schedule);
  engine.start();
  bench::Series chaos_lat;
  std::uint64_t chaos_queries = 0;
  while (!engine.done()) {
    chaos_lat.add(timed_query(asd0, "*", "*", caller));
    ++chaos_queries;
    std::this_thread::sleep_for(20ms);
  }
  engine.join();
  const double reconverge_ms =
      poll_ms(smoke ? 15000ms : 30000ms, [&] { return campus.converged(); });
  std::printf("  chaos (%zu room partitions): %llu fan-out queries kept "
              "completing, p99 %.1f us;\n"
              "  gossip re-converged %.0f ms after the final heal\n",
              schedule.events.size() / 2,
              static_cast<unsigned long long>(chaos_queries),
              chaos_lat.percentile(99), reconverge_ms);

  // ---- relay: the relayed room answers across a direct-link partition ---
  const auto& relayed = campus.rooms.back();
  campus.env.network().set_partitioned("site-r0", "site-" + relayed.name,
                                       true);
  auto& frames = campus.env.metrics().counter("asd.relay_frames");
  const auto frames_before = frames.value();
  // Fresh name glob = fresh cache key, so the query must cross the relay.
  std::size_t via_relay = 0;
  const double relay_us = timed_query(
      asd0, "svc-" + relayed.name + "-0", relayed.name, caller, &via_relay);
  campus.env.network().set_partitioned("site-r0", "site-" + relayed.name,
                                       false);
  std::printf("  relay: room %s answered %zu entr%s in %.1f us during the "
              "direct-link partition\n         (relay frames +%llu, rooms "
              "registered at relay: %zu)\n",
              relayed.name.c_str(), via_relay, via_relay == 1 ? "y" : "ies",
              relay_us,
              static_cast<unsigned long long>(frames.value() - frames_before),
              relay.room_count());

  // ---- notification fan-out: a burst coalesced into wire batches --------
  daemon::DaemonHost floor(campus.env, "bench-floor");
  auto sub_config = [](const char* name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "r0";
    c.register_with_asd = false;
    c.register_with_room_db = false;
    c.log_to_net_logger = false;
    return c;
  };
  auto& emitter = floor.add_daemon<NotifySink>(sub_config("emitter"));
  auto& sink = floor.add_daemon<NotifySink>(sub_config("sink"));
  if (!floor.start_all().ok()) return;
  CmdLine sub("addNotification");
  sub.arg("command", Word{"poke"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"noted"});
  (void)emitter.execute(sub, caller);
  auto& batches = campus.env.metrics().counter("daemon.notify_batches");
  const int kEvents = smoke ? 300 : 3000;
  CmdLine poke("poke");
  const auto batches_before = batches.value();
  const auto start = bench::Clock::now();
  for (int i = 0; i < kEvents; ++i) (void)emitter.execute(poke, caller);
  poll_ms(15000ms, [&] { return sink.received() >= kEvents; });
  const double total_ms = bench::us_since(start) / 1000.0;
  std::printf("  notification fan-out, %d-event burst: %.1f ms to full "
              "delivery, %llu wire batches\n",
              kEvents, total_ms,
              static_cast<unsigned long long>(batches.value() -
                                              batches_before));

  // The bench-smoke artifact: one registry covering every room's directory,
  // gossip, forwarding, relay and notify counters. Must stay the last
  // export in the binary — ci.sh gates on these counters being nonzero.
  auto& m = campus.env.metrics();
  std::printf(
      "  counters: registrations=%llu queries=%llu index_hits=%llu "
      "renewals=%llu\n            gossip_rounds=%llu forwarded=%llu "
      "relay_frames=%llu\n",
      static_cast<unsigned long long>(m.counter("asd.registrations").value()),
      static_cast<unsigned long long>(m.counter("asd.queries").value()),
      static_cast<unsigned long long>(
          m.counter("asd.query_index_hits").value()),
      static_cast<unsigned long long>(m.counter("asd.renewals").value()),
      static_cast<unsigned long long>(m.counter("asd.gossip_rounds").value()),
      static_cast<unsigned long long>(
          m.counter("asd.forwarded_queries").value()),
      static_cast<unsigned long long>(m.counter("asd.relay_frames").value()));
  bench::export_metrics_json("bench_asd", m.snapshot());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  if (!smoke) {
    lookup_latency_vs_directory_size();
    registration_throughput();
    lease_expiry_ablation();
  }
  query_scaling(smoke);
  client_cache(smoke);
  renewal_batching(smoke);
  federated_campus(smoke);  // exports bench_asd.metrics.json last
  return 0;
}
