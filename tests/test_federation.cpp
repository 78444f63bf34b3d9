// Federated multi-room fabric (docs/federation.md):
//  * gossip membership — transitive view spread, suspicion/eviction of a
//    silent room, epoch-bumped rejoin,
//  * cross-room query forwarding — merge semantics, the scope=local loop
//    guard, scoped-cache hits and gossip-driven invalidation,
//  * the relay tier — tunneled queries to a room whose direct link is down,
//  * coalesced notification fan-out (notifyBatch).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "ace_test_env.hpp"
#include "services/gossip.hpp"
#include "services/relay.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

const daemon::CallerInfo kCaller{"test", {}};

// Polls `pred` until it holds or the deadline passes.
bool eventually(std::chrono::milliseconds budget,
                const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

// A campus: one room per entry, each room's ASD on its own host, all inside
// one simulated Environment. No shared infrastructure — room ASDs find each
// other purely through their gossip seeds.
struct Campus {
  struct Room {
    std::string name;
    std::unique_ptr<daemon::DaemonHost> host;
    services::AsdDaemon* asd = nullptr;
    net::Address address;
  };

  explicit Campus(std::uint64_t seed) : env(seed) {}

  // `seeds_for[i]` lists the indices of the rooms seeded into room i's
  // federation options; empty outer vector = full mesh.
  void build(const std::vector<std::string>& names,
             services::FederationOptions base,
             std::vector<std::vector<std::size_t>> seeds_for = {},
             const std::vector<net::Address>& relay_of = {}) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      Room room;
      room.name = names[i];
      room.host = std::make_unique<daemon::DaemonHost>(
          env, "site-" + names[i]);
      room.address = {"site-" + names[i], daemon::kAsdPort};
      rooms.push_back(std::move(room));
    }
    for (std::size_t i = 0; i < rooms.size(); ++i) {
      services::FederationOptions fed = base;
      fed.enabled = true;
      if (i < relay_of.size()) fed.relay = relay_of[i];
      std::vector<std::size_t> peers;
      if (i < seeds_for.size()) {
        peers = seeds_for[i];
      } else {
        for (std::size_t j = 0; j < rooms.size(); ++j)
          if (j != i) peers.push_back(j);
      }
      for (std::size_t j : peers) {
        services::GossipPeerSeed seed;
        seed.room = rooms[j].name;
        seed.address = rooms[j].address;
        if (j < relay_of.size()) seed.relay = relay_of[j];
        fed.seeds.push_back(std::move(seed));
      }
      daemon::DaemonConfig c;
      c.name = "asd-" + rooms[i].name;
      c.port = daemon::kAsdPort;
      c.room = rooms[i].name;
      c.register_with_room_db = false;
      c.log_to_net_logger = false;
      services::AsdOptions opts;
      opts.federation = std::move(fed);
      rooms[i].asd =
          &rooms[i].host->add_daemon<services::AsdDaemon>(c, opts);
    }
  }

  util::Status start_all() {
    for (auto& room : rooms) {
      auto s = room.host->start_all();
      if (!s.ok()) return s;
    }
    return util::Status::ok_status();
  }

  void register_service(std::size_t room, const std::string& name) {
    CmdLine reg("register");
    reg.arg("name", Word{name});
    reg.arg("host", "site-" + rooms[room].name);
    reg.arg("port", std::int64_t{7000});
    reg.arg("room", Word{rooms[room].name});
    reg.arg("class", "Service/Synthetic");
    reg.arg("lease", std::int64_t{60000});
    ASSERT_TRUE(cmdlang::is_ok(rooms[room].asd->execute(reg, kCaller)));
  }

  // Names returned by a `query` issued at `room`'s directory.
  std::vector<std::string> query_names(std::size_t room,
                                       const std::string& room_glob = "*",
                                       bool local_only = false) {
    CmdLine query("query");
    query.arg("name", "*");
    query.arg("class", "*");
    query.arg("room", room_glob);
    if (local_only) query.arg("scope", Word{"local"});
    auto reply = rooms[room].asd->execute(query, kCaller);
    std::vector<std::string> names;
    if (auto vec = reply.get_vector("services"))
      for (const auto& elem : vec->elements) {
        const std::string& encoded = elem.as_text();
        names.push_back(encoded.substr(0, encoded.find('|')));
      }
    return names;
  }

  daemon::Environment env;
  std::vector<Room> rooms;
};

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

services::FederationOptions fast_gossip() {
  services::FederationOptions fed;
  fed.gossip_interval = 20ms;
  fed.gossip_fanout = 2;
  fed.suspect_after_rounds = 3;
  fed.evict_after_rounds = 6;
  fed.sync_timeout = 250ms;
  fed.forward_timeout = 400ms;
  fed.forward_cache_ttl = 60000ms;  // tests invalidate via gossip, not TTL
  return fed;
}

}  // namespace

// ------------------------------------------------------------ codec basics

TEST(GossipCodec, EntryRoundTripsThroughWireEncoding) {
  services::RoomView v;
  v.room = "hawk";
  v.address = {"site-hawk", 5000};
  v.relay = {"relay-host", 5100};
  v.epoch = 3;
  v.version = 17;
  v.heartbeat = 99;
  auto decoded =
      services::GossipAgent::decode_entry(services::GossipAgent::encode_entry(v));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->room, "hawk");
  EXPECT_EQ(decoded->address, v.address);
  EXPECT_EQ(decoded->relay, v.relay);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->version, 17u);
  EXPECT_EQ(decoded->heartbeat, 99u);

  v.relay = {};  // no relay encodes as "-"
  auto direct =
      services::GossipAgent::decode_entry(services::GossipAgent::encode_entry(v));
  ASSERT_TRUE(direct.has_value());
  EXPECT_TRUE(direct->relay.host.empty());

  EXPECT_FALSE(services::GossipAgent::decode_entry("garbage").has_value());
  EXPECT_FALSE(
      services::GossipAgent::decode_entry("room|nohost|x|1|2").has_value());
}

// ---------------------------------------------------------- gossip spread

TEST(FederationTest, ViewSpreadsTransitively) {
  Campus campus(101);
  // A chain, not a mesh: A only knows B, B only knows C, C knows nobody.
  // Everyone must still converge on all three rooms through gossip.
  campus.build({"alpha", "beta", "gamma"}, fast_gossip(),
               {{1}, {2}, {}});
  ASSERT_TRUE(campus.start_all().ok());

  auto all_know_all = [&] {
    for (auto& room : campus.rooms) {
      auto view = room.asd->gossip()->view();
      if (view.size() != 3) return false;
      for (const auto& v : view)
        if (v.state != services::RoomState::alive) return false;
    }
    return true;
  };
  EXPECT_TRUE(eventually(5000ms, all_know_all));
}

// ------------------------------------------------------- query forwarding

TEST(FederationTest, CrossRoomQueryMergesAndScopeLocalSuppresses) {
  Campus campus(102);
  campus.build({"alpha", "beta"}, fast_gossip());
  ASSERT_TRUE(campus.start_all().ok());
  campus.register_service(0, "cam-alpha");
  campus.register_service(1, "cam-beta");

  // Unconstrained query at alpha merges beta's matches.
  EXPECT_TRUE(eventually(3000ms, [&] {
    auto names = campus.query_names(0);
    return contains(names, "cam-alpha") && contains(names, "cam-beta");
  }));

  // scope=local pins the answer to the queried directory's own room — the
  // same flag forwarded sub-queries carry, so forwarding can never loop.
  auto local = campus.query_names(0, "*", /*local_only=*/true);
  EXPECT_TRUE(contains(local, "cam-alpha"));
  EXPECT_FALSE(contains(local, "cam-beta"));

  // A room-targeted query only fans out to (and returns) that room.
  auto targeted = campus.query_names(0, "beta");
  EXPECT_FALSE(contains(targeted, "cam-alpha"));
  EXPECT_TRUE(contains(targeted, "cam-beta"));
}

TEST(FederationTest, ForwardCacheHitsAndInvalidatesOnRegistryChange) {
  Campus campus(103);
  campus.build({"alpha", "beta"}, fast_gossip());
  ASSERT_TRUE(campus.start_all().ok());
  campus.register_service(1, "cam-beta");

  // Let alpha see beta's current (epoch, version) before the first query,
  // so the cache fill isn't immediately invalidated by a late first sync.
  auto* gossip = campus.rooms[0].asd->gossip();
  ASSERT_TRUE(eventually(3000ms, [&] {
    auto fresh = gossip->room_freshness("beta");
    return fresh && fresh->second >= 1;  // beta's registration version bump
  }));

  auto& hits = campus.env.metrics().counter("asd.forward_cache_hits");
  const auto hits_before = hits.value();
  ASSERT_TRUE(contains(campus.query_names(0), "cam-beta"));  // fill
  ASSERT_TRUE(contains(campus.query_names(0), "cam-beta"));  // hit
  EXPECT_GT(hits.value(), hits_before);

  // A registration at beta bumps its gossip version; alpha invalidates the
  // cached result and the next query sees the new service.
  campus.register_service(1, "mic-beta");
  EXPECT_TRUE(eventually(3000ms, [&] {
    return contains(campus.query_names(0), "mic-beta");
  }));
}

// -------------------------------------------------- suspicion and rejoin

TEST(FederationTest, SilentRoomIsEvictedAndRejoinsWithNewEpoch) {
  Campus campus(104);
  campus.build({"alpha", "beta"}, fast_gossip());
  ASSERT_TRUE(campus.start_all().ok());

  auto* gossip = campus.rooms[0].asd->gossip();
  ASSERT_TRUE(eventually(3000ms, [&] {
    for (const auto& v : gossip->view())
      if (v.room == "beta" && v.heartbeat > 0) return true;
    return false;
  }));
  const auto epoch_before = [&] {
    for (const auto& v : gossip->view())
      if (v.room == "beta") return v.epoch;
    return std::uint64_t{0};
  }();

  // Beta goes silent: its ASD crashes. Alpha's round clock ages it through
  // suspect into evicted, and evicted rooms leave the fan-out set.
  campus.rooms[1].asd->crash();
  EXPECT_TRUE(eventually(5000ms, [&] {
    for (const auto& v : gossip->view())
      if (v.room == "beta") return v.state == services::RoomState::evicted;
    return false;
  }));
  EXPECT_TRUE(gossip->forward_targets("*").empty());

  // Relaunch: a new incarnation (higher epoch) resurrects the entry.
  ASSERT_TRUE(campus.rooms[1].asd->start().ok());
  EXPECT_TRUE(eventually(5000ms, [&] {
    for (const auto& v : gossip->view())
      if (v.room == "beta")
        return v.state == services::RoomState::alive &&
               v.epoch > epoch_before;
    return false;
  }));
}

TEST(FederationTest, HealedPartitionReknitsMutuallyEvictedRooms) {
  Campus campus(106);
  campus.build({"alpha", "beta"}, fast_gossip());
  ASSERT_TRUE(campus.start_all().ok());

  auto state_of = [&](std::size_t viewer, const std::string& room) {
    for (const auto& v : campus.rooms[viewer].asd->gossip()->view())
      if (v.room == room) return v.state;
    return services::RoomState::evicted;
  };
  auto heard_from = [&](std::size_t viewer, const std::string& room) {
    for (const auto& v : campus.rooms[viewer].asd->gossip()->view())
      if (v.room == room) return v.heartbeat > 0;
    return false;
  };
  ASSERT_TRUE(eventually(3000ms, [&] {
    return heard_from(0, "beta") && heard_from(1, "alpha");
  }));

  // A full partition outlasting the evict horizon: each side evicts the
  // other. Neither restarts, so no epoch bump will announce a rejoin.
  campus.env.network().set_partitioned("site-alpha", "site-beta", true);
  EXPECT_TRUE(eventually(5000ms, [&] {
    return state_of(0, "beta") == services::RoomState::evicted &&
           state_of(1, "alpha") == services::RoomState::evicted;
  }));

  // Heal. Evicted rooms are excluded from peer selection AND withheld from
  // gossiped views, so only the per-round rejoin probe can rediscover the
  // other side; without it this partition would be permanent.
  campus.env.network().set_partitioned("site-alpha", "site-beta", false);
  EXPECT_TRUE(eventually(5000ms, [&] {
    return state_of(0, "beta") == services::RoomState::alive &&
           state_of(1, "alpha") == services::RoomState::alive;
  }));
}

// ------------------------------------------------------------- relay tier

TEST(FederationTest, RelayServesRoomDuringDirectLinkPartition) {
  Campus campus(105);
  // Relay on its own host, started before the rooms so gamma's first
  // gossip round can take out its lease.
  daemon::DaemonHost relay_host(campus.env, "relay-site");
  daemon::DaemonConfig rc;
  rc.name = "relay";
  rc.port = 5100;
  rc.room = "machine-room";
  rc.register_with_room_db = false;
  rc.log_to_net_logger = false;
  auto& relay = relay_host.add_daemon<services::RelayDaemon>(rc);
  ASSERT_TRUE(relay_host.start_all().ok());

  const net::Address relay_addr{"relay-site", 5100};
  // gamma (index 1) sits behind the relay; alpha's seed for it carries the
  // relay address, so alpha always tunnels.
  campus.build({"alpha", "gamma"}, fast_gossip(), {},
               {net::Address{}, relay_addr});
  ASSERT_TRUE(campus.start_all().ok());
  campus.register_service(1, "cam-gamma");

  ASSERT_TRUE(eventually(3000ms, [&] { return relay.room_count() > 0; }));

  // Sever the direct link. Only the relay path remains.
  campus.env.network().set_partitioned("site-alpha", "site-gamma", true);

  auto& frames = campus.env.metrics().counter("asd.relay_frames");
  const auto frames_before = frames.value();
  EXPECT_TRUE(eventually(3000ms, [&] {
    return contains(campus.query_names(0, "gamma"), "cam-gamma");
  }));
  EXPECT_GT(frames.value(), frames_before);

  // Gossip also rides the tunnel: gamma stays alive in alpha's view across
  // several suspicion windows of partition.
  std::this_thread::sleep_for(300ms);
  bool gamma_alive = false;
  for (const auto& v : campus.rooms[0].asd->gossip()->view())
    if (v.room == "gamma") gamma_alive = v.state == services::RoomState::alive;
  EXPECT_TRUE(gamma_alive);
}

// -------------------------------------------------- notification batching

namespace {

// Counts `noted` deliveries; also exercises the notifyBatch receiver path
// (the builtin re-dispatches each event through the normal command path).
class SinkDaemon : public daemon::ServiceDaemon {
 public:
  SinkDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    using cmdlang::string_arg;
    using cmdlang::word_arg;
    register_command(
        cmdlang::CommandSpec("noted", "test notification sink")
            .arg(string_arg("source"))
            .arg(word_arg("command"))
            .arg(string_arg("detail"))
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

}  // namespace

TEST(NotifyBatchTest, BuiltinDispatchesEachEventAndReportsCounts) {
  testenv::AceTestEnv deployment(77);
  ASSERT_TRUE(deployment.start().ok());
  daemon::DaemonHost host(deployment.env, "workstation");
  daemon::DaemonConfig sc;
  sc.name = "sink";
  sc.room = "hawk";
  auto& sink = host.add_daemon<SinkDaemon>(sc);
  ASSERT_TRUE(host.start_all().ok());

  CmdLine batch("notifyBatch");
  batch.arg("source", "emitter");
  batch.arg("events",
            cmdlang::string_vector(
                {"noted source=\"emitter\" command=poke detail=\"poke;\";",
                 "noted source=\"emitter\" command=poke detail=\"poke;\";",
                 "not a parseable command ]]]"}));
  auto reply = sink.execute(batch, kCaller);
  ASSERT_TRUE(cmdlang::is_ok(reply));
  EXPECT_EQ(reply.get_integer("dispatched", -1), 2);
  EXPECT_EQ(reply.get_integer("rejected", -1), 1);
  EXPECT_EQ(sink.received(), 2);
}

TEST(NotifyBatchTest, BurstCoalescesIntoBatches) {
  testenv::AceTestEnv deployment(78);
  ASSERT_TRUE(deployment.start().ok());
  daemon::DaemonHost host(deployment.env, "workstation");

  daemon::DaemonConfig ec;
  ec.name = "emitter";
  ec.room = "hawk";
  auto& emitter = host.add_daemon<SinkDaemon>(ec);
  daemon::DaemonConfig sc;
  sc.name = "sink";
  sc.room = "hawk";
  auto& sink = host.add_daemon<SinkDaemon>(sc);
  ASSERT_TRUE(host.start_all().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"poke"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"noted"});
  ASSERT_TRUE(cmdlang::is_ok(emitter.execute(sub, kCaller)));

  auto& batches = deployment.env.metrics().counter("daemon.notify_batches");
  auto& batched_events =
      deployment.env.metrics().counter("daemon.notify_batched_events");
  constexpr int kEvents = 300;
  CmdLine poke("poke");

  // A tight burst piles events behind the notify pump's first
  // (connection-establishing) send, so coalescing must kick in.
  const auto batches_before = batches.value();
  for (int i = 0; i < kEvents; ++i) (void)emitter.execute(poke, kCaller);
  ASSERT_TRUE(eventually(5000ms, [&] { return sink.received() >= kEvents; }));
  EXPECT_EQ(sink.received(), kEvents);
  EXPECT_GT(batches.value(), batches_before);
  EXPECT_GT(batched_events.value(), 0u);
}
