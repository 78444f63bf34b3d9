// Tests for net::Reactor — the event loop the fabric multiplexes onto —
// and for the async surfaces built on it: queue pumps (attach_queue),
// endpoint callbacks (on_frame/on_accept), the client's per-destination
// reply demux, and the idle-channel sweeper. Includes a connect/close
// churn soak meant to run under ThreadSanitizer (ci.sh tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ace_test_env.hpp"
#include "daemon/wire.hpp"
#include "net/network.hpp"
#include "net/reactor.hpp"
#include "util/queue.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;

namespace {

// Spin-waits (with sleeps) until `pred` holds or `deadline_ms` elapses.
template <typename Pred>
bool eventually(Pred&& pred, int deadline_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

std::uint64_t counter_value(const obs::MetricsRegistry& metrics,
                            const std::string& name) {
  for (const auto& c : metrics.snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

std::int64_t gauge_value(const obs::MetricsRegistry& metrics,
                         const std::string& name) {
  for (const auto& g : metrics.snapshot().gauges)
    if (g.name == name) return g.value;
  return 0;
}

// ---------------------------------------------------------------- Reactor

TEST(Reactor, PostRunsTasks) {
  net::Reactor reactor;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) reactor.post([&] { ran++; });
  EXPECT_TRUE(eventually([&] { return ran.load() == 100; }));
  EXPECT_GE(reactor.stats().tasks_run, 100u);
}

TEST(Reactor, BlockingTasksRunOnElasticPoolWithoutStarvingCore) {
  net::Reactor reactor;
  // More simultaneous sleepers than ops_min: the pool must grow (or churn
  // through them) while core tasks keep flowing.
  constexpr int kSleepers = 8;
  std::atomic<int> blocked_done{0}, core_done{0};
  for (int i = 0; i < kSleepers; ++i)
    reactor.post_blocking([&] {
      std::this_thread::sleep_for(50ms);
      blocked_done++;
    });
  for (int i = 0; i < 20; ++i) reactor.post([&] { core_done++; });
  EXPECT_TRUE(eventually([&] { return core_done.load() == 20; }, 1000));
  EXPECT_TRUE(eventually([&] { return blocked_done.load() == kSleepers; }));
  EXPECT_GE(reactor.stats().blocking_tasks_run, kSleepers);
}

TEST(Reactor, TimerFiresOnceAndCancelUnarms) {
  net::Reactor reactor;
  std::atomic<int> fired{0}, cancelled_fired{0};
  reactor.post_after(20ms, [&] { fired++; });
  auto id = reactor.post_after(20ms, [&] { cancelled_fired++; });
  EXPECT_TRUE(reactor.cancel(id));
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(cancelled_fired.load(), 0);
  // Cancelling an already-fired (or bogus) id reports false.
  EXPECT_FALSE(reactor.cancel(id));
  EXPECT_FALSE(reactor.cancel(0));
}

TEST(Reactor, StoppedReactorDropsWork) {
  net::Reactor reactor;
  reactor.stop();
  std::atomic<int> ran{0};
  reactor.post([&] { ran++; });
  EXPECT_EQ(reactor.post_after(1ms, [&] { ran++; }), 0u);
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(ran.load(), 0);
}

// ------------------------------------------------------------ attach_queue

TEST(Reactor, PumpDeliversInOrderWithFinalExactlyOnce) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  std::mutex mu;
  std::vector<int> seen;
  std::atomic<int> finals{0};
  auto sub = net::attach_queue<int>(
      reactor, queue, [&](std::optional<int> item) {
        if (!item) {
          finals++;
          return;
        }
        std::scoped_lock lock(mu);
        seen.push_back(*item);
      });
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  EXPECT_TRUE(eventually([&] { return finals.load() == 1; }));
  EXPECT_FALSE(sub.active());
  std::scoped_lock lock(mu);
  ASSERT_EQ(seen.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(seen[i], i);
}

TEST(Reactor, PumpDrainsItemsQueuedBeforeAttach) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  for (int i = 0; i < 3; ++i) queue.push(i);
  std::atomic<int> got{0};
  auto sub = net::attach_queue<int>(reactor, queue,
                                    [&](std::optional<int> item) {
                                      if (item) got++;
                                    });
  EXPECT_TRUE(eventually([&] { return got.load() == 3; }));
  sub.stop();
}

TEST(Reactor, PumpHonoursDueTimeGating) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  const auto armed = net::Reactor::Clock::now();
  const auto due_at = armed + 120ms;
  std::atomic<bool> delivered{false};
  std::atomic<bool> early{false};
  auto sub = net::attach_queue<int>(
      reactor, queue,
      [&](std::optional<int> item) {
        if (!item) return;
        if (net::Reactor::Clock::now() < due_at) early = true;
        delivered = true;
      },
      {}, [&](const int&) { return due_at; });
  queue.push(1);
  std::this_thread::sleep_for(40ms);
  EXPECT_FALSE(delivered.load());  // not readable before its deliver-at
  EXPECT_TRUE(eventually([&] { return delivered.load(); }));
  EXPECT_FALSE(early.load());
  sub.stop();
}

TEST(Reactor, SubscriptionStopFromInsideHandlerIsAllowed) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  std::atomic<int> handled{0};
  net::Subscription sub;
  std::mutex sub_mu;  // handler races attach's return value otherwise
  {
    std::scoped_lock lock(sub_mu);
    sub = net::attach_queue<int>(reactor, queue,
                                 [&](std::optional<int> item) {
                                   if (!item) return;
                                   handled++;
                                   std::scoped_lock inner(sub_mu);
                                   sub.stop();  // self-stop: must not hang
                                 });
  }
  queue.push(1);
  queue.push(2);
  EXPECT_TRUE(eventually([&] { return handled.load() >= 1; }));
  sub.stop();  // idempotent from outside too
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(handled.load(), 1);  // the self-stop halted delivery
}

TEST(Reactor, TaskGuardRevokeMakesPendingTasksNoOps) {
  net::Reactor reactor;
  net::TaskGuard guard;
  std::atomic<int> ran{0};
  reactor.post_after(30ms, guard.wrap([&] { ran++; }));
  guard.revoke();
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(ran.load(), 0);
}

TEST(Reactor, TaskGuardRevokeWaitsForEveryOverlappingTask) {
  // Two wrapped tasks overlap; the later one finishes first, and revoke()
  // is then called from its thread. It must still wait for the first.
  net::TaskGuard guard;
  std::atomic<bool> first_started{false};
  std::atomic<bool> release_first{false};
  std::atomic<bool> first_done{false};
  std::atomic<bool> revoked{false};
  auto first = guard.wrap([&] {
    first_started = true;
    while (!release_first) std::this_thread::sleep_for(1ms);
    first_done = true;
  });
  auto second = guard.wrap([] {});
  std::thread t1(first);
  std::thread t2([&] {
    while (!first_started) std::this_thread::sleep_for(1ms);
    second();
    guard.revoke();
    EXPECT_TRUE(first_done.load()) << "revoke() returned mid-task";
    revoked = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(revoked.load());
  release_first = true;
  t1.join();
  t2.join();
  EXPECT_TRUE(revoked.load());
}

// ---------------------------------------------------------------- TimerLoop

TEST(TimerLoop, NoTickRunsAfterStopReturns) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  net::TimerLoop loop(reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
    ticks++;
    return 1ms;
  });
  loop.start();
  ASSERT_TRUE(eventually([&] { return ticks.load() >= 5; }));
  loop.stop();
  EXPECT_FALSE(loop.active());
  const int at_stop = ticks.load();
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(ticks.load(), at_stop);
}

TEST(TimerLoop, StopWaitsOutARunningTick) {
  net::Reactor reactor;
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  net::TimerLoop loop(reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
    entered = true;
    std::this_thread::sleep_for(50ms);
    finished = true;
    return 1h;
  });
  loop.start();
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  loop.stop();
  EXPECT_TRUE(finished.load());  // stop() returned only after the tick did
}

TEST(TimerLoop, StopFromInsideTheTickEndsTheLoop) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  std::atomic<bool> stop_returned{false};
  std::unique_ptr<net::TimerLoop> loop;
  loop = std::make_unique<net::TimerLoop>(
      reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
        if (++ticks == 2) {
          loop->stop();  // must not wait for itself
          stop_returned = true;
        }
        return 1ms;  // ignored: the loop was stopped
      });
  loop->start();
  ASSERT_TRUE(eventually([&] { return stop_returned.load(); }));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(ticks.load(), 2);
  EXPECT_FALSE(loop->active());
}

TEST(TimerLoop, NulloptEndsTheLoop) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  net::TimerLoop loop(reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
    if (++ticks == 3) return std::nullopt;
    return 1ms;
  });
  loop.start();
  ASSERT_TRUE(eventually([&] { return !loop.active(); }));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(ticks.load(), 3);
}

TEST(TimerLoop, StartAfterStopTicksAgain) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  net::TimerLoop loop(reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
    ticks++;
    return 1ms;
  });
  loop.start(1h);  // armed far out, then stopped before it fires
  loop.stop();
  loop.start();
  ASSERT_TRUE(eventually([&] { return ticks.load() >= 3; }));
  loop.stop();
  const int first_life = ticks.load();
  loop.start();
  ASSERT_TRUE(eventually([&] { return ticks.load() >= first_life + 3; }));
  loop.stop();
}

TEST(TimerLoop, StartOnAnArmedLoopReArmsIt) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  net::TimerLoop loop(reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
    ticks++;
    return 1h;
  });
  loop.start(1h);
  loop.start(1ms);  // the tighter first delay replaces the pending one
  ASSERT_TRUE(eventually([&] { return ticks.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(ticks.load(), 1);  // one tick, not one per start()
  EXPECT_TRUE(loop.active());
}

TEST(TimerLoop, StartDuringATickOutlivesItsNullopt) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  std::atomic<bool> in_first{false};
  std::atomic<bool> release{false};
  net::TimerLoop loop(reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
    if (++ticks == 1) {
      in_first = true;
      while (!release) std::this_thread::sleep_for(1ms);
    }
    return std::nullopt;  // every tick would end the loop on its own
  });
  loop.start();
  ASSERT_TRUE(eventually([&] { return in_first.load(); }));
  loop.start(1ms);  // lands mid-tick: the loop must go on after it
  release = true;
  ASSERT_TRUE(eventually([&] { return ticks.load() == 2; }));
  ASSERT_TRUE(eventually([&] { return !loop.active(); }));
  EXPECT_EQ(ticks.load(), 2);
}

TEST(TimerLoop, AbsoluteOffsetScheduleFiresInOrder) {
  // The chaos injector's shape: events at absolute offsets from a start
  // instant; each tick applies what is due and sleeps until the next one.
  net::Reactor reactor;
  const std::vector<std::chrono::milliseconds> offsets = {5ms, 5ms, 20ms,
                                                          35ms, 60ms};
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t next = 0;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::chrono::steady_clock::duration>>
      fired;
  net::TimerLoop loop(
      reactor, [&]() -> std::optional<net::Reactor::Clock::duration> {
        const auto now = std::chrono::steady_clock::now();
        while (next < offsets.size() && t0 + offsets[next] <= now) {
          std::scoped_lock lock(mu);
          fired.emplace_back(next, now - t0);
          ++next;
        }
        if (next == offsets.size()) return std::nullopt;
        return t0 + offsets[next] - std::chrono::steady_clock::now();
      });
  loop.start(offsets.front());
  ASSERT_TRUE(eventually([&] { return !loop.active(); }));
  std::scoped_lock lock(mu);
  ASSERT_EQ(fired.size(), offsets.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first, i);
    EXPECT_GE(fired[i].second, offsets[i]) << "event " << i << " fired early";
  }
}

// ------------------------------------------------- async endpoint surfaces

TEST(Reactor, OnAcceptAndOnFrameDriveAConnection) {
  net::Network network;
  net::Reactor reactor;
  net::Host& a = network.add_host("a");
  net::Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());

  std::mutex mu;
  std::vector<std::string> got;
  std::atomic<bool> conn_final{false};
  net::Subscription frame_sub;
  auto accept_sub = (*listener)->on_accept(
      reactor, [&](std::optional<net::Connection> conn) {
        if (!conn) return;
        auto shared = std::make_shared<net::Connection>(std::move(*conn));
        std::scoped_lock lock(mu);
        frame_sub = shared->on_frame(
            reactor, [&, shared](std::optional<net::Frame> frame) {
              if (!frame) {
                conn_final = true;
                return;
              }
              std::scoped_lock inner(mu);
              got.push_back(util::to_string(*frame));
            });
      });

  auto client = a.connect({"b", 100}, 1s);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->send(util::to_bytes("one")).ok());
  ASSERT_TRUE(client->send(util::to_bytes("two")).ok());
  EXPECT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return got.size() == 2;
  }));
  {
    std::scoped_lock lock(mu);
    EXPECT_EQ(got[0], "one");
    EXPECT_EQ(got[1], "two");
  }
  client->close();
  EXPECT_TRUE(eventually([&] { return conn_final.load(); }));
  accept_sub.stop();
}

// -------------------------------------------------------------- soak tests

// Echo daemon for the churn soak.
class SoakDaemon : public daemon::ServiceDaemon {
 public:
  SoakDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("echo", "echo the text back")
            .arg(cmdlang::string_arg("text"))
            .concurrent_ok(),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
  }
};

struct SoakFixture {
  SoakFixture() : env(91) {
    EXPECT_TRUE(env.start().ok());
    svc_host = std::make_unique<daemon::DaemonHost>(env.env, "svc");
    daemon::DaemonConfig cfg;
    cfg.name = "soak";
    cfg.room = "lab";
    cfg.service_class = "Service/Test";
    svc = &svc_host->add_daemon<SoakDaemon>(cfg);
    EXPECT_TRUE(svc_host->start_all().ok());
  }

  testenv::AceTestEnv env;
  std::unique_ptr<daemon::DaemonHost> svc_host;
  SoakDaemon* svc = nullptr;
};

// Connect/close churn under call load: callers hammer one destination
// through a shared client while a churner keeps killing the cached channel
// and raw connections handshake and die mid-stream. Run under TSan (ci.sh
// tsan) this exercises pump teardown, demux replacement, the async
// handshake registry and actor reaping for races; the assertions
// themselves check no call is lost or misrouted.
TEST(ReactorSoak, ConnectCloseChurnUnderLoad) {
  SoakFixture f;
  const net::Address addr = f.svc->address();
  auto client = f.env.make_client("ap", "user/soak");
  client->set_policy({.breaker = {.failure_threshold = 0}});  // retry, don't fast-fail

  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 400;
  std::atomic<int> successes{0}, mismatches{0};
  std::atomic<bool> done{false};

  // Churner 1: rips the cached channel out from under the callers. Calls
  // in flight fail and retry; each replacement channel re-registers a
  // fresh demux pump.
  std::jthread channel_churn([&] {
    while (!done.load()) {
      client->drop_connection(addr);
      std::this_thread::sleep_for(1ms);
    }
  });

  // Churner 2: raw connections that handshake and immediately die, so the
  // daemon's async-handshake registry and actor teardown stay busy while
  // real traffic flows.
  std::jthread conn_churn([&] {
    auto& host = f.env.env.network().add_host("churn");
    auto identity = f.env.env.issue_identity("user/churn");
    int i = 0;
    while (!done.load()) {
      auto conn = host.connect(addr, 200ms);
      if (conn.ok()) {
        if (i++ % 2 == 0) {
          conn->close();  // die before the handshake completes
        } else {
          auto ch = crypto::SecureChannel::connect(
              std::move(*conn), identity, f.env.env.ca_key(), 500ms,
              f.env.env.channel_options());
          if (ch.ok()) ch->close();
        }
      }
      std::this_thread::sleep_for(1ms);
    }
  });

  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int i = 0; i < kCallsPerCaller; ++i) {
          const std::string text =
              "t" + std::to_string(t) + "-i" + std::to_string(i);
          CmdLine cmd("echo");
          cmd.arg("text", text);
          daemon::CallOptions opts;
          opts.retries = 8;  // churn makes individual attempts fail often
          opts.require_ok = true;
          opts.backoff = 1ms;
          auto reply = client->call(addr, cmd, opts);
          if (!reply.ok())
            continue;  // churn can exhaust retries; counted via successes
          successes++;
          if (reply->get_text("text") != text) mismatches++;
        }
      });
    }
  }
  done = true;
  channel_churn.join();
  conn_churn.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Availability under this churn depends on machine speed (sanitizers
  // slow attempts ~15x, so more calls run out of retries); correctness
  // does not. Require enough successes to prove the path was exercised,
  // and that every success carried the right payload with nothing leaked.
  EXPECT_GE(successes.load(), kCallers * kCallsPerCaller / 20);
  EXPECT_EQ(gauge_value(f.env.env.metrics(), "client.inflight"), 0);
}

// Regression: an idle destination's demux state is torn down by the
// sweeper and transparently re-created by the next call.
TEST(ReactorSoak, IdleDemuxTearDownAndRecreate) {
  SoakFixture f;
  const net::Address addr = f.svc->address();
  auto client = f.env.make_client("ap", "user/idle");
  auto& metrics = f.env.env.metrics();

  daemon::ClientPolicy policy;
  policy.idle_channel_ttl = 40ms;
  client->set_policy(policy);

  CmdLine cmd("echo");
  cmd.arg("text", "hi");
  auto reply = client->call(addr, cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  const auto connects_before = counter_value(metrics, "net.connects");

  // The sweeper closes the channel once it has sat idle past the TTL.
  EXPECT_TRUE(eventually(
      [&] { return counter_value(metrics, "client.idle_closed") >= 1; }));

  // The next call must re-create the whole per-destination state — a new
  // connection, handshake and demux pump — and still route its reply.
  reply = client->call(addr, cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply->get_text("text"), "hi");
  EXPECT_GT(counter_value(metrics, "net.connects"), connects_before);
  EXPECT_EQ(gauge_value(metrics, "client.inflight"), 0);

  // Disarming the sweeper stops further teardown: the fresh channel stays.
  client->set_policy(daemon::ClientPolicy{});
  const auto closed_now = counter_value(metrics, "client.idle_closed");
  std::this_thread::sleep_for(120ms);
  EXPECT_EQ(counter_value(metrics, "client.idle_closed"), closed_now);
  reply = client->call(addr, cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
}

// Thread count is a function of the reactor pools, not of how many
// endpoints are registered: parking hundreds of pumps on one reactor adds
// zero threads.
TEST(ReactorSoak, ThreadCountIndependentOfEndpointCount) {
  net::Network network;
  net::Reactor reactor;
  net::Host& server = network.add_host("server");
  auto listener = server.listen(100);
  ASSERT_TRUE(listener.ok());

  const int threads_before = reactor.stats().core_threads;

  std::mutex mu;
  std::vector<std::shared_ptr<net::Connection>> server_side;
  std::vector<net::Subscription> pumps;
  std::atomic<int> delivered{0};
  auto accept_sub = (*listener)->on_accept(
      reactor, [&](std::optional<net::Connection> conn) {
        if (!conn) return;
        auto shared = std::make_shared<net::Connection>(std::move(*conn));
        auto pump = shared->on_frame(
            reactor, [&](std::optional<net::Frame> frame) {
              if (frame) delivered++;
            });
        std::scoped_lock lock(mu);
        server_side.push_back(std::move(shared));
        pumps.push_back(std::move(pump));
      });

  constexpr int kConns = 400;
  std::vector<net::Connection> clients;
  net::Host& origin = network.add_host("origin");
  for (int i = 0; i < kConns; ++i) {
    auto conn = origin.connect({"server", 100}, 1s);
    ASSERT_TRUE(conn.ok());
    clients.push_back(std::move(*conn));
  }
  EXPECT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return server_side.size() == kConns;
  }));

  for (auto& c : clients) ASSERT_TRUE(c.send(util::to_bytes("ping")).ok());
  EXPECT_TRUE(eventually([&] { return delivered.load() == kConns; }));

  auto stats = reactor.stats();
  EXPECT_EQ(stats.core_threads, threads_before);  // no per-endpoint threads
  for (auto& c : clients) c.close();
  accept_sub.stop();
  for (auto& p : pumps) p.stop();
}

}  // namespace
