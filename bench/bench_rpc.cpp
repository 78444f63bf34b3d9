// E13 — pipelined multiplexed command channel.
//
// Measures what multiplexing buys on a latency-bound link: 8 concurrent
// callers sharing one AceClient against one daemon over a 5ms-latency hop,
// with pipelining on (every caller's request in flight at once) vs an
// in-flight window of 1 (one mutex held around each call, so every call
// serializes its full round trip, as a one-call-per-channel wire would).
// Both modes run the same channel code, so the single-caller latency
// columns should agree.
//
// Both modes run from this one binary; the results land in the deployment
// metrics registry as `bench.rpc.*` gauges and are exported to
// bench_rpc.metrics.json for the perf dashboard.
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;

namespace {

constexpr int kCallers = 8;
constexpr int kCallsPerCaller = 40;
constexpr int kLatencySamples = 200;
constexpr auto kLinkLatency = 5ms;  // one-way; 10ms RTT

// Minimal target daemon: replies instantly, so the wire dominates.
class EchoDaemon : public daemon::ServiceDaemon {
 public:
  EchoDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("echo", "echo the text back")
            .arg(cmdlang::string_arg("text")),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
  }
};

struct Mode {
  const char* name;
  bool window_of_one;  // one mutex around each call: one call in flight
};

// One warmed-up client per mode so the handshake and channel cache are
// outside the timed region.
std::unique_ptr<daemon::AceClient> make_mode_client(
    testenv::AceTestEnv& deployment, const net::Address& svc,
    const Mode& mode) {
  auto client = deployment.make_client("bench", "user/bench");
  CmdLine warm("echo");
  warm.arg("text", "warmup");
  if (!client->call(svc, warm, daemon::kCallOk).ok())
    std::fprintf(stderr, "warmup call failed (%s)\n", mode.name);
  return client;
}

double concurrent_throughput(daemon::AceClient& client,
                             const net::Address& svc, bool window_of_one) {
  std::atomic<int> failures{0};
  std::mutex window;
  const auto start = bench::Clock::now();
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        CmdLine cmd("echo");
        cmd.arg("text", "caller " + std::to_string(t));
        for (int i = 0; i < kCallsPerCaller; ++i) {
          std::unique_lock lock(window, std::defer_lock);
          if (window_of_one) lock.lock();
          if (!client.call(svc, cmd, daemon::kCallOk).ok()) failures++;
        }
      });
    }
  }
  const double total_s = bench::us_since(start) / 1e6;
  if (failures.load() > 0)
    std::fprintf(stderr, "%d calls failed\n", failures.load());
  return static_cast<double>(kCallers * kCallsPerCaller) / total_s;
}

bench::Series single_caller_latency(daemon::AceClient& client,
                                    const net::Address& svc) {
  bench::Series us;
  CmdLine cmd("echo");
  cmd.arg("text", "solo");
  for (int i = 0; i < kLatencySamples; ++i) {
    const auto start = bench::Clock::now();
    if (!client.call(svc, cmd, daemon::kCallOk).ok())
      std::fprintf(stderr, "latency call failed\n");
    us.add(bench::us_since(start));
  }
  return us;
}

}  // namespace

int main() {
  testenv::AceTestEnv deployment(42);
  if (!deployment.start().ok()) {
    std::fprintf(stderr, "deployment failed to start\n");
    return 1;
  }
  daemon::DaemonHost svc_host(deployment.env, "svc");
  daemon::DaemonConfig cfg;
  cfg.name = "echo";
  cfg.room = "lab";
  cfg.service_class = "Service/Bench";
  EchoDaemon& echo = svc_host.add_daemon<EchoDaemon>(cfg);
  if (!svc_host.start_all().ok()) {
    std::fprintf(stderr, "echo daemon failed to start\n");
    return 1;
  }
  const net::Address svc = echo.address();
  deployment.env.network().set_link("bench", "svc",
                                    net::LinkPolicy{.latency = kLinkLatency});

  const Mode modes[] = {
      {"pipelined", false},
      {"serialized", true},
  };

  bench::header("E13a", "8 concurrent callers, one destination, 10ms RTT");
  std::printf("%12s %16s %18s %18s\n", "mode", "throughput_cps",
              "solo_latency_p50", "solo_latency_mean");
  double throughput[2] = {0, 0};
  double solo_p50[2] = {0, 0};
  auto& metrics = deployment.env.metrics();
  for (int m = 0; m < 2; ++m) {
    auto client = make_mode_client(deployment, svc, modes[m]);
    throughput[m] = concurrent_throughput(*client, svc, modes[m].window_of_one);
    bench::Series solo = single_caller_latency(*client, svc);
    solo_p50[m] = solo.percentile(50);
    std::printf("%12s %16.1f %18.1f %18.1f\n", modes[m].name, throughput[m],
                solo_p50[m], solo.mean());
    const std::string prefix = std::string("bench.rpc.") + modes[m].name;
    metrics.gauge(prefix + ".throughput_cps")
        .set(static_cast<std::int64_t>(throughput[m]));
    metrics.gauge(prefix + ".solo_latency_us_p50")
        .set(static_cast<std::int64_t>(solo_p50[m]));
    metrics.gauge(prefix + ".solo_latency_us_mean")
        .set(static_cast<std::int64_t>(solo.mean()));
  }

  const double speedup =
      throughput[1] > 0 ? throughput[0] / throughput[1] : 0.0;
  const double latency_delta_pct =
      solo_p50[1] > 0 ? (solo_p50[0] - solo_p50[1]) / solo_p50[1] * 100.0
                      : 0.0;
  std::printf("  pipelining speedup: %.2fx  solo latency delta: %+.2f%%\n",
              speedup, latency_delta_pct);
  metrics.gauge("bench.rpc.speedup_x100")
      .set(static_cast<std::int64_t>(speedup * 100));
  metrics.gauge("bench.rpc.solo_latency_delta_bp")
      .set(static_cast<std::int64_t>(latency_delta_pct * 100));

  bench::export_metrics_json("bench_rpc", metrics.snapshot());
  return 0;
}
