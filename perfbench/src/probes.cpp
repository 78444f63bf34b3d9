#include "probes.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "cmdlang/parser.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "io/sim_disk.hpp"
#include "keynote/checker.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Median over `batches` of the per-iteration time of `iters` calls to fn.
template <typename Fn>
double median_per_call_us(int batches, int iters, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    per_call.push_back(elapsed_us(start) / iters);
  }
  return median(per_call);
}

// Defeats dead-code elimination of probe results.
std::atomic<std::uint64_t> g_sink{0};

}  // namespace

HostTicks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  HostTicks t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t v[8] = {};
  for (auto& x : v) in >> x;
  for (auto x : v) t.total += x;
  t.idle = v[3] + v[4];
  t.steal = v[7];
  return t;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {
// One "<field>: <n> kB" line of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}
}  // namespace

double peak_rss_mb() { return status_mb("VmHWM"); }
double rss_mb() { return status_mb("VmRSS"); }

CounterReading read_counters(const ace::obs::MetricsRegistry& registry) {
  const auto snap = registry.snapshot();
  CounterReading r;
  for (const auto& c : snap.counters) r.counters[c.name] = c.value;
  for (const auto& h : snap.histograms)
    r.histograms[h.name] = {h.hist.count, h.hist.sum_us};
  r.spans = snap.spans_recorded;
  return r;
}

double chacha_mb_per_s() {
  ace::crypto::ChaChaKey key{};
  key[0] = 7;
  const auto nonce = ace::crypto::nonce_from_sequence(1, 2);
  ace::util::Bytes buf(64 * 1024, 0x5a);
  // The fastest of several short batches: the host's speed with the least
  // interference from whatever else shares its cores.
  double best = 0.0;
  for (int b = 0; b < 10; ++b) {
    const auto start = Clock::now();
    int rounds = 0;
    while (elapsed_us(start) < 10000.0) {
      ace::crypto::chacha20_xor(key, nonce, 1, buf);
      ++rounds;
    }
    best = std::max(best, rounds * static_cast<double>(buf.size()) /
                              elapsed_us(start));  // bytes/µs == MB/s
  }
  g_sink += buf[0];
  return best;
}

double crypto_record_us(std::size_t bytes) {
  ace::crypto::ChaChaKey key{};
  key[1] = 3;
  const auto nonce = ace::crypto::nonce_from_sequence(9, 4);
  const ace::util::Bytes mac_key(32, 0x11);
  ace::util::Bytes frame(std::max<std::size_t>(bytes, 1), 0x42);
  return median_per_call_us(9, 400, [&](int i) {
    ace::crypto::chacha20_xor(key, nonce, static_cast<std::uint32_t>(i),
                              frame);
    g_sink += ace::crypto::hmac_sha256(mac_key, frame.data(), frame.size())[0];
  });
}

double parse_us(const std::vector<SampleCommand>& commands) {
  if (commands.empty()) return 0.0;
  std::vector<std::string> texts;
  for (const auto& c : commands) texts.push_back(c.cmd.to_string());
  const int n = static_cast<int>(texts.size());
  return median_per_call_us(9, 40 * n, [&](int i) {
    auto r = ace::cmdlang::Parser::parse(texts[static_cast<std::size_t>(i % n)]);
    g_sink += r.ok() ? 1 : 0;
  });
}

double validate_us(const std::vector<SampleCommand>& commands) {
  if (commands.empty()) return 0.0;
  const int n = static_cast<int>(commands.size());
  return median_per_call_us(9, 40 * n, [&](int i) {
    const auto& c = commands[static_cast<std::size_t>(i % n)];
    g_sink += c.daemon->semantics().validate(c.cmd).ok() ? 1 : 0;
  });
}

double keynote_check_us(ace::daemon::Environment& env,
                        const SampleCommand& command) {
  // The same credential start() stored in the AuthDB.
  ace::keynote::Assertion credential;
  credential.authorizer = "admin-key";
  credential.licensees = ace::keynote::licensee_key(kUserPrincipal);
  credential.conditions = "app_domain == \"ace\"";
  if (!env.keys().sign(credential).ok()) return 0.0;
  // The action attributes ServiceDaemon::authorize builds.
  const auto& config = command.daemon->config();
  ace::keynote::ComplianceQuery query;
  query.requester = kUserPrincipal;
  query.action = {{"app_domain", "ace"},
                  {"service", config.name},
                  {"service_class", config.service_class},
                  {"room", config.room},
                  {"command", command.cmd.name()},
                  {"principal", kUserPrincipal}};
  query.policies = env.policies();
  query.credentials = {credential};
  return median_per_call_us(9, 200, [&](int) {
    auto r = ace::keynote::ComplianceChecker::check(query, &env.keys());
    g_sink += r.ok() && r->authorized ? 1 : 0;
  });
}

double span_ns(ace::obs::MetricsRegistry& registry, int threads) {
  constexpr int kIters = 20000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::future<double>> results;
  for (int t = 0; t < threads; ++t) {
    results.push_back(std::async(std::launch::async, [&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const auto start = Clock::now();
      for (int i = 0; i < kIters; ++i) {
        ace::obs::Span span(registry, "perfbench", "probe");
      }
      return elapsed_us(start) * 1000.0 / kIters;
    }));
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true);
  std::vector<double> per_thread;
  for (auto& r : results) per_thread.push_back(r.get());
  return mean(per_thread);
}

double fsync_us(int records, std::size_t record_bytes) {
  ace::io::SimDisk disk(5);
  const ace::util::Bytes record(record_bytes, 0x33);
  std::vector<double> us;
  for (int i = 0; i < 400; ++i) {
    // A fresh file per flush keeps the probe's own footprint flat.
    const std::string name = numbered("wal-", i % 4);
    (void)disk.remove(name);
    for (int r = 0; r < records; ++r) (void)disk.append(name, record);
    const auto start = Clock::now();
    (void)disk.fsync(name);
    us.push_back(elapsed_us(start));
  }
  return median(us);
}

double reactor_post_wait_us(ace::net::Reactor& reactor) {
  auto done = std::make_shared<std::promise<double>>();
  auto result = done->get_future();
  const auto posted = Clock::now();
  reactor.post([done, posted] { done->set_value(elapsed_us(posted)); });
  if (result.wait_for(std::chrono::seconds(1)) != std::future_status::ready)
    return -1.0;
  return result.get();
}

}  // namespace perfbench
