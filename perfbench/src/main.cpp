// ace_perfbench — closed-loop end-to-end benchmark of an in-process ACE
// deployment. See README.md for the workloads, the metrics and why the
// benchmark is shaped the way it is.
//
//   ace_perfbench --workload <room_control|checkpoint_store|campus_directory>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics of one measured window.
// --trace 1 splits the window in two halves — untraced (counter ratios)
// then traced (a span around every client call, in-process replays and
// reactor probes) — and prints the per-layer metrics. The last stdout line
// is always {"correct", "attempted", "failed", "metrics"}; the line before
// it is the run context.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Main-thread cadence during a window: sample reactor.threads, open one
// fresh client (untraced windows) or run one probe/replay round (traced).
constexpr auto kTick = std::chrono::milliseconds(20);
// The window is judged in slices: each end-to-end figure is a quantile of
// its per-slice values, so a co-tenant burst that spoils a few slices does
// not move it (README.md, "Steadiness").
constexpr auto kSlice = std::chrono::milliseconds(500);
// Slices shorter than this share of kSlice (the tail) are not judged.
constexpr double kMinSliceShare = 0.5;
// Quantile of per-slice values reported for times and costs (the quiet
// quartile); rates report the mirror quantile 1 - kQuietQuantile.
constexpr double kQuietQuantile = 0.25;
// Sample buffer sizing: far above any rate this deployment reaches (about
// 20k ops/s per load thread on room_control).
constexpr double kMaxOpsPerThreadPerS = 50000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val.c_str());
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--trace-out") a.trace_out = val;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

// One completed op; also the span the traced window records around each
// client call. Times in ms since the window opened.
struct Sample {
  float start_ms = 0;
  float end_ms = 0;
  float lat_us = 0;
  OpKind kind = OpKind::read;
  std::uint8_t thread = 0;
  bool ok = true;
};

// Per-thread sample storage, allocated and touched once before the first
// set-up, so recording never allocates and its resident size is a known
// constant that peak_rss_mb leaves out.
class SampleBuffers {
 public:
  explicit SampleBuffers(std::size_t per_thread) {
    for (auto& b : bufs_) b.assign(per_thread, Sample{});
  }
  // The next free slot of thread t, or nullptr when its buffer is full.
  Sample* next(int t) {
    auto& b = bufs_[static_cast<std::size_t>(t)];
    std::size_t& used = used_[static_cast<std::size_t>(t)];
    return used < b.size() ? &b[used++] : nullptr;
  }
  std::size_t used(int t) const { return used_[static_cast<std::size_t>(t)]; }
  const Sample* data(int t) const {
    return bufs_[static_cast<std::size_t>(t)].data();
  }
  double resident_mb() const {
    return static_cast<double>(bufs_.size() * bufs_[0].size() *
                               sizeof(Sample)) /
           (1024.0 * 1024.0);
  }

 private:
  std::array<std::vector<Sample>, kLoadThreads> bufs_;
  std::array<std::size_t, kLoadThreads> used_{};
};

struct Window {
  std::vector<std::span<const Sample>> ops;  // one range per load thread
  std::uint64_t completed = 0;  // ops, including any past a full buffer
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t user_bytes = 0;     // bytes the workload's writes carried
  std::uint64_t disk_appended = 0;  // bytes the replicas' disks took
  double wall_s = 0;
  CounterReading delta;
  HostTicks ticks;
  int threads_peak = 0;
  // Slice edges: time since open (ms) and process CPU seconds there.
  std::vector<double> edge_ms, edge_cpu;
  // Fresh-client first calls (untraced windows).
  std::vector<double> connect_us, connect_end_ms;
  std::uint64_t connect_failed = 0;
  // Traced windows only.
  std::vector<double> post_wait_us;
  Series series;

  // One field of every recorded op, optionally of one kind only.
  std::vector<double> samples(float Sample::*field,
                              std::optional<OpKind> kind = {}) const {
    std::vector<double> out;
    for (const auto& range : ops)
      for (const auto& s : range)
        if (!kind || s.kind == *kind) out.push_back(s.*field);
    return out;
  }
};

// Fixed-count warm-up from kLoadThreads threads; false on any bad reply.
bool warm_up(Workload& w) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < w.warmup_ops(); ++i) {
        const OpResult r = w.run_op(t);
        if (r.failed || r.wrong) ok.store(false);
      }
    });
  for (auto& th : threads) th.join();
  return ok.load();
}

// Runs closed-loop load for `seconds` and reads every counter at the
// window's edges. Meanwhile the main thread samples reactor.threads and,
// untraced, opens one fresh client per tick (connect_p50_us: connects are
// spread over the window like every other sample, one at a time); traced,
// it probes the reactor and replays one round of ops in process per tick.
Window run_window(Workload& w, SampleBuffers& buffers, double seconds,
                  bool traced) {
  auto& d = w.deployment();
  auto& threads_gauge = d.env.metrics().gauge("reactor.threads");
  struct PerThread {
    std::uint64_t completed = 0, failed = 0, wrong = 0, bytes = 0;
  };
  std::vector<PerThread> per(kLoadThreads);
  std::vector<std::size_t> first(kLoadThreads);
  for (int t = 0; t < kLoadThreads; ++t)
    first[static_cast<std::size_t>(t)] = buffers.used(t);
  std::atomic<bool> go{false}, stop{false};
  Clock::time_point opened;

  std::vector<std::thread> load;
  for (int t = 0; t < kLoadThreads; ++t)
    load.emplace_back([&, t] {
      PerThread& mine = per[static_cast<std::size_t>(t)];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto start = Clock::now();
        const OpResult r = w.run_op(t);
        const auto end = Clock::now();
        const bool ok = !(r.failed || r.wrong);
        if (Sample* s = buffers.next(t))
          *s = {static_cast<float>(us_between(opened, start) / 1000.0),
                static_cast<float>(us_between(opened, end) / 1000.0),
                static_cast<float>(us_between(start, end)), r.kind,
                static_cast<std::uint8_t>(t), ok};
        ++mine.completed;
        mine.failed += !ok;
        mine.wrong += r.wrong;
        mine.bytes += r.bytes_written;
      }
    });

  auto disk_appended = [&] {
    std::uint64_t bytes = 0;
    for (const auto& disk : d.disks) bytes += disk->stats().append_bytes;
    return bytes;
  };
  Window win;
  const std::uint64_t disk0 = disk_appended();
  const CounterReading c0 = read_counters(d.env.metrics());
  const HostTicks h0 = read_host_ticks();
  opened = Clock::now();
  win.edge_ms.push_back(0.0);
  win.edge_cpu.push_back(process_cpu_seconds());
  go.store(true, std::memory_order_release);
  const auto deadline =
      opened + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  auto next_edge = opened + kSlice;
  while (Clock::now() < deadline) {
    const auto tick = Clock::now();
    if (tick >= next_edge) {
      win.edge_ms.push_back(us_between(opened, tick) / 1000.0);
      win.edge_cpu.push_back(process_cpu_seconds());
      next_edge += kSlice;
    }
    win.threads_peak = std::max<int>(
        win.threads_peak, static_cast<int>(threads_gauge.value()));
    if (traced) {
      const double wait = reactor_post_wait_us(d.env.reactor());
      if (wait >= 0) win.post_wait_us.push_back(wait);
      w.replay(win.series);
    } else {
      auto client = d.make_client("probe-ap");
      const auto start = Clock::now();
      const auto s = w.first_call(*client);
      const auto end = Clock::now();
      if (s.ok()) {
        win.connect_us.push_back(us_between(start, end));
        win.connect_end_ms.push_back(us_between(opened, end) / 1000.0);
      } else {
        ++win.connect_failed;
      }
    }
    std::this_thread::sleep_until(std::min(deadline, tick + kTick));
  }
  stop.store(true);
  for (auto& th : load) th.join();
  const auto closed = Clock::now();
  win.edge_ms.push_back(us_between(opened, closed) / 1000.0);
  win.edge_cpu.push_back(process_cpu_seconds());
  const HostTicks h1 = read_host_ticks();
  win.delta = window_delta(c0, read_counters(d.env.metrics()));
  win.disk_appended = disk_appended() - disk0;
  win.wall_s = us_between(opened, closed) / 1e6;
  win.ticks = {h1.total - h0.total, h1.idle - h0.idle, h1.steal - h0.steal};
  for (int t = 0; t < kLoadThreads; ++t) {
    const std::size_t from = first[static_cast<std::size_t>(t)];
    win.ops.emplace_back(buffers.data(t) + from, buffers.used(t) - from);
    const PerThread& p = per[static_cast<std::size_t>(t)];
    win.completed += p.completed;
    win.failed += p.failed;
    win.wrong += p.wrong;
    win.user_bytes += p.bytes;
  }
  return win;
}

// Per-slice figures of an untraced window; every vector has one entry per
// judged slice.
struct Slices {
  std::vector<double> rate, p50, p99, read_p50, write_p50, cpu_per_op,
      connect_p50;
  std::size_t min_samples = 0;  // fewest ops in a judged slice
  std::size_t min_beyond_p99 = 0;
};

Slices slice_window(const Window& win) {
  const auto ends = win.samples(&Sample::end_ms);
  const auto all = slice_by_time(win.samples(&Sample::lat_us), ends, win.edge_ms);
  const auto reads = slice_by_time(win.samples(&Sample::lat_us, OpKind::read),
                                   win.samples(&Sample::end_ms, OpKind::read),
                                   win.edge_ms);
  const auto writes = slice_by_time(
      win.samples(&Sample::lat_us, OpKind::write),
      win.samples(&Sample::end_ms, OpKind::write), win.edge_ms);
  const auto connects =
      slice_by_time(win.connect_us, win.connect_end_ms, win.edge_ms);
  const double slice_ms =
      std::chrono::duration<double, std::milli>(kSlice).count();
  Slices s;
  bool first = true;
  for (std::size_t k = 0; k < all.size(); ++k) {
    const double ms = win.edge_ms[k + 1] - win.edge_ms[k];
    if (ms < kMinSliceShare * slice_ms || all[k].empty()) continue;
    const Percentile p99 = percentile(all[k], 99);
    s.rate.push_back(static_cast<double>(all[k].size()) * 1000.0 / ms);
    s.p50.push_back(percentile(all[k], 50).value);
    s.p99.push_back(p99.value);
    if (!reads[k].empty()) s.read_p50.push_back(percentile(reads[k], 50).value);
    if (!writes[k].empty())
      s.write_p50.push_back(percentile(writes[k], 50).value);
    if (!connects[k].empty())
      s.connect_p50.push_back(percentile(connects[k], 50).value);
    s.cpu_per_op.push_back((win.edge_cpu[k + 1] - win.edge_cpu[k]) * 1e6 /
                           static_cast<double>(all[k].size()));
    s.min_samples = first ? all[k].size() : std::min(s.min_samples, all[k].size());
    s.min_beyond_p99 = first ? p99.beyond : std::min(s.min_beyond_p99, p99.beyond);
    first = false;
  }
  return s;
}

// JSON output -------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string ratios_json(const std::map<std::string, Ratio>& ratios) {
  std::string out = "{";
  for (const auto& [name, r] : ratios) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(r.value()) +
           ", \"numerator\": " + num(r.numerator) + ", \"base\": " +
           num(r.base) + ", \"base_name\": \"" + r.base_name + "\"}";
  }
  return out + "}";
}

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) out += (out.size() > 1 ? ", " : "") + num(x);
  return out + "]";
}

// Spans of the traced window: one per client call, plus the replay
// timings by entry point.
void write_trace(const std::string& path, const Window& win) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"call_spans\": [";
  std::size_t id = 0;
  for (const auto& range : win.ops)
    for (const auto& s : range) {
      out << (id ? ",\n" : "\n") << "{\"id\": " << id
          << ", \"name\": \"client.call\", \"parent\": null, \"thread\": "
          << int{s.thread} << ", \"kind\": \""
          << (s.kind == OpKind::read ? "read" : "write")
          << "\", \"start_ms\": " << num(s.start_ms)
          << ", \"dur_us\": " << num(s.lat_us)
          << ", \"ok\": " << (s.ok ? "true" : "false") << "}";
      ++id;
    }
  out << "],\n\"replays\": {";
  bool first = true;
  for (const auto& [name, samples] : win.series) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": "
        << list_json(samples);
    first = false;
  }
  out << "}}\n";
}

double series_median(const Series& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : median(it->second);
}

// Per-layer metrics of a traced run. `plain` is the untraced half (every
// counter ratio), `traced` the traced half (spans and replays).
Metrics layer_metrics(Workload& w, const Window& plain, const Window& traced,
                      std::map<std::string, Ratio>& ratios) {
  auto& d = w.deployment();
  const CounterReading& c = plain.delta;
  const double ops = static_cast<double>(plain.completed);
  Metrics m;
  auto per = [&](const std::string& metric, const std::string& counter,
                 double base, const std::string& base_name,
                 const std::string& unit, double scale = 1.0) {
    Ratio r = ratio(static_cast<double>(c.counter(counter)), base / scale,
                    base_name);
    ratios[metric] = r;
    m[metric] = {r.value(), unit};
  };
  const double puts = static_cast<double>(
      c.histogram("daemon.cmd.storePut.latency_us").count);
  const double gets = static_cast<double>(
      c.histogram("daemon.cmd.storeGet.latency_us").count);
  const double queries = static_cast<double>(c.counter("asd.queries"));

  per("net.frames_per_op", "net.frames_sent", ops, "ops", "count");
  per("net.bytes_per_op", "net.bytes_sent", ops, "ops", "bytes");
  per("net.reactor_tasks_per_op", "reactor.tasks", ops, "ops", "count");
  per("net.reactor_blocking_per_op", "reactor.blocking_tasks", ops, "ops",
      "count");
  per("daemon.rpcs_per_op", "client.calls", ops, "ops", "count");
  // asd.queries also counts the scope=local sub-queries peers execute for
  // a fan-out; the queries clients sent are the rest.
  const double client_queries = std::max(
      0.0, queries - static_cast<double>(c.counter("asd.forwarded_queries")));
  per("services.forwards_per_query", "asd.forwarded_queries", client_queries,
      "asd.queries - asd.forwarded_queries", "count");
  per("services.index_hit_ratio", "asd.query_index_hits", queries,
      "asd.queries", "ratio");
  per("store.batch_records_per_flush", "store.batch_records",
      static_cast<double>(c.counter("store.batch_flushes")),
      "store.batch_flushes", "count");
  per("store.digest_reads_per_read", "store.digest_reads", gets, "storeGet",
      "count");
  per("store.wal_fsyncs_per_write", "store.wal_fsyncs", puts, "storePut",
      "count");
  per("store.compactions_per_kwrite", "store.snapshot_compactions", puts,
      "storePut/1000", "count", 1000.0);
  {
    const double hits = static_cast<double>(c.counter("asd.forward_cache_hits"));
    const double probes =
        hits + static_cast<double>(c.counter("asd.forward_cache_misses"));
    ratios["services.forward_cache_hit_ratio"] =
        ratio(hits, probes, "forward_cache_probes");
    m["services.forward_cache_hit_ratio"] = {
        ratios["services.forward_cache_hit_ratio"].value(), "ratio"};
  }
  {
    Ratio r = ratio(static_cast<double>(c.spans), ops, "ops");
    ratios["obs.spans_per_op"] = r;
    m["obs.spans_per_op"] = {r.value(), "count"};
  }
  ratios["services.gossip_rounds_per_s"] =
      ratio(static_cast<double>(c.counter("asd.gossip_rounds")), plain.wall_s,
            "window_s");
  m["services.gossip_rounds_per_s"] = {
      ratios["services.gossip_rounds_per_s"].value(), "1/s"};

  for (const char* name : {"store.read_repairs", "store.quorum_failures",
                           "store.read_unavailable", "store.hints_recorded"})
    m[name] = {static_cast<double>(c.counter(name)), "count"};
  m["keynote.denied"] = {static_cast<double>(c.counter("daemon.auth.denied")),
                         "count"};
  m["services.gossip_sync_failures"] = {
      static_cast<double>(c.counter("asd.gossip_sync_failures")), "count"};
  m["services.gossip_converge_ms"] = {w.gossip_converge_ms(), "ms"};
  {
    // Both halves: the traced half's store replays replicate too, which
    // gives a figure on workloads whose own load never writes.
    auto h = c.histogram("store.replicate.latency_us");
    const auto t = traced.delta.histogram("store.replicate.latency_us");
    h.count += t.count;
    h.sum += t.sum;
    m["store.replicate_us"] = {hist_mean(h), "us"};
  }
  m["net.reactor_threads_peak"] = {
      static_cast<double>(std::max(plain.threads_peak, traced.threads_peak)),
      "count"};
  m["net.reactor_wait_us"] = {median(traced.post_wait_us), "us"};
  m["crypto.handshake_us"] = {
      hist_mean(c.histogram("crypto.handshake.latency_us")), "us"};

  // Disk accounting over the untraced half: bytes the replicas appended
  // per byte the workload wrote, and bytes on disk per replicated live byte.
  ratios["io.write_amp"] = ratio(static_cast<double>(plain.disk_appended),
                                 static_cast<double>(plain.user_bytes),
                                 "user_bytes_written");
  m["io.write_amp"] = {ratios["io.write_amp"].value(), "ratio"};
  std::uint64_t on_disk = 0;
  for (const auto& disk : d.disks)
    for (const auto& file : disk->list(""))
      if (auto size = disk->size(file); size.ok()) on_disk += size.value();
  ratios["io.space_amp"] =
      ratio(static_cast<double>(on_disk),
            static_cast<double>(w.live_bytes()) * kReplicas,
            "replicas*live_bytes");
  m["io.space_amp"] = {ratios["io.space_amp"].value(), "ratio"};

  // Traced half: spans around client calls and in-process replays.
  const auto call_us = traced.samples(&Sample::lat_us);
  const double call = median(call_us);
  m["window.traced_calls"] = {static_cast<double>(call_us.size()), "count"};
  const double execute = series_median(traced.series, "daemon.execute_us");
  m["daemon.call_us"] = {call, "us"};
  m["daemon.execute_us"] = {execute, "us"};
  m["daemon.wire_us"] = {call - execute, "us"};
  for (const char* name :
       {"services.asd_lookup_us", "services.asd_query_us",
        "services.asd_register_us", "store.put_us", "store.get_us"})
    m[name] = {series_median(traced.series, name), "us"};
  m["trace.overhead_us"] = {
      percentile(traced.samples(&Sample::lat_us), 50).value -
          percentile(plain.samples(&Sample::lat_us), 50).value,
      "us"};

  // Isolated micro-probes (after the load stopped).
  const double frame_bytes =
      c.counter("net.frames_sent")
          ? static_cast<double>(c.counter("net.bytes_sent")) /
                static_cast<double>(c.counter("net.frames_sent"))
          : 0.0;
  m["crypto.record_us"] = {crypto_record_us(static_cast<std::size_t>(frame_bytes)),
                           "us"};
  const auto commands = w.sample_commands();
  m["cmdlang.parse_us"] = {parse_us(commands), "us"};
  m["cmdlang.validate_us"] = {validate_us(commands), "us"};
  m["keynote.check_us"] = {
      commands.empty() ? 0.0 : keynote_check_us(d.env, commands.front()), "us"};
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  m["obs.span_ns_1t"] = {span_ns(d.env.metrics(), 1), "ns"};
  m["obs.span_ns_nt"] = {span_ns(d.env.metrics(), std::max(nproc, 1)), "ns"};
  const double batch =
      std::max(1.0, ratios["store.batch_records_per_flush"].value());
  const double record_bytes =
      puts > 0 ? static_cast<double>(plain.user_bytes) / puts : 1024.0;
  m["io.fsync_us"] = {fsync_us(static_cast<int>(batch + 0.5),
                               static_cast<std::size_t>(record_bytes)),
                      "us"};
  m["store.compact_ms"] = {compact_ms(d), "ms"};

  // Base counts every ratio above divides by.
  m["window.ops"] = {ops, "count"};
  m["window.store_puts"] = {puts, "count"};
  m["window.store_gets"] = {gets, "count"};
  m["window.asd_queries"] = {queries, "count"};
  m["window.connects"] = {static_cast<double>(plain.connect_us.size()),
                          "count"};
  m["window.handshakes"] = {
      static_cast<double>(c.histogram("crypto.handshake.latency_us").count),
      "count"};
  return m;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "room_control") w = make_room_control();
  else if (args.workload == "checkpoint_store") w = make_checkpoint_store();
  else if (args.workload == "campus_directory") w = make_campus_directory();
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Room for kMaxOpsPerThreadPerS ops per thread per second of window.
  SampleBuffers buffers(static_cast<std::size_t>(
      (args.seconds + 1) * kMaxOpsPerThreadPerS));
  const double chacha = chacha_mb_per_s();
  const HostTicks run_t0 = read_host_ticks();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i) w->teardown();
    const auto start = Clock::now();
    if (auto s = w->setup(args.seed); !s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.error().message.c_str());
      return 1;
    }
    if (!warm_up(*w)) {
      std::fprintf(stderr, "warm-up saw failed or wrong replies\n");
      return 1;
    }
    setup_s.push_back(us_between(start, Clock::now()) / 1e6);
  }

  const double rss_open_mb = rss_mb() - buffers.resident_mb();
  const Window plain = run_window(
      *w, buffers, args.trace ? args.seconds / 2 : args.seconds, false);
  // Read before any analysis allocates: the deployment's footprint, less
  // the benchmark's own pre-touched sample buffers.
  const double rss_close_mb = rss_mb() - buffers.resident_mb();
  const double peak_mb = peak_rss_mb() - buffers.resident_mb();
  const Window traced =
      args.trace ? run_window(*w, buffers, args.seconds / 2, true) : Window{};

  Metrics metrics;
  std::map<std::string, Ratio> ratios;
  const auto all = plain.samples(&Sample::lat_us);
  const Percentile p50 = percentile(all, 50);
  const Percentile p99 = percentile(all, 99);
  const Slices slices = slice_window(plain);
  const double ops = static_cast<double>(std::max<std::uint64_t>(plain.completed, 1));
  if (args.trace) {
    metrics = layer_metrics(*w, plain, traced, ratios);
    if (!args.trace_out.empty()) write_trace(args.trace_out, traced);
  } else {
    const double q = kQuietQuantile;
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["ops_per_s"] = {quantile(slices.rate, 1 - q), "1/s"};
    metrics["p50_us"] = {quantile(slices.p50, q), "us"};
    metrics["p99_us"] = {quantile(slices.p99, q), "us"};
    metrics["read_p50_us"] = {quantile(slices.read_p50, q), "us"};
    metrics["write_p50_us"] = {quantile(slices.write_p50, q), "us"};
    metrics["connect_p50_us"] = {quantile(slices.connect_p50, q), "us"};
    metrics["cpu_us_per_op"] = {quantile(slices.cpu_per_op, q), "us"};
    metrics["peak_rss_mb"] = {peak_mb, "MiB"};
  }
  const HostTicks run_t1 = read_host_ticks();
  auto share = [](std::uint64_t part, std::uint64_t total) {
    return static_cast<double>(part) /
           static_cast<double>(std::max<std::uint64_t>(total, 1));
  };

  // Run context: not gated, printed so a noisy pair of runs can be told
  // apart from a regression. Whole-window figures sit beside the sliced
  // ones the metrics report.
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"load_threads\": %d, \"window_s\": %s, \"trace\": %s, "
      "\"chacha20_mb_per_s\": %s, \"run_steal_share\": %s, "
      "\"run_idle_share\": %s, \"window_steal_share\": %s, "
      "\"window_idle_share\": %s, \"reactor_threads_peak\": %d, "
      "\"rss_window_open_mb\": %s, \"rss_window_close_mb\": %s, "
      "\"setup_runs_s\": %s, \"samples\": %zu, \"p50_index\": %zu, "
      "\"p99_index\": %zu, \"p99_samples_beyond\": %zu, "
      "\"window_ops_per_s\": %s, \"window_p50_us\": %s, "
      "\"window_p99_us\": %s, \"window_cpu_us_per_op\": %s, "
      "\"slices\": %zu, \"slice_min_samples\": %zu, "
      "\"slice_min_p99_beyond\": %zu, \"slice_ops_per_s\": %s, "
      "\"slice_p99_us\": %s, \"share_over_10x_p50\": %s, "
      "\"read_samples\": %zu, \"write_samples\": %zu, "
      "\"connect_samples\": %zu, \"samples_unrecorded\": %llu, "
      "\"wrong_replies\": %llu, \"ratios\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), kLoadThreads,
      num(plain.wall_s).c_str(), args.trace ? "true" : "false",
      num(chacha).c_str(),
      num(share(run_t1.steal - run_t0.steal, run_t1.total - run_t0.total)).c_str(),
      num(share(run_t1.idle - run_t0.idle, run_t1.total - run_t0.total)).c_str(),
      num(share(plain.ticks.steal, plain.ticks.total)).c_str(),
      num(share(plain.ticks.idle, plain.ticks.total)).c_str(),
      std::max(plain.threads_peak, traced.threads_peak),
      num(rss_open_mb).c_str(), num(rss_close_mb).c_str(),
      list_json(setup_s).c_str(), all.size(), p50.index, p99.index, p99.beyond,
      num(ops / plain.wall_s).c_str(), num(p50.value).c_str(),
      num(p99.value).c_str(),
      num((plain.edge_cpu.back() - plain.edge_cpu.front()) * 1e6 / ops).c_str(),
      slices.rate.size(), slices.min_samples, slices.min_beyond_p99,
      list_json(slices.rate).c_str(), list_json(slices.p99).c_str(),
      num(share(static_cast<std::uint64_t>(std::count_if(
                    all.begin(), all.end(),
                    [&](double us) { return us > 10 * p50.value; })),
                all.size()))
          .c_str(),
      plain.samples(&Sample::lat_us, OpKind::read).size(),
      plain.samples(&Sample::lat_us, OpKind::write).size(),
      plain.connect_us.size(),
      static_cast<unsigned long long>(plain.completed - all.size()),
      static_cast<unsigned long long>(plain.wrong + traced.wrong),
      ratios_json(ratios).c_str());

  const std::uint64_t attempted = plain.completed + traced.completed +
                                  plain.connect_us.size() +
                                  plain.connect_failed;
  const std::uint64_t failed =
      plain.failed + traced.failed + plain.connect_failed;
  const bool correct = plain.wrong + traced.wrong == 0;
  w->teardown();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
