// ace::obs — the observability substrate for an ACE deployment.
//
// The paper's only system-wide visibility mechanism is the Network Logger
// (§4.14), which records *events*. This layer answers the quantitative
// questions the logger cannot: how long do commands take, where do frames
// queue, which leases churn. It provides
//
//  * a MetricsRegistry of named counters, gauges and fixed-bucket latency
//    histograms. Cells are std::atomic and lock-free on the hot path; the
//    registry mutex is only taken when a metric is first created (call
//    sites cache the returned reference) and when snapshotting.
//  * a Span RAII tracer recording (component, name, duration, ok) into a
//    bounded ring buffer, and feeding the `<component>.<name>.latency_us`
//    histogram.
//
// Metric naming convention: `component.verb.suffix`, e.g.
// `net.frames_sent`, `asd.live_count`, `daemon.cmd.latency_us`.
//
// One registry per deployment: daemon::Environment owns one and threads it
// through the network, channels, daemons and clients, so the inherited
// `metrics;` command scrapes exactly the deployment it serves. A
// process-wide registry (MetricsRegistry::global()) exists for code with
// no deployment context (e.g. micro-benchmarks).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ace::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-set instantaneous value (may go up and down).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-bucket latency histogram in microseconds. A sample lands in the
// first bucket whose bound is >= the sample (upper-inclusive), or the
// overflow (+inf) bucket past the last bound.
class Histogram {
 public:
  static constexpr std::array<std::uint64_t, 12> kBucketBoundsUs = {
      10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000};
  static constexpr std::size_t kBucketCount = kBucketBoundsUs.size() + 1;

  void observe_us(std::uint64_t us);
  void observe(std::chrono::nanoseconds elapsed) {
    observe_us(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::array<std::uint64_t, kBucketCount> buckets{};  // last = +inf

    double mean_us() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum_us) /
                              static_cast<double>(count);
    }
  };
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

// One completed span.
struct SpanRecord {
  std::string component;
  std::string name;
  std::uint64_t duration_us = 0;
  bool ok = true;
};

// Bounded ring of recent spans. Recording overwrites the oldest entry once
// the buffer is full; total_recorded() keeps counting.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 1024);

  void record(SpanRecord record);
  // Retained spans, oldest first.
  std::vector<SpanRecord> recent() const;
  std::uint64_t total_recorded() const;
  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::uint64_t next_ = 0;  // total records ever; next_ % capacity_ = slot
};

// Point-in-time copy of every metric in a registry. Counters/gauges/
// histograms are each sorted by name.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot hist;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
  std::uint64_t spans_recorded = 0;

  // Lookup helpers (0 / nullptr when absent).
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;
  const Histogram::Snapshot* histogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t span_capacity = 1024);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the named metric. The returned reference stays valid
  // for the registry's lifetime — cache it on hot paths.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  SpanBuffer& spans() { return spans_; }
  const SpanBuffer& spans() const { return spans_; }

  MetricsSnapshot snapshot() const;

  // The process-wide registry, for code with no deployment context.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  SpanBuffer spans_;
};

// RAII tracer: times its own lifetime, then records a SpanRecord into the
// registry's span buffer and an observation into the
// `<component>.<name>.latency_us` histogram.
class Span {
 public:
  // Looks the histogram up by name (registry mutex + map lookup).
  Span(MetricsRegistry& registry, std::string component, std::string name);
  // Hot-path form: the call site resolved `latency` (the
  // `<component>.<name>.latency_us` cell) once, so constructing the span
  // builds no string and takes no registry lock.
  Span(MetricsRegistry& registry, Histogram& latency, const char* component,
       const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_ok(bool ok) { ok_ = ok; }
  void fail() { ok_ = false; }

 private:
  SpanBuffer& spans_;
  Histogram& latency_;
  std::string component_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  bool ok_ = true;
};

// Renders a snapshot as a JSON document (machine-readable perf artifact;
// see bench/bench_common.hpp for the file exporter).
std::string to_json(const MetricsSnapshot& snapshot);

}  // namespace ace::obs
