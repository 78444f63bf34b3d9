#include "obs/metrics.hpp"

#include <algorithm>

namespace ace::obs {

// ----------------------------------------------------------------- Histogram

void Histogram::observe_us(std::uint64_t us) {
  std::size_t bucket = kBucketBoundsUs.size();  // +inf by default
  for (std::size_t i = 0; i < kBucketBoundsUs.size(); ++i) {
    if (us <= kBucketBoundsUs[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_us = sum_us_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBucketCount; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------- SpanBuffer

SpanBuffer::SpanBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SpanBuffer::record(SpanRecord record) {
  std::scoped_lock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_ % capacity_] = std::move(record);
  }
  ++next_;
}

std::vector<SpanRecord> SpanBuffer::recent() const {
  std::scoped_lock lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_ % capacity_ is the oldest retained slot.
    for (std::size_t i = 0; i < capacity_; ++i)
      out.push_back(ring_[(next_ + i) % capacity_]);
  }
  return out;
}

std::uint64_t SpanBuffer::total_recorded() const {
  std::scoped_lock lock(mu_);
  return next_;
}

// ----------------------------------------------------------- MetricsSnapshot

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

std::int64_t MetricsSnapshot::gauge_value(const std::string& name) const {
  for (const auto& g : gauges)
    if (g.name == name) return g.value;
  return 0;
}

const Histogram::Snapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h.hist;
  return nullptr;
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry::MetricsRegistry(std::size_t span_capacity)
    : spans_(span_capacity) {}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::scoped_lock lock(mu_);
    for (const auto& [name, cell] : counters_)
      snap.counters.push_back({name, cell->value()});
    for (const auto& [name, cell] : gauges_)
      snap.gauges.push_back({name, cell->value()});
    for (const auto& [name, cell] : histograms_)
      snap.histograms.push_back({name, cell->snapshot()});
  }
  snap.spans_recorded = spans_.total_recorded();
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

// ----------------------------------------------------------------------- Span

Span::Span(MetricsRegistry& registry, std::string component, std::string name)
    : spans_(registry.spans()),
      latency_(registry.histogram(component + "." + name + ".latency_us")),
      component_(std::move(component)),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {}

Span::Span(MetricsRegistry& registry, Histogram& latency,
           const char* component, const char* name)
    : spans_(registry.spans()),
      latency_(latency),
      component_(component),
      name_(name),
      start_(std::chrono::steady_clock::now()) {}

Span::~Span() {
  auto elapsed = std::chrono::steady_clock::now() - start_;
  auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  latency_.observe_us(us);
  spans_.record(SpanRecord{std::move(component_), std::move(name_), us, ok_});
}

// ----------------------------------------------------------------------- JSON

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, c.name);
    out += "\": " + std::to_string(c.value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, g.name);
    out += "\": " + std::to_string(g.value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, h.name);
    out += "\": {\"count\": " + std::to_string(h.hist.count) +
           ", \"sum_us\": " + std::to_string(h.hist.sum_us) + ", \"buckets\": [";
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < Histogram::kBucketBoundsUs.size()
                 ? std::to_string(Histogram::kBucketBoundsUs[i])
                 : std::string("\"inf\"");
      out += ", \"count\": " + std::to_string(h.hist.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += "\n  },\n  \"spans_recorded\": " +
         std::to_string(snapshot.spans_recorded) + "\n}\n";
  return out;
}

}  // namespace ace::obs
