// Statistics used by the load generator: percentiles with their sample
// counts, measured-window deltas of cumulative counters, and ratios that
// carry their base. Header-only and free of ACE types so the unit tests in
// tests/stats_test.cpp exercise exactly the code main.cpp runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One percentile of a sample set, with enough context to judge it: the
// sample count and how many samples lie strictly beyond the reported one.
struct Percentile {
  double value = 0.0;
  std::size_t index = 0;   // position in the sorted samples
  std::size_t count = 0;   // total samples
  std::size_t beyond = 0;  // samples ranked after `index`
};

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it (rank ceil(p/100 * n), 1-based). `sorted` must be
// ascending; an empty set yields a zero Percentile.
inline Percentile percentile_sorted(const std::vector<double>& sorted,
                                    double p) {
  Percentile out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.index = rank - 1;
  out.value = sorted[out.index];
  out.beyond = sorted.size() - rank;
  return out;
}

inline Percentile percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

// Median of an unsorted set (mean of the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Quantile q in [0, 1] by linear interpolation between closest ranks
// (position q * (n - 1) in the sorted set); 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Splits timestamped samples into consecutive slices: sample i lands in
// the slice [edges[k], edges[k+1]) holding its timestamp. Samples outside
// every slice are dropped. Returns one vector per slice.
inline std::vector<std::vector<double>> slice_by_time(
    const std::vector<double>& values, const std::vector<double>& times,
    const std::vector<double>& edges) {
  std::vector<std::vector<double>> out(edges.size() > 1 ? edges.size() - 1 : 0);
  for (std::size_t i = 0; i < values.size() && i < times.size(); ++i) {
    auto it = std::upper_bound(edges.begin(), edges.end(), times[i]);
    if (it == edges.begin() || it == edges.end()) continue;
    out[static_cast<std::size_t>(it - edges.begin()) - 1].push_back(values[i]);
  }
  return out;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Cumulative state of a metrics registry at one instant: counters and the
// (count, sum) of each histogram. The difference of two readings taken at
// the edges of the timed window is what every per-op figure divides, so
// set-up work never leaks into them.
struct CounterReading {
  struct Hist {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Hist> histograms;
  std::uint64_t spans = 0;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  Hist histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? Hist{} : it->second;
  }
};

// end - start per name. A name missing at the start counts from zero; a
// counter that went backwards (a registry was replaced) clamps to zero
// rather than wrapping.
inline CounterReading window_delta(const CounterReading& start,
                                   const CounterReading& end) {
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; };
  CounterReading d;
  for (const auto& [name, v] : end.counters)
    d.counters[name] = sub(v, start.counter(name));
  for (const auto& [name, h] : end.histograms) {
    const auto s = start.histogram(name);
    d.histograms[name] = {sub(h.count, s.count), sub(h.sum, s.sum)};
  }
  d.spans = sub(end.spans, start.spans);
  return d;
}

// A ratio printed beside its base, so a reader can tell 0/0 from 0/N and
// judge how many events a figure rests on.
struct Ratio {
  double numerator = 0.0;
  double base = 0.0;
  std::string base_name;

  // 0 when the base is empty (nothing happened to divide by).
  double value() const { return base > 0.0 ? numerator / base : 0.0; }
};

inline Ratio ratio(double numerator, double base, std::string base_name) {
  return Ratio{numerator, base, std::move(base_name)};
}

// Mean of a histogram's window delta (sum / count), 0 when empty.
inline double hist_mean(const CounterReading::Hist& h) {
  return h.count ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                 : 0.0;
}

}  // namespace perfbench
