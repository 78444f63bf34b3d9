// Unit tests of the benchmark's statistics code (src/stats.hpp). Run with
// `python3 perfbench/run.py --selftest`, or `ctest` in the build directory.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_index_and_beyond() {
  using perfbench::percentile;
  // Nearest rank over 1..100: p50 is the 50th sample, p99 the 99th, and
  // exactly one sample lies beyond p99.
  auto p50 = percentile(one_to(100), 50);
  CHECK(p50.value == 50 && p50.index == 49 && p50.beyond == 50);
  auto p99 = percentile(one_to(100), 99);
  CHECK(p99.value == 99 && p99.index == 98 && p99.beyond == 1);
  CHECK(p99.count == 100);
  // 1000 samples: the ten-beyond rule for p99 is met exactly.
  auto big = percentile(one_to(1000), 99);
  CHECK(big.value == 990 && big.beyond == 10);
  // Rank rounds up: p50 of 1..5 is 3; p0 clamps to the first sample.
  CHECK(percentile(one_to(5), 50).value == 3);
  CHECK(percentile(one_to(5), 0).value == 1);
  CHECK(percentile(one_to(5), 100).value == 5);
  CHECK(percentile(one_to(5), 100).beyond == 0);
  // A single sample is every percentile.
  CHECK(percentile({7.5}, 99).value == 7.5);
  // Empty input is a zero result, not a crash.
  auto empty = percentile({}, 99);
  CHECK(empty.count == 0 && empty.value == 0 && empty.beyond == 0);
}

void median_and_mean() {
  CHECK(perfbench::median({3, 1, 2}) == 2);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::median({}) == 0);
  CHECK(perfbench::mean({1, 2, 3, 6}) == 3);
}

void quantiles_and_slices() {
  using perfbench::quantile;
  // Linear interpolation between closest ranks, as the slice judgement
  // uses it: q=0.25 of 1..5 is 2, of 1..4 is 1.75.
  CHECK(quantile({5, 1, 3, 2, 4}, 0.25) == 2);
  CHECK(quantile({4, 3, 2, 1}, 0.25) == 1.75);
  CHECK(quantile({4, 3, 2, 1}, 0.75) == 3.25);
  CHECK(quantile({9}, 0.25) == 9);
  CHECK(quantile({}, 0.5) == 0);
  CHECK(quantile({1, 2}, -1) == 1 && quantile({1, 2}, 2) == 2);

  // Samples land in the half-open slice holding their timestamp; samples
  // before the first edge or at/after the last are dropped.
  const std::vector<double> values = {10, 20, 30, 40, 50, 60};
  const std::vector<double> times = {-1, 0, 499.9, 500, 999, 1000};
  const auto slices =
      perfbench::slice_by_time(values, times, {0.0, 500.0, 1000.0});
  CHECK(slices.size() == 2);
  CHECK((slices[0] == std::vector<double>{20, 30}));
  CHECK((slices[1] == std::vector<double>{40, 50}));
  CHECK(perfbench::slice_by_time(values, times, {0.0}).empty());
}

void window_deltas() {
  perfbench::CounterReading start, end;
  start.counters = {{"net.frames_sent", 100}, {"client.calls", 7}};
  start.histograms["client.call.latency_us"] = {10, 500};
  start.spans = 40;
  end.counters = {{"net.frames_sent", 160},
                  {"client.calls", 7},
                  {"store.writes", 9}};
  end.histograms["client.call.latency_us"] = {14, 700};
  end.histograms["store.replicate.latency_us"] = {2, 30};
  end.spans = 52;
  const auto d = perfbench::window_delta(start, end);
  CHECK(d.counter("net.frames_sent") == 60);
  CHECK(d.counter("client.calls") == 0);
  CHECK(d.counter("store.writes") == 9);  // created inside the window
  CHECK(d.counter("absent") == 0);
  CHECK(d.histogram("client.call.latency_us").count == 4);
  CHECK(d.histogram("client.call.latency_us").sum == 200);
  CHECK(perfbench::hist_mean(d.histogram("client.call.latency_us")) == 50);
  CHECK(d.histogram("store.replicate.latency_us").count == 2);
  CHECK(perfbench::hist_mean(d.histogram("absent")) == 0);
  CHECK(d.spans == 12);
  // A counter that went backwards clamps to zero instead of wrapping.
  const auto back = perfbench::window_delta(end, start);
  CHECK(back.counter("net.frames_sent") == 0);
}

void ratio_bases() {
  const auto r = perfbench::ratio(300, 100, "ops");
  CHECK(r.value() == 3 && r.base == 100 && r.base_name == "ops");
  // An empty base reads 0 but keeps its base so 0/0 is visible.
  const auto z = perfbench::ratio(0, 0, "asd.queries");
  CHECK(z.value() == 0 && z.base == 0 && z.base_name == "asd.queries");
  // Scaled bases (per thousand writes).
  CHECK(perfbench::ratio(6, 3000.0 / 1000.0, "storePut/1000").value() == 2);
}

}  // namespace

int main() {
  percentile_index_and_beyond();
  median_and_mean();
  quantiles_and_slices();
  window_deltas();
  ratio_bases();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench stats tests passed\n");
  return EXIT_SUCCESS;
}
