// Measurements taken from outside the program: process and host
// accounting, and micro-probes that time one layer's public entry point
// in isolation. Every timing is the median of repeated batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

// Aggregate `cpu` line of /proc/stat, in clock ticks.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t idle = 0;   // idle + iowait
  std::uint64_t steal = 0;
};
HostTicks read_host_ticks();

// Process user+sys CPU seconds so far.
double process_cpu_seconds();
// Peak and current resident set size of this process (VmHWM, VmRSS), MiB.
double peak_rss_mb();
double rss_mb();

// Registry counters and histogram (count, sum) at this instant.
CounterReading read_counters(const ace::obs::MetricsRegistry& registry);

// ChaCha20 throughput of this host on a 64 KiB buffer (MB/s): the
// calibration that lets runs on different machines be compared.
double chacha_mb_per_s();

// One secure-channel record's crypto on a `bytes`-sized frame: ChaCha20
// keystream XOR plus HMAC-SHA256 (µs).
double crypto_record_us(std::size_t bytes);

// cmdlang::Parser::parse and SemanticRegistry::validate over the
// workload's command texts, µs per command.
double parse_us(const std::vector<SampleCommand>& commands);
double validate_us(const std::vector<SampleCommand>& commands);

// keynote::ComplianceChecker::check with the deployment's policies and the
// user's credential, on the action a daemon builds for `cmd` (µs).
double keynote_check_us(ace::daemon::Environment& env,
                        const SampleCommand& command);

// Cost of one obs::Span on `registry`, ns per span, with `threads`
// threads recording at once.
double span_ns(ace::obs::MetricsRegistry& registry, int threads);

// SimDisk append of `records` × `record_bytes` then fsync, as one
// group-commit flush (µs).
double fsync_us(int records, std::size_t record_bytes);

// Post→run delay of one task on the reactor's core pool (µs); negative
// when the reactor did not run it within a second.
double reactor_post_wait_us(ace::net::Reactor& reactor);

}  // namespace perfbench
