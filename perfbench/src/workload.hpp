// The contract between the load generator (main.cpp) and one workload.
//
// A workload owns its deployment and a seeded op generator per load
// thread. main.cpp times set-up, runs closed-loop load from
// kLoadThreads threads through run_op(), and, in a traced run, calls the
// in-process replay hooks from its own thread while load runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cmdlang/value.hpp"
#include "deployment.hpp"

namespace perfbench {

// Two closed-loop load threads sharing one AceClient: with one, idle vCPUs
// make wake-up latency dominate; with four, load competes with the
// reactor's core workers on a 4-vCPU host (see README.md).
inline constexpr int kLoadThreads = 2;

enum class OpKind : std::uint8_t { read = 0, write = 1 };

struct OpResult {
  OpKind kind = OpKind::read;
  bool failed = false;  // error reply or transport failure
  bool wrong = false;   // ok reply whose content disagrees with the model
  std::uint32_t bytes_written = 0;  // user payload a write carried
};

// Named per-layer timing samples (microseconds) from the traced window.
using Series = std::map<std::string, std::vector<double>>;

// One command the workload sends, with the daemon whose registry
// validates it (the cmdlang probes parse and validate these).
struct SampleCommand {
  ace::cmdlang::CmdLine cmd;
  const ace::daemon::ServiceDaemon* daemon = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Boots a fresh deployment and populates it. Every call with the same
  // seed builds the same state and resets the op generators, so repeated
  // set-ups in one run are identical work.
  virtual ace::util::Status setup(std::uint64_t seed) = 0;
  // Destroys the deployment and every client of it.
  virtual void teardown() = 0;
  virtual Deployment& deployment() = 0;

  // Runs load thread `t`'s next op and checks the reply against the
  // generator's model. Thread-safe across distinct `t`.
  virtual OpResult run_op(int t) = 0;

  // The first call a fresh client makes (connect_p50_us): the workload's
  // cheapest read against its primary target.
  virtual ace::util::Status first_call(ace::daemon::AceClient& client) = 0;

  // One round of in-process replays of the workload's ops through layer
  // entry points, on probe-only keys and devices so the load's reply
  // checks still hold. Appends microsecond timings to `series`.
  virtual void replay(Series& series) = 0;

  // Representative commands for the parse/validate probes.
  virtual std::vector<SampleCommand> sample_commands() = 0;

  // Ops per load thread in the fixed warm-up that ends every set-up, sized
  // so a set-up is long enough to time steadily (0.3 s or more).
  virtual int warmup_ops() const = 0;

  // Set-up sub-phase: gossip convergence time of the last set-up (ms);
  // 0 for deployments without federation.
  virtual double gossip_converge_ms() const { return 0.0; }

  // User bytes the workload keeps live in the store (io.space_amp base).
  virtual std::uint64_t live_bytes() const { return 0; }
};

std::unique_ptr<Workload> make_room_control();
std::unique_ptr<Workload> make_checkpoint_store();
std::unique_ptr<Workload> make_campus_directory();

// Times one in-process ServiceDaemon::execute as the load's principal and
// records it under `series_name` — and under daemon.execute_us when the op
// is one of the workload's own (`primary`) — only for an ok reply.
void timed_execute(ace::daemon::ServiceDaemon& daemon,
                   const ace::cmdlang::CmdLine& cmd, Series& series,
                   const std::string& series_name, bool primary);

// Shared in-process replays, used by every workload since every
// deployment has a store and a directory. `primary` marks them as the
// workload's own ops, which also lands them in daemon.execute_us.
//
// replay_store: coordinator storePut/storeGet of a 1 KiB probe-only key
// (store.put_us, store.get_us).
void replay_store(Deployment& d, std::uint64_t round, bool primary,
                  Series& series);
// replay_asd: lookup of `known`, a `room=*` query of `query_class`, and a
// register/deregister pair of a probe-only name in `room`
// (services.asd_lookup_us, asd_query_us, asd_register_us).
void replay_asd(ace::services::AsdDaemon& asd, const std::string& known,
                const std::string& query_class, const std::string& room,
                std::uint64_t round, bool primary, Series& series);

}  // namespace perfbench
