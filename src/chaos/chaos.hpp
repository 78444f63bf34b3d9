// ace::chaos — deterministic fault injection for an ACE deployment.
//
// The paper's reliability story (lease-based liveness §2.4, the
// watcher/restarter of §5.2, the 3-way replicated store of Ch 6) is about
// *recovering* from failures, yet until now faults were injected ad hoc by
// individual tests. This engine drives the substrate's existing hooks —
// net::Host::set_down, Network::set_partitioned, per-link latency/loss
// policies, ServiceDaemon::crash — from a declarative schedule: a timeline
// of fault events generated from a single RNG seed.
//
// Determinism contract: generate_schedule(seed, params, targets) is a pure
// function — the same inputs always yield the identical event timeline
// (asserted by tests), so any chaos run, and any failure it exposes, can be
// replayed from its seed. The *application* of the schedule is wall-clock
// driven: event ordering and per-event schedule offsets are exact, while
// interleaving with concurrent traffic is only as reproducible as the
// thread scheduler.
//
// Every fault the generator emits is paired with a heal event inside the
// schedule horizon, so a completed run always leaves the network whole and
// every crash-injected service restarted (unless params.restart_services is
// false, in which case recovery is delegated to the fabric itself — the
// Robustness Manager relaunch path — and only crash events are emitted).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "io/sim_disk.hpp"
#include "net/network.hpp"

namespace ace::chaos {

enum class FaultKind {
  service_crash,    // ServiceDaemon::crash() on target `a`
  service_restart,  // ServiceDaemon::start() on target `a` (heal of crash)
  link_down,        // partition the a<->b link
  link_up,          // heal the a<->b link
  host_isolate,     // partition host `a` from every other target host
  host_heal,        // heal host `a`'s partitions
  latency_spike,    // raise a<->b latency to `latency`
  latency_restore,  // restore the pre-spike a<->b policy
  loss_burst,       // raise a<->b datagram loss to `loss`
  loss_restore,     // restore the pre-burst a<->b policy
  // Disk faults (instantaneous arms on io::SimDisk `a`; no paired heal —
  // the next SimDisk::crash() consumes/clears the armed state). Emitted
  // only when Targets.disks is non-empty and weight_disk_fault > 0, so
  // default schedules are bit-identical to pre-disk ones.
  disk_torn_tail,   // arm a torn tail for disk `a`'s next power loss
  disk_fsync_drop,  // disk `a` silently drops its next `count` fsyncs
  disk_bit_rot,     // flip one durable bit on disk `a` right now
  // Inter-room faults (federation experiments): partition every link
  // between room `a`'s hosts and room `b`'s hosts, leaving intra-room
  // traffic untouched. Emitted only when Targets.rooms has >= 2 groups and
  // weight_room_partition > 0, so pre-federation schedules stay
  // byte-identical.
  room_partition,   // sever all a-room <-> b-room host links
  room_heal,        // restore them
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  std::chrono::milliseconds at{0};  // offset from schedule start
  FaultKind kind = FaultKind::service_crash;
  std::string a;  // service name (crash/restart) or host name
  std::string b;  // peer host for link events, empty otherwise
  std::chrono::microseconds latency{0};  // latency_spike only
  double loss = 0.0;                     // loss_burst only
  int count = 0;                         // disk_fsync_drop only

  std::string to_string() const;
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// What the generator may aim at. Hosts carrying infrastructure the
// experiment wants reliable (e.g. the ASD's machine) are simply omitted.
struct Targets {
  // One federated room: the hosts whose links a room_partition severs.
  // Room hosts need not appear in `hosts` (single-link faults and room
  // partitions are independently targetable).
  struct RoomGroup {
    std::string room;
    std::vector<std::string> hosts;
    friend bool operator==(const RoomGroup&, const RoomGroup&) = default;
  };

  std::vector<std::string> services;  // crashable service daemon names
  std::vector<std::string> hosts;     // hosts for link/partition faults
  std::vector<std::string> disks;     // SimDisk names for disk faults
  std::vector<RoomGroup> rooms;       // room groups for inter-room faults
};

struct ScheduleParams {
  std::chrono::milliseconds duration{5000};
  // Mean gap between consecutive fault injections (uniform in
  // [mean_interval/2, 3*mean_interval/2)).
  std::chrono::milliseconds mean_interval{400};
  // How long an injected fault persists before its heal event (uniform in
  // [min_fault, max_fault), clamped so the heal lands before `duration`).
  std::chrono::milliseconds min_fault{200};
  std::chrono::milliseconds max_fault{1200};
  // When false, service crashes are emitted without a paired
  // service_restart: recovery is the fabric's job (Robustness Manager via
  // lease expiry -> SAL -> HAL), which is what an MTTR experiment measures.
  bool restart_services = true;
  // After crashing a service, leave it alone for this long (gives the
  // fabric's detection+relaunch path room before the next hit).
  std::chrono::milliseconds service_cooldown{4000};
  // Cap on services down (crashed, not yet restarted) at the same instant;
  // 0 = unlimited. Lets quorum experiments torture an N-replica cluster
  // while guaranteeing the fault floor a W-quorum needs (e.g. cap 1 keeps
  // 2 of 3 store replicas alive through any schedule).
  int max_concurrent_crashes = 0;
  // Relative weights of the fault classes (0 disables a class).
  int weight_service_crash = 4;
  int weight_link_down = 3;
  int weight_host_isolate = 1;
  int weight_latency_spike = 2;
  int weight_loss_burst = 2;
  // Disk faults (torn tail / dropped fsync / bit rot, picked uniformly).
  // 0 by default: enabling them must be explicit, and leaving them off
  // keeps every pre-existing (seed, params) schedule byte-identical.
  int weight_disk_fault = 0;
  // Inter-room partitions (federation experiments, E21). 0 by default for
  // the same reason as disk faults: existing (seed, params) schedules must
  // stay byte-identical unless a run opts in.
  int weight_room_partition = 0;
  // Magnitudes.
  std::chrono::microseconds spike_latency{5000};
  double burst_loss = 0.5;
  int fsync_drop_count = 4;  // fsyncs swallowed per disk_fsync_drop event
  // Whether the disk-fault class may draw disk_bit_rot. Durability-torture
  // runs disable it: bit rot attacks data replication already acked as
  // durable, which is an anti-entropy repair story, not a WAL one.
  bool disk_bit_rot = true;
};

struct Schedule {
  std::uint64_t seed = 0;
  std::chrono::milliseconds duration{0};
  Targets targets;                 // copied in so appliers know the host set
  std::vector<FaultEvent> events;  // sorted by `at`, ties in emit order
};

// Pure function of its arguments: same (seed, params, targets) -> identical
// event vector. See the determinism contract above.
Schedule generate_schedule(std::uint64_t seed, const ScheduleParams& params,
                           const Targets& targets);

// Applies a schedule to a live deployment. Service targets are registered
// by name; link/partition events act directly on env.network(). The engine
// records every application in an ordered log and mirrors activity into the
// deployment registry (`chaos.*` metrics).
class ChaosEngine {
 public:
  struct AppliedEvent {
    FaultEvent event;
    std::chrono::milliseconds applied_at{0};  // actual offset when applied
    bool applied = false;  // false: target unknown / already in that state
  };

  ChaosEngine(daemon::Environment& env, Schedule schedule);
  ~ChaosEngine();

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // Registers a crashable service daemon under its schedule target name.
  void add_service(const std::string& name, daemon::ServiceDaemon* daemon);
  // Registers a simulated disk under a schedule target name. When a disk
  // shares its name with a crashable service, a service_crash on that name
  // is treated as a machine power event: the daemon dies AND the disk
  // loses (or tears, if armed) its un-fsynced tails.
  void add_disk(const std::string& name, io::SimDisk* disk);

  void start();          // arms the injector (a reactor timer loop)
  void join();           // blocks until the schedule has fully run
  void stop();           // aborts early (already-applied faults stay)
  bool done() const { return done_.load(); }

  const Schedule& schedule() const { return schedule_; }
  std::vector<AppliedEvent> log() const;

 private:
  // One injector tick: applies every event now due, then returns the time
  // until the next one (nullopt once the schedule is exhausted).
  std::optional<net::Reactor::Clock::duration> inject();
  void apply(const FaultEvent& event, AppliedEvent& out);
  void set_partition(const std::string& a, const std::string& b, bool down);

  daemon::Environment& env_;
  Schedule schedule_;
  std::map<std::string, daemon::ServiceDaemon*> services_;
  std::map<std::string, io::SimDisk*> disks_;
  // Pre-fault link policies, keyed "a|b", saved by spikes/bursts and
  // restored by their heal events.
  std::map<std::string, net::LinkPolicy> saved_links_;

  // Injector progress, touched only by ticks and by start() while idle.
  std::chrono::steady_clock::time_point started_at_{};
  std::size_t next_event_ = 0;

  mutable std::mutex mu_;
  std::condition_variable finished_cv_;  // join(): done_ set under mu_
  std::vector<AppliedEvent> log_;
  std::atomic<bool> done_{false};

  // Cached obs cells (deployment registry, `chaos.*` names).
  obs::Counter* obs_events_;
  obs::Counter* obs_crashes_;
  obs::Counter* obs_restarts_;
  obs::Counter* obs_link_faults_;
  obs::Counter* obs_latency_spikes_;
  obs::Counter* obs_loss_bursts_;
  obs::Counter* obs_disk_faults_;
  obs::Counter* obs_room_partitions_;
  obs::Gauge* obs_active_faults_;

  // Last member: stopped before anything the tick reads dies.
  net::TimerLoop injector_;
};

// Reads the chaos seed for tests/benches: ACE_CHAOS_SEED when set (so CI
// can sweep seeds), else `fallback`.
std::uint64_t seed_from_env(std::uint64_t fallback);

}  // namespace ace::chaos
