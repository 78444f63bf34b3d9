#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace ace::chaos {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::service_crash: return "service_crash";
    case FaultKind::service_restart: return "service_restart";
    case FaultKind::link_down: return "link_down";
    case FaultKind::link_up: return "link_up";
    case FaultKind::host_isolate: return "host_isolate";
    case FaultKind::host_heal: return "host_heal";
    case FaultKind::latency_spike: return "latency_spike";
    case FaultKind::latency_restore: return "latency_restore";
    case FaultKind::loss_burst: return "loss_burst";
    case FaultKind::loss_restore: return "loss_restore";
    case FaultKind::disk_torn_tail: return "disk_torn_tail";
    case FaultKind::disk_fsync_drop: return "disk_fsync_drop";
    case FaultKind::disk_bit_rot: return "disk_bit_rot";
    case FaultKind::room_partition: return "room_partition";
    case FaultKind::room_heal: return "room_heal";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::ostringstream out;
  out << "+" << at.count() << "ms " << chaos::to_string(kind) << " " << a;
  if (!b.empty()) out << "<->" << b;
  if (kind == FaultKind::latency_spike) out << " latency=" << latency.count() << "us";
  if (kind == FaultKind::loss_burst) out << " loss=" << loss;
  if (kind == FaultKind::disk_fsync_drop) out << " count=" << count;
  return out.str();
}

namespace {

std::string pair_key(const std::string& a, const std::string& b) {
  return a < b ? a + "|" + b : b + "|" + a;
}

// Busy-until bookkeeping: at most one fault at a time per service, per
// link, and per host, so every heal event restores exactly the state its
// fault displaced and the end-of-schedule network is provably whole.
struct BusyMaps {
  std::map<std::string, milliseconds> service;
  std::map<std::string, milliseconds> host;
  std::map<std::string, milliseconds> link;

  static bool free_at(const std::map<std::string, milliseconds>& m,
                      const std::string& key, milliseconds t) {
    auto it = m.find(key);
    return it == m.end() || it->second <= t;
  }

  bool link_free(const std::string& a, const std::string& b,
                 milliseconds t) const {
    return free_at(link, pair_key(a, b), t) && free_at(host, a, t) &&
           free_at(host, b, t);
  }
};

}  // namespace

Schedule generate_schedule(std::uint64_t seed, const ScheduleParams& params,
                           const Targets& targets) {
  Schedule schedule;
  schedule.seed = seed;
  schedule.duration = params.duration;
  schedule.targets = targets;

  util::Rng rng(seed);
  // [lo, hi) in whole milliseconds; collapses to lo when the range is empty.
  auto uniform_ms = [&rng](milliseconds lo, milliseconds hi) {
    if (hi <= lo) return lo;
    return lo + milliseconds(static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(
                        (hi - lo).count()))));
  };

  BusyMaps busy;
  // When a crash window is open (crash emitted, restart not yet due) the
  // service counts against params.max_concurrent_crashes.
  std::map<std::string, milliseconds> crash_down_until;
  const auto& hosts = targets.hosts;

  milliseconds t =
      uniform_ms(params.mean_interval / 2, params.mean_interval * 3 / 2);
  while (t < params.duration) {
    milliseconds room = params.duration - t;
    if (room <= params.min_fault) break;
    milliseconds max_len = std::min(params.max_fault, room - milliseconds(1));

    // Deterministically enumerate what each class could hit right now.
    std::vector<std::string> idle_services;
    for (const auto& s : targets.services)
      if (BusyMaps::free_at(busy.service, s, t)) idle_services.push_back(s);

    std::vector<std::pair<std::string, std::string>> idle_links;
    for (std::size_t i = 0; i < hosts.size(); ++i)
      for (std::size_t j = i + 1; j < hosts.size(); ++j)
        if (busy.link_free(hosts[i], hosts[j], t))
          idle_links.emplace_back(hosts[i], hosts[j]);

    std::vector<std::string> idle_hosts;
    for (const auto& h : hosts) {
      if (hosts.size() < 2 || !BusyMaps::free_at(busy.host, h, t)) continue;
      bool links_free = true;
      for (const auto& other : hosts)
        if (other != h && !busy.link_free(h, other, t)) links_free = false;
      if (links_free) idle_hosts.push_back(h);
    }

    struct Option {
      FaultKind kind;
      int weight;
    };
    int active_crashes = 0;
    for (const auto& [name, until] : crash_down_until)
      if (until > t) ++active_crashes;

    std::vector<Option> options;
    if (!idle_services.empty() && params.weight_service_crash > 0 &&
        (params.max_concurrent_crashes <= 0 ||
         active_crashes < params.max_concurrent_crashes))
      options.push_back({FaultKind::service_crash, params.weight_service_crash});
    if (!idle_links.empty()) {
      if (params.weight_link_down > 0)
        options.push_back({FaultKind::link_down, params.weight_link_down});
      if (params.weight_latency_spike > 0)
        options.push_back(
            {FaultKind::latency_spike, params.weight_latency_spike});
      if (params.weight_loss_burst > 0)
        options.push_back({FaultKind::loss_burst, params.weight_loss_burst});
    }
    if (!idle_hosts.empty() && params.weight_host_isolate > 0)
      options.push_back({FaultKind::host_isolate, params.weight_host_isolate});
    if (!targets.disks.empty() && params.weight_disk_fault > 0)
      options.push_back({FaultKind::disk_torn_tail, params.weight_disk_fault});

    // Room pairs whose entire cross-link set is idle. A room partition
    // claims every one of those links, so its heal restores exactly the
    // severed set and never fights a single-link fault's heal.
    std::vector<std::pair<std::size_t, std::size_t>> idle_room_pairs;
    if (params.weight_room_partition > 0) {
      for (std::size_t i = 0; i < targets.rooms.size(); ++i) {
        for (std::size_t j = i + 1; j < targets.rooms.size(); ++j) {
          bool all_free = true;
          for (const auto& ha : targets.rooms[i].hosts)
            for (const auto& hb : targets.rooms[j].hosts)
              if (!busy.link_free(ha, hb, t)) all_free = false;
          if (all_free) idle_room_pairs.emplace_back(i, j);
        }
      }
      if (!idle_room_pairs.empty())
        options.push_back(
            {FaultKind::room_partition, params.weight_room_partition});
    }

    if (options.empty()) {
      t += uniform_ms(params.mean_interval / 2, params.mean_interval * 3 / 2);
      continue;
    }

    int total = 0;
    for (const auto& o : options) total += o.weight;
    auto pick = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(total)));
    FaultKind kind = options.back().kind;
    for (const auto& o : options) {
      if (pick < o.weight) {
        kind = o.kind;
        break;
      }
      pick -= o.weight;
    }

    milliseconds len = max_len <= params.min_fault
                           ? max_len
                           : uniform_ms(params.min_fault, max_len);

    switch (kind) {
      case FaultKind::service_crash: {
        const auto& name =
            idle_services[rng.next_below(idle_services.size())];
        schedule.events.push_back({t, FaultKind::service_crash, name});
        if (params.restart_services)
          schedule.events.push_back(
              {t + len, FaultKind::service_restart, name});
        busy.service[name] =
            t + (params.restart_services ? len : milliseconds(0)) +
            params.service_cooldown;
        crash_down_until[name] =
            params.restart_services ? t + len : params.duration;
        break;
      }
      case FaultKind::link_down: {
        const auto& [a, b] = idle_links[rng.next_below(idle_links.size())];
        schedule.events.push_back({t, FaultKind::link_down, a, b});
        schedule.events.push_back({t + len, FaultKind::link_up, a, b});
        busy.link[pair_key(a, b)] = t + len;
        break;
      }
      case FaultKind::latency_spike: {
        const auto& [a, b] = idle_links[rng.next_below(idle_links.size())];
        schedule.events.push_back(
            {t, FaultKind::latency_spike, a, b, params.spike_latency});
        schedule.events.push_back({t + len, FaultKind::latency_restore, a, b});
        busy.link[pair_key(a, b)] = t + len;
        break;
      }
      case FaultKind::loss_burst: {
        const auto& [a, b] = idle_links[rng.next_below(idle_links.size())];
        FaultEvent burst{t, FaultKind::loss_burst, a, b};
        burst.loss = params.burst_loss;
        schedule.events.push_back(burst);
        schedule.events.push_back({t + len, FaultKind::loss_restore, a, b});
        busy.link[pair_key(a, b)] = t + len;
        break;
      }
      case FaultKind::host_isolate: {
        const auto& h = idle_hosts[rng.next_below(idle_hosts.size())];
        schedule.events.push_back({t, FaultKind::host_isolate, h});
        schedule.events.push_back({t + len, FaultKind::host_heal, h});
        busy.host[h] = t + len;
        break;
      }
      case FaultKind::disk_torn_tail: {
        // The option entry stands for the whole disk-fault class; the
        // concrete sub-fault and target disk are drawn here. Arms are
        // instantaneous, so there is no heal pairing and no busy window.
        const auto& d = targets.disks[rng.next_below(targets.disks.size())];
        FaultEvent event{t, FaultKind::disk_torn_tail, d};
        switch (rng.next_below(params.disk_bit_rot ? 3 : 2)) {
          case 0:
            break;  // torn tail
          case 1:
            event.kind = FaultKind::disk_fsync_drop;
            event.count = params.fsync_drop_count;
            break;
          default:
            event.kind = FaultKind::disk_bit_rot;
            break;
        }
        schedule.events.push_back(event);
        break;
      }
      case FaultKind::room_partition: {
        const auto& [i, j] =
            idle_room_pairs[rng.next_below(idle_room_pairs.size())];
        const auto& ra = targets.rooms[i];
        const auto& rb = targets.rooms[j];
        schedule.events.push_back(
            {t, FaultKind::room_partition, ra.room, rb.room});
        schedule.events.push_back({t + len, FaultKind::room_heal, ra.room,
                                   rb.room});
        for (const auto& ha : ra.hosts)
          for (const auto& hb : rb.hosts) busy.link[pair_key(ha, hb)] = t + len;
        break;
      }
      default:
        break;
    }

    t += uniform_ms(params.mean_interval / 2, params.mean_interval * 3 / 2);
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  return schedule;
}

ChaosEngine::ChaosEngine(daemon::Environment& env, Schedule schedule)
    : env_(env),
      schedule_(std::move(schedule)),
      injector_(env.reactor(), [this] { return inject(); }) {
  auto& m = env_.metrics();
  obs_events_ = &m.counter("chaos.events");
  obs_crashes_ = &m.counter("chaos.service_crashes");
  obs_restarts_ = &m.counter("chaos.service_restarts");
  obs_link_faults_ = &m.counter("chaos.link_faults");
  obs_latency_spikes_ = &m.counter("chaos.latency_spikes");
  obs_loss_bursts_ = &m.counter("chaos.loss_bursts");
  obs_disk_faults_ = &m.counter("chaos.disk_faults");
  obs_room_partitions_ = &m.counter("chaos.room_partitions");
  obs_active_faults_ = &m.gauge("chaos.active_faults");
}

ChaosEngine::~ChaosEngine() { stop(); }

void ChaosEngine::add_service(const std::string& name,
                              daemon::ServiceDaemon* daemon) {
  services_[name] = daemon;
}

void ChaosEngine::add_disk(const std::string& name, io::SimDisk* disk) {
  disks_[name] = disk;
}

void ChaosEngine::start() {
  if (injector_.active()) return;
  done_.store(false);
  started_at_ = steady_clock::now();
  next_event_ = 0;
  injector_.start(schedule_.events.empty() ? milliseconds(0)
                                           : schedule_.events.front().at);
}

void ChaosEngine::join() {
  // Timed: a loop that could not arm (reactor stopping) ends without a
  // final tick to notify.
  std::unique_lock lock(mu_);
  while (!finished_cv_.wait_for(lock, milliseconds(50), [this] {
    return done_ || !injector_.active();
  })) {
  }
}

void ChaosEngine::stop() {
  injector_.stop();
  {
    std::scoped_lock lock(mu_);
    done_.store(true);
  }
  finished_cv_.notify_all();
}

std::vector<ChaosEngine::AppliedEvent> ChaosEngine::log() const {
  std::scoped_lock lock(mu_);
  return log_;
}

std::optional<net::Reactor::Clock::duration> ChaosEngine::inject() {
  const auto& events = schedule_.events;
  while (next_event_ < events.size() &&
         started_at_ + events[next_event_].at <= steady_clock::now()) {
    if (!injector_.active()) return std::nullopt;  // stop() is waiting
    AppliedEvent record;
    record.event = events[next_event_++];
    apply(record.event, record);
    record.applied_at = std::chrono::duration_cast<milliseconds>(
        steady_clock::now() - started_at_);
    std::scoped_lock lock(mu_);
    log_.push_back(std::move(record));
  }
  if (next_event_ == events.size()) {
    {
      std::scoped_lock lock(mu_);
      done_.store(true);
    }
    finished_cv_.notify_all();
    return std::nullopt;
  }
  return started_at_ + events[next_event_].at - steady_clock::now();
}

void ChaosEngine::set_partition(const std::string& a, const std::string& b,
                                bool down) {
  env_.network().set_partitioned(a, b, down);
}

void ChaosEngine::apply(const FaultEvent& event, AppliedEvent& out) {
  obs_events_->inc();
  auto& net = env_.network();
  switch (event.kind) {
    case FaultKind::service_crash: {
      auto it = services_.find(event.a);
      if (it == services_.end() || !it->second->running()) break;
      it->second->crash();
      // A disk registered under the same name makes this a machine power
      // event, not just a process kill: un-fsynced tails are lost (or
      // torn, if a torn-tail fault was armed).
      auto disk = disks_.find(event.a);
      if (disk != disks_.end()) disk->second->crash();
      obs_crashes_->inc();
      obs_active_faults_->add(1);
      out.applied = true;
      break;
    }
    case FaultKind::service_restart: {
      auto it = services_.find(event.a);
      if (it == services_.end() || it->second->running()) break;
      out.applied = it->second->start().ok();
      if (out.applied) {
        obs_restarts_->inc();
        obs_active_faults_->add(-1);
      }
      break;
    }
    case FaultKind::link_down:
      set_partition(event.a, event.b, true);
      obs_link_faults_->inc();
      obs_active_faults_->add(1);
      out.applied = true;
      break;
    case FaultKind::link_up:
      set_partition(event.a, event.b, false);
      obs_active_faults_->add(-1);
      out.applied = true;
      break;
    case FaultKind::host_isolate:
      for (const auto& other : schedule_.targets.hosts)
        if (other != event.a) set_partition(event.a, other, true);
      obs_link_faults_->inc();
      obs_active_faults_->add(1);
      out.applied = true;
      break;
    case FaultKind::host_heal:
      for (const auto& other : schedule_.targets.hosts)
        if (other != event.a) set_partition(event.a, other, false);
      obs_active_faults_->add(-1);
      out.applied = true;
      break;
    case FaultKind::latency_spike: {
      auto saved = net.link(event.a, event.b);
      saved_links_[pair_key(event.a, event.b)] = saved;
      net::LinkPolicy spiked = saved;
      spiked.latency = event.latency;
      net.set_link(event.a, event.b, spiked);
      obs_latency_spikes_->inc();
      obs_active_faults_->add(1);
      out.applied = true;
      break;
    }
    case FaultKind::loss_burst: {
      auto saved = net.link(event.a, event.b);
      saved_links_[pair_key(event.a, event.b)] = saved;
      net::LinkPolicy lossy = saved;
      lossy.datagram_loss = event.loss;
      net.set_link(event.a, event.b, lossy);
      obs_loss_bursts_->inc();
      obs_active_faults_->add(1);
      out.applied = true;
      break;
    }
    case FaultKind::latency_restore:
    case FaultKind::loss_restore: {
      auto it = saved_links_.find(pair_key(event.a, event.b));
      if (it == saved_links_.end()) break;
      net.set_link(event.a, event.b, it->second);
      saved_links_.erase(it);
      obs_active_faults_->add(-1);
      out.applied = true;
      break;
    }
    case FaultKind::disk_torn_tail:
    case FaultKind::disk_fsync_drop:
    case FaultKind::disk_bit_rot: {
      auto it = disks_.find(event.a);
      if (it == disks_.end()) break;
      if (event.kind == FaultKind::disk_torn_tail)
        it->second->arm_torn_tail();
      else if (event.kind == FaultKind::disk_fsync_drop)
        it->second->arm_fsync_drop(event.count);
      else
        out.applied = it->second->inject_bit_rot();
      if (event.kind != FaultKind::disk_bit_rot) out.applied = true;
      obs_disk_faults_->inc();
      break;
    }
    case FaultKind::room_partition:
    case FaultKind::room_heal: {
      const Targets::RoomGroup* ra = nullptr;
      const Targets::RoomGroup* rb = nullptr;
      for (const auto& r : schedule_.targets.rooms) {
        if (r.room == event.a) ra = &r;
        if (r.room == event.b) rb = &r;
      }
      if (ra == nullptr || rb == nullptr) break;
      const bool down = event.kind == FaultKind::room_partition;
      for (const auto& ha : ra->hosts)
        for (const auto& hb : rb->hosts) set_partition(ha, hb, down);
      if (down) {
        obs_room_partitions_->inc();
        obs_active_faults_->add(1);
      } else {
        obs_active_faults_->add(-1);
      }
      out.applied = true;
      break;
    }
  }
}

std::uint64_t seed_from_env(std::uint64_t fallback) {
  const char* raw = std::getenv("ACE_CHAOS_SEED");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  std::uint64_t parsed = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

}  // namespace ace::chaos
