// HRM and SRM — the resource-monitoring pair (paper §4.1/§4.2, Fig 11).
//
// HRM (Host Resource Monitor) reports the resources of the host it runs on:
// "host CPU load, CPU speed (in bogomips), network traffic load, total and
// available memory, and disk storage capabilities and size". It answers
// queries and — via the standard notification machinery — pushes periodic
// `hrmSample` events to subscribed services.
//
// SRM (System Resource Monitor) aggregates all HRMs (discovered through the
// ASD) "thus allowing for uniform allocation and distribution of ACE system
// resources" and serves as the placement oracle for the SAL.
//
// HRM commands:  hrmStatus;
// SRM commands:  srmStatus;
//                srmPickHost cpu=? mem=? policy=least_loaded|random|first;
#pragma once

#include "daemon/daemon.hpp"
#include "daemon/host.hpp"

namespace ace::services {

struct HrmOptions {
  // Period of self-sampling (drives hrmSample notifications); zero disables.
  std::chrono::milliseconds sample_period{0};
};

class HrmDaemon : public daemon::ServiceDaemon {
 public:
  HrmDaemon(daemon::Environment& env, daemon::DaemonHost& host,
            daemon::DaemonConfig config, HrmOptions options = {});

 protected:
  util::Status on_start() override;
  void on_stop() override;

 private:
  // Emits one hrmSample notification; returns sample_period.
  std::optional<net::Reactor::Clock::duration> sample();
  cmdlang::CmdLine status_reply();

  HrmOptions options_;
  net::TimerLoop sampler_;
};

struct SrmOptions {
  std::chrono::milliseconds cache_ttl{200};  // HRM snapshot cache
  std::string hrm_class_glob = "Service/Monitor/HRM*";
};

class SrmDaemon : public daemon::ServiceDaemon {
 public:
  struct HostSnapshot {
    std::string host;
    net::Address hrm;
    double cpu_load = 0.0;
    double bogomips = 0.0;
    std::uint64_t mem_free_kb = 0;
    bool reachable = false;
  };

  SrmDaemon(daemon::Environment& env, daemon::DaemonHost& host,
            daemon::DaemonConfig config, SrmOptions options = {});

  // Collects fresh snapshots from every registered HRM (cached briefly).
  std::vector<HostSnapshot> snapshots();

 private:
  // Placement policy: pick the host with the most spare normalized CPU
  // capacity that satisfies the memory requirement.
  std::optional<HostSnapshot> pick(double cpu_demand, std::uint64_t mem_kb,
                                   const std::string& policy);

  SrmOptions options_;
  std::mutex mu_;
  std::vector<HostSnapshot> cache_;
  std::chrono::steady_clock::time_point cache_at_{};
  util::Rng rng_;
};

}  // namespace ace::services
