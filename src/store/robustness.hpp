// Robustness Manager — the watcher/restarter the paper calls for but had
// not yet built (§5.2: "these applications must be closely watched by other
// ACE services in order to make sure they are up and running and be
// restarted in case of a crash. Such a service has not yet been implemented
// but the ACE infrastructure makes this possible"; Ch 9 lists it as the
// first piece of future work). We implement it:
//
//  * managed services are registered with a kind — `restart` (relaunch on
//    death) or `robust` (relaunch; the service restores its own state from
//    the persistent store on startup),
//  * the manager subscribes to the ASD's `serviceExpired` notifications,
//  * on expiry of a managed service it relaunches through the SAL
//    (salLaunchService), optionally pinned to a host.
//
// The manager must survive the infrastructure failing around it, so a
// watchdog (a reactor timer loop) self-heals the watching itself:
//
//  * the `serviceExpired` subscription lives in the ASD's volatile memory —
//    after an ASD crash+restart it is gone and every managed service would
//    silently lose its safety net. The watchdog polls the ASD's
//    listNotifications and re-subscribes whenever its entry is missing
//    (`rm.resubscribes`).
//  * an expiry notification can be lost outright (e.g. the ASD died before
//    the managed service's lease ran out and restarted knowing nothing).
//    The watchdog sweeps the directory for each managed name and treats
//    `not_found` as a death.
//  * relaunches that fail (SAL down, partition) are retried with capped
//    exponential backoff instead of being dropped; repeated failures are
//    escalated to the Network Logger (`rm.restart_failures`).
//
// Command set:
//   rmRegister name= kind=restart|robust host=?;
//   rmUnregister name=;
//   rmNotify source= command= detail=;     (notification sink)
//   rmStatus;                              -> ok managed={...} restarts=
#pragma once

#include "daemon/daemon.hpp"
#include "services/asd.hpp"

namespace ace::store {

struct RobustnessOptions {
  // Watchdog tick: subscription check, directory sweep, and retry drain.
  std::chrono::milliseconds watch_interval{250};
  // Relaunch retry backoff: base * 2^(failures-1), capped.
  std::chrono::milliseconds retry_base{200};
  std::chrono::milliseconds retry_cap{2000};
  // After a successful relaunch, leave the service alone for this long so
  // the sweep does not double-launch an instance that is still booting and
  // has not yet re-registered.
  std::chrono::milliseconds relaunch_grace{1500};
  // Consecutive failures after which the escalation is logged as critical.
  int escalate_after = 5;
};

class RobustnessManagerDaemon : public daemon::ServiceDaemon {
 public:
  struct ManagedService {
    std::string name;
    std::string kind;  // "restart" | "robust"
    std::string host;  // preferred relaunch host ("" = SRM decides)
    int restarts = 0;
  };

  RobustnessManagerDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                          daemon::DaemonConfig config,
                          RobustnessOptions options = {});

  // Subscribes to the ASD's serviceExpired notifications. Call once the
  // ASD is up (after start()). The watchdog re-invokes this whenever the
  // subscription disappears from the directory.
  util::Status watch_asd();

  std::vector<ManagedService> managed() const;
  int total_restarts() const;

 protected:
  util::Status on_start() override;
  void on_stop() override;
  void on_crash() override;

 private:
  // One relaunch in (possibly repeated) flight.
  struct PendingRelaunch {
    std::chrono::steady_clock::time_point next_attempt;
    int failures = 0;
  };

  void handle_expiry(const std::string& service_name);
  // Queues `name` for relaunch at the watchdog's next tick (idempotent
  // while an attempt is already pending).
  void schedule_relaunch(const std::string& name);
  // One salLaunchService attempt. Returns false (and re-arms the backoff)
  // on failure.
  bool try_relaunch(const std::string& name);
  // One watchdog round; returns watch_interval.
  std::optional<net::Reactor::Clock::duration> watchdog_tick();
  // True when the ASD still lists our serviceExpired subscription.
  bool subscription_alive();

  // The manager's cached directory client with the transport it rides on
  // (owned together: the base class replaces control_client() on every
  // start(), so a cache built over it would dangle across a restart).
  struct DirectoryClient {
    std::unique_ptr<daemon::AceClient> transport;
    services::AsdClient asd;
  };
  // Snapshot of the current client; null before the first start or when no
  // ASD is configured. Callers keep the snapshot alive across their calls,
  // so a concurrent restart swapping in a fresh client never pulls the rug.
  std::shared_ptr<DirectoryClient> directory();

  RobustnessOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, ManagedService> managed_;
  std::map<std::string, PendingRelaunch> pending_;
  std::map<std::string, std::chrono::steady_clock::time_point> last_success_;
  int total_restarts_ = 0;

  // The watchdog sweeps the directory every tick for every managed name,
  // which made the manager the chattiest ASD reader in the deployment. A
  // lease-bounded lookup cache absorbs most of that traffic, and the
  // rmNotify handler evicts on serviceExpired so a death is acted on the
  // moment the directory announces it rather than a TTL later.
  std::mutex asd_mu_;  // guards the asd_ pointer swap only
  std::shared_ptr<DirectoryClient> asd_;

  // Cached obs cells (deployment registry, `rm.*` names).
  obs::Counter* obs_restarts_;
  obs::Counter* obs_restart_failures_;
  obs::Counter* obs_resubscribes_;
  obs::Counter* obs_cache_invalidations_;
  obs::Gauge* obs_pending_;

  // Watchdog (last member: stopped before anything it reads dies).
  net::TimerLoop watchdog_;
};

}  // namespace ace::store
