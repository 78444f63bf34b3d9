// LeaseCoordinator — host-level batched lease renewal.
//
// Every resident daemon's lease is renewed by one repeating reactor timer
// per host, which renews every resident lease in a single `renewBatch`
// RPC. The renewal traffic a directory sees scales with hosts, not with
// services (E15c measures it), and a deployment of many hosts costs no
// renewal threads at all.
//
// A daemon enrolls after its Fig 9 registration and withdraws on stop() and
// on crash(): a crashed process no longer renews, so its lease lapses and
// the directory detects the death exactly as before (paper §2.4). Per-name
// statuses in the batch reply let one lost lease (directory restarted with
// an empty registry) trigger that daemon's re-registration without
// disturbing its neighbours.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "daemon/client.hpp"
#include "daemon/environment.hpp"
#include "net/reactor.hpp"

namespace ace::daemon {

class DaemonHost;
class ServiceDaemon;

class LeaseCoordinator {
 public:
  LeaseCoordinator(Environment& env, DaemonHost& host);
  ~LeaseCoordinator();

  LeaseCoordinator(const LeaseCoordinator&) = delete;
  LeaseCoordinator& operator=(const LeaseCoordinator&) = delete;

  // Adds `daemon` to the renewal batch. The renewal interval tightens to
  // the smallest lease_renew among enrolled daemons; enrolling (re)arms
  // the next tick one interval from now.
  void enroll(ServiceDaemon& daemon);

  // Removes `name` from the batch. Blocks until any in-flight tick has
  // finished, so after this returns the coordinator will never touch the
  // withdrawn daemon again (its stop()/crash() may proceed to tear down).
  void withdraw(const std::string& name);

  std::size_t enrolled_count() const;

 private:
  // One renewal round on the reactor ops pool (the batched RPC blocks);
  // returns the next interval, read after the round so a daemon enrolled
  // meanwhile counts, or nullopt once the roster is empty.
  std::optional<net::Reactor::Clock::duration> tick();
  void renew();
  std::chrono::milliseconds interval_locked() const;

  Environment& env_;
  DaemonHost& host_;
  std::unique_ptr<AceClient> client_;

  obs::Counter* obs_batches_;   // daemon.lease.batches
  obs::Counter* obs_renewed_;   // daemon.lease.renewed
  obs::Counter* obs_lost_;      // daemon.lease.lost

  // mu_ guards the roster; tick_mu_ is held across a whole renewal (RPC +
  // lost-lease callbacks). Lock order: tick_mu_ before mu_. withdraw()
  // takes both so it cannot interleave with a renewal that might still
  // call into the withdrawing daemon.
  mutable std::mutex mu_;
  std::mutex tick_mu_;
  std::map<std::string, ServiceDaemon*> enrolled_;

  // Last member: stopped (waiting out a running tick) before the rest dies.
  net::TimerLoop loop_;
};

}  // namespace ace::daemon
