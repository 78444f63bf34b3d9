// Group commit for store replication: a per-peer batcher that coalesces
// concurrent replicated writes into one framed `storeReplicateBatch` RPC
// per peer per flush, riding the pipelined command channel.
//
// Each destination replica gets a *lane*: a queue plus at most one flush
// task on the reactor's ops pool, posted by the write that finds the lane
// idle. Writers receive a Pending handle to await the replica's ack. While
// a batch RPC is in flight, new records pile up behind it and the task's
// next batch ships them all in one frame — classic group commit, where the
// in-flight round trip is the natural coalescing window. The task ends
// when it finds the lane empty: one flight per lane, no idle thread.
//
// A batch either lands whole (the peer applies every record; LWW apply
// cannot fail per-record) or fails whole (transport error / timeout), so
// one reply settles every Pending in the flight.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/environment.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"

namespace ace::store {

struct BatcherOptions {
  std::chrono::milliseconds call_timeout{300};
};

class ReplicationBatcher {
 public:
  // One record awaiting its batch acknowledgement.
  class Pending {
   public:
    // Blocks until the record's batch settles or `deadline` passes;
    // returns true iff the batch was acknowledged in time.
    bool wait_until(std::chrono::steady_clock::time_point deadline);

   private:
    friend class ReplicationBatcher;
    void settle(bool ok);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    bool ok_ = false;
  };

  // Flush tasks run on env's reactor; counters land in env's registry.
  ReplicationBatcher(daemon::Environment& env, daemon::AceClient& client,
                     BatcherOptions options);
  ~ReplicationBatcher();

  ReplicationBatcher(const ReplicationBatcher&) = delete;
  ReplicationBatcher& operator=(const ReplicationBatcher&) = delete;

  // Enqueues a record for `peer`; never blocks on the network. After
  // shutdown() the returned handle is already settled as failed.
  std::shared_ptr<Pending> submit(const net::Address& peer,
                                  std::string record);

  // Stops every lane (waits out a flush in flight) and fails all queued
  // records. Idempotent; submit() afterwards fast-fails. Called from the
  // store daemon's on_stop/on_crash, where command handlers may still be
  // racing in — the object stays valid, merely inert.
  void shutdown();

 private:
  struct Item {
    std::string record;
    std::shared_ptr<Pending> pending;
  };
  struct Lane {
    std::mutex mu;
    std::vector<Item> queue;
    bool flushing = false;  // a flush task is posted or running
  };

  // The lane's flush task: ships batches until the lane is empty.
  void flush(Lane* lane, const net::Address& peer);

  net::Reactor& reactor_;
  daemon::AceClient& client_;
  BatcherOptions options_;

  std::mutex lanes_mu_;
  std::atomic<bool> stopped_{false};
  std::map<net::Address, std::unique_ptr<Lane>> lanes_;
  // Revoked by shutdown(): queued flush tasks become no-ops and a running
  // one is waited out, so none touches a lane after it is gone.
  net::TaskGuard flushes_;

  obs::Counter* obs_flushes_;
  obs::Counter* obs_records_;
};

}  // namespace ace::store
