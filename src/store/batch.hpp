// Group commit for store replication: a per-peer batcher that coalesces
// concurrent replicated writes into one framed `storeReplicateBatch` RPC
// per peer per flush, riding the pipelined command channel.
//
// Each destination replica gets a *lane*: a queue plus a flusher thread.
// Writers enqueue an opaque record and receive a Pending handle to await
// the replica's acknowledgement. The flusher sends immediately when idle;
// while a batch RPC is in flight, new records pile up behind it and the
// next flush ships them all in one frame — classic group commit, where the
// in-flight round trip is the natural coalescing window. An optional
// `flush_interval` adds a fixed wait before each flush to trade write
// latency for bigger batches (docs/store.md discusses tuning).
//
// A batch either lands whole (the peer applies every record; LWW apply
// cannot fail per-record) or fails whole (transport error / timeout), so
// one reply settles every Pending in the flight.
#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "obs/metrics.hpp"

namespace ace::store {

struct BatcherOptions {
  // Extra coalescing wait once a flush has at least one record. 0 = flush
  // as soon as the lane is idle (in-flight RPCs still batch naturally).
  std::chrono::milliseconds flush_interval{0};
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

  ReplicationBatcher(obs::MetricsRegistry& metrics, daemon::AceClient& client,
                     BatcherOptions options);
  ~ReplicationBatcher();

  ReplicationBatcher(const ReplicationBatcher&) = delete;
  ReplicationBatcher& operator=(const ReplicationBatcher&) = delete;

  // Enqueues a record for `peer`; never blocks on the network. After
  // shutdown() the returned handle is already settled as failed.
  std::shared_ptr<Pending> submit(const net::Address& peer,
                                  std::string record);

  // Stops every lane (joins flushers) and fails all queued records.
  // Idempotent; submit() afterwards fast-fails. Called from the store
  // daemon's on_stop/on_crash, where command handlers may still be racing
  // in — the object stays valid, merely inert.
  void shutdown();

 private:
  struct Item {
    std::string record;
    std::shared_ptr<Pending> pending;
  };
  struct Lane {
    std::mutex mu;
    std::condition_variable_any cv;
    std::vector<Item> queue;
    std::jthread flusher;  // joined by shutdown()
  };

  void flusher_loop(std::stop_token st, Lane* lane, net::Address peer);

  daemon::AceClient& client_;
  BatcherOptions options_;

  std::mutex lanes_mu_;
  bool stopped_ = false;
  std::map<net::Address, std::unique_ptr<Lane>> lanes_;

  obs::Counter* obs_flushes_;
  obs::Counter* obs_records_;
};

}  // namespace ace::store
