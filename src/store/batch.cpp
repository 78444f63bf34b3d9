#include "store/batch.hpp"

#include "cmdlang/value.hpp"
#include "daemon/wire.hpp"

namespace ace::store {

using std::chrono::steady_clock;

bool ReplicationBatcher::Pending::wait_until(steady_clock::time_point deadline) {
  std::unique_lock lock(mu_);
  cv_.wait_until(lock, deadline, [this] { return done_; });
  return done_ && ok_;
}

void ReplicationBatcher::Pending::settle(bool ok) {
  {
    std::scoped_lock lock(mu_);
    done_ = true;
    ok_ = ok;
  }
  cv_.notify_all();
}

ReplicationBatcher::ReplicationBatcher(daemon::Environment& env,
                                       daemon::AceClient& client,
                                       BatcherOptions options)
    : reactor_(env.reactor()),
      client_(client),
      options_(options),
      obs_flushes_(&env.metrics().counter("store.batch_flushes")),
      obs_records_(&env.metrics().counter("store.batch_records")) {}

ReplicationBatcher::~ReplicationBatcher() { shutdown(); }

std::shared_ptr<ReplicationBatcher::Pending> ReplicationBatcher::submit(
    const net::Address& peer, std::string record) {
  auto pending = std::make_shared<Pending>();
  Lane* lane = nullptr;
  bool post = false;
  {
    // lanes_mu_ stays held across the push, so shutdown() cannot free the
    // lane under it.
    std::scoped_lock lock(lanes_mu_);
    if (stopped_) {
      pending->settle(false);
      return pending;
    }
    auto& slot = lanes_[peer];
    if (!slot) slot = std::make_unique<Lane>();
    lane = slot.get();
    std::scoped_lock lane_lock(lane->mu);
    lane->queue.push_back(Item{std::move(record), pending});
    post = !std::exchange(lane->flushing, true);
  }
  // Only the write that finds the lane idle wakes the pool; later ones
  // ride the flush already under way.
  if (post)
    reactor_.post_blocking(
        flushes_.wrap([this, lane, peer] { flush(lane, peer); }));
  return pending;
}

void ReplicationBatcher::shutdown() {
  std::map<net::Address, std::unique_ptr<Lane>> lanes;
  {
    std::scoped_lock lock(lanes_mu_);
    stopped_ = true;
    lanes.swap(lanes_);
  }
  flushes_.revoke();  // a flush in flight finishes its batch, then quits
  for (auto& [peer, lane] : lanes)
    for (auto& item : lane->queue) item.pending->settle(false);
}

void ReplicationBatcher::flush(Lane* lane, const net::Address& peer) {
  for (;;) {
    std::vector<Item> batch;
    {
      std::scoped_lock lock(lane->mu);
      // Empty lane: the next submit posts a fresh task. Stopped: shutdown()
      // fails the leftovers.
      if (lane->queue.empty() || stopped_) {
        lane->flushing = false;
        return;
      }
      batch.swap(lane->queue);
    }

    std::vector<std::string> records;
    records.reserve(batch.size());
    for (auto& item : batch) records.push_back(std::move(item.record));
    cmdlang::CmdLine cmd("storeReplicateBatch");
    cmd.arg("entries", daemon::wire::pack_batch(records));

    auto reply = client_.call(
        peer, cmd,
        daemon::CallOptions{.timeout = options_.call_timeout, .retries = 0});
    const bool ok = reply.ok() && cmdlang::is_ok(reply.value());

    obs_flushes_->inc();
    obs_records_->inc(batch.size());
    for (auto& item : batch) item.pending->settle(ok);
  }
}

}  // namespace ace::store
