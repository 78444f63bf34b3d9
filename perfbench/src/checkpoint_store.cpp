// checkpoint_store: robust-application checkpoints (paper §5.2-5.3) through
// StoreClient::save_state / load_state into the deployment's 3 durable
// replicas (N=3, W=2, R=2, SimDisk WAL with group-commit fsync, default
// compaction threshold).
//
// Why: each op fans into 3-5 internal RPCs plus group commit, WAL fsync and
// digest reads on the ops pool, so the store and io layers do most of the
// work here and none elsewhere; reads and writes take different paths.
//
// Each load thread owns a disjoint key range and writes 1 KiB values, half
// of its ops; load_state must return the bytes the thread last had acked.
//
// Sizing: live data is kKeysPerThread x kLoadThreads x 1 KiB (~3 MiB) per
// replica, so the 1 MiB WAL threshold triggers a stop-the-world compaction
// about every 400 writes (~2.5 per 1000 across the cluster), each holding
// a replica's lock for ~15 ms. On a 4-vCPU host only ~0.3 % of ops wait
// behind one: p99_us sits clearly outside the stall mass (p99.9 inside),
// and the stall itself is reported per layer (store.compact_ms,
// store.compactions_per_kwrite). Live data stays at a few MiB because RSS
// runs at tens of times the live data.
#include <atomic>
#include <thread>

#include "store/store_client.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kKeysPerThread = 1500;
constexpr std::size_t kValueBytes = 1024;
const std::string kService = "perfbench";

struct ThreadState {
  ace::util::Rng rng;
  std::unique_ptr<ace::store::StoreClient> store;
  // Last acked value per owned key; empty = unknown (a write failed, so
  // either value may be stored and reads are not checked until the next
  // acked write).
  std::vector<ace::util::Bytes> acked;
};

std::string key_name(int t, std::size_t i) {
  return numbered(numbered("t", t) + "-", i);
}

class CheckpointStore final : public Workload {
 public:
  ace::util::Status setup(std::uint64_t seed) override {
    d_ = std::make_unique<Deployment>(seed);
    if (auto s = d_->start(); !s.ok()) return s;
    client_ = d_->make_client("app-ap");
    for (int t = 0; t < kLoadThreads; ++t) {
      ThreadState& st = threads_[t];
      st.rng = ace::util::Rng(seed * 1000003 + t);
      st.store = std::make_unique<ace::store::StoreClient>(
          *client_, d_->replica_addresses, kReplicas);
      st.acked.assign(kKeysPerThread, {});
    }
    // Populate every owned key once, both threads in parallel.
    std::atomic<bool> ok{true};
    std::vector<std::thread> loaders;
    for (int t = 0; t < kLoadThreads; ++t)
      loaders.emplace_back([&, t] {
        for (std::size_t i = 0; i < kKeysPerThread; ++i)
          if (!write(t, i).ok()) ok.store(false);
      });
    for (auto& l : loaders) l.join();
    replay_round_ = 0;
    if (!ok.load())
      return {ace::util::Errc::unavailable, "store population failed"};
    return ace::util::Status::ok_status();
  }

  void teardown() override {
    for (auto& st : threads_) st.store.reset();
    client_.reset();
    d_.reset();
  }

  Deployment& deployment() override { return *d_; }
  int warmup_ops() const override { return 1000; }

  OpResult run_op(int t) override {
    ThreadState& st = threads_[t];
    const std::size_t i = st.rng.next_below(kKeysPerThread);
    OpResult out;
    if (st.rng.next_below(2) == 0) {
      out.kind = OpKind::write;
      out.bytes_written = kValueBytes;
      out.failed = !write(t, i).ok();
      return out;
    }
    auto r = st.store->load_state(kService, key_name(t, i));
    if (!r.ok()) {
      out.failed = true;
      return out;
    }
    const auto& expected = st.acked[i];
    out.wrong = !expected.empty() && r.value() != expected;
    return out;
  }

  ace::util::Status first_call(ace::daemon::AceClient& client) override {
    ace::cmdlang::CmdLine get("storeGet");
    get.arg("key", "state/" + kService + "/" + key_name(0, 0));
    auto r = client.call(d_->replica_addresses.front(), get,
                         ace::daemon::kCallOk);
    return r.ok() ? ace::util::Status::ok_status()
                  : ace::util::Status(r.error());
  }

  void replay(Series& series) override {
    const std::uint64_t round = replay_round_++;
    replay_store(*d_, round, true, series);
    replay_asd(*d_->asd, "store1", "Service/*", "machine-room", round, false,
               series);
  }

  std::vector<SampleCommand> sample_commands() override {
    ace::cmdlang::CmdLine put("storePut");
    put.arg("key", "state/" + kService + "/" + key_name(0, 7));
    put.arg("data", ace::store::hex_of(ace::util::Bytes(kValueBytes, 0x21)));
    ace::cmdlang::CmdLine get("storeGet");
    get.arg("key", "state/" + kService + "/" + key_name(1, 7));
    return {{put, d_->replicas.front()}, {get, d_->replicas.front()}};
  }

  std::uint64_t live_bytes() const override {
    return std::uint64_t{kKeysPerThread} * kLoadThreads * kValueBytes;
  }

 private:
  // Writes a fresh seeded value to thread t's key i and records it as
  // acked; on failure the key's value becomes unknown.
  ace::util::Status write(int t, std::size_t i) {
    ThreadState& st = threads_[t];
    ace::util::Bytes value(kValueBytes);
    std::uint64_t word = st.rng.next();
    for (std::size_t b = 0; b < kValueBytes; ++b) {
      if (b % 8 == 0 && b) word = st.rng.next();
      value[b] = static_cast<std::uint8_t>(word >> (8 * (b % 8)));
    }
    auto s = st.store->save_state(kService, key_name(t, i), value);
    st.acked[i] = s.ok() ? std::move(value) : ace::util::Bytes{};
    return s;
  }

  std::unique_ptr<Deployment> d_;
  std::unique_ptr<ace::daemon::AceClient> client_;
  ThreadState threads_[kLoadThreads];
  std::uint64_t replay_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_checkpoint_store() {
  return std::make_unique<CheckpointStore>();
}

}  // namespace perfbench
