// campus_directory: directory traffic across a federated campus (paper
// §2.4, Ch 9): 8 rooms x 250 services, one ASD per room, gossip on.
//
// Why: the work lands in the ASD index, gossip, and the parallel fan-out
// through the forward cache, on the concurrent_ok ops-strand path. Writes
// (room-local register/deregister churn) run beside reads and bump the
// room's gossip version, which invalidates the peers' forward caches — so
// a faster query cache that slows churn or serves stale answers shows.
//
// Each load thread is a roaming client: it sits at one room's access point
// for kStayOps ops, then drops that channel and moves on (thread t roams
// the rooms with index % kLoadThreads == t, so the threads never share a
// channel and the shared AceClient holds at most kLoadThreads
// connections). Its mix: ~60 % exact lookups at the current room's ASD
// (AsdClient cache off), ~25 % `room=*` class queries, ~15 % churn of its
// own names in the current room. Lookups must resolve to the registered
// address and every query must return exactly the generated count.
#include <thread>

#include "services/asd.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ace::cmdlang::CmdLine;
using ace::cmdlang::Word;
using namespace std::chrono_literals;

constexpr int kRooms = 8;
constexpr int kPerRoom = 250;
constexpr int kClasses = 10;  // 25 services per class per room
constexpr int kStayOps = 256;
constexpr std::size_t kChurnLive = 4;  // live churn names per thread per room

std::string room_name(int r) { return numbered("r", r); }
std::string site_name(int r) { return numbered("site-r", r); }
std::string service_name(int r, int i) {
  return numbered(numbered("svc-r", r) + "-", i);
}
std::string class_name(int k) {
  return numbered("Service/Synthetic/Kind", k);
}

struct ThreadState {
  ace::util::Rng rng;
  int room = 0;
  int ops_in_room = 0;
  std::uint64_t next_churn = 0;
  std::vector<std::vector<std::string>> churn;  // live names, per room
};

class CampusDirectory final : public Workload {
 public:
  ace::util::Status setup(std::uint64_t seed) override {
    d_ = std::make_unique<Deployment>(seed);
    if (auto s = d_->start(); !s.ok()) return s;
    asds_.clear();
    addresses_.clear();
    for (int r = 0; r < kRooms; ++r)
      addresses_.push_back({site_name(r), ace::daemon::kAsdPort});
    for (int r = 0; r < kRooms; ++r) {
      ace::services::FederationOptions fed;
      fed.enabled = true;
      for (int p = 0; p < kRooms; ++p)
        if (p != r) fed.seeds.push_back({room_name(p), addresses_[p], {}});
      ace::daemon::DaemonConfig c;
      c.name = "asd-" + room_name(r);
      c.port = ace::daemon::kAsdPort;
      c.room = room_name(r);
      c.register_with_asd = false;
      c.register_with_room_db = false;
      c.log_to_net_logger = false;
      ace::services::AsdOptions opts;
      opts.max_lease = std::chrono::minutes{10};
      opts.federation = std::move(fed);
      asds_.push_back(&d_->add_host(site_name(r))
                           .add_daemon<ace::services::AsdDaemon>(c, opts));
    }
    const auto gossip_start = std::chrono::steady_clock::now();
    for (auto* asd : asds_)
      if (auto s = asd->start(); !s.ok()) return s;

    // Populate in process: registration is room-local.
    const ace::daemon::CallerInfo caller{kUserPrincipal, {}};
    for (int r = 0; r < kRooms; ++r)
      for (int i = 0; i < kPerRoom; ++i) {
        CmdLine reg("register");
        reg.arg("name", Word{service_name(r, i)});
        reg.arg("host", site_name(r));
        reg.arg("port", std::int64_t{1000 + i});
        reg.arg("room", Word{room_name(r)});
        reg.arg("class", class_name(i % kClasses));
        reg.arg("lease", std::int64_t{600000});
        if (!ace::cmdlang::is_ok(asds_[r]->execute(reg, caller)))
          return {ace::util::Errc::invalid, "campus population failed"};
      }
    if (!wait_converged(10s))
      return {ace::util::Errc::timeout, "gossip did not converge"};
    converge_ms_ = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - gossip_start)
                       .count();

    client_ = d_->make_client("campus-ap");
    for (int t = 0; t < kLoadThreads; ++t) {
      ThreadState& st = threads_[t];
      st.rng = ace::util::Rng(seed * 1000003 + t);
      st.room = t;
      st.ops_in_room = 0;
      st.next_churn = 0;
      st.churn.assign(kRooms, {});
    }
    replay_round_ = 0;
    return ace::util::Status::ok_status();
  }

  void teardown() override {
    client_.reset();
    asds_.clear();
    d_.reset();
  }

  Deployment& deployment() override { return *d_; }
  int warmup_ops() const override { return 1200; }

  OpResult run_op(int t) override {
    ThreadState& st = threads_[t];
    if (++st.ops_in_room > kStayOps) roam(t, st);
    ace::services::AsdClient asd(*client_, addresses_[st.room]);
    const std::uint64_t roll = st.rng.next_below(100);
    OpResult out;
    if (roll < 60) {
      const int i = static_cast<int>(st.rng.next_below(kPerRoom));
      auto r = asd.lookup(service_name(st.room, i));
      if (!r.ok()) {
        out.failed = true;
        return out;
      }
      out.wrong = r->address.host != site_name(st.room) ||
                  r->address.port != 1000 + i;
      return out;
    }
    if (roll < 85) {
      const int k = static_cast<int>(st.rng.next_below(kClasses));
      auto r = asd.query("*", class_name(k), "*");
      if (!r.ok()) {
        out.failed = true;
        return out;
      }
      out.wrong = r->size() != std::size_t{kRooms} * kPerRoom / kClasses;
      return out;
    }
    out.kind = OpKind::write;
    auto& live = st.churn[static_cast<std::size_t>(st.room)];
    if (live.size() >= kChurnLive ||
        (!live.empty() && st.rng.next_below(2) == 0)) {
      out.failed = !asd.deregister(live.front()).ok();
      live.erase(live.begin());
      return out;
    }
    std::string name =
        numbered(numbered("churn-t", t) + "-", st.next_churn++);
    ace::services::ServiceRegistration reg;
    reg.name = name;
    reg.address = {numbered("roamer-", t), 4000};
    reg.room = room_name(st.room);
    reg.service_class = "Service/Churn";
    reg.lease = std::chrono::minutes{10};
    out.failed = !asd.register_service(reg).ok();
    if (!out.failed) live.push_back(std::move(name));
    return out;
  }

  ace::util::Status first_call(ace::daemon::AceClient& client) override {
    ace::services::AsdClient asd(client, addresses_[0]);
    auto r = asd.lookup(service_name(0, 0));
    return r.ok() ? ace::util::Status::ok_status()
                  : ace::util::Status(r.error());
  }

  void replay(Series& series) override {
    const std::uint64_t round = replay_round_++;
    const int r = static_cast<int>(round % kRooms);
    replay_asd(*asds_[static_cast<std::size_t>(r)],
               service_name(r, static_cast<int>(round % kPerRoom)),
               class_name(static_cast<int>(round % kClasses)), room_name(r),
               round, true, series);
    replay_store(*d_, round, false, series);
  }

  std::vector<SampleCommand> sample_commands() override {
    CmdLine lookup("lookup");
    lookup.arg("name", Word{service_name(3, 17)});
    CmdLine query("query");
    query.arg("name", "*");
    query.arg("class", class_name(4));
    query.arg("room", "*");
    CmdLine reg("register");
    reg.arg("name", Word{"churn-t0-12"});
    reg.arg("host", "roamer-0");
    reg.arg("port", std::int64_t{4000});
    reg.arg("room", Word{room_name(3)});
    reg.arg("class", "Service/Churn");
    reg.arg("lease", std::int64_t{600000});
    CmdLine dereg("deregister");
    dereg.arg("name", Word{"churn-t0-12"});
    return {{lookup, asds_[3]}, {query, asds_[3]}, {reg, asds_[3]},
            {dereg, asds_[3]}};
  }

  double gossip_converge_ms() const override { return converge_ms_; }

 private:
  // Moves thread t to another of its rooms, dropping the old channel as a
  // client changing access points would.
  void roam(int t, ThreadState& st) {
    client_->drop_connection(addresses_[st.room]);
    const int own = kRooms / kLoadThreads;
    st.room = t + kLoadThreads * static_cast<int>(st.rng.next_below(own));
    st.ops_in_room = 1;
  }

  // Every room has heard from every other room and none is evicted.
  bool wait_converged(std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      bool converged = true;
      for (auto* asd : asds_) {
        const auto view = asd->gossip()->view();
        if (view.size() != asds_.size()) converged = false;
        for (const auto& v : view)
          if (v.state == ace::services::RoomState::evicted ||
              v.heartbeat == 0)
            converged = false;
      }
      if (converged) return true;
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }

  std::unique_ptr<Deployment> d_;
  std::unique_ptr<ace::daemon::AceClient> client_;
  std::vector<ace::services::AsdDaemon*> asds_;
  std::vector<ace::net::Address> addresses_;
  ThreadState threads_[kLoadThreads];
  std::uint64_t replay_round_ = 0;
  double converge_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campus_directory() {
  return std::make_unique<CampusDirectory>();
}

}  // namespace perfbench
