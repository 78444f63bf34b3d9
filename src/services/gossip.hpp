// Gossip membership for the federated directory tier (paper Ch 9: a campus
// of rooms, not one flat directory).
//
// Each room runs its own ASD; the ASDs learn about each other through an
// anti-entropy protocol: every `gossip_interval` a room picks
// `gossip_fanout` live peers and exchanges its full membership view
// (`gossipSync`). A view entry carries three monotonic counters:
//
//   * epoch     — the room ASD's incarnation, bumped on every (re)start. A
//                 higher epoch wins wholesale: the room came back and its
//                 old registry (and anything cached from it) is gone.
//   * version   — the registry mutation counter within an epoch, bumped on
//                 register/deregister/expiry. Peers invalidate their scoped
//                 query caches for the room when it advances.
//   * heartbeat — liveness within an epoch, bumped once per local round.
//
// Failure detection is round-based: a peer whose heartbeat has not advanced
// for `suspect_after_rounds` local rounds is marked suspect, and after
// `evict_after_rounds` it is evicted — excluded from query fan-out and from
// gossip peer selection. Any heartbeat/epoch advance (seen directly or via
// a third room) resurrects it. Evicted entries are kept (not erased) so a
// stale third-party view cannot flap them back alive; only genuinely newer
// state can. One evicted room is still probed directly each round: two
// sides of a healed partition that evicted each other are invisible to one
// another through normal peer selection (evicted rooms are withheld from
// sent views too), so only the probe lets them re-knit.
//
// Rooms behind bad links register with a relay/rendezvous daemon
// (relay.hpp); their view entries advertise the relay, and both gossip
// syncs and forwarded queries to them tunnel through `relayForward` — the
// syncspirit global-discovery + relay shape.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/environment.hpp"
#include "net/reactor.hpp"
#include "util/rng.hpp"

namespace ace::services {

// A statically-configured peer room: where its ASD listens and, for rooms
// behind bad links, the relay to tunnel through (empty host = direct).
struct GossipPeerSeed {
  std::string room;
  net::Address address;
  net::Address relay{};
};

enum class RoomState { alive, suspect, evicted };
const char* to_string(RoomState state);

// One room's entry in the membership view. Wire encoding (one vector
// element of `gossipSync view={...}`):
//   room|host:port|relayhost:relayport or -|epoch|version|heartbeat
struct RoomView {
  std::string room;
  net::Address address;
  net::Address relay{};
  std::uint64_t epoch = 0;
  std::uint64_t version = 0;
  std::uint64_t heartbeat = 0;
  RoomState state = RoomState::alive;
};

// Everything the federation tier needs, nested in AsdOptions. Disabled by
// default: a single-room deployment pays nothing.
struct FederationOptions {
  bool enabled = false;
  std::vector<GossipPeerSeed> seeds;

  // Membership protocol knobs.
  std::chrono::milliseconds gossip_interval{100};
  int gossip_fanout = 2;
  int suspect_after_rounds = 3;
  int evict_after_rounds = 10;
  std::chrono::milliseconds sync_timeout{500};

  // Cross-room query forwarding (consumed by AsdDaemon). A query whose
  // `room` constraint is non-local (or unconstrained) fans out to live peer
  // rooms in parallel on the ops pool; per-(room, pattern) results are
  // cached for `forward_cache_ttl`, bounded by the peer's gossip
  // epoch/version (any bump invalidates).
  bool forward_queries = true;
  std::chrono::milliseconds forward_timeout{750};
  std::chrono::milliseconds forward_cache_ttl{500};
  std::size_t forward_cache_max = 1024;

  // This room's own rendezvous relay (empty host = directly reachable).
  // When set, the agent keeps a `relayRegister` lease alive at the relay
  // and advertises it in every view entry it gossips.
  net::Address relay{};
  std::chrono::milliseconds relay_lease{2000};
};

// The per-room membership agent. Owned by an AsdDaemon; rounds run on a
// net::TimerLoop on the ops pool (they do bounded RPCs).
class GossipAgent {
 public:
  GossipAgent(daemon::Environment& env, std::string self_room,
              FederationOptions options);
  ~GossipAgent();

  GossipAgent(const GossipAgent&) = delete;
  GossipAgent& operator=(const GossipAgent&) = delete;

  // (Re)starts the round loop. Bumps the incarnation epoch — a restarted
  // directory's registry is empty, so peers must drop anything cached from
  // the previous life — and re-seeds the membership map from options
  // (volatile state died with the "process").
  void start(net::Address self_address,
             std::shared_ptr<daemon::AceClient> client);

  // Stops the round loop, waiting out a round running right now.
  void stop();

  // Registry mutation hook (register/deregister/expiry): advances the
  // version peers use to invalidate their scoped caches.
  void bump_version();

  std::uint64_t epoch() const;
  std::uint64_t version() const;
  const std::string& self_room() const { return self_room_; }

  // Full view snapshot, self entry first (introspection / gossipView).
  std::vector<RoomView> view() const;

  // Live (non-evicted, non-self) rooms matching `room_glob`, for query
  // fan-out.
  std::vector<RoomView> forward_targets(const std::string& room_glob) const;

  // The (epoch, version) this agent currently believes `room` is at;
  // nullopt for unknown rooms. Scoped-cache entries are valid only while
  // this pair matches their fill-time value.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> room_freshness(
      const std::string& room) const;

  // Handles an incoming `gossipSync`: merges the peer's encoded view and
  // returns our own (the reply payload). Thread-safe (concurrent_ok).
  std::vector<std::string> handle_sync(
      const std::vector<std::string>& peer_view);

  // Invoked (outside the agent lock) whenever a room's epoch or version
  // advanced — the ASD wires its forward-cache invalidation here. Set
  // before start().
  std::function<void(const std::string& room)> on_room_changed;

  static std::string encode_entry(const RoomView& v);
  static std::optional<RoomView> decode_entry(std::string_view s);

 private:
  struct Member {
    RoomView view;
    std::uint64_t last_advance_round = 0;  // local round of last heartbeat advance
  };

  void round();
  void register_with_relay(daemon::AceClient& client);
  std::vector<std::string> encode_view_locked() const;
  // Merge one incoming entry; appends the room to `changed` when its
  // epoch/version advanced (cache-invalidation signal).
  void merge_entry_locked(const RoomView& incoming,
                          std::vector<std::string>& changed);

  daemon::Environment& env_;
  const std::string self_room_;
  const FederationOptions options_;

  obs::Counter* obs_rounds_;
  obs::Counter* obs_syncs_;
  obs::Counter* obs_sync_failures_;
  obs::Counter* obs_merges_;
  obs::Counter* obs_suspicions_;
  obs::Counter* obs_evictions_;
  obs::Gauge* obs_live_rooms_;

  mutable std::mutex mu_;
  std::shared_ptr<daemon::AceClient> client_;
  RoomView self_;
  std::unordered_map<std::string, Member> members_;
  std::uint64_t incarnation_ = 0;  // survives restarts of this object
  std::uint64_t round_ = 0;        // local round number, resets per epoch
  util::Rng rng_;  // touched only by rounds (ticks never overlap)

  // Round loop, every gossip_interval (last member: stopped first).
  net::TimerLoop loop_;
};

// Sends `cmd` to a room's ASD: directly, or tunneled through `relayForward`
// when the target advertises a relay. Error replies (outer or tunneled)
// come back as util errors either way, so callers handle a relayed room
// exactly like a direct one.
util::Result<cmdlang::CmdLine> call_room(daemon::AceClient& client,
                                         const RoomView& target,
                                         const cmdlang::CmdLine& cmd,
                                         std::chrono::milliseconds timeout);

}  // namespace ace::services
