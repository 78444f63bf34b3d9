#include "services/gossip.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "cmdlang/parser.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::Word;
using daemon::CallOptions;

const char* to_string(RoomState state) {
  switch (state) {
    case RoomState::alive: return "alive";
    case RoomState::suspect: return "suspect";
    case RoomState::evicted: return "evicted";
  }
  return "?";
}

std::string GossipAgent::encode_entry(const RoomView& v) {
  return v.room + "|" + v.address.to_string() + "|" +
         (v.relay.host.empty() ? std::string("-") : v.relay.to_string()) +
         "|" + std::to_string(v.epoch) + "|" + std::to_string(v.version) +
         "|" + std::to_string(v.heartbeat);
}

std::optional<RoomView> GossipAgent::decode_entry(std::string_view s) {
  auto parts = util::split(s, '|');
  if (parts.size() != 6) return std::nullopt;
  RoomView v;
  v.room = parts[0];
  auto addr = net::Address::parse(parts[1]);
  if (!addr || v.room.empty()) return std::nullopt;
  v.address = *addr;
  if (parts[2] != "-") {
    auto relay = net::Address::parse(parts[2]);
    if (!relay) return std::nullopt;
    v.relay = *relay;
  }
  char* end = nullptr;
  v.epoch = std::strtoull(parts[3].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  v.version = std::strtoull(parts[4].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  v.heartbeat = std::strtoull(parts[5].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return v;
}

GossipAgent::GossipAgent(daemon::Environment& env, std::string self_room,
                         FederationOptions options)
    : env_(env),
      self_room_(std::move(self_room)),
      options_(std::move(options)),
      obs_rounds_(&env.metrics().counter("asd.gossip_rounds")),
      obs_syncs_(&env.metrics().counter("asd.gossip_syncs")),
      obs_sync_failures_(&env.metrics().counter("asd.gossip_sync_failures")),
      obs_merges_(&env.metrics().counter("asd.gossip_merges")),
      obs_suspicions_(&env.metrics().counter("asd.gossip_suspicions")),
      obs_evictions_(&env.metrics().counter("asd.gossip_evictions")),
      obs_live_rooms_(&env.metrics().gauge("asd.gossip_live_rooms")),
      rng_(env.next_seed()),
      loop_(env.reactor(),
            [this]() -> std::optional<net::Reactor::Clock::duration> {
              round();
              return options_.gossip_interval;
            }) {}

GossipAgent::~GossipAgent() { stop(); }

void GossipAgent::start(net::Address self_address,
                        std::shared_ptr<daemon::AceClient> client) {
  loop_.stop();  // restarted without stop(): end the old life's rounds first
  std::scoped_lock lock(mu_);
  client_ = std::move(client);
  // New incarnation: whatever peers cached from the previous life is dead.
  ++incarnation_;
  round_ = 0;
  self_ = RoomView{self_room_, self_address, options_.relay,
                   /*epoch=*/incarnation_, /*version=*/0, /*heartbeat=*/0,
                   RoomState::alive};
  // Volatile membership died with the process: re-seed from configuration.
  // Seeds start at epoch 0 / last_advance 0, so a seed that never answers
  // ages into suspicion and eviction like any silent peer.
  members_.clear();
  for (const auto& seed : options_.seeds) {
    if (seed.room == self_room_ || members_.contains(seed.room)) continue;
    Member m;
    m.view.room = seed.room;
    m.view.address = seed.address;
    m.view.relay = seed.relay;
    members_.emplace(seed.room, std::move(m));
  }
  obs_live_rooms_->set(static_cast<std::int64_t>(members_.size() + 1));
  loop_.start(options_.gossip_interval);
}

void GossipAgent::stop() {
  loop_.stop();  // waits out a round running right now
  std::shared_ptr<daemon::AceClient> client;
  std::scoped_lock lock(mu_);
  client = std::move(client_);
}

void GossipAgent::bump_version() {
  std::scoped_lock lock(mu_);
  ++self_.version;
}

std::uint64_t GossipAgent::epoch() const {
  std::scoped_lock lock(mu_);
  return self_.epoch;
}

std::uint64_t GossipAgent::version() const {
  std::scoped_lock lock(mu_);
  return self_.version;
}

std::vector<RoomView> GossipAgent::view() const {
  std::scoped_lock lock(mu_);
  std::vector<RoomView> out;
  out.reserve(members_.size() + 1);
  out.push_back(self_);
  for (const auto& [room, m] : members_) out.push_back(m.view);
  std::sort(out.begin() + 1, out.end(),
            [](const RoomView& a, const RoomView& b) { return a.room < b.room; });
  return out;
}

std::vector<RoomView> GossipAgent::forward_targets(
    const std::string& room_glob) const {
  std::scoped_lock lock(mu_);
  std::vector<RoomView> out;
  for (const auto& [room, m] : members_) {
    if (m.view.state == RoomState::evicted) continue;
    if (!util::glob_match(room_glob, room)) continue;
    out.push_back(m.view);
  }
  std::sort(out.begin(), out.end(),
            [](const RoomView& a, const RoomView& b) { return a.room < b.room; });
  return out;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
GossipAgent::room_freshness(const std::string& room) const {
  std::scoped_lock lock(mu_);
  auto it = members_.find(room);
  if (it == members_.end()) return std::nullopt;
  return std::make_pair(it->second.view.epoch, it->second.view.version);
}

std::vector<std::string> GossipAgent::encode_view_locked() const {
  // Evicted rooms are withheld: eviction propagates by silence (each agent
  // ages peers on its own round clock), never by forwarding stale entries.
  std::vector<std::string> out;
  out.reserve(members_.size() + 1);
  out.push_back(encode_entry(self_));
  for (const auto& [room, m] : members_)
    if (m.view.state != RoomState::evicted)
      out.push_back(encode_entry(m.view));
  return out;
}

void GossipAgent::merge_entry_locked(const RoomView& in,
                                     std::vector<std::string>& changed) {
  if (in.room == self_room_) return;  // we are authoritative for ourselves
  auto it = members_.find(in.room);
  if (it == members_.end()) {
    Member m;
    m.view = in;
    m.view.state = RoomState::alive;
    m.last_advance_round = round_;
    members_.emplace(in.room, std::move(m));
    obs_merges_->inc();
    changed.push_back(in.room);
    return;
  }
  Member& m = it->second;
  const bool newer_epoch = in.epoch > m.view.epoch;
  const bool hb_advance =
      newer_epoch ||
      (in.epoch == m.view.epoch && in.heartbeat > m.view.heartbeat);
  const bool ver_advance =
      newer_epoch || (in.epoch == m.view.epoch && in.version > m.view.version);
  if (!hb_advance && !ver_advance) return;
  obs_merges_->inc();
  if (newer_epoch) {
    m.view.epoch = in.epoch;
    m.view.version = in.version;
    m.view.heartbeat = in.heartbeat;
  } else {
    if (hb_advance) m.view.heartbeat = in.heartbeat;
    if (ver_advance) m.view.version = in.version;
  }
  // Endpoints ride any advance (a restarted room may have moved).
  m.view.address = in.address;
  m.view.relay = in.relay;
  if (hb_advance) {
    m.last_advance_round = round_;
    m.view.state = RoomState::alive;  // resurrection if suspect/evicted
  }
  if (ver_advance) changed.push_back(in.room);
}

std::vector<std::string> GossipAgent::handle_sync(
    const std::vector<std::string>& peer_view) {
  std::vector<std::string> changed;
  std::vector<std::string> reply;
  {
    std::scoped_lock lock(mu_);
    for (const auto& entry : peer_view)
      if (auto v = decode_entry(entry)) merge_entry_locked(*v, changed);
    reply = encode_view_locked();
  }
  if (on_room_changed)
    for (const auto& room : changed) on_room_changed(room);
  return reply;
}

void GossipAgent::round() {
  std::shared_ptr<daemon::AceClient> client;
  std::vector<RoomView> candidates;
  std::vector<RoomView> evicted;
  std::vector<std::string> payload;
  std::uint64_t round_no = 0;
  {
    std::scoped_lock lock(mu_);
    client = client_;
    if (!client) return;
    round_no = ++round_;
    ++self_.heartbeat;
    std::int64_t live = 1;
    for (auto& [room, m] : members_) {
      const std::uint64_t behind = round_ - m.last_advance_round;
      if (behind >= static_cast<std::uint64_t>(options_.evict_after_rounds)) {
        if (m.view.state != RoomState::evicted) {
          m.view.state = RoomState::evicted;
          obs_evictions_->inc();
          util::log_warn("gossip/" + self_room_)
              << "evicted room '" << room << "' after " << behind
              << " silent rounds";
        }
      } else if (behind >=
                 static_cast<std::uint64_t>(options_.suspect_after_rounds)) {
        if (m.view.state == RoomState::alive) {
          m.view.state = RoomState::suspect;
          obs_suspicions_->inc();
        }
      }
      if (m.view.state != RoomState::evicted) {
        candidates.push_back(m.view);
        ++live;
      } else {
        evicted.push_back(m.view);
      }
    }
    obs_live_rooms_->set(live);
    payload = encode_view_locked();
  }
  obs_rounds_->inc();

  // Fisher-Yates prefix: pick `fanout` distinct peers uniformly. rng_ is
  // only touched here, and rounds are serialized by the timer loop.
  const std::size_t fanout =
      std::min<std::size_t>(candidates.size(),
                            static_cast<std::size_t>(
                                std::max(options_.gossip_fanout, 0)));
  for (std::size_t i = 0; i < fanout; ++i) {
    std::size_t j = i + static_cast<std::size_t>(
                            rng_.next_below(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(fanout);

  // Rejoin probe: one evicted room also gets a sync each round. Eviction
  // removes a room from peer selection and from forwarded views on BOTH
  // sides of a partition, so after the link heals neither side would ever
  // contact the other again without a direct probe — mutual eviction would
  // otherwise be a permanent split.
  if (!evicted.empty())
    candidates.push_back(
        evicted[static_cast<std::size_t>(rng_.next_below(evicted.size()))]);

  for (const RoomView& peer : candidates) {
    CmdLine sync("gossipSync");
    sync.arg("from", Word{self_room_});
    sync.arg("view", cmdlang::string_vector(payload));
    obs_syncs_->inc();
    auto reply = call_room(*client, peer, sync, options_.sync_timeout);
    if (!reply.ok()) {
      // Silence is the failure signal: the peer's heartbeat stops
      // advancing and the round clock ages it into suspicion.
      obs_sync_failures_->inc();
      continue;
    }
    std::vector<std::string> entries;
    if (auto vec = reply->get_vector("view")) {
      for (const auto& elem : vec->elements)
        if (elem.is_string() || elem.is_word())
          entries.push_back(elem.as_text());
    }
    std::vector<std::string> changed;
    {
      std::scoped_lock lock(mu_);
      for (const auto& entry : entries)
        if (auto v = decode_entry(entry)) merge_entry_locked(*v, changed);
    }
    if (on_room_changed)
      for (const auto& room : changed) on_room_changed(room);
  }

  // Keep our relay lease alive at roughly half its horizon.
  if (!options_.relay.host.empty()) {
    const std::uint64_t every = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(options_.relay_lease.count()) /
               (2 * std::max<std::uint64_t>(
                        1, static_cast<std::uint64_t>(
                               options_.gossip_interval.count()))));
    if (round_no == 1 || round_no % every == 0) register_with_relay(*client);
  }
}

void GossipAgent::register_with_relay(daemon::AceClient& client) {
  net::Address self_addr;
  {
    std::scoped_lock lock(mu_);
    self_addr = self_.address;
  }
  CmdLine reg("relayRegister");
  reg.arg("room", Word{self_room_});
  reg.arg("host", self_addr.host);
  reg.arg("port", static_cast<std::int64_t>(self_addr.port));
  reg.arg("lease", static_cast<std::int64_t>(options_.relay_lease.count()));
  auto r = client.call(options_.relay, reg,
                       CallOptions{.timeout = options_.sync_timeout,
                                   .require_ok = true});
  if (!r.ok())
    util::log_warn("gossip/" + self_room_)
        << "relay registration failed: " << r.error().to_string();
}

util::Result<CmdLine> call_room(daemon::AceClient& client,
                                const RoomView& target, const CmdLine& cmd,
                                std::chrono::milliseconds timeout) {
  if (target.relay.host.empty())
    return client.call(target.address, cmd,
                       CallOptions{.timeout = timeout, .require_ok = true});
  CmdLine tunnel("relayForward");
  tunnel.arg("room", Word{target.room});
  tunnel.arg("cmd", cmd.to_string());
  auto outer = client.call(target.relay, tunnel,
                           CallOptions{.timeout = timeout, .require_ok = true});
  if (!outer.ok()) return outer.error();
  auto inner = cmdlang::Parser::parse(outer->get_text("reply"));
  if (!inner.ok())
    return util::Error{util::Errc::parse_error,
                       "unparseable relayed reply from room '" + target.room +
                           "'"};
  if (!cmdlang::is_ok(inner.value()))
    return util::Error{util::Errc::unavailable,
                       "relayed command to room '" + target.room +
                           "' failed: " + inner.value().to_string()};
  return inner.value();
}

}  // namespace ace::services
