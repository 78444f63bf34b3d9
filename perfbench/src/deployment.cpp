#include "deployment.hpp"

#include <chrono>

#include "stats.hpp"
#include "workload.hpp"

#include "services/net_logger.hpp"
#include "services/room_db.hpp"

namespace perfbench {

using ace::daemon::DaemonConfig;

Deployment::Deployment(std::uint64_t seed) : env(seed) {
  env.channel_options().encrypt = true;
  env.asd_address = {"infra", ace::daemon::kAsdPort};
  env.room_db_address = {"infra", ace::daemon::kRoomDbPort};
  env.net_logger_address = {"infra", ace::daemon::kNetLoggerPort};
  env.auth_db_address = {"infra", ace::daemon::kAuthDbPort};
  // Fig 10 trust chain: POLICY -> admin-key -> the benchmark's user (the
  // credential itself is stored in the AuthDB by start()). Installed
  // before any daemon runs: the environment is read-only afterwards.
  env.register_principal("admin-key");
  ace::keynote::Assertion policy;
  policy.authorizer = ace::keynote::kPolicyAuthorizer;
  policy.licensees = ace::keynote::licensee_key("admin-key");
  env.add_policy(policy);

  infra = &add_host("infra");
  auto infra_config = [](const char* name, std::uint16_t port) {
    DaemonConfig c;
    c.name = name;
    c.port = port;
    c.room = "machine-room";
    return c;
  };
  DaemonConfig asd_config = infra_config("asd", ace::daemon::kAsdPort);
  asd_config.register_with_room_db = false;  // boots before the Room DB
  ace::services::AsdOptions asd_options;
  asd_options.max_lease = std::chrono::minutes{10};  // outlive every run
  asd = &infra->add_daemon<ace::services::AsdDaemon>(asd_config, asd_options);
  infra->add_daemon<ace::services::RoomDbDaemon>(
      infra_config("room-db", ace::daemon::kRoomDbPort));
  infra->add_daemon<ace::services::NetLoggerDaemon>(
      infra_config("net-logger", ace::daemon::kNetLoggerPort),
      ace::services::NetLoggerOptions{});
  infra->add_daemon<ace::services::AuthDbDaemon>(
      infra_config("auth-db", ace::daemon::kAuthDbPort));

  for (int i = 0; i < kReplicas; ++i) {
    const std::string name = numbered("store", i + 1);
    auto& host = add_host(name);
    DaemonConfig c;
    c.name = name;
    c.room = "machine-room";
    c.port = 6000;
    ace::store::StoreOptions options;
    options.replication = 3;
    options.write_quorum = 2;
    options.read_quorum = 2;
    disks.push_back(std::make_shared<ace::io::SimDisk>(seed * 10 + i));
    options.disk = disks.back();
    replicas.push_back(&host.add_daemon<ace::store::PersistentStoreDaemon>(
        c, i + 1, options));
  }
}

Deployment::~Deployment() {
  admin.reset();
  for (auto it = hosts_.rbegin(); it != hosts_.rend(); ++it) (*it)->stop_all();
  hosts_.clear();
}

ace::daemon::DaemonHost& Deployment::add_host(const std::string& name) {
  hosts_.push_back(std::make_unique<ace::daemon::DaemonHost>(env, name));
  return *hosts_.back();
}

ace::util::Status Deployment::start() {
  if (auto s = infra->start_all(); !s.ok()) return s;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    std::vector<ace::net::Address> peers;
    for (std::size_t j = 0; j < replicas.size(); ++j)
      if (j != i) peers.push_back(replicas[j]->address());
    replicas[i]->set_peers(std::move(peers));
    if (auto s = replicas[i]->start(); !s.ok()) return s;
    replica_addresses.push_back(replicas[i]->address());
  }

  admin = make_client("admin-ap", "user/admin");
  return ace::services::grant_credential(*admin, env.auth_db_address, env,
                                         "admin-key", kUserPrincipal,
                                         "app_domain == \"ace\"");
}

std::unique_ptr<ace::daemon::AceClient> Deployment::make_client(
    const std::string& host_name, const std::string& principal) {
  auto& host = env.network().add_host(host_name);
  return std::make_unique<ace::daemon::AceClient>(
      env, host, env.issue_identity(principal));
}

namespace {

using Clock = std::chrono::steady_clock;
using ace::cmdlang::CmdLine;
using ace::cmdlang::Word;

// The identity in-process replays run as: the same principal the load
// clients authenticate as, so authorization takes the same path.
const ace::daemon::CallerInfo kReplayCaller{kUserPrincipal, {}};

}  // namespace

void timed_execute(ace::daemon::ServiceDaemon& daemon, const CmdLine& cmd,
                   Series& series, const std::string& series_name,
                   bool primary) {
  const auto start = Clock::now();
  const CmdLine reply = daemon.execute(cmd, kReplayCaller);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  if (!ace::cmdlang::is_ok(reply)) return;
  series[series_name].push_back(us);
  if (primary) series["daemon.execute_us"].push_back(us);
}

void replay_store(Deployment& d, std::uint64_t round, bool primary,
                  Series& series) {
  // Probe keys live in their own namespace, never touched by load.
  const std::string key = numbered("perfbench-probe/", round % 64);
  CmdLine put("storePut");
  put.arg("key", key);
  put.arg("data", ace::store::hex_of(ace::util::Bytes(1024, 0x5a)));
  auto& coordinator = *d.replicas[round % d.replicas.size()];
  timed_execute(coordinator, put, series, "store.put_us", primary);
  CmdLine get("storeGet");
  get.arg("key", key);
  timed_execute(coordinator, get, series, "store.get_us", primary);
}

void replay_asd(ace::services::AsdDaemon& asd, const std::string& known,
                const std::string& query_class, const std::string& room,
                std::uint64_t round, bool primary, Series& series) {
  CmdLine lookup("lookup");
  lookup.arg("name", Word{known});
  timed_execute(asd, lookup, series, "services.asd_lookup_us", primary);
  CmdLine query("query");
  query.arg("name", "*");
  query.arg("class", query_class);
  query.arg("room", "*");
  timed_execute(asd, query, series, "services.asd_query_us", primary);
  const std::string probe = numbered("perfbench-probe-", round % 8);
  CmdLine reg("register");
  reg.arg("name", Word{probe});
  reg.arg("host", "probe-site");
  reg.arg("port", std::int64_t{7000});
  reg.arg("room", Word{room});
  reg.arg("class", "Service/Probe");
  reg.arg("lease", std::int64_t{60000});
  timed_execute(asd, reg, series, "services.asd_register_us", primary);
  CmdLine dereg("deregister");
  dereg.arg("name", Word{probe});
  (void)asd.execute(dereg, kReplayCaller);
}

double compact_ms(Deployment& d) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    if (!d.replicas.front()->compact_now().ok()) continue;
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
  }
  return median(ms);
}

}  // namespace perfbench
