// The in-process ACE deployment every workload runs against: the paper's
// well-known infrastructure (ASD, Room Database, Network Logger,
// Authorization Database on one machine-room host), a KeyNote policy that
// trusts an admin key, a credential letting the benchmark's user act, and
// a durable 3-way replicated persistent store (N=3, W=2, R=2, each replica
// on its own host with a SimDisk). Workloads add their own hosts on top.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/environment.hpp"
#include "daemon/host.hpp"
#include "io/sim_disk.hpp"
#include "services/asd.hpp"
#include "services/auth_db.hpp"
#include "store/persistent_store.hpp"

namespace perfbench {

// Principal the load clients authenticate as; the credential granted at
// start() authorizes it for every command in app_domain "ace".
inline const std::string kUserPrincipal = "user/bench";
inline constexpr int kReplicas = 3;

// "<prefix><n>", built by appending (GCC 12 reports a false -Wrestrict on
// `"literal" + std::to_string(n)`).
inline std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

class Deployment {
 public:
  explicit Deployment(std::uint64_t seed);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Boots infrastructure and the store cluster, installs policy and
  // credential. Returns the first failure.
  ace::util::Status start();

  // A client on a new access-point host, authenticating as `principal`.
  std::unique_ptr<ace::daemon::AceClient> make_client(
      const std::string& host_name,
      const std::string& principal = kUserPrincipal);

  // A workload-owned machine; stopped before the infrastructure.
  ace::daemon::DaemonHost& add_host(const std::string& name);

  ace::daemon::Environment env;
  ace::daemon::DaemonHost* infra = nullptr;
  ace::services::AsdDaemon* asd = nullptr;
  std::vector<ace::store::PersistentStoreDaemon*> replicas;
  std::vector<std::shared_ptr<ace::io::SimDisk>> disks;
  std::vector<ace::net::Address> replica_addresses;
  std::unique_ptr<ace::daemon::AceClient> admin;

 private:
  // Infrastructure first, store hosts next, workload hosts last; torn
  // down in reverse.
  std::vector<std::unique_ptr<ace::daemon::DaemonHost>> hosts_;
};

// Median time of storeCompact (snapshot + WAL rotation) on the first
// replica at its current live size, ms.
double compact_ms(Deployment& d);

}  // namespace perfbench
