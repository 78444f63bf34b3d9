// Tests for the ACE service daemon core: builtin commands, notifications
// (§2.5), startup sequence (§2.6), leases (§2.4), authorization (§3.2),
// device hierarchy (§2.3 Fig 6) and failure behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ace_test_env.hpp"
#include "daemon/devices.hpp"
#include "keynote/checker.hpp"
#include "services/auth_db.hpp"
#include "util/rng.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

// A minimal concrete daemon for poking at base behaviour.
class EchoDaemon : public daemon::ServiceDaemon {
 public:
  EchoDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("echo", "echo the text back")
            .arg(cmdlang::string_arg("text")),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
    register_command(
        cmdlang::CommandSpec("whoami", "report caller principal"),
        [](const CmdLine&, const daemon::CallerInfo& caller) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("principal", caller.principal);
          return reply;
        });
  }
};

// Notification sink: records every invocation of its `sink` command.
class SinkDaemon : public daemon::ServiceDaemon {
 public:
  SinkDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("sink", "notification sink")
            .arg(cmdlang::string_arg("source"))
            .arg(cmdlang::word_arg("command"))
            .arg(cmdlang::string_arg("detail")),
        [this](const CmdLine& cmd, const daemon::CallerInfo&) {
          std::scoped_lock lock(mu_);
          received_.push_back(cmd.get_text("detail"));
          return cmdlang::make_ok();
        });
  }

  std::vector<std::string> received() const {
    std::scoped_lock lock(mu_);
    return received_;
  }

  bool wait_for(std::size_t n, std::chrono::milliseconds timeout) const {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::scoped_lock lock(mu_);
        if (received_.size() >= n) return true;
      }
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> received_;
};

// Two no-op verbs on the two execution paths: `peek` is concurrent_ok (it
// runs on the connection's strand), `poke` is serialized (control pump).
class MemoDaemon : public daemon::ServiceDaemon {
 public:
  MemoDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("peek", "concurrent no-op").concurrent_ok(),
        [](const CmdLine&, const daemon::CallerInfo&) {
          return cmdlang::make_ok();
        });
    register_command(cmdlang::CommandSpec("poke", "serialized no-op"),
                     [](const CmdLine&, const daemon::CallerInfo&) {
                       return cmdlang::make_ok();
                     });
  }
};

// Serves scripted getCredentials replies, forged and unsigned ones
// included, which the real Authorization Database would refuse to store.
class ScriptedAuthDb : public daemon::ServiceDaemon {
 public:
  ScriptedAuthDb(daemon::Environment& env, daemon::DaemonHost& host,
                 daemon::DaemonConfig config,
                 std::map<std::string, std::vector<std::string>> credentials)
      : ServiceDaemon(env, host, std::move(config)),
        credentials_(std::move(credentials)) {
    register_command(
        cmdlang::CommandSpec("getCredentials", "scripted credentials")
            .arg(cmdlang::string_arg("principal")),
        [this](const CmdLine& cmd, const daemon::CallerInfo&) {
          auto it = credentials_.find(cmd.get_text("principal"));
          CmdLine reply = cmdlang::make_ok();
          reply.arg("credentials",
                    cmdlang::string_vector(it == credentials_.end()
                                               ? std::vector<std::string>{}
                                               : it->second));
          return reply;
        });
  }

 private:
  const std::map<std::string, std::vector<std::string>> credentials_;
};

util::Errc outcome(const CmdLine& reply) {
  return cmdlang::is_ok(reply) ? util::Errc::ok
                               : cmdlang::reply_error(reply).code;
}

}  // namespace

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    host_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "work");
    client_ = deployment_->make_client("laptop", "user/tester");
  }

  daemon::DaemonConfig config(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "hawk";
    return c;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::DaemonHost> host_;
  std::unique_ptr<daemon::AceClient> client_;
};

TEST_F(DaemonTest, BuiltinPingInfoHelp) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo1"));
  ASSERT_TRUE(echo.start().ok());

  auto ping = client_->call(echo.address(), CmdLine("ping"), daemon::kCallOk);
  ASSERT_TRUE(ping.ok());

  auto info = client_->call(echo.address(), CmdLine("info"), daemon::kCallOk);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->get_text("name"), "echo1");
  EXPECT_EQ(info->get_text("room"), "hawk");
  auto commands = info->get_vector("commands");
  ASSERT_TRUE(commands.has_value());
  EXPECT_GE(commands->elements.size(), 8u);  // builtins + echo + whoami

  CmdLine help("help");
  help.arg("command", Word{"echo"});
  auto h = client_->call(echo.address(), help, daemon::kCallOk);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->get_text("command"), "echo");
}

TEST_F(DaemonTest, CustomCommandRoundTrip) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo2"));
  ASSERT_TRUE(echo.start().ok());
  CmdLine cmd("echo");
  cmd.arg("text", "hello ace");
  auto reply = client_->call(echo.address(), cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->get_text("text"), "hello ace");
}

TEST_F(DaemonTest, CallerPrincipalFromCertificate) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo3"));
  ASSERT_TRUE(echo.start().ok());
  auto reply = client_->call(echo.address(), CmdLine("whoami"), daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->get_text("principal"), "user/tester");
}

TEST_F(DaemonTest, UnknownCommandAndBadSyntaxRejected) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo4"));
  ASSERT_TRUE(echo.start().ok());

  auto bad = client_->call(echo.address(), CmdLine("teleport"));
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(cmdlang::is_error(bad.value()));
  EXPECT_EQ(cmdlang::reply_error(bad.value()).code,
            util::Errc::semantic_error);

  CmdLine missing("echo");  // required arg absent
  auto miss = client_->call(echo.address(), missing);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(cmdlang::is_error(miss.value()));
  EXPECT_GE(echo.stats().commands_rejected, 2u);
}

TEST_F(DaemonTest, NotificationsFireOnCommandExecution) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source1"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink1"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"echo"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), sub, daemon::kCallOk).ok());

  CmdLine cmd("echo");
  cmd.arg("text", "notify me");
  ASSERT_TRUE(client_->call(echo.address(), cmd, daemon::kCallOk).ok());

  ASSERT_TRUE(sink.wait_for(1, 2s));
  auto received = sink.received();
  ASSERT_EQ(received.size(), 1u);
  // The detail carries the original command, parseable per Fig 5.
  auto detail = cmdlang::Parser::parse(received[0]);
  ASSERT_TRUE(detail.ok());
  EXPECT_EQ(detail->name(), "echo");
  EXPECT_EQ(detail->get_text("text"), "notify me");
}

TEST_F(DaemonTest, RemoveNotificationStopsDelivery) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source2"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink2"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"echo"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), sub, daemon::kCallOk).ok());

  CmdLine unsub("removeNotification");
  unsub.arg("command", Word{"echo"});
  unsub.arg("service", sink.address().to_string());
  ASSERT_TRUE(client_->call(echo.address(), unsub, daemon::kCallOk).ok());

  CmdLine cmd("echo");
  cmd.arg("text", "should not notify");
  ASSERT_TRUE(client_->call(echo.address(), cmd, daemon::kCallOk).ok());
  EXPECT_FALSE(sink.wait_for(1, 300ms));
}

TEST_F(DaemonTest, FailingCommandDoesNotNotify) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source3"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink3"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"echo"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), sub, daemon::kCallOk).ok());

  (void)client_->call(echo.address(), CmdLine("echo"));  // missing arg
  EXPECT_FALSE(sink.wait_for(1, 300ms));
}

TEST_F(DaemonTest, LeaseExpiryRemovesCrashedDaemon) {
  daemon::DaemonConfig c = config("mortal");
  c.lease = 300ms;
  c.lease_renew = 100ms;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  std::size_t before = deployment_->asd->live_count();
  ASSERT_TRUE(echo.start().ok());
  EXPECT_EQ(deployment_->asd->live_count(), before + 1);

  // While renewing, the service outlives several lease periods.
  std::this_thread::sleep_for(700ms);
  EXPECT_EQ(deployment_->asd->live_count(), before + 1);

  // Crash (no deregistration): reaped after the lease runs out.
  echo.crash();
  std::this_thread::sleep_for(600ms);
  EXPECT_EQ(deployment_->asd->live_count(), before);
}

TEST_F(DaemonTest, AuthorizationDeniesUnauthorizedPrincipal) {
  // POLICY: only user/alice may run commands in app_domain ace.
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("user/alice");
  policy.conditions = "app_domain == \"ace\"";
  deployment_->env.add_policy(policy);

  daemon::DaemonConfig c = config("guarded");
  c.enforce_authorization = true;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  auto alice = deployment_->make_client("alice-pc", "user/alice");
  CmdLine cmd("echo");
  cmd.arg("text", "hi");
  auto allowed = alice->call(echo.address(), cmd, daemon::kCallOk);
  EXPECT_TRUE(allowed.ok()) << (allowed.ok() ? "" : allowed.error().to_string());

  auto mallory = deployment_->make_client("mallory-pc", "user/mallory");
  auto denied = mallory->call(echo.address(), cmd);
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(cmdlang::is_error(denied.value()));
  EXPECT_EQ(cmdlang::reply_error(denied.value()).code, util::Errc::auth_error);
  EXPECT_GE(echo.stats().authorizations_denied, 1u);
}

TEST_F(DaemonTest, AuthorizationViaAuthDbCredential) {
  // POLICY delegates to the admin key; admin grants user/bob via the
  // Authorization Database (Fig 10 flow end to end).
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);

  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin", "user/bob",
                  "command ~= \"echo*\"")
                  .ok());

  daemon::DaemonConfig c = config("guarded2");
  c.enforce_authorization = true;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  auto bob = deployment_->make_client("bob-pc", "user/bob");
  CmdLine cmd("echo");
  cmd.arg("text", "hi");
  auto allowed = bob->call(echo.address(), cmd, daemon::kCallOk);
  EXPECT_TRUE(allowed.ok()) << (allowed.ok() ? "" : allowed.error().to_string());

  // The credential is command-scoped: ping is not covered.
  auto denied = bob->call(echo.address(), CmdLine("ping"));
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(cmdlang::is_error(denied.value()));
}

TEST_F(DaemonTest, StatsCountConnectionsAndCommands) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("counted"));
  ASSERT_TRUE(echo.start().ok());
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(client_->call(echo.address(), CmdLine("ping"), daemon::kCallOk).ok());
  auto stats = echo.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);  // cached channel reused
  EXPECT_EQ(stats.commands_executed, 5u);
}

// --------------------------------------------------------- device hierarchy

TEST_F(DaemonTest, DeviceInheritsBaseAndAddsPower) {
  daemon::DaemonConfig c = config("cam");
  auto& camera =
      host_->add_daemon<daemon::PtzCameraDaemon>(c, daemon::vcc3_spec());
  ASSERT_TRUE(camera.start().ok());

  // Inherited Service-level command.
  ASSERT_TRUE(client_->call(camera.address(), CmdLine("ping"), daemon::kCallOk).ok());

  // Device-level power command.
  auto status = client_->call(camera.address(), CmdLine("deviceStatus"), daemon::kCallOk);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->get_text("powered"), "off");

  // Camera rejects motion while off.
  CmdLine move("ptzMove");
  move.arg("pan", 10.0);
  move.arg("tilt", 0.0);
  auto rejected = client_->call(camera.address(), move);
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE(cmdlang::is_error(rejected.value()));

  ASSERT_TRUE(client_->call(camera.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());
  EXPECT_TRUE(client_->call(camera.address(), move, daemon::kCallOk).ok());
}

TEST_F(DaemonTest, ModelSpecsDifferVcc3Vcc4) {
  auto& vcc3 = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam3"),
                                                          daemon::vcc3_spec());
  auto& vcc4 = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam4"),
                                                          daemon::vcc4_spec());
  ASSERT_TRUE(vcc3.start().ok());
  ASSERT_TRUE(vcc4.start().ok());
  ASSERT_TRUE(client_->call(vcc3.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());
  ASSERT_TRUE(client_->call(vcc4.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());

  // pan=95 is inside the VCC4 envelope but outside the VCC3's.
  CmdLine move("ptzMove");
  move.arg("pan", 95.0);
  move.arg("tilt", 0.0);
  auto r3 = client_->call(vcc3.address(), move);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(cmdlang::is_error(r3.value()));
  EXPECT_TRUE(client_->call(vcc4.address(), move, daemon::kCallOk).ok());
}

TEST_F(DaemonTest, ProjectorStateMachine) {
  auto& proj = host_->add_daemon<daemon::ProjectorDaemon>(
      config("proj"), daemon::epson7350_spec());
  ASSERT_TRUE(proj.start().ok());
  ASSERT_TRUE(client_->call(proj.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());

  CmdLine input("projSetInput");
  input.arg("input", Word{"network"});
  ASSERT_TRUE(client_->call(proj.address(), input, daemon::kCallOk).ok());

  CmdLine display("projDisplay");
  display.arg("source", "workspace/john/default");
  ASSERT_TRUE(client_->call(proj.address(), display, daemon::kCallOk).ok());

  CmdLine pip("projPictureInPicture");
  pip.arg("source", "camera1");
  pip.arg("enable", Word{"on"});
  ASSERT_TRUE(client_->call(proj.address(), pip, daemon::kCallOk).ok());

  auto state = proj.projector_state();
  EXPECT_EQ(state.input, "network");
  EXPECT_EQ(state.source_service, "workspace/john/default");
  EXPECT_TRUE(state.picture_in_picture);
  EXPECT_EQ(state.pip_source, "camera1");
}

TEST_F(DaemonTest, StoppedDaemonRefusesConnections) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("stopping"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(client_->call(echo.address(), CmdLine("ping"), daemon::kCallOk).ok());
  net::Address addr = echo.address();
  echo.stop();
  client_->drop_connection(addr);
  auto reply =
      client_->call(addr, CmdLine("ping"), daemon::CallOptions{.timeout = 200ms});
  EXPECT_FALSE(reply.ok());
}

// ------------------------------------------------ authorization memo (Fig 10)

TEST_F(DaemonTest, AuthMemoRunsOneCheckPerCommandPerCredentialFetch) {
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);
  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin", "user/bob",
                  "command == \"peek\"")
                  .ok());

  daemon::DaemonConfig c = config("memo");
  c.enforce_authorization = true;
  c.credential_cache_ttl = 1000ms;
  auto& svc = host_->add_daemon<MemoDaemon>(c);
  ASSERT_TRUE(svc.start().ok());
  auto bob = deployment_->make_client("bob-pc", "user/bob");
  obs::Counter& checks =
      deployment_->env.metrics().counter("daemon.auth.checks");
  const std::uint64_t base = checks.value();

  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(bob->call(svc.address(), CmdLine("peek"), daemon::kCallOk).ok());
  EXPECT_EQ(checks.value() - base, 1u);

  // A second verb costs one more check. It is denied; the denial is
  // memoized too, yet every denied call is still counted.
  for (int i = 0; i < 3; ++i) {
    auto denied = bob->call(svc.address(), CmdLine("poke"));
    ASSERT_TRUE(denied.ok());
    EXPECT_EQ(outcome(denied.value()), util::Errc::auth_error);
  }
  EXPECT_EQ(checks.value() - base, 2u);
  EXPECT_EQ(svc.stats().authorizations_denied, 3u);

  // The memo expires with its credential-cache entry.
  std::this_thread::sleep_for(1100ms);
  ASSERT_TRUE(bob->call(svc.address(), CmdLine("peek"), daemon::kCallOk).ok());
  EXPECT_EQ(checks.value() - base, 3u);
}

// Strand commands, control-pump commands and in-process execute all fill
// and read one principal's memo while its cache entry expires and is
// re-fetched every few milliseconds.
TEST_F(DaemonTest, AuthMemoRacesAcrossTtlExpiry) {
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);
  ASSERT_TRUE(services::grant_credential(*client_,
                                         deployment_->env.auth_db_address,
                                         deployment_->env, "admin",
                                         "user/bob", "")
                  .ok());

  daemon::DaemonConfig c = config("memo-race");
  c.enforce_authorization = true;
  c.credential_cache_ttl = 20ms;
  auto& svc = host_->add_daemon<MemoDaemon>(c);
  ASSERT_TRUE(svc.start().ok());
  auto strand_client = deployment_->make_client("bob-a", "user/bob");
  auto pump_client = deployment_->make_client("bob-b", "user/bob");
  obs::Counter& checks =
      deployment_->env.metrics().counter("daemon.auth.checks");
  const std::uint64_t base = checks.value();

  std::atomic<int> failures{0};
  const auto deadline = std::chrono::steady_clock::now() + 300ms;
  auto over_the_wire = [&](daemon::AceClient& client, const char* verb) {
    while (std::chrono::steady_clock::now() < deadline) {
      auto reply = client.call(svc.address(), CmdLine(verb));
      if (!reply.ok() || !cmdlang::is_ok(reply.value())) ++failures;
    }
  };
  {
    std::jthread strand([&] { over_the_wire(*strand_client, "peek"); });
    std::jthread pump([&] { over_the_wire(*pump_client, "poke"); });
    std::jthread local([&] {
      const daemon::CallerInfo bob{"user/bob", {}};
      for (int i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
        CmdLine reply = svc.execute(CmdLine(i % 2 ? "peek" : "poke"), bob);
        if (!cmdlang::is_ok(reply)) ++failures;
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(checks.value() - base, 3u);  // re-checked after expiries
}

// The memo must not move a decision. Over random policies, random
// credential sets (valid, unsigned, forged, signed by the wrong key, with
// glob command conditions and one malformed condition) and random command
// sequences on both execution paths, each reply's outcome equals a fresh
// ComplianceChecker::check of the same query.
TEST(AuthMemoProperty, MemoizedDecisionsEqualFreshChecks) {
  const std::vector<std::string> keys = {"k0", "k1", "k2"};
  const std::vector<std::string> principals = {"user/p0", "user/p1",
                                               "user/p2", "user/p3"};
  const std::vector<std::string> verbs = {"peek", "poke", "ping", "info"};
  const std::vector<std::string> conditions = {
      "",
      "command == \"peek\"",
      "command ~= \"p*\"",
      "command ~= \"po*\"",
      "room == \"hawk\"",
      "principal == \"user/p1\"",
      "service == \"elsewhere\"",
      "app_domain == \"ace\" && command != \"info\"",
      "command ==",  // malformed: the check fails with an error
  };

  std::map<util::Errc, int> seen;  // outcomes over all seeds
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    auto pick = [&rng](const std::vector<std::string>& v) {
      return v[rng.next_below(v.size())];
    };
    auto random_licensee = [&]() -> keynote::LicenseePtr {
      switch (rng.next_below(4)) {
        case 0:
          return keynote::licensee_any(
              {keynote::licensee_key(pick(keys)),
               keynote::licensee_key(pick(principals))});
        case 1:
          return keynote::licensee_key(pick(principals));
        default:
          return keynote::licensee_key(pick(keys));
      }
    };

    daemon::Environment env(seed);
    env.auth_db_address = {"infra", daemon::kAuthDbPort};
    for (const auto& k : keys) env.register_principal(k);
    env.register_principal("mallory");
    const std::uint64_t policy_count = 1 + rng.next_below(2);
    for (std::uint64_t i = 0; i < policy_count; ++i) {
      keynote::Assertion policy;
      policy.authorizer = keynote::kPolicyAuthorizer;
      policy.licensees = random_licensee();
      policy.conditions = pick(conditions);
      env.add_policy(policy);
    }

    std::map<std::string, std::vector<std::string>> served;
    for (const auto& principal : principals) {
      const std::uint64_t n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        keynote::Assertion cred;
        cred.authorizer = pick(keys);
        cred.licensees = rng.next_bool(0.6)
                             ? keynote::licensee_key(principal)
                             : random_licensee();
        cred.conditions = pick(conditions);
        switch (rng.next_below(5)) {
          case 0:  // unsigned
            break;
          case 1:  // forged: one signature bit flipped
            ASSERT_TRUE(env.keys().sign(cred).ok());
            cred.signature[rng.next_below(cred.signature.size())] ^= 0x01;
            break;
          case 2: {  // signed by another principal's key
            const std::string claimed = cred.authorizer;
            cred.authorizer = "mallory";
            ASSERT_TRUE(env.keys().sign(cred).ok());
            cred.authorizer = claimed;
            break;
          }
          default:
            ASSERT_TRUE(env.keys().sign(cred).ok());
        }
        served[principal].push_back(cred.serialize());
      }
    }

    daemon::DaemonHost infra(env, "infra");
    daemon::DaemonConfig db_config;
    db_config.name = "scripted-auth-db";
    db_config.port = daemon::kAuthDbPort;
    infra.add_daemon<ScriptedAuthDb>(db_config, served);
    ASSERT_TRUE(infra.start_all().ok());

    daemon::DaemonHost work(env, "work");
    daemon::DaemonConfig c;
    c.name = "guarded";
    c.room = "hawk";
    c.enforce_authorization = true;
    c.credential_cache_ttl = 60s;
    auto& svc = work.add_daemon<MemoDaemon>(c);
    ASSERT_TRUE(svc.start().ok());

    std::vector<std::unique_ptr<daemon::AceClient>> clients;
    for (const auto& principal : principals) {
      auto& host = env.network().add_host("pc-" + principal.substr(5));
      clients.push_back(std::make_unique<daemon::AceClient>(
          env, host, env.issue_identity(principal)));
    }

    for (int step = 0; step < 60; ++step) {
      const std::size_t who = rng.next_below(principals.size());
      const std::string verb = pick(verbs);

      keynote::ComplianceQuery query;
      query.requester = principals[who];
      query.action = {{"app_domain", "ace"},
                      {"service", svc.config().name},
                      {"service_class", svc.config().service_class},
                      {"room", svc.config().room},
                      {"command", verb},
                      {"principal", principals[who]}};
      query.policies = env.policies();
      for (const auto& text : served[principals[who]])
        if (auto a = keynote::Assertion::parse(text); a.ok())
          query.credentials.push_back(std::move(a.value()));
      auto fresh = keynote::ComplianceChecker::check(query, &env.keys());
      const util::Errc want = !fresh.ok()             ? fresh.error().code
                              : fresh->authorized     ? util::Errc::ok
                                                      : util::Errc::auth_error;

      CmdLine reply;
      if (rng.next_bool(0.7)) {
        auto r = clients[who]->call(svc.address(), CmdLine(verb));
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        reply = std::move(r.value());
      } else {
        reply = svc.execute(CmdLine(verb), {principals[who], {}});
      }
      EXPECT_EQ(outcome(reply), want)
          << "step " << step << ": " << principals[who] << " " << verb
          << " -> " << reply.to_string();
      ++seen[want];
    }
    clients.clear();
  }
  // The seeds exercise allows, denials and failed checks alike.
  EXPECT_GT(seen[util::Errc::ok], 0);
  EXPECT_GT(seen[util::Errc::auth_error], 0);
  EXPECT_EQ(seen.size(), 3u);
}
