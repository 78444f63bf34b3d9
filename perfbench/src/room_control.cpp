// room_control: secure, KeyNote-authorized device commands (paper §3,
// Fig 10) against one room of two PTZ cameras and a projector.
//
// Why: single-hop commands with trivial handlers put almost all of their
// time in the command path — wire, crypto, parse, validate, authorize on a
// warm credential cache, the serialized control pump (device commands are
// not concurrent_ok) and the client demux wake. Neither the store nor the
// directory is on the path.
//
// Load thread t owns camera t; thread 0 also owns the projector. A get
// must return exactly what the owning thread last set.
#include <cmath>

#include "daemon/devices.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ace::cmdlang::CmdLine;

struct CameraModel {
  double pan = 0.0, tilt = 0.0, zoom = 1.0;
  std::int64_t frame_rate = 15;
  std::string resolution = "640x480";
};

struct ThreadState {
  ace::util::Rng rng;
  CameraModel camera;
  std::int64_t brightness = 80;  // thread 0 only
};

const std::int64_t kRates[] = {5, 15, 30};
const char* const kResolutions[] = {"320x240", "640x480"};

class RoomControl final : public Workload {
 public:
  ace::util::Status setup(std::uint64_t seed) override {
    d_ = std::make_unique<Deployment>(seed);
    if (auto s = d_->start(); !s.ok()) return s;
    auto& host = d_->add_host("hawk-av");
    auto config = [](const char* name) {
      ace::daemon::DaemonConfig c;
      c.name = name;
      c.room = "hawk";
      c.enforce_authorization = true;
      // A warm credential cache for the whole run: one AuthDB fetch at
      // the first command, none inside the measured window.
      c.credential_cache_ttl = std::chrono::minutes{30};
      return c;
    };
    cameras_[0] = &host.add_daemon<ace::daemon::PtzCameraDaemon>(
        config("cam0"), ace::daemon::vcc3_spec());
    cameras_[1] = &host.add_daemon<ace::daemon::PtzCameraDaemon>(
        config("cam1"), ace::daemon::vcc4_spec());
    projector_ = &host.add_daemon<ace::daemon::ProjectorDaemon>(
        config("proj"), ace::daemon::epson7350_spec());
    // Replays go to their own camera so the load's models stay exact.
    probe_camera_ = &host.add_daemon<ace::daemon::PtzCameraDaemon>(
        config("cam-probe"), ace::daemon::vcc3_spec());
    if (auto s = host.start_all(); !s.ok()) return s;

    client_ = d_->make_client("hawk-ap");
    for (ace::daemon::ServiceDaemon* dev :
         {static_cast<ace::daemon::ServiceDaemon*>(cameras_[0]),
          static_cast<ace::daemon::ServiceDaemon*>(cameras_[1]),
          static_cast<ace::daemon::ServiceDaemon*>(projector_),
          static_cast<ace::daemon::ServiceDaemon*>(probe_camera_)}) {
      auto r = client_->call(dev->address(), CmdLine("deviceOn"),
                             ace::daemon::kCallOk);
      if (!r.ok()) return r.error();
    }
    for (int t = 0; t < kLoadThreads; ++t)
      threads_[t] = ThreadState{ace::util::Rng(seed * 1000003 + t), {}, 80};
    replay_round_ = 0;
    return ace::util::Status::ok_status();
  }

  void teardown() override {
    client_.reset();
    d_.reset();
  }

  Deployment& deployment() override { return *d_; }
  int warmup_ops() const override { return 10000; }

  OpResult run_op(int t) override {
    ThreadState& st = threads_[t];
    auto& camera = *cameras_[t];
    const std::uint64_t roll = st.rng.next_below(100);
    // Thread 0 splits its time between its camera and the projector.
    const bool projector = t == 0 && st.rng.next_below(3) == 0;
    if (roll < 70) {  // ~70 % reads
      if (projector) return proj_get(st);
      if (roll < 20) return device_status(projector_->address());
      if (roll < 30) return device_status(camera.address());
      return ptz_get(camera, st);
    }
    if (projector) {
      st.brightness = st.rng.next_range(0, 100);
      CmdLine cmd("projSetBrightness");
      cmd.arg("brightness", st.brightness);
      return expect_ok(projector_->address(), cmd);
    }
    if (roll < 88) {
      // Quarter-degree grid inside the narrower (VCC3) envelope, so the
      // reply's %.17g reals compare exactly.
      st.camera.pan = static_cast<double>(st.rng.next_range(-360, 360)) / 4;
      st.camera.tilt = static_cast<double>(st.rng.next_range(-100, 100)) / 4;
      st.camera.zoom = 1.0 + static_cast<double>(st.rng.next_range(0, 36)) / 4;
      CmdLine cmd("ptzMove");
      cmd.arg("pan", st.camera.pan);
      cmd.arg("tilt", st.camera.tilt);
      cmd.arg("zoom", st.camera.zoom);
      return expect_ok(camera.address(), cmd);
    }
    st.camera.frame_rate = kRates[st.rng.next_below(3)];
    st.camera.resolution = kResolutions[st.rng.next_below(2)];
    CmdLine cmd("ptzSetCapture");
    cmd.arg("frame_rate", st.camera.frame_rate);
    cmd.arg("resolution", st.camera.resolution);
    return expect_ok(camera.address(), cmd);
  }

  ace::util::Status first_call(ace::daemon::AceClient& client) override {
    auto r = client.call(cameras_[0]->address(), CmdLine("deviceStatus"),
                         ace::daemon::kCallOk);
    return r.ok() ? ace::util::Status::ok_status()
                  : ace::util::Status(r.error());
  }

  void replay(Series& series) override {
    const std::uint64_t round = replay_round_++;
    CmdLine cmd("ptzGet");
    if (round % 3 == 1) {
      cmd = CmdLine("ptzMove");
      cmd.arg("pan", static_cast<double>(round % 40));
      cmd.arg("tilt", 0.0);
    } else if (round % 3 == 2) {
      cmd = CmdLine("deviceStatus");
    }
    timed_execute(*probe_camera_, cmd, series, "daemon.execute_us", false);
    replay_store(*d_, round, false, series);
    replay_asd(*d_->asd, "cam0", "Service/Device/*", "hawk", round, false,
               series);
  }

  std::vector<SampleCommand> sample_commands() override {
    CmdLine move("ptzMove");
    move.arg("pan", 12.5);
    move.arg("tilt", -3.25);
    move.arg("zoom", 2.0);
    CmdLine capture("ptzSetCapture");
    capture.arg("frame_rate", std::int64_t{30});
    capture.arg("resolution", "320x240");
    CmdLine bright("projSetBrightness");
    bright.arg("brightness", std::int64_t{55});
    return {{CmdLine("ptzGet"), cameras_[0]},
            {move, cameras_[0]},
            {capture, cameras_[0]},
            {CmdLine("deviceStatus"), cameras_[0]},
            {CmdLine("projGet"), projector_},
            {bright, projector_}};
  }

 private:
  OpResult expect_ok(const ace::net::Address& to, const CmdLine& cmd) {
    OpResult out;
    out.kind = OpKind::write;
    auto r = client_->call(to, cmd);
    out.failed = !r.ok() || !ace::cmdlang::is_ok(r.value());
    return out;
  }

  OpResult device_status(const ace::net::Address& to) {
    OpResult out;
    auto r = client_->call(to, CmdLine("deviceStatus"));
    if (!r.ok() || !ace::cmdlang::is_ok(r.value())) {
      out.failed = true;
      return out;
    }
    out.wrong = r->get_text("powered") != "on";
    return out;
  }

  OpResult ptz_get(ace::daemon::PtzCameraDaemon& camera,
                   const ThreadState& st) {
    OpResult out;
    auto r = client_->call(camera.address(), CmdLine("ptzGet"));
    if (!r.ok() || !ace::cmdlang::is_ok(r.value())) {
      out.failed = true;
      return out;
    }
    const CmdLine& reply = r.value();
    const CameraModel& m = st.camera;
    out.wrong = reply.get_real("pan", NAN) != m.pan ||
                reply.get_real("tilt", NAN) != m.tilt ||
                reply.get_real("zoom", NAN) != m.zoom ||
                reply.get_integer("frame_rate", -1) != m.frame_rate ||
                reply.get_text("resolution") != m.resolution;
    return out;
  }

  OpResult proj_get(const ThreadState& st) {
    OpResult out;
    auto r = client_->call(projector_->address(), CmdLine("projGet"));
    if (!r.ok() || !ace::cmdlang::is_ok(r.value())) {
      out.failed = true;
      return out;
    }
    out.wrong = r->get_integer("brightness", -1) != st.brightness ||
                r->get_text("model") != "Epson7350";
    return out;
  }

  std::unique_ptr<Deployment> d_;
  std::unique_ptr<ace::daemon::AceClient> client_;
  ace::daemon::PtzCameraDaemon* cameras_[kLoadThreads] = {};
  ace::daemon::ProjectorDaemon* projector_ = nullptr;
  ace::daemon::PtzCameraDaemon* probe_camera_ = nullptr;
  ThreadState threads_[kLoadThreads];
  std::uint64_t replay_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_room_control() {
  return std::make_unique<RoomControl>();
}

}  // namespace perfbench
