#include "net/reactor.hpp"

#include <algorithm>
#include <utility>

namespace ace::net {

// ------------------------------------------------------------------- Reactor

Reactor::Reactor(Options options, obs::MetricsRegistry* metrics)
    : options_(options) {
  if (options_.core_workers < 1) options_.core_workers = 1;
  if (options_.ops_min < 1) options_.ops_min = 1;
  if (options_.ops_max < options_.ops_min) options_.ops_max = options_.ops_min;
  if (metrics) {
    obs_tasks_ = &metrics->counter("reactor.tasks");
    obs_blocking_tasks_ = &metrics->counter("reactor.blocking_tasks");
    obs_timers_ = &metrics->counter("reactor.timers_fired");
    obs_ops_spawned_ = &metrics->counter("reactor.ops_spawned");
    obs_threads_ = &metrics->gauge("reactor.threads");
  }
  core_workers_.reserve(static_cast<std::size_t>(options_.core_workers));
  for (int i = 0; i < options_.core_workers; ++i)
    core_workers_.emplace_back([this] { core_loop(); });
  {
    std::scoped_lock lock(ops_mu_);
    for (int i = 0; i < options_.ops_min; ++i) spawn_ops_locked();
  }
  timer_thread_ = std::jthread([this] { timer_loop(); });
  if (obs_threads_)
    obs_threads_->set(options_.core_workers + options_.ops_min + 1);
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  core_queue_.close();  // core workers drain what's queued, then exit
  {
    std::scoped_lock lock(timer_mu_);
    timer_stop_ = true;
    timers_.clear();
    timer_index_.clear();
  }
  timer_cv_.notify_all();
  timer_thread_ = {};

  std::vector<std::unique_ptr<OpsWorker>> workers;
  {
    std::scoped_lock lock(ops_mu_);
    stopping_ = true;
    ops_queue_.clear();
    workers.swap(ops_workers_);
  }
  ops_cv_.notify_all();
  workers.clear();  // joins
  core_workers_.clear();
  if (obs_threads_) obs_threads_->set(0);
}

void Reactor::post(Task task) {
  // push fails only when stopping: late transport work is dropped, which
  // is safe because every pump checks its stopped flag before touching
  // anything.
  (void)core_queue_.push(std::move(task));
}

void Reactor::post_blocking(Task task) {
  {
    std::scoped_lock lock(ops_mu_);
    if (stopping_) return;
    ops_queue_.push_back(std::move(task));
    // Every worker busy and room to grow: widen the pool so a burst of
    // blocking handlers does not convoy behind one slow RPC.
    if (ops_idle_count_ == 0 && ops_live_ < options_.ops_max)
      spawn_ops_locked();
  }
  ops_cv_.notify_one();
}

Reactor::TimerId Reactor::post_at(Clock::time_point at, Task task,
                                  bool blocking) {
  bool wake_timer = false;
  TimerId id = 0;
  {
    std::scoped_lock lock(timer_mu_);
    if (timer_stop_) return 0;
    id = next_timer_id_++;
    wake_timer = timers_.empty() || at < timers_.begin()->first;
    auto it = timers_.emplace(at, TimerEntry{id, std::move(task), blocking});
    timer_index_[id] = it;
  }
  if (wake_timer) timer_cv_.notify_all();
  return id;
}

Reactor::TimerId Reactor::post_after(Clock::duration delay, Task task,
                                     bool blocking) {
  return post_at(Clock::now() + delay, std::move(task), blocking);
}

bool Reactor::cancel(TimerId id) {
  if (id == 0) return false;
  std::scoped_lock lock(timer_mu_);
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return false;
  timers_.erase(it->second);
  timer_index_.erase(it);
  return true;
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.blocking_tasks_run = blocking_tasks_run_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.ops_spawned = ops_spawned_.load(std::memory_order_relaxed);
  s.core_threads = static_cast<int>(core_workers_.size());
  {
    std::scoped_lock lock(ops_mu_);
    s.ops_threads = ops_live_;
  }
  return s;
}

void Reactor::core_loop() {
  while (auto task = core_queue_.pop()) {
    (*task)();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (obs_tasks_) obs_tasks_->inc();
  }
}

void Reactor::spawn_ops_locked() {
  // Opportunistically reap workers that idled out, so a long-lived reactor
  // doesn't accumulate dead jthreads. Joining happens outside the lock.
  std::vector<std::unique_ptr<OpsWorker>> dead;
  reap_ops_locked(dead);
  auto worker = std::make_unique<OpsWorker>();
  OpsWorker* raw = worker.get();
  ops_workers_.push_back(std::move(worker));
  ++ops_live_;
  ops_spawned_.fetch_add(1, std::memory_order_relaxed);
  if (obs_ops_spawned_) obs_ops_spawned_->inc();
  if (obs_threads_)
    obs_threads_->set(static_cast<int>(core_workers_.size()) + ops_live_ + 1);
  raw->thread = std::jthread([this, raw] { ops_loop(raw); });
  // `dead` joins here as the vector unwinds — those threads have already
  // returned (exited is set on their way out), so this does not stall the
  // caller meaningfully.
}

void Reactor::reap_ops_locked(std::vector<std::unique_ptr<OpsWorker>>& out) {
  std::erase_if(ops_workers_, [&](std::unique_ptr<OpsWorker>& w) {
    if (!w->exited) return false;
    out.push_back(std::move(w));
    return true;
  });
}

void Reactor::ops_loop(OpsWorker* self) {
  std::unique_lock lock(ops_mu_);
  for (;;) {
    while (ops_queue_.empty()) {
      if (stopping_) {
        self->exited = true;
        --ops_live_;
        return;
      }
      ++ops_idle_count_;
      bool got_work = ops_cv_.wait_for(lock, options_.ops_idle, [&] {
        return !ops_queue_.empty() || stopping_;
      });
      --ops_idle_count_;
      if (!got_work && ops_live_ > options_.ops_min) {
        // Idled out above the floor: retire. The spawner reaps us later.
        self->exited = true;
        --ops_live_;
        if (obs_threads_)
          obs_threads_->set(static_cast<int>(core_workers_.size()) +
                            ops_live_ + 1);
        return;
      }
    }
    Task task = std::move(ops_queue_.front());
    ops_queue_.pop_front();
    lock.unlock();
    task();
    blocking_tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (obs_blocking_tasks_) obs_blocking_tasks_->inc();
    lock.lock();
  }
}

void Reactor::timer_loop() {
  std::unique_lock lock(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock, [&] { return timer_stop_ || !timers_.empty(); });
      continue;
    }
    const auto next = timers_.begin()->first;
    if (Clock::now() < next) {
      timer_cv_.wait_until(lock, next);
      continue;
    }
    TimerEntry entry = std::move(timers_.begin()->second);
    timer_index_.erase(entry.id);
    timers_.erase(timers_.begin());
    lock.unlock();
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    if (obs_timers_) obs_timers_->inc();
    if (entry.blocking)
      post_blocking(std::move(entry.task));
    else
      post(std::move(entry.task));
    lock.lock();
  }
}

// -------------------------------------------------------------- Subscription

namespace detail {

// Queue signal hook: ensure exactly one drain is scheduled.
void pump_signal(const std::shared_ptr<SubCore>& core) {
  {
    std::scoped_lock lock(core->mu);
    if (core->stopped || core->scheduled) return;
    core->scheduled = true;
  }
  auto drain = [core] { pump_drain(core); };
  if (core->blocking)
    core->reactor->post_blocking(std::move(drain));
  else
    core->reactor->post(std::move(drain));
}

void pump_drain(const std::shared_ptr<SubCore>& core) {
  for (;;) {
    {
      std::scoped_lock lock(core->mu);
      if (core->stopped) {
        core->scheduled = false;
        core->step = nullptr;  // release handler captures (breaks cycles)
        core->has_work = nullptr;
        return;
      }
      core->in_handler = true;
      core->handler_thread = std::this_thread::get_id();
    }
    SubCore::StepResult r = core->step();
    std::unique_lock lock(core->mu);
    core->in_handler = false;
    core->cv.notify_all();
    if (core->stopped || r.kind == SubCore::StepResult::kFinal) {
      core->stopped = true;
      core->scheduled = false;
      core->step = nullptr;
      core->has_work = nullptr;
      return;
    }
    switch (r.kind) {
      case SubCore::StepResult::kItem:
        break;  // keep draining
      case SubCore::StepResult::kEmpty: {
        core->scheduled = false;
        // A push may have raced our empty observation and found
        // scheduled still true (its signal no-oped). Re-check with the
        // flag cleared and reclaim the pump if so.
        if (!core->has_work()) return;
        core->scheduled = true;
        break;
      }
      case SubCore::StepResult::kNotDue: {
        // Head not deliverable yet (link latency): keep `scheduled`
        // armed and come back at its due time.
        core->due_timer = core->reactor->post_at(
            r.due,
            [core] {
              {
                std::scoped_lock lk(core->mu);
                core->due_timer = 0;
                if (core->stopped) {
                  core->scheduled = false;
                  return;
                }
              }
              auto drain = [core] { pump_drain(core); };
              if (core->blocking)
                core->reactor->post_blocking(std::move(drain));
              else
                core->reactor->post(std::move(drain));
            },
            /*blocking=*/false);
        if (core->due_timer == 0) {  // reactor stopping: pump is done
          core->stopped = true;
          core->scheduled = false;
          core->step = nullptr;
          core->has_work = nullptr;
        }
        return;
      }
      default:
        return;
    }
  }
}

}  // namespace detail

bool Subscription::active() const {
  if (!core_) return false;
  std::scoped_lock lock(core_->mu);
  return !core_->stopped;
}

void Subscription::stop() {
  if (!core_) return;
  Reactor::TimerId timer = 0;
  {
    std::unique_lock lock(core_->mu);
    core_->stopped = true;
    timer = std::exchange(core_->due_timer, 0);
    // Wait out an in-flight handler — unless we *are* the handler (a
    // callback stopping its own pump), which must not deadlock on itself.
    core_->cv.wait(lock, [&] {
      return !core_->in_handler ||
             core_->handler_thread == std::this_thread::get_id();
    });
    if (!core_->in_handler) {
      // Safe to release captures now; a queued stale drain will see
      // `stopped` before touching them.
      core_->step = nullptr;
      core_->has_work = nullptr;
    }
    // else: the drain loop we are inside releases them on its way out.
  }
  if (timer != 0 && core_->reactor) core_->reactor->cancel(timer);
}

// ----------------------------------------------------------------- TaskGuard

std::function<void()> TaskGuard::wrap(std::function<void()> fn) const {
  return [core = core_, fn = std::move(fn)] {
    const auto self = std::this_thread::get_id();
    {
      std::scoped_lock lock(core->mu);
      if (core->revoked) return;
      core->running.push_back(self);
    }
    fn();
    {
      std::scoped_lock lock(core->mu);
      core->running.erase(
          std::find(core->running.begin(), core->running.end(), self));
    }
    core->cv.notify_all();
  };
}

void TaskGuard::revoke() {
  const auto self = std::this_thread::get_id();
  std::unique_lock lock(core_->mu);
  core_->revoked = true;
  // Wait for every running task but the caller's own.
  core_->cv.wait(lock, [&] {
    return std::all_of(core_->running.begin(), core_->running.end(),
                       [&](std::thread::id id) { return id == self; });
  });
}

// ----------------------------------------------------------------- TimerLoop

struct TimerLoop::Core {
  Reactor* reactor = nullptr;
  Tick tick;
  std::mutex mu;
  // Every armed tick is wrapped in `guard`; stop() revokes it to wait out
  // a running tick, and the next arm outside a tick takes a fresh one.
  TaskGuard guard;
  bool revoked = false;
  bool active = false;
  bool ticking = false;
  // A start() that landed mid-tick: the soonest delay it asked for.
  std::optional<Reactor::Clock::duration> restart;
  // Bumped by every arm and every stop: a fired timer runs the tick only
  // while its own arm is still the current one.
  std::uint64_t seq = 0;
  Reactor::TimerId timer = 0;
};

TimerLoop::TimerLoop(Reactor& reactor, Tick tick)
    : core_(std::make_shared<Core>()) {
  core_->reactor = &reactor;
  core_->tick = std::move(tick);
}

void TimerLoop::arm_locked(const std::shared_ptr<Core>& core,
                           Reactor::Clock::duration delay) {
  if (std::exchange(core->revoked, false)) core->guard = TaskGuard();
  const std::uint64_t seq = ++core->seq;
  auto fire = [core, seq] {
    std::unique_lock lock(core->mu);
    if (!core->active || seq != core->seq) return;  // stopped or re-armed
    core->timer = 0;
    core->ticking = true;
    lock.unlock();
    auto next = core->tick();
    lock.lock();
    core->ticking = false;
    if (auto restart = std::exchange(core->restart, std::nullopt))
      next = next ? std::min(*next, *restart) : *restart;
    if (core->active && next)
      arm_locked(core, *next);
    else
      core->active = false;
  };
  core->timer = core->reactor->post_after(
      delay, core->guard.wrap(std::move(fire)), /*blocking=*/true);
  if (core->timer == 0) core->active = false;  // reactor stopping
}

void TimerLoop::start(Reactor::Clock::duration first_delay) {
  std::scoped_lock lock(core_->mu);
  core_->active = true;
  if (core_->ticking) {  // the running tick arms the next one
    core_->restart = std::min(core_->restart.value_or(first_delay), first_delay);
    return;
  }
  if (core_->timer != 0)
    core_->reactor->cancel(std::exchange(core_->timer, 0));
  arm_locked(core_, first_delay);
}

void TimerLoop::stop() {
  TaskGuard guard;
  {
    std::scoped_lock lock(core_->mu);
    core_->active = false;
    core_->revoked = true;
    ++core_->seq;  // a tick already handed to the ops pool becomes a no-op
    if (core_->timer != 0)
      core_->reactor->cancel(std::exchange(core_->timer, 0));
    guard = core_->guard;
  }
  guard.revoke();  // waits out a running tick, unless we are inside it
}

bool TimerLoop::active() const {
  std::scoped_lock lock(core_->mu);
  return core_->active;
}

}  // namespace ace::net
