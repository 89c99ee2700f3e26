#include "sim/checker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/bytes.h"
#include "common/logging.h"

namespace wiera::sim {

const char* wait_kind_name(WaitKind kind) {
  switch (kind) {
    case WaitKind::kNone: return "none";
    case WaitKind::kEvent: return "Event";
    case WaitKind::kMutex: return "SimMutex";
    case WaitKind::kSemaphore: return "SimSemaphore";
    case WaitKind::kChannel: return "Channel";
    case WaitKind::kFuture: return "Future";
    case WaitKind::kAdmission: return "Admission";
  }
  return "?";
}

const char* diagnostic_kind_name(SimDiagnostic::Kind kind) {
  switch (kind) {
    case SimDiagnostic::Kind::kDeadlock: return "deadlock";
    case SimDiagnostic::Kind::kDoubleUnlock: return "double-unlock";
    case SimDiagnostic::Kind::kSendAfterClose: return "send-after-close";
    case SimDiagnostic::Kind::kPromiseDoubleSet: return "promise-double-set";
    case SimDiagnostic::Kind::kPromiseBroken: return "promise-broken";
    case SimDiagnostic::Kind::kNegativeRelease: return "negative-release";
    case SimDiagnostic::Kind::kDroppedTask: return "dropped-task";
    case SimDiagnostic::Kind::kDuplicateEndpoint: return "duplicate-endpoint";
    case SimDiagnostic::Kind::kStuckTask: return "stuck-task";
    case SimDiagnostic::Kind::kLostWakeup: return "lost-wakeup";
    case SimDiagnostic::Kind::kDestroyedWithWaiters:
      return "destroyed-with-waiters";
    case SimDiagnostic::Kind::kLeakedSpan: return "leaked-span";
  }
  return "?";
}

#if WIERA_SIM_CHECKER_ENABLED

namespace {

// Innermost live Simulation's checker on this thread. The simulation is
// single-threaded; a stack (via prev_current_) supports tests that nest
// Simulation lifetimes in one scope.
thread_local SimChecker* g_current = nullptr;
thread_local int g_teardown = 0;

}  // namespace

SimChecker::SimChecker() = default;
SimChecker::~SimChecker() = default;

SimChecker* SimChecker::current() { return g_current; }

bool SimChecker::in_teardown() { return g_teardown > 0; }

void SimChecker::on_simulation_created() {
  prev_current_ = g_current;
  g_current = this;
}

void SimChecker::begin_teardown() { g_teardown++; }

void SimChecker::end_teardown() {
  g_teardown--;
  if (g_current == this) g_current = prev_current_;
}

bool SimChecker::has(SimDiagnostic::Kind kind) const {
  return find(kind) != nullptr;
}

const SimDiagnostic* SimChecker::find(SimDiagnostic::Kind kind) const {
  for (const auto& d : diagnostics_) {
    if (d.kind == kind) return &d;
  }
  return nullptr;
}

void SimChecker::clear_diagnostics() {
  diagnostics_.clear();
  error_count_ = 0;
}

std::vector<std::string> SimChecker::live_task_names() const {
  std::vector<std::string> names;
  names.reserve(tasks_.size());
  // wiera-lint: allow(unordered-iteration) names are sorted before returning
  for (const auto& [id, info] : tasks_) names.push_back(info.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string SimChecker::task_name(uint64_t id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? std::string("<unknown>") : it->second.name;
}

SimChecker::TaskInfo* SimChecker::current_info() {
  if (current_ == kNoTask) return nullptr;
  auto it = tasks_.find(current_);
  return it == tasks_.end() ? nullptr : &it->second;
}

void SimChecker::add(SimDiagnostic diag) {
  if (diag.is_error) {
    error_count_++;
    std::fprintf(stderr, "wiera-sim-checker: ERROR [%s] %s\n",
                 diagnostic_kind_name(diag.kind), diag.message.c_str());
  } else {
    WLOG_WARN("sim.checker")
        << "[" << diagnostic_kind_name(diag.kind) << "] " << diag.message;
  }
  const bool fatal = diag.is_error && fail_fast_;
  diagnostics_.push_back(std::move(diag));
  if (fatal) {
    std::fprintf(stderr,
                 "wiera-sim-checker: fail-fast enabled, aborting on first "
                 "error\n");
    std::abort();
  }
}

uint64_t SimChecker::on_task_spawn(const void* root_handle, std::string name) {
  if (!enabled_) return kNoTask;
  const uint64_t id = next_task_id_++;
  if (name.empty()) name = "task#" + std::to_string(id);
  tasks_.emplace(id, TaskInfo{std::move(name), WaitKind::kNone, nullptr, {}});
  handle_task_[root_handle] = id;
  tasks_spawned_++;
  return id;
}

void SimChecker::on_task_complete(const void* root_handle) {
  if (!enabled_) return;
  // Completion happens inside the event chain that resumed the task, so
  // current_ names it; the handle lookup covers a root that never ran.
  uint64_t id = current_;
  if (auto it = handle_task_.find(root_handle); it != handle_task_.end()) {
    id = it->second;
    handle_task_.erase(it);
  }
  if (id == kNoTask) return;
  tasks_.erase(id);
  mutex_owner_erase_owned(id);
  tasks_completed_++;
  if (id == current_) current_ = kNoTask;
}

void SimChecker::fold_trace(uint64_t value) {
  if (!enabled_) return;
  trace_hash_ = fnv1a64_word(trace_hash_, value);
}

void SimChecker::begin_event(const void* handle, int64_t time_us,
                             uint64_t seq) {
  if (!enabled_) return;
  trace_hash_ = fnv1a64_word(
      fnv1a64_word(trace_hash_, static_cast<uint64_t>(time_us)), seq);
  auto it = handle_task_.find(handle);
  if (it == handle_task_.end()) {
    current_ = kNoTask;
    return;
  }
  current_ = it->second;
  handle_task_.erase(it);
  if (TaskInfo* info = current_info()) {
    info->wait_kind = WaitKind::kNone;
    info->wait_prim = nullptr;
    info->wait_prim_name.clear();
  }
}

void SimChecker::end_event() { current_ = kNoTask; }

void SimChecker::on_scheduled(const void* handle) {
  if (!enabled_) return;
  // Bind unknown handles (timer wakeups and other raw schedule_at uses) to
  // the task that is suspending right now, so identity flows through every
  // suspension point. Handles already bound (roots, primitive waiters) keep
  // their task.
  if (current_ == kNoTask) return;
  handle_task_.emplace(handle, current_);
}

void SimChecker::on_block(const void* handle, WaitKind kind, const void* prim,
                          const char* prim_name) {
  if (!enabled_) return;
  uint64_t id = current_;
  if (id == kNoTask) {
    // Suspension outside any tracked event (shouldn't happen in practice);
    // synthesize a task so the report still names something.
    id = on_task_spawn(handle, {});
  }
  handle_task_[handle] = id;
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  it->second.wait_kind = kind;
  it->second.wait_prim = prim;
  it->second.wait_prim_name = prim_name == nullptr ? "" : prim_name;
}

void SimChecker::on_mutex_acquired(const void* mutex, const char* /*name*/) {
  if (!enabled_) return;
  mutex_owner_[mutex] = current_;
}

void SimChecker::on_mutex_handoff(const void* mutex,
                                  const void* next_handle) {
  if (!enabled_) return;
  auto it = handle_task_.find(next_handle);
  mutex_owner_[mutex] = it == handle_task_.end() ? kNoTask : it->second;
}

void SimChecker::on_mutex_released(const void* mutex) {
  if (!enabled_) return;
  mutex_owner_.erase(mutex);
}

void SimChecker::mutex_owner_erase_owned(uint64_t id) {
  for (auto it = mutex_owner_.begin(); it != mutex_owner_.end();) {
    if (it->second == id) {
      it = mutex_owner_.erase(it);
    } else {
      ++it;
    }
  }
}

void SimChecker::on_primitive_destroyed(WaitKind kind, const void* prim,
                                        const char* prim_name,
                                        size_t waiters) {
  if (!enabled_ || g_teardown > 0) return;
  // Collect-and-sort: the waiter list renders into the diagnostic text, so
  // hash order would leak into user-visible (and test-asserted) output.
  std::vector<std::string> waiter_names;
  // wiera-lint: allow(unordered-iteration) names are sorted before rendering
  for (const auto& [id, info] : tasks_) {
    if (info.wait_prim == prim) waiter_names.push_back(info.name);
  }
  std::sort(waiter_names.begin(), waiter_names.end());
  std::string who;
  for (const std::string& n : waiter_names) {
    if (!who.empty()) who += ", ";
    who += "'" + n + "'";
  }
  std::string name = prim_name == nullptr || prim_name[0] == '\0'
                         ? "<unnamed>"
                         : prim_name;
  add(SimDiagnostic{
      SimDiagnostic::Kind::kDestroyedWithWaiters, /*is_error=*/false,
      std::string(wait_kind_name(kind)) + " '" + name + "' destroyed with " +
          std::to_string(waiters) + " waiter(s) still blocked" +
          (who.empty() ? "" : " (" + who + ")") +
          "; they can never be woken",
      who, name});
}

void SimChecker::report_error(SimDiagnostic::Kind kind, const char* prim_name,
                              std::string message) {
  if (!enabled_) return;
  std::string task = current_ == kNoTask ? "" : task_name(current_);
  if (!task.empty()) message += " (in task '" + task + "')";
  add(SimDiagnostic{kind, /*is_error=*/true, std::move(message), task,
                    prim_name == nullptr ? "" : prim_name});
}

void SimChecker::report_warning(SimDiagnostic::Kind kind,
                                const char* prim_name, std::string message) {
  if (!enabled_) return;
  add(SimDiagnostic{kind, /*is_error=*/false, std::move(message), "",
                    prim_name == nullptr ? "" : prim_name});
}

void SimChecker::report_dropped_task() {
  SimChecker* c = g_current;
  if (c == nullptr || !c->enabled_ || g_teardown > 0) return;
  std::string task = c->current_ == kNoTask ? "" : c->task_name(c->current_);
  c->add(SimDiagnostic{
      SimDiagnostic::Kind::kDroppedTask, /*is_error=*/true,
      "Task destroyed without ever starting (created but never co_awaited "
      "or spawned)" +
          (task.empty() ? std::string()
                        : " while task '" + task + "' was running"),
      task, ""});
}

void SimChecker::on_quiescent() {
  if (!enabled_) return;
  // The event queue drained without stop(): every live task is either
  // blocked on a primitive (stuck; possibly a deadlock cycle) or has no
  // pending wakeup at all (lost wakeup / leak).
  std::vector<uint64_t> ids;
  ids.reserve(tasks_.size());
  // wiera-lint: allow(unordered-iteration) ids are sorted before reporting
  for (const auto& [id, info] : tasks_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());  // deterministic report order

  for (uint64_t id : ids) {
    const TaskInfo& info = tasks_.at(id);
    if (info.wait_kind == WaitKind::kNone) {
      add(SimDiagnostic{
          SimDiagnostic::Kind::kLostWakeup, /*is_error=*/false,
          "task '" + info.name +
              "' is alive at quiescence with no pending wakeup (lost "
              "wakeup or leaked coroutine)",
          info.name, ""});
      continue;
    }
    std::string prim = info.wait_prim_name.empty() ? "<unnamed>"
                                                   : info.wait_prim_name;
    std::string msg = "task '" + info.name + "' still blocked on " +
                      wait_kind_name(info.wait_kind) + " '" + prim +
                      "' when the event queue drained";
    if (info.wait_kind == WaitKind::kMutex) {
      auto owner = mutex_owner_.find(info.wait_prim);
      if (owner != mutex_owner_.end() && owner->second != kNoTask) {
        msg += " (held by '" + task_name(owner->second) + "')";
      }
    } else if (info.wait_kind == WaitKind::kEvent ||
               info.wait_kind == WaitKind::kChannel ||
               info.wait_kind == WaitKind::kFuture) {
      msg += " (never signalled: lost wakeup?)";
    }
    add(SimDiagnostic{SimDiagnostic::Kind::kStuckTask, /*is_error=*/false,
                      std::move(msg), info.name, prim});
  }

  // Deadlock cycles: follow task --waits-on--> mutex --held-by--> task.
  std::vector<uint64_t> seen;  // tasks already reported in a cycle
  for (uint64_t start : ids) {
    if (std::find(seen.begin(), seen.end(), start) != seen.end()) continue;
    std::vector<uint64_t> path;
    uint64_t t = start;
    while (true) {
      auto it = tasks_.find(t);
      if (it == tasks_.end() || it->second.wait_kind != WaitKind::kMutex) {
        break;
      }
      auto owner = mutex_owner_.find(it->second.wait_prim);
      if (owner == mutex_owner_.end() || owner->second == kNoTask) break;
      path.push_back(t);
      t = owner->second;
      auto cyc = std::find(path.begin(), path.end(), t);
      if (cyc != path.end()) {
        std::string msg = "deadlock cycle: ";
        for (auto p = cyc; p != path.end(); ++p) {
          const TaskInfo& info = tasks_.at(*p);
          std::string prim = info.wait_prim_name.empty()
                                 ? "<unnamed>"
                                 : info.wait_prim_name;
          msg += "task '" + info.name + "' waits on SimMutex '" + prim +
                 "' -> ";
          seen.push_back(*p);
        }
        msg += "task '" + tasks_.at(*cyc).name + "'";
        add(SimDiagnostic{SimDiagnostic::Kind::kDeadlock, /*is_error=*/true,
                          std::move(msg), tasks_.at(*cyc).name, ""});
        break;
      }
      if (path.size() > tasks_.size()) break;  // safety bound
    }
  }
}

#endif  // WIERA_SIM_CHECKER_ENABLED

}  // namespace wiera::sim
