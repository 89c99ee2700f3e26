// SimChecker — a sanitizer for the deterministic coroutine simulation.
//
// Classic TSan/helgrind cannot see the "concurrency" inside the simulator:
// every protocol interleaving happens in virtual time on one OS thread, so a
// deadlock between two coroutines, a lost wakeup, or a coroutine leaked on a
// never-signalled primitive all look like an innocently drained event queue.
// The checker instruments the runtime itself:
//
//  * Wait-for graph. Every blocking suspension (Event / SimMutex /
//    SimSemaphore / Channel / Future) records which logical task is blocked
//    on which primitive; SimMutex additionally records its owner. When
//    Simulation::run() drains the queue with blocked waiters left over, the
//    checker reports every stuck task by name and detects lock cycles
//    (classic ABBA deadlocks) in the graph.
//
//  * Lifecycle diagnostics. Misuse that used to be a bare `assert` (which
//    vanishes under NDEBUG, i.e. in the default RelWithDebInfo build) is
//    reported as a structured SimDiagnostic: double unlock, send on a closed
//    channel, a promise fulfilled twice or dropped unfulfilled, a primitive
//    destroyed while coroutines still wait on it, a Task created but never
//    started.
//
//  * Determinism hash. Each executed event folds (virtual time, sequence
//    number) into an FNV-1a running hash; two runs of the same scenario with
//    the same seed must produce identical hashes. Tests compare hashes to
//    catch accidental nondeterminism (unordered containers, address-dependent
//    branches, real-time leakage).
//
// Diagnostics are *recorded* (and echoed to stderr for errors); they do not
// alter simulation semantics. Tests query `checker().diagnostics()`;
// `set_fail_fast(true)` aborts on the first error for fuzz/CI runs.
//
// The whole checker compiles to no-ops when the CMake option
// `WIERA_SIM_CHECKER=OFF` (-DWIERA_SIM_CHECKER_ENABLED=0): the class loses
// its members and every hook is an empty inline function, so the release hot
// path is untouched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#ifndef WIERA_SIM_CHECKER_ENABLED
#define WIERA_SIM_CHECKER_ENABLED 1
#endif

#if WIERA_SIM_CHECKER_ENABLED
#include <unordered_map>
#endif

namespace wiera::sim {

// Starting value of the determinism trace hash: the FNV-1a offset basis with
// its last decimal digit dropped. Not the basis, but every pinned trace hash
// (tests/golden/trace_hashes.txt) starts from it.
inline constexpr uint64_t kTraceHashSeed = 1469598103934665603ull;

// What a suspended task is blocked on.
enum class WaitKind : uint8_t {
  kNone = 0,   // runnable / waiting on a scheduled wakeup (timer, RPC)
  kEvent,
  kMutex,
  kSemaphore,
  kChannel,
  kFuture,
  kAdmission,  // queued behind an rpc::Endpoint admission limit
};

const char* wait_kind_name(WaitKind kind);

struct SimDiagnostic {
  enum class Kind : uint8_t {
    // Errors — API misuse or a certain bug.
    kDeadlock,            // cycle in the wait-for graph at quiescence
    kDoubleUnlock,        // SimMutex::unlock while not locked
    kSendAfterClose,      // Channel::send on a closed channel
    kPromiseDoubleSet,    // Promise::set_value on a fulfilled promise
    kPromiseBroken,       // last Promise handle dropped with waiters pending
    kNegativeRelease,     // SimSemaphore::release with n < 0
    kDroppedTask,         // Task created but destroyed without ever starting
    kDuplicateEndpoint,   // rpc::Registry::add with an already-taken name
    // Warnings — suspicious, surfaced for tests/forensics.
    kStuckTask,           // task still blocked when the event queue drained
    kLostWakeup,          // task alive at quiescence with no pending wakeup
    kDestroyedWithWaiters,// primitive destructed while coroutines wait on it
    kLeakedSpan,          // telemetry span still open at quiescence
  };

  Kind kind;
  bool is_error;
  std::string message;
  std::string task;       // culprit task name ("" when not attributable)
  std::string primitive;  // primitive name ("" when not attributable)
};

const char* diagnostic_kind_name(SimDiagnostic::Kind kind);

#if WIERA_SIM_CHECKER_ENABLED

class SimChecker {
 public:
  SimChecker();
  ~SimChecker();

  SimChecker(const SimChecker&) = delete;
  SimChecker& operator=(const SimChecker&) = delete;

  // ---- configuration -------------------------------------------------
  // Runtime master switch (compile-time switch is WIERA_SIM_CHECKER).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  // Abort the process on the first *error* diagnostic (asserts upgraded).
  void set_fail_fast(bool on) { fail_fast_ = on; }

  // ---- results -------------------------------------------------------
  const std::vector<SimDiagnostic>& diagnostics() const {
    return diagnostics_;
  }
  size_t error_count() const { return error_count_; }
  size_t warning_count() const { return diagnostics_.size() - error_count_; }
  bool has(SimDiagnostic::Kind kind) const;
  // First diagnostic of `kind`, or nullptr.
  const SimDiagnostic* find(SimDiagnostic::Kind kind) const;
  void clear_diagnostics();

  // Number of logical tasks spawned / completed so far.
  uint64_t tasks_spawned() const { return tasks_spawned_; }
  uint64_t tasks_completed() const { return tasks_completed_; }
  // Names of tasks that are alive (spawned, not yet completed).
  std::vector<std::string> live_task_names() const;

  // FNV-1a hash over the executed (time, seq) event trace. Two runs of the
  // same scenario with the same seed must agree; see docs/DETERMINISM.md.
  uint64_t trace_hash() const { return trace_hash_; }

  // Fold an externally computed value into the trace hash. The fault
  // injector records every applied FaultEvent this way, so a replayed
  // chaos run must apply the identical fault schedule to reproduce a hash.
  void fold_trace(uint64_t value);

  // The checker owning the innermost live Simulation on this thread (used by
  // ~Task to report dropped coroutines, where no Simulation* is reachable).
  static SimChecker* current();
  // True while a Simulation destructor is reclaiming suspended frames;
  // lifecycle reports are suppressed then (expected teardown casualties).
  static bool in_teardown();

  // ---- hooks wired into the runtime (not for user code) --------------
  void on_simulation_created();  // pushes *this as current()
  // Simulation teardown brackets: while active, dropped tasks and
  // primitives destroyed with waiters are expected (frames are being
  // reclaimed) and not reported. end_teardown pops current().
  void begin_teardown();
  void end_teardown();

  // A root task was handed to Simulation::spawn. Returns its task id.
  uint64_t on_task_spawn(const void* root_handle, std::string name);
  void on_task_complete(const void* root_handle);

  // Simulation::step is about to resume / just resumed `handle`.
  void begin_event(const void* handle, int64_t time_us, uint64_t seq);
  void end_event();

  // A handle was pushed on the run queue (timer wakeups, primitive wakeups,
  // spawns). Binds not-yet-known handles to the current task so identity
  // survives arbitrary suspension points.
  void on_scheduled(const void* handle);

  // The current task suspended, blocked on `prim`.
  void on_block(const void* handle, WaitKind kind, const void* prim,
                const char* prim_name);

  // SimMutex ownership tracking (for deadlock cycles).
  void on_mutex_acquired(const void* mutex, const char* name);
  void on_mutex_handoff(const void* mutex, const void* next_handle);
  void on_mutex_released(const void* mutex);

  // A primitive is being destroyed with `waiters` coroutines still blocked.
  void on_primitive_destroyed(WaitKind kind, const void* prim,
                              const char* prim_name, size_t waiters);

  // Structured replacements for the former bare asserts.
  void report_error(SimDiagnostic::Kind kind, const char* prim_name,
                    std::string message);
  // Warning-severity diagnostic from outside the checker (e.g. the
  // span-leak sweep in Simulation::run at quiescence).
  void report_warning(SimDiagnostic::Kind kind, const char* prim_name,
                      std::string message);

  // ~Task saw a coroutine that was created but never started.
  static void report_dropped_task();

  // Simulation::run drained the queue without stop(): analyse the wait-for
  // graph and report stuck tasks / deadlock cycles / lost wakeups.
  void on_quiescent();

 private:
  struct TaskInfo {
    std::string name;
    WaitKind wait_kind = WaitKind::kNone;
    const void* wait_prim = nullptr;
    std::string wait_prim_name;
  };

  static constexpr uint64_t kNoTask = 0;

  TaskInfo* current_info();
  void add(SimDiagnostic diag);
  std::string task_name(uint64_t id) const;
  void mutex_owner_erase_owned(uint64_t id);

  bool enabled_ = true;
  bool fail_fast_ = false;

  uint64_t next_task_id_ = 1;
  uint64_t current_ = kNoTask;
  uint64_t tasks_spawned_ = 0;
  uint64_t tasks_completed_ = 0;
  uint64_t trace_hash_ = kTraceHashSeed;

  std::unordered_map<uint64_t, TaskInfo> tasks_;          // live tasks
  std::unordered_map<const void*, uint64_t> handle_task_; // suspended → task
  std::unordered_map<const void*, uint64_t> mutex_owner_; // mutex → task
  std::vector<SimDiagnostic> diagnostics_;
  size_t error_count_ = 0;

  SimChecker* prev_current_ = nullptr;  // enclosing Simulation's checker
};

#else  // !WIERA_SIM_CHECKER_ENABLED — every hook is an inline no-op.

class SimChecker {
 public:
  void set_enabled(bool) {}
  bool enabled() const { return false; }
  void set_fail_fast(bool) {}

  const std::vector<SimDiagnostic>& diagnostics() const {
    static const std::vector<SimDiagnostic> kEmpty;
    return kEmpty;
  }
  size_t error_count() const { return 0; }
  size_t warning_count() const { return 0; }
  bool has(SimDiagnostic::Kind) const { return false; }
  const SimDiagnostic* find(SimDiagnostic::Kind) const { return nullptr; }
  void clear_diagnostics() {}
  uint64_t tasks_spawned() const { return 0; }
  uint64_t tasks_completed() const { return 0; }
  std::vector<std::string> live_task_names() const { return {}; }
  uint64_t trace_hash() const { return 0; }
  void fold_trace(uint64_t) {}
  static SimChecker* current() { return nullptr; }
  static bool in_teardown() { return false; }

  void on_simulation_created() {}
  void begin_teardown() {}
  void end_teardown() {}
  uint64_t on_task_spawn(const void*, std::string) { return 0; }
  void on_task_complete(const void*) {}
  void begin_event(const void*, int64_t, uint64_t) {}
  void end_event() {}
  void on_scheduled(const void*) {}
  void on_block(const void*, WaitKind, const void*, const char*) {}
  void on_mutex_acquired(const void*, const char*) {}
  void on_mutex_handoff(const void*, const void*) {}
  void on_mutex_released(const void*) {}
  void on_primitive_destroyed(WaitKind, const void*, const char*, size_t) {}
  void report_error(SimDiagnostic::Kind, const char*, std::string) {}
  void report_warning(SimDiagnostic::Kind, const char*, std::string) {}
  static void report_dropped_task() {}
  void on_quiescent() {}
};

#endif  // WIERA_SIM_CHECKER_ENABLED

}  // namespace wiera::sim
