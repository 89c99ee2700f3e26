// Shared pieces of the repository benchmark (perfbench/README.md): the
// command-line options every workload receives, the report each one fills
// in, and the host-side helpers (wall clock, busy-wait probe, peak RSS,
// percentiles over simulated latencies).
//
// Host time is read only here, in the benchmark itself; nothing measured on
// the host ever feeds back into the simulation, so every sim-side number is
// a pure function of the workload's seed and length.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace wiera::perfbench {

// Set-ups per end-to-end run; setup_s is their median.
inline constexpr int kSetups = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // host seconds the measured window is sized for
  bool trace = false;   // per-layer (traced) run instead of end-to-end
  // Resolution probe (README.md): host busy-time added in the benchmark's
  // own wrapper per measured op and per preload op. 0 = off.
  double probe_us = 0;
  double probe_setup_us = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // observations behind the value (0 = derived)
};

struct Report {
  std::vector<std::string> errors;  // correctness-gate failures
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Sim-side fingerprints for the determinism checks: a digest of every
  // op's simulated outcome, and of the generated key stream alone.
  uint64_t sim_digest = 0;
  uint64_t key_digest = 0;

  void add(std::string name, double value, std::string unit,
           int64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }
};

// Runs the named workload; unknown names return false.
bool run_kv_workload(const Options& options, Report& report);
bool run_rubis_workload(const Options& options, Report& report);

// ---- host-side helpers ----

inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spin for `us` microseconds of host time (the resolution probe's cost).
inline void busy_wait_us(double us) {
  if (us <= 0) return;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double, std::micro>(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

double peak_rss_mib();
double median(std::vector<double> values);

// One "# label: v1 v2 ..." line on stdout, for the raw samples behind a
// median.
void print_samples(const char* label, const std::vector<double>& values);

// Percentile of simulated latencies recorded in whole microseconds. The
// clock is integral, so the plain order statistic repeats the same integer
// across seeds; this treats each sample as spread over its 1 µs bin (the
// grouped-data interpolation), which keeps the estimate continuous.
// Returns milliseconds.
double percentile_ms(std::vector<int64_t> us, double q);

// FNV-1a fold for the determinism digests.
inline uint64_t fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}
inline constexpr uint64_t kDigestSeed = 0xCBF29CE484222325ull;

}  // namespace wiera::perfbench
