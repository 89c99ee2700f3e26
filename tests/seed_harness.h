// Shared harness of the seeded oracle suites (chaos_test, scenario_test):
// seed counts, trace-hash formatting, the opt-in telemetry / time-series
// dumps a failing seed's replay prints, and the one `TAG-STATS k=v ...
// trace=0x...` counters line every suite emits per run. scripts/sweep.sh
// reads all of these markers the same way for every suite.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/obs_pipeline.h"
#include "sim/simulation.h"
#include "wiera/controller.h"

namespace wiera::geo {

inline std::string hex_trace(uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// Seeds per sweep combination: ENV (WIERA_CHAOS_SEED_COUNT /
// WIERA_SCENARIO_SEED_COUNT) when it holds a positive count, else 20.
inline int seed_count(const char* env) {
  const char* value = std::getenv(env);
  const int n = value == nullptr ? 0 : std::atoi(value);
  return n > 0 ? n : 20;
}

inline bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// WIERA_DUMP_TELEMETRY=1 (`--dump-telemetry`, which the sweep driver passes
// when it replays a failing seed) makes every run print its metrics
// snapshot and the span trees worth reading — the representative put plus
// every violation's trace — so a failing seed's replay is self-describing.
inline bool dump_telemetry_enabled() { return env_flag("WIERA_DUMP_TELEMETRY"); }

// WIERA_DUMP_TIMESERIES=1 (`--dump-timeseries`) additionally arms the
// ObsPipeline scraper and the per-peer hot-key sketches for the run and
// prints TIMESERIES-SNAPSHOT / KEYSTATS blocks (docs/METRICS_PIPELINE.md).
// Off by default: an armed pipeline adds timer events, so replay hashes from
// a timeseries run only compare against other timeseries runs.
inline bool dump_timeseries_enabled() {
  return env_flag("WIERA_DUMP_TIMESERIES");
}

inline void dump_telemetry(sim::Simulation& sim, std::set<uint64_t> traces) {
  std::printf("TELEMETRY-SNAPSHOT\n%s",
              sim.telemetry().registry().render_text().c_str());
  traces.erase(0);
  for (uint64_t id : traces) {
    obs::TraceView view(sim.telemetry().tracer(), id);
    if (view.empty()) continue;
    std::printf("TELEMETRY-TRACE trace=%s\n%s", hex_trace(id).c_str(),
                view.render().c_str());
  }
}

// Arms `pipeline` to scrape every 100ms until `until` on time-series runs;
// unarmed it spawns nothing and the schedule stays byte-identical.
inline void arm_timeseries(sim::ObsPipeline& pipeline, TimePoint until) {
  if (!dump_timeseries_enabled()) return;
  sim::ObsPipeline::Config config;
  config.interval = msec(100);
  config.until = until;
  pipeline.arm(config);
}

// The TIMESERIES-SNAPSHOT block plus one KEYSTATS line per storage peer
// that saw traffic (time-series runs only).
inline void dump_timeseries(const sim::ObsPipeline& pipeline,
                            WieraController& controller,
                            const std::vector<std::string>& nodes,
                            TimePoint now) {
  if (!dump_timeseries_enabled() || pipeline.sampler() == nullptr) return;
  std::printf("TIMESERIES-SNAPSHOT\n%s\n",
              pipeline.sampler()->render_json().c_str());
  for (const std::string& node : nodes) {
    const WieraPeer* peer = controller.peer(node);
    if (peer == nullptr || peer->key_stats().total_accesses() == 0) continue;
    std::printf("KEYSTATS instance=%s %s\n", node.c_str(),
                peer->key_stats().render_json(now).c_str());
  }
}

// One `key=value` field of a stats line.
struct Stat {
  Stat(const char* k, std::integral auto v) : key(k), value(std::to_string(v)) {}
  Stat(const char* k, std::string_view v) : key(k), value(v) {}
  const char* key;
  std::string value;
};

// Prints `<TAG>-STATS k=v ... trace=0x...`: the per-run counters a sweep
// keeps for every combination, keyed by seed and determinism trace hash.
inline void print_stats(const char* tag, std::initializer_list<Stat> fields,
                        uint64_t trace_hash) {
  std::string line = std::string(tag) + "-STATS";
  for (const Stat& f : fields) line += " " + std::string(f.key) + "=" + f.value;
  std::printf("%s trace=%s\n", line.c_str(), hex_trace(trace_hash).c_str());
}

}  // namespace wiera::geo
