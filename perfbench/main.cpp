// wiera_perfbench: one workload of the repository benchmark per process.
//
//   wiera_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--probe-us U] [--probe-setup-us U]
//
// Prints one "# metric" line per metric (name, value, unit, sample count),
// then, only when every correctness check passed, the result as one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (perfbench/README.md).
// Exits 1 when a check fails, 2 on bad arguments.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "common/logging.h"

namespace wp = wiera::perfbench;

namespace {

// The metrics BENCHMARK.json declares, in its order. failed_op_frac is
// printed but not declared: it reads 0 on most workloads (the result line
// carries the failure count instead).
const std::vector<std::string> kEndToEnd = {
    "host_ops_per_s", "setup_s",        "peak_rss_mib",   "sim_put_p50_ms",
    "sim_put_p99_ms", "sim_get_p50_ms", "sim_get_p99_ms", "sim_ops_per_s",
    "wan_bytes_per_op"};

const std::vector<std::string> kPerLayer = {
    "sim.events_per_op",
    "sim.host_ns_per_event",
    "sim.kernel_ns_per_event",
    "rpc.msgs_per_op",
    "rpc.codec_ns_per_msg",
    "net.msgs_per_op",
    "net.transfer_ns_per_msg",
    "coord.lock_rtt_ms",
    "coord.acquires_per_put",
    "coord.lock_conflicts",
    "tiera.put_host_us",
    "tiera.get_host_us",
    "tiera.put_sim_ms_p50",
    "tiera.get_sim_ms_p50",
    "store.mem_hit_frac",
    "store.evictions_per_op",
    "integrity.checksum_ns_per_kib",
    "integrity.failures",
    "integrity.host_frac",
    "obs.scrape_us",
    "obs.series",
    "obs.scrape_host_frac",
    "obs.trace_overhead_frac",
    "wiera.replications_per_put",
    "wiera.replication_backlog",
    "wiera.forwarded_put_frac",
    "wiera.put_path_ms.rpc.call",
    "wiera.put_path_ms.rpc.server",
    "wiera.put_path_ms.tiera.put",
    "wiera.put_path_ms.peer.replicate",
    "wiera.put_path_ms.unattributed",
    "vfs.ios_per_request",
    "vfs.host_us_per_io",
    "apps.pool_hit_frac",
    "layers.host_accounted_frac"};

int usage(const char* why) {
  std::fprintf(stderr,
               "wiera_perfbench: %s\n"
               "usage: wiera_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--probe-us U] [--probe-setup-us U]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wp::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--probe-us") {
      options.probe_us = std::atof(value);
    } else if (flag == "--probe-setup-us") {
      options.probe_setup_us = std::atof(value);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) {
    return usage("--seconds must be positive");
  }
  // Library warnings go to stderr; keep stdout for the report.
  wiera::Logger::instance().set_level(wiera::LogLevel::kError);

  wp::Report report;
  const bool known = wp::run_kv_workload(options, report) ||
                     wp::run_rubis_workload(options, report);
  if (!known) return usage(("unknown workload " + options.workload).c_str());

  for (const wp::Metric& m : report.metrics) {
    std::printf("# metric %-34s %16.6f %-12s n=%" PRId64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::printf("# attempted=%" PRId64 " failed=%" PRId64 "\n", report.attempted,
              report.failed);
  std::printf("# sim_digest=%016" PRIx64 " key_digest=%016" PRIx64 "\n",
              report.sim_digest, report.key_digest);

  const std::vector<std::string>& declared =
      options.trace ? kPerLayer : kEndToEnd;
  std::string json;
  for (const std::string& name : declared) {
    const wp::Metric* found = nullptr;
    for (const wp::Metric& m : report.metrics) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr) {
      report.fail("metric " + name + " was not measured");
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name.c_str(), found->value,
                  found->unit.c_str());
    json += buf;
  }
  if (report.attempted < 1) report.fail("no ops attempted");
  if (!report.errors.empty()) {
    for (const std::string& e : report.errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    }
    std::fflush(stdout);
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
              report.attempted, report.failed, json.c_str());
  return 0;
}
