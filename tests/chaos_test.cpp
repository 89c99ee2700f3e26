// Chaos suite (docs/FAULTS.md): seeded random fault plans run against a
// live four-region cluster while concurrent clients execute a read/write
// workload recorded into the consistency oracle. After quiescence the
// history is checked against the invariant of the consistency mode under
// test:
//   MultiPrimaries -> linearizability, PrimaryBackup -> primary order,
//   Eventual       -> convergence + LWW agreement.
// A failing run prints "CHAOS-FAIL seed=... mode=... fault=... trace=..."
// so `scripts/sweep.sh chaos` can collect failing seeds and the determinism
// trace hash allows an exact replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "obs/telemetry.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "sim/attribution.h"
#include "sim/faults.h"
#include "sim/obs_pipeline.h"
#include "sim/oracle.h"
#include "wiera/chaos.h"
#include "wiera/client.h"
#include "wiera/controller.h"

#include "seed_harness.h"

namespace wiera::geo {
namespace {

constexpr const char* kSeedEnv = "WIERA_CHAOS_SEED_COUNT";

const char* const kStorageNodes[] = {"tiera-us-west", "tiera-us-east",
                                     "tiera-eu-west", "tiera-asia-east"};
const char* const kKeys[] = {"k0", "k1"};

enum class FaultClass {
  kPartition,
  kCrash,
  kDropWindow,
  kLatencySpike,
  // Integrity fault classes (docs/INTEGRITY.md): silent storage bit-rot,
  // crashes that tear in-flight durable writes, payload-corrupting links.
  kBitRot,
  kTornWrite,
  kMsgCorrupt,
  // Gray-failure classes (docs/HEALTH.md): the node stays "up" by every
  // binary liveness test while serving degraded — a process freeze that
  // completes queued work late, an intermittently lossy inter-node link,
  // and a node running all its processing several times slower.
  kStutter,
  kFlakyLink,
  kSlowNode,
};

// Every FAULT token --plan accepts: the FaultClass names in declaration
// order, then the two fixed schedules.
const char* const kPlanNames[] = {"partition", "crash",   "drop",
                                  "spike",     "bitrot",  "torn",
                                  "msgcorrupt", "stutter", "flakylink",
                                  "slownode",  "brownout", "midflush"};
constexpr int kFaultClasses = static_cast<int>(FaultClass::kSlowNode) + 1;

const char* fault_class_name(FaultClass fault) {
  return kPlanNames[static_cast<int>(fault)];
}

bool is_integrity_fault(FaultClass fault) {
  return fault == FaultClass::kBitRot || fault == FaultClass::kTornWrite ||
         fault == FaultClass::kMsgCorrupt;
}

bool is_gray_fault(FaultClass fault) {
  return fault == FaultClass::kStutter || fault == FaultClass::kFlakyLink ||
         fault == FaultClass::kSlowNode;
}

sim::CheckMode check_mode_for(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kMultiPrimaries:
      return sim::CheckMode::kLinearizable;
    case ConsistencyMode::kEventual:
      return sim::CheckMode::kEventual;
    default:
      return sim::CheckMode::kPrimaryOrder;
  }
}

std::string_view policy_for(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kMultiPrimaries:
      return policy::builtin::multi_primaries_consistency();
    case ConsistencyMode::kEventual:
      return policy::builtin::eventual_consistency();
    default:
      return policy::builtin::primary_backup_consistency();
  }
}

// Same four-region deployment as wiera_test's fixture, plus the fault
// tolerance knobs the chaos runs rely on: leased locks (a crashed holder
// is evicted), serve leases (an isolated replica refuses strong-mode
// reads), and replication retries that outlast any fault window the random
// plans can generate (max 4s vs ~12.7s of backoff).
struct ChaosCluster {
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  WieraController controller;
  std::vector<std::unique_ptr<TieraServer>> servers;

  explicit ChaosCluster(
      uint64_t seed,
      std::function<void(WieraController::Config&)> config_tweak = nullptr)
      : sim(seed),
        network(sim, make_topology()),
        controller(sim, network, registry,
                   controller_config(std::move(config_tweak))) {
    for (const char* node : kStorageNodes) {
      servers.push_back(
          std::make_unique<TieraServer>(sim, network, registry, node));
      controller.register_server(servers.back().get());
    }
  }

  static WieraController::Config controller_config(
      std::function<void(WieraController::Config&)> tweak = nullptr) {
    WieraController::Config config;
    config.node = "wiera-controller";
    config.heartbeat_interval = sec(1);
    config.lock_lease = sec(20);
    config.serve_lease = msec(1500);
    if (tweak) tweak(config);
    return config;
  }

  static net::Topology make_topology() {
    net::Topology topo = net::Topology::paper_default();
    topo.set_jitter_fraction(0.0);
    topo.add_node("wiera-controller", "aws-us-east");
    topo.add_node("tiera-us-west", "aws-us-west");
    topo.add_node("tiera-us-east", "aws-us-east");
    topo.add_node("tiera-eu-west", "aws-eu-west");
    topo.add_node("tiera-asia-east", "aws-asia-east");
    topo.add_node("client-us-west", "aws-us-west");
    topo.add_node("client-eu-west", "aws-eu-west");
    topo.add_node("client-asia-east", "aws-asia-east");
    return topo;
  }

  WieraController::StartOptions options_for(
      ConsistencyMode mode,
      std::function<void(WieraPeer::Config&)> peer_tweak) {
    WieraController::StartOptions options;
    auto doc = policy::parse_policy(policy_for(mode));
    EXPECT_TRUE(doc.ok()) << doc.status().to_string();
    options.global = std::move(doc).value();
    options.local_params["t"] = policy::Value::duration_of(sec(10));
    options.customize = [peer_tweak =
                             std::move(peer_tweak)](WieraPeer::Config& config) {
      config.local.tier_tweak = [](const std::string&, store::TierSpec& spec) {
        spec.jitter_fraction = 0;
      };
      config.replicate_retries = 8;
      config.replicate_backoff = msec(50);
      if (peer_tweak) peer_tweak(config);
    };
    return options;
  }
};

sim::FaultPlan plan_for(FaultClass fault, uint64_t seed) {
  sim::FaultPlan::RandomOptions options;
  // Only storage nodes are targeted: crashing the controller (lock service
  // + heartbeat authority) is a different availability model than the one
  // the per-mode invariants describe.
  for (const char* node : kStorageNodes) options.nodes.push_back(node);
  options.earliest = TimePoint::origin() + sec(3);
  options.latest = TimePoint::origin() + sec(18);
  switch (fault) {
    case FaultClass::kPartition:
      options.partitions = 1;
      break;
    case FaultClass::kCrash:
      options.crashes = 1;
      break;
    case FaultClass::kDropWindow:
      options.chaos_windows = 2;
      break;
    case FaultClass::kLatencySpike:
      options.latency_spikes = 2;
      break;
    case FaultClass::kBitRot:
      // Several rot events against the workload keys: some land on copies
      // that exist (detected + repaired), some on keys not yet stored
      // (no-ops) — both are part of the model.
      for (const char* key : kKeys) options.keys.push_back(key);
      options.bit_rots = 3;
      break;
    case FaultClass::kTornWrite:
      options.torn_writes = 1;
      break;
    case FaultClass::kMsgCorrupt:
      options.corrupt_windows = 2;
      options.corrupt_prob = 0.25;
      break;
    case FaultClass::kStutter:
      options.stutters = 1;
      break;
    case FaultClass::kFlakyLink:
      options.flaky_links = 1;
      break;
    case FaultClass::kSlowNode:
      options.slow_nodes = 1;
      break;
  }
  sim::FaultPlan plan = sim::FaultPlan::random(seed, options);
  if (fault == FaultClass::kMsgCorrupt) {
    // The random windows are node-scoped to storage nodes, where traffic is
    // dominated by heartbeats and scrub digests — corruption there proves
    // the control plane shrugs it off, but rarely exercises the data-plane
    // checksums. Pin one extra window to a client node (whose traffic is
    // exclusively puts/gets) so every schedule also corrupts payloads the
    // end-to-end checksums must catch.
    const char* const client_nodes[] = {"client-us-west", "client-eu-west",
                                        "client-asia-east"};
    plan.corrupting_chaos(client_nodes[seed % 3],
                          TimePoint::origin() + sec(4),
                          TimePoint::origin() + sec(16), 0.5);
  }
  return plan;
}

// Scrubbing on a short period plus inline read-repair: the self-healing
// configuration every corruption-class run uses.
std::function<void(WieraPeer::Config&)> self_heal_tweak() {
  return [](WieraPeer::Config& config) { config.scrub_interval = sec(3); };
}

// Replication coalescing armed (docs/PERFORMANCE.md). The flush interval is
// stretched so queued updates actually pool up into multi-op batches — at
// the default 100ms tick this workload rarely has two updates queued at
// once and the batched wire path would go untested.
// Health-scored failure detection armed (docs/HEALTH.md): φ-accrual over
// the heartbeat plus per-target latency EWMAs drive the probation
// lifecycle. Everything else keeps its default, so these runs measure what
// the detector adds, not a retuned cluster.
std::function<void(WieraController::Config&)> health_tweak() {
  return [](WieraController::Config& config) { config.health.enabled = true; };
}

std::function<void(WieraPeer::Config&)> batching_tweak(
    int batch_max = 4, Duration flush_interval = msec(600)) {
  return [batch_max, flush_interval](WieraPeer::Config& config) {
    config.replicate_batch_max = batch_max;
    config.queue_flush_interval = flush_interval;
  };
}

struct RunResult {
  std::vector<sim::OracleViolation> violations;
  // Mode-independent finals check: post-scrub replicas must agree on every
  // key, and on a value some client actually wrote.
  std::vector<sim::OracleViolation> convergence_violations;
  uint64_t trace_hash = 0;
  int64_t ops = 0;
  int64_t completed_ok = 0;
  int64_t events_applied = 0;
  // Integrity counters summed across storage peers (docs/INTEGRITY.md).
  int64_t tier_checksum_failures = 0;  // corrupt copies caught on tier read
  int64_t quarantined = 0;             // corrupt copies removed from tiers
  int64_t wire_checksum_failures = 0;  // corrupt payloads caught at receive
  int64_t repairs = 0;                 // read-repair refetches that landed
  int64_t scrub_repairs = 0;           // scrubber-driven repairs
  int64_t scrub_rounds = 0;
  int64_t torn_writes = 0;    // durable writes torn by a crash window
  int64_t torn_discards = 0;  // journalled tears discarded on restart
  int64_t corrupted_msgs = 0;  // messages the network chaos corrupted
  // Replication coalescing (docs/PERFORMANCE.md): wire batches sent and the
  // logical updates they carried. Zero unless the run arms batching_tweak()
  // — coalescing ships default-off.
  int64_t replication_batches = 0;
  int64_t replication_batched_ops = 0;
  // Gray-failure detection (docs/HEALTH.md). The probation counters stay
  // zero unless the run arms health_tweak() — health detection ships
  // default-off.
  int64_t probation_entries = 0;
  int64_t probation_exits = 0;
  int64_t primary_changes = 0;
  int64_t client_failovers = 0;
  // Rendered ATTRIBUTION-REPORT block; empty when the oracles were clean.
  std::string attribution;
};

// One client: alternating put/get rounds against the two workload keys,
// every outcome recorded into the oracle. Failed puts stay "maybe" ops;
// kNotFound is an (ok) absent read; other get errors are ignored reads.
sim::Task<void> client_workload(sim::Simulation& sim,
                                sim::ConsistencyOracle& oracle,
                                WieraClient& client, int index) {
  co_await sim.delay(msec(300) * static_cast<double>(index + 1));
  for (int round = 0; round < 8; ++round) {
    const std::string key = kKeys[round % 2];
    const std::string value =
        "c" + std::to_string(index) + "r" + std::to_string(round);
    int64_t put_op = oracle.begin_put(client.id(), key, value, sim.now());
    auto put = co_await client.put(key, Blob(value));
    oracle.set_op_trace(put_op, client.last_trace_id());
    oracle.end_put(put_op, sim.now(), put.ok(), put.ok() ? put->version : 0);

    co_await sim.delay(msec(400) + msec(90) * static_cast<double>(index));

    int64_t get_op = oracle.begin_get(client.id(), key, sim.now());
    auto got = co_await client.get(key);
    oracle.set_op_trace(get_op, client.last_trace_id());
    if (got.ok()) {
      oracle.end_get(get_op, sim.now(), true, got->value.to_string(),
                     got->version, got->served_by);
    } else if (got.status().code() == StatusCode::kNotFound) {
      oracle.end_get(get_op, sim.now(), true, "", 0, "");
    } else {
      oracle.end_get(get_op, sim.now(), false, "", 0, "");
    }

    co_await sim.delay(msec(800));
  }
}

// Record every storage peer's final state for the convergence check: the
// latest committed version's metadata plus the payload as actually served
// from local tiers (an unreadable payload records as "" and shows up as
// divergence — losing a committed payload is a consistency bug).
sim::Task<void> harvest_finals(WieraController& controller,
                               sim::ConsistencyOracle& oracle, bool& done) {
  for (const char* node : kStorageNodes) {
    WieraPeer* peer = controller.peer(node);
    if (peer == nullptr) continue;
    for (const char* key : kKeys) {
      const metadb::ObjectMeta* obj = peer->local().meta().find(key);
      const metadb::VersionMeta* vm =
          obj == nullptr ? nullptr : obj->latest_committed();
      if (vm == nullptr) {
        oracle.record_replica_value(node, key, 0, TimePoint(), "", "");
        continue;
      }
      auto value = co_await peer->local().get_version(key, vm->version);
      oracle.record_replica_value(
          node, key, vm->version, vm->last_modified, vm->origin,
          value.ok() ? value->value.to_string() : "");
    }
  }
  done = true;
}

RunResult run_chaos(
    ConsistencyMode mode, FaultClass fault, uint64_t seed,
    std::function<void(WieraPeer::Config&)> peer_tweak = {},
    bool telemetry_on = true,
    std::function<void(WieraController::Config&)> controller_tweak = {}) {
  ChaosCluster cluster(seed, std::move(controller_tweak));
  if (!telemetry_on) cluster.sim.telemetry().set_enabled(false);
  // Timeseries runs additionally arm the per-peer hot-key sketches; default
  // runs keep the caller's tweak so seed schedules stay byte-identical.
  if (dump_timeseries_enabled()) {
    peer_tweak = [inner = std::move(peer_tweak)](WieraPeer::Config& config) {
      config.key_stats.enabled = true;
      if (inner) inner(config);
    };
  }
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(mode, std::move(peer_tweak)));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  injector.arm(plan_for(fault, seed));

  // Metrics pipeline (docs/METRICS_PIPELINE.md): unarmed by default — it
  // spawns nothing and the schedule stays byte-identical.
  sim::ObsPipeline pipeline(cluster.sim);
  arm_timeseries(pipeline, TimePoint::origin() + sec(40));

  sim::ConsistencyOracle oracle;
  std::vector<std::unique_ptr<WieraClient>> clients;
  const char* const client_nodes[] = {"client-us-west", "client-eu-west",
                                      "client-asia-east"};
  // Clients share the controller's health view (docs/HEALTH.md): a disabled
  // tracker records nothing and ranks every peer neutral, so default runs
  // keep the seed schedule; health_tweak() runs get health-ranked replica
  // ordering plus client-attempt latency feeds.
  WieraClient::Config client_config;
  client_config.health = &cluster.controller.health();
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<WieraClient>(
        cluster.sim, cluster.network, cluster.registry,
        "app-" + std::to_string(i), client_nodes[i], *peers, client_config));
    cluster.sim.spawn(
        client_workload(cluster.sim, oracle, *clients.back(), i));
  }

  // Workload and faults are over by ~30s even with full retry backoff;
  // running to 45s leaves room for crash recovery + catch-up to settle
  // before final replica states are harvested.
  cluster.sim.run_until(TimePoint(sec(45).us()));
  bool harvested = false;
  cluster.sim.spawn(harvest_finals(cluster.controller, oracle, harvested));
  cluster.sim.run_until(TimePoint(sec(50).us()));
  EXPECT_TRUE(harvested);

  RunResult result;
  result.violations = oracle.check(check_mode_for(mode));
  result.convergence_violations = oracle.check_convergence();
  result.trace_hash = cluster.sim.checker().trace_hash();
  result.ops = oracle.op_count();
  result.completed_ok = oracle.completed_ok_count();
  result.events_applied = injector.events_applied();
  // Integrity counters come straight from the metrics registry: every peer,
  // tier and client instrument lives there now, so a family sum is the
  // cluster-wide total (the per-object accessors are thin views over the
  // same series). Wire detections fold in the client-side family too — the
  // response leg is the last hop a corruption can hide on.
  const obs::Registry& reg = cluster.sim.telemetry().registry();
  result.tier_checksum_failures =
      reg.counter_sum("tiera_checksum_failures_total");
  result.quarantined = reg.counter_sum("tiera_quarantined_copies_total");
  result.wire_checksum_failures =
      reg.counter_sum("wiera_wire_checksum_failures_total") +
      reg.counter_sum("wiera_client_checksum_failures_total");
  result.repairs = reg.counter_sum("wiera_repairs_total");
  result.scrub_repairs = reg.counter_sum("wiera_scrub_repairs_total");
  result.scrub_rounds = reg.counter_sum("wiera_scrub_rounds_total");
  result.replication_batches =
      reg.counter_sum("wiera_replication_batches_total");
  result.replication_batched_ops =
      reg.counter_sum("wiera_replication_batched_ops_total");
  // Torn-write accounting stays at the storage-tier layer (not registered).
  for (const char* node : kStorageNodes) {
    WieraPeer* p = cluster.controller.peer(node);
    if (p == nullptr) continue;
    for (const std::string& label : p->local().tier_labels()) {
      const store::StorageTier* tier = p->local().tier_by_label(label);
      if (tier == nullptr) continue;
      result.torn_writes += tier->stats().torn_writes;
      result.torn_discards += tier->stats().torn_discards;
    }
  }
  result.corrupted_msgs = cluster.network.chaos_stats().corrupted;
  result.probation_entries = cluster.controller.health().probation_entries();
  result.probation_exits = cluster.controller.health().probation_exits();
  result.primary_changes = cluster.controller.primary_changes();
  for (const auto& client : clients) {
    result.client_failovers += client->failovers();
  }
  // Failure attribution (docs/METRICS_PIPELINE.md): any oracle violation
  // gets one report correlating the workload window with the injected fault
  // timeline, alert firings, per-peer hot keys and the worst spans.
  if (!result.violations.empty() || !result.convergence_violations.empty()) {
    sim::AttributionReport report;
    report.set_context("chaos",
                       std::string(consistency_mode_name(mode)) + ":" +
                           fault_class_name(fault),
                       seed, result.trace_hash);
    // The workload + fault plan both live inside the first 30s.
    report.set_window(TimePoint::origin(), TimePoint::origin() + sec(30));
    for (const auto& v : result.violations) {
      report.add_violation("consistency", v.key + ": " + v.message,
                           TimePoint::origin() + sec(30), v.trace_id);
    }
    for (const auto& v : result.convergence_violations) {
      report.add_violation("convergence", v.key + ": " + v.message,
                           TimePoint::origin() + sec(30), v.trace_id);
    }
    report.set_fault_timeline(injector.timeline());
    report.set_alerts(pipeline.alerts());
    const TimePoint now = cluster.sim.now();
    for (const char* node : kStorageNodes) {
      const WieraPeer* peer = cluster.controller.peer(node);
      if (peer != nullptr) report.add_key_stats(node, peer->key_stats(), now);
    }
    report.set_tracer(cluster.sim.telemetry().tracer());
    result.attribution = report.render_text();
    std::printf("%s", result.attribution.c_str());
  }

  if (dump_telemetry_enabled()) {
    std::set<uint64_t> traces{oracle.sample_put_trace()};
    for (const auto& v : result.violations) traces.insert(v.trace_id);
    for (const auto& v : result.convergence_violations)
      traces.insert(v.trace_id);
    dump_telemetry(cluster.sim, std::move(traces));
  }
  dump_timeseries(pipeline, cluster.controller,
                  {std::begin(kStorageNodes), std::end(kStorageNodes)},
                  cluster.sim.now());
  return result;
}

// Integrity counters: how much corruption was injected, how much each
// detection layer caught, and how much the self-healing machinery put back.
void print_corruption_stats(ConsistencyMode mode, FaultClass fault,
                            uint64_t seed, const RunResult& r) {
  print_stats("CORRUPTION",
              {{"seed", seed},
               {"mode", consistency_mode_name(mode)},
               {"fault", fault_class_name(fault)},
               {"tier_detected", r.tier_checksum_failures},
               {"quarantined", r.quarantined},
               {"wire_detected", r.wire_checksum_failures},
               {"repairs", r.repairs},
               {"scrub_repairs", r.scrub_repairs},
               {"scrub_rounds", r.scrub_rounds},
               {"torn", r.torn_writes},
               {"torn_discarded", r.torn_discards},
               {"corrupted_msgs", r.corrupted_msgs}},
              r.trace_hash);
}

// Probation lifecycle counters: how often the detector moved a peer
// into/out of probation, and the two things a gray peer must never cause —
// a primary change or a storm of client failovers.
void print_health_stats(ConsistencyMode mode, FaultClass fault, uint64_t seed,
                        const RunResult& r) {
  print_stats("HEALTH",
              {{"seed", seed},
               {"mode", consistency_mode_name(mode)},
               {"fault", fault_class_name(fault)},
               {"probation_entries", r.probation_entries},
               {"probation_exits", r.probation_exits},
               {"primary_changes", r.primary_changes},
               {"client_failovers", r.client_failovers}},
              r.trace_hash);
}

// --------------------------------------------- brownout (overload) schedule
//
// The request-lifecycle acceptance scenario (docs/OVERLOAD.md): the primary's
// region answers 10x slower than the client op deadline while the control
// plane browns out (lease renewals dropped, so serve leases lapse and the
// BoundedStaleness degradation policy kicks in). Admission control, circuit
// breakers, retry budgets and hedged GETs are all armed. Every request must
// resolve — OK, stale, or a clean overload status — within the deadline plus
// one cross-region round trip, and the consistency oracle must stay clean.

constexpr Duration kBrownoutDeadline = sec(2);
constexpr Duration kBrownoutSlack = sec(1);  // ~one WAN RTT + scheduling

struct BrownoutCounts {
  int64_t started = 0;
  int64_t resolved = 0;
  int64_t late = 0;        // resolved after deadline + slack
  int64_t unexpected = 0;  // status outside the allowed overload set
  int64_t ok = 0;
  int64_t stale = 0;
  int64_t expired = 0;
  int64_t unavailable = 0;
  int64_t exhausted = 0;
  int64_t not_found = 0;
};

struct BrownoutResult {
  std::vector<sim::OracleViolation> violations;
  uint64_t trace_hash = 0;
  BrownoutCounts counts;
  int64_t shed = 0;          // rpc admission sheds across all peers
  int64_t rpc_expired = 0;   // rpc calls cut off at their deadline
  int64_t stale_serves = 0;  // degraded reads served by peers
  int64_t fast_fails = 0;    // breaker-open fast failures
  int64_t hedged = 0;
  int64_t hedged_wins = 0;
  int64_t budget_denied = 0;
  // Full registry snapshots taken at quiescence, in both expositions —
  // what a failing seed's dump prints and what CI asserts coverage on.
  std::string metrics_text;
  std::string metrics_json;
};

void note_outcome(BrownoutCounts& counts, Duration elapsed, StatusCode code,
                  bool stale) {
  counts.resolved++;
  if (elapsed > kBrownoutDeadline + kBrownoutSlack) counts.late++;
  switch (code) {
    case StatusCode::kOk:
      if (stale) {
        counts.stale++;
      } else {
        counts.ok++;
      }
      break;
    case StatusCode::kDeadlineExceeded:
      counts.expired++;
      break;
    case StatusCode::kUnavailable:
      counts.unavailable++;
      break;
    case StatusCode::kResourceExhausted:
      counts.exhausted++;
      break;
    case StatusCode::kNotFound:
      counts.not_found++;
      break;
    default:
      counts.unexpected++;
      break;
  }
}

// Like client_workload, but every op carries the client's op deadline and
// its outcome/latency is audited. Stale reads go into the oracle as
// unverified (ok=false) — the oracle must not treat a flagged-stale value
// as proof of the strong invariant.
sim::Task<void> brownout_workload(sim::Simulation& sim,
                                  sim::ConsistencyOracle& oracle,
                                  WieraClient& client, int index,
                                  BrownoutCounts& counts) {
  co_await sim.delay(msec(300) * static_cast<double>(index + 1));
  for (int round = 0; round < 12; ++round) {
    const std::string key = kKeys[round % 2];
    const std::string value =
        "c" + std::to_string(index) + "r" + std::to_string(round);

    counts.started++;
    TimePoint start = sim.now();
    int64_t put_op = oracle.begin_put(client.id(), key, value, sim.now());
    auto put = co_await client.put(key, Blob(value));
    oracle.set_op_trace(put_op, client.last_trace_id());
    oracle.end_put(put_op, sim.now(), put.ok(), put.ok() ? put->version : 0);
    note_outcome(counts, sim.now() - start,
                 put.ok() ? StatusCode::kOk : put.status().code(),
                 /*stale=*/false);

    co_await sim.delay(msec(150) + msec(40) * static_cast<double>(index));

    counts.started++;
    start = sim.now();
    int64_t get_op = oracle.begin_get(client.id(), key, sim.now());
    auto got = co_await client.get(key);
    oracle.set_op_trace(get_op, client.last_trace_id());
    if (got.ok() && !got->stale) {
      oracle.end_get(get_op, sim.now(), true, got->value.to_string(),
                     got->version, got->served_by);
    } else {
      // Stale serves and failures are unverified reads; a flagged-stale
      // value must never count as evidence for the strong invariant.
      oracle.end_get(get_op, sim.now(), false, "", 0, "");
    }
    note_outcome(counts, sim.now() - start,
                 got.ok() ? StatusCode::kOk : got.status().code(),
                 got.ok() && got->stale);

    co_await sim.delay(msec(650));
  }
}

BrownoutResult run_brownout(uint64_t seed, bool telemetry_on = true) {
  ChaosCluster cluster(seed);
  if (!telemetry_on) cluster.sim.telemetry().set_enabled(false);
  auto degradation = policy::parse_policy(policy::builtin::bounded_staleness());
  EXPECT_TRUE(degradation.ok()) << degradation.status().to_string();
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(
                ConsistencyMode::kPrimaryBackupSync,
                [&degradation](WieraPeer::Config& config) {
                  config.max_inflight = 3;
                  config.max_queue = 2;
                  // Hair-trigger breakers: one burned forward deadline opens
                  // the circuit, and the open window outlasts a full deadline
                  // burn (2s) so another client's put through the same backup
                  // fast-fails instead of parking for its own deadline.
                  config.breaker_failures = 1;
                  config.breaker_open_for = sec(4);
                  config.retry_budget_per_sec = 2;
                  config.retry_budget_capacity = 5;
                  config.degradation_policy = degradation.value();
                }));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  std::string primary = kStorageNodes[0];
  for (const char* node : kStorageNodes) {
    WieraPeer* p = cluster.controller.peer(node);
    if (p != nullptr && p->is_primary()) primary = node;
  }

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  // Data plane: every message touching the primary is 10x the op deadline.
  // The controller has no ping deadline (seed behaviour), so its serial
  // heartbeat loop parks behind the first spiked ping for the whole spike:
  // no failover rescues the cluster, and backups keep forwarding puts into
  // the slow primary — exactly the regime circuit breakers exist for.
  // (PingDeadlineKeepsFailureDetectionLive covers the configured escape.)
  plan.latency_spike(primary, sec(20), TimePoint::origin() + sec(4),
                     TimePoint::origin() + sec(24));
  // Control plane: lease renewals dropped mid-spike, so every strong-mode
  // replica's serve lease lapses and BoundedStaleness takes over its reads.
  // The window starts well after the spike — if it covered the spike start,
  // every gate would close before a single put-forward could feed the
  // breakers.
  plan.message_chaos("wiera-controller", TimePoint::origin() + sec(14),
                     TimePoint::origin() + sec(21), /*drop_prob=*/1.0,
                     /*dup_prob=*/0.0);
  // Light drop/dup/reordering everywhere: per-seed variation for the sweep.
  plan.message_chaos("", TimePoint::origin() + sec(4),
                     TimePoint::origin() + sec(24), /*drop_prob=*/0.03,
                     /*dup_prob=*/0.03, msec(30));
  injector.arm(std::move(plan));

  WieraClient::Config client_config;
  client_config.op_deadline = kBrownoutDeadline;
  client_config.retry_budget_per_sec = 2;
  client_config.retry_budget_capacity = 5;
  client_config.hedge_gets = true;
  client_config.hedge_min_samples = 3;
  client_config.hedge_min_delay = msec(10);

  sim::ConsistencyOracle oracle;
  BrownoutCounts counts;
  std::vector<std::unique_ptr<WieraClient>> clients;
  const char* const client_nodes[] = {"client-us-west", "client-eu-west",
                                      "client-asia-east"};
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<WieraClient>(
        cluster.sim, cluster.network, cluster.registry,
        "app-" + std::to_string(i), client_nodes[i], *peers, client_config));
    cluster.sim.spawn(brownout_workload(cluster.sim, oracle, *clients.back(),
                                        i, counts));
  }

  // Worst case every one of 12 rounds burns its full deadline twice plus
  // inter-op delays: comfortably inside 60s of virtual time.
  cluster.sim.run_until(TimePoint(sec(60).us()));
  bool harvested = false;
  cluster.sim.spawn(harvest_finals(cluster.controller, oracle, harvested));
  cluster.sim.run_until(TimePoint(sec(62).us()));
  EXPECT_TRUE(harvested);

  BrownoutResult result;
  result.violations = oracle.check(sim::CheckMode::kPrimaryOrder);
  result.trace_hash = cluster.sim.checker().trace_hash();
  result.counts = counts;
  // Overload counters via registry reads. Family sums work where only one
  // side of the protocol can increment the series (clients never shed or
  // hedge-serve); rpc expirations are summed per storage node by label
  // because the client endpoints count their own deadline cut-offs in the
  // same family.
  const obs::Registry& reg = cluster.sim.telemetry().registry();
  result.shed = reg.counter_sum("rpc_calls_shed_total");
  result.stale_serves = reg.counter_sum("wiera_stale_serves_total");
  result.fast_fails = reg.counter_sum("wiera_breaker_fast_fails_total");
  result.hedged = reg.counter_sum("wiera_client_hedged_gets_total");
  result.hedged_wins = reg.counter_sum("wiera_client_hedged_wins_total");
  for (const char* node : kStorageNodes) {
    result.rpc_expired +=
        reg.counter_value("rpc_calls_expired_total", {{"node", node}});
    WieraPeer* p = cluster.controller.peer(node);
    if (p != nullptr) result.budget_denied += p->retry_budget_denials();
  }
  for (const auto& client : clients) {
    result.budget_denied += client->retry_budget_denials();
  }
  result.metrics_text = reg.render_text();
  result.metrics_json = reg.render_json();
  if (dump_telemetry_enabled()) {
    std::set<uint64_t> traces{oracle.sample_put_trace()};
    for (const auto& v : result.violations) traces.insert(v.trace_id);
    dump_telemetry(cluster.sim, std::move(traces));
  }
  return result;
}

// Overload counters of one brownout run (docs/OVERLOAD.md).
void print_brownout_stats(uint64_t seed, const BrownoutResult& r) {
  print_stats("BROWNOUT",
              {{"seed", seed},
               {"ok", r.counts.ok},
               {"stale", r.counts.stale},
               {"expired", r.counts.expired},
               {"unavailable", r.counts.unavailable},
               {"exhausted", r.counts.exhausted},
               {"notfound", r.counts.not_found},
               {"shed", r.shed},
               {"rpc_expired", r.rpc_expired},
               {"hedged", r.hedged},
               {"hedged_wins", r.hedged_wins},
               {"fastfail", r.fast_fails},
               {"budget_denied", r.budget_denied}},
              r.trace_hash);
}

TEST(ChaosBrownoutTest, EveryRequestResolvesUnderBrownoutAcrossSeeds) {
  const int seeds = seed_count(kSeedEnv);
  int64_t total_stale = 0;
  int64_t total_expired = 0;
  int64_t total_hedged = 0;
  int64_t total_fast_fails = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    BrownoutResult r = run_brownout(static_cast<uint64_t>(seed));
    print_brownout_stats(static_cast<uint64_t>(seed), r);
    EXPECT_EQ(r.counts.resolved, r.counts.started)
        << "seed " << seed << ": an op hung past quiescence";
    EXPECT_EQ(r.counts.late, 0)
        << "seed " << seed << ": op resolved after deadline + slack";
    EXPECT_EQ(r.counts.unexpected, 0)
        << "seed " << seed << ": status outside the allowed overload set";
    EXPECT_GT(r.counts.ok, 0) << "seed " << seed << ": no op completed";
    if (!r.violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed
                    << " mode=PrimaryBackupConsistency fault=brownout"
                    << " trace=" << hex_trace(r.trace_hash) << "\n"
                    << sim::ConsistencyOracle::describe(r.violations);
    }
    total_stale += r.counts.stale;
    total_expired += r.counts.expired;
    total_hedged += r.hedged;
    total_fast_fails += r.fast_fails;
  }
  EXPECT_GT(total_expired, 0) << "brownout never expired a single request";
  EXPECT_GT(total_stale, 0) << "degradation policy never served stale";
  EXPECT_GT(total_hedged, 0) << "hedging never triggered";
  EXPECT_GT(total_fast_fails, 0) << "no breaker ever fast-failed";
}

TEST(ChaosBrownoutTest, TraceHashReplayDeterministicWithOverloadActive) {
  BrownoutResult a = run_brownout(/*seed=*/7);
  BrownoutResult b = run_brownout(/*seed=*/7);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.counts.ok, b.counts.ok);
  EXPECT_EQ(a.counts.stale, b.counts.stale);
  EXPECT_EQ(a.counts.expired, b.counts.expired);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.fast_fails, b.fast_fails);
  EXPECT_EQ(a.hedged, b.hedged);
  BrownoutResult c = run_brownout(/*seed=*/8);
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

// Telemetry must be schedule-invisible (docs/DETERMINISM.md): disabling it
// (no span retention, no journal IO) leaves the determinism hash and every
// outcome byte-identical. Metrics always record — they are pure memory —
// so even the rendered snapshot matches.
TEST(ChaosBrownoutTest, TelemetryOffLeavesScheduleAndHashIdentical) {
  BrownoutResult on = run_brownout(/*seed=*/7);
  BrownoutResult off = run_brownout(/*seed=*/7, /*telemetry_on=*/false);
  EXPECT_EQ(on.trace_hash, off.trace_hash);
  EXPECT_EQ(on.counts.ok, off.counts.ok);
  EXPECT_EQ(on.counts.stale, off.counts.stale);
  EXPECT_EQ(on.counts.expired, off.counts.expired);
  EXPECT_EQ(on.shed, off.shed);
  EXPECT_EQ(on.rpc_expired, off.rpc_expired);
  EXPECT_EQ(on.fast_fails, off.fast_fails);
  EXPECT_EQ(on.hedged, off.hedged);
  EXPECT_EQ(on.metrics_text, off.metrics_text);
}

// Acceptance snapshot: a brownout seed's registry covers the whole
// overload/degradation surface in both expositions. Families created
// unconditionally (endpoint/peer/client/tier constructors) must always be
// present; the breaker-transition family only materialises once a breaker
// actually trips.
TEST(ChaosBrownoutTest, RegistrySnapshotCoversOverloadCounters) {
  BrownoutResult r = run_brownout(/*seed=*/3);
  ASSERT_FALSE(r.metrics_text.empty());
  for (const char* name :
       {"rpc_calls_handled_total", "rpc_calls_shed_total",
        "rpc_calls_expired_total", "wiera_breaker_fast_fails_total",
        "wiera_stale_serves_total", "wiera_replication_retries_total",
        "wiera_client_hedged_gets_total", "wiera_client_failovers_total",
        "wiera_client_put_latency_us", "tiera_put_latency_us",
        "tiera_checksum_failures_total"}) {
    EXPECT_NE(r.metrics_text.find(name), std::string::npos)
        << "text snapshot missing " << name;
    EXPECT_NE(r.metrics_json.find(name), std::string::npos)
        << "json snapshot missing " << name;
  }
  if (r.fast_fails > 0) {
    EXPECT_NE(r.metrics_text.find("wiera_breaker_transitions_total"),
              std::string::npos)
        << "breaker fast-failed but no transition series was recorded";
  }
}

// --------------------------------------------------------------- span trees
//
// Whole-tree assertions on the Dapper-style traces (docs/OBSERVABILITY.md):
// a client op must reassemble into a single rooted tree with no orphan or
// duplicate spans — across hedging, replication retries and deadline
// expiry — and every span must be closed once the op resolves.

TEST(TelemetryTraceTest, CrossRegionPutProducesWellFormedSpanTree) {
  ChaosCluster cluster(/*seed=*/11);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app-eu",
                 "client-eu-west", *peers);
  auto one_put = [](sim::Simulation& sim, WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    auto put = co_await c.put("k0", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  };
  cluster.sim.spawn(one_put(cluster.sim, eu));
  cluster.sim.run_until(TimePoint(sec(8).us()));

  const obs::Tracer& tracer = cluster.sim.telemetry().tracer();
  const uint64_t trace_id = eu.last_trace_id();
  ASSERT_NE(trace_id, 0u);
  obs::TraceView view(tracer, trace_id);
  ASSERT_FALSE(view.empty());
  EXPECT_TRUE(view.well_formed()) << view.render();
  ASSERT_NE(view.root(), nullptr);
  EXPECT_EQ(view.root()->name, "client.put");
  EXPECT_EQ(view.root()->host, "app-eu");
  EXPECT_EQ(view.root()->status, "ok");

  // Per-hop latency breakdown: every span closed, none starting before the
  // root, and the hop inventory of a forwarded + sync-replicated put —
  // client rpc into the nearest peer, a server span per handled rpc, one
  // tier write at the primary, and replication fan-out to the backups.
  int rpc_calls = 0, rpc_servers = 0, tier_puts = 0, replications = 0;
  for (const obs::Span* span : view.spans()) {
    EXPECT_FALSE(span->open()) << span->name << " never closed";
    EXPECT_GE(span->start.us(), view.root()->start.us()) << span->name;
    if (span->name.rfind("rpc.call ", 0) == 0) rpc_calls++;
    if (span->name.rfind("rpc.server ", 0) == 0) rpc_servers++;
    if (span->name == "tiera.put") tier_puts++;
    if (span->name.rfind("peer.replicate ", 0) == 0) replications++;
  }
  EXPECT_GE(rpc_calls, 2) << view.render();
  EXPECT_GE(rpc_servers, 2) << view.render();
  EXPECT_EQ(tier_puts, 1) << view.render();
  EXPECT_GE(replications, 1) << view.render();
  EXPECT_EQ(tracer.open_count(), 0);
}

TEST(TelemetryTraceTest, HedgedGetTraceShowsBothAttempts) {
  ChaosCluster cluster(/*seed=*/13);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  // Slow the client's nearest peer so the hedge timer — armed from the
  // warm-up get's latency sample — fires and the backup attempt wins.
  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.latency_spike("tiera-eu-west", sec(5), TimePoint::origin() + sec(2),
                     TimePoint::origin() + sec(20));
  injector.arm(std::move(plan));

  WieraClient::Config config;
  config.hedge_gets = true;
  config.hedge_min_samples = 1;
  config.hedge_min_delay = msec(10);
  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app-eu",
                 "client-eu-west", *peers, config);

  uint64_t get_trace = 0;
  auto workload = [&get_trace](sim::Simulation& sim,
                               WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    auto put = co_await c.put("k0", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
    auto warm = co_await c.get("k0");  // latency sample for the hedge timer
    EXPECT_TRUE(warm.ok()) << warm.status().to_string();
    co_await sim.delay(sec(2));  // t=3s: the spike is active
    auto got = co_await c.get("k0");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    get_trace = c.last_trace_id();
  };
  cluster.sim.spawn(workload(cluster.sim, eu));
  cluster.sim.run_until(TimePoint(sec(40).us()));

  ASSERT_GT(eu.hedged_gets(), 0);
  ASSERT_NE(get_trace, 0u);
  obs::TraceView view(cluster.sim.telemetry().tracer(), get_trace);
  EXPECT_TRUE(view.well_formed()) << view.render();
  ASSERT_NE(view.root(), nullptr);
  // Both racing attempts hang off the same root — the spiked primary path
  // and the hedge — and the root records that the hedge fired and won.
  int attempts = 0;
  bool hedged = false, hedge_won = false;
  for (const obs::Span* span : view.spans()) {
    if (span->name == "rpc.call peer.client_get") attempts++;
  }
  for (const std::string& a : view.root()->annotations) {
    if (a == "hedged=true") hedged = true;
    if (a == "hedge_won=true") hedge_won = true;
  }
  EXPECT_GE(attempts, 2) << view.render();
  EXPECT_TRUE(hedged) << view.render();
  EXPECT_TRUE(hedge_won) << view.render();
  EXPECT_EQ(cluster.sim.telemetry().tracer().open_count(), 0);
}

TEST(TelemetryTraceTest, DeadlineExpiryStillClosesEverySpan) {
  ChaosCluster cluster(/*seed=*/17);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  std::string primary = kStorageNodes[0];
  for (const char* node : kStorageNodes) {
    WieraPeer* p = cluster.controller.peer(node);
    if (p != nullptr && p->is_primary()) primary = node;
  }

  // Every message touching the primary takes 5s against a 500ms op
  // deadline: the put must resolve kDeadlineExceeded at the client while
  // the late-arriving request is expired server-side — and both halves of
  // the trace must still close.
  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.latency_spike(primary, sec(5), TimePoint::origin() + sec(2),
                     TimePoint::origin() + sec(10));
  injector.arm(std::move(plan));

  WieraClient::Config config;
  config.op_deadline = msec(500);
  WieraClient us(cluster.sim, cluster.network, cluster.registry, "app-us",
                 "client-us-west", *peers, config);

  bool expired = false;
  auto workload = [&expired](sim::Simulation& sim,
                             WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(3));  // inside the spike window
    auto put = co_await c.put("k0", Blob("v"));
    expired = !put.ok() &&
              put.status().code() == StatusCode::kDeadlineExceeded;
  };
  cluster.sim.spawn(workload(cluster.sim, us));
  cluster.sim.run_until(TimePoint(sec(30).us()));

  EXPECT_TRUE(expired);
  const obs::Tracer& tracer = cluster.sim.telemetry().tracer();
  obs::TraceView view(tracer, us.last_trace_id());
  ASSERT_FALSE(view.empty());
  EXPECT_TRUE(view.well_formed()) << view.render();
  ASSERT_NE(view.root(), nullptr);
  EXPECT_EQ(view.root()->status, "DEADLINE_EXCEEDED") << view.render();
  for (const obs::Span* span : view.spans()) {
    EXPECT_FALSE(span->open()) << span->name << " never closed";
  }
  EXPECT_EQ(tracer.open_count(), 0) << "spans leaked past quiescence: "
                                    << ::testing::PrintToString(
                                           tracer.open_span_names());
}

TEST(TelemetryTraceTest, RetriedReplicationKeepsOneSpanPerTarget) {
  ChaosCluster cluster(/*seed=*/19);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  std::string primary = kStorageNodes[0];
  for (const char* node : kStorageNodes) {
    WieraPeer* p = cluster.controller.peer(node);
    if (p != nullptr && p->is_primary()) primary = node;
  }
  std::string victim;
  for (const char* node : kStorageNodes) {
    if (primary != node) {
      victim = node;
      break;
    }
  }

  // Drop every message to one backup for 600ms around the put: the sync
  // replication to it must retry through the window (exponential backoff
  // from 50ms reaches past 600ms well inside the retry cap) and the whole
  // retry loop must stay inside ONE span per target, annotated per attempt
  // — never one span per attempt.
  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.message_chaos(victim, TimePoint::origin() + sec(2),
                     TimePoint::origin() + msec(2600), /*drop_prob=*/1.0,
                     /*dup_prob=*/0.0);
  injector.arm(std::move(plan));

  WieraClient us(cluster.sim, cluster.network, cluster.registry, "app-us",
                 "client-us-west", *peers);
  bool put_ok = false;
  auto workload = [&put_ok](sim::Simulation& sim,
                            WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(msec(2050));  // inside the drop window
    auto put = co_await c.put("k0", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
    put_ok = put.ok();
  };
  cluster.sim.spawn(workload(cluster.sim, us));
  cluster.sim.run_until(TimePoint(sec(20).us()));

  ASSERT_TRUE(put_ok);
  obs::TraceView view(cluster.sim.telemetry().tracer(), us.last_trace_id());
  EXPECT_TRUE(view.well_formed()) << view.render();
  std::map<std::string, int> per_target;
  bool victim_retried = false;
  for (const obs::Span* span : view.spans()) {
    if (span->name.rfind("peer.replicate ", 0) != 0) continue;
    per_target[span->name]++;
    if (span->name == "peer.replicate " + victim) {
      for (const std::string& a : span->annotations) {
        if (a.rfind("retry=", 0) == 0) victim_retried = true;
      }
      EXPECT_EQ(span->status, "ok") << view.render();
    }
  }
  // One span per replication target (the policy's replica set, not
  // necessarily every peer), each covering its whole retry loop.
  ASSERT_GE(per_target.size(), 2u) << view.render();
  for (const auto& [name, count] : per_target) {
    EXPECT_EQ(count, 1) << name << " span duplicated across retries\n"
                        << view.render();
  }
  EXPECT_TRUE(victim_retried) << view.render();
  EXPECT_EQ(cluster.sim.telemetry().tracer().open_count(), 0);
}

TEST(TelemetryTraceTest, BatchedFlushRacingDropsClosesEverySpan) {
  // A burst of puts pools into the primary's queue and flushes as coalesced
  // batches while one replica drops everything: the batch send must retry
  // inside its one wire span, every per-op span must close with its op's
  // outcome and carry the batched=N annotation, and nothing may stay open
  // once the retries resolve.
  ChaosCluster cluster(/*seed=*/23);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual,
                                batching_tweak(4, msec(400))));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.message_chaos("tiera-asia-east", TimePoint::origin() + sec(1),
                     TimePoint::origin() + msec(2800), /*drop_prob=*/1.0,
                     /*dup_prob=*/0.0);
  injector.arm(std::move(plan));

  WieraClient us(cluster.sim, cluster.network, cluster.registry, "app-us",
                 "client-us-west", *peers);
  int puts_ok = 0;
  auto workload = [&puts_ok](sim::Simulation& sim,
                             WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    for (int i = 0; i < 6; ++i) {
      auto put = co_await c.put(kKeys[i % 2], Blob("v" + std::to_string(i)));
      EXPECT_TRUE(put.ok()) << put.status().to_string();
      if (put.ok()) puts_ok++;
    }
  };
  cluster.sim.spawn(workload(cluster.sim, us));
  cluster.sim.run_until(TimePoint(sec(30).us()));
  ASSERT_EQ(puts_ok, 6);

  const obs::Tracer& tracer = cluster.sim.telemetry().tracer();
  int batch_spans = 0;
  int op_spans = 0;
  bool coalesced = false;
  bool batch_retried = false;
  // Span ids are sequential from 1; evicted ids return nullptr.
  const uint64_t total = tracer.span_count() +
                         static_cast<uint64_t>(tracer.dropped());
  for (uint64_t id = 1; id <= total; ++id) {
    const obs::Span* span = tracer.find_span(id);
    if (span == nullptr) continue;
    EXPECT_FALSE(span->open()) << span->name << " never closed";
    if (span->name.rfind("peer.replicate_batch ", 0) == 0) {
      batch_spans++;
      for (const std::string& a : span->annotations) {
        if (a.rfind("batched=", 0) == 0 && a != "batched=1") coalesced = true;
        if (a.rfind("retry=", 0) == 0) batch_retried = true;
      }
    } else if (span->name.rfind("peer.replicate ", 0) == 0) {
      op_spans++;
      bool annotated = false;
      for (const std::string& a : span->annotations) {
        if (a.rfind("batched=", 0) == 0) annotated = true;
      }
      EXPECT_TRUE(annotated)
          << span->name << " missing batched= (op sent outside a batch?)";
    }
  }
  EXPECT_GT(batch_spans, 0) << "no batch wire span recorded";
  // One per-op span per update per target, exactly as the per-op path.
  EXPECT_GE(op_spans, 6);
  EXPECT_TRUE(coalesced) << "no batch ever carried more than one update";
  EXPECT_TRUE(batch_retried) << "drop window never forced a batch retry";
  EXPECT_EQ(tracer.open_count(), 0)
      << ::testing::PrintToString(tracer.open_span_names());
}

// ------------------------------------------------------- randomized sweeps

struct ChaosCase {
  ConsistencyMode mode;
  FaultClass fault;
};

class ChaosSuite : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosSuite, OracleHoldsAcrossSeeds) {
  const ChaosCase c = GetParam();
  const int seeds = seed_count(kSeedEnv);
  for (int seed = 1; seed <= seeds; ++seed) {
    RunResult r = run_chaos(c.mode, c.fault, static_cast<uint64_t>(seed));
    EXPECT_GT(r.completed_ok, 0) << "seed " << seed << ": no op completed";
    EXPECT_GT(r.events_applied, 0) << "seed " << seed << ": no fault fired";
    if (!r.violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed << " mode="
                    << consistency_mode_name(c.mode)
                    << " fault=" << fault_class_name(c.fault)
                    << " trace=" << hex_trace(r.trace_hash) << "\n"
                    << sim::ConsistencyOracle::describe(r.violations);
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string mode(consistency_mode_name(info.param.mode));
  for (char& ch : mode) {
    if (ch == '-') ch = '_';
  }
  return mode + "_" + fault_class_name(info.param.fault);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAllFaults, ChaosSuite,
    ::testing::Values(
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kPartition},
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kCrash},
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kDropWindow},
        ChaosCase{ConsistencyMode::kMultiPrimaries,
                  FaultClass::kLatencySpike},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync, FaultClass::kPartition},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync, FaultClass::kCrash},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync,
                  FaultClass::kDropWindow},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync,
                  FaultClass::kLatencySpike},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kPartition},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kCrash},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kDropWindow},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kLatencySpike}),
    case_name);

// --------------------------------------------------------- batching sweeps
//
// Replication coalescing ships with replicate_batch_max = 1, so every suite
// above exercises the per-op wire path. This sweep re-runs the queue-driven
// mode's fault matrix with coalescing armed: same oracle, same invariants —
// a batch is an encoding of the queue, never a semantic change. Eventual is
// the mode whose every put rides the flusher, so it is where batches form.

class BatchingChaosSuite : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(BatchingChaosSuite, OracleHoldsWithCoalescingArmed) {
  const ChaosCase c = GetParam();
  const int seeds = seed_count(kSeedEnv);
  int64_t batches = 0;
  int64_t batched_ops = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    RunResult r = run_chaos(c.mode, c.fault, static_cast<uint64_t>(seed),
                            batching_tweak());
    batches += r.replication_batches;
    batched_ops += r.replication_batched_ops;
    EXPECT_GT(r.completed_ok, 0) << "seed " << seed << ": no op completed";
    EXPECT_GT(r.events_applied, 0) << "seed " << seed << ": no fault fired";
    if (!r.violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed << " mode="
                    << consistency_mode_name(c.mode)
                    << " fault=" << fault_class_name(c.fault)
                    << " batching=on trace=" << hex_trace(r.trace_hash)
                    << "\n"
                    << sim::ConsistencyOracle::describe(r.violations);
    }
  }
  // The sweep only proves something if coalescing actually engaged.
  EXPECT_GT(batches, 0) << "no batch sent across " << seeds << " seeds";
  EXPECT_GE(batched_ops, batches);
}

INSTANTIATE_TEST_SUITE_P(
    EventualAllFaults, BatchingChaosSuite,
    ::testing::Values(
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kPartition},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kCrash},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kDropWindow},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kLatencySpike}),
    case_name);

// ------------------------------------------------------- corruption sweeps
//
// Every consistency mode against every integrity fault class, with the
// self-healing machinery (periodic scrub + inline read-repair) enabled.
// Two oracle gates per seed: no client GET ever observes a corrupt payload
// (the per-mode invariant check — a rotted read surfaces as "a value nobody
// wrote"), and after the last scrub all replicas are digest-identical on a
// client-written value (check_convergence).

class CorruptionSuite : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(CorruptionSuite, NoCorruptReadsAndEventualRepairAcrossSeeds) {
  const ChaosCase c = GetParam();
  const int seeds = seed_count(kSeedEnv);
  int64_t total_detected = 0;
  int64_t total_healed = 0;
  int64_t total_corrupted_msgs = 0;
  int64_t total_scrub_rounds = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    RunResult r = run_chaos(c.mode, c.fault, static_cast<uint64_t>(seed),
                            self_heal_tweak());
    print_corruption_stats(c.mode, c.fault, static_cast<uint64_t>(seed), r);
    EXPECT_GT(r.completed_ok, 0) << "seed " << seed << ": no op completed";
    EXPECT_GT(r.events_applied, 0) << "seed " << seed << ": no fault fired";
    if (!r.violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed
                    << " mode=" << consistency_mode_name(c.mode)
                    << " fault=" << fault_class_name(c.fault)
                    << " trace=" << hex_trace(r.trace_hash) << "\n"
                    << sim::ConsistencyOracle::describe(r.violations);
    }
    if (!r.convergence_violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed
                    << " mode=" << consistency_mode_name(c.mode)
                    << " fault=" << fault_class_name(c.fault)
                    << " trace=" << hex_trace(r.trace_hash)
                    << " (post-scrub replicas not digest-identical)\n"
                    << sim::ConsistencyOracle::describe(
                           r.convergence_violations);
    }
    total_detected += r.tier_checksum_failures + r.wire_checksum_failures;
    total_healed += r.repairs + r.scrub_repairs + r.torn_discards;
    total_corrupted_msgs += r.corrupted_msgs;
    total_scrub_rounds += r.scrub_rounds;
  }
  EXPECT_GT(total_scrub_rounds, 0) << "scrubber never ran";
  switch (c.fault) {
    case FaultClass::kBitRot:
      // Across the sweep some rot events must land on live copies, be
      // detected by a checksum layer, and be healed from a peer.
      EXPECT_GT(total_detected, 0) << "no bit rot was ever detected";
      EXPECT_GT(total_healed, 0) << "no rotted copy was ever repaired";
      break;
    case FaultClass::kMsgCorrupt:
      EXPECT_GT(total_corrupted_msgs, 0) << "chaos never corrupted a message";
      EXPECT_GT(total_detected, 0) << "no corrupt payload was ever detected";
      break;
    default:
      // Torn-write crashes tear a durable write only when one is in flight
      // at the crash instant — too rare to assert per-sweep; the targeted
      // TornWriteDiscardedOnRestart regression pins that path down.
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAllCorruptionFaults, CorruptionSuite,
    ::testing::Values(
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kBitRot},
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kTornWrite},
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kMsgCorrupt},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync, FaultClass::kBitRot},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync,
                  FaultClass::kTornWrite},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync,
                  FaultClass::kMsgCorrupt},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kBitRot},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kTornWrite},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kMsgCorrupt}),
    case_name);

// ----------------------------------------------------- gray-failure sweeps
//
// Every consistency mode against every gray fault class (docs/HEALTH.md),
// with health-scored failure detection armed. A gray peer is degraded, not
// dead: it answers every binary liveness probe while serving late, lossy,
// or slow. The acceptance bar is twofold — the per-mode oracle stays clean,
// and the detector never escalates: a single gray peer must not trip
// failover (zero primary changes), because probation demotes ranking and
// fan-out order without ever narrowing membership.

class GrayFailureSuite : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(GrayFailureSuite, SingleGrayPeerNeverTripsFailoverAcrossSeeds) {
  const ChaosCase c = GetParam();
  const int seeds = seed_count(kSeedEnv);
  int64_t total_probations = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    RunResult r = run_chaos(c.mode, c.fault, static_cast<uint64_t>(seed), {},
                            /*telemetry_on=*/true, health_tweak());
    print_health_stats(c.mode, c.fault, static_cast<uint64_t>(seed), r);
    EXPECT_GT(r.completed_ok, 0) << "seed " << seed << ": no op completed";
    EXPECT_GT(r.events_applied, 0) << "seed " << seed << ": no fault fired";
    EXPECT_EQ(r.primary_changes, 0)
        << "seed " << seed << ": a gray (degraded, not dead) peer tripped "
        << "failover";
    if (!r.violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed
                    << " mode=" << consistency_mode_name(c.mode)
                    << " fault=" << fault_class_name(c.fault)
                    << " trace=" << hex_trace(r.trace_hash) << "\n"
                    << sim::ConsistencyOracle::describe(r.violations);
    }
    total_probations += r.probation_entries;
  }
  // A sustained 8x slowdown sits far past degraded_factor: across the sweep
  // the latency-EWMA signal must put someone into probation. The other two
  // classes can stay below the thresholds on short windows (a stutter only
  // produces late samples at thaw; a flaky link mostly costs retries), so
  // they assert only the never-escalate side.
  if (c.fault == FaultClass::kSlowNode) {
    EXPECT_GT(total_probations, 0)
        << "an 8x-slow node never entered probation across " << seeds
        << " seeds";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAllGrayFaults, GrayFailureSuite,
    ::testing::Values(
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kStutter},
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kFlakyLink},
        ChaosCase{ConsistencyMode::kMultiPrimaries, FaultClass::kSlowNode},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync, FaultClass::kStutter},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync,
                  FaultClass::kFlakyLink},
        ChaosCase{ConsistencyMode::kPrimaryBackupSync,
                  FaultClass::kSlowNode},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kStutter},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kFlakyLink},
        ChaosCase{ConsistencyMode::kEventual, FaultClass::kSlowNode}),
    case_name);

// ------------------------------------------------------------ determinism

TEST(ChaosDeterminismTest, SameSeedSameTraceHash) {
  RunResult a = run_chaos(ConsistencyMode::kEventual, FaultClass::kDropWindow,
                          /*seed=*/7);
  RunResult b = run_chaos(ConsistencyMode::kEventual, FaultClass::kDropWindow,
                          /*seed=*/7);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  RunResult c = run_chaos(ConsistencyMode::kEventual, FaultClass::kDropWindow,
                          /*seed=*/8);
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

TEST(ChaosDeterminismTest, SameSeedSameTraceHashWithScrubAndRepairActive) {
  // The self-healing paths (scrub rounds, digest exchanges, read-repair
  // refetches) are themselves folded into the trace: a replay with bit rot
  // plus an active scrubber must reproduce hash-identically.
  RunResult a = run_chaos(ConsistencyMode::kEventual, FaultClass::kBitRot,
                          /*seed=*/7, self_heal_tweak());
  RunResult b = run_chaos(ConsistencyMode::kEventual, FaultClass::kBitRot,
                          /*seed=*/7, self_heal_tweak());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.tier_checksum_failures, b.tier_checksum_failures);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
  EXPECT_EQ(a.scrub_rounds, b.scrub_rounds);
  RunResult c = run_chaos(ConsistencyMode::kEventual, FaultClass::kBitRot,
                          /*seed=*/8, self_heal_tweak());
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

TEST(ChaosDeterminismTest, SameSeedSameTraceHashWithHealthDetectionArmed) {
  // The detector's whole pipeline — ping feeds, latency EWMAs, probation
  // transitions, health-ranked client ordering, probation-last fan-out — is
  // schedule-affecting state, so a replay with a gray fault and health
  // armed must reproduce hash-identically, down to the probation counters.
  RunResult a = run_chaos(ConsistencyMode::kEventual, FaultClass::kSlowNode,
                          /*seed=*/7, {}, /*telemetry_on=*/true,
                          health_tweak());
  RunResult b = run_chaos(ConsistencyMode::kEventual, FaultClass::kSlowNode,
                          /*seed=*/7, {}, /*telemetry_on=*/true,
                          health_tweak());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.probation_entries, b.probation_entries);
  EXPECT_EQ(a.probation_exits, b.probation_exits);
  EXPECT_EQ(a.client_failovers, b.client_failovers);
  RunResult c = run_chaos(ConsistencyMode::kEventual, FaultClass::kSlowNode,
                          /*seed=*/8, {}, /*telemetry_on=*/true,
                          health_tweak());
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

TEST(ChaosDeterminismTest, SameSeedSameTraceHashWithBatchingArmed) {
  // Coalesced flushes (chunking, size-triggered rounds, batch retries) are
  // all folded into the trace: a replay with batching armed must reproduce
  // hash-identically, down to how many batches were cut and what they held.
  RunResult a = run_chaos(ConsistencyMode::kEventual, FaultClass::kDropWindow,
                          /*seed=*/7, batching_tweak());
  RunResult b = run_chaos(ConsistencyMode::kEventual, FaultClass::kDropWindow,
                          /*seed=*/7, batching_tweak());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.replication_batches, b.replication_batches);
  EXPECT_EQ(a.replication_batched_ops, b.replication_batched_ops);
  EXPECT_GT(a.replication_batches, 0);
  RunResult c = run_chaos(ConsistencyMode::kEventual, FaultClass::kDropWindow,
                          /*seed=*/8, batching_tweak());
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

// ------------------------------------------------------------ mutation test

// Acceptance gate for the oracle itself: break the LWW comparator on one
// replica (version-only, ignoring the timestamp/origin tiebreak) and the
// eventual-consistency check must observe divergence after quiescence.
//
// The scenario forces a version tie: two clients in different regions write
// the same key 50ms apart — within the queue-flush interval, so each
// replica assigns version 1 to its own write. Correct LWW picks the later
// timestamp everywhere; the broken replica (which ignores timestamps on
// version ties) keeps its stale local value and diverges.
RunResult run_lww_scenario(
    std::function<void(WieraPeer::Config&)> peer_tweak) {
  ChaosCluster cluster(/*seed=*/9);
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(ConsistencyMode::kEventual, std::move(peer_tweak)));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  sim::ConsistencyOracle oracle;
  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app-eu",
                 "client-eu-west", *peers);
  WieraClient us(cluster.sim, cluster.network, cluster.registry, "app-us",
                 "client-us-west", *peers);
  auto do_put = [](sim::Simulation& sim, sim::ConsistencyOracle& oracle,
                   WieraClient& c, std::string value) -> sim::Task<void> {
    int64_t op = oracle.begin_put(c.id(), "k0", value, sim.now());
    auto put = co_await c.put("k0", Blob(value));
    oracle.end_put(op, sim.now(), put.ok(), put.ok() ? put->version : 0);
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  };
  auto writers = [&](sim::Simulation& sim) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    co_await do_put(sim, oracle, eu, "stale-loser");
    co_await sim.delay(msec(50));
    co_await do_put(sim, oracle, us, "true-winner");
  };
  cluster.sim.spawn(writers(cluster.sim));
  cluster.sim.run_until(TimePoint(sec(10).us()));

  bool harvested = false;
  cluster.sim.spawn(harvest_finals(cluster.controller, oracle, harvested));
  cluster.sim.run_until(TimePoint(sec(11).us()));
  EXPECT_TRUE(harvested);

  RunResult result;
  result.violations = oracle.check(sim::CheckMode::kEventual);
  result.trace_hash = cluster.sim.checker().trace_hash();
  result.ops = oracle.op_count();
  result.completed_ok = oracle.completed_ok_count();
  return result;
}

TEST(ChaosMutationTest, BrokenLwwComparatorIsCaught) {
  RunResult broken = run_lww_scenario([](WieraPeer::Config& config) {
    if (config.instance_id != "tiera-eu-west") return;
    config.local.lww_override = [](const tiera::LwwSample& incoming,
                                   const tiera::LwwSample& local) {
      return incoming.version > local.version;
    };
  });
  EXPECT_FALSE(broken.violations.empty())
      << "oracle failed to notice a deliberately broken LWW comparator";

  // Control: the same scenario with the real comparator converges.
  RunResult honest = run_lww_scenario({});
  EXPECT_TRUE(honest.violations.empty())
      << sim::ConsistencyOracle::describe(honest.violations);
}

// Acceptance gate for the integrity oracle: disable checksum verification
// on one replica and rot its stored copy. The crippled replica serves the
// rotted payload (its wire checksum is recomputed over the bytes it sends,
// so the client's transit check passes — exactly the blind spot read-path
// verification exists to cover), and the oracle must flag the read as a
// value nobody wrote. The control run (verification on) detects the rot on
// read, repairs from a peer, and stays clean.
RunResult run_bit_rot_scenario(
    std::function<void(WieraPeer::Config&)> peer_tweak) {
  ChaosCluster cluster(/*seed=*/12);
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(ConsistencyMode::kEventual, std::move(peer_tweak)));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.bit_rot("tiera-eu-west", "k0", TimePoint::origin() + sec(5));
  injector.arm(std::move(plan));

  sim::ConsistencyOracle oracle;
  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app-eu",
                 "client-eu-west", *peers);
  auto workload = [](sim::Simulation& sim, sim::ConsistencyOracle& oracle,
                     WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    int64_t put_op = oracle.begin_put(c.id(), "k0", "good-value", sim.now());
    auto put = co_await c.put("k0", Blob("good-value"));
    oracle.end_put(put_op, sim.now(), put.ok(), put.ok() ? put->version : 0);
    EXPECT_TRUE(put.ok()) << put.status().to_string();

    co_await sim.delay(sec(5));  // t=6s: eu-west's copy rotted at t=5
    int64_t get_op = oracle.begin_get(c.id(), "k0", sim.now());
    auto got = co_await c.get("k0");
    if (got.ok()) {
      oracle.end_get(get_op, sim.now(), true, got->value.to_string(),
                     got->version, got->served_by);
    } else {
      oracle.end_get(get_op, sim.now(), false, "", 0, "");
    }
  };
  cluster.sim.spawn(workload(cluster.sim, oracle, eu));
  cluster.sim.run_until(TimePoint(sec(10).us()));

  bool harvested = false;
  cluster.sim.spawn(harvest_finals(cluster.controller, oracle, harvested));
  cluster.sim.run_until(TimePoint(sec(11).us()));
  EXPECT_TRUE(harvested);

  RunResult result;
  result.violations = oracle.check(sim::CheckMode::kEventual);
  result.convergence_violations = oracle.check_convergence();
  result.trace_hash = cluster.sim.checker().trace_hash();
  WieraPeer* peer = cluster.controller.peer("tiera-eu-west");
  if (peer != nullptr) {
    result.tier_checksum_failures = peer->local().checksum_failures();
    result.repairs = peer->repairs();
  }
  return result;
}

TEST(ChaosMutationTest, DisabledChecksumVerificationIsCaught) {
  RunResult crippled = run_bit_rot_scenario([](WieraPeer::Config& config) {
    if (config.instance_id != "tiera-eu-west") return;
    config.local.verify_checksums = false;
  });
  EXPECT_FALSE(crippled.violations.empty())
      << "oracle failed to notice a replica serving rotted payloads";
  EXPECT_FALSE(crippled.convergence_violations.empty())
      << "convergence check missed the unrepaired rotted replica";
  EXPECT_EQ(crippled.tier_checksum_failures, 0)
      << "verification was supposed to be disabled";

  // Control: with verification on, the rot is caught on read, repaired
  // from a peer, and no client ever sees it.
  RunResult honest = run_bit_rot_scenario({});
  EXPECT_TRUE(honest.violations.empty())
      << sim::ConsistencyOracle::describe(honest.violations);
  EXPECT_TRUE(honest.convergence_violations.empty())
      << sim::ConsistencyOracle::describe(honest.convergence_violations);
  EXPECT_GT(honest.tier_checksum_failures, 0) << "rot was never detected";
  EXPECT_GT(honest.repairs, 0) << "rot was never repaired";
}

// ----------------------------------------------------- targeted regressions

// A crashed backup loses its volatile tier contents; after restart the
// controller-driven catch-up resync must restore the latest committed
// version so the backup serves it again locally.
TEST(ChaosRegressionTest, BackupCatchesUpAfterRestart) {
  ChaosCluster cluster(/*seed=*/42);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.crash("tiera-eu-west", TimePoint::origin() + sec(5),
             TimePoint::origin() + sec(8));
  injector.arm(std::move(plan));

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  auto writer = [](sim::Simulation& sim, WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    auto v1 = co_await c.put("k", Blob("before-crash"));
    EXPECT_TRUE(v1.ok()) << v1.status().to_string();
    co_await sim.delay(sec(5));  // t=6s: eu-west is down
    auto v2 = co_await c.put("k", Blob("during-crash"));
    EXPECT_TRUE(v2.ok()) << v2.status().to_string();
  };
  cluster.sim.spawn(writer(cluster.sim, client));
  cluster.sim.run_until(TimePoint(sec(20).us()));

  WieraPeer* eu = cluster.controller.peer("tiera-eu-west");
  ASSERT_NE(eu, nullptr);
  EXPECT_FALSE(eu->recovering());
  EXPECT_GE(eu->catch_ups_completed(), 1);
  EXPECT_GE(cluster.controller.recoveries_completed(), 1);

  const metadb::ObjectMeta* obj = eu->local().meta().find("k");
  ASSERT_NE(obj, nullptr);
  const metadb::VersionMeta* vm = obj->latest_committed();
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->version, 2);

  bool read_done = false;
  auto reader = [](WieraPeer& peer, bool& done) -> sim::Task<void> {
    auto got = co_await peer.local().get("k");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    if (got.ok()) {
      EXPECT_EQ(got->value.to_string(), "during-crash");
      EXPECT_EQ(got->version, 2);
    }
    done = true;
  };
  cluster.sim.spawn(reader(*eu, read_done));
  cluster.sim.run_until(TimePoint(sec(21).us()));
  EXPECT_TRUE(read_done);
}

// ----------------------------------------------- mid-flush primary failover
//
// PrimaryBackupAsync with coalescing armed: the primary acks a burst of
// puts, the flusher has a batch on the wire, and the primary crashes with
// that batch in flight and more acked updates still queued. The builtin
// primary-backup policy derives the Sync protocol, so the tweak overrides
// the mode — async-with-a-primary is the only configuration where an
// acknowledged-but-unflushed update can die with its node. The queue is
// volatile and dies in the crash; the primary's durable tier keeps the
// committed versions, so after restart + catch-up the scrubber's digest
// exchange must re-propagate them and every replica must converge on the
// newest client-written value. Replayable as `--seed N --plan async:midflush`
// (the MODE token is ignored, like brownout).
struct MidFlushResult {
  std::vector<sim::OracleViolation> convergence_violations;
  uint64_t trace_hash = 0;
  int64_t puts_ok = 0;
  int64_t batches = 0;
  int64_t open_spans = 0;
  std::vector<std::string> open_span_names;
};

MidFlushResult run_midflush(uint64_t seed) {
  ChaosCluster cluster(seed);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupAsync,
                                [](WieraPeer::Config& config) {
                                  config.mode =
                                      ConsistencyMode::kPrimaryBackupAsync;
                                  config.replicate_batch_max = 4;
                                  config.queue_flush_interval = msec(200);
                                  config.scrub_interval = sec(2);
                                }));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  // The burst below fills the primary's queue at t=1s; the size-triggered
  // flush has cross-region sends in flight when the crash lands at 1.12s,
  // and the updates past the first chunk are still queued — they die with
  // the node and must come back from its durable tier.
  plan.crash("tiera-us-west", TimePoint::origin() + msec(1120),
             TimePoint::origin() + sec(6));
  injector.arm(std::move(plan));

  sim::ConsistencyOracle oracle;
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  int64_t puts_ok = 0;
  auto writer = [&oracle, &puts_ok](sim::Simulation& sim,
                                    WieraClient& c) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    for (int i = 0; i < 6; ++i) {
      const std::string key = kKeys[i % 2];
      const std::string value = "burst" + std::to_string(i);
      int64_t op = oracle.begin_put(c.id(), key, value, sim.now());
      auto put = co_await c.put(key, Blob(value));
      oracle.set_op_trace(op, c.last_trace_id());
      oracle.end_put(op, sim.now(), put.ok(), put.ok() ? put->version : 0);
      if (put.ok()) puts_ok++;
    }
  };
  cluster.sim.spawn(writer(cluster.sim, client));

  // Crash at 1.12s, restart at 6s, catch-up plus a few scrub rounds: by 25s
  // the re-propagation has long settled.
  cluster.sim.run_until(TimePoint(sec(25).us()));
  bool harvested = false;
  cluster.sim.spawn(harvest_finals(cluster.controller, oracle, harvested));
  cluster.sim.run_until(TimePoint(sec(26).us()));
  EXPECT_TRUE(harvested);

  MidFlushResult result;
  result.convergence_violations = oracle.check_convergence();
  result.trace_hash = cluster.sim.checker().trace_hash();
  result.puts_ok = puts_ok;
  result.batches = cluster.sim.telemetry().registry().counter_sum(
      "wiera_replication_batches_total");
  // Periodic background work (a scrub round) can legitimately be mid-flight
  // at the cutoff instant; what must never stay open is the flush machinery
  // — batch wire spans, per-op spans, flush roots — long after the last
  // replication resolved.
  for (const std::string& name :
       cluster.sim.telemetry().tracer().open_span_names()) {
    if (name.rfind("peer.replicate", 0) == 0 ||
        name.rfind("peer.flush", 0) == 0) {
      result.open_spans++;
      result.open_span_names.push_back(name);
    }
  }
  if (dump_telemetry_enabled()) {
    std::set<uint64_t> traces{client.last_trace_id()};
    for (const auto& v : result.convergence_violations)
      traces.insert(v.trace_id);
    dump_telemetry(cluster.sim, std::move(traces));
  }
  return result;
}

TEST(ChaosRegressionTest, MidFlushPrimaryFailoverConverges) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    MidFlushResult r = run_midflush(seed);
    EXPECT_GE(r.puts_ok, 4) << "seed " << seed
                            << ": burst did not land before the crash";
    EXPECT_GT(r.batches, 0) << "seed " << seed << ": no batch was in flight";
    EXPECT_EQ(r.open_spans, 0)
        << "seed " << seed << ": crash leaked replication spans: "
        << ::testing::PrintToString(r.open_span_names);
    if (!r.convergence_violations.empty()) {
      ADD_FAILURE() << "CHAOS-FAIL seed=" << seed
                    << " plan=async:midflush trace="
                    << hex_trace(r.trace_hash) << "\n"
                    << sim::ConsistencyOracle::describe(
                           r.convergence_violations);
    }
  }
  // The schedule must replay hash-identically for --plan async:midflush.
  MidFlushResult a = run_midflush(1);
  MidFlushResult b = run_midflush(1);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

// §4.4: a crashed closest peer costs the client exactly one failover — the
// demotion is remembered, so subsequent operations go straight to the next
// peer instead of paying a failed attempt each time.
TEST(ChaosRegressionTest, FailoverCountsOncePerPrimaryCrash) {
  ChaosCluster cluster(/*seed=*/43);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.crash("tiera-us-west", TimePoint::origin() + sec(5),
             TimePoint::origin() + sec(8));
  injector.arm(std::move(plan));

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  ASSERT_EQ(client.closest_peer(), "tiera-us-west");

  int ok_reads = 0;
  auto workload = [](sim::Simulation& sim, WieraClient& c,
                     int& reads) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    auto put = co_await c.put("k", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
    EXPECT_EQ(c.failovers(), 0);
    // Reads spanning the crash window: the first one after the crash pays
    // the failover; everything later uses the demoted order.
    for (int i = 0; i < 40; ++i) {
      co_await sim.delay(msec(300));
      auto got = co_await c.get("k");
      if (got.ok()) reads++;
    }
  };
  cluster.sim.spawn(workload(cluster.sim, client, ok_reads));
  cluster.sim.run_until(TimePoint(sec(20).us()));

  EXPECT_EQ(client.failovers(), 1);
  EXPECT_GE(ok_reads, 35);
}

// Leased locks (ZooKeeper ephemeral-node semantics): a holder that crashes
// mid-critical-section is evicted after the lease, so waiters on the same
// lock make progress instead of deadlocking.
TEST(ChaosRegressionTest, LockLeaseReleasesCrashedHolder) {
  sim::Simulation sim(7);
  net::Topology topo;
  topo.add_datacenter("us-east", net::Provider::kAws, "us-east");
  topo.add_datacenter("us-west", net::Provider::kAws, "us-west");
  topo.set_rtt("us-east", "us-west", msec(70));
  topo.set_jitter_fraction(0.0);
  topo.add_node("zk", "us-east");
  topo.add_node("node-a", "us-west");
  topo.add_node("node-b", "us-east");
  net::Network network(sim, std::move(topo));
  rpc::Registry registry;
  rpc::Endpoint zk(network, registry, "zk");
  coord::LockService service(sim, zk);
  service.set_lease(sec(2));
  service.start_lease_reaper(msec(500));

  rpc::Endpoint a(network, registry, "node-a");
  rpc::Endpoint b(network, registry, "node-b");

  // node-a acquires and "crashes" (never releases, stops responding).
  auto holder = [](rpc::Endpoint& ep) -> sim::Task<void> {
    coord::LockClient client(ep, "zk");
    Status st = co_await client.acquire("chaos-lock");
    EXPECT_TRUE(st.ok()) << st.to_string();
  };
  TimePoint granted_at;
  bool acquired = false;
  auto waiter = [](sim::Simulation& s, rpc::Endpoint& ep, TimePoint& at,
                   bool& ok) -> sim::Task<void> {
    co_await s.delay(msec(500));
    coord::LockClient client(ep, "zk");
    Status st = co_await client.acquire("chaos-lock");
    EXPECT_TRUE(st.ok()) << st.to_string();
    at = s.now();
    ok = true;
    (void)co_await client.release("chaos-lock");
  };
  sim.spawn(holder(a));
  sim.spawn(waiter(sim, b, granted_at, acquired));
  sim.run_until(TimePoint(sec(10).us()));

  ASSERT_TRUE(acquired);
  EXPECT_EQ(service.leases_expired(), 1);
  // Eviction happens at lease expiry (2s after the grant), not before.
  EXPECT_GT(granted_at.us(), sec(2).us());
  EXPECT_LT(granted_at.us(), sec(4).us());
  EXPECT_EQ(service.holder("chaos-lock"), "");
}

// An ENOSPC window on the primary's tiers makes strong-mode puts fail with
// a permanent (non-retryable) error while the window lasts, and the
// history stays primary-ordered: failed puts are maybe ops, never
// committed-version collisions.
TEST(ChaosRegressionTest, TierEnospcFailsPutsCleanly) {
  ChaosCluster cluster(/*seed=*/44);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.tier_fault("tiera-us-west", /*tier_label=*/"", /*slowdown=*/1.0,
                  /*enospc=*/true, TimePoint::origin() + sec(3),
                  TimePoint::origin() + sec(6));
  injector.arm(std::move(plan));

  sim::ConsistencyOracle oracle;
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  int failed_puts = 0;
  auto workload = [](sim::Simulation& sim, sim::ConsistencyOracle& oracle,
                     WieraClient& c, int& failed) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    for (int i = 0; i < 8; ++i) {
      const std::string value = "v" + std::to_string(i);
      int64_t op = oracle.begin_put(c.id(), "k", value, sim.now());
      auto put = co_await c.put("k", Blob(value));
      oracle.end_put(op, sim.now(), put.ok(), put.ok() ? put->version : 0);
      if (!put.ok()) failed++;
      co_await sim.delay(msec(700));
    }
  };
  cluster.sim.spawn(workload(cluster.sim, oracle, client, failed_puts));
  cluster.sim.run_until(TimePoint(sec(15).us()));

  EXPECT_GT(failed_puts, 0);
  EXPECT_LT(failed_puts, 8);
  auto violations = oracle.check(sim::CheckMode::kPrimaryOrder);
  EXPECT_TRUE(violations.empty())
      << sim::ConsistencyOracle::describe(violations);
}

// A durable write whose commit lands inside a torn-write crash window is
// staged in the tier's shadow journal (kDataLoss to the writer, previous
// committed copy untouched) and discarded by the recovery pass the chaos
// host runs at restart — never published as a truncated payload.
TEST(ChaosRegressionTest, TornWriteDiscardedOnRestart) {
  ChaosCluster cluster(/*seed=*/46);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual, {}));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.torn_write("tiera-eu-west", TimePoint::origin() + sec(5),
                  TimePoint::origin() + sec(8));
  injector.arm(std::move(plan));

  WieraPeer* eu = cluster.controller.peer("tiera-eu-west");
  ASSERT_NE(eu, nullptr);
  store::StorageTier* durable = nullptr;
  for (const std::string& label : eu->local().tier_labels()) {
    store::StorageTier* tier = eu->local().tier_by_label(label);
    if (tier != nullptr && tier->spec().kind != store::TierKind::kMemory) {
      durable = tier;
    }
  }
  ASSERT_NE(durable, nullptr) << "policy deploys no durable tier";

  // A committed durable copy from before the crash, then a write whose
  // commit instant lands inside the [5s, 8s) crash window.
  auto writer = [](sim::Simulation& sim,
                   store::StorageTier& tier) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    Status before = co_await tier.put("probe#1", Blob(Bytes(4096, 1)));
    EXPECT_TRUE(before.ok()) << before.to_string();
    co_await sim.at(TimePoint::origin() + sec(5) + msec(500));
    Status torn = co_await tier.put("probe#1", Blob(Bytes(4096, 2)));
    EXPECT_EQ(torn.code(), StatusCode::kDataLoss) << torn.to_string();
  };
  cluster.sim.spawn(writer(cluster.sim, *durable));
  cluster.sim.run_until(TimePoint(sec(20).us()));

  EXPECT_EQ(durable->stats().torn_writes, 1);
  // The restart event drove recover_tiers(): the journalled tear is gone.
  EXPECT_EQ(durable->stats().torn_discards, 1);
  EXPECT_FALSE(eu->recovering());

  // The pre-crash committed copy is what the tier still serves.
  bool read_done = false;
  auto reader = [](store::StorageTier& tier, bool& done) -> sim::Task<void> {
    auto got = co_await tier.get("probe#1");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    if (got.ok()) {
      EXPECT_EQ(got->size(), 4096u);
      EXPECT_EQ(got->data()[0], 1);
    }
    done = true;
  };
  cluster.sim.spawn(reader(*durable, read_done));
  cluster.sim.run_until(TimePoint(sec(21).us()));
  EXPECT_TRUE(read_done);
}

// BoundedStaleness degradation (docs/OVERLOAD.md): when a strong-mode
// replica's serve lease lapses (control plane unreachable) it may answer
// reads from its local copy — flagged stale — while the copy is younger
// than the policy's staleness bound. Puts never degrade. Once the control
// plane returns and recovery completes, reads are strong (unflagged) again.
TEST(ChaosRegressionTest, LeaseLapseServesBoundedStaleReads) {
  ChaosCluster cluster(/*seed=*/45);
  auto degradation = policy::parse_policy(policy::builtin::bounded_staleness());
  ASSERT_TRUE(degradation.ok()) << degradation.status().to_string();
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync,
                                [&degradation](WieraPeer::Config& config) {
                                  config.degradation_policy =
                                      degradation.value();
                                }));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  // Drop everything touching the controller: leases lapse cluster-wide but
  // client <-> replica traffic is untouched.
  plan.message_chaos("wiera-controller", TimePoint::origin() + sec(3),
                     TimePoint::origin() + sec(9), /*drop_prob=*/1.0,
                     /*dup_prob=*/0.0);
  injector.arm(std::move(plan));

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-eu-west", *peers);
  bool stale_seen = false;
  bool put_failed_in_window = false;
  bool fresh_after_recovery = false;
  auto workload = [](sim::Simulation& sim, WieraClient& c, bool& stale,
                     bool& put_failed, bool& fresh) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    auto put = co_await c.put("k", Blob("fresh"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();

    co_await sim.delay(sec(5) + msec(500));  // t=6.5s: leases lapsed
    auto got = co_await c.get("k");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    if (got.ok()) {
      EXPECT_TRUE(got->stale) << "lease-lapsed read not flagged stale";
      EXPECT_EQ(got->value.to_string(), "fresh");
      EXPECT_EQ(got->version, 1);
      stale = got->stale;
    }
    // Writes have no degraded path: a put in the same window must fail.
    auto blocked = co_await c.put("k", Blob("rejected"));
    put_failed = !blocked.ok();

    co_await sim.delay(sec(18) + msec(500));  // t=25s: recovered
    auto after = co_await c.get("k");
    EXPECT_TRUE(after.ok()) << after.status().to_string();
    if (after.ok()) {
      EXPECT_FALSE(after->stale) << "recovered replica still serving stale";
      fresh = !after->stale;
    }
  };
  cluster.sim.spawn(workload(cluster.sim, client, stale_seen,
                             put_failed_in_window, fresh_after_recovery));
  cluster.sim.run_until(TimePoint(sec(26).us()));

  EXPECT_TRUE(stale_seen);
  EXPECT_TRUE(put_failed_in_window);
  EXPECT_TRUE(fresh_after_recovery);
}

TEST(ChaosRegressionTest, PingDeadlineKeepsFailureDetectionLive) {
  // A latency-spiked peer parks the controller's serial heartbeat loop
  // behind one ping for the whole spike when pings carry no deadline (the
  // brownout suite exploits exactly that). With ping_deadline set, failure
  // detection keeps its cadence: a primary that crashes *while another peer
  // is spiked* is still replaced within a few heartbeats (§4.4), and
  // deadline-bounded writes succeed long before the spike ends.
  ChaosCluster cluster(/*seed=*/11, [](WieraController::Config& config) {
    config.ping_deadline = msec(900);
  });
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync, nullptr));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  std::string primary = kStorageNodes[0];
  for (const char* node : kStorageNodes) {
    WieraPeer* p = cluster.controller.peer(node);
    if (p != nullptr && p->is_primary()) primary = node;
  }
  std::string spiked;
  for (const char* node : kStorageNodes) {
    if (primary != node) {
      spiked = node;
      break;
    }
  }

  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.latency_spike(spiked, sec(20), TimePoint::origin() + sec(2),
                     TimePoint::origin() + sec(30));
  // Restart lands after the run window: the crashed primary stays gone.
  plan.crash(primary, TimePoint::origin() + sec(5),
             TimePoint::origin() + sec(40));
  injector.arm(std::move(plan));

  WieraClient::Config client_config;
  client_config.op_deadline = sec(2);
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-eu-west", *peers, client_config);

  bool baseline_ok = false;
  bool write_after_failover = false;
  auto workload = [](sim::Simulation& sim, WieraClient& c, bool& baseline,
                     bool& after) -> sim::Task<void> {
    co_await sim.delay(sec(1));
    auto put = co_await c.put("k", Blob("v1"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
    baseline = put.ok();

    co_await sim.delay(sec(11));  // t=12: several heartbeats past the lapse
    auto again = co_await c.put("k", Blob("v2"));
    EXPECT_TRUE(again.ok()) << again.status().to_string();
    after = again.ok();
    auto got = co_await c.get("k");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    if (got.ok()) {
      EXPECT_EQ(got->value.to_string(), "v2");
      EXPECT_FALSE(got->stale);
    }
  };
  cluster.sim.spawn(
      workload(cluster.sim, client, baseline_ok, write_after_failover));
  cluster.sim.run_until(TimePoint(sec(15).us()));

  EXPECT_TRUE(baseline_ok);
  EXPECT_TRUE(write_after_failover);

  bool promoted_elsewhere = false;
  for (const char* node : kStorageNodes) {
    if (primary == node || spiked == node) continue;
    WieraPeer* p = cluster.controller.peer(node);
    if (p != nullptr && p->is_primary()) promoted_elsewhere = true;
  }
  EXPECT_TRUE(promoted_elsewhere)
      << "no healthy peer was promoted while " << spiked << " was spiked";
}

// Heartbeat flap damping (docs/HEALTH.md): one chaos-dropped ping round
// must not trigger failover when ping_failure_threshold > 1. The drop
// window is sized so no peer can miss two *consecutive* pings (a failed
// ping costs its 900ms deadline, pushing the peer's next ping well past the
// window), so threshold 2 absorbs the flap completely while the identical
// schedule under the seed threshold (1: first failure counts) declares
// peers down and pays the down/recover round trip.
TEST(ChaosRegressionTest, FlapDampingAbsorbsOneDroppedPingRound) {
  const auto run = [](int threshold) {
    ChaosCluster cluster(/*seed=*/17,
                         [threshold](WieraController::Config& config) {
                           config.ping_deadline = msec(900);
                           config.ping_failure_threshold = threshold;
                           // Lease-lapse gating would defer down-handling
                           // past a single dropped round on its own; clear
                           // it so this test isolates the damping knob.
                           config.serve_lease = Duration::zero();
                         });
    auto peers = cluster.controller.start_instances(
        "w1",
        cluster.options_for(ConsistencyMode::kPrimaryBackupSync, nullptr));
    EXPECT_TRUE(peers.ok()) << peers.status().to_string();
    cluster.controller.start();

    ChaosHost host(cluster.network, cluster.controller);
    sim::FaultInjector injector(cluster.sim, host);
    sim::FaultPlan plan;
    // Every controller-touching message dropped for ~1.6s: long enough that
    // one heartbeat round must start inside it, short enough that a peer
    // whose ping failed cannot be pinged again before it closes.
    plan.message_chaos("wiera-controller", TimePoint::origin() + sec(3) +
                                               msec(600),
                       TimePoint::origin() + sec(5) + msec(200),
                       /*drop_prob=*/1.0, /*dup_prob=*/0.0);
    injector.arm(std::move(plan));
    cluster.sim.run_until(TimePoint(sec(15).us()));
    return std::make_pair(cluster.controller.recoveries_completed(),
                          cluster.controller.primary_changes());
  };

  const auto damped = run(/*threshold=*/2);
  EXPECT_EQ(damped.first, 0)
      << "a single dropped ping round tripped the failure detector despite "
         "flap damping";
  EXPECT_EQ(damped.second, 0);

  // Control: the seed behaviour on the same schedule does transition peers
  // down — proving the damping knob, not the schedule, absorbed the flap.
  const auto seed_behaviour = run(/*threshold=*/1);
  EXPECT_GE(seed_behaviour.first, 1)
      << "the drop window never failed a ping; the damped run above proved "
         "nothing";
}

// ------------------------------------------------------------------ replay
//
// `chaos_test --seed N --plan MODE:FAULT` re-runs exactly one schedule —
// the reproducer line scripts/sweep.sh prints for every CHAOS-FAIL.
// FAULT is one of
// partition|crash|drop|spike|brownout|midflush|bitrot|torn|msgcorrupt|
// stutter|flakylink|slownode
// (brownout and midflush ignore MODE; brownout always runs the
// primary-backup overload schedule, midflush the async-primary batched
// flush failover). The corruption classes replay with scrub + read-repair
// armed, exactly as the CorruptionSuite runs them; the gray classes replay
// with health detection armed, exactly as the GrayFailureSuite runs them.
// `chaos_test --list-plans` prints every FAULT token one per line
// (scripts/sweep.sh validates its sweep matrix against it). Add
// --dump-telemetry (or set WIERA_DUMP_TELEMETRY=1) to print the metrics
// snapshot and span trees of the replayed schedule (docs/OBSERVABILITY.md).

int list_plans_main() {
  for (const char* name : kPlanNames) std::printf("%s\n", name);
  return 0;
}

int replay_main(uint64_t seed, const std::string& plan_spec) {
  const size_t colon = plan_spec.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--plan must be MODE:FAULT, got '%s'\n",
                 plan_spec.c_str());
    return 2;
  }
  const std::string mode_name = plan_spec.substr(0, colon);
  const std::string fault_name = plan_spec.substr(colon + 1);

  if (fault_name == "brownout") {
    BrownoutResult r = run_brownout(seed);
    print_brownout_stats(seed, r);
    if (!r.violations.empty()) {
      std::printf("%s\n",
                  sim::ConsistencyOracle::describe(r.violations).c_str());
      return 1;
    }
    std::printf("replay clean\n");
    return 0;
  }

  if (fault_name == "midflush") {
    MidFlushResult r = run_midflush(seed);
    std::printf(
        "replay seed=%llu plan=midflush trace=%s puts_ok=%lld batches=%lld\n",
        static_cast<unsigned long long>(seed), hex_trace(r.trace_hash).c_str(),
        static_cast<long long>(r.puts_ok),
        static_cast<long long>(r.batches));
    if (!r.convergence_violations.empty()) {
      std::printf("%s\n",
                  sim::ConsistencyOracle::describe(r.convergence_violations)
                      .c_str());
      return 1;
    }
    std::printf("replay clean\n");
    return 0;
  }

  auto mode = consistency_mode_from_name(mode_name);
  if (!mode.ok()) {
    std::fprintf(stderr, "%s\n", mode.status().to_string().c_str());
    return 2;
  }
  const char* const* end = kPlanNames + kFaultClasses;
  const char* const* it = std::find(kPlanNames, end, fault_name);
  if (it == end) {
    std::fprintf(stderr, "unknown fault class '%s'\n", fault_name.c_str());
    return 2;
  }
  const auto fault = static_cast<FaultClass>(it - kPlanNames);

  const bool integrity = is_integrity_fault(fault);
  const bool gray = is_gray_fault(fault);
  RunResult r = run_chaos(
      *mode, fault, seed,
      integrity ? self_heal_tweak()
                : std::function<void(WieraPeer::Config&)>{},
      /*telemetry_on=*/true,
      gray ? health_tweak()
           : std::function<void(WieraController::Config&)>{});
  std::printf("replay seed=%llu mode=%s fault=%s trace=%s ops=%lld ok=%lld\n",
              static_cast<unsigned long long>(seed),
              std::string(consistency_mode_name(*mode)).c_str(),
              fault_name.c_str(), hex_trace(r.trace_hash).c_str(),
              static_cast<long long>(r.ops),
              static_cast<long long>(r.completed_ok));
  if (integrity) print_corruption_stats(*mode, fault, seed, r);
  if (gray) print_health_stats(*mode, fault, seed, r);
  if (!r.violations.empty()) {
    std::printf("%s\n", sim::ConsistencyOracle::describe(r.violations).c_str());
    return 1;
  }
  if (integrity && !r.convergence_violations.empty()) {
    std::printf("%s\n",
                sim::ConsistencyOracle::describe(r.convergence_violations)
                    .c_str());
    return 1;
  }
  std::printf("replay clean\n");
  return 0;
}

}  // namespace
}  // namespace wiera::geo

// Custom main (gtest_main is deliberately not linked, see tests/CMakeLists):
// with --plan the binary replays a single schedule and exits; otherwise it
// runs the whole suite.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = 1;
  std::string plan;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--plan" && i + 1 < argc) {
      plan = argv[++i];
    } else if (arg == "--list-plans") {
      return wiera::geo::list_plans_main();
    } else if (arg == "--dump-telemetry") {
      // Same switch the env var flips; the flag form keeps reproducer
      // command lines self-contained.
      setenv("WIERA_DUMP_TELEMETRY", "1", 1);
    } else if (arg == "--dump-timeseries") {
      setenv("WIERA_DUMP_TIMESERIES", "1", 1);
    }
  }
  if (!plan.empty()) return wiera::geo::replay_main(seed, plan);
  return RUN_ALL_TESTS();
}
