// The three key-value workloads of the repository benchmark
// (perfbench/README.md): a geo-distributed Wiera instance built through
// geo::WieraController, one geo::WieraClient per region, and an open-loop
// Poisson op stream generated from the seed before the run starts.
//
// One run = N set-ups (cluster build, preload, replication drain; setup_s is
// their median) + one measured window on the last set-up + the correctness
// gate. A traced run (--trace 1) measures the window twice on fresh set-ups,
// once with span retention off and once on, then times each layer from
// outside (layers.h).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "sim/obs_pipeline.h"
#include "sim/oracle.h"
#include "wiera/client.h"
#include "wiera/controller.h"
#include "ycsb/ycsb.h"

namespace wiera::perfbench {
namespace {

constexpr char kWieraId[] = "bench";
// Host-rate slices per window; host_ops_per_s is their median.
constexpr int kSlices = 20;
// Concurrent preload puts per client.
constexpr int kPreloadWorkers = 32;
// Versions kept per key on every replica. The library default keeps every
// version forever, which makes memory grow with run length.
constexpr int64_t kMaxVersions = 2;

const std::vector<std::string> kFourRegions = {"us-west", "us-east",
                                               "eu-west", "asia-east"};
const std::vector<std::string> kThreeRegions = {"us-west", "us-east",
                                                "eu-west"};

// Write-through local policy for the primary-backup workload: every insert
// lands in the memory tier and is copied to the disk tier at once.
std::string write_through_local(int64_t memory_kib) {
  return R"(
Tiera WriteThroughInstance() {
   tier1: {name: LocalMemory, size: )" +
         std::to_string(memory_kib) + R"(K};
   tier2: {name: LocalDisk, size: 5G};
   event(insert.into == tier1) : response {
      copy(what:insert.object, to:tier2);
   }
}
)";
}

// Fig. 3(b)'s PrimaryBackupConsistency, with its regions running the
// write-through local policy above.
std::string write_through_primary_backup(int64_t memory_kib) {
  std::string regions;
  const char* names[] = {"US-West", "US-East", "EU-West"};
  for (int i = 0; i < 3; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "   Region%d = {name:WriteThroughInstance, region:%s%s,\n"
                  "      tier1 = {name:LocalMemory, size=%" PRId64 "K},\n"
                  "      tier2 = {name:LocalDisk, size=5G} }\n",
                  i + 1, names[i], i == 0 ? ", primary:True" : "",
                  memory_kib);
    regions += buf;
  }
  return "Wiera PrimaryBackupConsistency() {\n" + regions + R"(
   event(insert.into) : response {
      if(local_instance.isPrimary == True)
         store(what:insert.object, to:local_instance)
         copy(what:insert.object, to:all_regions)
      else
         forward(what:insert.object, to:primary_instance)
   }
}
)";
}

struct KvSpec {
  std::string name;
  std::vector<std::string> regions;
  std::string global_policy;
  std::string local_policy;  // empty: regions name built-in instances
  double sim_ops_per_s = 0;  // open-loop arrival rate, all clients together
  double put_frac = 0;
  size_t value_bytes = 0;
  int64_t keys = 0;
  bool zipf = false;  // scrambled Zipf(0.99); otherwise uniform
  // Window length in ops per requested host second. Sized on a 4-core
  // 2.1 GHz host so the window lasts about --seconds there; the op count
  // (not host time) bounds the window, so sim-side metrics depend only on
  // the seed and --seconds.
  double ops_per_host_s = 0;
  Duration scrape_interval = Duration::zero();  // zero: sampler not armed
  sim::CheckMode mode = sim::CheckMode::kEventual;
};

const std::vector<KvSpec>& specs() {
  static const std::vector<KvSpec> kSpecs = [] {
    std::vector<KvSpec> out;
    KvSpec eventual;
    eventual.name = "eventual_small_reads";
    eventual.regions = kFourRegions;
    eventual.global_policy =
        std::string(policy::builtin::eventual_consistency());
    eventual.sim_ops_per_s = 160;
    eventual.put_frac = 0.05;
    eventual.value_bytes = 128;
    eventual.keys = 10000;
    eventual.zipf = true;
    eventual.ops_per_host_s = 26000;
    eventual.mode = sim::CheckMode::kEventual;
    out.push_back(eventual);

    KvSpec multi;
    multi.name = "multiprimary_4k_updates";
    multi.regions = kFourRegions;
    multi.global_policy =
        std::string(policy::builtin::multi_primaries_consistency());
    multi.sim_ops_per_s = 8;
    multi.put_frac = 0.5;
    multi.value_bytes = 4096;
    multi.keys = 1000;
    multi.zipf = true;
    multi.ops_per_host_s = 8000;
    multi.mode = sim::CheckMode::kLinearizable;
    out.push_back(multi);

    KvSpec spill;
    spill.name = "primarybackup_sampled_spill";
    spill.regions = kThreeRegions;
    spill.keys = 4096;
    spill.value_bytes = 1024;
    // Memory tier = a quarter of the working set.
    const int64_t memory_kib =
        spill.keys * static_cast<int64_t>(spill.value_bytes) / 4 / 1024;
    spill.global_policy = write_through_primary_backup(memory_kib);
    spill.local_policy = write_through_local(memory_kib);
    spill.sim_ops_per_s = 100;
    spill.put_frac = 0.2;
    spill.zipf = false;
    spill.ops_per_host_s = 20000;
    spill.scrape_interval = msec(10);
    spill.mode = sim::CheckMode::kPrimaryOrder;
    out.push_back(spill);
    return out;
  }();
  return kSpecs;
}

// ------------------------------------------------------------------ inputs

enum class OpType : uint8_t { kPut, kGet };
enum class Outcome : uint8_t { kPending, kOk, kFailed, kNotFound };

struct OpRec {
  int64_t offset_us = 0;  // scheduled arrival, from window start
  TimePoint invoked;
  TimePoint done;
  int64_t key = 0;
  int64_t payload = -1;  // put: payload written; get: payload read back
  int64_t version = 0;
  int32_t client = 0;
  int32_t served_by = -1;
  OpType type = OpType::kGet;
  Outcome outcome = Outcome::kPending;
  bool lock_conflict = false;
  bool bad_bytes = false;
};

struct Inputs {
  std::vector<std::string> key_names;
  // Every payload any put writes; ids [0, keys) are the preload of key id.
  std::vector<Blob> payloads;
  std::vector<int64_t> payload_key;
  std::vector<OpRec> ops;  // window ops in arrival order
  int64_t puts = 0;
  uint64_t key_digest = kDigestSeed;
};

// Payload layout: [payload id][key id][seeded filler]. The id makes every
// put's bytes unique; the filler makes a corrupted tail detectable.
Blob make_payload(uint64_t seed, int64_t id, int64_t key, size_t size) {
  Bytes bytes(size);
  uint64_t x = seed ^ (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull);
  for (size_t i = 0; i < size; i += 8) {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(bytes.data() + i, &z, std::min<size_t>(8, size - i));
  }
  std::memcpy(bytes.data(), &id, sizeof(id));
  std::memcpy(bytes.data() + 8, &key, sizeof(key));
  return Blob(std::move(bytes));
}

Inputs make_inputs(const KvSpec& spec, const Options& options) {
  Inputs in;
  Rng rng(options.seed * 0x2545F4914F6CDD1Dull + 0x5EED);
  in.key_names.reserve(static_cast<size_t>(spec.keys));
  for (int64_t k = 0; k < spec.keys; ++k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%06" PRId64, k);
    in.key_names.emplace_back(buf);
    in.payloads.push_back(
        make_payload(options.seed, k, k, spec.value_bytes));
    in.payload_key.push_back(k);
  }
  const auto n = static_cast<int64_t>(options.seconds * spec.ops_per_host_s);
  // Each op type needs at least 1000 latency samples.
  const double rarest = std::min(spec.put_frac, 1.0 - spec.put_frac);
  const auto floor_n = static_cast<int64_t>(1100.0 / rarest);
  const int64_t total = std::max(n, floor_n);
  ycsb::ScrambledZipfianGenerator zipf(static_cast<uint64_t>(spec.keys));
  in.ops.resize(static_cast<size_t>(total));
  double t = 0;
  const auto clients = static_cast<int64_t>(spec.regions.size());
  for (OpRec& op : in.ops) {
    t += rng.exponential(1.0 / spec.sim_ops_per_s);
    op.offset_us = static_cast<int64_t>(t * 1e6);
    op.client = static_cast<int32_t>(rng.uniform_int(0, clients - 1));
    op.type = rng.bernoulli(spec.put_frac) ? OpType::kPut : OpType::kGet;
    op.key = spec.zipf ? static_cast<int64_t>(zipf.next(rng))
                       : rng.uniform_int(0, spec.keys - 1);
    if (op.type == OpType::kPut) {
      op.payload = static_cast<int64_t>(in.payloads.size());
      in.payloads.push_back(
          make_payload(options.seed, op.payload, op.key, spec.value_bytes));
      in.payload_key.push_back(op.key);
      in.puts++;
    }
    in.key_digest = fold(in.key_digest, static_cast<uint64_t>(op.key));
    in.key_digest = fold(in.key_digest, static_cast<uint64_t>(op.type));
  }
  return in;
}

// Which payload `value` is, if it is byte-for-byte one that was written to
// `key`; -1 otherwise.
int64_t identify(const Inputs& in, int64_t key, const Blob& value) {
  if (value.size() < 16) return -1;
  int64_t id = 0;
  std::memcpy(&id, value.data(), sizeof(id));
  if (id < 0 || id >= static_cast<int64_t>(in.payloads.size())) return -1;
  if (in.payload_key[static_cast<size_t>(id)] != key) return -1;
  const Blob& expected = in.payloads[static_cast<size_t>(id)];
  if (expected.size() != value.size() ||
      std::memcmp(expected.data(), value.data(), value.size()) != 0) {
    return -1;
  }
  return id;
}

bool is_lock_conflict(const Status& st) {
  return st.code() == StatusCode::kFailedPrecondition &&
         st.message().find("already held") != std::string::npos;
}

// ----------------------------------------------------------------- cluster

net::Topology make_topology(const std::vector<std::string>& regions) {
  net::Topology topo = net::Topology::paper_default();
  topo.set_jitter_fraction(0.05);
  topo.add_node("wiera-controller", "aws-us-east");
  for (const std::string& region : regions) {
    topo.add_node("tiera-" + region, "aws-" + region);
    topo.add_node("client-" + region, "aws-" + region);
  }
  return topo;
}

struct PreloadRec {
  TimePoint invoked;
  TimePoint done;
  int64_t version = 0;
  bool ok = false;
};

struct Cluster {
  const KvSpec& spec;
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  geo::WieraController controller;
  std::vector<std::unique_ptr<geo::TieraServer>> servers;
  std::vector<std::string> peer_ids;
  std::vector<std::unique_ptr<geo::WieraClient>> clients;
  sim::ObsPipeline pipeline;
  std::vector<PreloadRec> preload;

  Cluster(const KvSpec& s, uint64_t seed, bool retain_spans)
      : spec(s),
        sim(seed),
        network(sim, make_topology(s.regions)),
        controller(sim, network, registry, geo::WieraController::Config{}),
        pipeline(sim) {
    sim.telemetry().tracer().set_retain(retain_spans);
    for (const std::string& region : spec.regions) {
      servers.push_back(std::make_unique<geo::TieraServer>(
          sim, network, registry, "tiera-" + region));
      controller.register_server(servers.back().get());
    }
  }

  Status start() {
    geo::WieraController::StartOptions options;
    auto global = policy::parse_policy(spec.global_policy);
    if (!global.ok()) return global.status();
    options.global = std::move(global).value();
    options.local_params["t"] = policy::Value::duration_of(sec(10));
    if (!spec.local_policy.empty()) {
      auto local = policy::parse_policy(spec.local_policy);
      if (!local.ok()) return local.status();
      options.resolve_local =
          [doc = std::move(local).value()](
              const std::string& name) -> Result<policy::PolicyDoc> {
        if (name == doc.name) return doc;
        return policy::builtin::by_name(name);
      };
    }
    options.customize = [](geo::WieraPeer::Config& config) {
      config.local.max_versions = kMaxVersions;
    };
    auto peers = controller.start_instances(kWieraId, std::move(options));
    if (!peers.ok()) return peers.status();
    peer_ids = *peers;
    for (const std::string& region : spec.regions) {
      clients.push_back(std::make_unique<geo::WieraClient>(
          sim, network, registry, "app-" + region, "client-" + region,
          peer_ids));
    }
    return ok_status();
  }

  std::vector<geo::WieraPeer*> peers() {
    std::vector<geo::WieraPeer*> out;
    for (const std::string& id : peer_ids) out.push_back(controller.peer(id));
    return out;
  }

  // Drive the sim until `done` is set; false if `limit` sim-seconds pass.
  bool run_until_flag(const bool& done, double limit_s) {
    const TimePoint cap = sim.now() + sec(static_cast<int64_t>(limit_s));
    while (!done && sim.now() < cap) sim.run_for(msec(500));
    return done;
  }
};

sim::Task<void> preload_worker(Cluster& c, const Inputs& in, size_t client,
                               std::vector<int64_t>& keys, size_t& next,
                               double probe_us, int& live) {
  geo::WieraClient& wc = *c.clients[client];
  while (next < keys.size()) {
    const int64_t k = keys[next++];
    PreloadRec& rec = c.preload[static_cast<size_t>(k)];
    busy_wait_us(probe_us);
    rec.invoked = c.sim.now();
    auto res = co_await wc.put(in.key_names[static_cast<size_t>(k)],
                               in.payloads[static_cast<size_t>(k)]);
    rec.done = c.sim.now();
    rec.ok = res.ok();
    if (res.ok()) rec.version = res->version;
  }
  live--;
}

// Every peer's replication queue empty, then one more worst-case WAN round
// trip so in-flight copies land.
sim::Task<void> await_quiescence(Cluster& c) {
  for (;;) {
    bool idle = true;
    for (geo::WieraPeer* p : c.peers()) idle = idle && p->queue_depth() == 0;
    if (idle) break;
    co_await c.sim.delay(msec(100));
  }
  co_await c.sim.delay(sec(2));
}

sim::Task<void> preload_all(Cluster& c, const Inputs& in, double probe_us,
                            bool& done) {
  const size_t n_clients = c.clients.size();
  std::vector<std::vector<int64_t>> keys(n_clients);
  for (int64_t k = 0; k < c.spec.keys; ++k) {
    keys[static_cast<size_t>(k) % n_clients].push_back(k);
  }
  std::vector<size_t> next(n_clients, 0);
  int live = 0;
  for (size_t cl = 0; cl < n_clients; ++cl) {
    for (int w = 0; w < kPreloadWorkers; ++w) {
      live++;
      c.sim.spawn(preload_worker(c, in, cl, keys[cl], next[cl], probe_us,
                                 live));
    }
  }
  while (live > 0) co_await c.sim.delay(msec(50));
  co_await await_quiescence(c);
  done = true;
}

// Build, start and preload one cluster; returns null (with the reason in
// `report`) on failure.
std::unique_ptr<Cluster> set_up(const KvSpec& spec, const Inputs& in,
                                const Options& options, bool retain_spans,
                                Report& report) {
  auto c = std::make_unique<Cluster>(spec, options.seed, retain_spans);
  Status st = c->start();
  if (!st.ok()) {
    report.fail("start_instances: " + st.to_string());
    return nullptr;
  }
  c->preload.resize(static_cast<size_t>(spec.keys));
  bool done = false;
  c->sim.spawn(preload_all(*c, in, options.probe_setup_us, done), "preload");
  if (!c->run_until_flag(done, 1e6)) {
    report.fail("preload did not finish");
    return nullptr;
  }
  for (const PreloadRec& rec : c->preload) {
    if (!rec.ok) {
      report.fail("a preload put failed");
      return nullptr;
    }
  }
  return c;
}

// ------------------------------------------------------------------ window

struct Counters {
  int64_t events = 0;
  int64_t rpc_sent = 0;
  int64_t net_messages = 0;
  int64_t net_bytes = 0;
  int64_t cross_dc_bytes = 0;
  int64_t acquires = 0;
  int64_t repl_sent = 0;
  int64_t repl_accepted = 0;
  int64_t forwarded = 0;
  int64_t tiera_ops = 0;
  int64_t mem_gets = 0;
  int64_t tier_gets = 0;
  int64_t evictions = 0;
  int64_t scrapes = 0;
};

Counters read_counters(Cluster& c) {
  Counters k;
  const obs::Registry& reg = c.sim.telemetry().registry();
  k.events = static_cast<int64_t>(c.sim.events_executed());
  k.rpc_sent = reg.counter_sum("rpc_calls_sent_total");
  k.net_messages = c.network.traffic().total_messages;
  k.net_bytes = c.network.traffic().total_bytes;
  k.cross_dc_bytes = c.network.traffic().cross_dc_bytes();
  k.acquires = c.controller.lock_service().acquires_served();
  k.repl_sent = reg.counter_sum("wiera_replications_sent_total");
  k.repl_accepted = reg.counter_sum("wiera_replications_accepted_total");
  k.forwarded = reg.counter_sum("wiera_forwarded_puts_total");
  reg.for_each_histogram([&](const std::string& name, const std::string&,
                             const obs::Histogram& h) {
    if (name == "tiera_put_latency_us" || name == "tiera_get_latency_us") {
      k.tiera_ops += h.count();
    }
  });
  for (geo::WieraPeer* p : c.peers()) {
    for (const std::string& label : p->local().tier_labels()) {
      const store::StorageTier* tier = p->local().tier_by_label(label);
      k.evictions += tier->stats().evictions;
      k.tier_gets += tier->stats().gets;
      if (tier->spec().kind == store::TierKind::kMemory) {
        k.mem_gets += tier->stats().gets;
      }
    }
  }
  if (c.pipeline.sampler() != nullptr) {
    k.scrapes = c.pipeline.sampler()->scrapes();
  }
  return k;
}

struct Window {
  double host_ops_per_s = 0;
  TimePoint start;
  TimePoint last_done;
  Counters before;
  Counters at_end;     // when the last op completed
  Counters quiescent;  // after replication drained
};

struct RunCtx {
  Cluster& c;
  Inputs& in;
  double probe_us = 0;
  TimePoint start;
  int64_t completed = 0;
};

sim::Task<void> run_op(RunCtx& r, size_t i) {
  OpRec& op = r.in.ops[i];
  busy_wait_us(r.probe_us);
  geo::WieraClient& client = *r.c.clients[static_cast<size_t>(op.client)];
  const std::string& key = r.in.key_names[static_cast<size_t>(op.key)];
  op.invoked = r.c.sim.now();
  if (op.type == OpType::kPut) {
    auto res = co_await client.put(
        key, r.in.payloads[static_cast<size_t>(op.payload)]);
    if (res.ok()) {
      op.outcome = Outcome::kOk;
      op.version = res->version;
    } else {
      op.outcome = Outcome::kFailed;
      op.lock_conflict = is_lock_conflict(res.status());
    }
  } else {
    auto res = co_await client.get(key);
    if (res.ok()) {
      op.outcome = Outcome::kOk;
      op.version = res->version;
      op.payload = identify(r.in, op.key, res->value);
      op.bad_bytes = op.payload < 0;
      for (size_t p = 0; p < r.c.peer_ids.size(); ++p) {
        if (r.c.peer_ids[p] == res->served_by) {
          op.served_by = static_cast<int32_t>(p);
        }
      }
    } else {
      op.outcome = res.status().code() == StatusCode::kNotFound
                       ? Outcome::kNotFound
                       : Outcome::kFailed;
    }
  }
  op.done = r.c.sim.now();
  r.completed++;
}

sim::Task<void> generate(RunCtx& r) {
  for (size_t i = 0; i < r.in.ops.size(); ++i) {
    co_await r.c.sim.at(r.start + usec(r.in.ops[i].offset_us));
    r.c.sim.spawn(run_op(r, i));
  }
}

Window measure(Cluster& c, Inputs& in, const Options& options,
               Report& report) {
  Window w;
  if (c.spec.scrape_interval > Duration::zero()) {
    sim::ObsPipeline::Config config;
    config.interval = c.spec.scrape_interval;
    config.until = TimePoint::max() - sec(1);
    c.pipeline.arm(config);
  }
  RunCtx r{c, in, options.probe_us, c.sim.now(), 0};
  w.start = r.start;
  w.before = read_counters(c);
  c.sim.spawn(generate(r), "generator");
  const int64_t span_us = in.ops.back().offset_us;
  std::vector<double> rates;
  for (int s = 1; s <= kSlices; ++s) {
    const double t0 = wall_seconds();
    const int64_t done0 = r.completed;
    c.sim.run_until(r.start + usec(span_us * s / kSlices));
    const double dt = wall_seconds() - t0;
    if (dt > 0) rates.push_back(static_cast<double>(r.completed - done0) / dt);
  }
  const auto total = static_cast<int64_t>(in.ops.size());
  const TimePoint cap = c.sim.now() + sec(3600);
  while (r.completed < total && c.sim.now() < cap) c.sim.run_for(msec(100));
  w.host_ops_per_s = median(rates);
  print_samples("slice host ops/s", rates);
  if (r.completed < total) report.fail("ops still pending after the window");
  w.last_done = w.start;
  for (const OpRec& op : in.ops) w.last_done = std::max(w.last_done, op.done);
  w.at_end = read_counters(c);
  bool done = false;
  auto quiesce = [](Cluster& cl, bool& flag) -> sim::Task<void> {
    co_await await_quiescence(cl);
    flag = true;
  };
  c.sim.spawn(quiesce(c, done), "quiesce");
  if (!c.run_until_flag(done, 1e5)) report.fail("replication never drained");
  w.quiescent = read_counters(c);
  return w;
}

// ---------------------------------------------------------------- checking

struct Finals {
  struct Entry {
    int64_t key;
    std::string replica;
    int64_t version;
    TimePoint last_modified;
    std::string origin;
    int64_t payload;
  };
  std::vector<Entry> entries;
};

sim::Task<void> harvest(Cluster& c, const Inputs& in, Finals& out,
                        bool& done) {
  for (geo::WieraPeer* p : c.peers()) {
    for (int64_t k = 0; k < c.spec.keys; ++k) {
      const std::string& key = in.key_names[static_cast<size_t>(k)];
      const metadb::ObjectMeta* obj = p->local().meta().find(key);
      const metadb::VersionMeta* vm =
          obj == nullptr ? nullptr : obj->latest_committed();
      if (vm == nullptr) {
        out.entries.push_back({k, p->id(), 0, TimePoint(), "", -1});
        continue;
      }
      const int64_t version = vm->version;
      const TimePoint modified = vm->last_modified;
      const std::string origin = vm->origin;
      auto value = co_await p->local().get_version(key, version);
      out.entries.push_back({k, p->id(), version, modified, origin,
                             value.ok() ? identify(in, k, value->value) : -1});
    }
  }
  done = true;
}

std::string token(int64_t payload) {
  return payload < 0 ? std::string() : "p" + std::to_string(payload);
}

// One op as the oracle sees it.
struct HistOp {
  bool put = false;
  int64_t key = 0;
  TimePoint invoked;
  TimePoint done;
  bool ok = false;
  int64_t payload = -1;
  int64_t version = 0;
  int32_t client = 0;
  int32_t served_by = -1;
};

// Linearizability search is exponential, so the oracle refuses keys with
// more than kMaxOpsPerKey ops. Cutting a key's history at a quiescent point
// (every earlier op finished before any later one began) keeps a prefix
// whose linearizability the full history implies; each key contributes its
// longest such prefix that fits.
std::vector<HistOp> linearizable_prefixes(std::vector<HistOp> ops,
                                          int64_t* dropped) {
  std::stable_sort(ops.begin(), ops.end(), [](const HistOp& a,
                                              const HistOp& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.invoked < b.invoked;
  });
  std::vector<HistOp> out;
  size_t i = 0;
  while (i < ops.size()) {
    size_t j = i;
    while (j < ops.size() && ops[j].key == ops[i].key) ++j;
    size_t keep = i;  // ops [i, keep) fit and end at a quiescent point
    size_t counted = 0;
    TimePoint horizon = TimePoint::origin();
    for (size_t k = i; k < j; ++k) {
      if (k > i && ops[k].invoked > horizon) keep = k;
      if (ops[k].put || ops[k].ok) counted++;
      if (counted > sim::ConsistencyOracle::kMaxOpsPerKey) break;
      horizon = std::max(horizon, ops[k].done);
      if (k + 1 == j) keep = j;
    }
    out.insert(out.end(), ops.begin() + static_cast<std::ptrdiff_t>(i),
               ops.begin() + static_cast<std::ptrdiff_t>(keep));
    *dropped += static_cast<int64_t>(j - keep);
    i = j;
  }
  return out;
}

void check_history(Cluster& c, Inputs& in, Report& report) {
  std::vector<HistOp> hist;
  hist.reserve(in.ops.size() + c.preload.size());
  for (size_t k = 0; k < c.preload.size(); ++k) {
    const PreloadRec& p = c.preload[k];
    hist.push_back({true, static_cast<int64_t>(k), p.invoked, p.done, p.ok,
                    static_cast<int64_t>(k), p.version,
                    static_cast<int32_t>(k % c.clients.size()), -1});
  }
  int64_t pending = 0;
  int64_t bad_bytes = 0;
  int64_t not_found = 0;
  for (const OpRec& op : in.ops) {
    if (op.outcome == Outcome::kPending) pending++;
    if (op.bad_bytes) bad_bytes++;
    if (op.outcome == Outcome::kNotFound) not_found++;
    hist.push_back({op.type == OpType::kPut, op.key, op.invoked, op.done,
                    op.outcome == Outcome::kOk, op.payload, op.version,
                    op.client, op.served_by});
  }
  if (pending > 0) report.fail(std::to_string(pending) + " ops never ended");
  if (bad_bytes > 0) {
    report.fail(std::to_string(bad_bytes) +
                " gets returned bytes no put wrote to that key");
  }
  if (not_found > 0) {
    report.fail(std::to_string(not_found) + " gets missed a preloaded key");
  }

  int64_t dropped = 0;
  if (c.spec.mode == sim::CheckMode::kLinearizable) {
    hist = linearizable_prefixes(std::move(hist), &dropped);
  }
  sim::ConsistencyOracle oracle;
  for (const HistOp& h : hist) {
    const std::string& client = c.clients[static_cast<size_t>(h.client)]->id();
    const std::string& key = in.key_names[static_cast<size_t>(h.key)];
    if (h.put) {
      const int64_t id = oracle.begin_put(client, key, token(h.payload),
                                          h.invoked);
      oracle.end_put(id, h.done, h.ok, h.version);
    } else {
      const int64_t id = oracle.begin_get(client, key, h.invoked);
      oracle.end_get(id, h.done, h.ok, token(h.payload), h.version,
                     h.served_by < 0
                         ? std::string()
                         : c.peer_ids[static_cast<size_t>(h.served_by)]);
    }
  }
  if (c.spec.mode == sim::CheckMode::kEventual) {
    Finals finals;
    bool done = false;
    c.sim.spawn(harvest(c, in, finals, done), "harvest");
    if (!c.run_until_flag(done, 1e5)) report.fail("harvest did not finish");
    for (const Finals::Entry& e : finals.entries) {
      oracle.record_replica_value(e.replica,
                                  in.key_names[static_cast<size_t>(e.key)],
                                  e.version, e.last_modified, e.origin,
                                  token(e.payload));
    }
  }
  const auto violations = oracle.check(c.spec.mode);
  if (!violations.empty()) {
    std::string first = sim::ConsistencyOracle::describe(
        {violations.front()});
    report.fail(std::to_string(violations.size()) + " " +
                std::string(sim::check_mode_name(c.spec.mode)) +
                " violations, first: " + first);
  }
  std::printf("# oracle: %s over %" PRId64 " ops (%" PRId64
              " beyond per-key quiescent prefixes not searched)\n",
              std::string(sim::check_mode_name(c.spec.mode)).c_str(),
              oracle.op_count(), dropped);

  const int64_t integrity = integrity_failures(c.sim.telemetry().registry());
  if (integrity != 0) {
    report.fail("integrity.failures = " + std::to_string(integrity));
  }
}

// With no more client ops and replication drained, let background work
// (flushers, timers) run on; a span still open afterwards was leaked.
// The instances are left running: WieraController::stop_instances frees
// peers whose queue_flusher is still scheduled, so driving the simulation
// after it is a use-after-free (README.md, "Known defects"). Skipped once a
// check has failed: a task left pending then may refer to state that is
// gone.
void check_spans_closed(Cluster& c, Report& report) {
  if (!report.errors.empty()) return;
  c.sim.run_for(sec(30));
  const int64_t open = c.sim.telemetry().tracer().open_count();
  if (open != 0) {
    report.fail(std::to_string(open) + " spans still open at the end");
  }
}

uint64_t sim_digest(const Cluster& c, const Inputs& in) {
  uint64_t h = kDigestSeed;
  for (const PreloadRec& p : c.preload) {
    h = fold(h, static_cast<uint64_t>(p.done.us()));
    h = fold(h, static_cast<uint64_t>(p.version));
  }
  for (const OpRec& op : in.ops) {
    h = fold(h, static_cast<uint64_t>(op.done.us()));
    h = fold(h, static_cast<uint64_t>(op.outcome));
    h = fold(h, static_cast<uint64_t>(op.version));
    h = fold(h, static_cast<uint64_t>(op.payload));
    h = fold(h, static_cast<uint64_t>(op.served_by));
  }
  return h;
}

// ----------------------------------------------------------------- metrics

void add_end_to_end(const Inputs& in, const Window& w, double setup_s,
                    int setups, Report& report) {
  std::vector<int64_t> put_us;
  std::vector<int64_t> get_us;
  int64_t failed = 0;
  for (const OpRec& op : in.ops) {
    if (op.outcome != Outcome::kOk) {
      failed++;
      continue;
    }
    const int64_t lat = (op.done - (w.start + usec(op.offset_us))).us();
    (op.type == OpType::kPut ? put_us : get_us).push_back(lat);
  }
  const auto n = static_cast<int64_t>(in.ops.size());
  report.attempted = n;
  report.failed = failed;
  report.add("host_ops_per_s", w.host_ops_per_s, "ops/s", kSlices);
  report.add("setup_s", setup_s, "s", setups);
  report.add("setup_preload_ops", static_cast<double>(in.payloads.size()) -
                                      static_cast<double>(in.puts),
             "ops");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  const auto n_put = static_cast<int64_t>(put_us.size());
  const auto n_get = static_cast<int64_t>(get_us.size());
  report.add("sim_put_p50_ms", percentile_ms(put_us, 0.50), "ms", n_put);
  report.add("sim_put_p99_ms", percentile_ms(put_us, 0.99), "ms", n_put);
  report.add("sim_get_p50_ms", percentile_ms(get_us, 0.50), "ms", n_get);
  report.add("sim_get_p99_ms", percentile_ms(get_us, 0.99), "ms", n_get);
  const double sim_s = (w.last_done - w.start).seconds();
  report.add("sim_ops_per_s", sim_s > 0 ? static_cast<double>(n) / sim_s : 0,
             "ops/sim-s", n);
  const double wan = static_cast<double>(w.quiescent.cross_dc_bytes -
                                         w.before.cross_dc_bytes);
  report.add("wan_bytes_per_op", wan / static_cast<double>(n), "B/op", n);
  report.add("failed_op_frac",
             static_cast<double>(failed) / static_cast<double>(n), "fraction",
             n);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

void add_per_layer(Cluster& c, const Inputs& in, const Window& traced,
                   double untraced_host_ops_per_s, const KvSpec& spec,
                   Report& report) {
  const auto n = static_cast<double>(in.ops.size());
  const auto puts = static_cast<double>(in.puts);
  double ok_puts = 0;
  for (const OpRec& op : in.ops) {
    ok_puts += op.type == OpType::kPut && op.outcome == Outcome::kOk ? 1 : 0;
  }
  const Counters& a = traced.before;
  const Counters& e = traced.at_end;
  const double host_ns_per_op = 1e9 / untraced_host_ops_per_s;

  // sim
  const double events = static_cast<double>(e.events - a.events);
  const double events_per_op = events / n;
  const double kernel_ns = kernel_ns_per_event();
  report.add("sim.events_per_op", events_per_op, "events/op");
  report.add("sim.host_ns_per_event", host_ns_per_op / events_per_op,
             "ns/event");
  report.add("sim.kernel_ns_per_event", kernel_ns, "ns/event");

  // rpc + net
  const double rpc_msgs = static_cast<double>(e.rpc_sent - a.rpc_sent) / n;
  const double codec_ns = codec_ns_per_msg(
      spec.value_bytes, spec.put_frac, static_cast<int>(spec.regions.size()));
  report.add("rpc.msgs_per_op", rpc_msgs, "msgs/op");
  report.add("rpc.codec_ns_per_msg", codec_ns, "ns/msg");
  const double net_msgs =
      static_cast<double>(e.net_messages - a.net_messages) / n;
  std::vector<std::string> nodes;
  for (const std::string& region : spec.regions) {
    nodes.push_back("tiera-" + region);
    nodes.push_back("client-" + region);
  }
  const double transfer_ns =
      transfer_ns_per_msg(make_topology(spec.regions), nodes,
                          static_cast<int64_t>(spec.value_bytes));
  report.add("net.msgs_per_op", net_msgs, "msgs/op");
  report.add("net.transfer_ns_per_msg", transfer_ns, "ns/msg");

  // coord
  const double acquires = static_cast<double>(e.acquires - a.acquires);
  int64_t conflicts = 0;
  for (const OpRec& op : in.ops) conflicts += op.lock_conflict ? 1 : 0;
  report.add("coord.lock_rtt_ms", acquires > 0 ? lock_rtt_ms(spec.regions) : 0,
             "ms");
  report.add("coord.acquires_per_put", ratio(acquires, puts), "acquires/put");
  report.add("coord.lock_conflicts", static_cast<double>(conflicts), "count");

  // tiera + store
  policy::PolicyDoc local;
  if (!spec.local_policy.empty()) {
    local = std::move(policy::parse_policy(spec.local_policy)).value();
  } else {
    local = std::move(policy::builtin::by_name("LowLatencyInstance")).value();
  }
  const TieraHostCost tiera = tiera_host_cost(
      local, spec.value_bytes, std::min<int64_t>(spec.keys, 2048));
  report.add("tiera.put_host_us", tiera.put_us, "us");
  report.add("tiera.get_host_us", tiera.get_us, "us");
  int64_t put_spans = 0;
  int64_t get_spans = 0;
  const obs::Tracer& tracer = c.sim.telemetry().tracer();
  report.add("tiera.put_sim_ms_p50", span_p50_ms(tracer, "tiera.put",
                                                 &put_spans),
             "ms", put_spans);
  report.add("tiera.get_sim_ms_p50", span_p50_ms(tracer, "tiera.get",
                                                 &get_spans),
             "ms", get_spans);
  report.add("store.mem_hit_frac",
             ratio(static_cast<double>(e.mem_gets - a.mem_gets),
                   static_cast<double>(e.tier_gets - a.tier_gets)),
             "fraction");
  report.add("store.evictions_per_op",
             static_cast<double>(e.evictions - a.evictions) / n,
             "evictions/op");

  // integrity
  std::vector<Blob> sample;
  for (size_t i = 0; i < in.payloads.size() && i < 256; ++i) {
    sample.push_back(in.payloads[i]);
  }
  const double checksum_ns = checksum_ns_per_kib(sample);
  const double wire_kib =
      static_cast<double>(e.net_bytes - a.net_bytes) / n / 1024.0;
  report.add("integrity.checksum_ns_per_kib", checksum_ns, "ns/KiB");
  report.add("integrity.failures",
             static_cast<double>(
                 integrity_failures(c.sim.telemetry().registry())),
             "count");
  report.add("integrity.host_frac", checksum_ns * wire_kib / host_ns_per_op,
             "fraction");

  // obs
  const ScrapeCost scrape = scrape_cost(c.sim.telemetry().registry());
  const double scrapes = static_cast<double>(e.scrapes - a.scrapes) / n;
  report.add("obs.scrape_us", scrape.us, "us");
  report.add("obs.series", static_cast<double>(scrape.series), "count");
  report.add("obs.scrape_host_frac", scrapes * scrape.us * 1e3 / host_ns_per_op,
             "fraction");
  report.add("obs.trace_overhead_frac",
             1.0 - traced.host_ops_per_s / untraced_host_ops_per_s, "fraction");

  // wiera
  const double replicas = static_cast<double>(spec.regions.size());
  report.add("wiera.replications_per_put",
             ratio(static_cast<double>(e.repl_sent - a.repl_sent), puts),
             "msgs/put");
  report.add("wiera.replication_backlog",
             ok_puts * (replicas - 1) -
                 static_cast<double>(e.repl_accepted - a.repl_accepted),
             "count");
  report.add("wiera.forwarded_put_frac",
             ratio(static_cast<double>(e.forwarded - a.forwarded), puts),
             "fraction");
  const PutPath path = put_path(tracer);
  report.add("wiera.put_path_ms.rpc.call", path.rpc_call_ms, "ms", path.traces);
  report.add("wiera.put_path_ms.rpc.server", path.rpc_server_ms, "ms",
             path.traces);
  report.add("wiera.put_path_ms.tiera.put", path.tiera_put_ms, "ms",
             path.traces);
  report.add("wiera.put_path_ms.peer.replicate", path.peer_replicate_ms, "ms",
             path.traces);
  report.add("wiera.put_path_ms.unattributed", path.unattributed_ms, "ms",
             path.traces);

  // vfs / apps do no work here.
  report.add("vfs.ios_per_request", 0, "ios/request");
  report.add("vfs.host_us_per_io", 0, "us");
  report.add("apps.pool_hit_frac", 0, "fraction");

  const double tiera_ops = static_cast<double>(e.tiera_ops - a.tiera_ops) / n;
  const double accounted_ns =
      events_per_op * kernel_ns + rpc_msgs * codec_ns +
      net_msgs * transfer_ns +
      tiera_ops * 1e3 * (spec.put_frac * tiera.put_us +
                         (1 - spec.put_frac) * tiera.get_us) +
      scrapes * scrape.us * 1e3 + wire_kib * checksum_ns;
  report.add("layers.host_accounted_frac", accounted_ns / host_ns_per_op,
             "fraction");
}

const KvSpec* find_spec(const std::string& name) {
  for (const KvSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

bool run_kv_workload(const Options& options, Report& report) {
  const KvSpec* spec = find_spec(options.workload);
  if (spec == nullptr) return false;
  Inputs in = make_inputs(*spec, options);
  report.key_digest = in.key_digest;

  if (!options.trace) {
    std::vector<double> setup_times;
    std::unique_ptr<Cluster> cluster;
    for (int i = 0; i < kSetups; ++i) {
      cluster.reset();
      const double t0 = wall_seconds();
      cluster = set_up(*spec, in, options, /*retain_spans=*/false, report);
      setup_times.push_back(wall_seconds() - t0);
      if (cluster == nullptr) return true;
    }
    print_samples("setup s", setup_times);
    const Window w = measure(*cluster, in, options, report);
    if (!report.errors.empty()) return true;
    add_end_to_end(in, w, median(setup_times), kSetups, report);
    check_history(*cluster, in, report);
    report.sim_digest = sim_digest(*cluster, in);
    check_spans_closed(*cluster, report);
    return true;
  }

  // Traced run: the same window untraced, then on a fresh set-up with span
  // retention on. Sim-side results must match exactly.
  const std::vector<OpRec> pristine = in.ops;
  double untraced_rate = 0;
  uint64_t untraced_digest = 0;
  {
    auto cluster = set_up(*spec, in, options, /*retain_spans=*/false, report);
    if (cluster == nullptr) return true;
    untraced_rate = measure(*cluster, in, options, report).host_ops_per_s;
    if (!report.errors.empty()) return true;
    untraced_digest = sim_digest(*cluster, in);
  }
  in.ops = pristine;
  auto cluster = set_up(*spec, in, options, /*retain_spans=*/true, report);
  if (cluster == nullptr) return true;
  const Window w = measure(*cluster, in, options, report);
  if (!report.errors.empty()) return true;
  report.attempted = static_cast<int64_t>(in.ops.size());
  for (const OpRec& op : in.ops) {
    report.failed += op.outcome == Outcome::kOk ? 0 : 1;
  }
  report.sim_digest = sim_digest(*cluster, in);
  if (report.sim_digest != untraced_digest) {
    report.fail("traced and untraced windows diverged in simulated results");
  }
  add_per_layer(*cluster, in, w, untraced_rate, *spec, report);
  check_history(*cluster, in, report);
  check_spans_closed(*cluster, report);
  return true;
}

}  // namespace wiera::perfbench
