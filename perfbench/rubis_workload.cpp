// The RUBiS workload of the repository benchmark (perfbench/README.md):
// Fig. 12's Standard D2 remote-memory cell, built like bench/fig12_rubis's
// Setup — an Azure VM primary whose page reads are forwarded to an AWS
// memory tier 2 ms away, apps::TableStore over vfs::WieraVfs with 16 KiB
// pages, 300 closed-loop clients with 350 ms think time — at a tenth of
// the paper's database so that populate() takes about a second. The buffer
// pool shrinks by the same factor, keeping the database-to-pool ratio of
// the full-scale run.
//
// RubisApp issues its page I/O internally, so the benchmark times storage
// latency with its own open-loop probe: 16 KiB pwrite/pread calls on a
// separate file through the same WieraVfs, each timed from its scheduled
// arrival. These are the workload's sim_put_* / sim_get_* numbers.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/rubis.h"
#include "bench.h"
#include "layers.h"
#include "policy/parser.h"
#include "wiera/peer.h"

namespace wiera::perfbench {
namespace {

constexpr int kSlices = 20;
constexpr int64_t kPage = 16 * KiB;
// One tenth of the paper's 50,000 items and 50,000 users.
constexpr int64_t kRows = 5000;
constexpr int64_t kPoolBytes = 16 * MiB / 10;
constexpr int kClients = 300;
constexpr Duration kRampUp = sec(10);
// Measured sim-seconds per requested host second, sized on a 4-core
// 2.1 GHz host so the window lasts about --seconds there.
constexpr double kSimSecondsPerHostSecond = 15.0;
constexpr int64_t kProbeBlocks = 256;
constexpr double kProbeSamplesPerType = 1300;
// Versions kept per page. Fig. 12's Setup keeps every version, so memory
// grows with every page write; nothing reads old versions.
constexpr int64_t kMaxVersions = 2;

constexpr char kAzureLocal[] = R"(
Tiera AzureDiskInstance() {
   tier1: {name: LocalDisk, size: 100G};
}
)";
constexpr char kAwsMemory[] = R"(
Tiera AwsMemoryInstance() {
   tier1: {name: LocalMemory, size: 4G};
}
)";

net::Topology make_topology() {
  net::Topology topo;
  topo.add_datacenter("azure-us-east", net::Provider::kAzure, "us-east");
  topo.add_datacenter("aws-us-east", net::Provider::kAws, "us-east");
  topo.set_rtt("azure-us-east", "aws-us-east",
               usec(net::calibration::kAwsAzureUsEastRttUs));
  topo.set_jitter_fraction(0.02);
  topo.add_node("azure-vm", "azure-us-east", net::VmType::standard_d2());
  topo.add_node("aws-vm", "aws-us-east", net::VmType::t2_micro());
  return topo;
}

// Fig. 12's remote-memory deployment (bench/fig12_rubis.cpp, Setup with
// remote_memory = true).
struct Deployment {
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  std::unique_ptr<geo::WieraPeer> azure_peer;
  std::unique_ptr<geo::WieraPeer> aws_peer;
  std::unique_ptr<vfs::WieraVfs> fs;
  std::unique_ptr<apps::TableStore> db;

  Deployment(uint64_t seed, bool retain_spans)
      : sim(seed), network(sim, make_topology()) {
    sim.telemetry().tracer().set_retain(retain_spans);
    geo::WieraPeer::Config azure;
    azure.instance_id = "azure-vm";
    azure.region = "us-east";
    azure.mode = geo::ConsistencyMode::kPrimaryBackupSync;
    azure.is_primary = true;
    azure.primary_instance = "azure-vm";
    azure.local.policy = std::move(policy::parse_policy(kAzureLocal)).value();
    azure.local.tier_tweak = [](const std::string&, store::TierSpec& spec) {
      spec.iops_limit = store::calibration::kAzureDiskIops;
      spec.buffer_cache = false;  // host cache off + O_DIRECT (paper)
    };
    azure.get_forward_target = "aws-vm";
    azure.local.max_versions = kMaxVersions;
    azure_peer = std::make_unique<geo::WieraPeer>(sim, network, registry,
                                                  std::move(azure));
    geo::WieraPeer::Config aws;
    aws.instance_id = "aws-vm";
    aws.region = "us-east";
    aws.mode = geo::ConsistencyMode::kPrimaryBackupSync;
    aws.primary_instance = "azure-vm";
    aws.local.policy = std::move(policy::parse_policy(kAwsMemory)).value();
    aws.local.max_versions = kMaxVersions;
    aws_peer = std::make_unique<geo::WieraPeer>(sim, network, registry,
                                                std::move(aws));
    azure_peer->set_peers({"azure-vm", "aws-vm"});
    aws_peer->set_peers({"azure-vm", "aws-vm"});
    aws_peer->start();
    azure_peer->start();
    fs = std::make_unique<vfs::WieraVfs>(sim, *azure_peer,
                                         vfs::WieraVfs::Options{kPage});
    apps::TableStore::Options db_options;
    db_options.page_size = kPage;
    db_options.buffer_pool_bytes = kPoolBytes;
    db_options.direct = true;
    db = std::make_unique<apps::TableStore>(sim, *fs, db_options);
  }

  bool run_until_flag(const bool& done, double limit_s) {
    const TimePoint cap = sim.now() + sec(static_cast<int64_t>(limit_s));
    while (!done && sim.now() < cap) sim.run_for(msec(500));
    return done;
  }
};

apps::RubisOptions rubis_options(const Options& options, Duration measure) {
  apps::RubisOptions o;
  o.items = kRows;
  o.users = kRows;
  o.clients = kClients;
  o.ramp_up = kRampUp;
  o.measure = measure;
  o.ramp_down = sec(1);
  o.think_time = msec(350);
  o.seed = options.seed;
  return o;
}

// ------------------------------------------------------------------ probe

struct ProbeOp {
  int64_t offset_us = 0;
  int64_t block = 0;
  int64_t payload = -1;  // write: payload id; read: payload id read back
  bool write = false;
  bool ok = false;
  bool done = false;
  bool bad_bytes = false;
  TimePoint finished;
};

struct Probe {
  std::vector<Blob> payloads;  // ids [0, kProbeBlocks) are the pre-write
  std::vector<int64_t> payload_block;
  std::vector<ProbeOp> ops;
  uint64_t key_digest = kDigestSeed;
  int fd = -1;
};

Blob probe_payload(uint64_t seed, int64_t id, int64_t block) {
  Bytes bytes(static_cast<size_t>(kPage));
  uint64_t x = seed ^ (static_cast<uint64_t>(id) * 0xD1B54A32D192ED03ull);
  for (size_t i = 0; i < bytes.size(); i += 8) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(bytes.data() + i, &x, 8);
  }
  std::memcpy(bytes.data(), &id, sizeof(id));
  std::memcpy(bytes.data() + 8, &block, sizeof(block));
  return Blob(std::move(bytes));
}

Probe make_probe(const Options& options, Duration measure) {
  Probe p;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x9B0BE);
  for (int64_t b = 0; b < kProbeBlocks; ++b) {
    p.payloads.push_back(probe_payload(options.seed, b, b));
    p.payload_block.push_back(b);
  }
  const double rate = 2 * kProbeSamplesPerType / measure.seconds();
  double t = 0;
  for (;;) {
    t += rng.exponential(1.0 / rate);
    if (t >= measure.seconds()) break;
    ProbeOp op;
    op.offset_us = static_cast<int64_t>(t * 1e6);
    op.write = rng.bernoulli(0.5);
    op.block = rng.uniform_int(0, kProbeBlocks - 1);
    if (op.write) {
      op.payload = static_cast<int64_t>(p.payloads.size());
      p.payloads.push_back(probe_payload(options.seed, op.payload, op.block));
      p.payload_block.push_back(op.block);
    }
    p.key_digest = fold(p.key_digest, static_cast<uint64_t>(op.block));
    p.key_digest = fold(p.key_digest, op.write ? 1 : 0);
    p.ops.push_back(op);
  }
  return p;
}

int64_t identify(const Probe& p, int64_t block, const Bytes& data) {
  if (static_cast<int64_t>(data.size()) != kPage) return -1;
  int64_t id = 0;
  std::memcpy(&id, data.data(), sizeof(id));
  if (id < 0 || id >= static_cast<int64_t>(p.payloads.size())) return -1;
  if (p.payload_block[static_cast<size_t>(id)] != block) return -1;
  const Blob& expected = p.payloads[static_cast<size_t>(id)];
  return std::memcmp(expected.data(), data.data(), data.size()) == 0 ? id : -1;
}

sim::Task<void> probe_op(Deployment& d, Probe& p, size_t i,
                         int64_t& completed) {
  ProbeOp& op = p.ops[i];
  const int64_t offset = op.block * kPage;
  if (op.write) {
    auto res = co_await d.fs->pwrite(p.fd, offset,
                                     p.payloads[static_cast<size_t>(op.payload)]);
    op.ok = res.ok();
  } else {
    Bytes data;
    auto res = co_await d.fs->pread(p.fd, offset, kPage, &data);
    op.ok = res.ok();
    if (res.ok()) {
      op.payload = identify(p, op.block, data);
      op.bad_bytes = op.payload < 0;
    }
  }
  op.finished = d.sim.now();
  op.done = true;
  completed++;
}

sim::Task<void> probe_prewrite(Deployment& d, Probe& p, bool& ok,
                               bool& done) {
  for (int64_t b = 0; b < kProbeBlocks; ++b) {
    auto res = co_await d.fs->pwrite(p.fd, b * kPage,
                                     p.payloads[static_cast<size_t>(b)]);
    ok = ok && res.ok();
  }
  done = true;
}

sim::Task<void> probe_generator(Deployment& d, Probe& p, TimePoint start,
                                int64_t& completed) {
  for (size_t i = 0; i < p.ops.size(); ++i) {
    co_await d.sim.at(start + usec(p.ops[i].offset_us));
    d.sim.spawn(probe_op(d, p, i, completed));
  }
}

// ---------------------------------------------------------------- run

// Populates the database; false (with the reason in `report`) on failure.
bool populate(Deployment& d, apps::RubisApp& app, double probe_setup_us,
              Report& report) {
  bool done = false;
  Status status = ok_status();
  auto body = [](apps::RubisApp& a, Status& st, bool& flag) -> sim::Task<void> {
    st = co_await a.populate();
    flag = true;
  };
  d.sim.spawn(body(app, status, done), "populate");
  if (!d.run_until_flag(done, 1e6) || !status.ok()) {
    report.fail("populate: " + status.to_string());
    return false;
  }
  // Resolution probe: the same per-op cost for every row populate wrote.
  busy_wait_us(probe_setup_us * 2 * kRows);
  return true;
}

struct Window {
  double host_requests_per_s = 0;
  int64_t requests = 0;
  int64_t failed_requests = 0;
  double rps = 0;  // simulated requests/s of the measured window
  TimePoint start;
  int64_t events = 0;
  int64_t rpc_sent = 0;
  int64_t net_messages = 0;
  int64_t net_bytes = 0;
  int64_t cross_dc_bytes = 0;
  int64_t vfs_ios = 0;
  int64_t vfs_writes = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t repl_sent = 0;
  int64_t repl_accepted = 0;
  int64_t forwarded = 0;
  int64_t tiera_ops = 0;
  int64_t mem_gets = 0;
  int64_t tier_gets = 0;
  int64_t evictions = 0;
};

// Window deltas are taken as (end - start) of these counters.
void snapshot(Deployment& d, Window& w, int sign) {
  const obs::Registry& reg = d.sim.telemetry().registry();
  w.events += sign * static_cast<int64_t>(d.sim.events_executed());
  w.rpc_sent += sign * reg.counter_sum("rpc_calls_sent_total");
  w.net_messages += sign * d.network.traffic().total_messages;
  w.net_bytes += sign * d.network.traffic().total_bytes;
  w.cross_dc_bytes += sign * d.network.traffic().cross_dc_bytes();
  w.vfs_ios += sign * (d.fs->reads() + d.fs->writes());
  w.vfs_writes += sign * d.fs->writes();
  w.pool_hits += sign * d.db->buffer_pool_hits();
  w.pool_misses += sign * d.db->buffer_pool_misses();
  w.repl_sent += sign * reg.counter_sum("wiera_replications_sent_total");
  w.repl_accepted +=
      sign * reg.counter_sum("wiera_replications_accepted_total");
  w.forwarded += sign * reg.counter_sum("wiera_forwarded_puts_total");
  reg.for_each_histogram([&](const std::string& name, const std::string&,
                             const obs::Histogram& h) {
    if (name == "tiera_put_latency_us" || name == "tiera_get_latency_us") {
      w.tiera_ops += sign * h.count();
    }
  });
  for (geo::WieraPeer* p : {d.azure_peer.get(), d.aws_peer.get()}) {
    for (const std::string& label : p->local().tier_labels()) {
      const store::StorageTier* tier = p->local().tier_by_label(label);
      w.evictions += sign * tier->stats().evictions;
      w.tier_gets += sign * tier->stats().gets;
      if (tier->spec().kind == store::TierKind::kMemory) {
        w.mem_gets += sign * tier->stats().gets;
      }
    }
  }
}

Window measure(Deployment& d, apps::RubisApp& app, Probe& probe,
               Duration measure_len, double probe_us, Report& report) {
  Window w;
  bool done = false;
  Result<apps::RubisResult> result = apps::RubisResult{};
  auto body = [](apps::RubisApp& a, Result<apps::RubisResult>& out,
                 bool& flag) -> sim::Task<void> {
    out = co_await a.run();
    flag = true;
  };
  const TimePoint t0 = d.sim.now();
  d.sim.spawn(body(app, result, done), "rubis");
  d.sim.run_until(t0 + kRampUp);
  w.start = d.sim.now();
  snapshot(d, w, -1);
  const int64_t requests0 = app.total_requests();
  const int64_t failed0 = app.failed_requests();
  int64_t probe_done = 0;
  d.sim.spawn(probe_generator(d, probe, w.start, probe_done),
              "probe");
  std::vector<double> rates;
  for (int s = 1; s <= kSlices; ++s) {
    const double t0 = wall_seconds();
    const int64_t req0 = app.total_requests();
    d.sim.run_until(w.start + measure_len * (static_cast<double>(s) / kSlices));
    const auto requests = static_cast<double>(app.total_requests() - req0);
    // Resolution probe, per request (RubisApp issues them internally).
    busy_wait_us(probe_us * requests);
    const double dt = wall_seconds() - t0;
    if (dt > 0) rates.push_back(requests / dt);
  }
  w.requests = app.total_requests() - requests0;
  w.failed_requests = app.failed_requests() - failed0;
  snapshot(d, w, +1);
  w.host_requests_per_s = median(rates);
  print_samples("slice host requests/s", rates);
  if (!d.run_until_flag(done, 1e5) || !result.ok()) {
    report.fail("rubis run: " + result.status().to_string());
    return w;
  }
  w.rps = result->throughput_rps();
  const auto total = static_cast<int64_t>(probe.ops.size());
  const TimePoint cap = d.sim.now() + sec(600);
  while (probe_done < total && d.sim.now() < cap) d.sim.run_for(msec(100));
  if (probe_done < total) report.fail("probe ops still pending");
  return w;
}

void check(Deployment& d, const Probe& probe, Report& report) {
  int64_t bad = 0;
  for (const ProbeOp& op : probe.ops) bad += op.bad_bytes ? 1 : 0;
  if (bad > 0) {
    report.fail(std::to_string(bad) +
                " probe reads returned bytes never written to that block");
  }
  if (d.db->row_count("users") != kRows || d.db->row_count("items") < kRows) {
    report.fail("table row counts do not match what populate() wrote");
  }
  const int64_t integrity = integrity_failures(d.sim.telemetry().registry());
  if (integrity != 0) {
    report.fail("integrity.failures = " + std::to_string(integrity));
  }
  d.azure_peer->stop();
  d.aws_peer->stop();
  d.sim.run_for(sec(30));
  const int64_t open = d.sim.telemetry().tracer().open_count();
  if (open != 0) {
    report.fail(std::to_string(open) + " spans still open at the end");
  }
}

uint64_t sim_digest(const Window& w, const Probe& probe) {
  uint64_t h = kDigestSeed;
  h = fold(h, static_cast<uint64_t>(w.requests));
  h = fold(h, static_cast<uint64_t>(w.failed_requests));
  h = fold(h, static_cast<uint64_t>(w.events));
  h = fold(h, static_cast<uint64_t>(w.vfs_ios));
  for (const ProbeOp& op : probe.ops) {
    h = fold(h, static_cast<uint64_t>(op.finished.us()));
    h = fold(h, static_cast<uint64_t>(op.payload));
  }
  return h;
}

void count_outcomes(const Window& w, const Probe& probe, Report& report) {
  int64_t probe_failed = 0;
  for (const ProbeOp& op : probe.ops) probe_failed += op.ok ? 0 : 1;
  report.attempted = w.requests + static_cast<int64_t>(probe.ops.size());
  report.failed = w.failed_requests + probe_failed;
}

void add_end_to_end(const Window& w, const Probe& probe,
                    const std::vector<double>& setup_s, Report& report) {
  std::vector<int64_t> put_us;
  std::vector<int64_t> get_us;
  for (const ProbeOp& op : probe.ops) {
    if (!op.ok) continue;
    const int64_t lat = (op.finished - (w.start + usec(op.offset_us))).us();
    (op.write ? put_us : get_us).push_back(lat);
  }
  count_outcomes(w, probe, report);
  const auto n = static_cast<double>(w.requests);
  report.add("host_ops_per_s", w.host_requests_per_s, "ops/s", kSlices);
  report.add("setup_s", median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));
  report.add("setup_preload_ops", 2 * kRows, "rows");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  const auto n_put = static_cast<int64_t>(put_us.size());
  const auto n_get = static_cast<int64_t>(get_us.size());
  report.add("sim_put_p50_ms", percentile_ms(put_us, 0.50), "ms", n_put);
  report.add("sim_put_p99_ms", percentile_ms(put_us, 0.99), "ms", n_put);
  report.add("sim_get_p50_ms", percentile_ms(get_us, 0.50), "ms", n_get);
  report.add("sim_get_p99_ms", percentile_ms(get_us, 0.99), "ms", n_get);
  report.add("sim_ops_per_s", w.rps, "ops/sim-s", w.requests);
  report.add("wan_bytes_per_op", static_cast<double>(w.cross_dc_bytes) / n,
             "B/op", w.requests);
  report.add("failed_op_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "fraction", report.attempted);
}

// Host µs per 16 KiB WieraVfs write and read on a fresh deployment.
double vfs_host_us_per_io(uint64_t seed) {
  Deployment d(seed, /*retain_spans=*/false);
  vfs::OpenFlags flags;
  flags.create = true;
  flags.direct = true;
  const int fd = d.fs->open("/bench/vfs-timing.dat", flags).value();
  constexpr int64_t kBlocks = 512;
  const Blob page = Blob::zeros(static_cast<size_t>(kPage));
  double us = 0;
  bool done = false;
  auto body = [&]() -> sim::Task<void> {
    const double t0 = wall_seconds();
    for (int64_t b = 0; b < kBlocks; ++b) {
      auto res = co_await d.fs->pwrite(fd, b * kPage, page);
      if (!res.ok()) break;
    }
    for (int64_t b = 0; b < kBlocks; ++b) {
      Bytes out;
      auto res = co_await d.fs->pread(fd, b * kPage, kPage, &out);
      if (!res.ok()) break;
    }
    us = (wall_seconds() - t0) * 1e6 / (2 * kBlocks);
    done = true;
  };
  d.sim.spawn(body());
  d.run_until_flag(done, 1e5);
  return us;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

void add_per_layer(Deployment& d, const Window& w, double untraced_rate,
                   double traced_rate, const Options& options,
                   Report& report) {
  const auto n = static_cast<double>(w.requests);
  const double host_ns_per_op = 1e9 / untraced_rate;
  const double writes = static_cast<double>(w.vfs_writes);
  const double write_frac = ratio(writes, static_cast<double>(w.vfs_ios));

  const double events_per_op = static_cast<double>(w.events) / n;
  const double kernel_ns = kernel_ns_per_event();
  report.add("sim.events_per_op", events_per_op, "events/op");
  report.add("sim.host_ns_per_event", host_ns_per_op / events_per_op,
             "ns/event");
  report.add("sim.kernel_ns_per_event", kernel_ns, "ns/event");

  const double rpc_msgs = static_cast<double>(w.rpc_sent) / n;
  const double codec_ns = codec_ns_per_msg(kPage, write_frac, 2);
  report.add("rpc.msgs_per_op", rpc_msgs, "msgs/op");
  report.add("rpc.codec_ns_per_msg", codec_ns, "ns/msg");
  const double net_msgs = static_cast<double>(w.net_messages) / n;
  const double transfer_ns =
      transfer_ns_per_msg(make_topology(), {"azure-vm", "aws-vm"}, kPage);
  report.add("net.msgs_per_op", net_msgs, "msgs/op");
  report.add("net.transfer_ns_per_msg", transfer_ns, "ns/msg");

  report.add("coord.lock_rtt_ms", 0, "ms");
  report.add("coord.acquires_per_put", 0, "acquires/put");
  report.add("coord.lock_conflicts", 0, "count");

  const TieraHostCost tiera = tiera_host_cost(
      std::move(policy::parse_policy(kAwsMemory)).value(), kPage, 512);
  report.add("tiera.put_host_us", tiera.put_us, "us");
  report.add("tiera.get_host_us", tiera.get_us, "us");
  int64_t put_spans = 0;
  int64_t get_spans = 0;
  const obs::Tracer& tracer = d.sim.telemetry().tracer();
  report.add("tiera.put_sim_ms_p50", span_p50_ms(tracer, "tiera.put",
                                                 &put_spans),
             "ms", put_spans);
  report.add("tiera.get_sim_ms_p50", span_p50_ms(tracer, "tiera.get",
                                                 &get_spans),
             "ms", get_spans);
  report.add("store.mem_hit_frac",
             ratio(static_cast<double>(w.mem_gets),
                   static_cast<double>(w.tier_gets)),
             "fraction");
  report.add("store.evictions_per_op", static_cast<double>(w.evictions) / n,
             "evictions/op");

  const double checksum_ns =
      checksum_ns_per_kib({Blob::zeros(static_cast<size_t>(kPage))});
  const double wire_kib = static_cast<double>(w.net_bytes) / n / 1024.0;
  const obs::Registry& reg = d.sim.telemetry().registry();
  report.add("integrity.checksum_ns_per_kib", checksum_ns, "ns/KiB");
  report.add("integrity.failures",
             static_cast<double>(integrity_failures(reg)), "count");
  report.add("integrity.host_frac", checksum_ns * wire_kib / host_ns_per_op,
             "fraction");

  const ScrapeCost scrape = scrape_cost(reg);
  report.add("obs.scrape_us", scrape.us, "us");
  report.add("obs.series", static_cast<double>(scrape.series), "count");
  report.add("obs.scrape_host_frac", 0, "fraction");
  report.add("obs.trace_overhead_frac", 1.0 - traced_rate / untraced_rate,
             "fraction");

  report.add("wiera.replications_per_put",
             ratio(static_cast<double>(w.repl_sent), writes), "msgs/put");
  report.add("wiera.replication_backlog",
             writes - static_cast<double>(w.repl_accepted), "count");
  report.add("wiera.forwarded_put_frac",
             ratio(static_cast<double>(w.forwarded), writes), "fraction");
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

  const double ios_per_request = static_cast<double>(w.vfs_ios) / n;
  const double vfs_us = vfs_host_us_per_io(options.seed);
  report.add("vfs.ios_per_request", ios_per_request, "ios/request");
  report.add("vfs.host_us_per_io", vfs_us, "us");
  const double pool = static_cast<double>(w.pool_hits + w.pool_misses);
  report.add("apps.pool_hit_frac",
             ratio(static_cast<double>(w.pool_hits), pool), "fraction");

  const double tiera_ops = static_cast<double>(w.tiera_ops) / n;
  const double accounted_ns =
      events_per_op * kernel_ns + rpc_msgs * codec_ns +
      net_msgs * transfer_ns +
      tiera_ops * 1e3 * (write_frac * tiera.put_us +
                         (1 - write_frac) * tiera.get_us) +
      wire_kib * checksum_ns;
  report.add("layers.host_accounted_frac", accounted_ns / host_ns_per_op,
             "fraction");
}

struct Run {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<apps::RubisApp> app;
  Probe probe;
  Window w;
};

// Set up (timed, `setups` times) and measure one window on the last set-up.
bool run_once(const Options& options, bool retain_spans, int setups,
              Duration measure_len, Run& run, std::vector<double>& setup_s,
              Report& report) {
  for (int i = 0; i < setups; ++i) {
    run.app.reset();
    run.d.reset();
    const double t0 = wall_seconds();
    run.d = std::make_unique<Deployment>(options.seed, retain_spans);
    run.app = std::make_unique<apps::RubisApp>(
        run.d->sim, *run.d->db, rubis_options(options, measure_len));
    if (!populate(*run.d, *run.app, options.probe_setup_us, report)) {
      return false;
    }
    setup_s.push_back(wall_seconds() - t0);
  }
  Deployment& d = *run.d;
  run.probe = make_probe(options, measure_len);
  vfs::OpenFlags flags;
  flags.create = true;
  flags.direct = true;
  auto fd = d.fs->open("/bench/probe.dat", flags);
  if (!fd.ok()) {
    report.fail("probe open: " + fd.status().to_string());
    return false;
  }
  run.probe.fd = *fd;
  bool ok = true;
  bool done = false;
  d.sim.spawn(probe_prewrite(d, run.probe, ok, done), "probe-prewrite");
  if (!d.run_until_flag(done, 1e5) || !ok) {
    report.fail("probe pre-write failed");
    return false;
  }
  run.w = measure(d, *run.app, run.probe, measure_len, options.probe_us,
                  report);
  return true;
}

}  // namespace

bool run_rubis_workload(const Options& options, Report& report) {
  if (options.workload != "rubis_remote_memory") return false;
  const Duration measure_len =
      sec(1) * (options.seconds * kSimSecondsPerHostSecond);
  std::vector<double> setups;
  Run run;
  if (!options.trace) {
    if (!run_once(options, false, kSetups, measure_len, run, setups,
                  report) ||
        !report.errors.empty()) {
      return true;
    }
    print_samples("setup s", setups);
    report.key_digest = run.probe.key_digest;
    add_end_to_end(run.w, run.probe, setups, report);
    report.sim_digest = sim_digest(run.w, run.probe);
    check(*run.d, run.probe, report);
    return true;
  }
  if (!run_once(options, false, 1, measure_len, run, setups, report) ||
      !report.errors.empty()) {
    return true;
  }
  const double untraced_rate = run.w.host_requests_per_s;
  const uint64_t untraced_digest = sim_digest(run.w, run.probe);
  Run traced;
  if (!run_once(options, true, 1, measure_len, traced, setups, report) ||
      !report.errors.empty()) {
    return true;
  }
  report.key_digest = traced.probe.key_digest;
  count_outcomes(traced.w, traced.probe, report);
  report.sim_digest = sim_digest(traced.w, traced.probe);
  if (report.sim_digest != untraced_digest) {
    report.fail("traced and untraced windows diverged in simulated results");
  }
  add_per_layer(*traced.d, traced.w, untraced_rate,
                traced.w.host_requests_per_s, options, report);
  check(*traced.d, traced.probe, report);
  return true;
}

}  // namespace wiera::perfbench
