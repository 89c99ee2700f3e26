#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "common/checksum.h"
#include "coord/lock_service.h"
#include "net/network.h"
#include "obs/sampler.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"
#include "tiera/instance.h"
#include "wiera/messages.h"

namespace wiera::perfbench {

// ------------------------------------------------------------ bench.h bits


double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_samples(const char* label, const std::vector<double>& values) {
  std::printf("# %s:", label);
  for (double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double percentile_ms(std::vector<int64_t> us, double q) {
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  const double rank = q * static_cast<double>(us.size());
  const size_t idx = std::min(us.size() - 1, static_cast<size_t>(rank));
  const int64_t v = us[idx];
  const auto lo = static_cast<double>(
      std::lower_bound(us.begin(), us.end(), v) - us.begin());
  const auto hi = static_cast<double>(
      std::upper_bound(us.begin(), us.end(), v) - us.begin());
  const double within = std::clamp((rank - lo) / (hi - lo), 0.0, 1.0);
  return (static_cast<double>(v) - 0.5 + within) / 1e3;
}

namespace {

volatile uint64_t g_sink = 0;

sim::Task<void> tick_loop(sim::Simulation& sim, int64_t n) {
  for (int64_t i = 0; i < n; ++i) co_await sim.delay(usec(1 + i % 7));
}

template <typename Body>
double time_ns(Body&& body) {
  const double t0 = wall_seconds();
  body();
  return (wall_seconds() - t0) * 1e9;
}

}  // namespace

// -------------------------------------------------------------------- sim

double kernel_ns_per_event() {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulation sim(7);
    for (int t = 0; t < 64; ++t) sim.spawn(tick_loop(sim, 8000));
    const double ns = time_ns([&] { sim.run(); });
    runs.push_back(ns / static_cast<double>(sim.events_executed()));
  }
  return median(runs);
}

// -------------------------------------------------------------------- rpc

double codec_ns_per_msg(size_t value_bytes, double put_frac, int replicas) {
  const Blob value = Blob::zeros(value_bytes);
  geo::PutRequest put;
  put.key = "key000042";
  put.value = value;
  put.client = "app-us-east";
  put.checksum = object_checksum(put.key, 0, value);
  geo::PutResponse put_resp{17, 0x1234};
  geo::GetRequest get;
  get.key = put.key;
  get.client = put.client;
  get.checksum = 0x5678;
  geo::GetResponse get_resp;
  get_resp.value = value;
  get_resp.version = 17;
  get_resp.served_by = "tiera-us-east";
  geo::ReplicateRequest repl;
  repl.key = put.key;
  repl.version = 17;
  repl.value = value;
  repl.origin = "tiera-us-east";
  geo::ReplicateResponse repl_resp{true};

  constexpr int kIters = 2000;
  auto round_trip_ns = [&](auto&& codec) {
    std::vector<double> runs;
    for (int rep = 0; rep < 3; ++rep) {
      runs.push_back(time_ns([&] {
                       for (int i = 0; i < kIters; ++i) codec();
                     }) /
                     kIters);
    }
    return median(runs);
  };
  const double put_ns = round_trip_ns([&] {
    g_sink = g_sink + geo::decode_put_request(geo::encode(put))->value.size();
  });
  const double put_resp_ns = round_trip_ns([&] {
    g_sink = g_sink +
             static_cast<uint64_t>(
                 geo::decode_put_response(geo::encode(put_resp))->version);
  });
  const double get_ns = round_trip_ns([&] {
    g_sink = g_sink + geo::decode_get_request(geo::encode(get))->key.size();
  });
  const double get_resp_ns = round_trip_ns([&] {
    g_sink = g_sink +
             geo::decode_get_response(geo::encode(get_resp))->value.size();
  });
  const double repl_ns = round_trip_ns([&] {
    g_sink = g_sink +
             geo::decode_replicate_request(geo::encode(repl))->value.size();
  });
  const double repl_resp_ns = round_trip_ns([&] {
    g_sink = g_sink + (geo::decode_replicate_response(geo::encode(repl_resp))
                               ->accepted
                           ? 1
                           : 0);
  });
  // Messages one op puts on the wire: a put is a request/response pair
  // plus one replicate pair per other replica; a get is one pair.
  const double copies = replicas - 1;
  const double put_op_ns =
      put_ns + put_resp_ns + copies * (repl_ns + repl_resp_ns);
  const double get_op_ns = get_ns + get_resp_ns;
  const double msgs = put_frac * (2 + 2 * copies) + (1 - put_frac) * 2;
  return (put_frac * put_op_ns + (1 - put_frac) * get_op_ns) / msgs;
}

// -------------------------------------------------------------------- net

double transfer_ns_per_msg(const net::Topology& topology,
                           const std::vector<std::string>& nodes,
                           int64_t bytes) {
  sim::Simulation sim(11);
  net::Network network(sim, topology);
  constexpr int kRounds = 400;
  int64_t transfers = 0;
  auto loop = [](net::Network& net, const std::vector<std::string>& ns,
                 int64_t size, int64_t& count) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      for (const std::string& from : ns) {
        for (const std::string& to : ns) {
          if (from == to) continue;
          Status st = co_await net.transfer(from, to, size);
          if (st.ok()) count++;
        }
      }
    }
  };
  sim.spawn(loop(network, nodes, bytes, transfers));
  const double ns = time_ns([&] { sim.run(); });
  return transfers > 0 ? ns / static_cast<double>(transfers) : 0;
}

// ------------------------------------------------------------------ coord

double lock_rtt_ms(const std::vector<std::string>& regions) {
  net::Topology topo = net::Topology::paper_default();
  topo.set_jitter_fraction(0.05);
  topo.add_node("wiera-controller", "aws-us-east");
  for (const std::string& region : regions) {
    topo.add_node("tiera-" + region, "aws-" + region);
  }
  sim::Simulation sim(13);
  net::Network network(sim, topo);
  rpc::Registry registry;
  rpc::Endpoint service_ep(network, registry, "wiera-controller");
  coord::LockService service(sim, service_ep);
  std::vector<std::unique_ptr<rpc::Endpoint>> endpoints;
  std::vector<std::unique_ptr<coord::LockClient>> clients;
  for (const std::string& region : regions) {
    endpoints.push_back(
        std::make_unique<rpc::Endpoint>(network, registry, "tiera-" + region));
    clients.push_back(std::make_unique<coord::LockClient>(*endpoints.back(),
                                                          "wiera-controller"));
  }
  constexpr int kCycles = 50;
  double total_ms = 0;
  int64_t cycles = 0;
  auto loop = [](sim::Simulation& s, coord::LockClient& client,
                 std::string prefix, double& sum,
                 int64_t& count) -> sim::Task<void> {
    for (int i = 0; i < kCycles; ++i) {
      const std::string lock = prefix + std::to_string(i);
      const TimePoint t0 = s.now();
      Status acquired = co_await client.acquire(lock);
      Status released = co_await client.release(lock);
      if (acquired.ok() && released.ok()) {
        sum += (s.now() - t0).ms();
        count++;
      }
    }
  };
  for (size_t i = 0; i < clients.size(); ++i) {
    sim.spawn(loop(sim, *clients[i], regions[i] + ":", total_ms, cycles));
  }
  sim.run();
  return cycles > 0 ? total_ms / static_cast<double>(cycles) : 0;
}

// ------------------------------------------------------------ tiera/store

TieraHostCost tiera_host_cost(const policy::PolicyDoc& local_policy,
                              size_t value_bytes, int64_t keys) {
  sim::Simulation sim(17);
  tiera::TieraInstance::Config config;
  config.instance_id = "tiera-bare";
  config.region = "us-east";
  config.policy = local_policy;
  config.params["t"] = policy::Value::duration_of(sec(10));
  config.max_versions = 2;
  tiera::TieraInstance instance(sim, config);
  instance.start();
  std::vector<std::string> names;
  std::vector<Blob> values;
  for (int64_t k = 0; k < keys; ++k) {
    names.push_back("key" + std::to_string(k));
    Bytes bytes(value_bytes, static_cast<uint8_t>(k));
    values.emplace_back(std::move(bytes));
  }
  TieraHostCost out;
  bool done = false;
  auto body = [&]() -> sim::Task<void> {
    double t0 = wall_seconds();
    for (int64_t k = 0; k < keys; ++k) {
      auto res = co_await instance.put(names[static_cast<size_t>(k)],
                                       values[static_cast<size_t>(k)]);
      g_sink = g_sink + (res.ok() ? 1 : 0);
    }
    out.put_us = (wall_seconds() - t0) * 1e6 / static_cast<double>(keys);
    t0 = wall_seconds();
    for (int64_t k = 0; k < keys; ++k) {
      auto res = co_await instance.get(names[static_cast<size_t>(k)]);
      g_sink = g_sink + (res.ok() ? res->value.size() : 0);
    }
    out.get_us = (wall_seconds() - t0) * 1e6 / static_cast<double>(keys);
    done = true;
  };
  sim.spawn(body());
  while (!done) sim.run_for(sec(1));
  instance.stop();
  return out;
}

// -------------------------------------------------------------- integrity

int64_t integrity_failures(const obs::Registry& registry) {
  return registry.counter_sum("tiera_checksum_failures_total") +
         registry.counter_sum("wiera_wire_checksum_failures_total") +
         registry.counter_sum("wiera_client_checksum_failures_total");
}

double checksum_ns_per_kib(const std::vector<Blob>& payloads) {
  int64_t bytes = 0;
  for (const Blob& p : payloads) bytes += static_cast<int64_t>(p.size());
  if (bytes == 0) return 0;
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    constexpr int kPasses = 20;
    const double ns = time_ns([&] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const Blob& p : payloads) {
          g_sink = g_sink + object_checksum("key000042", pass, p);
        }
      }
    });
    runs.push_back(ns / (static_cast<double>(bytes) * kPasses / 1024.0));
  }
  return median(runs);
}

// -------------------------------------------------------------------- obs

ScrapeCost scrape_cost(const obs::Registry& registry) {
  obs::Sampler sampler;
  constexpr int kScrapes = 200;
  const double ns = time_ns([&] {
    for (int i = 0; i < kScrapes; ++i) {
      sampler.scrape(registry, TimePoint::origin() + msec(10) * i);
    }
  });
  return {ns / 1e3 / kScrapes, static_cast<int64_t>(sampler.series_count())};
}

PutPath put_path(const obs::Tracer& tracer) {
  std::map<uint64_t, std::vector<const obs::Span*>> by_trace;
  tracer.for_each_span(
      [&](const obs::Span& s) { by_trace[s.trace_id].push_back(&s); });
  PutPath out;
  for (const auto& [trace_id, spans] : by_trace) {
    const obs::Span* root = nullptr;
    bool complete = true;
    for (const obs::Span* s : spans) {
      if (s->parent_span_id == 0) root = s;
      complete = complete && !s->open();
    }
    if (root == nullptr || root->name != "client.put" || !complete) continue;
    if (!obs::TraceView(tracer, trace_id).well_formed()) continue;
    std::map<uint64_t, const obs::Span*> by_id;
    for (const obs::Span* s : spans) by_id[s->span_id] = s;
    std::map<const obs::Span*, int> depth;
    for (const obs::Span* s : spans) {
      int d = 0;
      for (const obs::Span* p = s; p->parent_span_id != 0;
           p = by_id.at(p->parent_span_id)) {
        d++;
      }
      depth[s] = d;
    }
    std::vector<int64_t> cuts;
    for (const obs::Span* s : spans) {
      cuts.push_back(std::clamp(s->start.us(), root->start.us(),
                                root->end.us()));
      cuts.push_back(std::clamp(s->end.us(), root->start.us(),
                                root->end.us()));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const obs::Span* owner = root;
      for (const obs::Span* s : spans) {
        if (s->start.us() > cuts[i] || s->end.us() < cuts[i + 1]) continue;
        if (depth[s] > depth[owner] ||
            (depth[s] == depth[owner] && s->end > owner->end)) {
          owner = s;
        }
      }
      const double ms = static_cast<double>(cuts[i + 1] - cuts[i]) / 1e3;
      const std::string& name = owner->name;
      if (owner == root) {
        out.unattributed_ms += ms;
      } else if (name.rfind("rpc.call", 0) == 0) {
        out.rpc_call_ms += ms;
      } else if (name.rfind("rpc.server", 0) == 0) {
        out.rpc_server_ms += ms;
      } else if (name == "tiera.put") {
        out.tiera_put_ms += ms;
      } else if (name.rfind("peer.replicate", 0) == 0) {
        out.peer_replicate_ms += ms;
      } else {
        out.unattributed_ms += ms;
      }
    }
    out.traces++;
  }
  if (out.traces > 0) {
    const auto n = static_cast<double>(out.traces);
    out.rpc_call_ms /= n;
    out.rpc_server_ms /= n;
    out.tiera_put_ms /= n;
    out.peer_replicate_ms /= n;
    out.unattributed_ms /= n;
  }
  return out;
}

double span_p50_ms(const obs::Tracer& tracer, const std::string& name,
                   int64_t* samples) {
  std::vector<int64_t> us;
  tracer.for_each_span([&](const obs::Span& s) {
    if (s.name == name && !s.open()) us.push_back(s.duration().us());
  });
  *samples = static_cast<int64_t>(us.size());
  return percentile_ms(std::move(us), 0.5);
}

}  // namespace wiera::perfbench
