// Per-layer timings for the traced run (perfbench/README.md). Each one
// times calls into one layer's public functions from outside the program:
// a bare sim::Simulation for the kernel and the net model, the wire codec
// over a workload's message mix, a bare LockService for coord, a bare
// TieraInstance for tiera/store, object_checksum for integrity, and
// obs::Sampler::scrape over a finished run's Registry. Nothing here runs
// inside the measured window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "policy/ast.h"

namespace wiera::perfbench {

// Host ns per event of a bare spawn/delay loop (SimChecker as built).
double kernel_ns_per_event();

// Host ns per encode+decode of one message, averaged over the mix a KV
// workload puts on the wire: client put/get requests and responses plus
// one replicate request per put and replica.
double codec_ns_per_msg(size_t value_bytes, double put_frac, int replicas);

// Host ns per Network::transfer (including the delivery event it
// schedules) between every ordered pair of `nodes`, in a bare simulation.
double transfer_ns_per_msg(const net::Topology& topology,
                           const std::vector<std::string>& nodes,
                           int64_t bytes);

// Simulated ms of one LockClient acquire+release, averaged over clients in
// each region against a LockService in us-east (the controller's region).
double lock_rtt_ms(const std::vector<std::string>& regions);

struct TieraHostCost {
  double put_us = 0;
  double get_us = 0;
};
// Host µs per TieraInstance put and get of `value_bytes` over `keys` keys
// with the given local policy, in a bare simulation.
TieraHostCost tiera_host_cost(const policy::PolicyDoc& local_policy,
                              size_t value_bytes, int64_t keys);

// Checksum mismatches the program detected anywhere: tiers, replication
// wire and clients (the `integrity.failures` metric; must stay 0).
int64_t integrity_failures(const obs::Registry& registry);

// Host ns per KiB of object_checksum over the given payloads.
double checksum_ns_per_kib(const std::vector<Blob>& payloads);

struct ScrapeCost {
  double us = 0;
  int64_t series = 0;
};
// Host µs per obs::Sampler::scrape of `registry`, and the series it keeps.
ScrapeCost scrape_cost(const obs::Registry& registry);

// Where one put's simulated time goes, from the retained spans of complete
// "client.put" traces: every instant of the put is charged to the deepest
// span open then (among parallel siblings, the one that ends last, i.e.
// the critical path). In a discrete-event simulation a span's own time is
// always waiting on something without a span: rpc.call time is the network
// legs, rpc.server time is a handler waiting on untraced work (the lock
// service RPCs, queueing), tiera.put is the storage tier. Time charged to
// the client's root span, or to spans outside these classes, is
// "unattributed". Values are ms per put, averaged over the traces.
struct PutPath {
  int64_t traces = 0;
  double rpc_call_ms = 0;
  double rpc_server_ms = 0;
  double tiera_put_ms = 0;
  double peer_replicate_ms = 0;
  double unattributed_ms = 0;
};
PutPath put_path(const obs::Tracer& tracer);

// Median simulated ms of retained spans named exactly `name`; 0 when none.
double span_p50_ms(const obs::Tracer& tracer, const std::string& name,
                   int64_t* samples);

}  // namespace wiera::perfbench
