// Network traffic accounting -- the middle panel of Fig. 4 and left panel
// of Fig. 5 report "network traffic (GB) during job execution".
//
// Concurrency-safe: parallel repairs and client operations account bytes
// from many threads, so the accumulators are atomic doubles updated with a
// CAS loop (portable across libstdc++ versions without fetch_add(double)).
// Every recorded value is a whole number of bytes well below 2^53, so the
// sums are exact and independent of accumulation order -- parallel and
// serial executions of the same work report bit-identical totals.
//
// Every recorded byte lands in exactly one of four buckets -- intra-rack,
// cross-rack, client upload, or client delivery -- each its own
// accumulator, while the grand total and the per-node sent/received sums
// are accumulated independently. Conservation (intra + cross + client ==
// total, Σsent == node-to-node + deliveries, Σreceived == node-to-node +
// uploads, all exact) is therefore a checkable invariant of the accounting
// rather than a definition; the chaos harness asserts it after every event.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "cluster/topology.h"

namespace dblrep::cluster {

class TrafficMeter {
 public:
  explicit TrafficMeter(const Topology& topology);

  TrafficMeter(const TrafficMeter&) = delete;
  TrafficMeter& operator=(const TrafficMeter&) = delete;

  /// Records `bytes` moving from `from` to `to`. Self-transfers (local
  /// reads) are ignored -- they never touch the network.
  void record(NodeId from, NodeId to, double bytes);

  /// Records bytes delivered from `from` to an off-cluster client (always
  /// network); charged to `from`'s sent bytes.
  void record_to_client(NodeId from, double bytes);

  /// Records bytes uploaded from an off-cluster client to `to` (always
  /// network); charged to `to`'s received bytes.
  void record_from_client(NodeId to, double bytes);

  double total_bytes() const { return total_.load(std::memory_order_relaxed); }
  double cross_rack_bytes() const {
    return cross_rack_.load(std::memory_order_relaxed);
  }
  /// Bytes exchanged with off-cluster clients in either direction (write
  /// uploads, read/degraded-read deliveries, scrub-heal rewrites). Neither
  /// intra- nor cross-rack: they leave the cluster regardless of topology.
  double client_bytes() const {
    return client_upload_bytes() + client_delivery_bytes();
  }
  double client_upload_bytes() const {
    return client_upload_.load(std::memory_order_relaxed);
  }
  double client_delivery_bytes() const {
    return client_delivery_.load(std::memory_order_relaxed);
  }
  /// Node-to-node bytes that stayed inside one rack. Independently
  /// accumulated (not derived), so intra + cross + client == total is a
  /// meaningful conservation check.
  double intra_rack_bytes() const {
    return intra_rack_.load(std::memory_order_relaxed);
  }
  double node_sent_bytes(NodeId node) const;
  double node_received_bytes(NodeId node) const;

  void reset();

 private:
  const Topology* topology_;
  std::atomic<double> total_{0.0};
  std::atomic<double> intra_rack_{0.0};
  std::atomic<double> cross_rack_{0.0};
  std::atomic<double> client_upload_{0.0};
  std::atomic<double> client_delivery_{0.0};
  std::vector<std::atomic<double>> sent_;
  std::vector<std::atomic<double>> received_;
};

}  // namespace dblrep::cluster
