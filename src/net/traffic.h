// Wire-traffic ledger -- the middle panel of Fig. 4 and left panel of
// Fig. 5 report "network traffic (GB) during job execution".
//
// The data plane records every transfer once, as record(from, to, bytes,
// cls), with kClientEndpoint on either side for the off-cluster client.
// The meter picks the bucket itself -- client upload, client delivery, or
// node to node split intra-/cross-rack by the topology -- drops
// self-transfers (local reads never touch the network), and forwards each
// transfer and each mark() to its optional TransferLog capture.
//
// Concurrency-safe: parallel repairs and client operations record from many
// threads into relaxed atomic integer counters, so totals are exact and
// parallel and serial executions of the same work report identical ones.
// The grand total and the per-node sent/received sums are accumulated
// independently of the four buckets, so conservation (intra + cross +
// client == total, Σsent == node-to-node + deliveries, Σreceived ==
// node-to-node + uploads) is a checkable invariant rather than a
// definition; the chaos harness asserts it after every event.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "net/transfer.h"

namespace dblrep::net {

class TrafficMeter {
 public:
  /// `capture` (optional, not owned) receives every recorded transfer and
  /// flow mark; it must outlive the meter.
  explicit TrafficMeter(const cluster::Topology& topology,
                        TransferLog* capture = nullptr);

  TrafficMeter(const TrafficMeter&) = delete;
  TrafficMeter& operator=(const TrafficMeter&) = delete;

  /// Records `bytes` moving from `from` to `to` under class `cls`. Each id
  /// must be a node of the topology or kClientEndpoint (ContractViolation
  /// otherwise). Self-transfers are dropped and not captured.
  void record(cluster::NodeId from, cluster::NodeId to, std::size_t bytes,
              TransferClass cls);

  /// Ends the current flow in the capture (TransferLog::mark); a no-op
  /// without one.
  void mark();

  double total_bytes() const { return load(total_); }
  double cross_rack_bytes() const { return load(cross_rack_); }
  /// Node-to-node bytes that stayed inside one rack. Independently
  /// accumulated (not derived), so intra + cross + client == total is a
  /// meaningful conservation check.
  double intra_rack_bytes() const { return load(intra_rack_); }
  /// Bytes exchanged with off-cluster clients in either direction (write
  /// uploads, read/degraded-read deliveries, scrub-heal rewrites). Neither
  /// intra- nor cross-rack: they leave the cluster regardless of topology.
  double client_bytes() const {
    return client_upload_bytes() + client_delivery_bytes();
  }
  double client_upload_bytes() const { return load(client_upload_); }
  double client_delivery_bytes() const { return load(client_delivery_); }
  double node_sent_bytes(cluster::NodeId node) const;
  double node_received_bytes(cluster::NodeId node) const;

  void reset();

 private:
  using Counter = std::atomic<std::uint64_t>;

  /// Relaxed is enough: readers only consume the totals after the
  /// recording threads have been joined (or between operations), and the
  /// meter carries no other data the stores would need to publish.
  static double load(const Counter& c) {
    return static_cast<double>(c.load(std::memory_order_relaxed));
  }
  static void add(Counter& c, std::uint64_t bytes) {
    c.fetch_add(bytes, std::memory_order_relaxed);
  }
  std::size_t node_index(cluster::NodeId node) const;

  const cluster::Topology* topology_;
  TransferLog* capture_;
  Counter total_{0};
  Counter intra_rack_{0};
  Counter cross_rack_{0};
  Counter client_upload_{0};
  Counter client_delivery_{0};
  std::vector<Counter> sent_;
  std::vector<Counter> received_;
};

}  // namespace dblrep::net
