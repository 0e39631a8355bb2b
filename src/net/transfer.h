// Transfer records and the capture sink between the data plane and the
// link-level network model.
//
// The MiniDfs data plane moves real bytes synchronously; the network model
// (net/model.h) simulates *time*. The bridge is deliberately thin: every
// data-moving path in MiniDfs records each transfer once on its
// TrafficMeter (net/traffic.h), tagged with a class (client write upload,
// client read delivery, repair, scrub heal, retier) and a direction -- the
// off-cluster client endpoint is kClientEndpoint -- and a meter built with
// a TransferLog forwards the record here. A driver (bench_repair_qos,
// dfsctl --net) drains the captured records and replays them into a
// NetworkModel, where contention, queueing, and QoS pacing happen.
//
// Capture is thread-safe (store paths run on the pool), but the *order* of
// records is only deterministic when the DFS runs on the inline pool -- the
// simulation harnesses that replay captures do exactly that.
#pragma once

#include <mutex>
#include <vector>

#include "cluster/topology.h"

namespace dblrep::net {

/// The off-cluster client endpoint. It attaches at the spine: client bytes
/// enter/leave the cluster through a rack's ToR uplink and the spine, never
/// through another node's NIC.
inline constexpr cluster::NodeId kClientEndpoint = -1;

/// Traffic class of a transfer; repair-class traffic (kRepair, kScrub,
/// kRetier) is what the QosThrottler paces against the foreground classes.
enum class TransferClass {
  kClientWrite = 0,  // client -> node block upload
  kClientRead = 1,   // node -> client delivery (incl. degraded-read helpers)
  kRepair = 2,       // helper/aggregator/destination repair chain sends
  kScrub = 3,        // scrub-heal rewrites
  kRetier = 4,       // tier re-encode streams (TieringEngine / RaidNode)
};
inline constexpr std::size_t kNumTransferClasses = 5;

const char* to_string(TransferClass cls);

/// True for the background classes the QoS throttler paces.
inline bool is_repair_class(TransferClass cls) {
  return cls == TransferClass::kRepair || cls == TransferClass::kScrub ||
         cls == TransferClass::kRetier;
}

struct TransferRecord {
  cluster::NodeId from = kClientEndpoint;
  cluster::NodeId to = kClientEndpoint;
  double bytes = 0;
  TransferClass cls = TransferClass::kClientRead;
};

/// Thread-safe capture sink. A TrafficMeter forwards every transfer it
/// records into it (MiniDfs attaches one via MiniDfsOptions::transfer_log);
/// harnesses drain it between operations to learn the exact per-op
/// transfer pattern.
///
/// Flow boundaries: NetworkModel::start_flow dependency-chains the records
/// of ONE operation; chaining records of unrelated operations would
/// manufacture false dependencies (every reused node id becomes an edge)
/// and serialize a storm that is really parallel. MiniDfs therefore marks
/// the end of each multi-send operation (one repaired stripe, one degraded
/// read) through TrafficMeter::mark(), and drain_flows() hands the harness
/// the capture pre-split at those marks.
class TransferLog {
 public:
  void record(cluster::NodeId from, cluster::NodeId to, double bytes,
              TransferClass cls);

  /// Ends the current flow: the records captured since the previous mark
  /// form one dependency-chained operation. No-op when that span is empty.
  void mark();

  /// Returns all records captured since the last drain, in capture order.
  std::vector<TransferRecord> drain();

  /// Like drain(), but split at the mark() boundaries; records after the
  /// last mark form a final flow. Flows are never empty.
  std::vector<std::vector<TransferRecord>> drain_flows();

  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<TransferRecord> records_;
  std::vector<std::size_t> marks_;  // indices into records_, increasing
};

}  // namespace dblrep::net
