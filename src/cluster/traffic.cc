#include "cluster/traffic.h"

#include "common/check.h"

namespace dblrep::cluster {

namespace {

/// Relaxed CAS-loop accumulation. Relaxed is enough: readers only consume
/// the totals after the recording threads have been joined (or between
/// operations), and the meter carries no other data the stores would need
/// to publish.
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

TrafficMeter::TrafficMeter(const Topology& topology)
    : topology_(&topology),
      sent_(topology.num_nodes),
      received_(topology.num_nodes) {}

void TrafficMeter::record(NodeId from, NodeId to, double bytes) {
  DBLREP_CHECK_GE(bytes, 0.0);
  if (from == to) return;
  atomic_add(total_, bytes);
  if (topology_->same_rack(from, to)) {
    atomic_add(intra_rack_, bytes);
  } else {
    atomic_add(cross_rack_, bytes);
  }
  atomic_add(sent_[static_cast<std::size_t>(from)], bytes);
  atomic_add(received_[static_cast<std::size_t>(to)], bytes);
}

void TrafficMeter::record_to_client(NodeId from, double bytes) {
  DBLREP_CHECK_GE(bytes, 0.0);
  atomic_add(total_, bytes);
  atomic_add(client_delivery_, bytes);
  atomic_add(sent_[static_cast<std::size_t>(from)], bytes);
}

void TrafficMeter::record_from_client(NodeId to, double bytes) {
  DBLREP_CHECK_GE(bytes, 0.0);
  atomic_add(total_, bytes);
  atomic_add(client_upload_, bytes);
  atomic_add(received_[static_cast<std::size_t>(to)], bytes);
}

double TrafficMeter::node_sent_bytes(NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), sent_.size());
  return sent_[static_cast<std::size_t>(node)].load(std::memory_order_relaxed);
}

double TrafficMeter::node_received_bytes(NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), received_.size());
  return received_[static_cast<std::size_t>(node)].load(
      std::memory_order_relaxed);
}

void TrafficMeter::reset() {
  total_.store(0.0, std::memory_order_relaxed);
  intra_rack_.store(0.0, std::memory_order_relaxed);
  cross_rack_.store(0.0, std::memory_order_relaxed);
  client_upload_.store(0.0, std::memory_order_relaxed);
  client_delivery_.store(0.0, std::memory_order_relaxed);
  for (auto& v : sent_) v.store(0.0, std::memory_order_relaxed);
  for (auto& v : received_) v.store(0.0, std::memory_order_relaxed);
}

}  // namespace dblrep::cluster
