#include "net/traffic.h"

#include "common/check.h"

namespace dblrep::net {

namespace {

bool is_endpoint(cluster::NodeId id, std::size_t num_nodes) {
  return id == kClientEndpoint ||
         (id >= 0 && static_cast<std::size_t>(id) < num_nodes);
}

}  // namespace

TrafficMeter::TrafficMeter(const cluster::Topology& topology,
                           TransferLog* capture)
    : topology_(&topology),
      capture_(capture),
      sent_(topology.num_nodes),
      received_(topology.num_nodes) {}

void TrafficMeter::record(cluster::NodeId from, cluster::NodeId to,
                          std::size_t bytes, TransferClass cls) {
  DBLREP_CHECK_MSG(is_endpoint(from, sent_.size()),
                   "sender " << from << " is neither a node nor the client");
  DBLREP_CHECK_MSG(is_endpoint(to, sent_.size()),
                   "receiver " << to << " is neither a node nor the client");
  if (from == to) return;
  add(total_, bytes);
  if (from == kClientEndpoint) {
    add(client_upload_, bytes);
  } else if (to == kClientEndpoint) {
    add(client_delivery_, bytes);
  } else {
    add(topology_->same_rack(from, to) ? intra_rack_ : cross_rack_, bytes);
  }
  if (from != kClientEndpoint) {
    add(sent_[static_cast<std::size_t>(from)], bytes);
  }
  if (to != kClientEndpoint) {
    add(received_[static_cast<std::size_t>(to)], bytes);
  }
  if (capture_ != nullptr) {
    capture_->record(from, to, static_cast<double>(bytes), cls);
  }
}

void TrafficMeter::mark() {
  if (capture_ != nullptr) capture_->mark();
}

std::size_t TrafficMeter::node_index(cluster::NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), sent_.size());
  return static_cast<std::size_t>(node);
}

double TrafficMeter::node_sent_bytes(cluster::NodeId node) const {
  return load(sent_[node_index(node)]);
}

double TrafficMeter::node_received_bytes(cluster::NodeId node) const {
  return load(received_[node_index(node)]);
}

void TrafficMeter::reset() {
  for (Counter* c : {&total_, &intra_rack_, &cross_rack_, &client_upload_,
                     &client_delivery_}) {
    c->store(0, std::memory_order_relaxed);
  }
  for (auto& c : sent_) c.store(0, std::memory_order_relaxed);
  for (auto& c : received_) c.store(0, std::memory_order_relaxed);
}

}  // namespace dblrep::net
