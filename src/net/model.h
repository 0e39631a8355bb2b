// Link-level discrete-event network model, layered on sim::EventQueue.
//
// TrafficMeter counts bytes; this model gives those bytes a *cost*. The
// cluster fabric is the classic two-tier datacenter tree:
//
//       client ──┐
//                ▼
//            [ spine ]                    one shared fabric link
//            ▲       ▲
//      tor_up│       │tor_down            per-rack ToR uplink/downlink
//            │       ▼
//        [ rack r ToR switch ]            non-blocking within the rack
//        ▲               │
//  nic_up│               ▼nic_down        per-node duplex NIC
//      [node a]        [node b]
//
// Every link is an independent FIFO store-and-forward queue with a
// configurable bandwidth and latency: a transfer arriving at a link waits
// for everything queued ahead of it, occupies the link for bytes/bandwidth
// seconds, then propagates to the next hop after the link latency. Routes:
//
//   intra-rack a->b : nic_up(a) -> nic_down(b)           (ToR non-blocking)
//   cross-rack a->b : nic_up(a) -> tor_up(rack a) -> spine
//                        -> tor_down(rack b) -> nic_down(b)
//   a -> client     : nic_up(a) -> tor_up(rack a) -> spine
//   client -> b     : spine -> tor_down(rack b) -> nic_down(b)
//
// Repair-class transfers (TransferClass kRepair/kScrub) are paced by the
// QosThrottler before they may enter their first link (when
// NetworkConfig::throttle_repair is set); foreground client traffic is
// never throttled.
//
// Conservation is accounted with independent accumulators so it is a
// checkable invariant rather than a definition: bytes injected, bytes
// delivered (also split per class), and bytes in flight are each summed on
// their own, and every link independently tracks bytes entering, leaving,
// and currently held. chaos::check_network_conservation asserts the books
// balance at any instant, mid-flight included.
//
// Single-threaded by design, like the EventQueue it runs on: harnesses
// capture transfers from the (possibly parallel) data plane in a
// TransferLog and replay them here deterministically.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/stats.h"
#include "net/qos.h"
#include "net/transfer.h"
#include "sim/event_queue.h"

namespace dblrep::net {

/// One directed link: sustained bandwidth plus per-hop latency
/// (propagation + switching).
struct LinkConfig {
  double bandwidth = 1.25e9;  // bytes/s (10 Gbps, the paper's testbeds)
  double latency = 20e-6;     // seconds
};

struct NetworkConfig {
  LinkConfig nic;                              // per-node duplex NIC
  LinkConfig tor{4 * 1.25e9, 20e-6};           // per-rack ToR up/downlink
  LinkConfig spine{8 * 1.25e9, 30e-6};         // shared spine fabric
  /// Pace repair-class transfers through the QosThrottler.
  bool throttle_repair = false;
  QosConfig qos;
};

/// Observable per-link accounting. bytes_in/bytes_out/held_bytes are
/// independently accumulated so `in == out + held` is a meaningful check.
struct LinkStats {
  std::string name;
  double bandwidth = 0;
  double bytes_in = 0;    // entered the link's queue
  double bytes_out = 0;   // finished serialization and left
  double held_bytes = 0;  // queued or in service right now
  double busy_s = 0;      // cumulative serialization time
  std::size_t transfers = 0;
  std::size_t queue_depth = 0;      // current (incl. in service)
  std::size_t max_queue_depth = 0;  // high-water mark
  RunningStat queue_delay_s;        // wait before serialization started

  /// Fraction of [0, now] the serializer was busy.
  double utilization(sim::SimTime now) const {
    return now > 0.0 ? busy_s / now : 0.0;
  }
};

class NetworkModel {
 public:
  using DeliveryCallback = std::function<void(sim::SimTime delivered)>;

  NetworkModel(sim::EventQueue& queue, const cluster::Topology& topology,
               const NetworkConfig& config);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Injects `t` at time `when` (>= queue.now()); the transfer traverses
  /// its route store-and-forward and `done` (optional) fires at final
  /// delivery. Repair-class transfers first clear the throttler.
  void start_transfer(const TransferRecord& t, sim::SimTime when,
                      DeliveryCallback done = nullptr);

  /// Injects a whole operation's transfer list as a dependency-chained
  /// flow: record j waits for record i when j.from == i.to (an aggregator
  /// forwards only after its inputs arrive -- the repair
  /// helper->aggregator->destination chains); independent records run in
  /// parallel. `done` fires when every record has delivered.
  void start_flow(std::vector<TransferRecord> records, sim::SimTime when,
                  DeliveryCallback done);

  // ---------------------------------------------------- conservation books
  double injected_bytes() const { return injected_bytes_; }
  double delivered_bytes() const { return delivered_bytes_; }
  double in_flight_bytes() const { return in_flight_bytes_; }
  double delivered_class_bytes(TransferClass cls) const {
    return delivered_class_bytes_[static_cast<std::size_t>(cls)];
  }
  std::size_t transfers_injected() const { return transfers_injected_; }
  std::size_t transfers_delivered() const { return transfers_delivered_; }
  std::size_t transfers_in_flight() const {
    return transfers_injected_ - transfers_delivered_;
  }

  // ---------------------------------------------------------- observability
  std::size_t num_links() const { return links_.size(); }
  const LinkStats& link(std::size_t id) const { return links_[id].stats; }
  /// Hottest-link utilization over the window since the last call (the
  /// congestion signal fed to the adaptive throttler).
  double hottest_link_utilization();

  sim::EventQueue& queue() { return *queue_; }
  const cluster::Topology& topology() const { return topology_; }
  QosThrottler* throttler() {
    return throttler_.has_value() ? &*throttler_ : nullptr;
  }

 private:
  struct LinkState {
    LinkStats stats;
    double latency = 0;
    sim::SimTime busy_until = 0.0;
    // Window accounting for hottest_link_utilization.
    double window_busy_s = 0;
  };

  std::size_t add_link(std::string name, const LinkConfig& config);
  /// Ordered link ids a transfer from->to traverses (empty for from==to).
  std::vector<std::size_t> route(cluster::NodeId from,
                                 cluster::NodeId to) const;
  void arrive(const std::shared_ptr<struct ActiveTransfer>& transfer,
              std::size_t hop);
  void deliver(const std::shared_ptr<struct ActiveTransfer>& transfer,
               sim::SimTime when);
  /// Injects flow record `j` (dependencies met) and wires its delivery to
  /// release the records waiting on it.
  void release_flow_record(const std::shared_ptr<struct FlowState>& flow,
                           std::size_t j);

  sim::EventQueue* queue_;
  cluster::Topology topology_;
  NetworkConfig config_;

  std::vector<LinkState> links_;
  std::vector<std::size_t> nic_up_, nic_down_;  // by node
  std::vector<std::size_t> tor_up_, tor_down_;  // by rack
  std::size_t spine_ = 0;

  std::optional<QosThrottler> throttler_;

  double injected_bytes_ = 0;
  double delivered_bytes_ = 0;
  double in_flight_bytes_ = 0;
  double delivered_class_bytes_[kNumTransferClasses] = {};
  std::size_t transfers_injected_ = 0;
  std::size_t transfers_delivered_ = 0;

  sim::SimTime util_window_start_ = 0.0;
};

}  // namespace dblrep::net
