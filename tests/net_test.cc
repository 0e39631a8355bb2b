// Tests for the network layer: the TrafficMeter wire ledger and its
// TransferLog capture (unit level and across every MiniDfs data path),
// token-bucket QoS math, FIFO store-and-forward timing on the two-tier
// fabric, flow dependency chaining, and conservation (mid-flight and
// drained).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/check.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "hdfs/minidfs.h"
#include "net/model.h"
#include "net/qos.h"
#include "net/traffic.h"
#include "net/transfer.h"
#include "sim/event_queue.h"

namespace dblrep::net {
namespace {

// Hand-checkable link speeds: a 100-byte transfer takes 1 s on a NIC.
NetworkConfig easy_config() {
  NetworkConfig config;
  config.nic = {100.0, 0.5};
  config.tor = {1000.0, 0.25};
  config.spine = {2000.0, 0.125};
  return config;
}

cluster::Topology small_topology(std::size_t nodes = 6,
                                 std::size_t racks = 2) {
  cluster::Topology topology;
  topology.num_nodes = nodes;
  topology.num_racks = racks;
  return topology;
}

// ----------------------------------------------------------- TrafficMeter

constexpr TransferClass kAnyClass = TransferClass::kRepair;

TEST(TrafficMeter, CountsOnlyNetworkBytes) {
  const cluster::Topology t = cluster::setup1_topology();
  TrafficMeter meter(t);
  meter.record(0, 0, 1'000'000, kAnyClass);  // local read: free
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 0.0);
  meter.record(0, 1, 2'000'000, kAnyClass);
  meter.record(1, 0, 3'000'000, kAnyClass);
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 5e6);
  EXPECT_DOUBLE_EQ(meter.node_sent_bytes(0), 2e6);
  EXPECT_DOUBLE_EQ(meter.node_received_bytes(0), 3e6);
}

TEST(TrafficMeter, TracksCrossRackSeparately) {
  const cluster::Topology t = small_topology(4, 2);
  TrafficMeter meter(t);
  meter.record(0, 2, 1'000'000, kAnyClass);  // same rack (0 and 2: rack 0)
  meter.record(0, 1, 1'000'000, kAnyClass);  // cross rack
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 2e6);
  EXPECT_DOUBLE_EQ(meter.intra_rack_bytes(), 1e6);
  EXPECT_DOUBLE_EQ(meter.cross_rack_bytes(), 1e6);
}

TEST(TrafficMeter, ClientDeliveryAndReset) {
  const cluster::Topology t = cluster::setup2_topology();
  TrafficMeter meter(t);
  meter.record(3, kClientEndpoint, 7'000'000, TransferClass::kClientRead);
  meter.record(kClientEndpoint, 4, 2'000'000, TransferClass::kClientWrite);
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 9e6);
  EXPECT_DOUBLE_EQ(meter.client_bytes(), 9e6);
  EXPECT_DOUBLE_EQ(meter.client_delivery_bytes(), 7e6);
  EXPECT_DOUBLE_EQ(meter.client_upload_bytes(), 2e6);
  // A delivery is sent by its node; an upload is received by its node.
  EXPECT_DOUBLE_EQ(meter.node_sent_bytes(3), 7e6);
  EXPECT_DOUBLE_EQ(meter.node_received_bytes(3), 0.0);
  EXPECT_DOUBLE_EQ(meter.node_sent_bytes(4), 0.0);
  EXPECT_DOUBLE_EQ(meter.node_received_bytes(4), 2e6);
  EXPECT_DOUBLE_EQ(meter.intra_rack_bytes() + meter.cross_rack_bytes(), 0.0);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(meter.client_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(meter.node_sent_bytes(3), 0.0);
  EXPECT_DOUBLE_EQ(meter.node_received_bytes(4), 0.0);
}

TEST(TrafficMeter, ConservationHoldsAcrossRandomWorkloads) {
  // Every recorded byte must land in exactly one bucket and the buckets
  // must reconcile with the independently-accumulated total and per-node
  // sums -- the accounting invariant the chaos harness asserts between
  // events. Exact equality is sound: whole byte counts far below 2^53.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const cluster::Topology t =
        small_topology(4 + static_cast<std::size_t>(rng.next_below(20)),
                       1 + static_cast<std::size_t>(rng.next_below(4)));
    TrafficMeter meter(t);
    for (int op = 0; op < 200; ++op) {
      const auto node =
          static_cast<cluster::NodeId>(rng.next_below(t.num_nodes));
      const std::size_t bytes = rng.next_below(1 << 20);
      const double kind = rng.next_double();
      if (kind < 0.2) {
        meter.record(node, kClientEndpoint, bytes, kAnyClass);
      } else if (kind < 0.4) {
        meter.record(kClientEndpoint, node, bytes, kAnyClass);
      } else {
        meter.record(node,
                     static_cast<cluster::NodeId>(rng.next_below(t.num_nodes)),
                     bytes, kAnyClass);
      }
    }
    EXPECT_EQ(meter.intra_rack_bytes() + meter.cross_rack_bytes() +
                  meter.client_bytes(),
              meter.total_bytes());
    double sent = 0, received = 0;
    for (std::size_t n = 0; n < t.num_nodes; ++n) {
      sent += meter.node_sent_bytes(static_cast<cluster::NodeId>(n));
      received += meter.node_received_bytes(static_cast<cluster::NodeId>(n));
    }
    const double node_to_node =
        meter.intra_rack_bytes() + meter.cross_rack_bytes();
    EXPECT_EQ(meter.client_upload_bytes() + meter.client_delivery_bytes(),
              meter.client_bytes());
    EXPECT_EQ(sent, node_to_node + meter.client_delivery_bytes());
    EXPECT_EQ(received, node_to_node + meter.client_upload_bytes());
    EXPECT_GE(meter.intra_rack_bytes(), 0.0);
    EXPECT_GE(meter.cross_rack_bytes(), 0.0);
    EXPECT_GT(meter.client_upload_bytes(), 0.0);
    EXPECT_GT(meter.client_delivery_bytes(), 0.0);
  }
}

TEST(TrafficMeter, RejectsIdsOutsideTheTopologyAndTheClient) {
  const cluster::Topology t = small_topology(6, 3);
  TrafficMeter meter(t);
  EXPECT_THROW(meter.record(6, 0, 1, kAnyClass), ContractViolation);
  EXPECT_THROW(meter.record(0, 6, 1, kAnyClass), ContractViolation);
  EXPECT_THROW(meter.record(-2, 0, 1, kAnyClass), ContractViolation);
  EXPECT_THROW(meter.record(kClientEndpoint, -2, 1, kAnyClass),
               ContractViolation);
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 0.0);
  meter.record(5, kClientEndpoint, 1, kAnyClass);  // the last node is fine
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 1.0);
}

TEST(TrafficMeter, ForwardsRecordsAndMarksToItsCapture) {
  const cluster::Topology t = small_topology(6, 3);
  TransferLog log;
  TrafficMeter meter(t, &log);
  meter.record(kClientEndpoint, 1, 10, TransferClass::kClientWrite);
  meter.record(2, 2, 99, TransferClass::kRepair);  // self: neither counted
  meter.mark();                                    // nor captured
  meter.record(0, 1, 20, TransferClass::kRepair);
  meter.record(1, kClientEndpoint, 30, TransferClass::kClientRead);
  const auto flows = log.drain_flows();
  ASSERT_EQ(flows.size(), 2u);
  ASSERT_EQ(flows[0].size(), 1u);
  EXPECT_EQ(flows[0][0].from, kClientEndpoint);
  EXPECT_EQ(flows[0][0].cls, TransferClass::kClientWrite);
  ASSERT_EQ(flows[1].size(), 2u);
  EXPECT_EQ(flows[1][0].bytes, 20.0);
  EXPECT_EQ(flows[1][1].to, kClientEndpoint);
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 60.0);
}

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, BurstGrantsImmediatelyThenPacesAtRate) {
  TokenBucket bucket(100.0, 100.0);  // 100 B/s, 100 B burst
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 0.0);  // burst covers it
  // Bucket is empty: the next 100 bytes refill over exactly 1 s, and the
  // one after queues FIFO behind that grant.
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 2.0);
}

TEST(TokenBucket, OversizedReservationRunsADeficit) {
  TokenBucket bucket(100.0, 100.0);
  // 350 bytes against a 100-byte burst: 250 bytes of deficit paid off at
  // 100 B/s.
  EXPECT_DOUBLE_EQ(bucket.reserve(350.0, 0.0), 2.5);
  // Later arrivals still queue behind the pending grant.
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 1.0), 3.5);
}

TEST(TokenBucket, IdleTimeRefillsUpToBurst) {
  TokenBucket bucket(100.0, 100.0);
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 0.0);
  // After 10 s idle the bucket is full again (capped at burst, not 1000).
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 10.0), 11.0);
}

TEST(QosThrottler, AdmissionIsTheLaterOfClusterAndLinkGrant) {
  QosConfig config;
  config.cluster_rate = 100.0;
  config.cluster_burst = 100.0;
  config.link_fraction = 0.1;  // 10 B/s on a 100 B/s link
  config.link_burst = 50.0;
  QosThrottler throttler(config);
  throttler.add_link(0, 100.0);
  // Cluster burst covers 100 bytes at t=0, but the link bucket holds only
  // 50: the remaining 50 refill at 10 B/s -> granted at t=5.
  EXPECT_DOUBLE_EQ(throttler.admit(0, 100.0, 0.0), 5.0);
}

TEST(QosThrottler, AdaptiveModeScalesClusterRateWithHeadroom) {
  QosConfig config;
  config.cluster_rate = 100.0;
  config.adaptive = true;
  config.adaptive_boost = 4.0;
  QosThrottler throttler(config);
  throttler.observe_utilization(0.0, 0.0);  // idle network -> full boost
  EXPECT_DOUBLE_EQ(throttler.cluster_rate(), 400.0);
  throttler.observe_utilization(0.5, 1.0);
  EXPECT_DOUBLE_EQ(throttler.cluster_rate(), 250.0);
  throttler.observe_utilization(1.0, 2.0);  // saturated -> base rate
  EXPECT_DOUBLE_EQ(throttler.cluster_rate(), 100.0);
}

// ---------------------------------------------------------- NetworkModel

TEST(NetworkModel, IntraRackTransferTimingIsTwoNicHops) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime delivered = -1.0;
  // Nodes 0 and 2 share rack 0 (round-robin racks). 100 bytes:
  //   nic_up[0]: 1 s tx + 0.5 s latency; nic_down[2]: 1 s tx + 0.5 s.
  model.start_transfer({0, 2, 100.0, TransferClass::kClientRead}, 0.0,
                       [&](sim::SimTime t) { delivered = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(delivered, 3.0);
}

TEST(NetworkModel, CrossRackTransferTraversesTorAndSpine) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime delivered = -1.0;
  // Node 0 (rack 0) -> node 1 (rack 1), 100 bytes:
  //   nic_up 1.5 + tor_up 0.35 + spine 0.175 + tor_down 0.35 + nic_down 1.5
  model.start_transfer({0, 1, 100.0, TransferClass::kClientRead}, 0.0,
                       [&](sim::SimTime t) { delivered = t; });
  queue.run();
  EXPECT_NEAR(delivered, 3.875, 1e-12);
  // The spine saw exactly this one transfer.
  bool spine_used = false;
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    if (model.link(id).name == "spine") {
      spine_used = model.link(id).transfers == 1;
    }
  }
  EXPECT_TRUE(spine_used);
}

TEST(NetworkModel, SharedNicSerializesFifo) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  std::vector<sim::SimTime> delivered;
  for (int i = 0; i < 2; ++i) {
    model.start_transfer({0, 2, 100.0, TransferClass::kClientRead}, 0.0,
                         [&](sim::SimTime t) { delivered.push_back(t); });
  }
  queue.run();
  ASSERT_EQ(delivered.size(), 2u);
  // First as if alone; second waits a full tx behind it on *each* NIC.
  EXPECT_DOUBLE_EQ(delivered[0], 3.0);
  EXPECT_DOUBLE_EQ(delivered[1], 4.0);
  // The entry NIC's second transfer waited 1 s for the serializer.
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    const LinkStats& link = model.link(id);
    if (link.name == "nic_up[0]") {
      EXPECT_EQ(link.transfers, 2u);
      EXPECT_DOUBLE_EQ(link.queue_delay_s.max(), 1.0);
      EXPECT_EQ(link.max_queue_depth, 2u);
    }
  }
}

TEST(NetworkModel, ClientTransfersAttachAtTheSpine) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime up = -1.0, down = -1.0;
  // Upload client -> node 3: spine + tor_down + nic_down.
  model.start_transfer({kClientEndpoint, 3, 100.0,
                        TransferClass::kClientWrite},
                       0.0, [&](sim::SimTime t) { down = t; });
  // Delivery node 3 -> client: nic_up + tor_up + spine.
  model.start_transfer({3, kClientEndpoint, 100.0,
                        TransferClass::kClientRead},
                       0.0, [&](sim::SimTime t) { up = t; });
  queue.run();
  // spine 0.175 + tor_down 0.35 + nic_down 1.5 (no contention: disjoint
  // links; both values are the same 3-hop sum by symmetry).
  EXPECT_NEAR(down, 2.025, 1e-12);
  EXPECT_NEAR(up, 2.025, 1e-12);
  // No node NIC uplink carried the upload.
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    const LinkStats& link = model.link(id);
    if (link.name == "nic_up[3]") {
      EXPECT_EQ(link.transfers, 1u);
    }
    if (link.name == "nic_down[3]") {
      EXPECT_EQ(link.transfers, 1u);
    }
  }
}

TEST(NetworkModel, SelfTransferDeliversInstantly) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime delivered = -1.0;
  model.start_transfer({4, 4, 100.0, TransferClass::kRepair}, 2.0,
                       [&](sim::SimTime t) { delivered = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(delivered, 2.0);
  EXPECT_DOUBLE_EQ(model.delivered_bytes(), 100.0);
}

TEST(NetworkModel, ThrottlerPacesRepairButNotClientTraffic) {
  NetworkConfig config = easy_config();
  config.throttle_repair = true;
  config.qos.cluster_rate = 100.0;
  config.qos.cluster_burst = 100.0;
  config.qos.link_fraction = 1.0;  // per-link bucket not the binding limit
  config.qos.link_burst = 1e9;
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), config);
  std::vector<sim::SimTime> repair;
  sim::SimTime client = -1.0;
  for (int i = 0; i < 3; ++i) {
    model.start_transfer({0, 2, 100.0, TransferClass::kRepair}, 0.0,
                         [&](sim::SimTime t) { repair.push_back(t); });
  }
  model.start_transfer({4, 5, 100.0, TransferClass::kClientRead}, 0.0,
                       [&](sim::SimTime t) { client = t; });
  queue.run();
  ASSERT_EQ(repair.size(), 3u);
  // Admissions at 0 / 1 / 2 s: each repair transfer finds free links when
  // it finally enters (pacing >= serialization time), so deliveries land
  // 1 s apart instead of queueing back-to-back.
  EXPECT_DOUBLE_EQ(repair[0], 3.0);
  EXPECT_DOUBLE_EQ(repair[1], 4.0);
  EXPECT_DOUBLE_EQ(repair[2], 5.0);
  // The (cross-rack, disjoint-route) client read was never throttled: it
  // delivers as if the repair storm did not exist.
  EXPECT_NEAR(client, 3.875, 1e-12);
}

TEST(NetworkModel, FlowChainsDependentRecords) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(6, 1), easy_config());
  // helper(0) -> aggregator(2), then aggregator(2) -> destination(4): the
  // second leg may only start once the first delivers (t=3), so the flow
  // completes at 6 -- not at 3, which two independent transfers would give.
  sim::SimTime done = -1.0;
  model.start_flow({{0, 2, 100.0, TransferClass::kRepair},
                    {2, 4, 100.0, TransferClass::kRepair}},
                   0.0, [&](sim::SimTime t) { done = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(done, 6.0);
}

TEST(NetworkModel, FlowRunsIndependentRecordsInParallel) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(6, 1), easy_config());
  sim::SimTime done = -1.0;
  // Two helpers on different nodes feed the same aggregator: their sends
  // overlap (disjoint nic_up links), and the relay waits for the later
  // arrival at nic_down[4] (second send serializes behind the first).
  model.start_flow({{0, 4, 100.0, TransferClass::kRepair},
                    {2, 4, 100.0, TransferClass::kRepair},
                    {4, 5, 100.0, TransferClass::kRepair}},
                   0.0, [&](sim::SimTime t) { done = t; });
  queue.run();
  // Sends deliver at 3 and 4 (shared nic_down[4]); relay 4->5 then takes
  // another 3 s.
  EXPECT_DOUBLE_EQ(done, 7.0);
}

TEST(NetworkModel, ConservationHoldsMidFlightAndWhenDrained) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const auto from = static_cast<cluster::NodeId>(rng.uniform_int(0, 5));
    auto to = static_cast<cluster::NodeId>(rng.uniform_int(0, 5));
    model.start_transfer(
        {from, to, static_cast<double>(rng.uniform_int(1, 500)),
         TransferClass::kClientRead},
        rng.uniform(0.0, 2.0));
  }
  // Stop the clock mid-storm: the books must balance with bytes in flight.
  queue.run(2.5);
  std::vector<std::string> violations;
  chaos::check_network_conservation(model, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_GT(model.in_flight_bytes(), 0.0);

  queue.run();
  violations.clear();
  chaos::check_network_conservation(model, violations,
                                    /*expect_drained=*/true);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_DOUBLE_EQ(model.delivered_bytes(), model.injected_bytes());
  EXPECT_EQ(model.transfers_delivered(), 50u);
}

// ------------------------------------------------- TransferLog + MiniDfs

TEST(TransferLog, RecordsDrainInCaptureOrder) {
  TransferLog log;
  log.record(0, 1, 10.0, TransferClass::kRepair);
  log.record(kClientEndpoint, 2, 20.0, TransferClass::kClientWrite);
  EXPECT_EQ(log.size(), 2u);
  const auto records = log.drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].to, 1);
  EXPECT_EQ(records[1].bytes, 20.0);
  EXPECT_EQ(log.size(), 0u);
}

// The capture is fed by the meter itself, so the two must agree on every
// data path: writes, replica reads, degraded reads (plain and layered) and
// multi-failure repair, for every scheme family and rack layout. The
// records, bucketed by endpoint and rack, must equal the meter's buckets
// and per-node sums exactly, and no record may be a self-transfer.
struct CaptureBuckets {
  double intra = 0, cross = 0, upload = 0, delivery = 0;
  std::vector<double> sent, received;

  explicit CaptureBuckets(std::size_t nodes) : sent(nodes), received(nodes) {}

  void add(const cluster::Topology& topology, const TransferRecord& r) {
    EXPECT_NE(r.from, r.to);
    if (r.from == kClientEndpoint) {
      upload += r.bytes;
    } else if (r.to == kClientEndpoint) {
      delivery += r.bytes;
    } else {
      (topology.same_rack(r.from, r.to) ? intra : cross) += r.bytes;
    }
    if (r.from != kClientEndpoint) {
      sent[static_cast<std::size_t>(r.from)] += r.bytes;
    }
    if (r.to != kClientEndpoint) {
      received[static_cast<std::size_t>(r.to)] += r.bytes;
    }
  }
};

TEST(TrafficCapture, MatchesTheMeterOnEveryPath) {
  struct Layout {
    cluster::PlacementPolicy placement;
    std::size_t racks;
  };
  const Layout layouts[] = {{cluster::PlacementPolicy::kFlat, 1},
                            {cluster::PlacementPolicy::kGroupPerRack, 3},
                            {cluster::PlacementPolicy::kGroupPerRack, 5}};
  constexpr std::size_t kBlock = 64;  // divisible by every scheme's alpha
  for (const char* spec : {"3-rep", "pentagon", "heptagon", "heptagon-local",
                           "raidm-9", "rs-10-4", "clay-6-4", "pgy-10-4"}) {
    for (const Layout& layout : layouts) {
      for (const bool layered : {false, true}) {
        SCOPED_TRACE(std::string(spec) + " " +
                     cluster::to_string(layout.placement) + " racks=" +
                     std::to_string(layout.racks) +
                     (layered ? " layered" : ""));
        const cluster::Topology topology = small_topology(30, layout.racks);
        TransferLog log;
        hdfs::MiniDfsOptions options;
        options.placement = layout.placement;
        options.layered_repair = layered;
        options.transfer_log = &log;
        hdfs::MiniDfs dfs(topology, 7, /*pool=*/nullptr, options);
        CaptureBuckets captured(topology.num_nodes);

        const std::size_t k = ec::make_code(spec).value()->data_blocks();
        const Buffer data = random_buffer(2 * k * kBlock, 3);
        ASSERT_TRUE(dfs.write_file("/f", data, spec, kBlock).is_ok());
        for (const auto& r : log.drain()) {
          EXPECT_EQ(r.from, kClientEndpoint);
          EXPECT_EQ(r.cls, TransferClass::kClientWrite);
          captured.add(topology, r);
        }

        // Two nodes of the first stripe's group fail together, then every
        // block is read: lost ones are served degraded.
        const auto& group =
            dfs.catalog().stripe(dfs.stat("/f")->stripes.front()).group;
        ASSERT_TRUE(dfs.fail_node(group[0]).is_ok());
        ASSERT_TRUE(dfs.fail_node(group[1]).is_ok());
        for (std::size_t b = 0; b < 2 * k; ++b) {
          const auto block = dfs.read_block("/f", b);
          ASSERT_TRUE(block.is_ok()) << block.status().to_string();
          EXPECT_TRUE(std::equal(block->begin(), block->end(),
                                 data.begin() + static_cast<std::ptrdiff_t>(
                                                    b * kBlock)));
        }
        for (const auto& r : log.drain()) {
          EXPECT_EQ(r.cls, TransferClass::kClientRead);
          EXPECT_NE(r.from, kClientEndpoint);
          captured.add(topology, r);
        }

        ASSERT_TRUE(dfs.repair_all().is_ok());
        for (const auto& r : log.drain()) {
          EXPECT_EQ(r.cls, TransferClass::kRepair);
          EXPECT_NE(r.from, kClientEndpoint);
          EXPECT_NE(r.to, kClientEndpoint);
          captured.add(topology, r);
        }
        ASSERT_TRUE(dfs.scrub().is_ok());

        const TrafficMeter& meter = dfs.traffic();
        EXPECT_EQ(captured.intra, meter.intra_rack_bytes());
        EXPECT_EQ(captured.cross, meter.cross_rack_bytes());
        EXPECT_EQ(captured.upload, meter.client_upload_bytes());
        EXPECT_EQ(captured.delivery, meter.client_delivery_bytes());
        EXPECT_GT(captured.intra + captured.cross, 0.0);  // repair moved
        for (std::size_t n = 0; n < topology.num_nodes; ++n) {
          const auto node = static_cast<cluster::NodeId>(n);
          EXPECT_EQ(captured.sent[n], meter.node_sent_bytes(node));
          EXPECT_EQ(captured.received[n], meter.node_received_bytes(node));
        }
      }
    }
  }
}

TEST(TrafficCapture, DoesNotPerturbTheDataPlane) {
  // Identical seeds with and without a capture: stored bytes and traffic
  // totals must agree exactly (capture is observation, not behavior).
  cluster::Topology topology;
  topology.num_nodes = 12;
  topology.num_racks = 3;
  const Buffer data = random_buffer(64 * 10, 3);

  hdfs::MiniDfs plain(topology, 7, nullptr, {});
  TransferLog log;
  hdfs::MiniDfsOptions options;
  options.transfer_log = &log;
  hdfs::MiniDfs captured(topology, 7, nullptr, options);

  for (hdfs::MiniDfs* dfs : {&plain, &captured}) {
    ASSERT_TRUE(dfs->write_file("/f", data, "heptagon", 64).is_ok());
    ASSERT_TRUE(dfs->read_file("/f").is_ok());
  }
  EXPECT_EQ(plain.stored_bytes(), captured.stored_bytes());
  EXPECT_DOUBLE_EQ(plain.traffic().total_bytes(),
                   captured.traffic().total_bytes());
}

}  // namespace
}  // namespace dblrep::net
