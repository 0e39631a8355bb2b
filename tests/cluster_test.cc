// Tests for the cluster layer: topology/racks, traffic metering, and the
// block catalog.
#include <gtest/gtest.h>

#include "cluster/catalog.h"
#include "cluster/topology.h"
#include "cluster/traffic.h"
#include "common/check.h"
#include "common/rng.h"
#include "ec/polygon.h"
#include "ec/registry.h"

namespace dblrep::cluster {
namespace {

TEST(Topology, PaperSetupsMatchSection4) {
  const Topology s1 = setup1_topology();
  EXPECT_EQ(s1.num_nodes, 25u);
  EXPECT_EQ(s1.num_racks, 1u);  // "all nodes configured to be in one rack"
  const Topology s2 = setup2_topology();
  EXPECT_EQ(s2.num_nodes, 9u);
}

TEST(Topology, RackAssignmentRoundRobins) {
  Topology t;
  t.num_nodes = 6;
  t.num_racks = 3;
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(4), 1);
  EXPECT_TRUE(t.same_rack(0, 3));
  EXPECT_FALSE(t.same_rack(0, 1));
  EXPECT_THROW(t.rack_of(6), ContractViolation);
}

TEST(TrafficMeter, CountsOnlyNetworkBytes) {
  const Topology t = setup1_topology();
  TrafficMeter meter(t);
  meter.record(0, 0, 1e6);  // local read: free
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 0.0);
  meter.record(0, 1, 2e6);
  meter.record(1, 0, 3e6);
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 5e6);
  EXPECT_DOUBLE_EQ(meter.node_sent_bytes(0), 2e6);
  EXPECT_DOUBLE_EQ(meter.node_received_bytes(0), 3e6);
}

TEST(TrafficMeter, TracksCrossRackSeparately) {
  Topology t;
  t.num_nodes = 4;
  t.num_racks = 2;
  TrafficMeter meter(t);
  meter.record(0, 2, 1e6);  // same rack (0 and 2 are rack 0)
  meter.record(0, 1, 1e6);  // cross rack
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 2e6);
  EXPECT_DOUBLE_EQ(meter.cross_rack_bytes(), 1e6);
}

TEST(TrafficMeter, ClientDeliveryAndReset) {
  const Topology t = setup2_topology();
  TrafficMeter meter(t);
  meter.record_to_client(3, 7e6);
  meter.record_from_client(4, 2e6);
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
    Topology t;
    t.num_nodes = 4 + static_cast<std::size_t>(rng.next_below(20));
    t.num_racks = 1 + static_cast<std::size_t>(rng.next_below(4));
    TrafficMeter meter(t);
    for (int op = 0; op < 200; ++op) {
      const auto from = static_cast<NodeId>(rng.next_below(t.num_nodes));
      const double bytes = static_cast<double>(rng.next_below(1 << 20));
      const double kind = rng.next_double();
      if (kind < 0.2) {
        meter.record_to_client(from, bytes);
      } else if (kind < 0.4) {
        meter.record_from_client(from, bytes);
      } else {
        meter.record(from, static_cast<NodeId>(rng.next_below(t.num_nodes)),
                     bytes);
      }
    }
    EXPECT_EQ(meter.intra_rack_bytes() + meter.cross_rack_bytes() +
                  meter.client_bytes(),
              meter.total_bytes());
    double sent = 0, received = 0;
    for (std::size_t n = 0; n < t.num_nodes; ++n) {
      sent += meter.node_sent_bytes(static_cast<NodeId>(n));
      received += meter.node_received_bytes(static_cast<NodeId>(n));
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

TEST(BlockCatalog, RegistersAndResolvesPentagonStripe) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  const auto id = catalog.register_stripe(pentagon, {10, 11, 12, 13, 14});
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(catalog.num_stripes(), 1u);
  // Symbol on edge {0,1} of the code maps to cluster nodes 10 and 11.
  const auto replicas = catalog.replica_nodes(*id, pentagon.edge_symbol(0, 1));
  EXPECT_EQ(replicas, (std::vector<NodeId>{10, 11}));
  // Node 10 hosts 4 slots of this stripe.
  EXPECT_EQ(catalog.slots_on_node(10).size(), 4u);
  EXPECT_TRUE(catalog.slots_on_node(0).empty());
}

TEST(BlockCatalog, RejectsBadGroups) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  EXPECT_FALSE(catalog.register_stripe(pentagon, {0, 1, 2}).is_ok());
  EXPECT_FALSE(catalog.register_stripe(pentagon, {0, 1, 2, 3, 3}).is_ok());
  EXPECT_FALSE(catalog.register_stripe(pentagon, {0, 1, 2, 3, 99}).is_ok());
}

TEST(BlockCatalog, FailedInStripeMapsClusterToCodeIndices) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  const auto id = catalog.register_stripe(pentagon, {20, 5, 9, 3, 17});
  ASSERT_TRUE(id.is_ok());
  const auto failed = catalog.failed_in_stripe(*id, {5, 17, 4});
  EXPECT_EQ(failed, (std::set<ec::NodeIndex>{1, 4}));
}

TEST(BlockCatalog, UnregisterTombstonesStripe) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  const auto a = catalog.register_stripe(pentagon, {0, 1, 2, 3, 4});
  const auto b = catalog.register_stripe(pentagon, {5, 6, 7, 8, 9});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(catalog.num_stripes(), 2u);
  ASSERT_TRUE(catalog.unregister_stripe(*a).is_ok());
  EXPECT_EQ(catalog.num_stripes(), 1u);
  EXPECT_FALSE(catalog.is_registered(*a));
  EXPECT_TRUE(catalog.is_registered(*b));
  // Node listings no longer mention the dead stripe.
  EXPECT_TRUE(catalog.slots_on_node(0).empty());
  EXPECT_TRUE(catalog.stripes_on_node(2).empty());
  // Double delete and access to a tombstone are rejected.
  EXPECT_FALSE(catalog.unregister_stripe(*a).is_ok());
  EXPECT_THROW(catalog.stripe(*a), ContractViolation);
  // New registrations keep working and get fresh ids.
  const auto c = catalog.register_stripe(pentagon, {0, 1, 2, 3, 4});
  ASSERT_TRUE(c.is_ok());
  EXPECT_NE(*c, *a);
}

TEST(BlockCatalog, StripesOnNodeDeduplicates) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  ASSERT_TRUE(catalog.register_stripe(pentagon, {0, 1, 2, 3, 4}).is_ok());
  ASSERT_TRUE(catalog.register_stripe(pentagon, {0, 5, 6, 7, 8}).is_ok());
  const auto stripes = catalog.stripes_on_node(0);
  EXPECT_EQ(stripes.size(), 2u);  // node 0 hosts 4 slots of each stripe
}

}  // namespace
}  // namespace dblrep::cluster
