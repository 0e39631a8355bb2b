// Integration tests for the mini-HDFS data plane: write/read round trips
// under every code, corruption fallback, failure + degraded reads with the
// paper's exact repair-bandwidth numbers measured on the wire, degraded
// reads that fetch only their plan's helpers (and their whole-stripe
// fallback), node repair, scrub, and the RaidNode re-encoder.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <utility>

#include "cluster/topology.h"
#include "common/rng.h"
#include "hdfs/minidfs.h"
#include "ec/local_polygon.h"
#include "hdfs/raidnode.h"

namespace dblrep::hdfs {
namespace {

constexpr std::size_t kBlockSize = 64;

MiniDfs make_dfs(std::size_t nodes = 25, std::uint64_t seed = 7) {
  cluster::Topology topology;
  topology.num_nodes = nodes;
  return MiniDfs(topology, seed);
}

Buffer payload(std::size_t size, std::uint64_t seed = 1) {
  return random_buffer(size, seed);
}

// ---------------------------------------------------------- write/read

class DfsRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DfsRoundTripTest, WholeFileRoundTripsAcrossStripes) {
  MiniDfs dfs = make_dfs();
  // 2.5 stripes worth of data exercises striping and tail padding.
  const auto code_spec = GetParam();
  const Buffer data = payload(kBlockSize * 22);
  ASSERT_TRUE(dfs.write_file("/f", data, code_spec, kBlockSize).is_ok());
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(*read, data);
}

TEST_P(DfsRoundTripTest, SurvivesToleratedFailuresWithoutRepair) {
  MiniDfs dfs = make_dfs();
  const auto code_spec = GetParam();
  const Buffer data = payload(kBlockSize * 30, 2);
  ASSERT_TRUE(dfs.write_file("/f", data, code_spec, kBlockSize).is_ok());
  // Fail two nodes (every paper code tolerates 2).
  ASSERT_TRUE(dfs.fail_node(3).is_ok());
  ASSERT_TRUE(dfs.fail_node(11).is_ok());
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(*read, data);
}

TEST_P(DfsRoundTripTest, RepairAllRestoresFullRedundancy) {
  MiniDfs dfs = make_dfs();
  const auto code_spec = GetParam();
  const Buffer data = payload(kBlockSize * 30, 3);
  ASSERT_TRUE(dfs.write_file("/f", data, code_spec, kBlockSize).is_ok());
  const std::size_t bytes_healthy = dfs.stored_bytes();
  ASSERT_TRUE(dfs.fail_node(5).is_ok());
  ASSERT_TRUE(dfs.fail_node(17).is_ok());
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_EQ(dfs.stored_bytes(), bytes_healthy);
  EXPECT_TRUE(dfs.scrub().is_ok());
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

INSTANTIATE_TEST_SUITE_P(PaperCodes, DfsRoundTripTest,
                         ::testing::Values("2-rep", "3-rep", "pentagon",
                                           "heptagon", "heptagon-local",
                                           "raidm-9", "rs-10-4"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------- basic API

TEST(DataNode, SharedReadsSurviveLaterWritesAndDetectCorruption) {
  DataNode dn(0);
  const cluster::SlotAddress address{7, 1};
  ASSERT_TRUE(dn.put(address, Buffer{1, 2, 3, 4}).is_ok());
  const auto held = dn.read(address);
  ASSERT_TRUE(held.is_ok());
  EXPECT_EQ(**held, (Buffer{1, 2, 3, 4}));
  // Stored bytes are immutable: a later corruption or overwrite replaces
  // them without disturbing a reader that still holds the old block.
  ASSERT_TRUE(dn.corrupt(address, 0).is_ok());
  EXPECT_EQ(**held, (Buffer{1, 2, 3, 4}));
  EXPECT_EQ(dn.read(address).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(dn.get(address).status().code(), StatusCode::kCorruption);
  ASSERT_TRUE(dn.put(address, Buffer{9}).is_ok());
  EXPECT_EQ(*dn.get(address), Buffer{9});
  dn.fail();
  EXPECT_EQ(**held, (Buffer{1, 2, 3, 4}));
  EXPECT_EQ(dn.read(address).status().code(), StatusCode::kUnavailable);
}

TEST(MiniDfs, StatListsAndDeletes) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/a", payload(100), "pentagon", kBlockSize).is_ok());
  ASSERT_TRUE(dfs.write_file("/b", payload(100), "3-rep", kBlockSize).is_ok());
  EXPECT_EQ(dfs.list_files().size(), 2u);
  const auto info = dfs.stat("/a");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->code_spec, "pentagon");
  EXPECT_EQ(info->length, 100u);
  EXPECT_EQ(info->stripes.size(), 1u);
  ASSERT_TRUE(dfs.delete_file("/a").is_ok());
  EXPECT_EQ(dfs.list_files().size(), 1u);
  EXPECT_FALSE(dfs.stat("/a").is_ok());
  EXPECT_FALSE(dfs.delete_file("/a").is_ok());
}

TEST(MiniDfs, DuplicateCreateAndUnknownCodeRejected) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/a", payload(10), "2-rep", kBlockSize).is_ok());
  EXPECT_EQ(dfs.write_file("/a", payload(10), "2-rep", kBlockSize).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dfs.write_file("/c", payload(10), "nonagon", kBlockSize).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dfs.write_file("/d", payload(10), "2-rep", 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(MiniDfs, WriteNeedsEnoughLiveNodes) {
  MiniDfs dfs = make_dfs(6);  // heptagon needs 7 nodes
  EXPECT_EQ(dfs.write_file("/f", payload(10), "heptagon", kBlockSize).code(),
            StatusCode::kResourceExhausted);
  // pentagon fits on 6 nodes, but not after two failures.
  ASSERT_TRUE(dfs.fail_node(0).is_ok());
  ASSERT_TRUE(dfs.fail_node(1).is_ok());
  EXPECT_EQ(dfs.write_file("/f", payload(10), "pentagon", kBlockSize).code(),
            StatusCode::kResourceExhausted);
}

TEST(MiniDfs, StorageOverheadMatchesTable1) {
  // 9 data blocks in a pentagon file occupy exactly 20 blocks: 2.22x.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 4);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  EXPECT_EQ(dfs.stored_bytes(), 20 * kBlockSize);
  ASSERT_TRUE(dfs.delete_file("/f").is_ok());
  EXPECT_EQ(dfs.stored_bytes(), 0u);
}

TEST(MiniDfs, ReadBlockOutOfRange) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 2), "2-rep",
                             kBlockSize).is_ok());
  EXPECT_TRUE(dfs.read_block("/f", 1).is_ok());
  EXPECT_FALSE(dfs.read_block("/f", 2).is_ok());
  EXPECT_FALSE(dfs.read_block("/missing", 0).is_ok());
}

// ------------------------------------------------------ corruption path

TEST(MiniDfs, CorruptReplicaFallsBackToHealthyCopy) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 5);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  // Corrupt the first replica of data block 0.
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  const std::size_t slot0 = code.layout().slots_of_symbol(0)[0];
  const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot0});
  ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot0}, 3).is_ok());
  // Scrub must notice; the read must silently use the second replica.
  EXPECT_EQ(dfs.scrub().code(), StatusCode::kCorruption);
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
}

TEST(MiniDfs, BothReplicasCorruptTriggersDegradedRead) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 6);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot});
    ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot}, 0).is_ok());
  }
  // The degraded-read planner probes actual block availability (not just
  // down nodes), so a block whose replicas are all CRC-broken on *live*
  // nodes is still served by on-the-fly decode from the rest of the
  // stripe -- and never returns bad bytes.
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
}

TEST(MiniDfs, ScrubRepairHealsCorruptReplicas) {
  // Both kinds of damage scrub must report as corruption on a live node: a
  // CRC-broken replica and a missing one.
  for (const bool missing : {false, true}) {
    SCOPED_TRACE(missing ? "missing" : "corrupt");
    MiniDfs dfs = make_dfs();
    const Buffer data = payload(kBlockSize * 9, 30);
    ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
    const auto info = *dfs.stat("/f");
    const auto stripe = info.stripes[0];
    const auto& code = *dfs.code_for("/f").value();
    // Damage one replica of block 0 and one replica of the parity.
    const std::size_t data_slot = code.layout().slots_of_symbol(0)[0];
    const std::size_t parity_slot = code.layout().slots_of_symbol(9)[1];
    for (std::size_t slot : {data_slot, parity_slot}) {
      DataNode& holder = dfs.datanode(dfs.catalog().node_of({stripe, slot}));
      ASSERT_TRUE(holder.is_up());
      ASSERT_TRUE((missing ? holder.drop({stripe, slot})
                           : holder.corrupt({stripe, slot}, 1))
                      .is_ok());
    }
    EXPECT_EQ(dfs.scrub().code(), StatusCode::kCorruption);
    const auto healed = dfs.scrub_repair();
    ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
    EXPECT_EQ(*healed, 2u);
    EXPECT_TRUE(dfs.scrub().is_ok());
    EXPECT_EQ(*dfs.read_file("/f"), data);
  }
}

TEST(MiniDfs, ScrubRepairHealsEvenWithBothReplicasOfABlockCorrupt) {
  // scrub_repair decodes from whatever verifies, so it durably rewrites a
  // block whose two replicas are both CRC-broken on live nodes (reads of
  // the block already succeed beforehand via availability-probed degraded
  // reads, but only the scrub restores the replicas on disk).
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 31);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  for (std::size_t slot : code.layout().slots_of_symbol(4)) {
    const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot});
    ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot}, 2).is_ok());
  }
  EXPECT_TRUE(dfs.read_block("/f", 4).is_ok());
  const auto healed = dfs.scrub_repair();
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(*healed, 2u);
  const auto block = dfs.read_block("/f", 4);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(std::equal(block->begin(), block->end(),
                         data.begin() + 4 * kBlockSize));
}

TEST(MiniDfs, ScrubRepairIsNoopWhenHealthy) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 9, 32), "heptagon",
                             kBlockSize).is_ok());
  const auto healed = dfs.scrub_repair();
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(*healed, 0u);
}

// ------------------------------------------- degraded reads on the wire

TEST(MiniDfs, PentagonDegradedReadMovesExactlyThreeBlocks) {
  // Section 3.1 measured on the simulated wire: with both holders of a
  // block down, the client read costs 3 block transfers.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 7);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  // Down both holders of block 0.
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
  }
  dfs.traffic().reset();
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 3.0 * kBlockSize);
}

TEST(MiniDfs, RaidMirrorDegradedReadMovesNineBlocks) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 8);
  ASSERT_TRUE(dfs.write_file("/f", data, "raidm-9", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
  }
  dfs.traffic().reset();
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 9.0 * kBlockSize);
}

TEST(MiniDfs, HealthyReadTouchesNoInterNodeLinks) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 9);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  // Per-node direction: the write's uploads are received by the nodes
  // (20 slots), and nothing is sent.
  const auto per_node_sums = [&dfs] {
    double sent = 0, received = 0;
    for (std::size_t n = 0; n < dfs.topology().num_nodes; ++n) {
      sent += dfs.traffic().node_sent_bytes(static_cast<cluster::NodeId>(n));
      received +=
          dfs.traffic().node_received_bytes(static_cast<cluster::NodeId>(n));
    }
    return std::pair{sent, received};
  };
  EXPECT_EQ(per_node_sums(), std::pair(0.0, 20.0 * kBlockSize));
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.read_file("/f").is_ok());
  // All bytes go node -> client: exactly 9 blocks, one per data block.
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 9.0 * kBlockSize);
  EXPECT_EQ(per_node_sums(), std::pair(9.0 * kBlockSize, 0.0));
}

// ---------------------------------------- helper-only degraded reads

// Large enough blocks that a 4 KiB pread sits inside one block (and inside
// one sub-chunk of an α = 2 scheme).
constexpr std::size_t kPreadBlockSize = 16 * 1024;
constexpr std::size_t kPreadOffset = 1000;
constexpr std::size_t kPreadLen = 4096;

std::size_t bytes_read_total(const MiniDfs& dfs) {
  std::size_t total = 0;
  for (std::size_t n = 0; n < dfs.topology().num_nodes; ++n) {
    total += dfs.datanode(static_cast<cluster::NodeId>(n)).bytes_read();
  }
  return total;
}

/// The distinct stored slots a plan reads.
std::set<std::size_t> plan_helper_slots(const ec::RepairPlan& plan) {
  std::set<std::size_t> slots;
  for (const auto& send : plan.aggregates) {
    for (const auto& term : send.terms) slots.insert(term.slot);
  }
  for (const auto& rec : plan.reconstructions) {
    for (const auto& term : rec.local_terms) slots.insert(term.slot);
  }
  return slots;
}

/// Code-local nodes of a stripe whose DataNode is down: what a degraded
/// read knows before it reads any block bytes.
std::set<ec::NodeIndex> down_in_stripe(const MiniDfs& dfs,
                                       cluster::StripeId stripe) {
  const auto& group = dfs.catalog().stripe(stripe).group;
  std::set<ec::NodeIndex> down;
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (!dfs.datanode(group[i]).is_up()) {
      down.insert(static_cast<ec::NodeIndex>(i));
    }
  }
  return down;
}

/// The whole-stripe gather's failed set: every code-local node with a slot
/// that does not read back CRC-clean.
std::set<ec::NodeIndex> gather_failed(const MiniDfs& dfs,
                                      cluster::StripeId stripe) {
  const auto& info = dfs.catalog().stripe(stripe);
  const auto& layout = info.code->layout();
  std::set<ec::NodeIndex> failed;
  for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
    const ec::NodeIndex node = layout.node_of_slot(slot);
    const auto& dn = dfs.datanode(info.group[static_cast<std::size_t>(node)]);
    if (!dn.read({stripe, slot}).is_ok()) failed.insert(node);
  }
  return failed;
}

/// Wire bytes a degraded read of `block` is charged when planned over
/// `failed`: one unit per aggregate, split into (total, client).
std::pair<double, double> degraded_traffic(
    const ec::CodeScheme& code, std::size_t block,
    const std::set<ec::NodeIndex>& failed, std::size_t unit_bytes) {
  const auto plan = code.plan_degraded_block(block, failed);
  EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
  if (!plan.is_ok()) return {0.0, 0.0};
  const auto unit = static_cast<double>(unit_bytes);
  double total = 0, client = 0;
  for (const auto& send : plan->aggregates) {
    total += unit;
    if (send.to_node == ec::kClientNode) client += unit;
  }
  return {total, client};
}

struct HelperOnlyCase {
  const char* spec;
  /// Fail the node of block 0's first replica plus this group member,
  /// instead of both replica holders of block 0.
  int other_node;
  /// Distinct helper slots the plan must read; 0 = not pinned.
  std::size_t expected_slots;
};

void PrintTo(const HelperOnlyCase& c, std::ostream* os) { *os << c.spec; }

class HelperOnlyDegradedReadTest
    : public ::testing::TestWithParam<HelperOnlyCase> {};

TEST_P(HelperOnlyDegradedReadTest, ReadsOnlyThePlansHelpers) {
  const HelperOnlyCase& c = GetParam();
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kPreadBlockSize * 40, 50);
  ASSERT_TRUE(dfs.write_file("/f", data, c.spec, kPreadBlockSize).is_ok());
  const auto& scheme = *dfs.code_for("/f").value();
  const auto& layout = scheme.layout();
  const auto stripe = dfs.stat("/f")->stripes[0];
  const auto& group = dfs.catalog().stripe(stripe).group;
  std::set<ec::NodeIndex> victims;
  if (c.other_node < 0) {
    for (std::size_t slot : layout.slots_of_symbol(0)) {
      victims.insert(layout.node_of_slot(slot));
    }
  } else {
    victims.insert(layout.node_of_slot(layout.slots_of_symbol(0)[0]));
    victims.insert(static_cast<ec::NodeIndex>(c.other_node));
  }
  ASSERT_EQ(victims.size(), 2u);
  for (ec::NodeIndex v : victims) {
    ASSERT_TRUE(dfs.fail_node(group[static_cast<std::size_t>(v)]).is_ok());
  }

  const std::size_t unit_bytes = kPreadBlockSize / scheme.sub_chunks();
  const auto plan = scheme.plan_degraded_block(0, victims);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::size_t helpers = plan_helper_slots(*plan).size();
  if (c.expected_slots != 0) {
    EXPECT_EQ(helpers, c.expected_slots);
  }

  dfs.traffic().reset();
  const std::size_t before = bytes_read_total(dfs);
  const auto got = dfs.pread("/f", kPreadOffset, kPreadLen);
  const std::size_t read = bytes_read_total(dfs) - before;
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_TRUE(std::equal(got->begin(), got->end(),
                         data.begin() + kPreadOffset));
  EXPECT_EQ(got->size(), kPreadLen);
  EXPECT_EQ(read, helpers * unit_bytes);

  // Charged exactly like the whole-stripe gather path would be.
  const auto [total, client] =
      degraded_traffic(scheme, 0, gather_failed(dfs, stripe), unit_bytes);
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), total);
  EXPECT_DOUBLE_EQ(dfs.traffic().client_bytes(), client);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, HelperOnlyDegradedReadTest,
    ::testing::Values(HelperOnlyCase{"pentagon", -1, 9},
                      HelperOnlyCase{"heptagon-local", -1, 20},
                      HelperOnlyCase{"rs-10-4", 13, 0},
                      HelperOnlyCase{"pgy-10-4", 13, 0}),
    [](const auto& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

/// A `spec` file whose first stripe has lost both replica holders of its
/// block 0.
struct DoubleFailure {
  MiniDfs dfs = make_dfs();
  Buffer data = payload(kPreadBlockSize * 40, 51);
  cluster::StripeId stripe = 0;
  const ec::CodeScheme* code = nullptr;
  ec::RepairPlan plan;  // the helper-only plan over the down nodes

  explicit DoubleFailure(const char* spec) {
    EXPECT_TRUE(dfs.write_file("/f", data, spec, kPreadBlockSize).is_ok());
    stripe = dfs.stat("/f")->stripes[0];
    code = dfs.code_for("/f").value();
    for (std::size_t slot : code->layout().slots_of_symbol(0)) {
      EXPECT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
    }
    plan = code->plan_degraded_block(0, down_in_stripe(dfs, stripe)).value();
  }

  DataNode& holder(std::size_t slot) {
    return dfs.datanode(dfs.catalog().node_of({stripe, slot}));
  }

  std::size_t helper_bytes() const {
    return plan_helper_slots(plan).size() * kPreadBlockSize;
  }
};

TEST(MiniDfs, DegradedReadFallsBackToTheWholeStripeOnAnUnreadableHelper) {
  // heptagon-local: a pentagon stripe cannot lose a third node's slots.
  DoubleFailure f("heptagon-local");
  const std::size_t helper = *plan_helper_slots(f.plan).begin();
  ASSERT_TRUE(f.holder(helper).corrupt({f.stripe, helper}, 5).is_ok());
  f.dfs.traffic().reset();
  const std::size_t before = bytes_read_total(f.dfs);
  const auto got = f.dfs.pread("/f", kPreadOffset, kPreadLen);
  const std::size_t read = bytes_read_total(f.dfs) - before;
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_TRUE(std::equal(got->begin(), got->end(),
                         f.data.begin() + kPreadOffset));
  // The helper fetch came up short, so the read re-planned over the whole
  // stripe and is charged as the gather path plans it.
  EXPECT_GT(read, f.helper_bytes());
  const auto [total, client] = degraded_traffic(
      *f.code, 0, gather_failed(f.dfs, f.stripe), kPreadBlockSize);
  EXPECT_DOUBLE_EQ(f.dfs.traffic().total_bytes(), total);
  EXPECT_DOUBLE_EQ(f.dfs.traffic().client_bytes(), client);
}

TEST(MiniDfs, CorruptSlotOutsideThePlanLeavesItsNodeServing) {
  // A live helper node with a corrupt slot the plan does not read still
  // serves the slots it does read: no fallback, only helpers are read.
  DoubleFailure f("pentagon");
  const auto& layout = f.code->layout();
  const auto helpers = plan_helper_slots(f.plan);
  std::set<ec::NodeIndex> helper_nodes;
  for (std::size_t slot : helpers) {
    helper_nodes.insert(layout.node_of_slot(slot));
  }
  std::size_t unread = layout.num_slots();
  for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
    if (!helpers.contains(slot) &&
        helper_nodes.contains(layout.node_of_slot(slot))) {
      unread = slot;
      break;
    }
  }
  ASSERT_LT(unread, layout.num_slots());
  ASSERT_TRUE(f.holder(unread).is_up());
  ASSERT_TRUE(f.holder(unread).corrupt({f.stripe, unread}, 5).is_ok());
  f.dfs.traffic().reset();
  const std::size_t before = bytes_read_total(f.dfs);
  const auto got = f.dfs.pread("/f", kPreadOffset, kPreadLen);
  const std::size_t read = bytes_read_total(f.dfs) - before;
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_TRUE(std::equal(got->begin(), got->end(),
                         f.data.begin() + kPreadOffset));
  EXPECT_EQ(read, f.helper_bytes());
  EXPECT_DOUBLE_EQ(f.dfs.traffic().total_bytes(), 3.0 * kPreadBlockSize);
}

TEST(MiniDfs, DegradedReadAfterHelperRestartMatchesTheGatherPath) {
  // A helper node that crashes and comes back empty, with no repair in
  // between, is up but cannot serve: the helper fetch misses and the read
  // answers exactly as planning over the whole stripe does -- the bytes
  // when the code can still rebuild the block, the planner's error when
  // it cannot. A pentagon stripe cannot rebuild a block after losing a
  // third node; heptagon-local can.
  for (const auto& [spec, readable] :
       {std::pair{"pentagon", false}, std::pair{"heptagon-local", true}}) {
    SCOPED_TRACE(spec);
    DoubleFailure f(spec);
    const ec::NodeIndex helper_node =
        f.code->layout().node_of_slot(*plan_helper_slots(f.plan).begin());
    const auto& group = f.dfs.catalog().stripe(f.stripe).group;
    const cluster::NodeId node = group[static_cast<std::size_t>(helper_node)];
    ASSERT_TRUE(f.dfs.fail_node(node).is_ok());
    ASSERT_TRUE(f.dfs.restart_node(node).is_ok());
    const auto expected =
        f.code->plan_degraded_block(0, gather_failed(f.dfs, f.stripe));
    const auto got = f.dfs.pread("/f", kPreadOffset, kPreadLen);
    EXPECT_EQ(expected.is_ok(), readable);
    ASSERT_EQ(got.is_ok(), expected.is_ok()) << got.status().to_string();
    if (got.is_ok()) {
      EXPECT_TRUE(std::equal(got->begin(), got->end(),
                             f.data.begin() + kPreadOffset));
    } else {
      EXPECT_EQ(got.status().code(), expected.status().code());
    }
  }
}

// -------------------------------------------------------- node repair

TEST(MiniDfs, SingleNodeRepairUsesRepairByTransferBandwidth) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 10);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const cluster::NodeId victim = dfs.catalog().stripe(stripe).group[0];
  ASSERT_TRUE(dfs.fail_node(victim).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_node(victim).is_ok());
  // Repair-by-transfer: the node's 4 blocks are plain-copied -> exactly 4
  // block transfers, no decode anywhere.
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 4.0 * kBlockSize);
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfs, DoubleNodeRepairCostsTenBlocksOnTheWire) {
  // Section 2.1 end-to-end: repairing both lost nodes of one pentagon
  // stripe moves exactly 10 blocks.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 11);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto group = dfs.catalog().stripe(info.stripes[0]).group;
  ASSERT_TRUE(dfs.fail_node(group[0]).is_ok());
  ASSERT_TRUE(dfs.fail_node(group[1]).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 10.0 * kBlockSize);
  EXPECT_TRUE(dfs.scrub().is_ok());
  EXPECT_EQ(*dfs.read_file("/f"), data);
}

TEST(MiniDfs, RepairBeyondToleranceReportsDataLoss) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 12);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto group = dfs.catalog().stripe(dfs.stat("/f")->stripes[0]).group;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dfs.fail_node(group[i]).is_ok());
  const auto status = dfs.repair_all();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(MiniDfs, RepairIsNoopOnHealthyCluster) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 9, 13), "pentagon",
                             kBlockSize).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 0.0);
}

TEST(MiniDfs, RepairIgnoresDeletedFiles) {
  // Regression: deleting a file must tombstone its stripes, or a later
  // node repair tries to "rebuild" blocks that were intentionally removed
  // and reports phantom data loss.
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/old", payload(kBlockSize * 18, 20), "3-rep",
                             kBlockSize).is_ok());
  ASSERT_TRUE(dfs.write_file("/keep", payload(kBlockSize * 9, 21), "pentagon",
                             kBlockSize).is_ok());
  ASSERT_TRUE(dfs.delete_file("/old").is_ok());
  ASSERT_TRUE(dfs.fail_node(4).is_ok());
  ASSERT_TRUE(dfs.fail_node(16).is_ok());
  EXPECT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfs, HeptagonLocalPlacementIsRackAwareWhenPossible) {
  // Section 2.2: the two heptagons and the global parity node land on
  // three different racks when the topology provides them.
  cluster::Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  MiniDfs dfs(topology, 9);
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 40, 40),
                             "heptagon-local", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto& stripe = dfs.catalog().stripe(info.stripes[0]);
  const auto* code =
      dynamic_cast<const ec::LocalPolygonCode*>(stripe.code);
  ASSERT_NE(code, nullptr);
  std::set<int> local0_racks, local1_racks;
  for (std::size_t i = 0; i < 7; ++i) {
    local0_racks.insert(topology.rack_of(stripe.group[i]));
    local1_racks.insert(topology.rack_of(stripe.group[7 + i]));
  }
  const int global_rack = topology.rack_of(stripe.group[14]);
  EXPECT_EQ(local0_racks.size(), 1u);
  EXPECT_EQ(local1_racks.size(), 1u);
  EXPECT_NE(*local0_racks.begin(), *local1_racks.begin());
  EXPECT_NE(global_rack, *local0_racks.begin());
  EXPECT_NE(global_rack, *local1_racks.begin());
  // The data plane still round-trips and repairs under this placement.
  EXPECT_EQ(*dfs.read_file("/f"), payload(kBlockSize * 40, 40));
  ASSERT_TRUE(dfs.fail_node(stripe.group[2]).is_ok());
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfs, HeptagonLocalFallsBackToUniformOnSingleRack) {
  MiniDfs dfs = make_dfs();  // 25 nodes, 1 rack
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 40, 41),
                             "heptagon-local", kBlockSize).is_ok());
  EXPECT_EQ(*dfs.read_file("/f"), payload(kBlockSize * 40, 41));
}

TEST(MiniDfs, RackLocalRepairKeepsCrossRackTrafficAtZero) {
  // The locality benefit of the local code: repairing <=2 failures inside
  // one heptagon never crosses racks.
  cluster::Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  MiniDfs dfs(topology, 10);
  const Buffer data = payload(kBlockSize * 40, 42);
  ASSERT_TRUE(
      dfs.write_file("/f", data, "heptagon-local", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto& stripe = dfs.catalog().stripe(info.stripes[0]);
  ASSERT_TRUE(dfs.fail_node(stripe.group[1]).is_ok());
  ASSERT_TRUE(dfs.fail_node(stripe.group[4]).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_GT(dfs.traffic().total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(dfs.traffic().cross_rack_bytes(), 0.0);
  EXPECT_EQ(*dfs.read_file("/f"), data);
}

// ------------------------------------------------------------ RaidNode

TEST(RaidNode, ConvertsThreeRepToPentagonAndReclaimsSpace) {
  MiniDfs dfs = make_dfs();
  RaidNode raid(dfs);
  const Buffer data = payload(kBlockSize * 18, 14);  // 2 pentagon stripes
  ASSERT_TRUE(dfs.write_file("/warm", data, "3-rep", kBlockSize).is_ok());
  const std::size_t before = dfs.stored_bytes();
  EXPECT_EQ(before, 3 * 18 * kBlockSize);

  const auto report = raid.raid_file("/warm", "pentagon");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->stripes_written, 2u);
  EXPECT_EQ(dfs.stored_bytes(), 2 * 20 * kBlockSize);  // 2.22x < 3x
  EXPECT_LT(dfs.stored_bytes(), before);

  const auto read = dfs.read_file("/warm");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(dfs.stat("/warm")->code_spec, "pentagon");
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(RaidNode, RefusesNoopConversion) {
  MiniDfs dfs = make_dfs();
  RaidNode raid(dfs);
  ASSERT_TRUE(dfs.write_file("/f", payload(100, 15), "pentagon", kBlockSize)
                  .is_ok());
  EXPECT_EQ(raid.raid_file("/f", "pentagon").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(raid.raid_file("/missing", "pentagon").is_ok());
}

TEST(RaidNode, RaidsThroughDegradedStripes) {
  // Re-encoding must work even while a replica holder is down (reads fall
  // back to the surviving copies).
  MiniDfs dfs = make_dfs();
  RaidNode raid(dfs);
  const Buffer data = payload(kBlockSize * 18, 16);
  ASSERT_TRUE(dfs.write_file("/f", data, "2-rep", kBlockSize).is_ok());
  ASSERT_TRUE(dfs.fail_node(4).is_ok());
  const auto report = raid.raid_file("/f", "heptagon");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

}  // namespace
}  // namespace dblrep::hdfs
