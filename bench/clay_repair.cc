// Sub-packetized repair frontier: the repair bytes the Clay-style MSR
// scheme and the piggybacked RS scheme move for a single node failure,
// against the plain RS baseline at *equal storage overhead* -- the
// comparison the paper's Table 2 makes for codes without inherent
// replication. Emits BENCH_clay_repair.json.
//
// Gates (asserted at exit, mirroring the PR acceptance bar):
//  * clay-6-4 worst-case single-node repair bytes strictly below rs-4-2
//    (both 1.5x overhead): 20 sub-chunks = 2.5 blocks vs 4 blocks;
//  * pgy-10-4 worst-case *data*-node repair bytes strictly below rs-10-4
//    (both 1.4x overhead): at most 14 half-blocks = 7 blocks vs 10;
//  * exact accounting: the bytes the MiniDfs wire actually moves for a
//    node repair equal the plan's network_bytes() sum to the byte;
//  * beta * helpers exactness for clay: every one of the d = 5 helpers
//    ships exactly beta = 4 sub-chunks, for every failed node;
//  * baselines pinned: rs-4-2 repairs at 4 blocks, rs-10-4 at 10.
//
// Runs on the inline pool so every number is a deterministic function of
// the seed.
//
// Usage: bench_clay_repair [--block-size=BYTES] [--stripes=N] [--json=PATH]
//                          [--help]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/check.h"
#include "ec/registry.h"
#include "harness.h"
#include "hdfs/minidfs.h"

namespace {

using namespace dblrep;

struct Sample {
  std::string scheme;
  std::size_t alpha = 1;
  double overhead = 0;
  // Plan-level single-node repair cost across all failed-node choices.
  std::size_t repair_units_min = 0;
  std::size_t repair_units_max = 0;
  double repair_bytes_min = 0;
  double repair_bytes_max = 0;
  std::size_t data_repair_units_max = 0;  // failed node in [0, k)
  // End-to-end node repair on the MiniDfs wire.
  double e2e_measured_bytes = 0;
  double e2e_planned_bytes = 0;
  bool e2e_exact = false;
  bool e2e_restored = false;
  bool stored_overhead_exact = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 4096;
  std::size_t stripes = 4;
  std::string json_path = "BENCH_clay_repair.json";
  bench::Flags flags;
  flags.add("block-size", block_size, "bytes per block")
      .add("stripes", stripes, "stripes per file")
      .add("json", json_path, "output path");
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (block_size == 0 || stripes == 0) {
    std::fprintf(stderr, "--block-size and --stripes must be nonzero\n");
    return 2;
  }

  constexpr std::uint64_t kSeed = 31;
  const std::vector<std::string> specs = {"clay-6-4", "rs-4-2", "pgy-10-4",
                                          "rs-10-4"};
  std::map<std::string, Sample> by_scheme;
  bool ok = true;

  for (const auto& spec : specs) {
    const auto code = ec::make_code(spec).value();
    const std::size_t alpha = code->sub_chunks();
    DBLREP_CHECK_EQ(block_size % alpha, 0u);

    Sample s;
    s.scheme = spec;
    s.alpha = alpha;
    s.overhead = code->params().storage_overhead();

    // ---- plan-level repair cost, every failed-node choice ---------------
    for (std::size_t j = 0; j < code->num_nodes(); ++j) {
      const auto plan = code->plan_node_repair(static_cast<ec::NodeIndex>(j));
      DBLREP_CHECK_MSG(plan.is_ok(), plan.status().to_string());
      const std::size_t units = plan->network_units();
      const double bytes =
          static_cast<double>(plan->network_bytes(block_size, alpha));
      if (j == 0 || units < s.repair_units_min) s.repair_units_min = units;
      if (units > s.repair_units_max) s.repair_units_max = units;
      if (j == 0 || bytes < s.repair_bytes_min) s.repair_bytes_min = bytes;
      if (bytes > s.repair_bytes_max) s.repair_bytes_max = bytes;
      if (j < code->data_blocks() && units > s.data_repair_units_max) {
        s.data_repair_units_max = units;
      }
      // beta * helpers exactness for the MSR point: each of the d = n - 1
      // helpers ships exactly beta = alpha / 2 sub-chunks.
      if (spec == "clay-6-4") {
        std::map<ec::NodeIndex, std::size_t> per_helper;
        for (const auto& send : plan->aggregates) ++per_helper[send.from_node];
        const std::size_t beta = alpha / 2;
        if (per_helper.size() != code->num_nodes() - 1) ok = false;
        for (const auto& [helper, count] : per_helper) {
          if (count != beta) {
            std::fprintf(stderr,
                         "FAIL: clay-6-4 node %zu repair: helper %d ships "
                         "%zu sub-chunks, want beta = %zu\n",
                         j, helper, count, beta);
            ok = false;
          }
        }
      }
    }

    // ---- end-to-end: node repair on the MiniDfs wire --------------------
    {
      cluster::Topology topology;  // 25 nodes, 1 rack
      hdfs::MiniDfs dfs(topology, kSeed, nullptr);
      const std::size_t data_bytes =
          stripes * code->data_blocks() * block_size;
      const Buffer data = random_buffer(data_bytes, 7);
      DBLREP_CHECK(dfs.write_file("/f", data, spec, block_size).is_ok());

      // Stored bytes must land exactly at the advertised overhead.
      s.stored_overhead_exact =
          dfs.stored_bytes() ==
          static_cast<std::size_t>(s.overhead * static_cast<double>(data_bytes));

      const auto info = *dfs.stat("/f");
      const cluster::NodeId victim =
          dfs.catalog().stripe(info.stripes.front()).group[0];
      // Planned cost: sum, over every stripe with a slot on the victim, of
      // that stripe's single-node plan bytes for the code-local index the
      // victim holds.
      for (cluster::StripeId id : info.stripes) {
        const auto& group = dfs.catalog().stripe(id).group;
        for (std::size_t j = 0; j < group.size(); ++j) {
          if (group[j] != victim) continue;
          const auto plan =
              code->plan_node_repair(static_cast<ec::NodeIndex>(j));
          s.e2e_planned_bytes += static_cast<double>(
              plan->network_bytes(block_size, alpha));
          break;
        }
      }
      DBLREP_CHECK(dfs.fail_node(victim).is_ok());
      dfs.traffic().reset();
      DBLREP_CHECK(dfs.repair_node(victim).is_ok());
      s.e2e_measured_bytes = dfs.traffic().total_bytes();
      s.e2e_exact = s.e2e_measured_bytes == s.e2e_planned_bytes;
      const auto back = dfs.read_file("/f");
      s.e2e_restored = back.is_ok() && *back == data;
    }

    std::fprintf(stderr,
                 "%-9s alpha=%zu overhead=%.2f  repair units [%zu, %zu] "
                 "bytes [%.0f, %.0f]  e2e %.0f/%.0f exact=%d restored=%d\n",
                 spec.c_str(), s.alpha, s.overhead, s.repair_units_min,
                 s.repair_units_max, s.repair_bytes_min, s.repair_bytes_max,
                 s.e2e_measured_bytes, s.e2e_planned_bytes,
                 s.e2e_exact ? 1 : 0, s.e2e_restored ? 1 : 0);
    by_scheme[spec] = s;
  }

  bench::JsonWriter json(json_path);
  json.field("bench", "clay_repair")
      .field("block_size", block_size)
      .field("stripes", stripes);
  json.array("results");
  for (const auto& spec : specs) {
    const Sample& s = by_scheme.at(spec);
    json.object()
        .field("scheme", s.scheme)
        .field("alpha", s.alpha)
        .field("storage_overhead", s.overhead)
        .field("repair_units_min", s.repair_units_min)
        .field("repair_units_max", s.repair_units_max)
        .field("repair_bytes_min", s.repair_bytes_min)
        .field("repair_bytes_max", s.repair_bytes_max)
        .field("data_repair_units_max", s.data_repair_units_max)
        .field("e2e_measured_bytes", s.e2e_measured_bytes)
        .field("e2e_planned_bytes", s.e2e_planned_bytes)
        .field("e2e_exact", s.e2e_exact)
        .field("e2e_restored", s.e2e_restored)
        .field("stored_overhead_exact", s.stored_overhead_exact)
        .end();
  }
  json.end();
  if (!json.finish()) return 1;
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());

  // ---- acceptance gates --------------------------------------------------
  const Sample& clay = by_scheme.at("clay-6-4");
  const Sample& rs42 = by_scheme.at("rs-4-2");
  const Sample& pgy = by_scheme.at("pgy-10-4");
  const Sample& rs104 = by_scheme.at("rs-10-4");

  // Baselines pinned: plain RS repairs k whole blocks.
  if (rs42.repair_units_max != 4 || rs42.repair_units_min != 4) {
    std::fprintf(stderr, "FAIL: rs-4-2 repair not 4 blocks\n");
    ok = false;
  }
  if (rs104.repair_units_max != 10 || rs104.repair_units_min != 10) {
    std::fprintf(stderr, "FAIL: rs-10-4 repair not 10 blocks\n");
    ok = false;
  }
  // Equal storage overhead is what makes the comparison fair.
  if (clay.overhead != rs42.overhead || pgy.overhead != rs104.overhead) {
    std::fprintf(stderr, "FAIL: overhead pairing broken\n");
    ok = false;
  }
  // The frontier: strictly fewer repair bytes at equal overhead.
  if (!(clay.repair_bytes_max < rs42.repair_bytes_min)) {
    std::fprintf(stderr,
                 "FAIL: clay-6-4 worst repair (%.0f bytes) not below rs-4-2 "
                 "(%.0f bytes)\n",
                 clay.repair_bytes_max, rs42.repair_bytes_min);
    ok = false;
  }
  const double pgy_data_worst =
      static_cast<double>(pgy.data_repair_units_max) *
      static_cast<double>(block_size / pgy.alpha);
  if (!(pgy_data_worst < rs104.repair_bytes_min)) {
    std::fprintf(stderr,
                 "FAIL: pgy-10-4 worst data-node repair (%.0f bytes) not "
                 "below rs-10-4 (%.0f bytes)\n",
                 pgy_data_worst, rs104.repair_bytes_min);
    ok = false;
  }
  // Exact byte accounting + data integrity + overhead, all schemes.
  for (const auto& [spec, s] : by_scheme) {
    if (!s.e2e_exact) {
      std::fprintf(stderr,
                   "FAIL: %s e2e repair moved %.0f bytes, plans say %.0f\n",
                   spec.c_str(), s.e2e_measured_bytes, s.e2e_planned_bytes);
      ok = false;
    }
    if (!s.e2e_restored) {
      std::fprintf(stderr, "FAIL: %s file corrupt after repair\n",
                   spec.c_str());
      ok = false;
    }
    if (!s.stored_overhead_exact) {
      std::fprintf(stderr, "FAIL: %s stored bytes off advertised overhead\n",
                   spec.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
