// Full storage lifecycle on the mini-HDFS: ingest as 3-rep, raid to the
// pentagon code (HDFS-RAID style), survive failures, repair, scrub --
// the workflow the paper's system implements inside Hadoop.
//
// Build & run:  ./build/example_raid_lifecycle
#include <iostream>

#include "cluster/topology.h"
#include "hdfs/minidfs.h"
#include "hdfs/raidnode.h"

int main() {
  using namespace dblrep;
  constexpr std::size_t kBlock = 1024;

  cluster::Topology topology;  // 25 nodes, one rack
  hdfs::MiniDfs dfs(topology, /*seed=*/7);
  hdfs::RaidNode raid(dfs);

  // 1. Ingest hot data as 3-rep (2 pentagon stripes worth).
  const Buffer data = random_buffer(kBlock * 18, 5);
  const Status written = dfs.write_file("/logs/day1", data, "3-rep", kBlock);
  if (!written.is_ok()) {
    std::cerr << "write failed: " << written.to_string() << "\n";
    return 1;
  }
  std::cout << "ingested " << data.size() << " bytes as 3-rep; stored bytes: "
            << dfs.stored_bytes() << " (overhead "
            << static_cast<double>(dfs.stored_bytes()) / data.size()
            << "x)\n";

  // 2. The data cools down; the RaidNode re-encodes it with the pentagon
  //    code, keeping double replication but shaving ~26% of the footprint.
  const auto report = raid.raid_file("/logs/day1", "pentagon");
  if (!report.is_ok()) {
    std::cerr << "raid failed: " << report.status().to_string() << "\n";
    return 1;
  }
  std::cout << "raided to pentagon in " << report->stripes_written
            << " stripes; stored bytes now: " << dfs.stored_bytes()
            << " (overhead "
            << static_cast<double>(dfs.stored_bytes()) / data.size()
            << "x, paper: 2.22x)\n";

  // 3. Two nodes die. Reads keep working (inherent double replication +
  //    partial parities), and repair restores full redundancy.
  (void)dfs.fail_node(2);
  (void)dfs.fail_node(9);
  std::cout << "nodes 2 and 9 failed; file still readable? "
            << (dfs.read_file("/logs/day1").is_ok() ? "yes" : "no") << "\n";

  dfs.traffic().reset();
  const auto repair_status = dfs.repair_all();
  std::cout << "repair: " << repair_status.to_string() << "; moved "
            << dfs.traffic().total_bytes() / kBlock << " blocks\n";

  // 4. Scrub proves every replica and parity is consistent again.
  std::cout << "scrub: " << dfs.scrub().to_string() << "\n";
  const auto read_back = dfs.read_file("/logs/day1");
  const bool intact = read_back.is_ok() && *read_back == data;
  std::cout << "data intact after the whole lifecycle? "
            << (intact ? "yes" : "no") << "\n";
  return intact ? 0 : 1;
}
