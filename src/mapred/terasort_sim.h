// Terasort MapReduce simulator reproducing the paper's Figs. 4 and 5.
//
// The paper runs Terasort at load points 25..100% on two testbeds and
// reports job execution time, network traffic, and data locality per
// coding scheme. This simulator models exactly the mechanisms those
// metrics depend on:
//
//  * map tasks are assigned by Hadoop's delay scheduler over the block
//    placement the chosen code induces (sched/);
//  * a map task reads its block from local disk, or -- when remote -- from
//    a replica holder's disk across the shared switch; disks and the
//    switch are fluid processor-sharing resources, so remote fetches slow
//    both the fetching task and the serving node's local readers;
//  * remote task launches also pay a fixed streaming/setup penalty
//    (observed in the paper's laptop-class testbed);
//  * "network traffic" counts map-input bytes that crossed the network
//    (remote fetches and on-the-fly degraded reads) plus control-plane
//    overhead; Terasort's shuffle is simulated for job time and reported
//    separately, matching the scale of the paper's traffic panels;
//  * with injected node failures, a task whose every replica holder is
//    down performs an on-the-fly repair (Section 3.1): its read volume is
//    the repair plan's network_bytes -- 3 blocks for a pentagon
//    doubly-lost block vs 9 for (10,9) RAID+m.
//
// Absolute seconds depend on service-time calibration (documented in
// docs/paper_map.md); the cross-code comparisons do not.
//
// Why this keeps its own fluid processor-sharing model instead of running
// on net::NetworkModel: the job-time differences the paper reports in
// Section 4 come from *disks*. A polygon code puts several blocks of one
// stripe on each node, so the map tasks reading them share that node's
// disk, and a remote fetch slows the serving node's local readers too.
// Here every reader of a disk gets an equal share of it at every instant.
// net::NetworkModel has per-hop FIFO store-and-forward links and no
// disks, so it cannot express that contention; moving onto it would drop
// the very slowdown the figures measure.
#pragma once

#include <set>
#include <string>

#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/code.h"
#include "sched/schedulers.h"

namespace dblrep::mapred {

struct JobConfig {
  cluster::Topology topology;
  int map_slots = 2;
  int reduce_slots = 1;
  double block_bytes = 128e6;
  double load = 1.0;

  // Service model (calibrated to the paper's set-up 1 band of 70-110 s).
  double startup_seconds = 20.0;       // job submission + JVM spin-up
  double map_cpu_seconds = 45.0;       // sort/spill per 128 MB block
  double reduce_tail_seconds = 15.0;   // merge + write after shuffle
  double remote_penalty_seconds = 12.0;  // per-task remote streaming cost
  double task_stagger_seconds = 1.0;   // heartbeat launch spacing per node
  double overhead_traffic_bytes = 100e6;  // control-plane chatter per job

  /// Cluster nodes that are down during the job (failure injection).
  std::set<cluster::NodeId> down_nodes;

  int trials = 5;
  std::uint64_t seed = 42;
};

struct JobMetrics {
  double job_seconds = 0;
  double map_input_traffic_bytes = 0;  // the paper's "network traffic"
  double shuffle_traffic_bytes = 0;    // reported separately
  double locality = 0;                 // fraction of local map tasks
  double degraded_read_tasks = 0;      // served via on-the-fly repair
  double degraded_read_bytes = 0;      // network bytes of those repairs
  double unrunnable_tasks = 0;         // block unrecoverable (data loss)
};

/// Runs `trials` independent simulations of a Terasort job over a
/// `code`-encoded input using `scheduler` for map-task assignment, and
/// returns per-metric means.
JobMetrics run_terasort(const ec::CodeScheme& code, sched::Scheduler& scheduler,
                        const JobConfig& config);

/// The paper's experimental configurations.
JobConfig setup1_config();  // 25 nodes, 2 map + 1 reduce slots, 128 MB
JobConfig setup2_config();  // 9 nodes, 4 map + 2 reduce slots, 512 MB

}  // namespace dblrep::mapred
