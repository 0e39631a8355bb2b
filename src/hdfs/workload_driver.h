// WorkloadDriver: closed-loop client traffic against a MiniDfs.
//
// The paper's deployment context -- and the regime "XORing Elephants"
// (Sathiamoorthy et al.) and "Optimal Repair Layering" (Hu et al.) evaluate
// -- is an HDFS-RAID cluster serving foreground read/write traffic while
// node repairs run in the background. The driver reproduces that: N client
// threads each issue a closed loop of operations (read / write / degraded
// read / byte-range pread / streaming append, mixed by configurable
// fractions) through an hdfs::Client against the shared DFS, optionally
// while repair_all() executes on a background thread. Each client collects
// per-op latency into private RunningStat/Histogram instances that are
// merged lock-free at join time.
//
// Degraded reads are real ones: before the run the driver crash-fails
// `fail_nodes` nodes and indexes every block whose replicas were all lost;
// the degraded mix then reads exactly those blocks, exercising the
// on-the-fly ec::RepairPlan path under concurrency. The pread mix reads
// random sub-file byte ranges (the MapReduce-task access pattern); the
// append mix streams each new file through a FileWriter handle across
// several append ops before sealing it -- the chunks partition the shared
// payload, so a file that received its full complement of appends holds
// exactly the payload bytes (a handle still open when the loop ends seals
// as a prefix of it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "hdfs/client.h"
#include "hdfs/minidfs.h"

namespace dblrep::hdfs {

struct WorkloadOptions {
  std::size_t clients = 4;
  std::size_t ops_per_client = 50;

  /// Op mix; fractions are normalized by their sum. "degraded" falls back
  /// to a plain read when no block is actually degraded (healthy cluster).
  /// pread reads a random byte range of a preloaded file; append streams a
  /// new file through a FileWriter handle, one append op at a time, and
  /// seals it after `appends_per_file` ops. The new mixes default to zero
  /// so existing drivers (and chaos replays) are unchanged.
  double read_fraction = 0.6;
  double write_fraction = 0.2;
  double degraded_fraction = 0.2;
  double pread_fraction = 0.0;
  double append_fraction = 0.0;

  /// Append ops a streaming file spreads over before close(); the chunks
  /// partition the shared payload, so a sealed append file holds exactly
  /// the same bytes as a written one.
  std::size_t appends_per_file = 4;

  std::string code_spec = "rs-10-4";
  std::size_t block_size = 4096;
  std::size_t stripes_per_file = 2;
  std::size_t preload_files = 8;

  /// Namespace root for every path the driver creates. Give each driver its
  /// own prefix to run several against one DFS (the chaos harness fires
  /// many bursts into a long-lived cluster).
  std::string path_prefix = "/wl";

  /// Nodes crash-failed before the clients start (picked deterministically
  /// from the first stripe's placement so data is actually lost).
  std::size_t fail_nodes = 0;

  /// Run repair_all() on a background thread concurrently with the
  /// clients -- the workload-under-repair scenario.
  bool repair_concurrently = false;

  /// Zipf exponent of the preloaded-file popularity distribution the read
  /// and pread mixes draw from. 0 (the default) keeps the original uniform
  /// pick -- and the exact per-seed RNG draw sequence, so existing mixes
  /// and chaos replays are byte-identical. s > 0 skews toward the first
  /// preloaded files (rank 0 = hottest), the access pattern tiering is
  /// built for; s around 1 matches the classic web/MapReduce skew.
  double zipf_s = 0;

  std::uint64_t seed = 1;
};

/// Inverse-CDF sampler over ranks {0, ..., n-1} with probability
/// proportional to 1 / (rank + 1)^s. One next_double per sample, so
/// swapping it in for a uniform pick consumes the same RNG budget per op.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Draws a rank (0 = most popular).
  std::size_t sample(Rng& rng) const;

  /// P(rank) under the distribution.
  double probability(std::size_t rank) const;

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r), last entry 1.0
};

/// Per-operation-type latency record. Latencies are microseconds.
struct OpStats {
  RunningStat latency_us;
  Histogram latency_hist = Histogram::log_spaced(1.0, 1e7, 4);
  std::size_t errors = 0;

  void record(double us, bool ok);
  void merge(const OpStats& other);

  // Tail quantiles off the log-spaced histogram. p999 is the paper-regime
  // headline: repair storms show up in the extreme tail long before they
  // move the mean.
  double p50_us() const { return latency_hist.quantile(0.50); }
  double p99_us() const { return latency_hist.quantile(0.99); }
  double p999_us() const { return latency_hist.quantile(0.999); }

  /// JSON object: count/errors/mean/min/max/p50/p99/p999 plus the raw
  /// histogram counts (underflow and overflow buckets included).
  std::string to_json() const;
};

struct WorkloadReport {
  OpStats read;
  OpStats write;
  OpStats degraded;
  OpStats pread;
  OpStats append;

  double wall_s = 0;
  double ops_per_s = 0;

  /// Wall time of the concurrent repair_all(), 0 when not requested.
  double repair_s = 0;
  Status repair_status;

  /// Wire traffic the run generated (TrafficMeter delta over the run):
  /// node-to-node bytes split intra- vs cross-rack per the topology, plus
  /// client-facing bytes in either direction (write uploads as well as
  /// read deliveries). Each is its own meter delta, so
  /// total == intra + cross + client is a check, not a definition.
  double traffic_total_bytes = 0;
  double traffic_intra_rack_bytes = 0;
  double traffic_cross_rack_bytes = 0;
  double traffic_client_bytes = 0;

  std::size_t total_ops() const {
    return read.latency_us.count() + write.latency_us.count() +
           degraded.latency_us.count() + pread.latency_us.count() +
           append.latency_us.count();
  }
  std::size_t total_errors() const {
    return read.errors + write.errors + degraded.errors + pread.errors +
           append.errors;
  }

  /// Full report as one JSON object: per-op OpStats (histograms included),
  /// throughput, repair wall time, and the traffic split -- the `--json`
  /// export surface of the workload benches.
  std::string to_json() const;
};

class WorkloadDriver {
 public:
  WorkloadDriver(MiniDfs& dfs, WorkloadOptions options);

  /// Writes the initial file population the read mix will target. Must be
  /// called (successfully) before run().
  Status preload();

  /// Fails nodes, spawns the clients (and the background repair when
  /// configured), joins everything, and returns the merged report.
  Result<WorkloadReport> run();

  /// The shared payload every write stores -- callers (the chaos harness)
  /// use it as the ground-truth contents of driver-created files.
  const Buffer& payload() const { return payload_; }
  const std::vector<std::string>& preloaded_paths() const {
    return preloaded_;
  }

 private:
  struct ClientStats {
    OpStats read, write, degraded, pread, append;
  };

  void client_loop(std::size_t client_index, Rng rng, ClientStats& stats);

  MiniDfs* dfs_;
  WorkloadOptions options_;
  std::vector<std::string> preloaded_;
  Buffer payload_;  // shared immutable write payload
  std::vector<std::pair<std::string, std::size_t>> degraded_blocks_;
};

}  // namespace dblrep::hdfs
