// dpbench: the end-to-end benchmark of the dblrep data plane.
//
// Runs one named workload against an in-process hdfs::MiniDfs on the
// paper's set-up 1 (25 nodes, one rack, default placement) with 1 MiB
// blocks, checks every byte it reads against the seeded payload, and prints
// every metric by name and unit. The last line of stdout is one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. README.md defines each workload and metric and says which
// optimisation should move which number.
//
// Usage: dpbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--out-dir DIR] [--rev TEXT]
//
// Exit status: 0 when every operation succeeded and every byte matched;
// 1 on any failure or mismatch (the JSON line still reports it); 2 on bad
// arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "ec/code.h"
#include "ec/registry.h"
#include "ec/repair.h"
#include "ec/stripe_codec.h"
#include "exec/thread_pool.h"
#include "gf/kernel.h"
#include "hdfs/client.h"
#include "hdfs/datanode.h"
#include "hdfs/minidfs.h"
#include "hdfs/raidnode.h"
#include "hdfs/workload_driver.h"
#include "net/transfer.h"
#include "trace.h"

namespace dpbench {
namespace {

using namespace dblrep;

constexpr std::size_t kMiB = std::size_t{1} << 20;
// 1 MiB blocks: the paper's 128 MiB scaled down so the data set fits in RAM
// while whole-block costs still show.
constexpr std::size_t kBlock = kMiB;
// HDFS packet size; deliberately not stripe-aligned.
constexpr std::size_t kAppendChunk = 64 * 1024;
constexpr std::size_t kSmallRead = 4096;
// Fixed, recorded worker and client counts (never hardware_concurrency):
// read clients + pool workers = 4 = nproc of the reference host; ingest runs
// one writer client so stripe allocation order, and with it the layout, is
// the same in every run. Degraded reads run one client: two clients
// gathering the same few stripes would serialize on the same DataNode locks
// and time each other's convoy instead of the decode path.
constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kReadClients = 2;
constexpr std::size_t kDegradedClients = 1;
constexpr std::size_t kWriteClients = 1;
// Placement seed and block popularity order, fixed: every run sees the same
// layout, failure geometry and hot set. The workload seed drives payload
// bytes, read offsets and the sequence of blocks drawn.
constexpr std::uint64_t kClusterSeed = 2014;
constexpr std::uint64_t kPopularitySeed = 2014;
constexpr int kSetupReps = 5;
constexpr double kZipfS = 1.0;
// ingest_scan's first cycle grows the heap to the data set's size and runs
// slow; it is a warm-up and not measured.
constexpr int kWarmupCycles = 1;
constexpr int kMinIngestCycles = 3;
const char* const kRetierTarget = "heptagon-local";

struct FileSpec {
  std::string path;
  std::string scheme;
  std::size_t offset = 0;  // into the payload
  std::size_t length = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
  std::string rev = "unknown";
};

/// One stage of a replayed read: the layer call dpbench re-issued and
/// how long it took.
struct Stage {
  const char* name;
  double us;
};

struct Ctx {
  explicit Ctx(const Args& a) : args(a), tracer(a.trace) {}

  Args args;
  cluster::Topology topo = cluster::setup1_topology();
  exec::ThreadPool pool{kPoolWorkers};
  Tracer tracer;
  net::TransferLog transfer_log;
  Buffer payload;
  std::vector<FileSpec> files;

  std::atomic<std::size_t> attempted{0};
  std::atomic<std::size_t> failed{0};
  std::mutex err_mu;  // guards errors
  std::vector<std::string> errors;

  Metrics e2e;
  Metrics layer;
  Metrics detail;  // breakdowns under their own names, printed, not gated
  // Samples behind a metric, by metric name; "<name>.beyond" counts the
  // samples above a percentile.
  std::map<std::string, std::size_t> samples;

  std::mutex stage_mu;  // guards stage_us and the byte counts below
  std::map<std::string, std::vector<double>> stage_us;
  double replay_get_bytes = 0;
  double replay_read_bytes = 0;
  double writer_buffered_bytes = 0;
  double writer_zero_copy_bytes = 0;
};

double now_us(const Ctx& ctx) { return ctx.tracer.now_us(); }

void fail(Ctx& ctx, const std::string& why) {
  ctx.failed.fetch_add(1);
  std::lock_guard<std::mutex> lock(ctx.err_mu);
  if (ctx.errors.size() < 20) {
    ctx.errors.push_back(why);
    std::cerr << "dpbench: FAILED: " << why << "\n";
  }
}

void add_stage(Ctx& ctx, const std::string& name, double us) {
  std::lock_guard<std::mutex> lock(ctx.stage_mu);
  ctx.stage_us[name].push_back(us);
}

std::vector<double> stage_samples(Ctx& ctx, const std::string& name) {
  std::lock_guard<std::mutex> lock(ctx.stage_mu);
  const auto it = ctx.stage_us.find(name);
  return it == ctx.stage_us.end() ? std::vector<double>{} : it->second;
}

/// Compares bytes read with the payload they must equal.
bool check_bytes(Ctx& ctx, ByteSpan got, std::size_t payload_offset,
                 std::size_t expect_len, const std::string& what) {
  if (got.size() != expect_len ||
      payload_offset + expect_len > ctx.payload.size() ||
      std::memcmp(got.data(), ctx.payload.data() + payload_offset,
                  expect_len) != 0) {
    fail(ctx, "byte mismatch: " + what);
    return false;
  }
  return true;
}

/// Runs body(client) on `n` threads and joins them all.
void run_clients(Ctx& ctx, std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&ctx, &body, c] {
      try {
        body(c);
      } catch (const std::exception& e) {
        fail(ctx, std::string("client exception: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
}

std::unique_ptr<hdfs::MiniDfs> make_dfs(Ctx& ctx) {
  hdfs::MiniDfsOptions options;
  // The transfer log is attached only in the traced run.
  if (ctx.args.trace) options.transfer_log = &ctx.transfer_log;
  return std::make_unique<hdfs::MiniDfs>(ctx.topo, kClusterSeed, &ctx.pool,
                                         options);
}

// ---------------------------------------------------------------- file sets

/// The workload's files, each a distinct slice of the payload. Sizes are
/// whole stripes of their scheme (pentagon: 9 blocks, heptagon-local: 40),
/// so storage overhead carries no padding.
std::vector<FileSpec> file_set(const std::string& workload) {
  std::vector<std::pair<std::string, std::size_t>> shape;
  if (workload == "degraded_repair") {
    shape = {{"pentagon", 18}, {"pentagon", 18}, {"heptagon-local", 40}};
  } else {
    shape = {{"3-rep", 40},    {"3-rep", 40},          {"pentagon", 18},
             {"pentagon", 18}, {"heptagon-local", 40}, {"heptagon-local", 40}};
  }
  std::vector<FileSpec> files;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    FileSpec f;
    f.path = "/data/" + shape[i].first + "-" + std::to_string(i);
    f.scheme = shape[i].first;
    f.offset = offset;
    f.length = shape[i].second * kMiB;
    offset += f.length;
    files.push_back(f);
  }
  return files;
}

std::size_t logical_bytes(const std::vector<FileSpec>& files) {
  std::size_t total = 0;
  for (const auto& f : files) total += f.length;
  return total;
}

// ------------------------------------------------------------------ ingest

struct IngestResult {
  double wall_s = 0;
  std::size_t bytes = 0;
};

/// Streams `files` through Client::create / FileWriter::append in 64 KiB
/// chunks, one writer client, closing each file before the next.
IngestResult ingest(Ctx& ctx, hdfs::MiniDfs& dfs,
                    const std::vector<FileSpec>& files) {
  IngestResult result;
  hdfs::Client client(dfs);
  const double t0 = now_us(ctx);
  std::size_t buffered = 0;
  std::size_t zero_copy = 0;
  for (const FileSpec& f : files) {
    ctx.attempted.fetch_add(1);
    const std::uint64_t op = ctx.tracer.new_op();
    const std::uint64_t file_span = ctx.tracer.reserve_id();
    const double f0 = now_us(ctx);
    auto writer = client.create(f.path, f.scheme, kBlock);
    if (!writer.is_ok()) {
      fail(ctx, "create " + f.path + ": " + writer.status().to_string());
      continue;
    }
    Status status;
    for (std::size_t off = 0; off < f.length && status.is_ok();
         off += kAppendChunk) {
      const std::size_t n = std::min(kAppendChunk, f.length - off);
      const double a0 = now_us(ctx);
      status = writer->append(ByteSpan(ctx.payload.data() + f.offset + off, n));
      const double a1 = now_us(ctx);
      ctx.tracer.record("hdfs.client.append", file_span, op, a0, a1);
      add_stage(ctx, "hdfs.client.append", a1 - a0);
    }
    buffered += writer->stats().buffered_bytes;
    zero_copy += writer->stats().zero_copy_bytes;
    const double c0 = now_us(ctx);
    const Status closed = status.is_ok() ? writer->close() : writer->abort();
    const double c1 = now_us(ctx);
    ctx.tracer.record("hdfs.client.close", file_span, op, c0, c1);
    ctx.tracer.record("op.ingest_file", 0, op, f0, c1, file_span);
    add_stage(ctx, "hdfs.client.close", c1 - c0);
    if (!status.is_ok() || !closed.is_ok()) {
      fail(ctx, "write " + f.path + ": " +
                    (status.is_ok() ? closed : status).to_string());
      continue;
    }
    result.bytes += f.length;
  }
  result.wall_s = (now_us(ctx) - t0) / 1e6;
  std::lock_guard<std::mutex> lock(ctx.stage_mu);
  ctx.writer_buffered_bytes += static_cast<double>(buffered);
  ctx.writer_zero_copy_bytes += static_cast<double>(zero_copy);
  return result;
}

// ------------------------------------------------------- read replay tracing
//
// Tracing inside src/ is a later change, so a traced read is followed by a
// replay: dpbench re-issues, one at a time, the public layer calls that
// MiniDfs::pread makes for that range, times each, and lays them out as
// child spans inside the read's own interval. The read's self time is then
// its duration minus those children, so children plus self account for the
// whole op.

ec::PlanExecutor& thread_executor(const ec::CodeScheme& code) {
  thread_local std::map<const ec::CodeScheme*,
                        std::unique_ptr<ec::PlanExecutor>> executors;
  auto& slot = executors[&code];
  if (!slot) slot = std::make_unique<ec::PlanExecutor>(code.layout());
  return *slot;
}

std::vector<Stage> replay_read(Ctx& ctx, hdfs::MiniDfs& dfs, const FileSpec& f,
                               std::size_t offset, std::size_t len,
                               bool degraded) {
  std::vector<Stage> stages;
  double t = now_us(ctx);
  auto info = dfs.namenode().lookup(f.path);
  stages.push_back({"hdfs.namenode.lookup", now_us(ctx) - t});
  if (!info.is_ok() || info->stripes.empty()) {
    fail(ctx, "replay lookup " + f.path);
    return stages;
  }
  t = now_us(ctx);
  (void)exec::parallel_for_all(dfs.pool(), 1,
                               [](std::size_t) { return Status::ok(); });
  stages.push_back({"exec.parallel_for_all", now_us(ctx) - t});

  const ec::CodeScheme& code = *dfs.namenode().stripe(info->stripes[0]).code;
  const std::size_t block = offset / kBlock;
  const cluster::StripeId stripe = info->stripes[block / code.data_blocks()];
  const std::size_t symbol = block % code.data_blocks();
  double get_bytes = 0;
  if (!degraded) {
    for (std::size_t slot : code.layout().slots_of_symbol(symbol)) {
      const cluster::NodeId node = dfs.namenode().node_of({stripe, slot});
      t = now_us(ctx);
      auto got = dfs.datanode(node).get({stripe, slot});
      const double d = now_us(ctx) - t;
      if (got.is_ok()) {
        stages.push_back({"hdfs.datanode.get", d});
        get_bytes += static_cast<double>(got->size());
        break;
      }
    }
  } else {
    t = now_us(ctx);
    ec::SlotStore store;
    for (std::size_t slot = 0; slot < code.layout().num_slots(); ++slot) {
      const cluster::NodeId node = dfs.namenode().node_of({stripe, slot});
      auto got = dfs.datanode(node).get({stripe, slot});
      if (got.is_ok()) {
        get_bytes += static_cast<double>(got->size());
        store[slot] = std::move(*got);
      }
    }
    stages.push_back({"hdfs.minidfs.gather_stripe", now_us(ctx) - t});
    std::set<ec::NodeIndex> failed;
    const auto& group = dfs.namenode().stripe(stripe).group;
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t slot :
           code.layout().slots_on_node(static_cast<ec::NodeIndex>(i))) {
        if (!store.contains(slot)) {
          failed.insert(static_cast<ec::NodeIndex>(i));
          break;
        }
      }
    }
    t = now_us(ctx);
    auto plan = code.plan_degraded_block(symbol, failed);
    stages.push_back({"ec.plan_degraded_block", now_us(ctx) - t});
    if (!plan.is_ok()) {
      fail(ctx, "replay plan " + f.path + ": " + plan.status().to_string());
      return stages;
    }
    ec::PlanExecutor& executor = thread_executor(code);
    t = now_us(ctx);
    auto delivered = executor.execute(*plan, store);
    stages.push_back({"ec.plan_executor.execute", now_us(ctx) - t});
    if (!delivered.is_ok() || delivered->size() != 1) {
      fail(ctx, "replay execute " + f.path);
      return stages;
    }
    check_bytes(ctx, delivered->front(), f.offset + block * kBlock, kBlock,
                "replayed degraded decode of " + f.path);
  }
  std::lock_guard<std::mutex> lock(ctx.stage_mu);
  ctx.replay_get_bytes += get_bytes;
  ctx.replay_read_bytes += static_cast<double>(len);
  return stages;
}

/// Lays replayed stages end to end from the op's start, clipped to its end.
void lay_out(Ctx& ctx, const std::vector<Stage>& stages, std::uint64_t parent,
             std::uint64_t op, double start_us, double end_us) {
  double cursor = start_us;
  for (const Stage& s : stages) {
    const double lo = std::min(cursor, end_us);
    const double hi = std::min(cursor + s.us, end_us);
    ctx.tracer.record(s.name, parent, op, lo, hi);
    add_stage(ctx, s.name, s.us);
    cursor += s.us;
  }
}

/// One client pread of [offset, offset + len) of `f`, checked byte for
/// byte. Returns the latency in microseconds, or a negative value on
/// failure. A traced read is replayed (see above).
double timed_read(Ctx& ctx, hdfs::Client& client, hdfs::MiniDfs& dfs,
                  const FileSpec& f, std::size_t offset, std::size_t len,
                  bool degraded, bool traced) {
  ctx.attempted.fetch_add(1);
  const double t0 = now_us(ctx);
  auto got = client.pread(f.path, offset, len);
  const double t1 = now_us(ctx);
  if (!got.is_ok()) {
    fail(ctx, "pread " + f.path + ": " + got.status().to_string());
    return -1;
  }
  if (!check_bytes(ctx, *got, f.offset + offset, len,
                   f.path + " @" + std::to_string(offset))) {
    return -1;
  }
  if (traced) {
    const std::uint64_t op = ctx.tracer.new_op();
    const std::uint64_t span = ctx.tracer.reserve_id();
    lay_out(ctx, replay_read(ctx, dfs, f, offset, len, degraded), span, op, t0,
            t1);
    ctx.tracer.record(degraded ? "hdfs.client.pread_degraded"
                               : "hdfs.client.pread",
                      0, op, t0, t1, span);
    add_stage(ctx, degraded ? "traced.degraded_read" : "traced.read", t1 - t0);
  } else if (ctx.args.trace) {
    add_stage(ctx, degraded ? "untraced.degraded_read" : "untraced.read",
              t1 - t0);
  }
  return t1 - t0;
}

// --------------------------------------------------------- latency summary

struct ReadPhase {
  std::vector<double> lat_us;
  std::size_t ops = 0;
  double wall_s = 0;
  double wire_bytes = 0;
  double read_bytes = 0;
};

/// Merges the per-client samples of a phase that started at `t0_us`, with
/// the wire meter at `wire0`, into one phase of `read_len`-byte reads.
ReadPhase merge_reads(Ctx& ctx, hdfs::MiniDfs& dfs,
                      const std::vector<ReadPhase>& per, double t0_us,
                      double wire0, std::size_t read_len) {
  ReadPhase all;
  all.wall_s = (now_us(ctx) - t0_us) / 1e6;
  for (const auto& p : per) {
    all.ops += p.ops;
    all.lat_us.insert(all.lat_us.end(), p.lat_us.begin(), p.lat_us.end());
  }
  all.wire_bytes = dfs.traffic().total_bytes() - wire0;
  all.read_bytes = static_cast<double>(all.ops * read_len);
  return all;
}

/// The read metrics of a phase. `ops_per_s` comes from the caller: scan
/// throughput is a median over cycles, the others a rate over the phase.
void report_reads(Ctx& ctx, const ReadPhase& r, const std::string& prefix,
                  double ops_per_s, std::size_t ops_samples) {
  ctx.e2e["read_ops_per_s"] = {ops_per_s, "1/s"};
  ctx.samples["read_ops_per_s"] = ops_samples;
  const std::size_t n = r.lat_us.size();
  ctx.e2e["read_p50_us"] = {quantile(r.lat_us, 0.50), "us"};
  ctx.e2e["read_p90_us"] = {quantile(r.lat_us, 0.90), "us"};
  for (const auto& [name, q] : {std::pair<std::string, double>{"read_p50_us", 0.5},
                                 {"read_p90_us", 0.9}}) {
    ctx.samples[name] = n;
    ctx.samples[name + ".beyond"] = samples_beyond(n, q);
  }
  if (samples_beyond(n, 0.99) >= 10) {
    ctx.detail[prefix + "_p99_us"] = {quantile(r.lat_us, 0.99), "us"};
    ctx.samples[prefix + "_p99_us"] = n;
    ctx.samples[prefix + "_p99_us.beyond"] = samples_beyond(n, 0.99);
  }
  ctx.e2e["wire_bytes_per_read_byte"] = {r.wire_bytes / r.read_bytes, "ratio"};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ------------------------------------------------------------ failure pairs

/// Blocks (file index, block index) whose every replica sits on one node
/// pair, by scheme: failing that pair forces a decode to read them.
struct LostBlocks {
  cluster::NodeId a = -1;
  cluster::NodeId b = -1;
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      by_scheme;
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& [scheme, blocks] : by_scheme) n += blocks.size();
    return n;
  }
};

/// Picks the node pair whose double failure loses blocks of the most
/// schemes, then the most blocks; ties go to the lowest pair. The layout is
/// fixed by kClusterSeed, so the pick is the same in every run.
LostBlocks choose_pair(Ctx& ctx, hdfs::MiniDfs& dfs,
                       const std::vector<FileSpec>& files) {
  std::map<std::pair<cluster::NodeId, cluster::NodeId>, LostBlocks> pairs;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileSpec& f = files[fi];
    if (f.scheme != "pentagon" && f.scheme != "heptagon-local") continue;
    auto info = dfs.stat(f.path);
    if (!info.is_ok()) {
      fail(ctx, "stat " + f.path);
      continue;
    }
    for (std::size_t si = 0; si < info->stripes.size(); ++si) {
      const auto& stripe = dfs.namenode().stripe(info->stripes[si]);
      const ec::CodeScheme& code = *stripe.code;
      for (std::size_t sym = 0; sym < code.data_blocks(); ++sym) {
        const std::size_t block = si * code.data_blocks() + sym;
        if (block * kBlock >= f.length) break;
        std::set<cluster::NodeId> nodes;
        for (std::size_t slot : code.layout().slots_of_symbol(sym)) {
          nodes.insert(stripe.group[static_cast<std::size_t>(
              code.layout().node_of_slot(slot))]);
        }
        if (nodes.size() != 2) continue;
        const auto key = std::make_pair(*nodes.begin(), *nodes.rbegin());
        LostBlocks& lost = pairs[key];
        lost.a = key.first;
        lost.b = key.second;
        lost.by_scheme[f.scheme].emplace_back(fi, block);
      }
    }
  }
  LostBlocks best;
  for (const auto& [key, lost] : pairs) {
    if (lost.by_scheme.size() > best.by_scheme.size() ||
        (lost.by_scheme.size() == best.by_scheme.size() &&
         lost.count() > best.count())) {
      best = lost;
    }
  }
  return best;
}

/// The degraded-read mix of one round: three pentagon reads to one
/// heptagon-local read, so the median sits among pentagon reads and the
/// 90th percentile among heptagon-local ones whatever their speeds.
std::vector<std::string> round_schemes(const LostBlocks& lost) {
  const bool pent = lost.by_scheme.contains("pentagon");
  const bool hept = lost.by_scheme.contains("heptagon-local");
  if (pent && hept) return {"pentagon", "pentagon", "pentagon", "heptagon-local"};
  return std::vector<std::string>(4, pent ? "pentagon" : "heptagon-local");
}

/// Closed-loop degraded 4 KiB reads aimed only at `lost` blocks, in whole
/// rounds, until `deadline_us` (and at least `min_rounds` per client).
ReadPhase degraded_reads(Ctx& ctx, hdfs::MiniDfs& dfs,
                         const std::vector<FileSpec>& files,
                         const LostBlocks& lost, double deadline_us,
                         std::size_t min_rounds, bool traced) {
  const auto schemes = round_schemes(lost);
  std::vector<ReadPhase> per(kDegradedClients);
  const double wire0 = dfs.traffic().total_bytes();
  const double t0 = now_us(ctx);
  run_clients(ctx, kDegradedClients, [&](std::size_t c) {
    Rng rng(ctx.args.seed * 7919 + 101 + c);
    hdfs::Client client(dfs);
    std::size_t rounds = 0;
    while (rounds < min_rounds || now_us(ctx) < deadline_us) {
      for (const std::string& scheme : schemes) {
        const auto& blocks = lost.by_scheme.at(scheme);
        const auto [fi, block] = blocks[rng.next_below(blocks.size())];
        const std::size_t offset =
            block * kBlock + rng.next_below(kBlock - kSmallRead + 1);
        // Whole rounds alternate traced and untraced, so both halves carry
        // the same scheme mix.
        const double us =
            timed_read(ctx, client, dfs, files[fi], offset, kSmallRead, true,
                       traced && rounds % 2 == 1);
        ++per[c].ops;
        if (us >= 0) per[c].lat_us.push_back(us);
      }
      ++rounds;
    }
  });
  return merge_reads(ctx, dfs, per, t0, wire0, kSmallRead);
}

/// Uniform healthy 4 KiB reads (the probe for workloads that have none).
void healthy_probe_reads(Ctx& ctx, hdfs::MiniDfs& dfs,
                         const std::vector<FileSpec>& files, std::size_t n) {
  Rng rng(ctx.args.seed * 31 + 7);
  hdfs::Client client(dfs);
  for (std::size_t i = 0; i < n; ++i) {
    const FileSpec& f = files[rng.next_below(files.size())];
    const std::size_t offset = rng.next_below(f.length - kSmallRead + 1);
    timed_read(ctx, client, dfs, f, offset, kSmallRead, false, true);
  }
}

/// Full read-back of every file, compared with the payload.
void read_back(Ctx& ctx, hdfs::MiniDfs& dfs, const std::vector<FileSpec>& files) {
  for (const FileSpec& f : files) {
    ctx.attempted.fetch_add(1);
    auto got = dfs.read_file(f.path);
    if (!got.is_ok()) {
      fail(ctx, "read-back " + f.path + ": " + got.status().to_string());
      continue;
    }
    check_bytes(ctx, *got, f.offset, f.length, "read-back of " + f.path);
  }
}

std::size_t stored_on(hdfs::MiniDfs& dfs, cluster::NodeId a, cluster::NodeId b) {
  return dfs.datanode(a).bytes_stored() + dfs.datanode(b).bytes_stored();
}

// ------------------------------------------------------------ layer probes
//
// The traced run ends with probes that call each layer's public functions
// on the workload's payload and cluster, identically in every workload, so
// every per-layer metric exists for every workload.

double gbps(double bytes, double us) { return bytes / (us * 1e3); }

void probe_roofs(Ctx& ctx) {
  const std::size_t span = std::min<std::size_t>(64 * kMiB, ctx.payload.size());
  Buffer dst(span);
  std::vector<double> memcpy_gbps;
  std::vector<double> crc_gbps;
  for (int rep = 0; rep < 5; ++rep) {
    double t = now_us(ctx);
    std::memcpy(dst.data(), ctx.payload.data(), span);
    memcpy_gbps.push_back(gbps(static_cast<double>(span), now_us(ctx) - t));
    t = now_us(ctx);
    (void)crc32c(ByteSpan(ctx.payload.data(), 16 * kMiB));
    crc_gbps.push_back(gbps(16.0 * kMiB, now_us(ctx) - t));
  }
  ctx.layer["common.memcpy_GBps"] = {median(memcpy_gbps), "GB/s"};
  ctx.layer["common.crc32c_GBps"] = {median(crc_gbps), "GB/s"};

  // 3-rep is left out: its "encode" hands out views of the input.
  for (const std::string spec : {"pentagon", "heptagon-local"}) {
    auto code = ec::make_code(spec);
    if (!code.is_ok()) {
      fail(ctx, "make_code " + spec);
      continue;
    }
    ec::StripeCodec codec(**code);
    const std::size_t stripe = codec.stripe_bytes(kBlock);
    const std::size_t bytes = std::max<std::size_t>(1, 45 * kMiB / stripe) * stripe;
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      std::size_t seen = 0;
      const double t = now_us(ctx);
      const Status st = codec.encode_batch(
          ByteSpan(ctx.payload.data(), bytes), kBlock,
          [&](std::size_t, std::span<const ByteSpan> symbols) {
            seen += symbols.size();
            return Status::ok();
          });
      rates.push_back(gbps(static_cast<double>(bytes), now_us(ctx) - t));
      if (!st.is_ok() || seen == 0) fail(ctx, "encode_batch " + spec);
    }
    ctx.layer["ec.encode_GBps." + spec] = {median(rates), "GB/s"};

    // Degraded block read with both replicas of block 0 lost, executed on
    // one stripe of the payload.
    std::vector<Buffer> data = ec::chunk_data(
        ByteSpan(ctx.payload.data(), stripe), (*code)->data_blocks(), kBlock);
    const std::vector<Buffer> slots = (*code)->encode(data);
    const auto& layout = (*code)->layout();
    std::set<ec::NodeIndex> failed;
    for (std::size_t slot : layout.slots_of_symbol(0)) {
      failed.insert(layout.node_of_slot(slot));
    }
    auto plan = (*code)->plan_degraded_block(0, failed);
    if (!plan.is_ok()) {
      fail(ctx, "plan_degraded_block " + spec);
      continue;
    }
    ec::PlanExecutor executor(layout);
    std::vector<double> exec_us;
    for (int rep = 0; rep < 5; ++rep) {
      ec::SlotStore store;
      for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        if (!failed.contains(layout.node_of_slot(slot))) store[slot] = slots[slot];
      }
      const double t = now_us(ctx);
      auto delivered = executor.execute(*plan, store);
      exec_us.push_back(now_us(ctx) - t);
      if (!delivered.is_ok() || delivered->size() != 1) {
        fail(ctx, "degraded execute " + spec);
        break;
      }
      check_bytes(ctx, delivered->front(), 0, kBlock, "degraded probe " + spec);
    }
    ctx.layer["ec.degraded_execute_us." + spec] = {median(exec_us), "us"};
    ctx.layer["ec.degraded_plan_bytes_per_read_byte." + spec] = {
        static_cast<double>(plan->network_bytes(kBlock, 1)) / kSmallRead,
        "ratio"};
  }
}

void probe_datanode(Ctx& ctx, hdfs::MiniDfs& dfs) {
  cluster::NodeId busiest = 0;
  for (std::size_t n = 0; n < ctx.topo.num_nodes; ++n) {
    const auto id = static_cast<cluster::NodeId>(n);
    if (dfs.datanode(id).bytes_stored() > dfs.datanode(busiest).bytes_stored()) {
      busiest = id;
    }
  }
  auto addresses = dfs.datanode(busiest).stored_addresses();
  if (addresses.size() > 32) addresses.resize(32);
  double bytes = 0;
  double t = now_us(ctx);
  for (const auto& addr : addresses) {
    auto got = dfs.datanode(busiest).get(addr);
    if (got.is_ok()) bytes += static_cast<double>(got->size());
  }
  ctx.layer["hdfs.datanode.get_GBps"] = {gbps(bytes, now_us(ctx) - t), "GB/s"};

  hdfs::DataNode scratch(1000);
  const std::size_t puts = 32;
  t = now_us(ctx);
  for (std::size_t i = 0; i < puts; ++i) {
    (void)scratch.put({static_cast<cluster::StripeId>(i), 0},
                      ByteSpan(ctx.payload.data() + i * kBlock, kBlock));
  }
  ctx.layer["hdfs.datanode.put_GBps"] = {
      gbps(static_cast<double>(puts * kBlock), now_us(ctx) - t), "GB/s"};

  // The read clients' count of concurrent gets against that one node.
  std::vector<std::vector<double>> lat(kReadClients);
  run_clients(ctx, kReadClients, [&](std::size_t c) {
    for (const auto& addr : addresses) {
      const double g0 = now_us(ctx);
      (void)dfs.datanode(busiest).get(addr);
      lat[c].push_back(now_us(ctx) - g0);
    }
  });
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  ctx.layer["hdfs.datanode.get_contended_us"] = {median(all), "us"};
}

/// One traced pentagon write through the transaction primitives. Each
/// store_stripe gets replayed children: the stripe's encode and the puts of
/// its slots into a scratch DataNode.
void probe_write_txn(Ctx& ctx, hdfs::MiniDfs& dfs) {
  const std::string path = "/probe/txn";
  const std::string spec = "pentagon";
  auto code = ec::make_code(spec);
  if (!code.is_ok()) return fail(ctx, "make_code " + spec);
  ec::StripeCodec codec(**code);
  hdfs::DataNode scratch(1001);
  const std::size_t stripe_bytes = codec.stripe_bytes(kBlock);
  const std::uint64_t op = ctx.tracer.new_op();
  ctx.attempted.fetch_add(1);
  double t = now_us(ctx);
  Status st = dfs.begin_write(path, spec, kBlock);
  ctx.tracer.record("hdfs.minidfs.begin_write", 0, op, t, now_us(ctx));
  std::vector<double> alloc_us, store_us, self_us;
  for (std::size_t s = 0; s < 4 && st.is_ok(); ++s) {
    t = now_us(ctx);
    auto id = dfs.allocate_stripe(path);
    const double t1 = now_us(ctx);
    ctx.tracer.record("hdfs.minidfs.allocate_stripe", 0, op, t, t1);
    alloc_us.push_back(t1 - t);
    if (!id.is_ok()) {
      st = id.status();
      break;
    }
    const ByteSpan data(ctx.payload.data() + s * stripe_bytes, stripe_bytes);
    const std::uint64_t span = ctx.tracer.reserve_id();
    const double s0 = now_us(ctx);
    st = dfs.store_stripe(path, *id, data);
    const double s1 = now_us(ctx);
    std::vector<Stage> stages;
    double r = now_us(ctx);
    const auto symbols = codec.encode_stripe(data, kBlock);
    stages.push_back({"ec.stripe_codec.encode_stripe", now_us(ctx) - r});
    r = now_us(ctx);
    const auto& layout = (*code)->layout();
    for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
      (void)scratch.put({*id, slot}, symbols[layout.symbol_of_slot(slot)]);
    }
    stages.push_back({"hdfs.datanode.put", now_us(ctx) - r});
    lay_out(ctx, stages, span, op, s0, s1);
    ctx.tracer.record("hdfs.minidfs.store_stripe", 0, op, s0, s1, span);
    store_us.push_back(s1 - s0);
    double replayed = 0;
    for (const Stage& stage : stages) replayed += stage.us;
    self_us.push_back(std::max(0.0, (s1 - s0) - replayed));
  }
  if (st.is_ok()) {
    t = now_us(ctx);
    st = dfs.commit_write(path);
    const double t1 = now_us(ctx);
    ctx.tracer.record("hdfs.namenode.commit_write", 0, op, t, t1);
    ctx.layer["hdfs.namenode.commit_us"] = {t1 - t, "us"};
  }
  if (!st.is_ok()) {
    (void)dfs.abort_write(path);
    return fail(ctx, "probe write: " + st.to_string());
  }
  ctx.layer["hdfs.minidfs.allocate_us"] = {median(alloc_us), "us"};
  ctx.layer["hdfs.minidfs.store_stripe_us"] = {median(store_us), "us"};
  ctx.layer["hdfs.minidfs.store_stripe_self_us"] = {median(self_us), "us"};
  read_back(ctx, dfs, {{path, spec, 0, 4 * stripe_bytes}});
  (void)dfs.delete_file(path);
}

/// raid_file time over a separately timed read + write of the same bytes.
void probe_raid(Ctx& ctx, hdfs::MiniDfs& dfs) {
  const FileSpec src{"/probe/raid", "3-rep", 0, 40 * kMiB};
  const FileSpec copy{"/probe/raid-copy", kRetierTarget, 0, 40 * kMiB};
  ingest(ctx, dfs, {src});
  hdfs::Client client(dfs);
  double t = now_us(ctx);
  auto bytes = client.read(src.path);
  if (!bytes.is_ok()) return fail(ctx, "probe read " + src.path);
  auto writer = client.create(copy.path, copy.scheme, kBlock);
  if (!writer.is_ok()) return fail(ctx, "probe create " + copy.path);
  // RaidNode streams 16-block pieces; so does the reference copy.
  for (std::size_t off = 0; off < bytes->size(); off += 16 * kBlock) {
    const std::size_t n = std::min(16 * kBlock, bytes->size() - off);
    if (!writer->append(ByteSpan(bytes->data() + off, n)).is_ok()) {
      return fail(ctx, "probe append " + copy.path);
    }
  }
  if (!writer->close().is_ok()) return fail(ctx, "probe close " + copy.path);
  const double rw_us = now_us(ctx) - t;
  hdfs::RaidNode raid(dfs);
  ctx.attempted.fetch_add(1);
  t = now_us(ctx);
  auto report = raid.raid_file(src.path, kRetierTarget);
  const double raid_us = now_us(ctx) - t;
  if (!report.is_ok()) return fail(ctx, "probe raid " + src.path);
  ctx.layer["hdfs.raidnode.raid_vs_read_plus_write"] = {raid_us / rw_us, "ratio"};
  read_back(ctx, dfs, {src, copy});
  (void)dfs.delete_file(src.path);
  (void)dfs.delete_file(copy.path);
}

double timed_repair_all(Ctx& ctx, hdfs::MiniDfs& dfs) {
  ctx.attempted.fetch_add(1);
  const double t = now_us(ctx);
  const Status st = dfs.repair_all();
  const double us = now_us(ctx) - t;
  if (!st.is_ok()) fail(ctx, "repair_all: " + st.to_string());
  return us;
}

/// Stripes with a slot on either node of the pair.
std::size_t stripes_touched(hdfs::MiniDfs& dfs, const LostBlocks& pair) {
  std::set<cluster::StripeId> ids;
  for (auto id : dfs.namenode().stripes_on_node(pair.a)) ids.insert(id);
  for (auto id : dfs.namenode().stripes_on_node(pair.b)) ids.insert(id);
  return ids.size();
}

/// Healthy repair_all, then a double failure with traced degraded reads
/// and a repair. `repair` carries the workload's own double-failure repair
/// (us, stripes) when it already ran one.
void probe_failure(Ctx& ctx, hdfs::MiniDfs& dfs,
                   const std::vector<FileSpec>& files,
                   std::pair<double, std::size_t> repair) {
  const double noop_us = timed_repair_all(ctx, dfs);
  ctx.layer["hdfs.minidfs.repair_noop_s"] = {noop_us / 1e6, "s"};
  if (repair.second == 0) {
    const LostBlocks lost = choose_pair(ctx, dfs, files);
    if (lost.count() == 0) return fail(ctx, "no node pair shares a block");
    repair.second = stripes_touched(dfs, lost);
    (void)dfs.fail_node(lost.a);
    (void)dfs.fail_node(lost.b);
    degraded_reads(ctx, dfs, files, lost, 0, 4, true);
    repair.first = timed_repair_all(ctx, dfs);
  }
  ctx.layer["hdfs.minidfs.repair_stripe_us"] = {
      (repair.first - noop_us) / static_cast<double>(repair.second), "us"};
}

/// Per-layer metrics derived from the spans and replays.
void derive_layer_metrics(Ctx& ctx) {
  const std::vector<Span> spans = ctx.tracer.spans();
  std::map<std::string, std::vector<double>> self;
  for (const Span& s : spans) {
    if (s.name == "hdfs.client.pread" || s.name == "hdfs.client.pread_degraded") {
      self[s.name].push_back(self_time_us(s, spans));
    }
  }
  // Means, so stage means plus self mean add up to the op mean.
  ctx.layer["hdfs.minidfs.pread_self_us"] = {mean(self["hdfs.client.pread"]),
                                             "us"};
  ctx.layer["hdfs.minidfs.degraded_self_us"] = {
      mean(self["hdfs.client.pread_degraded"]), "us"};
  ctx.samples["hdfs.minidfs.pread_self_us"] = self["hdfs.client.pread"].size();
  ctx.samples["hdfs.minidfs.degraded_self_us"] =
      self["hdfs.client.pread_degraded"].size();
  ctx.layer["hdfs.namenode.lookup_us"] = {
      median(stage_samples(ctx, "hdfs.namenode.lookup")), "us"};
  ctx.layer["exec.parallel_for_dispatch_us"] = {
      median(stage_samples(ctx, "exec.parallel_for_all")), "us"};
  ctx.layer["hdfs.client.append_us"] = {
      median(stage_samples(ctx, "hdfs.client.append")), "us"};
  ctx.layer["hdfs.client.close_ms"] = {
      median(stage_samples(ctx, "hdfs.client.close")) / 1e3, "ms"};
  {
    std::lock_guard<std::mutex> lock(ctx.stage_mu);
    ctx.layer["hdfs.client.buffered_fraction"] = {
        ctx.writer_buffered_bytes /
            std::max(1.0, ctx.writer_buffered_bytes + ctx.writer_zero_copy_bytes),
        "ratio"};
    ctx.layer["hdfs.datanode.bytes_per_read_byte"] = {
        ctx.replay_get_bytes / std::max(1.0, ctx.replay_read_bytes), "ratio"};
  }
  // Tracing overhead: median latency of the real call on traced over
  // untraced ops of the same phase (1 = no overhead).
  for (const char* kind : {"read", "degraded_read"}) {
    const auto traced = stage_samples(ctx, std::string("traced.") + kind);
    const auto untraced = stage_samples(ctx, std::string("untraced.") + kind);
    if (traced.size() >= 10 && untraced.size() >= 10) {
      ctx.layer["trace.overhead_ratio"] = {median(traced) / median(untraced),
                                           "ratio"};
      break;
    }
  }
  double by_class[net::kNumTransferClasses] = {};
  for (const auto& rec : ctx.transfer_log.drain()) {
    by_class[static_cast<std::size_t>(rec.cls)] += rec.bytes;
  }
  for (auto cls : {net::TransferClass::kClientWrite,
                   net::TransferClass::kClientRead, net::TransferClass::kRepair,
                   net::TransferClass::kRetier}) {
    ctx.layer[std::string("net.bytes.") + net::to_string(cls)] = {
        by_class[static_cast<std::size_t>(cls)], "bytes"};
  }

  // Accounting: per traced op, clipped children plus self equal the op.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const char* name : {"hdfs.client.pread", "hdfs.client.pread_degraded"}) {
    double op_sum = 0;
    double parts = 0;
    std::size_t ops = 0;
    for (const Span& s : spans) {
      if (s.name == name) {
        op_sum += s.duration_us();
        parts += self_time_us(s, spans);
        ++ops;
      } else if (s.parent != 0 && by_id.contains(s.parent) &&
                 by_id[s.parent]->name == name) {
        parts += s.duration_us();
      }
    }
    if (ops == 0) continue;
    std::printf("accounting %s: ops %zu, op mean %.3f us, children+self mean "
                "%.3f us\n",
                name, ops, op_sum / static_cast<double>(ops),
                parts / static_cast<double>(ops));
    if (std::fabs(op_sum - parts) > 1e-6 * std::max(1.0, op_sum)) {
      fail(ctx, std::string("span accounting does not add up for ") + name);
    }
  }
}

void run_probes(Ctx& ctx, hdfs::MiniDfs& dfs, const std::vector<FileSpec>& files,
                std::pair<double, std::size_t> repair) {
  if (stage_samples(ctx, "traced.read").empty()) {
    healthy_probe_reads(ctx, dfs, files, 64);
  }
  probe_roofs(ctx);
  probe_datanode(ctx, dfs);
  probe_write_txn(ctx, dfs);
  probe_raid(ctx, dfs);
  probe_failure(ctx, dfs, files, repair);
  derive_layer_metrics(ctx);
}

// --------------------------------------------------------------- workloads

/// Builds the cluster kSetupReps times and keeps the last. With
/// `write_files` each set-up ingests the workload's file set; otherwise it
/// warms every scheme's runtime with one stripe each.
std::unique_ptr<hdfs::MiniDfs> set_up(Ctx& ctx, bool write_files) {
  std::unique_ptr<hdfs::MiniDfs> dfs;
  std::vector<double> setup_s;
  std::vector<double> setup_write_mbps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dfs.reset();
    const double t0 = now_us(ctx);
    dfs = make_dfs(ctx);
    if (write_files) {
      const IngestResult r = ingest(ctx, *dfs, ctx.files);
      setup_write_mbps.push_back(static_cast<double>(r.bytes) / 1e6 / r.wall_s);
    } else {
      for (const std::string spec : {"3-rep", "pentagon", "heptagon-local"}) {
        auto code = ec::make_code(spec);
        if (!code.is_ok()) {
          fail(ctx, "make_code " + spec);
          return nullptr;
        }
        const FileSpec warm{"/warm/" + spec, spec, 0,
                            (*code)->data_blocks() * kBlock};
        ingest(ctx, *dfs, {warm});
        read_back(ctx, *dfs, {warm});
        (void)dfs->delete_file(warm.path);
      }
    }
    setup_s.push_back((now_us(ctx) - t0) / 1e6);
  }
  ctx.e2e["setup_s"] = {median(setup_s), "s"};
  ctx.samples["setup_s"] = setup_s.size();
  if (write_files) {
    ctx.e2e["write_MBps"] = {median(setup_write_mbps), "MB/s"};
    ctx.samples["write_MBps"] = setup_write_mbps.size();
  }
  return dfs;
}

void storage_overhead(Ctx& ctx, hdfs::MiniDfs& dfs, std::size_t logical) {
  ctx.e2e["storage_overhead"] = {
      static_cast<double>(dfs.stored_bytes()) / static_cast<double>(logical),
      "ratio"};
}

void run_ingest_scan(Ctx& ctx) {
  auto dfs = set_up(ctx, false);
  if (!dfs) return;
  std::vector<double> write_mbps, scan_ops, scan_mbps, retier_mbps;
  ReadPhase scan_all;
  const double start = now_us(ctx);
  const double deadline = start + ctx.args.seconds * 1e6;
  for (int cycle = 0;; ++cycle) {
    const bool measured = cycle >= kWarmupCycles;
    const IngestResult w = ingest(ctx, *dfs, ctx.files);

    // Scan: every block once with whole-block preads. Like the map tasks
    // of Fig. 4/5, each read client scans whole files (files dealt
    // round-robin), block by block.
    std::size_t blocks = 0;
    for (const auto& f : ctx.files) blocks += f.length / kBlock;
    std::vector<std::vector<double>> lat(kReadClients);
    const double wire0 = dfs->traffic().total_bytes();
    const double s0 = now_us(ctx);
    run_clients(ctx, kReadClients, [&](std::size_t c) {
      hdfs::Client client(*dfs);
      for (std::size_t fi = c; fi < ctx.files.size(); fi += kReadClients) {
        for (std::size_t b = 0; b < ctx.files[fi].length / kBlock; ++b) {
          const double us =
              timed_read(ctx, client, *dfs, ctx.files[fi], b * kBlock, kBlock,
                         false, ctx.args.trace && b % 2 == 1);
          if (us >= 0) lat[c].push_back(us);
        }
      }
    });
    const double scan_s = (now_us(ctx) - s0) / 1e6;
    const double scan_wire = dfs->traffic().total_bytes() - wire0;

    // Retier: HDFS-RAID's step -- the 3-rep files become heptagon-local,
    // one file per client.
    std::vector<const FileSpec*> replicated;
    for (const auto& f : ctx.files) {
      if (f.scheme == "3-rep") replicated.push_back(&f);
    }
    const double r0 = now_us(ctx);
    run_clients(ctx, replicated.size(), [&](std::size_t c) {
      hdfs::RaidNode raid(*dfs);
      ctx.attempted.fetch_add(1);
      auto report = raid.raid_file(replicated[c]->path, kRetierTarget);
      if (!report.is_ok()) {
        fail(ctx, "raid_file " + replicated[c]->path + ": " +
                      report.status().to_string());
      }
    });
    const double retier_s = (now_us(ctx) - r0) / 1e6;
    std::size_t retiered = 0;
    for (const FileSpec* f : replicated) retiered += f->length;
    read_back(ctx, *dfs, ctx.files);  // retiered files byte-identical
    storage_overhead(ctx, *dfs, logical_bytes(ctx.files));

    if (measured) {
      write_mbps.push_back(static_cast<double>(w.bytes) / 1e6 / w.wall_s);
      scan_all.wire_bytes += scan_wire;
      scan_all.read_bytes += static_cast<double>(blocks * kBlock);
      scan_all.ops += blocks;
      for (auto& l : lat) {
        scan_all.lat_us.insert(scan_all.lat_us.end(), l.begin(), l.end());
      }
      scan_ops.push_back(static_cast<double>(blocks) / scan_s);
      scan_mbps.push_back(static_cast<double>(blocks * kBlock) / 1e6 / scan_s);
      retier_mbps.push_back(static_cast<double>(retiered) / 1e6 / retier_s);
    }
    if (cycle + 1 >= kWarmupCycles + kMinIngestCycles &&
        now_us(ctx) >= deadline) {
      break;
    }
    for (const auto& f : ctx.files) {
      const Status st = dfs->delete_file(f.path);
      if (!st.is_ok()) fail(ctx, "delete " + f.path + ": " + st.to_string());
    }
  }
  report_reads(ctx, scan_all, "scan_read", median(scan_ops), scan_ops.size());
  ctx.e2e["write_MBps"] = {median(write_mbps), "MB/s"};
  ctx.e2e["background_MBps"] = {median(retier_mbps), "MB/s"};
  ctx.samples["write_MBps"] = write_mbps.size();
  ctx.samples["background_MBps"] = retier_mbps.size();
  ctx.detail["scan_MBps"] = {median(scan_mbps), "MB/s"};
  ctx.detail["retier_MBps"] = {median(retier_mbps), "MB/s"};
  if (ctx.args.trace) run_probes(ctx, *dfs, ctx.files, {0, 0});
}

void run_small_reads(Ctx& ctx) {
  auto dfs = set_up(ctx, true);
  if (!dfs) return;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (std::size_t fi = 0; fi < ctx.files.size(); ++fi) {
    for (std::size_t b = 0; b < ctx.files[fi].length / kBlock; ++b) {
      blocks.emplace_back(fi, b);
    }
  }
  // Zipf(s = 1) popularity over blocks in a fixed order: the hot set fits
  // in the LLC while the file set does not.
  Rng order_rng(kPopularitySeed);
  order_rng.shuffle(blocks);
  const hdfs::ZipfSampler zipf(blocks.size(), kZipfS);

  std::vector<ReadPhase> per(kReadClients);
  const double wire0 = dfs->traffic().total_bytes();
  const double t0 = now_us(ctx);
  const double deadline = t0 + ctx.args.seconds * 1e6;
  run_clients(ctx, kReadClients, [&](std::size_t c) {
    Rng rng(ctx.args.seed * 7919 + 11 + c);
    hdfs::Client client(*dfs);
    while (now_us(ctx) < deadline) {
      const auto [fi, b] = blocks[zipf.sample(rng)];
      const std::size_t offset =
          b * kBlock + rng.next_below(kBlock - kSmallRead + 1);
      const double us =
          timed_read(ctx, client, *dfs, ctx.files[fi], offset, kSmallRead,
                     false, ctx.args.trace && per[c].ops % 2 == 1);
      ++per[c].ops;
      if (us >= 0) per[c].lat_us.push_back(us);
    }
  });
  const ReadPhase all = merge_reads(ctx, *dfs, per, t0, wire0, kSmallRead);
  report_reads(ctx, all, "read", static_cast<double>(all.ops) / all.wall_s,
               all.ops);

  // Background: the repair sweep an operator runs over a healthy cluster.
  const double sweep_us = timed_repair_all(ctx, *dfs);
  ctx.e2e["background_MBps"] = {
      static_cast<double>(logical_bytes(ctx.files)) / sweep_us, "MB/s"};
  ctx.samples["background_MBps"] = 1;
  ctx.detail["repair_noop_s"] = {sweep_us / 1e6, "s"};
  storage_overhead(ctx, *dfs, logical_bytes(ctx.files));
  if (ctx.args.trace) run_probes(ctx, *dfs, ctx.files, {0, 0});
}

void run_degraded_repair(Ctx& ctx) {
  auto dfs = set_up(ctx, true);
  if (!dfs) return;
  const LostBlocks lost = choose_pair(ctx, *dfs, ctx.files);
  if (lost.count() == 0) return fail(ctx, "no node pair shares a block");
  std::printf("failing nodes %d and %d:", lost.a, lost.b);
  for (const auto& [scheme, blocks] : lost.by_scheme) {
    std::printf(" %zu %s blocks lost", blocks.size(), scheme.c_str());
  }
  std::printf("\n");
  const std::size_t rebuilt = stored_on(*dfs, lost.a, lost.b);
  const std::size_t touched = stripes_touched(*dfs, lost);
  for (auto node : {lost.a, lost.b}) {
    const Status st = dfs->fail_node(node);
    if (!st.is_ok()) return fail(ctx, "fail_node: " + st.to_string());
  }
  const ReadPhase reads = degraded_reads(
      ctx, *dfs, ctx.files, lost, now_us(ctx) + ctx.args.seconds * 1e6, 1,
      ctx.args.trace);
  report_reads(ctx, reads, "degraded_read",
               static_cast<double>(reads.ops) / reads.wall_s, reads.ops);

  const double repair_wire0 = dfs->traffic().total_bytes();
  const double repair_us = timed_repair_all(ctx, *dfs);
  const double repair_wire = dfs->traffic().total_bytes() - repair_wire0;
  if (stored_on(*dfs, lost.a, lost.b) != rebuilt) {
    fail(ctx, "repair did not rebuild every lost byte");
  }
  ctx.e2e["background_MBps"] = {static_cast<double>(rebuilt) / repair_us,
                                "MB/s"};
  ctx.samples["background_MBps"] = 1;
  ctx.detail["repair_MBps"] = ctx.e2e["background_MBps"];
  ctx.detail["repair_wire_bytes_per_rebuilt_byte"] = {
      repair_wire / static_cast<double>(rebuilt), "ratio"};
  ctx.detail["rebuilt_MB"] = {static_cast<double>(rebuilt) / 1e6, "MB"};
  ctx.attempted.fetch_add(1);
  const Status scrub = dfs->scrub();
  if (!scrub.is_ok()) fail(ctx, "scrub after repair: " + scrub.to_string());
  read_back(ctx, *dfs, ctx.files);
  storage_overhead(ctx, *dfs, logical_bytes(ctx.files));
  if (ctx.args.trace) run_probes(ctx, *dfs, ctx.files, {repair_us, touched});
}

// ------------------------------------------------------------------ output

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << json_number(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string cpu_flags() {
  std::string flags;
  __builtin_cpu_init();
#define DPBENCH_FLAG(name) \
  if (__builtin_cpu_supports(name)) flags += std::string(flags.empty() ? "" : " ") + name;
  DPBENCH_FLAG("sse4.2")
  DPBENCH_FLAG("pclmul")
  DPBENCH_FLAG("avx2")
  DPBENCH_FLAG("avx512f")
  DPBENCH_FLAG("avx512bw")
  DPBENCH_FLAG("gfni")
  DPBENCH_FLAG("vpclmulqdq")
#undef DPBENCH_FLAG
  return flags;
}

std::string metadata_json(const Ctx& ctx) {
  std::ostringstream out;
  out << "{\"workload\": \"" << ctx.args.workload << "\", \"seed\": "
      << ctx.args.seed << ", \"seconds\": " << ctx.args.seconds
      << ", \"trace\": " << (ctx.args.trace ? 1 : 0) << ", \"rev\": \""
      << ctx.args.rev << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_flags\": \"" << cpu_flags() << "\", \"gf_kernel\": \""
      << gf::active_kernel().name << "\", \"pool_workers\": "
      << ctx.pool.num_workers() << ", \"read_clients\": " << kReadClients
      << ", \"degraded_read_clients\": " << kDegradedClients
      << ", \"write_clients\": " << kWriteClients
      << ", \"block_size\": " << kBlock << ", \"append_chunk\": "
      << kAppendChunk << ", \"cluster_seed\": " << kClusterSeed
      << ", \"nodes\": " << ctx.topo.num_nodes << ", \"racks\": "
      << ctx.topo.num_racks << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : ctx.samples) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << n;
    first = false;
  }
  out << "}}";
  return out.str();
}

/// One line per metric, with its sample count (and, for a percentile, the
/// samples beyond it) where the metric has one.
void print_metrics(const char* kind, const Metrics& m,
                   const std::map<std::string, std::size_t>& samples) {
  for (const auto& [name, metric] : m) {
    std::string note;
    if (const auto n = samples.find(name); n != samples.end()) {
      note = "  n=" + std::to_string(n->second);
    }
    if (const auto b = samples.find(name + ".beyond"); b != samples.end()) {
      note += " beyond=" + std::to_string(b->second);
    }
    std::printf("%s %-44s %16.6f %s%s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str(), note.c_str());
  }
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else if (key == "--rev") {
        args.rev = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (argc % 2) == 1 && args.seconds > 0 &&
         (args.workload == "ingest_scan" || args.workload == "small_reads" ||
          args.workload == "degraded_repair");
}

}  // namespace
}  // namespace dpbench

int main(int argc, char** argv) {
  using namespace dpbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dpbench --workload "
                 "ingest_scan|small_reads|degraded_repair --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--rev TEXT]\n");
    return 2;
  }
  Ctx ctx(args);
  ctx.files = file_set(args.workload);
  ctx.payload = random_buffer(logical_bytes(ctx.files), args.seed);

  if (args.workload == "ingest_scan") {
    run_ingest_scan(ctx);
  } else if (args.workload == "small_reads") {
    run_small_reads(ctx);
  } else {
    run_degraded_repair(ctx);
  }
  ctx.e2e["peak_rss_MiB"] = {peak_rss_mib(), "MiB"};

  const std::size_t attempted = ctx.attempted.load();
  const std::size_t failed = ctx.failed.load();
  ctx.detail["error_rate"] = {
      static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted)),
      "ratio"};
  const Metrics& gated = args.trace ? ctx.layer : ctx.e2e;
  bool correct = failed == 0;
  for (const auto& [name, metric] : gated) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "dpbench: metric %s is not finite\n", name.c_str());
      correct = false;
    }
  }

  const std::string meta = metadata_json(ctx);
  std::printf("meta %s\n", meta.c_str());
  print_metrics("detail", ctx.detail, ctx.samples);
  if (args.trace) {
    print_metrics("layer", ctx.layer, ctx.samples);
  } else {
    print_metrics("e2e", ctx.e2e, ctx.samples);
    if (ctx.samples["read_p90_us.beyond"] < 10) {
      std::fprintf(stderr,
                   "dpbench: warning: read_p90_us has fewer than 10 samples "
                   "beyond it; raise --seconds\n");
    }
  }
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    std::ofstream out(stem + ".json");
    out << "{\"meta\": " << meta << ",\n \"end_to_end\": "
        << metrics_json(ctx.e2e) << ",\n \"per_layer\": "
        << metrics_json(ctx.layer) << ",\n \"detail\": "
        << metrics_json(ctx.detail) << "}\n";
    if (args.trace && !ctx.tracer.write_json(stem + "-spans.json")) {
      std::fprintf(stderr, "dpbench: could not write spans\n");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(1, attempted),
              failed, metrics_json(gated).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
