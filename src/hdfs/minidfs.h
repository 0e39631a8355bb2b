// MiniDfs: an in-process distributed file system exercising the coding
// layer end to end with real bytes -- the role HDFS + HDFS-RAID play in the
// paper's Section 4 testbeds.
//
// Components (all in-process):
//  * NameNode state: file namespace (path -> stripes) + the cluster
//    BlockCatalog (stripe placements); placement runs through a selectable
//    cluster::PlacementPolicy -- flat (the paper's single-rack testbeds),
//    rack_aware replica spreading, or group_per_rack, which pins each
//    heptagon-local group to its own rack (Section 2.2).
//  * DataNodes: per-node CRC-checked block stores, each its own lock shard.
//  * Client operations: a streaming write transaction (begin_write /
//    allocate_stripe / store_stripe / commit_write / abort_write) that the
//    handle-based hdfs::Client::FileWriter drives incrementally --
//    write_file is the bulk wrapper over the same primitives -- plus
//    pread (byte-range reads resolving only the covering stripes),
//    read_file / read_block (replica read, with corruption fallback and
//    on-the-fly degraded reads through ec::RepairPlan when every replica
//    is lost).
//  * Repair engine: node repair driven by the same RepairPlan objects,
//    including multi-failure partial-parity recovery; with layered_repair
//    enabled, every plan is rewritten through ec::layer_plan so each rack
//    relays one combined block instead of per-helper sends.
//  * net::TrafficMeter: every byte that crosses the (simulated) wire is
//    recorded once, with its endpoints and class, and bucketed into
//    intra-rack, cross-rack, client upload or client delivery -- so tests
//    can assert the paper's repair-bandwidth numbers end to end. The same
//    call feeds the optional net::TransferLog capture.
//
// Concurrency model (the paper's real deployment regime: many clients
// reading and writing while repairs run in the background):
//  * Byte-heavy operations -- write_file, read_file, pread, repair_node,
//    repair_all, scrub_repair -- fan their stripes out across an
//    exec::ThreadPool, and FileWriter handles dispatch store_stripe calls
//    onto the same pool; placement stays serial (allocate_stripe draws in
//    allocation order) so the stripe layout (and therefore every byte and
//    traffic total) is identical to the zero-worker serial execution.
//  * DataNode stores are per-node lock shards; the namespace is guarded by
//    a striped per-path shared mutex (concurrent readers, exclusive
//    delete/rename) plus a map-structure mutex.
//  * Mutable codec scratch (ec::StripeCodec / ec::PlanExecutor) is checked
//    out per worker from an exec::RuntimePool per scheme.
//  * Repair plans are cached per (code, failure-pattern) under a
//    shared-read lock and replayed across stripes and threads.
//  * Deletes and renames are safe to run concurrently with repair and
//    scrub: each repair pass pins its stripe with a catalog repair lease
//    (NameNode::begin_repair), so a racing delete drain-waits for the
//    lease -- or, if it wins the race, the repair aborts cleanly and
//    skips the stripe. Scrub passes hold the per-path shared lock, which
//    a delete's exclusive acquisition already excludes.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>

#include "cluster/catalog.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/code.h"
#include "exec/runtime_pool.h"
#include "exec/striped_mutex.h"
#include "exec/thread_pool.h"
#include "hdfs/datanode.h"
#include "hdfs/namenode.h"
#include "net/traffic.h"
#include "net/transfer.h"

namespace dblrep::hdfs {

/// Observer of namespace-level client access, for heat tracking (the
/// tiering layer's tier::HeatTracker implements this; the hdfs layer only
/// knows the interface, keeping the dependency arrow tier -> hdfs).
///
/// Callbacks fire from client read/commit/delete/rename paths, possibly
/// concurrently -- implementations must be thread-safe. Reads under a
/// background TransferClass (repair, scrub, retier) never call on_read, so
/// a re-encode does not heat the file it is cooling; the re-encode's temp
/// file does accrue an on_write at its commit, which on_replace tells the
/// observer to discard.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// A client read delivered `bytes` logical bytes of `path`.
  virtual void on_read(const std::string& path, std::size_t bytes) {
    (void)path;
    (void)bytes;
  }
  /// A client write committed `path` at `bytes` logical bytes.
  virtual void on_write(const std::string& path, std::size_t bytes) {
    (void)path;
    (void)bytes;
  }
  virtual void on_delete(const std::string& path) { (void)path; }
  virtual void on_rename(const std::string& from, const std::string& to) {
    (void)from;
    (void)to;
  }
  /// replace_file(from, to) succeeded: `from`'s bytes now serve `to`. The
  /// temp path's tracking state should be dropped, `to`'s kept.
  virtual void on_replace(const std::string& from, const std::string& to) {
    (void)from;
    (void)to;
  }
};

/// Data-plane knobs fixed at construction.
struct MiniDfsOptions {
  /// How stripe groups map onto cluster nodes (and therefore racks).
  cluster::PlacementPolicy placement =
      cluster::PlacementPolicy::kGroupPerRack;

  /// Rewrite every repair / degraded-read plan into two-stage layered form
  /// (ec::layer_plan): helpers send to an intra-rack aggregator, one
  /// combined block crosses the rack boundary. Rebuilt bytes are identical
  /// either way; only the traffic's rack split changes.
  bool layered_repair = false;

  /// Capture sink for link-level replay (off by default): the DFS's
  /// net::TrafficMeter forwards every transfer it records, classed and
  /// directed, and every flow boundary to it, so a harness can replay the
  /// exact transfer pattern into a net::NetworkModel. Not owned; must
  /// outlive the DFS. Capture only -- no data-plane behavior (bytes,
  /// placement, traffic totals) changes.
  net::TransferLog* transfer_log = nullptr;

  /// Metadata shard count of the sharded NameNode (0 = the default, 4).
  /// Stripe ids come from a global counter, so placement, bytes, and
  /// traffic are identical for every shard count -- only metadata-plane
  /// contention changes.
  std::size_t meta_shards = 0;

  /// Auto-snapshot a metadata shard once its write-ahead journal holds
  /// this many records (0 = manual snapshot_namenode() only).
  std::size_t meta_snapshot_every = 0;

  /// Access observer for heat tracking (see AccessObserver). Not owned;
  /// must outlive the DFS. nullptr (the default) changes nothing.
  AccessObserver* access_observer = nullptr;
};

class MiniDfs {
 public:
  /// Runs parallel operations on `pool`, by default exec::default_pool()
  /// (DBLREP_THREADS override applies). `pool` is not owned and must
  /// outlive the DFS; nullptr selects exec::inline_pool(), i.e. the fully
  /// serial execution order.
  MiniDfs(const cluster::Topology& topology, std::uint64_t seed,
          exec::ThreadPool* pool = &exec::default_pool(),
          const MiniDfsOptions& options = {});

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  // ----------------------------------------- streaming write transaction
  //
  // The storage-core half of the handle-based client API (hdfs::Client /
  // FileWriter compose these; write_file is the bulk wrapper):
  //
  //   begin_write -> { allocate_stripe -> store_stripe }* -> commit_write
  //
  // with abort_write rolling every landed block and registered stripe back
  // on any failure. The transaction is single-owner: allocate_stripe must
  // be called from one thread per transaction, in stripe order --
  // placement draws stay a deterministic function of allocation order --
  // while store_stripe is safe to run from many threads concurrently for
  // distinct stripes of the same transaction. commit_write / abort_write
  // must not overlap in-flight allocate/store calls of the same
  // transaction: the owner drains its stores first (FileWriter does) --
  // the primitives do not guard against it. Until commit, the path is
  // visible only to stat() (with FileInfo::sealed == false); readers get
  // NOT_FOUND.

  /// Opens a write transaction: reserves `path` (concurrent creators fail
  /// fast with ALREADY_EXISTS) and validates the code spec and block size.
  Status begin_write(const std::string& path, const std::string& code_spec,
                     std::size_t block_size);

  /// Places and registers (unsealed) the transaction's next stripe.
  Result<cluster::StripeId> allocate_stripe(const std::string& path);

  /// Batch form: `count` stripes placed under one lock hold and one
  /// live-node scan -- what the bulk write_file wrapper uses. Draw order
  /// is identical to `count` single allocations.
  Result<std::vector<cluster::StripeId>> allocate_stripes(
      const std::string& path, std::size_t count);

  /// Encodes up to one stripe of logical bytes (shorter spans are
  /// zero-padded), stores every slot on its placed node, and charges the
  /// upload traffic under `cls` (client write by default; the tiering
  /// re-encode path passes kRetier so its bytes are throttleable like
  /// repair). The stripe stays unsealed -- invisible to repair and scrub --
  /// until commit_write.
  Status store_stripe(const std::string& path, cluster::StripeId stripe,
                      ByteSpan stripe_data,
                      net::TransferClass cls = net::TransferClass::kClientWrite);

  /// Seals every stored stripe and publishes the path: repair, scrub, and
  /// readers all see the file from here on. Sealing and publishing happen
  /// in one step so no stripe is ever both sealed and abortable.
  Status commit_write(const std::string& path);

  /// Rolls the transaction back: drops every landed block, unregisters
  /// every allocated stripe, and releases the path.
  Status abort_write(const std::string& path);

  // ------------------------------------------------------------ client

  /// Writes `data` as a new file encoded with `code_spec`, striping into
  /// blocks of `block_size` bytes. Thin wrapper over the write transaction
  /// above: stripes are placed serially (so layout is deterministic per
  /// seed) and encoded/stored in parallel, zero-copy from `data`.
  Status write_file(const std::string& path, ByteSpan data,
                    const std::string& code_spec, std::size_t block_size);

  /// Whole-file read: pread of [0, length). `cls` classes the delivery
  /// traffic (client read by default; kRetier for tiering re-encode
  /// streams).
  Result<Buffer> read_file(
      const std::string& path,
      net::TransferClass cls = net::TransferClass::kClientRead);

  /// Byte-range read: resolves only the stripes covering
  /// [offset, offset + len) and streams them in parallel, with the same
  /// per-block replica fallbacks and on-the-fly degraded reads as
  /// read_file. Reads are clamped at EOF (the result carries
  /// min(len, length - offset) bytes; len may overshoot); an offset beyond
  /// EOF is INVALID_ARGUMENT, and a zero-length range is an empty buffer.
  Result<Buffer> pread(const std::string& path, std::size_t offset,
                       std::size_t len,
                       net::TransferClass cls = net::TransferClass::kClientRead);

  /// Reads one data block (index within the file). Indices at or past the
  /// file's last logical block are INVALID_ARGUMENT.
  Result<Buffer> read_block(
      const std::string& path, std::size_t block_index,
      net::TransferClass cls = net::TransferClass::kClientRead);

  Status delete_file(const std::string& path);
  Status rename(const std::string& from, const std::string& to);

  /// Atomic publish-then-delete swap: `from` (a fully written temp file)
  /// takes over path `to`, whose old stripes and blocks are dropped. This
  /// is the tiering transition's commit step -- at every instant `to`
  /// resolves to a complete, readable layout (the old one until the swap,
  /// the new one after). NOT_FOUND if either path is missing, so a
  /// transition racing a delete of `to` loses cleanly and can drop its
  /// temp file.
  Status replace_file(const std::string& from, const std::string& to);

  /// Metadata of a published file, or of a write in flight (then with
  /// sealed == false and length == bytes stored so far).
  Result<FileInfo> stat(const std::string& path) const;
  std::vector<std::string> list_files() const;

  // -------------------------------------------------------- membership

  /// Crash-fails a node (its stored bytes are gone).
  Status fail_node(cluster::NodeId node);

  /// Transient outage: the node becomes unreachable but keeps its disk.
  /// restart_node (or any repair) brings it back with all blocks intact --
  /// the failure class HDFS's repair timeout exists to mask.
  Status offline_node(cluster::NodeId node);

  /// Brings a node back up: empty after fail_node, intact after
  /// offline_node. Call repair_node to refill any holes.
  Status restart_node(cluster::NodeId node);

  /// Restarts the node and rebuilds every stripe it hosts, using the
  /// cheapest repair plans available under the current failure set (a
  /// stripe's plan also rebuilds its other holes on live nodes). The
  /// node's stripes are repaired in parallel across the pool; the first
  /// error is reported by stripe order.
  Status repair_node(cluster::NodeId node);

  /// Restarts every down node, then repairs each stripe of the cluster
  /// exactly once, in parallel and widest stripes first (multi-failure
  /// aware: plans are computed against the stripe's full failed set,
  /// partial parities and all). An unrecoverable stripe does not stop the
  /// others from healing; the first error is reported by stripe order,
  /// not node, dispatch or completion order.
  Status repair_all();

  std::set<cluster::NodeId> down_nodes() const;

  // ------------------------------------------------------------- scrub

  /// Verifies CRCs and full codeword consistency of every stripe.
  Status scrub();

  /// Scrubs and *heals*: corrupted or missing replicas on live nodes are
  /// rewritten from a healthy replica or decoded from the stripe, stripes
  /// fanned out across the pool. Returns the number of blocks repaired, or
  /// an error if a stripe is beyond recovery.
  Result<std::size_t> scrub_repair();

  // ------------------------------------------------------------ access

  const net::TrafficMeter& traffic() const { return traffic_; }
  net::TrafficMeter& traffic() { return traffic_; }
  const MiniDfsOptions& options() const { return options_; }
  /// The metadata plane's catalog view (BlockCatalog-shaped read surface,
  /// routed across the NameNode's shards).
  const NameNode& catalog() const { return namenode_; }
  const NameNode& namenode() const { return namenode_; }
  NameNode& namenode() { return namenode_; }

  /// Snapshots every metadata shard (absorbing its journal) -- the
  /// checkpoint half of the durability story.
  void snapshot_namenode() { namenode_.snapshot(); }

  /// Kills and recovers the NameNode from its durable artifacts (snapshot
  /// + write-ahead journal per shard): every in-memory table is rebuilt,
  /// open writes roll back, and datanode blocks whose stripes died with
  /// them (rolled-back writes, half-finished deletes) are dropped via the
  /// usual block-report GC. Requires quiescence -- no concurrent clients --
  /// exactly like a real crash.
  Result<RecoveryReport> crash_namenode();

  /// Order- and shard-count-independent metadata fingerprint (namespace +
  /// pending writes + live stripes); the chaos recovery invariant compares
  /// it across a crash.
  std::uint64_t catalog_fingerprint() const { return namenode_.fingerprint(); }

  DataNode& datanode(cluster::NodeId node);
  const DataNode& datanode(cluster::NodeId node) const;
  const cluster::Topology& topology() const { return topology_; }

  /// Scheme of a published file. NOT_FOUND for unknown paths -- a legal
  /// race when concurrent clients look up files being created or deleted,
  /// not a programming error.
  Result<const ec::CodeScheme*> code_for(const std::string& path) const;
  exec::ThreadPool& pool() const { return *pool_; }

  /// Total stored bytes across all datanodes (for overhead assertions).
  std::size_t stored_bytes() const;

 private:
  /// The client half of the API (handle-based writers, async wrappers)
  /// composes the transaction primitives and scheme lookups directly.
  friend class Client;

  /// Everything the data plane keeps warm per code spec: the immutable
  /// scheme plus a RuntimePool of per-worker StripeCodec/PlanExecutor
  /// instances (mutable scratch is never shared between threads).
  struct SchemeRuntime {
    std::unique_ptr<ec::CodeScheme> code;
    std::unique_ptr<exec::RuntimePool> runtimes;
  };

  /// Repair plans keyed by (code, code-local failure pattern); shared
  /// across stripes, repair rounds, and threads.
  using PlanKey = std::pair<const ec::CodeScheme*, std::set<ec::NodeIndex>>;

  Result<SchemeRuntime*> runtime(const std::string& code_spec);
  Result<const ec::CodeScheme*> scheme(const std::string& code_spec);
  exec::RuntimePool& runtime_pool_for(const ec::CodeScheme& code) const;

  /// Encode + store core of store_stripe and write_file, with the runtime
  /// and block size already resolved: encodes every stripe covering `data`
  /// through one leased codec (cross-stripe fused parity passes, see
  /// StripeCodec::encode_batch), stores stripes[i] from the i-th stripe of
  /// `data`, and charges the uploads under `cls`. `data` must be non-empty
  /// and span exactly stripes.size() stripes (INVALID_ARGUMENT otherwise).
  Status store_stripe_batch(SchemeRuntime& rt, std::size_t block_size,
                            std::span<const cluster::StripeId> stripes,
                            ByteSpan data, net::TransferClass cls);

  /// Drops every block the removed file's stripes left on the datanodes:
  /// the data-plane half of abort_write, delete_file and replace_file,
  /// sourced from the placements the NameNode hands back (the catalog
  /// entries are already gone).
  Status drop_blocks(const RemovedFile& removed);

  /// Plan for `failed` under `code`, computed once per distinct pattern and
  /// served under a shared-read lock afterwards. The returned pointer stays
  /// valid for the lifetime of the DFS (entries are never evicted).
  Result<const ec::RepairPlan*> cached_repair_plan(
      const ec::CodeScheme& code, const std::set<ec::NodeIndex>& failed);

  /// CRC-verified slots of a stripe plus the code-local nodes that could
  /// not serve all of the slots asked of them. The slots are shared
  /// references to the stored bytes, so a healthy stripe is checked
  /// without copying (or holding a second copy of) any block.
  struct GatheredStripe {
    std::map<std::size_t, DataNode::Block> slots;
    std::set<ec::NodeIndex> failed;

    /// Copies every verified slot into a SlotStore.
    ec::SlotStore store() const;
    /// Copies only the verified slots `plan` reads, for it to execute on.
    ec::SlotStore store_for(const ec::RepairPlan& plan) const;
  };

  /// Reads `slots` of one stripe, CRC-checked through DataNode::read() and
  /// fanned out across the pool: every slot that reads back clean is kept,
  /// and a node counts as failed when any of the listed slots it holds is
  /// unreadable (down, missing, or corrupt). The result is keyed by slot,
  /// so it does not depend on the order the reads complete in.
  GatheredStripe read_slots(cluster::StripeId stripe,
                            std::span<const std::size_t> slots) const;

  /// read_slots over every slot of the stripe: the whole-stripe view that
  /// repair, scrub and scrub_repair plan over -- and execute on -- and the
  /// degraded read's fallback when one of its helpers turns out unreadable.
  GatheredStripe gather_stripe(cluster::StripeId stripe) const;

  /// Rack of each code-local node of a placement group, per the topology.
  std::vector<int> group_racks(
      const std::vector<cluster::NodeId>& group) const;

  /// Reads one data block (all α sub-chunk units) of one stripe with all
  /// fallbacks, recording traffic at unit granularity. Replica reads come
  /// first. When a unit has no readable replica, the block is served
  /// degraded through plan_degraded_block: planned against the down nodes
  /// and the replicas that just failed, executed over only that plan's
  /// helper slots (read_slots). Should a helper be unreadable as well, the
  /// read re-plans once over gather_stripe's failed set and executes on
  /// the bytes that gather verified.
  Result<Buffer> read_data_block(const FileInfo& file,
                                 cluster::StripeId stripe, std::size_t block,
                                 net::TransferClass cls);

  /// Range-read core shared by pread and read_file: fans the covering
  /// stripes out across the pool, trimming the first and last block to the
  /// requested window. `offset` must be <= info.length.
  Result<Buffer> pread_span(const FileInfo& info, const ec::CodeScheme& code,
                            std::size_t offset, std::size_t len,
                            net::TransferClass cls);

  /// Repairs every hole of one stripe (the per-stripe entry point of
  /// repair_node and repair_all); a no-op for healthy, unsealed, or
  /// concurrently deleted stripes.
  Status repair_stripe(cluster::StripeId stripe);

  /// Block-report semantics on rejoin: a node returning from a transient
  /// outage may hold replicas of stripes deleted while it was away; drop
  /// them so the catalog and the disks agree again.
  void gc_stale_replicas(DataNode& dn);

  /// Records every send of an executed plan over placement `group` at
  /// `unit_bytes` each (code-local nodes map through `group`, the plan's
  /// client to net::kClientEndpoint) and ends the flow: one repaired
  /// stripe or one degraded read is one dependency-chained flow in a
  /// captured replay. INTERNAL if a send names a node outside the group.
  Status charge_plan(const ec::RepairPlan& plan,
                     const std::vector<cluster::NodeId>& group,
                     std::size_t unit_bytes, net::TransferClass cls);

  cluster::Topology topology_;
  MiniDfsOptions options_;
  /// The sharded metadata plane: namespace, pending writes, block catalog,
  /// per-path locks, write-ahead journals, and snapshots all live here.
  NameNode namenode_;
  net::TrafficMeter traffic_;
  exec::ThreadPool* pool_;
  std::deque<DataNode> datanodes_;  // deque: DataNode is pinned (own mutex)

  mutable std::mutex place_mu_;  // guards rng_ + placement decisions
  Rng rng_;

  mutable std::shared_mutex scheme_mu_;  // guards schemes_ + pools_by_code_
  std::map<std::string, SchemeRuntime> schemes_;
  std::map<const ec::CodeScheme*, exec::RuntimePool*> pools_by_code_;

  mutable std::shared_mutex plan_mu_;  // guards plan_cache_
  std::map<PlanKey, ec::RepairPlan> plan_cache_;
};

}  // namespace dblrep::hdfs
