// DataNode: per-node block store with CRC-32C integrity, the byte-level
// half of the mini-HDFS data plane. The paper's implementation lives
// inside Facebook's HDFS-RAID (hadoop-0.20); this in-process analogue keeps
// the same responsibilities: store block replicas, serve reads, detect
// corruption, lose everything on node failure.
//
// Thread-safe: each DataNode guards its block map with its own mutex, so
// the node is one shard of the DFS-wide store -- operations on different
// nodes never contend, operations on the same node serialize exactly as a
// real datanode's disk queue would. Liveness is a separate atomic so
// is_up() probes never touch the block-map lock. Stored bytes are
// immutable and shared: a read takes a reference under the lock and runs
// the checksum outside it, and a later put, drop or fail never disturbs a
// reader still holding the old bytes.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "cluster/catalog.h"
#include "common/bytes.h"
#include "common/status.h"

namespace dblrep::hdfs {

class DataNode {
 public:
  /// A stored block replica: immutable, shared with readers.
  using Block = std::shared_ptr<const Buffer>;

  explicit DataNode(cluster::NodeId id) : id_(id) {}

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  cluster::NodeId id() const { return id_; }
  bool is_up() const { return up_.load(std::memory_order_acquire); }

  /// Stores a block replica (overwrites an existing one).
  Status put(cluster::SlotAddress address, Buffer bytes);

  /// View overload for arena-backed writers (the stripe codec hands out
  /// views into scratch memory); copies into node-owned storage.
  Status put(cluster::SlotAddress address, ByteSpan bytes) {
    return put(address, Buffer(bytes.begin(), bytes.end()));
  }

  /// Reads a block replica, verifying its checksum, without copying it.
  Result<Block> read(cluster::SlotAddress address) const;

  /// Copying form of read().
  Result<Buffer> get(cluster::SlotAddress address) const;

  /// Bytes of every block read() (and so get()) has returned, summed over
  /// the node's lifetime; failed reads count nothing.
  std::size_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

  bool has(cluster::SlotAddress address) const;
  Status drop(cluster::SlotAddress address);

  std::size_t block_count() const;
  std::size_t bytes_stored() const;

  /// Crash: the node goes down and its disk contents are gone.
  void fail();
  /// Transient outage (Ford et al.'s dominant failure class): the node is
  /// unreachable but its disk survives. restart() ends the outage with
  /// every block still present -- no repair needed, unlike fail().
  void offline();
  /// The node returns: empty after fail(), blocks intact after offline().
  void restart();

  /// Test hook: flips one byte of a stored block so CRC verification and
  /// the read fallback paths can be exercised.
  Status corrupt(cluster::SlotAddress address, std::size_t byte_index);

  /// Diagnostic hook: raw stored bytes, ignoring liveness and skipping CRC
  /// verification. The chaos fingerprints use it to cover offline disks and
  /// corrupted blocks; data-plane reads must go through read() (or its
  /// copying form get()), which verify the CRC.
  Result<Buffer> peek(cluster::SlotAddress address) const;

  /// Addresses of every block currently stored.
  std::vector<cluster::SlotAddress> stored_addresses() const;

 private:
  struct StoredBlock {
    Block bytes;
    std::uint32_t crc = 0;
  };

  cluster::NodeId id_;
  std::atomic<bool> up_{true};
  mutable std::atomic<std::size_t> bytes_read_{0};
  mutable std::mutex mu_;  // guards blocks_
  std::map<cluster::SlotAddress, StoredBlock> blocks_;
};

}  // namespace dblrep::hdfs
