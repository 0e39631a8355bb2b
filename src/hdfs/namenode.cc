#include "hdfs/namenode.h"

#include <algorithm>
#include <mutex>
#include <tuple>
#include <utility>

namespace dblrep::hdfs {

namespace {

// FNV-1a: stable across runs and libraries (std::hash is not guaranteed
// to be), so shard assignment -- and with it every shard-local journal --
// is reproducible.
std::uint64_t fnv1a(std::uint64_t h, ByteSpan bytes) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                           s.size()));
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, ByteSpan(bytes, 8));
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::size_t resolve_shards(std::size_t requested) {
  return requested == 0 ? 4 : std::clamp<std::size_t>(requested, 1, 256);
}

std::vector<std::int32_t> group_to_i32(const std::vector<cluster::NodeId>& g) {
  return std::vector<std::int32_t>(g.begin(), g.end());
}

}  // namespace

FileState to_file_state(const FileInfo& info) {
  FileState state;
  state.code_spec = info.code_spec;
  state.block_size = info.block_size;
  state.length = info.length;
  state.stripes.assign(info.stripes.begin(), info.stripes.end());
  return state;
}

FileInfo to_file_info(const FileState& state, bool sealed) {
  FileInfo info;
  info.code_spec = state.code_spec;
  info.block_size = static_cast<std::size_t>(state.block_size);
  info.length = static_cast<std::size_t>(state.length);
  info.stripes.assign(state.stripes.begin(), state.stripes.end());
  info.sealed = sealed;
  return info;
}

NameNode::NameNode(const cluster::Topology& topology, SchemeResolver resolver,
                   const NameNodeOptions& options)
    : topology_(topology), resolver_(std::move(resolver)), options_(options) {
  options_.shards = resolve_shards(options.shards);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(topology_));
  }
}

std::size_t NameNode::shard_of(const std::string& path) const {
  return fnv1a_str(kFnvOffset, path) % shards_.size();
}

// ----------------------------------------------------------------- router

std::uint32_t NameNode::route(cluster::StripeId id) const {
  std::uint32_t shard = 0;
  DBLREP_CHECK_MSG(try_route(id, shard), "stripe " << id << " unknown");
  return shard;
}

bool NameNode::try_route(cluster::StripeId id, std::uint32_t& shard) const {
  const RouterBucket& bucket = router_[id % kRouterBuckets];
  std::shared_lock<std::shared_mutex> lock(bucket.mu);
  const auto it = bucket.shard.find(id);
  if (it == bucket.shard.end()) return false;
  shard = it->second;
  return true;
}

void NameNode::router_insert(cluster::StripeId id, std::uint32_t shard) {
  RouterBucket& bucket = router_[id % kRouterBuckets];
  std::unique_lock<std::shared_mutex> lock(bucket.mu);
  bucket.shard[id] = shard;
}

void NameNode::router_erase(cluster::StripeId id) {
  RouterBucket& bucket = router_[id % kRouterBuckets];
  std::unique_lock<std::shared_mutex> lock(bucket.mu);
  bucket.shard.erase(id);
}

void NameNode::router_reset() {
  for (RouterBucket& bucket : router_) {
    std::unique_lock<std::shared_mutex> lock(bucket.mu);
    bucket.shard.clear();
  }
}

// -------------------------------------------------------------- mutations

Status NameNode::begin_write(const std::string& path,
                             const std::string& code_spec,
                             std::size_t block_size) {
  Shard& shard = *shards_[shard_of(path)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (shard.files.contains(path) || shard.pending.contains(path)) {
    return already_exists_error(path);
  }
  JournalRecord rec;
  rec.kind = JournalRecordKind::kCreate;
  rec.seq = next_seq_locked();
  rec.path = path;
  rec.code_spec = code_spec;
  rec.block_size = block_size;
  shard.journal.append(rec);
  FileInfo info;
  info.code_spec = code_spec;
  info.block_size = block_size;
  info.sealed = false;
  shard.pending.emplace(path, std::move(info));
  maybe_snapshot_locked(shard_of(path));
  return Status::ok();
}

Result<std::vector<cluster::StripeId>> NameNode::attach_stripes(
    const std::string& path, const ec::CodeScheme& code,
    const std::vector<std::vector<cluster::NodeId>>& groups) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.pending.find(path);
  if (it == shard.pending.end()) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  // Register first (validation may fail), then journal + publish: the
  // journal must only describe changes that actually took hold.
  std::vector<cluster::StripeId> ids;
  ids.reserve(groups.size());
  for (const auto& group : groups) {
    const cluster::StripeId id = next_stripe_id_.fetch_add(1);
    const Status registered =
        shard.catalog.register_stripe_at(id, code, group, /*sealed=*/false);
    if (!registered.is_ok()) {
      for (cluster::StripeId done : ids) {
        (void)shard.catalog.unregister_stripe(done);
        shard.stripe_specs.erase(done);
        router_erase(done);
      }
      return registered;
    }
    shard.stripe_specs.emplace(id, it->second.code_spec);
    router_insert(id, static_cast<std::uint32_t>(index));
    ids.push_back(id);
  }
  JournalRecord rec;
  rec.kind = JournalRecordKind::kAllocate;
  rec.seq = next_seq_locked();
  rec.path = path;
  rec.stripes.assign(ids.begin(), ids.end());
  rec.groups.reserve(groups.size());
  for (const auto& group : groups) rec.groups.push_back(group_to_i32(group));
  shard.journal.append(rec);
  it->second.stripes.insert(it->second.stripes.end(), ids.begin(), ids.end());
  maybe_snapshot_locked(index);
  return ids;
}

Status NameNode::record_store(const std::string& path,
                              cluster::StripeId stripe, std::size_t bytes) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.pending.find(path);
  if (it == shard.pending.end()) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  JournalRecord rec;
  rec.kind = JournalRecordKind::kStore;
  rec.seq = next_seq_locked();
  rec.path = path;
  rec.stripe = stripe;
  rec.length = bytes;
  shard.journal.append(rec);
  it->second.length += bytes;
  maybe_snapshot_locked(index);
  return Status::ok();
}

Status NameNode::commit_write(const std::string& path) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.pending.find(path);
  if (it == shard.pending.end()) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  // Seal every stripe, then publish, all in one critical section: readers
  // never observe a published file with unsealed stripes.
  for (cluster::StripeId id : it->second.stripes) {
    JournalRecord seal;
    seal.kind = JournalRecordKind::kSeal;
    seal.seq = next_seq_locked();
    seal.stripe = id;
    shard.journal.append(seal);
    DBLREP_RETURN_IF_ERROR(shard.catalog.seal_stripe(id));
  }
  JournalRecord rec;
  rec.kind = JournalRecordKind::kCommit;
  rec.seq = next_seq_locked();
  rec.path = path;
  rec.length = it->second.length;
  shard.journal.append(rec);
  FileInfo info = std::move(it->second);
  info.sealed = true;
  shard.pending.erase(it);
  shard.files.emplace(path, std::move(info));
  maybe_snapshot_locked(index);
  return Status::ok();
}

StripePlacement NameNode::unregister_locked(Shard& shard,
                                            cluster::StripeId id) {
  StripePlacement placement;
  placement.id = id;
  const auto spec = shard.stripe_specs.find(id);
  if (spec != shard.stripe_specs.end()) placement.code_spec = spec->second;
  placement.group = shard.catalog.stripe(id).group;
  DBLREP_CHECK(shard.catalog.unregister_stripe(id).is_ok());
  shard.stripe_specs.erase(id);
  router_erase(id);
  return placement;
}

Result<RemovedFile> NameNode::abort_write(const std::string& path) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.pending.find(path);
  if (it == shard.pending.end()) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  JournalRecord rec;
  rec.kind = JournalRecordKind::kAbort;
  rec.seq = next_seq_locked();
  rec.path = path;
  shard.journal.append(rec);
  RemovedFile removed;
  removed.info = std::move(it->second);
  // An open write's stripes were all allocated by this shard (allocation
  // shard == namespace shard; only a later rename can split them).
  for (cluster::StripeId id : removed.info.stripes) {
    removed.stripes.push_back(unregister_locked(shard, id));
  }
  shard.pending.erase(it);
  maybe_snapshot_locked(index);
  return removed;
}

Result<RemovedFile> NameNode::remove_file(const std::string& path) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  RemovedFile removed;
  // Foreign-owned stripes (the file was renamed into this shard) are
  // GC-journaled per owner shard after the namespace shard is released --
  // delete never holds two shard locks at once.
  std::map<std::uint32_t, std::vector<cluster::StripeId>> foreign;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.files.find(path);
    if (it == shard.files.end()) {
      return not_found_error(path);
    }
    JournalRecord rec;
    rec.kind = JournalRecordKind::kDelete;
    rec.seq = next_seq_locked();
    rec.path = path;
    shard.journal.append(rec);
    removed.info = std::move(it->second);
    shard.files.erase(it);
    for (cluster::StripeId id : removed.info.stripes) {
      const std::uint32_t owner = route(id);
      if (owner == index) {
        removed.stripes.push_back(unregister_locked(shard, id));
      } else {
        foreign[owner].push_back(id);
      }
    }
    maybe_snapshot_locked(index);
  }
  for (const auto& [owner, ids] : foreign) {
    Shard& other = *shards_[owner];
    std::unique_lock<std::shared_mutex> lock(other.mu);
    JournalRecord rec;
    rec.kind = JournalRecordKind::kGcStripes;
    rec.seq = next_seq_locked();
    rec.stripes.assign(ids.begin(), ids.end());
    other.journal.append(rec);
    for (cluster::StripeId id : ids) {
      removed.stripes.push_back(unregister_locked(other, id));
    }
    maybe_snapshot_locked(owner);
  }
  return removed;
}

Status NameNode::rename(const std::string& from, const std::string& to) {
  if (from == to) return Status::ok();
  const std::size_t a = shard_of(from);
  const std::size_t b = shard_of(to);
  // Data-plane path locks first (excludes in-flight readers of either
  // path), ordered by (shard, stripe) -- globally consistent with every
  // single-path locker.
  const std::size_t stripe_a = shards_[a]->path_locks.stripe_of(from);
  const std::size_t stripe_b = shards_[b]->path_locks.stripe_of(to);
  std::unique_lock<std::shared_mutex> path_first;
  std::unique_lock<std::shared_mutex> path_second;
  if (a == b && stripe_a == stripe_b) {
    path_first = std::unique_lock(shards_[a]->path_locks.of(from));
  } else if (std::pair(a, stripe_a) < std::pair(b, stripe_b)) {
    path_first = std::unique_lock(shards_[a]->path_locks.of(from));
    path_second = std::unique_lock(shards_[b]->path_locks.of(to));
  } else {
    path_first = std::unique_lock(shards_[b]->path_locks.of(to));
    path_second = std::unique_lock(shards_[a]->path_locks.of(from));
  }

  if (a == b) {
    Shard& shard = *shards_[a];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.files.find(from);
    if (it == shard.files.end()) {
      return not_found_error(from);
    }
    if (shard.files.contains(to) || shard.pending.contains(to)) {
      return already_exists_error(to);
    }
    JournalRecord rec;
    rec.kind = JournalRecordKind::kRename;
    rec.seq = next_seq_locked();
    rec.path = from;
    rec.path2 = to;
    shard.journal.append(rec);
    FileInfo info = std::move(it->second);
    shard.files.erase(it);
    shard.files.emplace(to, std::move(info));
    maybe_snapshot_locked(a);
    return Status::ok();
  }

  // Cross-shard: both shard locks in index order, then the three-record
  // intent protocol (RenameOut in the source, RenameIn in the destination,
  // RenameAck closing the source). A crash between any two records leaves
  // an intent recovery can finish from the journals alone.
  Shard& src = *shards_[a];
  Shard& dst = *shards_[b];
  std::unique_lock<std::shared_mutex> lock_lo(a < b ? src.mu : dst.mu);
  std::unique_lock<std::shared_mutex> lock_hi(a < b ? dst.mu : src.mu);
  const auto it = src.files.find(from);
  if (it == src.files.end()) {
    return not_found_error(from);
  }
  if (dst.files.contains(to) || dst.pending.contains(to)) {
    return already_exists_error(to);
  }
  const FileState state = to_file_state(it->second);
  JournalRecord out;
  out.kind = JournalRecordKind::kRenameOut;
  out.seq = next_seq_locked();
  out.path = from;
  out.path2 = to;
  out.file = state;
  src.journal.append(out);
  JournalRecord in;
  in.kind = JournalRecordKind::kRenameIn;
  in.seq = next_seq_locked();
  in.path2 = to;
  in.file = state;
  dst.journal.append(in);
  JournalRecord ack;
  ack.kind = JournalRecordKind::kRenameAck;
  ack.seq = next_seq_locked();
  ack.path = from;
  src.journal.append(ack);
  FileInfo info = std::move(it->second);
  src.files.erase(it);
  dst.files.emplace(to, std::move(info));
  maybe_snapshot_locked(a);
  maybe_snapshot_locked(b);
  return Status::ok();
}

Result<RemovedFile> NameNode::replace(const std::string& from,
                                      const std::string& to) {
  if (from == to) {
    return invalid_argument_error("replace: from == to: " + from);
  }
  const std::size_t a = shard_of(from);
  const std::size_t b = shard_of(to);
  // Both data-plane path locks, exclusive, ordered by (shard, stripe) --
  // the same global order as rename and every single-path locker. Readers
  // of `to` are excluded for the duration of the swap.
  const std::size_t stripe_a = shards_[a]->path_locks.stripe_of(from);
  const std::size_t stripe_b = shards_[b]->path_locks.stripe_of(to);
  std::unique_lock<std::shared_mutex> path_first;
  std::unique_lock<std::shared_mutex> path_second;
  if (a == b && stripe_a == stripe_b) {
    path_first = std::unique_lock(shards_[a]->path_locks.of(from));
  } else if (std::pair(a, stripe_a) < std::pair(b, stripe_b)) {
    path_first = std::unique_lock(shards_[a]->path_locks.of(from));
    path_second = std::unique_lock(shards_[b]->path_locks.of(to));
  } else {
    path_first = std::unique_lock(shards_[b]->path_locks.of(to));
    path_second = std::unique_lock(shards_[a]->path_locks.of(from));
  }

  RemovedFile removed;
  // Stripes of the outgoing layout owned by neither namespace shard are
  // GC-journaled per owner after the shard locks drop -- like remove_file,
  // no extra shard lock is ever nested.
  std::map<std::uint32_t, std::vector<cluster::StripeId>> foreign;

  if (a == b) {
    Shard& shard = *shards_[a];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    const auto it_from = shard.files.find(from);
    if (it_from == shard.files.end()) return not_found_error(from);
    const auto it_to = shard.files.find(to);
    if (it_to == shard.files.end()) return not_found_error(to);
    // Delete the outgoing layout, then move `from` over the path -- both
    // under one lock hold, so no reader can observe the gap.
    JournalRecord del;
    del.kind = JournalRecordKind::kDelete;
    del.seq = next_seq_locked();
    del.path = to;
    shard.journal.append(del);
    removed.info = std::move(it_to->second);
    shard.files.erase(it_to);
    for (cluster::StripeId id : removed.info.stripes) {
      const std::uint32_t owner = route(id);
      if (owner == a) {
        removed.stripes.push_back(unregister_locked(shard, id));
      } else {
        foreign[owner].push_back(id);
      }
    }
    JournalRecord rec;
    rec.kind = JournalRecordKind::kRename;
    rec.seq = next_seq_locked();
    rec.path = from;
    rec.path2 = to;
    shard.journal.append(rec);
    FileInfo info = std::move(it_from->second);
    shard.files.erase(it_from);
    shard.files.emplace(to, std::move(info));
    maybe_snapshot_locked(a);
  } else {
    // Cross-shard: both shard locks in index order, kDelete journaled in
    // the destination, then the rename intent protocol -- all before any
    // lock drops, so the namespace never shows the path missing.
    Shard& src = *shards_[a];
    Shard& dst = *shards_[b];
    std::unique_lock<std::shared_mutex> lock_lo(a < b ? src.mu : dst.mu);
    std::unique_lock<std::shared_mutex> lock_hi(a < b ? dst.mu : src.mu);
    const auto it_from = src.files.find(from);
    if (it_from == src.files.end()) return not_found_error(from);
    const auto it_to = dst.files.find(to);
    if (it_to == dst.files.end()) return not_found_error(to);
    JournalRecord del;
    del.kind = JournalRecordKind::kDelete;
    del.seq = next_seq_locked();
    del.path = to;
    dst.journal.append(del);
    removed.info = std::move(it_to->second);
    dst.files.erase(it_to);
    std::vector<cluster::StripeId> src_owned;
    for (cluster::StripeId id : removed.info.stripes) {
      const std::uint32_t owner = route(id);
      if (owner == b) {
        removed.stripes.push_back(unregister_locked(dst, id));
      } else if (owner == a) {
        src_owned.push_back(id);  // src lock already held: GC inline
      } else {
        foreign[owner].push_back(id);
      }
    }
    if (!src_owned.empty()) {
      JournalRecord gc;
      gc.kind = JournalRecordKind::kGcStripes;
      gc.seq = next_seq_locked();
      gc.stripes.assign(src_owned.begin(), src_owned.end());
      src.journal.append(gc);
      for (cluster::StripeId id : src_owned) {
        removed.stripes.push_back(unregister_locked(src, id));
      }
    }
    const FileState state = to_file_state(it_from->second);
    JournalRecord out;
    out.kind = JournalRecordKind::kRenameOut;
    out.seq = next_seq_locked();
    out.path = from;
    out.path2 = to;
    out.file = state;
    src.journal.append(out);
    JournalRecord in;
    in.kind = JournalRecordKind::kRenameIn;
    in.seq = next_seq_locked();
    in.path2 = to;
    in.file = state;
    dst.journal.append(in);
    JournalRecord ack;
    ack.kind = JournalRecordKind::kRenameAck;
    ack.seq = next_seq_locked();
    ack.path = from;
    src.journal.append(ack);
    FileInfo info = std::move(it_from->second);
    src.files.erase(it_from);
    dst.files.emplace(to, std::move(info));
    maybe_snapshot_locked(a);
    maybe_snapshot_locked(b);
  }

  for (const auto& [owner, ids] : foreign) {
    Shard& other = *shards_[owner];
    std::unique_lock<std::shared_mutex> lock(other.mu);
    JournalRecord rec;
    rec.kind = JournalRecordKind::kGcStripes;
    rec.seq = next_seq_locked();
    rec.stripes.assign(ids.begin(), ids.end());
    other.journal.append(rec);
    for (cluster::StripeId id : ids) {
      removed.stripes.push_back(unregister_locked(other, id));
    }
    maybe_snapshot_locked(owner);
  }
  return removed;
}

// ------------------------------------------------------------------ reads

Result<FileInfo> NameNode::lookup(const std::string& path) const {
  const Shard& shard = *shards_[shard_of(path)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.files.find(path);
  if (it == shard.files.end()) {
    return not_found_error(path);
  }
  return it->second;
}

Result<FileInfo> NameNode::stat(const std::string& path) const {
  const Shard& shard = *shards_[shard_of(path)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  if (const auto it = shard.files.find(path); it != shard.files.end()) {
    return it->second;
  }
  if (const auto it = shard.pending.find(path); it != shard.pending.end()) {
    return it->second;
  }
  return not_found_error(path);
}

std::vector<std::string> NameNode::list_files() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [path, info] : shard->files) names.push_back(path);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::pair<std::string, FileInfo>> NameNode::snapshot_files()
    const {
  std::vector<std::pair<std::string, FileInfo>> out;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& entry : shard->files) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

std::size_t NameNode::num_files() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    n += shard->files.size();
  }
  return n;
}

bool NameNode::has_pending_writes() const {
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    if (!shard->pending.empty()) return true;
  }
  return false;
}

// ----------------------------------------------------------- catalog view

const cluster::StripeInfo& NameNode::stripe(cluster::StripeId id) const {
  return shards_[route(id)]->catalog.stripe(id);
}

cluster::NodeId NameNode::node_of(cluster::SlotAddress address) const {
  return shards_[route(address.stripe)]->catalog.node_of(address);
}

std::vector<cluster::NodeId> NameNode::replica_nodes(cluster::StripeId id,
                                                     std::size_t symbol)
    const {
  return shards_[route(id)]->catalog.replica_nodes(id, symbol);
}

bool NameNode::is_registered(cluster::StripeId id) const {
  std::uint32_t shard = 0;
  if (!try_route(id, shard)) return false;
  return shards_[shard]->catalog.is_registered(id);
}

bool NameNode::is_sealed(cluster::StripeId id) const {
  std::uint32_t shard = 0;
  if (!try_route(id, shard)) return false;
  return shards_[shard]->catalog.is_sealed(id);
}

std::size_t NameNode::num_stripes() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->catalog.num_stripes();
  return n;
}

std::vector<cluster::SlotAddress> NameNode::slots_on_node(
    cluster::NodeId node) const {
  std::vector<cluster::SlotAddress> slots;
  for (const auto& shard : shards_) {
    const auto part = shard->catalog.slots_on_node(node);
    slots.insert(slots.end(), part.begin(), part.end());
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

std::vector<cluster::StripeId> NameNode::stripes_on_node(
    cluster::NodeId node) const {
  std::vector<cluster::StripeId> out;
  for (const auto& shard : shards_) {
    const auto part = shard->catalog.stripes_on_node(node);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status NameNode::begin_repair(cluster::StripeId id) {
  std::uint32_t shard = 0;
  if (!try_route(id, shard)) {
    return not_found_error("stripe " + std::to_string(id) + " unknown");
  }
  return shards_[shard]->catalog.begin_repair(id);
}

void NameNode::end_repair(cluster::StripeId id) {
  shards_[route(id)]->catalog.end_repair(id);
}

std::shared_mutex& NameNode::path_mutex(const std::string& path) const {
  return shards_[shard_of(path)]->path_locks.of(path);
}

// --------------------------------------------------- snapshots / artifacts

void NameNode::snapshot() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
    snapshot_shard_locked(i);
  }
}

void NameNode::snapshot_shard_locked(std::size_t index) {
  Shard& shard = *shards_[index];
  ShardImage image;
  image.last_seq = shard.journal.last_seq();
  image.next_stripe_id = next_stripe_id_.load();
  for (const auto& [path, info] : shard.files) {
    image.files.emplace_back(path, to_file_state(info));
  }
  for (const auto& [path, info] : shard.pending) {
    image.pending.emplace_back(path, to_file_state(info));
  }
  for (cluster::StripeId id : shard.catalog.live_stripe_ids()) {
    ShardImage::Stripe stripe;
    stripe.id = id;
    stripe.code_spec = shard.stripe_specs.at(id);
    stripe.sealed = shard.catalog.is_sealed(id);
    stripe.group = group_to_i32(shard.catalog.stripe(id).group);
    image.stripes.push_back(std::move(stripe));
  }
  shard.snapshot = encode_snapshot(image);
  shard.journal.clear();
}

void NameNode::maybe_snapshot_locked(std::size_t index) {
  if (options_.snapshot_every == 0) return;
  if (shards_[index]->journal.num_records() >= options_.snapshot_every) {
    snapshot_shard_locked(index);
  }
}

Buffer NameNode::snapshot_bytes(std::size_t shard) const {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::shared_lock<std::shared_mutex> lock(shards_[shard]->mu);
  return shards_[shard]->snapshot;
}

Buffer NameNode::journal_bytes(std::size_t shard) const {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::shared_lock<std::shared_mutex> lock(shards_[shard]->mu);
  const ByteSpan bytes = shards_[shard]->journal.bytes();
  return Buffer(bytes.begin(), bytes.end());
}

std::size_t NameNode::journal_record_count(std::size_t shard) const {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::shared_lock<std::shared_mutex> lock(shards_[shard]->mu);
  return shards_[shard]->journal.num_records();
}

std::size_t NameNode::total_journal_records() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    n += journal_record_count(i);
  }
  return n;
}

std::uint64_t NameNode::fingerprint() const {
  // Entry order must not depend on the shard count, so gather-then-sort.
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  std::vector<std::tuple<std::uint64_t, std::string, bool,
                         std::vector<cluster::NodeId>>>
      stripes;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    const auto mix_file = [](std::uint64_t tag, const std::string& path,
                             const FileInfo& info) {
      std::uint64_t h = fnv1a_u64(kFnvOffset, tag);
      h = fnv1a_str(h, path);
      h = fnv1a_str(h, info.code_spec);
      h = fnv1a_u64(h, info.block_size);
      h = fnv1a_u64(h, info.length);
      for (cluster::StripeId id : info.stripes) h = fnv1a_u64(h, id);
      return h;
    };
    for (const auto& [path, info] : shard->files) {
      entries.emplace_back(path, mix_file(1, path, info));
    }
    for (const auto& [path, info] : shard->pending) {
      entries.emplace_back(path, mix_file(2, path, info));
    }
    for (cluster::StripeId id : shard->catalog.live_stripe_ids()) {
      stripes.emplace_back(id, shard->stripe_specs.at(id),
                           shard->catalog.is_sealed(id),
                           shard->catalog.stripe(id).group);
    }
  }
  std::sort(entries.begin(), entries.end());
  std::sort(stripes.begin(), stripes.end());
  std::uint64_t h = kFnvOffset;
  for (const auto& [path, entry_hash] : entries) h = fnv1a_u64(h, entry_hash);
  for (const auto& [id, spec, sealed, group] : stripes) {
    h = fnv1a_u64(h, id);
    h = fnv1a_str(h, spec);
    h = fnv1a_u64(h, sealed ? 1 : 0);
    for (cluster::NodeId node : group) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(node));
    }
  }
  return h;
}

Result<RecoveryReport> NameNode::crash_and_recover() {
  std::vector<Buffer> snapshots;
  std::vector<Buffer> journals;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    snapshots.push_back(snapshot_bytes(i));
    journals.push_back(journal_bytes(i));
  }
  return restore(std::move(snapshots), std::move(journals));
}

Status NameNode::testonly_drop_last_journal_record(std::size_t shard) {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::unique_lock<std::shared_mutex> lock(shards_[shard]->mu);
  return shards_[shard]->journal.drop_last_record();
}

}  // namespace dblrep::hdfs
