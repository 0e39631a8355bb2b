#include "hdfs/minidfs.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>

#include "ec/layering.h"
#include "ec/registry.h"

namespace dblrep::hdfs {

MiniDfs::MiniDfs(const cluster::Topology& topology, std::uint64_t seed,
                 exec::ThreadPool* pool, const MiniDfsOptions& options)
    : topology_(topology),
      options_(options),
      namenode_(
          topology_,
          // The NameNode resolves code specs through the DFS's runtime
          // table (one scheme + codec pool per spec, created on demand).
          [this](const std::string& spec) { return this->scheme(spec); },
          NameNodeOptions{options.meta_shards, options.meta_snapshot_every}),
      traffic_(topology_, options.transfer_log),
      pool_(pool != nullptr ? pool : &exec::inline_pool()),
      rng_(seed) {
  for (std::size_t n = 0; n < topology_.num_nodes; ++n) {
    datanodes_.emplace_back(static_cast<cluster::NodeId>(n));
  }
}

std::vector<int> MiniDfs::group_racks(
    const std::vector<cluster::NodeId>& group) const {
  std::vector<int> racks(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    racks[i] = topology_.rack_of(group[i]);
  }
  return racks;
}

Result<MiniDfs::SchemeRuntime*> MiniDfs::runtime(const std::string& code_spec) {
  {
    std::shared_lock<std::shared_mutex> lock(scheme_mu_);
    const auto it = schemes_.find(code_spec);
    if (it != schemes_.end()) return &it->second;
  }
  auto made = ec::make_code(code_spec);
  if (!made.is_ok()) return made.status();
  std::unique_lock<std::shared_mutex> lock(scheme_mu_);
  const auto it = schemes_.find(code_spec);
  if (it != schemes_.end()) return &it->second;  // lost the creation race
  SchemeRuntime rt;
  rt.code = std::move(*made);
  rt.runtimes = std::make_unique<exec::RuntimePool>(*rt.code);
  auto* placed = &schemes_.emplace(code_spec, std::move(rt)).first->second;
  pools_by_code_.emplace(placed->code.get(), placed->runtimes.get());
  return placed;
}

Result<const ec::CodeScheme*> MiniDfs::scheme(const std::string& code_spec) {
  auto rt = runtime(code_spec);
  if (!rt.is_ok()) return rt.status();
  return (*rt)->code.get();
}

exec::RuntimePool& MiniDfs::runtime_pool_for(const ec::CodeScheme& code) const {
  std::shared_lock<std::shared_mutex> lock(scheme_mu_);
  const auto it = pools_by_code_.find(&code);
  // Every registered stripe's code was created through runtime().
  DBLREP_CHECK_MSG(it != pools_by_code_.end(),
                   "no runtime pool for code " << code.params().name);
  return *it->second;
}

Result<const ec::RepairPlan*> MiniDfs::cached_repair_plan(
    const ec::CodeScheme& code, const std::set<ec::NodeIndex>& failed) {
  const PlanKey key{&code, failed};
  {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    const auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) return &it->second;
  }
  // Planning (the basis solve) runs outside any lock; losing the insertion
  // race just discards a duplicate plan. Single failures route through the
  // virtual plan_node_repair so sub-packetized schemes (Clay, piggyback)
  // can serve their bandwidth-optimal sub-chunk plans; for every other
  // scheme that call delegates straight back to plan_multi_node_repair.
  auto plan = failed.size() == 1
                  ? code.plan_node_repair(*failed.begin())
                  : code.plan_multi_node_repair(failed);
  if (!plan.is_ok()) return plan.status();
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  return &plan_cache_.try_emplace(key, std::move(*plan)).first->second;
}

Status MiniDfs::begin_write(const std::string& path,
                            const std::string& code_spec,
                            std::size_t block_size) {
  if (block_size == 0) return invalid_argument_error("zero block size");
  auto rt_result = runtime(code_spec);  // validates the spec
  if (!rt_result.is_ok()) return rt_result.status();
  const ec::CodeScheme& code = *(*rt_result)->code;
  // Sub-packetized schemes slice every block into α sub-chunks; a block
  // size that does not divide evenly would silently change the stripe
  // geometry, so reject it at transaction open.
  if (block_size % code.sub_chunks() != 0) {
    return invalid_argument_error(
        "block size " + std::to_string(block_size) + " not divisible by " +
        code_spec + "'s " + std::to_string(code.sub_chunks()) +
        " sub-chunks");
  }

  // Enough live nodes to place a stripe? Checked here so an impossible
  // transaction fails fast, and re-checked per allocation (membership can
  // change while a streaming write is open).
  std::size_t live = 0;
  for (const auto& dn : datanodes_) {
    if (dn.is_up()) ++live;
  }
  if (live < code.num_nodes()) {
    return resource_exhausted_error("not enough live nodes for " + code_spec);
  }

  // Reserve the path (journaled): concurrent creators of the same name
  // fail fast, and readers see nothing until commit_write publishes.
  return namenode_.begin_write(path, code_spec, block_size);
}

Result<std::vector<cluster::StripeId>> MiniDfs::allocate_stripes(
    const std::string& path, std::size_t count) {
  const auto open = namenode_.stat(path);
  if (!open.is_ok() || open->sealed) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  auto code_result = scheme(open->code_spec);
  if (!code_result.is_ok()) return code_result.status();
  const ec::CodeScheme& code = **code_result;

  // One live-node scan per batch: the bulk write path allocates a whole
  // file's stripes in one call, so this costs what the pre-transaction
  // write_file paid, not once per stripe.
  std::vector<cluster::NodeId> live;
  for (const auto& dn : datanodes_) {
    if (dn.is_up()) live.push_back(dn.id());
  }
  if (live.size() < code.num_nodes()) {
    return resource_exhausted_error("not enough live nodes for " +
                                    open->code_spec);
  }

  // Placement is serial: one rng draw sequence per stripe in allocation
  // order, so the layout is a deterministic function of the seed and
  // byte-identical between serial and parallel executions. The
  // construction-time policy decides the rack structure: flat (rack-blind
  // uniform), rack_aware spreading, or group_per_rack, which pins each
  // local code group to its own rack. attach_stripes runs under the same
  // lock hold, so stripe ids are assigned in draw order -- which is what
  // makes the layout independent of the metadata shard count -- and
  // registration is atomic with the open-transaction check (a concurrent
  // abort closing the transaction cannot leak stripes).
  std::vector<std::vector<cluster::NodeId>> groups;
  groups.reserve(count);
  std::lock_guard<std::mutex> lock(place_mu_);
  for (std::size_t s = 0; s < count; ++s) {
    auto group_result = cluster::place_stripe_group(options_.placement,
                                                    topology_, code, live,
                                                    rng_);
    if (!group_result.is_ok()) return group_result.status();
    groups.push_back(std::move(*group_result));
  }
  // Unsealed until commit_write publishes the file: a concurrent repair
  // pass must not mistake a write in flight for mass failure (nor race an
  // abort of one).
  return namenode_.attach_stripes(path, code, groups);
}

Result<cluster::StripeId> MiniDfs::allocate_stripe(const std::string& path) {
  auto stripes = allocate_stripes(path, 1);
  if (!stripes.is_ok()) return stripes.status();
  return stripes->front();
}

Status MiniDfs::store_stripes(const std::string& path,
                              std::span<const cluster::StripeId> stripes,
                              ByteSpan data, net::TransferClass cls) {
  const auto open = namenode_.stat(path);
  if (!open.is_ok() || open->sealed) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  auto rt_result = runtime(open->code_spec);
  if (!rt_result.is_ok()) return rt_result.status();
  SchemeRuntime& rt = **rt_result;
  const ec::CodeScheme& code = *rt.code;
  const std::size_t block_size = open->block_size;
  const std::size_t stripe_bytes = code.data_blocks() * block_size;
  if (data.empty() ||
      (data.size() + stripe_bytes - 1) / stripe_bytes != stripes.size()) {
    return invalid_argument_error(
        "stripe data must be non-empty and span exactly the given stripes");
  }

  // Each pool task owns a contiguous run of batch_stripes() stripes and
  // one codec lease, so encode_batch can fuse the run's parity passes into
  // single coefficient-block walks. Systematic symbols are zero-copy views
  // into `data`, parities come out of the leased codec's arena, and the
  // sink persists each stripe's symbols before the next batch recycles
  // it. parallel_for_all runs every task even after a failure and reports
  // the lowest-indexed one; encode_batch stops at the first failing stripe
  // of its run, so the reported stripe is the lowest failing one whatever
  // the pool scheduling. Stripes stay *unsealed* until commit_write:
  // sealing here would expose them to concurrent repair/scrub passes while
  // the transaction can still abort, and abort_write unregistering a
  // stripe a repair is persisting is exactly the dangling-reference race
  // the seal flag exists to prevent.
  const auto& layout = code.layout();
  const std::size_t batch = ec::StripeCodec(code).batch_stripes(block_size);
  const std::size_t num_batches = (stripes.size() + batch - 1) / batch;
  DBLREP_RETURN_IF_ERROR(exec::parallel_for_all(
      *pool_, num_batches, [&](std::size_t b) -> Status {
        const std::size_t first = b * batch;
        const std::size_t begin = first * stripe_bytes;
        const std::size_t len =
            std::min(batch * stripe_bytes, data.size() - begin);
        auto lease = rt.runtimes->acquire();
        return lease->codec.encode_batch(
            data.subspan(begin, len), block_size,
            [&](std::size_t s, std::span<const ByteSpan> symbols) -> Status {
              const cluster::StripeId stripe = stripes[first + s];
              for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
                const ByteSpan symbol = symbols[layout.symbol_of_slot(slot)];
                const cluster::NodeId node = namenode_.node_of({stripe, slot});
                DBLREP_RETURN_IF_ERROR(
                    datanodes_[static_cast<std::size_t>(node)].put(
                        {stripe, slot}, symbol));
                // Client -> datanode transfer (the client is off-cluster),
                // charged at the slot payload size: a full block for
                // α == 1, one sub-chunk for sub-packetized schemes.
                traffic_.record(net::kClientEndpoint, node, symbol.size(),
                                cls);
              }
              return Status::ok();
            });
      }));

  // One journaled progress record per call, for stat() of the open write.
  return namenode_.record_store(path, stripes.front(), data.size());
}

Status MiniDfs::store_stripe(const std::string& path,
                             cluster::StripeId stripe, ByteSpan stripe_data,
                             net::TransferClass cls) {
  return store_stripes(path, std::span<const cluster::StripeId>(&stripe, 1),
                       stripe_data, cls);
}

Status MiniDfs::commit_write(const std::string& path) {
  // Seal-at-commit: the NameNode seals every stripe and publishes the path
  // in one journaled critical section, so no stripe is ever both sealed
  // and abortable.
  DBLREP_RETURN_IF_ERROR(namenode_.commit_write(path));
  if (options_.access_observer != nullptr) {
    const auto info = namenode_.lookup(path);
    options_.access_observer->on_write(path, info.is_ok() ? info->length : 0);
  }
  return Status::ok();
}

Status MiniDfs::abort_write(const std::string& path) {
  // Failed writes must not leak: the NameNode drops the metadata (journaled
  // kAbort) and hands back each stripe's placement so the blocks that
  // landed can be dropped here (all still possible -- unsealed stripes are
  // invisible to repair, and the unpublished path is invisible to readers).
  auto removed = namenode_.abort_write(path);
  if (!removed.is_ok()) return removed.status();
  return drop_blocks(*removed);
}

Status MiniDfs::drop_blocks(const RemovedFile& removed) {
  for (const StripePlacement& placement : removed.stripes) {
    auto code_result = scheme(placement.code_spec);
    if (!code_result.is_ok()) return code_result.status();
    const auto& layout = (*code_result)->layout();
    for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
      const cluster::NodeId node = placement.group[static_cast<std::size_t>(
          layout.node_of_slot(slot))];
      // Absent blocks and down nodes are fine: there is nothing to drop.
      (void)datanodes_[static_cast<std::size_t>(node)].drop(
          {placement.id, slot});
    }
  }
  return Status::ok();
}

Status MiniDfs::write_file(const std::string& path, ByteSpan data,
                           const std::string& code_spec,
                           std::size_t block_size) {
  // The write transaction in one call: allocate every stripe up front
  // (serial draws), then encode + store them all through store_stripes,
  // zero-copy from `data` and fanned out across the pool.
  DBLREP_RETURN_IF_ERROR(begin_write(path, code_spec, block_size));
  // RAII rollback: every exit below -- error returns and stack unwinding
  // alike -- releases the path reservation and drops landed stripes,
  // unless the commit disarms it. (A leaked pending entry would poison
  // the path with ALREADY_EXISTS for the process lifetime.)
  struct AbortGuard {
    MiniDfs* dfs;
    const std::string& path;
    bool armed = true;
    ~AbortGuard() {
      if (armed) (void)dfs->abort_write(path);
    }
  } guard{this, path};

  auto code = scheme(code_spec);
  if (!code.is_ok()) return code.status();
  const std::size_t stripe_bytes = (*code)->data_blocks() * block_size;
  auto stripes =
      allocate_stripes(path, (data.size() + stripe_bytes - 1) / stripe_bytes);
  if (!stripes.is_ok()) return stripes.status();
  if (!data.empty()) {
    DBLREP_RETURN_IF_ERROR(store_stripes(path, *stripes, data,
                                         net::TransferClass::kClientWrite));
  }
  const Status committed = commit_write(path);
  if (committed.is_ok()) guard.armed = false;
  return committed;
}

namespace {

/// The distinct stored slots a plan reads, ascending: every helper term of
/// its aggregates and every local term of its reconstructions.
std::vector<std::size_t> helper_slots(const ec::RepairPlan& plan) {
  std::set<std::size_t> slots;
  for (const auto& send : plan.aggregates) {
    for (const auto& term : send.terms) slots.insert(term.slot);
  }
  for (const auto& rec : plan.reconstructions) {
    for (const auto& term : rec.local_terms) slots.insert(term.slot);
  }
  return {slots.begin(), slots.end()};
}

}  // namespace

MiniDfs::GatheredStripe MiniDfs::read_slots(
    cluster::StripeId stripe, std::span<const std::size_t> slots) const {
  const auto& info = namenode_.stripe(stripe);
  const auto& layout = info.code->layout();
  // The reads fan out across the pool, each into its own entry, so the
  // result is keyed by slot and never depends on completion order.
  std::vector<DataNode::Block> blocks(slots.size());
  (void)exec::parallel_for_all(*pool_, slots.size(), [&](std::size_t i) {
    const auto node = static_cast<std::size_t>(layout.node_of_slot(slots[i]));
    // read() is CRC-aware: a corrupted replica on a live node is as
    // unusable to a plan as a missing one, so it marks its node failed.
    auto block = datanodes_[static_cast<std::size_t>(info.group[node])].read(
        {stripe, slots[i]});
    if (block.is_ok()) blocks[i] = std::move(*block);
    return Status::ok();
  });
  GatheredStripe out;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (blocks[i] != nullptr) {
      out.slots.emplace(slots[i], std::move(blocks[i]));
    } else {
      out.failed.insert(layout.node_of_slot(slots[i]));
    }
  }
  return out;
}

MiniDfs::GatheredStripe MiniDfs::gather_stripe(
    cluster::StripeId stripe) const {
  std::vector<std::size_t> all(
      namenode_.stripe(stripe).code->layout().num_slots());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return read_slots(stripe, all);
}

ec::SlotStore MiniDfs::GatheredStripe::store() const {
  ec::SlotStore store;
  for (const auto& [slot, block] : slots) store.emplace(slot, *block);
  return store;
}

ec::SlotStore MiniDfs::GatheredStripe::store_for(
    const ec::RepairPlan& plan) const {
  ec::SlotStore store;  // a lost slot stays absent; execute() reports it
  for (std::size_t slot : helper_slots(plan)) {
    const auto it = slots.find(slot);
    if (it != slots.end()) store.emplace(slot, *it->second);
  }
  return store;
}

Result<Buffer> MiniDfs::read_data_block(const FileInfo& file,
                                        cluster::StripeId stripe,
                                        std::size_t block,
                                        net::TransferClass cls) {
  const ec::CodeScheme& code = *namenode_.stripe(stripe).code;
  const std::size_t alpha = code.sub_chunks();
  // Fast path: every sub-chunk of the block served from a replica. Gather
  // all α units first and account the deliveries only once the whole block
  // is in hand -- a miss on any unit means the block is served degraded
  // instead, and the abandoned replica reads must not be charged. For
  // α == 1 this is exactly the old single-replica block read. A replica
  // that fails to read marks its code-local node for the degraded plan
  // below to route around.
  std::set<ec::NodeIndex> failed;
  {
    std::vector<std::pair<cluster::NodeId, Buffer>> units;
    units.reserve(alpha);
    for (std::size_t unit = block * alpha; unit < (block + 1) * alpha;
         ++unit) {
      // Try each replica in turn; CRC failures and down nodes fall through.
      bool got = false;
      for (std::size_t slot : code.layout().slots_of_symbol(unit)) {
        const cluster::NodeId node = namenode_.node_of({stripe, slot});
        auto bytes =
            datanodes_[static_cast<std::size_t>(node)].get({stripe, slot});
        if (bytes.is_ok()) {
          units.emplace_back(node, std::move(*bytes));
          got = true;
          break;
        }
        failed.insert(code.layout().node_of_slot(slot));
      }
      if (!got) break;
    }
    if (units.size() == alpha) {
      Buffer out;
      out.reserve(file.block_size);
      for (auto& [node, bytes] : units) {
        traffic_.record(node, net::kClientEndpoint, bytes.size(), cls);
        out.insert(out.end(), bytes.begin(), bytes.end());
      }
      return out;
    }
  }
  // On-the-fly repair (Section 3.1). Plan first against what is known
  // without reading any block bytes -- the down nodes plus the replicas
  // that just failed -- and fetch only that plan's helpers. If a helper is
  // unreadable too (CRC-broken, or missing on a node restarted while a
  // repair is in flight), fall back once to planning over everything the
  // stripe can actually serve. Either way the plan executes over the bytes
  // it was made for, so the read stays stable even if the stripe changes
  // under it.
  const auto& group = namenode_.stripe(stripe).group;
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (!datanodes_[static_cast<std::size_t>(group[i])].is_up()) {
      failed.insert(static_cast<ec::NodeIndex>(i));
    }
  }
  const auto plan_over =
      [&](const std::set<ec::NodeIndex>& unusable) -> Result<ec::RepairPlan> {
    auto planned = code.plan_degraded_block(block, unusable);
    if (!planned.is_ok()) return planned.status();
    // Layered mode: each rack combines its partials locally and sends the
    // client one payload per rack instead of one per helper.
    if (options_.layered_repair) {
      return ec::layer_plan(*planned, group_racks(group));
    }
    return std::move(planned).value();
  };
  auto plan_result = plan_over(failed);
  GatheredStripe gathered;
  if (plan_result.is_ok()) {
    gathered = read_slots(stripe, helper_slots(*plan_result));
  }
  if (!plan_result.is_ok() || !gathered.failed.empty()) {
    gathered = gather_stripe(stripe);
    plan_result = plan_over(gathered.failed);
  }
  if (!plan_result.is_ok()) return plan_result.status();
  const ec::RepairPlan& plan = *plan_result;
  auto lease = runtime_pool_for(code).acquire();
  ec::SlotStore store = gathered.store_for(plan);
  auto delivered = lease->executor.execute(plan, store);
  if (!delivered.is_ok()) return delivered.status();
  if (delivered->size() != alpha) {
    return internal_error("degraded read returned unexpected unit count");
  }
  // Charge every aggregate that crossed the wire, at the unit payload size
  // the stripe actually stores (block_size / α; the full block for α == 1
  // schemes).
  DBLREP_RETURN_IF_ERROR(charge_plan(
      plan, group, store.empty() ? 0 : store.begin()->second.size(), cls));
  // plan_degraded_block delivers the α client units in unit order, so they
  // concatenate straight back into the logical block.
  Buffer out;
  out.reserve(file.block_size);
  for (Buffer& unit : *delivered) {
    out.insert(out.end(), unit.begin(), unit.end());
  }
  return out;
}

Result<Buffer> MiniDfs::read_block(const std::string& path,
                                   std::size_t block_index,
                                   net::TransferClass cls) {
  std::shared_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
  DBLREP_ASSIGN_OR_RETURN(const FileInfo info, namenode_.lookup(path));
  auto code_result = scheme(info.code_spec);
  if (!code_result.is_ok()) return code_result.status();
  const ec::CodeScheme& code = **code_result;
  const std::size_t total_blocks =
      (info.length + info.block_size - 1) / info.block_size;
  if (block_index >= total_blocks) {
    return invalid_argument_error("block index beyond end of file");
  }
  const std::size_t stripe_index = block_index / code.data_blocks();
  const std::size_t block = block_index % code.data_blocks();
  auto out = read_data_block(info, info.stripes[stripe_index], block, cls);
  if (out.is_ok() && options_.access_observer != nullptr &&
      cls == net::TransferClass::kClientRead) {
    options_.access_observer->on_read(path, out->size());
  }
  return out;
}

Result<Buffer> MiniDfs::pread_span(const FileInfo& info,
                                   const ec::CodeScheme& code,
                                   std::size_t offset, std::size_t len,
                                   net::TransferClass cls) {
  // Reads past EOF are clamped; a zero-length window is an empty buffer
  // that touches no datanode (and therefore moves no bytes).
  const std::size_t want = std::min(len, info.length - offset);
  Buffer out(want);
  if (want == 0) return out;

  const std::size_t k = code.data_blocks();
  const std::size_t block_size = info.block_size;
  const std::size_t first_block = offset / block_size;
  const std::size_t last_block = (offset + want - 1) / block_size;
  const std::size_t first_stripe = first_block / k;
  const std::size_t last_stripe = last_block / k;

  // Only the covering stripes resolve; they stream in parallel straight
  // into the result buffer (each block writes a disjoint byte range), with
  // the first and last block trimmed to the requested window.
  const Status read_status = exec::parallel_for_all(
      *pool_, last_stripe - first_stripe + 1, [&](std::size_t i) -> Status {
        const std::size_t si = first_stripe + i;
        const std::size_t blk_lo = si == first_stripe ? first_block % k : 0;
        const std::size_t blk_hi = si == last_stripe ? last_block % k : k - 1;
        for (std::size_t blk = blk_lo; blk <= blk_hi; ++blk) {
          auto block = read_data_block(info, info.stripes[si], blk, cls);
          if (!block.is_ok()) return block.status();
          const std::size_t block_begin = (si * k + blk) * block_size;
          const std::size_t copy_begin = std::max(block_begin, offset);
          const std::size_t copy_end =
              std::min(block_begin + block_size, offset + want);
          std::memcpy(out.data() + (copy_begin - offset),
                      block->data() + (copy_begin - block_begin),
                      copy_end - copy_begin);
        }
        return Status::ok();
      });
  if (!read_status.is_ok()) return read_status;
  return out;
}

Result<Buffer> MiniDfs::pread(const std::string& path, std::size_t offset,
                              std::size_t len, net::TransferClass cls) {
  std::shared_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
  // Resolve once: one namespace lookup and one scheme resolution for the
  // whole range, then pread_span moves the bytes.
  DBLREP_ASSIGN_OR_RETURN(const FileInfo info, namenode_.lookup(path));
  auto code_result = scheme(info.code_spec);
  if (!code_result.is_ok()) return code_result.status();
  if (offset > info.length) {
    return invalid_argument_error(
        "pread offset " + std::to_string(offset) + " beyond EOF of " + path +
        " (" + std::to_string(info.length) + " bytes)");
  }
  auto out = pread_span(info, **code_result, offset, len, cls);
  // Heat tracking sees foreground reads only: a re-encode streaming the
  // file under kRetier must not keep it hot.
  if (out.is_ok() && options_.access_observer != nullptr &&
      cls == net::TransferClass::kClientRead) {
    options_.access_observer->on_read(path, out->size());
  }
  return out;
}

Result<Buffer> MiniDfs::read_file(const std::string& path,
                                  net::TransferClass cls) {
  return pread(path, 0, std::numeric_limits<std::size_t>::max(), cls);
}

Status MiniDfs::delete_file(const std::string& path) {
  // Exclusive path lock first (excludes in-flight readers), then the
  // journaled metadata removal, then the block drops -- sourced from the
  // placements the NameNode hands back, since the catalog entries are gone.
  std::unique_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
  auto removed = namenode_.remove_file(path);
  if (!removed.is_ok()) return removed.status();
  DBLREP_RETURN_IF_ERROR(drop_blocks(*removed));
  if (options_.access_observer != nullptr) {
    options_.access_observer->on_delete(path);
  }
  return Status::ok();
}

Status MiniDfs::rename(const std::string& from, const std::string& to) {
  // Fully a metadata operation: the NameNode takes both path locks and --
  // cross-shard -- runs the journaled rename intent protocol.
  DBLREP_RETURN_IF_ERROR(namenode_.rename(from, to));
  if (options_.access_observer != nullptr) {
    options_.access_observer->on_rename(from, to);
  }
  return Status::ok();
}

Status MiniDfs::replace_file(const std::string& from, const std::string& to) {
  // The tiering transition's commit: publish-then-delete in one journaled
  // metadata step (NameNode::replace takes both path locks, drops `to`'s
  // old stripes, and moves `from` over it), then drop the old layout's
  // blocks from the datanodes using the placements handed back. Readers
  // either resolve the old layout (complete until the swap) or the new one
  // (complete since its commit_write) -- never a torn mix.
  auto removed = namenode_.replace(from, to);
  if (!removed.is_ok()) return removed.status();
  DBLREP_RETURN_IF_ERROR(drop_blocks(*removed));
  if (options_.access_observer != nullptr) {
    options_.access_observer->on_replace(from, to);
  }
  return Status::ok();
}

Result<FileInfo> MiniDfs::stat(const std::string& path) const {
  // A write in flight is visible to stat (sealed == false, length == bytes
  // stored so far) but not to readers.
  return namenode_.stat(path);
}

std::vector<std::string> MiniDfs::list_files() const {
  return namenode_.list_files();
}

Status MiniDfs::fail_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  datanodes_[static_cast<std::size_t>(node)].fail();
  return Status::ok();
}

Status MiniDfs::offline_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  datanodes_[static_cast<std::size_t>(node)].offline();
  return Status::ok();
}

Status MiniDfs::restart_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  auto& dn = datanodes_[static_cast<std::size_t>(node)];
  dn.restart();
  gc_stale_replicas(dn);
  return Status::ok();
}

void MiniDfs::gc_stale_replicas(DataNode& dn) {
  for (const auto& address : dn.stored_addresses()) {
    if (!namenode_.is_registered(address.stripe)) (void)dn.drop(address);
  }
}

Result<RecoveryReport> MiniDfs::crash_namenode() {
  auto report = namenode_.crash_and_recover();
  if (!report.is_ok()) return report;
  // Block reports: recovery rolled back open writes and finished
  // half-done deletes, so drop every block whose stripe no longer exists
  // -- the same GC a rejoining datanode runs.
  for (auto& dn : datanodes_) {
    if (dn.is_up()) gc_stale_replicas(dn);
  }
  return report;
}

Status MiniDfs::charge_plan(const ec::RepairPlan& plan,
                            const std::vector<cluster::NodeId>& group,
                            std::size_t unit_bytes, net::TransferClass cls) {
  const auto in_group = [&](ec::NodeIndex node) {
    return node >= 0 && static_cast<std::size_t>(node) < group.size();
  };
  for (const auto& send : plan.aggregates) {
    const bool to_client = send.to_node == ec::kClientNode;
    if (!in_group(send.from_node) || !(to_client || in_group(send.to_node))) {
      return internal_error("plan send references a node outside the "
                            "stripe's placement group");
    }
    traffic_.record(group[static_cast<std::size_t>(send.from_node)],
                    to_client ? net::kClientEndpoint
                              : group[static_cast<std::size_t>(send.to_node)],
                    unit_bytes, cls);
  }
  traffic_.mark();
  return Status::ok();
}

std::set<cluster::NodeId> MiniDfs::down_nodes() const {
  std::set<cluster::NodeId> down;
  for (const auto& dn : datanodes_) {
    if (!dn.is_up()) down.insert(dn.id());
  }
  return down;
}

Status MiniDfs::repair_stripe(cluster::StripeId stripe) {
  // Pin the stripe against deletion for the whole pass: a delete or rename
  // arriving mid-repair now drain-waits on this lease instead of pulling
  // the catalog entry out from under us. A delete that announced itself
  // first (ABORTED) or already finished (NOT_FOUND) makes this repair a
  // clean no-op -- there is nothing left worth rebuilding.
  const Status lease_status = namenode_.begin_repair(stripe);
  if (lease_status.code() == StatusCode::kAborted ||
      lease_status.code() == StatusCode::kNotFound) {
    return Status::ok();
  }
  DBLREP_RETURN_IF_ERROR(lease_status);
  struct LeaseGuard {
    NameNode* nn;
    cluster::StripeId id;
    ~LeaseGuard() { nn->end_repair(id); }
  } lease_guard{&namenode_, stripe};

  // Skip unsealed stripes (writes in flight).
  if (!namenode_.is_sealed(stripe)) return Status::ok();
  const auto& info = namenode_.stripe(stripe);
  const ec::CodeScheme& code = *info.code;

  // One gather serves both planning and execution: the failed set is
  // every code-local node with an unreadable slot (missing, down, or
  // CRC-broken -- the chaos sweeps drive exactly this mix of crashes and
  // bit rot), and the plan then runs over exactly those verified bytes.
  // Different stripes touch disjoint (stripe, slot) addresses, so this
  // never races with a concurrent repair of another stripe.
  const GatheredStripe gathered = gather_stripe(stripe);
  if (gathered.failed.empty()) return Status::ok();

  // The (code, failure-pattern) pair almost always repeats across stripes,
  // so the basis solve behind plan_multi_node_repair runs once per distinct
  // pattern and is replayed -- across threads -- for every affected stripe.
  DBLREP_ASSIGN_OR_RETURN(const ec::RepairPlan* plan,
                          cached_repair_plan(code, gathered.failed));
  // Layering depends on this stripe's rack assignment, so it happens per
  // stripe over the shared cached plan (a cheap list rewrite -- the GF
  // work on actual blocks dwarfs it).
  ec::RepairPlan layered;
  if (options_.layered_repair) {
    layered = ec::layer_plan(*plan, group_racks(info.group));
    plan = &layered;
  }
  auto lease = runtime_pool_for(code).acquire();
  ec::SlotStore store = gathered.store_for(*plan);
  auto run = lease->executor.execute(*plan, store);
  if (!run.is_ok()) return run.status();

  // Always-on guards (Status, not DCHECK): a malformed plan or a stripe
  // mutated under the repair must surface as an error in Release builds --
  // a chaos sweep that only runs Debug-checked paths proves nothing.
  if (store.empty() && !plan->aggregates.empty()) {
    return internal_error("repair plan executed over an empty slot store");
  }
  const std::size_t repair_block_size =
      store.empty() ? 0 : store.begin()->second.size();

  // Persist only what landed on *live* nodes; still-down nodes get theirs
  // when they are repaired. Charge traffic per aggregate send; stripes of
  // a larger repair are independent flows (and that parallelism is the
  // storm a captured replay must reproduce).
  DBLREP_RETURN_IF_ERROR(charge_plan(*plan, info.group, repair_block_size,
                                     net::TransferClass::kRepair));
  // Re-check the seal before persisting. The repair lease already excludes
  // deletion, so this is a backstop against plan or state corruption: if
  // it ever fires, fail loudly rather than resurrect dropped blocks.
  if (!namenode_.is_sealed(stripe)) {
    return failed_precondition_error(
        "stripe " + std::to_string(stripe) +
        " was unsealed or deleted while its repair was executing");
  }
  for (const auto& rec : plan->reconstructions) {
    const auto rebuilt = store.find(rec.dest_slot);
    if (rebuilt == store.end()) {
      return internal_error("repair plan left dest slot " +
                            std::to_string(rec.dest_slot) + " unbuilt");
    }
    if (rebuilt->second.size() != repair_block_size) {
      return corruption_error("rebuilt block size mismatch on stripe " +
                              std::to_string(stripe) + " slot " +
                              std::to_string(rec.dest_slot));
    }
    const cluster::NodeId dest = info.group[static_cast<std::size_t>(
        code.layout().node_of_slot(rec.dest_slot))];
    auto& dest_dn = datanodes_[static_cast<std::size_t>(dest)];
    if (dest_dn.is_up()) {
      DBLREP_RETURN_IF_ERROR(
          dest_dn.put({stripe, rec.dest_slot}, rebuilt->second));
    }
  }
  return Status::ok();
}

Status MiniDfs::repair_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  auto& dn = datanodes_[static_cast<std::size_t>(node)];
  if (!dn.is_up()) dn.restart();
  gc_stale_replicas(dn);

  // One pass over the node's stripes, fanned out across the pool: each
  // stripe independently gathers its slots, fetches the shared cached plan
  // for its failure pattern, and executes with a checked-out executor.
  // parallel_for_all: an unrecoverable stripe must not stop the others
  // from healing, and the set of healed stripes (plus the reported error)
  // must be identical whether the pass runs serial or parallel.
  const auto stripes = namenode_.stripes_on_node(node);
  return exec::parallel_for_all(*pool_, stripes.size(), [&](std::size_t i) {
    return repair_stripe(stripes[i]);
  });
}

Status MiniDfs::repair_all() {
  // Restart everyone first so repairs can land replicas on all nodes; then
  // one pass visits every stripe any node hosts exactly once. A stripe's
  // single repair_stripe plans against its full failed set, so it heals
  // every hole at once -- revisiting it per group member would only find
  // nothing left to do.
  std::vector<cluster::StripeId> hosted;  // a stripe once per node it spans
  for (auto& dn : datanodes_) {
    if (!dn.is_up()) dn.restart();
    gc_stale_replicas(dn);
    const auto on_node = namenode_.stripes_on_node(dn.id());
    hosted.insert(hosted.end(), on_node.begin(), on_node.end());
  }
  std::sort(hosted.begin(), hosted.end());
  std::vector<cluster::StripeId> stripes = hosted;
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  // Widest stripes first: started last, a wide stripe (heptagon-local spans
  // 15 nodes) would run on after the others, and when it started would
  // depend on which narrow stripe happened to free a thread first.
  const auto width = [&](std::size_t i) {
    const auto run =
        std::equal_range(hosted.begin(), hosted.end(), stripes[i]);
    return run.second - run.first;
  };
  std::vector<std::size_t> order(stripes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return width(a) > width(b);
                   });
  // An unrecoverable stripe does not stop the others, and the error
  // reported is the lowest stripe's, whatever order they ran in.
  std::vector<Status> results(stripes.size());
  (void)exec::parallel_for_all(*pool_, order.size(), [&](std::size_t i) {
    results[order[i]] = repair_stripe(stripes[order[i]]);
    return Status::ok();
  });
  for (const Status& status : results) DBLREP_RETURN_IF_ERROR(status);
  return Status::ok();
}

Status MiniDfs::scrub() {
  for (const auto& [path, info] : namenode_.snapshot_files()) {
    auto code_result = scheme(info.code_spec);
    if (!code_result.is_ok()) return code_result.status();
    const ec::CodeScheme& code = **code_result;
    for (cluster::StripeId stripe : info.stripes) {
      // Down nodes are node repair's business; an unreadable slot on a
      // live node (missing or CRC-broken) is corruption.
      const GatheredStripe gathered = gather_stripe(stripe);
      const auto& group = namenode_.stripe(stripe).group;
      for (ec::NodeIndex i : gathered.failed) {
        const cluster::NodeId node = group[static_cast<std::size_t>(i)];
        if (datanodes_[static_cast<std::size_t>(node)].is_up()) {
          return corruption_error(path + ": stripe " + std::to_string(stripe) +
                                  " has an unreadable slot on live node " +
                                  std::to_string(node));
        }
      }
      DBLREP_RETURN_IF_ERROR(
          code.verify_codeword(gathered.store(), info.block_size));
    }
  }
  return Status::ok();
}

Result<std::size_t> MiniDfs::scrub_repair() {
  // Snapshot the namespace, then heal file by file with the stripes of
  // each file fanned out across the pool.
  const std::vector<std::pair<std::string, FileInfo>> snapshot =
      namenode_.snapshot_files();
  std::atomic<std::size_t> healed{0};
  for (const auto& [path, info] : snapshot) {
    std::shared_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
    auto code_result = scheme(info.code_spec);
    if (!code_result.is_ok()) return code_result.status();
    const ec::CodeScheme& code = **code_result;
    const auto& layout = code.layout();
    const Status file_status = exec::parallel_for_all(
        *pool_, info.stripes.size(), [&](std::size_t si) -> Status {
          const cluster::StripeId stripe = info.stripes[si];
          // Gather the verifiably-good slots, then decode once and rewrite
          // every bad or missing slot on a live node from the re-encoded
          // stripe. (Replica-copy would be cheaper per block; decoding
          // keeps this path simple and also heals parity-vs-data
          // inconsistency.)
          const GatheredStripe gathered = gather_stripe(stripe);
          const auto& group = namenode_.stripe(stripe).group;
          std::vector<std::pair<cluster::NodeId, std::size_t>> bad_slots;
          for (ec::NodeIndex i : gathered.failed) {
            const cluster::NodeId node = group[static_cast<std::size_t>(i)];
            if (!datanodes_[static_cast<std::size_t>(node)].is_up()) {
              continue;  // node repair handles down nodes
            }
            for (std::size_t slot : layout.slots_on_node(i)) {
              if (!gathered.slots.contains(slot)) {
                bad_slots.emplace_back(node, slot);
              }
            }
          }
          if (bad_slots.empty()) return Status::ok();
          auto data = code.decode(gathered.store(), info.block_size);
          if (!data.is_ok()) return data.status();
          const auto symbols = code.encode_symbols(*data);
          for (const auto& [node, slot] : bad_slots) {
            const Buffer& symbol = symbols[layout.symbol_of_slot(slot)];
            DBLREP_RETURN_IF_ERROR(
                datanodes_[static_cast<std::size_t>(node)].put({stripe, slot},
                                                              symbol));
            // The rewrite is sourced from the decoding site; count the
            // slot's payload (one unit) of traffic per healed replica.
            traffic_.record(net::kClientEndpoint, node, symbol.size(),
                            net::TransferClass::kScrub);
            healed.fetch_add(1);
          }
          return Status::ok();
        });
    if (!file_status.is_ok()) return file_status;
  }
  return healed.load();
}

DataNode& MiniDfs::datanode(cluster::NodeId node) {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), datanodes_.size());
  return datanodes_[static_cast<std::size_t>(node)];
}

const DataNode& MiniDfs::datanode(cluster::NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), datanodes_.size());
  return datanodes_[static_cast<std::size_t>(node)];
}

Result<const ec::CodeScheme*> MiniDfs::code_for(
    const std::string& path) const {
  const auto file = namenode_.lookup(path);
  if (!file.is_ok()) return file.status();
  std::shared_lock<std::shared_mutex> lock(scheme_mu_);
  const auto it = schemes_.find(file->code_spec);
  if (it == schemes_.end()) {
    // Every published file's scheme was created through runtime(); a miss
    // means the namespace and scheme table disagree.
    return internal_error("no scheme runtime for " + file->code_spec);
  }
  return it->second.code.get();
}

std::size_t MiniDfs::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& dn : datanodes_) total += dn.bytes_stored();
  return total;
}

}  // namespace dblrep::hdfs
