#include "hdfs/client.h"

#include <algorithm>

namespace dblrep::hdfs {

namespace {

/// ClientOptions override > 2 * (workers + 1). The "+ 1" counts the
/// appending thread itself; doubling keeps every worker fed while the
/// client encodes ahead.
std::size_t resolve_max_inflight(const MiniDfs& dfs,
                                 const ClientOptions& options) {
  if (options.max_inflight_stripes > 0) return options.max_inflight_stripes;
  return 2 * (dfs.pool().num_workers() + 1);
}

}  // namespace

// ----------------------------------------------------------- FileWriter

FileWriter::FileWriter(MiniDfs* dfs, std::string path,
                       std::size_t stripe_bytes, std::size_t max_inflight,
                       net::TransferClass write_class)
    : dfs_(dfs),
      path_(std::move(path)),
      stripe_bytes_(stripe_bytes),
      max_inflight_(std::max<std::size_t>(max_inflight, 1)),
      write_class_(write_class),
      open_(true) {}

FileWriter::FileWriter(FileWriter&& other) noexcept
    : dfs_(other.dfs_),
      path_(std::move(other.path_)),
      stripe_bytes_(other.stripe_bytes_),
      max_inflight_(other.max_inflight_),
      write_class_(other.write_class_),
      buffer_(std::move(other.buffer_)),
      inflight_(std::move(other.inflight_)),
      deferred_(std::move(other.deferred_)),
      appended_(other.appended_),
      stats_(other.stats_),
      open_(other.open_) {
  other.open_ = false;
  other.inflight_.clear();
}

FileWriter::~FileWriter() {
  if (open_) (void)finish(/*commit=*/false);
}

void FileWriter::drain(std::size_t allow) {
  while (inflight_.size() > allow) {
    Status done = inflight_.front().get();
    inflight_.pop_front();
    // Front-first draining makes the recorded error the lowest-stripe
    // failure, independent of pool scheduling.
    if (!done.is_ok() && deferred_.is_ok()) deferred_ = std::move(done);
  }
}

Status FileWriter::dispatch(Buffer stripe_data) {
  // Bound the pipeline (and with it ingest memory): wait for the oldest
  // store before adding another.
  drain(max_inflight_ - 1);
  if (!deferred_.is_ok()) return deferred_;
  auto stripe_id = dfs_->allocate_stripe(path_);
  if (!stripe_id.is_ok()) {
    deferred_ = stripe_id.status();
    return deferred_;
  }
  MiniDfs* dfs = dfs_;
  const std::string path = path_;
  const cluster::StripeId stripe = *stripe_id;
  const net::TransferClass cls = write_class_;
  inflight_.push_back(exec::spawn(
      dfs_->pool(), [dfs, path, stripe, cls, data = std::move(stripe_data)] {
        return dfs->store_stripe(path, stripe, data, cls);
      }));
  return Status::ok();
}

Status FileWriter::append(ByteSpan data) {
  if (!open_) {
    return failed_precondition_error("append on closed writer for " + path_);
  }
  if (!deferred_.is_ok()) return deferred_;
  // Ragged bytes are copied exactly once, into the pre-reserved sub-stripe
  // buffer; the stripe-aligned middle of the span skips even that and is
  // stored zero-copy through MiniDfs::store_stripes. buffer_ holds
  // strictly less than one stripe between calls: top it up first, then
  // store the full stripes straight from the span, then stash the
  // sub-stripe tail. appended_ counts only accepted bytes -- a failed
  // dispatch or store returns early and its stripes (and the span's
  // unconsumed tail) never count.
  std::size_t pos = 0;
  if (!buffer_.empty()) {
    const std::size_t take =
        std::min(stripe_bytes_ - buffer_.size(), data.size());
    buffer_.insert(buffer_.end(), data.begin(),
                   data.begin() + static_cast<std::ptrdiff_t>(take));
    pos = take;
    appended_ += take;
    stats_.buffered_bytes += take;
    if (buffer_.size() == stripe_bytes_) {
      Buffer stripe = std::move(buffer_);
      buffer_ = Buffer();
      DBLREP_RETURN_IF_ERROR(dispatch(std::move(stripe)));
    }
  }
  const std::size_t aligned =
      (data.size() - pos) / stripe_bytes_ * stripe_bytes_;
  if (aligned > 0) {
    // Stored synchronously, so nothing borrows the span once append
    // returns. The owned stores in flight finish first, which keeps the
    // recorded error the lowest-stripe one.
    drain(0);
    if (!deferred_.is_ok()) return deferred_;
    auto stripes = dfs_->allocate_stripes(path_, aligned / stripe_bytes_);
    deferred_ = stripes.is_ok()
                    ? dfs_->store_stripes(path_, *stripes,
                                          data.subspan(pos, aligned),
                                          write_class_)
                    : stripes.status();
    if (!deferred_.is_ok()) return deferred_;
    pos += aligned;
    appended_ += aligned;
    stats_.zero_copy_bytes += aligned;
  }
  const std::size_t tail = data.size() - pos;
  if (tail > 0) {
    // One up-front reservation per buffer lifetime: the buffer grows to at
    // most stripe_bytes_ before it is dispatched, so reserving the full
    // stripe here avoids the log(stripe_bytes) doubling reallocations a
    // drip-fed ingest would otherwise pay per stripe.
    buffer_.reserve(stripe_bytes_);
    buffer_.insert(buffer_.end(),
                   data.begin() + static_cast<std::ptrdiff_t>(pos),
                   data.end());
    appended_ += tail;
    stats_.buffered_bytes += tail;
  }
  return deferred_;
}

Status FileWriter::finish(bool commit) {
  open_ = false;
  drain(0);
  if (commit && deferred_.is_ok()) {
    const Status committed = dfs_->commit_write(path_);
    if (!committed.is_ok()) (void)dfs_->abort_write(path_);
    return committed;
  }
  const Status aborted = dfs_->abort_write(path_);
  if (!deferred_.is_ok()) return deferred_;
  return aborted;
}

Status FileWriter::close() {
  if (!open_) {
    return failed_precondition_error("close on closed writer for " + path_);
  }
  if (deferred_.is_ok() && !buffer_.empty()) {
    Buffer tail = std::move(buffer_);
    buffer_ = Buffer();
    (void)dispatch(std::move(tail));  // failure lands in deferred_
  }
  return finish(/*commit=*/true);
}

Status FileWriter::abort() {
  if (!open_) {
    return failed_precondition_error("abort on closed writer for " + path_);
  }
  return finish(/*commit=*/false);
}

// --------------------------------------------------------------- Client

Client::Client(MiniDfs& dfs, ClientOptions options)
    : dfs_(&dfs),
      max_inflight_(resolve_max_inflight(dfs, options)),
      read_class_(options.read_class),
      write_class_(options.write_class) {}

Result<FileWriter> Client::create(const std::string& path,
                                  const std::string& code_spec,
                                  std::size_t block_size) {
  DBLREP_RETURN_IF_ERROR(dfs_->begin_write(path, code_spec, block_size));
  auto code_result = dfs_->scheme(code_spec);
  if (!code_result.is_ok()) {
    (void)dfs_->abort_write(path);
    return code_result.status();
  }
  return FileWriter(dfs_, path, (*code_result)->data_blocks() * block_size,
                    max_inflight_, write_class_);
}

Status Client::write(const std::string& path, ByteSpan data,
                     const std::string& code_spec, std::size_t block_size) {
  return dfs_->write_file(path, data, code_spec, block_size);
}

Result<Buffer> Client::read(const std::string& path) {
  return dfs_->read_file(path, read_class_);
}

Result<Buffer> Client::pread(const std::string& path, std::size_t offset,
                             std::size_t len) {
  return dfs_->pread(path, offset, len, read_class_);
}

Result<Buffer> Client::read_block(const std::string& path,
                                  std::size_t block_index) {
  return dfs_->read_block(path, block_index, read_class_);
}

exec::Future<Status> Client::write_async(std::string path, Buffer data,
                                         std::string code_spec,
                                         std::size_t block_size) {
  MiniDfs* dfs = dfs_;
  return exec::spawn(dfs_->pool(),
                     [dfs, path = std::move(path), data = std::move(data),
                      code_spec = std::move(code_spec), block_size] {
                       return dfs->write_file(path, data, code_spec,
                                              block_size);
                     });
}

exec::Future<Result<Buffer>> Client::read_async(std::string path) {
  MiniDfs* dfs = dfs_;
  const net::TransferClass cls = read_class_;
  return exec::spawn(dfs_->pool(), [dfs, cls, path = std::move(path)] {
    return dfs->read_file(path, cls);
  });
}

exec::Future<Result<Buffer>> Client::pread_async(std::string path,
                                                 std::size_t offset,
                                                 std::size_t len) {
  MiniDfs* dfs = dfs_;
  const net::TransferClass cls = read_class_;
  return exec::spawn(dfs_->pool(),
                     [dfs, cls, path = std::move(path), offset, len] {
                       return dfs->pread(path, offset, len, cls);
                     });
}

}  // namespace dblrep::hdfs
