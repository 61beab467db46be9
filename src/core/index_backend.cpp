#include "core/index_backend.hpp"

#include <mutex>
#include <shared_mutex>

#include "core/fast_index.hpp"
#include "core/tiered_index.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fast::core {

namespace {

/// The flat backend: one FastIndex (owned or borrowed) under a
/// shared_mutex. Queries take it shared with no counter or span of their
/// own; mutations take it exclusively, one acquisition per call or batch.
class LockedFlatIndex final : public IndexBackend {
 public:
  explicit LockedFlatIndex(std::unique_ptr<FastIndex> owned)
      : LockedFlatIndex(*owned) {
    owned_ = std::move(owned);
  }

  explicit LockedFlatIndex(FastIndex& index) : index_(index) {
    util::MetricsRegistry& r = index_.metrics();
    writer_locks_ = &r.counter("concurrent.writer_locks");
    insert_batch_size_ = &r.count_histogram("concurrent.insert_batch_size");
    query_batch_size_ = &r.count_histogram("concurrent.query_batch_size");
    erase_batch_size_ = &r.count_histogram("concurrent.erase_batch_size");
  }

  const IndexFront& front() const noexcept override { return index_.front(); }

  InsertResult insert_signature(
      std::uint64_t id, const hash::SparseSignature& signature) override {
    std::unique_lock lock = writer_lock();
    return index_.insert_signature(id, signature);
  }

  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items,
                                         util::ThreadPool* pool) override {
    insert_batch_size_->observe(static_cast<double>(items.size()));
    std::vector<const img::Image*> images(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) images[i] = items[i].image;
    const std::vector<hash::SparseSignature> sigs =
        front().summarize_batch(images, pool);
    const sim::SimClock frontend = front().frontend_insert_cost();

    std::unique_lock lock = writer_lock();
    std::vector<InsertResult> results;
    results.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      InsertResult result = index_.insert_signature(items[i].id, sigs[i]);
      result.cost.merge(frontend);
      results.push_back(std::move(result));
    }
    return results;
  }

  std::vector<InsertResult> insert_batch(
      std::span<const EngineWrite> items) override {
    insert_batch_size_->observe(static_cast<double>(items.size()));
    std::unique_lock lock = writer_lock();
    std::vector<InsertResult> results;
    results.reserve(items.size());
    for (const EngineWrite& item : items) {
      results.push_back(index_.insert_signature(item.id, item.signature));
    }
    return results;
  }

  bool erase(std::uint64_t id) override {
    std::unique_lock lock = writer_lock();
    return index_.erase(id);
  }

  std::size_t erase_batch(std::span<const std::uint64_t> ids) override {
    erase_batch_size_->observe(static_cast<double>(ids.size()));
    std::unique_lock lock = writer_lock();
    std::size_t erased = 0;
    for (const std::uint64_t id : ids) {
      if (index_.erase(id)) ++erased;
    }
    return erased;
  }

  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const override {
    std::shared_lock lock(mutex_);
    return index_.query_signature(signature, k);
  }

  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool) const override {
    query_batch_size_->observe(static_cast<double>(images.size()));
    const std::vector<hash::SparseSignature> sigs =
        front().summarize_batch(images, pool);
    std::vector<QueryResult> results(images.size());
    const auto one = [&](std::size_t i) {
      results[i] =
          front().with_frontend_cost(index_.query_signature(sigs[i], k));
    };
    std::shared_lock lock(mutex_);
    if (pool != nullptr && images.size() > 1) {
      pool->parallel_for(images.size(), one);
    } else {
      for (std::size_t i = 0; i < images.size(); ++i) one(i);
    }
    return results;
  }

  std::optional<hash::SparseSignature> find_signature(
      std::uint64_t id) const override {
    std::shared_lock lock(mutex_);
    if (const hash::SparseSignature* sig = index_.signature_of(id)) return *sig;
    return std::nullopt;
  }

  void for_each_live_signature(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const override {
    std::shared_lock lock(mutex_);
    index_.for_each_signature(fn);
  }

  std::size_t size() const override {
    std::shared_lock lock(mutex_);
    return index_.size();
  }
  std::size_t index_bytes() const override {
    std::shared_lock lock(mutex_);
    return index_.index_bytes();
  }
  bool durable() const noexcept override { return index_.durable(); }

  /// Under the writer lock, so the image captures a point between
  /// mutations and no append races the WAL rotation.
  storage::Status save_snapshot() override {
    std::unique_lock lock = writer_lock();
    return index_.save_snapshot();
  }
  storage::Status sync_wal() override {
    std::unique_lock lock = writer_lock();
    return index_.sync_wal();
  }

 private:
  /// Exclusive acquisition with the wait itself traced: under contention
  /// the "lock.writer_wait" span is exactly the time this thread spent
  /// blocked, which is what the trace viewer needs to show convoys.
  std::unique_lock<std::shared_mutex> writer_lock() const {
    std::unique_lock lock(mutex_, std::defer_lock);
    {
      util::TraceSpan wait("lock.writer_wait");
      lock.lock();
    }
    writer_locks_->add();
    return lock;
  }

  std::unique_ptr<FastIndex> owned_;
  FastIndex& index_;
  mutable std::shared_mutex mutex_;
  util::Counter* writer_locks_ = nullptr;
  util::Histogram* insert_batch_size_ = nullptr;
  util::Histogram* query_batch_size_ = nullptr;
  util::Histogram* erase_batch_size_ = nullptr;
};

}  // namespace

std::unique_ptr<IndexBackend> make_backend(FastConfig config,
                                           vision::PcaModel pca) {
  if (config.tier.enabled) {
    return std::make_unique<TieredIndex>(std::move(config), std::move(pca));
  }
  return std::make_unique<LockedFlatIndex>(
      std::make_unique<FastIndex>(std::move(config), std::move(pca)));
}

storage::StatusOr<std::unique_ptr<IndexBackend>> open_backend(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats) {
  if (config.tier.enabled) {
    auto tiered = TieredIndex::open_or_recover(std::move(config),
                                               std::move(pca), opts, stats);
    if (!tiered.ok()) return tiered.status();
    return std::unique_ptr<IndexBackend>(std::move(tiered).value());
  }
  auto flat = FastIndex::open_or_recover(std::move(config), std::move(pca),
                                         opts, stats);
  if (!flat.ok()) return flat.status();
  return std::unique_ptr<IndexBackend>(std::make_unique<LockedFlatIndex>(
      std::make_unique<FastIndex>(std::move(flat).value())));
}

std::unique_ptr<IndexBackend> borrow_backend(FastIndex& index) {
  return std::make_unique<LockedFlatIndex>(index);
}

}  // namespace fast::core
