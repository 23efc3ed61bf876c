#include "core/prefetcher.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>

#include "obs/trace.h"

namespace hetkg::core {

Prefetcher::Prefetcher(const std::vector<Triple>* local_triples,
                       size_t batch_size,
                       embedding::NegativeSampler* sampler, uint64_t seed)
    : local_triples_(local_triples),
      batch_size_(batch_size),
      sampler_(sampler),
      rng_(seed) {
  assert(local_triples != nullptr && !local_triples->empty());
  assert(batch_size >= 1);
  order_.resize(local_triples_->size());
  std::iota(order_.begin(), order_.end(), 0);
  rng_.Shuffle(&order_);
}

size_t Prefetcher::IterationsPerEpoch() const {
  return (local_triples_->size() + batch_size_ - 1) / batch_size_;
}

void Prefetcher::NextPositives(std::vector<Triple>* out) {
  out->clear();
  out->reserve(batch_size_);
  while (out->size() < batch_size_) {
    if (cursor_ >= order_.size()) {
      rng_.Shuffle(&order_);
      cursor_ = 0;
      // An epoch's final short batch is emitted as-is rather than
      // borrowing from the next epoch, so epoch boundaries stay aligned
      // with iteration counts.
      if (!out->empty()) break;
    }
    out->push_back((*local_triples_)[order_[cursor_++]]);
  }
}

PrefetchWindow Prefetcher::Prefetch(size_t window_iterations) {
  obs::TraceSpan span("prefetch.window", "prefetch");
  span.Arg("iterations", static_cast<double>(window_iterations));
  PrefetchWindow window;
  window.batches.reserve(window_iterations);
  for (size_t i = 0; i < window_iterations; ++i) {
    MiniBatch batch;
    NextPositives(&batch.positives);
    sampler_->Sample(batch.positives, &batch.negatives);
    window.total_accesses += CountBatchAccesses(batch, &window.frequencies);
    window.batches.push_back(std::move(batch));
  }
  span.Arg("accesses", static_cast<double>(window.total_accesses));
  return window;
}

uint64_t Prefetcher::PrefetchCountOnly(size_t window_iterations,
                                       FrequencyMap* freq) {
  obs::TraceSpan span("prefetch.count_only", "prefetch");
  span.Arg("iterations", static_cast<double>(window_iterations));
  uint64_t accesses = 0;
  MiniBatch batch;
  for (size_t i = 0; i < window_iterations; ++i) {
    NextPositives(&batch.positives);
    sampler_->Sample(batch.positives, &batch.negatives);
    accesses += CountBatchAccesses(batch, freq);
  }
  span.Arg("accesses", static_cast<double>(accesses));
  return accesses;
}

void Prefetcher::SaveState(ByteWriter* w) const {
  rng_.SaveState(w);
  w->U64(cursor_);
  w->U64(order_.size());
  w->Raw(order_.data(), order_.size() * sizeof(uint32_t));
}

Commit Prefetcher::StageState(ByteReader* r) {
  Rng rng = rng_;
  if (!rng.LoadState(r)) return {};
  const uint64_t cursor = r->U64();
  const uint64_t size = r->U64();
  if (!r->ok() || size != order_.size() || cursor > size) return {};
  std::vector<uint32_t> order(size);
  if (!r->ReadRaw(order.data(), size * sizeof(uint32_t))) return {};
  for (uint32_t idx : order) {
    if (idx >= local_triples_->size()) return {};
  }
  return [this, rng, cursor, order = std::move(order)]() mutable {
    rng_ = rng;
    cursor_ = cursor;
    order_ = std::move(order);
  };
}

uint64_t CountBatchAccesses(const MiniBatch& batch, FrequencyMap* freq) {
  uint64_t accesses = 0;
  auto touch = [&](EmbKey key) {
    ++(*freq)[key];
    ++accesses;
  };
  for (const Triple& t : batch.positives) {
    touch(EntityKey(t.head));
    touch(RelationKey(t.relation));
    touch(EntityKey(t.tail));
  }
  for (const auto& neg : batch.negatives) {
    // Scoring the corrupted triple re-reads all three of its rows (one
    // of which is the fresh replacement).
    touch(EntityKey(neg.triple.head));
    touch(EntityKey(neg.triple.tail));
    touch(RelationKey(neg.triple.relation));
  }
  return accesses;
}

std::vector<EmbKey> BatchKeys(const MiniBatch& batch) {
  std::unordered_set<EmbKey> keys;
  keys.reserve(batch.positives.size() * 3 + batch.negatives.size());
  for (const Triple& t : batch.positives) {
    keys.insert(EntityKey(t.head));
    keys.insert(RelationKey(t.relation));
    keys.insert(EntityKey(t.tail));
  }
  for (const auto& neg : batch.negatives) {
    keys.insert(EntityKey(neg.triple.head));
    keys.insert(EntityKey(neg.triple.tail));
    keys.insert(RelationKey(neg.triple.relation));
  }
  return {keys.begin(), keys.end()};
}

std::vector<EmbKey> WindowKeys(const PrefetchWindow& window) {
  std::unordered_set<EmbKey> seen;
  std::vector<EmbKey> keys;
  auto touch = [&](EmbKey key) {
    if (seen.insert(key).second) keys.push_back(key);
  };
  for (const MiniBatch& batch : window.batches) {
    for (const Triple& t : batch.positives) {
      touch(EntityKey(t.head));
      touch(RelationKey(t.relation));
      touch(EntityKey(t.tail));
    }
    for (const auto& neg : batch.negatives) {
      touch(EntityKey(neg.triple.head));
      touch(EntityKey(neg.triple.tail));
      touch(RelationKey(neg.triple.relation));
    }
  }
  return keys;
}

}  // namespace hetkg::core
