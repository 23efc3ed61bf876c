#ifndef HETKG_CORE_PREFETCHER_H_
#define HETKG_CORE_PREFETCHER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "embedding/negative_sampler.h"
#include "graph/types.h"

namespace hetkg::core {

/// One training mini-batch: positive triples plus their corruptions.
struct MiniBatch {
  std::vector<Triple> positives;
  std::vector<embedding::NegativeSample> negatives;
};

/// Per-key access counts observed in a prefetch window (the `L_num` of
/// Algorithm 2).
using FrequencyMap = std::unordered_map<EmbKey, uint32_t>;

/// The output of Algorithm 1: the materialized sample list `L_s` for the
/// next D iterations, and the de-duplicated entity/relation access
/// counts `L_er` over that window.
struct PrefetchWindow {
  std::vector<MiniBatch> batches;
  FrequencyMap frequencies;
  uint64_t total_accesses = 0;
};

/// The paper's prefetching component (Algorithm 1). A worker's
/// prefetcher owns the local subgraph's sampling cursor: it shuffles the
/// worker's triples at each epoch boundary and deals consecutive
/// mini-batches, generating negatives through the configured sampler.
/// Prefetched batches ARE the batches later trained on (Algorithm 3
/// reads samples from the preload list), so prefetching costs no extra
/// sampling work — only moves it earlier.
class Prefetcher {
 public:
  /// `local_triples` must outlive the prefetcher. `sampler` is owned by
  /// the caller and shared with nothing else (its RNG advances here).
  Prefetcher(const std::vector<Triple>* local_triples, size_t batch_size,
             embedding::NegativeSampler* sampler, uint64_t seed);

  /// Iterations in one epoch over the local subgraph.
  size_t IterationsPerEpoch() const;

  /// Runs Algorithm 1 for the next `window_iterations` mini-batches.
  /// Each sample's accesses are counted once per occurrence in the
  /// window (entities of positives, corrupted entities, and relations).
  PrefetchWindow Prefetch(size_t window_iterations);

  /// Counting-only variant used by the CPS whole-epoch construction:
  /// accumulates frequencies into `freq` without materializing the
  /// batches (an epoch of batches would not fit in memory at
  /// Freebase-86m scale). Advances the same sampling cursor; returns
  /// the number of accesses counted.
  uint64_t PrefetchCountOnly(size_t window_iterations, FrequencyMap* freq);

  /// Serializes the sampling cursor (RNG stream, shuffled order, and
  /// position) so a restored prefetcher deals the exact batch sequence
  /// the saved one would have. The local triple list itself is rebuilt
  /// by the engine's deterministic setup and is validated by size here.
  void SaveState(ByteWriter* w) const;
  Commit StageState(ByteReader* r);

 private:
  /// Deals the next batch of positives, reshuffling at epoch wrap.
  void NextPositives(std::vector<Triple>* out);

  const std::vector<Triple>* local_triples_;
  size_t batch_size_;
  embedding::NegativeSampler* sampler_;
  Rng rng_;
  std::vector<uint32_t> order_;  // Shuffled triple indices.
  size_t cursor_ = 0;
};

/// Counts the embedding rows a mini-batch needs, into `freq`; returns
/// the number of accesses added. Shared by the prefetcher and by the
/// cache-policy comparison bench.
uint64_t CountBatchAccesses(const MiniBatch& batch, FrequencyMap* freq);

/// De-duplicated list of keys a mini-batch touches (the rows a worker
/// must have locally to run the iteration).
std::vector<EmbKey> BatchKeys(const MiniBatch& batch);

/// De-duplicated list of keys a whole prefetch window touches, in
/// first-access order. Tiered storage (DESIGN.md §16) feeds this to
/// madvise so the cold pages of upcoming pulls fault in ahead of use.
std::vector<EmbKey> WindowKeys(const PrefetchWindow& window);

}  // namespace hetkg::core

#endif  // HETKG_CORE_PREFETCHER_H_
