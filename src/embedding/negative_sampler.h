#ifndef HETKG_EMBEDDING_NEGATIVE_SAMPLER_H_
#define HETKG_EMBEDDING_NEGATIVE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "graph/types.h"

namespace hetkg::embedding {

/// Which element of the positive triple was replaced.
enum class Corruption {
  kHead,
  kTail,
  kRelation,  // The (h, r', t) variant the paper mentions in Sec. III-A.
};

/// One corrupted triple tied back to the positive it was derived from.
struct NegativeSample {
  uint32_t positive_index = 0;  // Index into the mini-batch positives.
  Triple triple;
  Corruption corruption = Corruption::kHead;

  bool corrupted_head() const { return corruption == Corruption::kHead; }
};

/// Produces corrupted triples for a mini-batch of positives (Sec. V,
/// "Negative Sampling").
class NegativeSampler {
 public:
  virtual ~NegativeSampler() = default;
  virtual std::string_view name() const = 0;

  /// Appends negatives for `positives` into `out` (cleared first).
  virtual void Sample(std::span<const Triple> positives,
                      std::vector<NegativeSample>* out) = 0;

  size_t negatives_per_positive() const { return negatives_per_positive_; }

  /// Number of random entity draws needed for a batch of `batch_size`
  /// positives — the cost the batched strategy reduces from
  /// O(b_p * b_n) to O(b_p * b_n / b_c).
  virtual uint64_t EntityDrawsPerBatch(size_t batch_size) const = 0;

  /// Serializes the sampler's random-stream position for the HETKGCK2
  /// training snapshots; a restored sampler continues the exact draw
  /// sequence. Save/load are symmetric because sampler structure (kind,
  /// degree weighting, ...) is rebuilt from config before restoring.
  virtual void SaveState(ByteWriter* w) const { rng_.SaveState(w); }
  virtual Commit StageState(ByteReader* r) { return rng_.StageState(r); }

 protected:
  NegativeSampler(size_t num_entities, size_t negatives_per_positive,
                  uint64_t seed)
      : num_entities_(num_entities),
        negatives_per_positive_(negatives_per_positive),
        rng_(seed) {}

  size_t num_entities_;
  size_t negatives_per_positive_;
  Rng rng_;
};

/// Independent corruption: every positive gets `n` fresh replacement
/// draws, alternating head/tail corruption (Bordes et al.). With
/// `relation_corruption_prob` > 0, that fraction of negatives corrupts
/// the relation with a uniform replacement instead; with
/// `entity_degrees`, replacement entities are drawn proportionally to
/// degree^0.75 (the GraphVite/word2vec-style proposal) instead of
/// uniformly.
class UniformNegativeSampler : public NegativeSampler {
 public:
  UniformNegativeSampler(size_t num_entities, size_t negatives_per_positive,
                         uint64_t seed);

  /// Enables relation corruption; `num_relations` must be >= 2.
  Status EnableRelationCorruption(double probability, size_t num_relations);

  /// Switches entity replacement draws to degree^0.75 weighting.
  Status EnableDegreeWeighting(const std::vector<uint32_t>& entity_degrees);

  std::string_view name() const override { return "uniform"; }
  void Sample(std::span<const Triple> positives,
              std::vector<NegativeSample>* out) override;
  uint64_t EntityDrawsPerBatch(size_t batch_size) const override;

  void SaveState(ByteWriter* w) const override {
    NegativeSampler::SaveState(w);
    if (degree_sampler_ != nullptr) degree_sampler_->SaveState(w);
  }
  Commit StageState(ByteReader* r) override {
    Commit base = NegativeSampler::StageState(r);
    if (!base || degree_sampler_ == nullptr) return base;
    Commit degree = degree_sampler_->StageState(r);
    if (!degree) return {};
    return [base = std::move(base), degree = std::move(degree)] {
      base();
      degree();
    };
  }

 private:
  EntityId DrawEntity();

  double relation_corruption_prob_ = 0.0;
  size_t num_relations_ = 0;
  std::unique_ptr<AliasSampler> degree_sampler_;
};

/// Batched ("shared") corruption as in PBG and DGL-KE: the batch is cut
/// into chunks of `chunk_size` positives, each chunk draws one shared
/// pool of `n` entities, and every positive in the chunk is corrupted
/// against the whole pool. Reduces entity draws (and, downstream,
/// embedding pulls) by a factor of chunk_size.
class BatchedNegativeSampler : public NegativeSampler {
 public:
  BatchedNegativeSampler(size_t num_entities, size_t negatives_per_positive,
                         size_t chunk_size, uint64_t seed);
  std::string_view name() const override { return "batched"; }
  void Sample(std::span<const Triple> positives,
              std::vector<NegativeSample>* out) override;
  uint64_t EntityDrawsPerBatch(size_t batch_size) const override;
  size_t chunk_size() const { return chunk_size_; }

 private:
  size_t chunk_size_;
};

/// Declarative sampler construction, used by the training engines.
struct NegativeSamplerSpec {
  std::string name = "batched";  // "uniform" | "batched".
  size_t num_entities = 0;
  size_t negatives_per_positive = 1;
  size_t chunk_size = 1;  // batched only.
  uint64_t seed = 0;
  /// uniform only: fraction of negatives that corrupt the relation.
  double relation_corruption_prob = 0.0;
  size_t num_relations = 0;  // Required when the above is > 0.
  /// uniform only: degree^0.75 replacement distribution when non-null.
  const std::vector<uint32_t>* entity_degrees = nullptr;
};
Result<std::unique_ptr<NegativeSampler>> MakeNegativeSampler(
    const NegativeSamplerSpec& spec);

/// Legacy convenience overload (uniform/batched, no extras).
Result<std::unique_ptr<NegativeSampler>> MakeNegativeSampler(
    std::string_view name, size_t num_entities, size_t negatives_per_positive,
    size_t chunk_size, uint64_t seed);

}  // namespace hetkg::embedding

#endif  // HETKG_EMBEDDING_NEGATIVE_SAMPLER_H_
