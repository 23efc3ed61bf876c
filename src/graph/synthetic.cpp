#include "graph/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"

namespace hetkg::graph {

namespace {

/// Packs a triple into a single uint64 when the id widths allow it;
/// returns false otherwise (dedup then falls back to a hash set of
/// Triple which is collision-checked by equality anyway).
bool PackTriple(const Triple& t, int entity_bits, int relation_bits,
                uint64_t* packed) {
  if (2 * entity_bits + relation_bits > 64) return false;
  *packed = (static_cast<uint64_t>(t.head) << (entity_bits + relation_bits)) |
            (static_cast<uint64_t>(t.tail) << relation_bits) |
            static_cast<uint64_t>(t.relation);
  return true;
}

int BitsFor(size_t n) {
  int bits = 1;
  while ((1ULL << bits) < n) ++bits;
  return bits;
}

}  // namespace

SyntheticSpec Fb15kSpec() {
  SyntheticSpec spec;
  spec.name = "FB15k";
  spec.num_entities = 14951;
  spec.num_relations = 1345;
  spec.num_triples = 592213;
  // Calibrated: with exponent 0.62 the top 1% of entities receive ~6% of
  // endpoint draws; with 1.05 the top 1% of relations receive ~36%.
  spec.entity_exponent = 0.62;
  spec.relation_exponent = 1.05;
  spec.tail_candidates = 96;
  spec.seed = 15;
  return spec;
}

SyntheticSpec Wn18Spec() {
  SyntheticSpec spec;
  spec.name = "WN18";
  spec.num_entities = 40943;
  spec.num_relations = 18;
  spec.num_triples = 151442;
  // WordNet is sparser and less skewed on entities, but its tiny
  // relation vocabulary is extremely skewed in practice.
  spec.entity_exponent = 0.45;
  spec.relation_exponent = 0.9;
  spec.tail_candidates = 96;
  spec.seed = 18;
  return spec;
}

SyntheticSpec Freebase86mSpec(double scale) {
  HETKG_CHECK(scale > 0.0 && scale <= 1.0) << "scale must be in (0, 1]";
  SyntheticSpec spec;
  spec.name = "Freebase-86m";
  spec.num_entities =
      std::max<size_t>(1000, static_cast<size_t>(86054151.0 * scale));
  // Keep the full relation vocabulary: the cache's entity/relation quota
  // behaviour (Fig. 8c) depends on its absolute size.
  spec.num_relations = 14824;
  spec.num_triples =
      std::max<size_t>(10000, static_cast<size_t>(338586276.0 * scale));
  spec.entity_exponent = 1.0;
  spec.relation_exponent = 1.0;
  spec.tail_candidates = 48;  // Generation cost scales with this.
  spec.seed = 86;
  // At full scale dedup bookkeeping would dominate; duplicates are
  // vanishingly rare there anyway.
  spec.deduplicate = scale <= 0.05;
  return spec;
}

Result<SyntheticSpec> SyntheticSpecByName(std::string_view name,
                                          double freebase_scale) {
  if (name == "fb15k") return Fb15kSpec();
  if (name == "wn18") return Wn18Spec();
  if (name == "freebase86m") {
    if (!(freebase_scale > 0.0 && freebase_scale <= 1.0)) {
      return Status::InvalidArgument("--freebase_scale must be in (0, 1]");
    }
    return Freebase86mSpec(freebase_scale);
  }
  return Status::InvalidArgument("unknown dataset: " + std::string(name) +
                                 " (want fb15k | wn18 | freebase86m)");
}

Result<KnowledgeGraph> GenerateSynthetic(const SyntheticSpec& spec) {
  if (spec.num_entities < 2) {
    return Status::InvalidArgument("need at least two entities");
  }
  if (spec.num_relations < 1) {
    return Status::InvalidArgument("need at least one relation");
  }
  // A (h, r, t) space smaller than ~4x the triple budget makes dedup
  // rejection sampling degenerate.
  const double space = static_cast<double>(spec.num_entities) *
                       static_cast<double>(spec.num_entities) *
                       static_cast<double>(spec.num_relations);
  if (spec.deduplicate && space < 4.0 * static_cast<double>(spec.num_triples)) {
    return Status::InvalidArgument(
        "triple budget too dense for deduplicated generation");
  }

  Rng rng(spec.seed);
  ZipfSampler entity_sampler(spec.num_entities, spec.entity_exponent,
                             rng.NextUint64());
  ZipfSampler relation_sampler(spec.num_relations, spec.relation_exponent,
                               rng.NextUint64());

  // Permutations decorrelate id value from popularity rank.
  std::vector<EntityId> entity_perm(spec.num_entities);
  std::iota(entity_perm.begin(), entity_perm.end(), 0);
  rng.Shuffle(&entity_perm);
  std::vector<RelationId> relation_perm(spec.num_relations);
  std::iota(relation_perm.begin(), relation_perm.end(), 0);
  rng.Shuffle(&relation_perm);

  const int entity_bits = BitsFor(spec.num_entities);
  const int relation_bits = BitsFor(spec.num_relations);
  std::unordered_set<uint64_t> seen_packed;
  std::unordered_set<Triple, TripleHash> seen_triples;
  const bool packable = 2 * entity_bits + relation_bits <= 64;
  if (spec.deduplicate) {
    if (packable) {
      seen_packed.reserve(spec.num_triples * 2);
    } else {
      seen_triples.reserve(spec.num_triples * 2);
    }
  }

  // Latent structure (see SyntheticSpec::planted_structure).
  std::vector<float> entity_latents;
  std::vector<float> relation_latents;
  const size_t k = spec.latent_dim;
  if (spec.planted_structure) {
    entity_latents.resize(spec.num_entities * k);
    for (auto& v : entity_latents) {
      v = static_cast<float>(rng.NextGaussian());
    }
    relation_latents.resize(spec.num_relations * k);
    for (auto& v : relation_latents) {
      v = static_cast<float>(rng.NextGaussian() * 0.7);
    }
  }
  auto latent_distance_sq = [&](EntityId tail, const float* target) {
    const float* z = entity_latents.data() + static_cast<size_t>(tail) * k;
    double acc = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const double d = static_cast<double>(target[i]) - z[i];
      acc += d * d;
    }
    return acc;
  };

  std::vector<float> target(k);
  std::vector<Triple> triples;
  triples.reserve(spec.num_triples);
  const size_t max_attempts = spec.num_triples * 20 + 1000;
  size_t attempts = 0;
  while (triples.size() < spec.num_triples && attempts < max_attempts) {
    ++attempts;
    Triple t;
    t.head = entity_perm[entity_sampler.Next()];
    t.relation = relation_perm[relation_sampler.Next()];
    if (spec.planted_structure) {
      const float* zh = entity_latents.data() +
                        static_cast<size_t>(t.head) * k;
      const float* vr = relation_latents.data() +
                        static_cast<size_t>(t.relation) * k;
      for (size_t i = 0; i < k; ++i) {
        target[i] = zh[i] + vr[i];
      }
      // Best of `tail_candidates` Zipf-drawn candidates: learnable
      // structure with preserved popularity skew.
      EntityId best = t.head;
      double best_dist = 0.0;
      bool found = false;
      for (size_t c = 0; c < spec.tail_candidates; ++c) {
        const EntityId cand = entity_perm[entity_sampler.Next()];
        if (cand == t.head) continue;
        const double dist = latent_distance_sq(cand, target.data());
        if (!found || dist < best_dist) {
          best = cand;
          best_dist = dist;
          found = true;
        }
      }
      if (!found) continue;
      t.tail = best;
    } else {
      t.tail = entity_perm[entity_sampler.Next()];
    }
    if (t.head == t.tail) continue;
    if (spec.deduplicate) {
      if (packable) {
        uint64_t packed = 0;
        PackTriple(t, entity_bits, relation_bits, &packed);
        if (!seen_packed.insert(packed).second) continue;
      } else {
        if (!seen_triples.insert(t).second) continue;
      }
    }
    triples.push_back(t);
  }
  if (triples.size() < spec.num_triples) {
    return Status::Internal("generator could not reach the triple budget (" +
                            std::to_string(triples.size()) + "/" +
                            std::to_string(spec.num_triples) + ")");
  }
  return KnowledgeGraph::Create(spec.num_entities, spec.num_relations,
                                std::move(triples), spec.name);
}

Result<SyntheticDataset> GenerateDataset(const SyntheticSpec& spec,
                                         double valid_fraction,
                                         double test_fraction) {
  HETKG_ASSIGN_OR_RETURN(KnowledgeGraph graph, GenerateSynthetic(spec));
  HETKG_ASSIGN_OR_RETURN(
      DatasetSplit split,
      SplitTriples(graph.triples(), valid_fraction, test_fraction,
                   spec.seed ^ 0xD1CEULL));
  return SyntheticDataset{std::move(graph), std::move(split)};
}

}  // namespace hetkg::graph
