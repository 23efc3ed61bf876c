#ifndef HETKG_GRAPH_SYNTHETIC_H_
#define HETKG_GRAPH_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/knowledge_graph.h"

namespace hetkg::graph {

/// Parameters of the synthetic knowledge-graph generator.
///
/// The paper evaluates on FB15k, WN18, and Freebase-86m, which are not
/// shippable with this repository; the generator reproduces the
/// statistics that matter to a hotness-aware cache:
///  * entity/relation/triple counts of the real dataset;
///  * a Zipf-like skew of entity degrees and relation frequencies,
///    calibrated so the "top 1% of entities ~ 6% of accesses, top 1% of
///    relations ~ 36% of accesses" observation from Sec. IV-B holds in
///    the FB15k configuration.
/// Heads/tails are drawn from the entity Zipf law through a fixed random
/// permutation so embedding ids carry no hotness information (real
/// datasets are not sorted by popularity either).
struct SyntheticSpec {
  std::string name = "synthetic";
  size_t num_entities = 1000;
  size_t num_relations = 10;
  size_t num_triples = 10000;
  /// Zipf exponent for entity endpoint popularity.
  double entity_exponent = 0.75;
  /// Zipf exponent for relation popularity.
  double relation_exponent = 1.1;
  /// Drop duplicate (h, r, t) triples (always possible for the scaled
  /// dataset sizes used here).
  bool deduplicate = true;
  uint64_t seed = 42;

  /// Planted semantic structure. When enabled, every entity gets a
  /// latent vector z_e and every relation a latent translation v_r; the
  /// tail of a generated triple is the closest (in L2) of
  /// `tail_candidates` Zipf-drawn candidates to z_h + v_r. Without
  /// this, triples are independent draws and link prediction cannot do
  /// better than popularity ranking — real KGs are learnable, so the
  /// accuracy experiments (Tables III-V, Figs. 5/9) need it. The Zipf
  /// draw of candidates preserves the access-frequency skew that the
  /// hotness cache experiments measure.
  bool planted_structure = true;
  size_t latent_dim = 8;
  size_t tail_candidates = 64;
};

/// FB15k-shaped spec: 14,951 entities, 1,345 relations, 592,213 triples.
SyntheticSpec Fb15kSpec();

/// WN18-shaped spec: 40,943 entities, 18 relations, 151,442 triples.
SyntheticSpec Wn18Spec();

/// Freebase-86m-shaped spec scaled by `scale` in (0, 1]: at scale
/// 1/100 (the default used by the benches) it has 860,542 entities,
/// 14,824 relations (relation vocabulary is kept full-size: hotness of
/// relations is a headline effect), and 3,385,863 triples.
SyntheticSpec Freebase86mSpec(double scale = 0.01);

/// The preset called `name` ("fb15k" | "wn18" | "freebase86m", the
/// last at `freebase_scale`). An unknown name or a scale outside
/// (0, 1] is InvalidArgument.
Result<SyntheticSpec> SyntheticSpecByName(std::string_view name,
                                          double freebase_scale);

/// Generates a graph from `spec`. Fails if the triple budget cannot be
/// met (e.g., dedup enabled on an over-dense spec).
Result<KnowledgeGraph> GenerateSynthetic(const SyntheticSpec& spec);

/// Convenience: generate + 90/5/5-style split in one call. FB15k/WN18
/// use the standard-benchmarks split fractions from the paper's Table II
/// setup (5% valid / 5% test).
struct SyntheticDataset {
  KnowledgeGraph graph;
  DatasetSplit split;
};
Result<SyntheticDataset> GenerateDataset(const SyntheticSpec& spec,
                                         double valid_fraction = 0.05,
                                         double test_fraction = 0.05);

}  // namespace hetkg::graph

#endif  // HETKG_GRAPH_SYNTHETIC_H_
