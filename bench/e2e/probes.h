#ifndef HETKG_BENCH_E2E_PROBES_H_
#define HETKG_BENCH_E2E_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace hetkg::bench_e2e {

/// Inputs of the layer probes, taken from the workload being measured so
/// each probe times a public function on rows of the workload's shape.
struct ProbeShape {
  size_t dim = 32;
  size_t negatives = 8;
  /// Payload of one shm round trip: the workload's mean remote message.
  size_t frame_bytes = 1024;
  /// Scratch directory for the tiered-table slab (removed afterwards).
  std::string work_dir;
  uint64_t seed = 1;
};

/// Per-call costs of the layers beneath the pipeline stages.
struct ProbeResults {
  double kernel_ns_per_pair = 0.0;    // ScoreBatch + ScoreBackwardBatch.
  double adagrad_ns_per_row = 0.0;    // AdaGrad::ApplyBatch.
  double tier_decode_ns_per_row = 0.0;  // int8 EmbeddingTable::ReadRowInto.
  double tier_encode_ns_per_row = 0.0;  // int8 EmbeddingTable::SetRow.
  double shm_rtt_p50_us = 0.0;        // Messenger round trip over shm.
  double shm_rtt_p99_us = 0.0;
};

Result<ProbeResults> RunProbes(const ProbeShape& shape);

}  // namespace hetkg::bench_e2e

#endif  // HETKG_BENCH_E2E_PROBES_H_
