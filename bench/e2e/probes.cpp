#include "probes.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "embedding/adagrad.h"
#include "embedding/embedding_table.h"
#include "embedding/score_function.h"
#include "net/shm_ring.h"

namespace hetkg::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRows = 1 << 16;
constexpr int kBlocks = 5;
constexpr double kBlockSeconds = 0.03;

/// Median over kBlocks blocks of the ns one `op` call costs per unit of
/// work; `op` returns how many units (pairs, rows) it processed.
double MedianNsPerUnit(const std::function<size_t()>& op) {
  std::vector<double> per_unit;
  for (int b = 0; b < kBlocks; ++b) {
    size_t units = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      for (int i = 0; i < 16; ++i) units += op();
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < kBlockSeconds);
    per_unit.push_back(elapsed * 1e9 / static_cast<double>(units));
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[kBlocks / 2];
}

std::vector<size_t> RandomRows(Rng* rng, size_t count) {
  std::vector<size_t> rows(count);
  for (size_t& r : rows) r = rng->NextBounded(kRows);
  return rows;
}

/// TransE-L1 forward + backward of one positive group: `negatives`
/// corrupted tails sharing the positive's (h, r), as the batched negative
/// sampler produces them.
Result<double> ProbeKernel(const ProbeShape& shape, Rng* rng) {
  HETKG_ASSIGN_OR_RETURN(std::unique_ptr<embedding::ScoreFunction> fn,
                         embedding::MakeScoreFunction(
                             embedding::ModelKind::kTransEL1, shape.dim));
  embedding::EmbeddingTable table(kRows, shape.dim);
  table.InitXavierUniform(rng);
  const size_t negs = shape.negatives;
  std::vector<float> grads(negs * 3 * shape.dim, 0.0f);
  std::vector<embedding::TripleView> triples(negs);
  std::vector<embedding::GradView> grad_views(negs);
  for (size_t k = 0; k < negs; ++k) {
    float* g = grads.data() + k * 3 * shape.dim;
    grad_views[k] = {{g, shape.dim},
                     {g + shape.dim, shape.dim},
                     {g + 2 * shape.dim, shape.dim}};
  }
  std::vector<double> scores(negs);
  std::vector<double> upstreams(negs);
  embedding::kernels::KernelScratch scratch;
  const std::vector<size_t> rows = RandomRows(rng, 4096 + negs);
  size_t cursor = 0;
  double sink = 0.0;
  const double ns = MedianNsPerUnit([&] {
    const size_t base = cursor++ % 4096;
    const embedding::TripleView ref{table.Row(rows[base]),
                                    table.Row(rows[base + 1]),
                                    table.Row(rows[base + 2])};
    for (size_t k = 0; k < negs; ++k) {
      triples[k] = {ref.h, ref.r, table.Row(rows[base + k])};
    }
    fn->ScoreBatch(ref, triples, scores, &scratch);
    for (size_t k = 0; k < negs; ++k) {
      upstreams[k] = (k & 1) != 0 ? 1.0 : -1.0;
      sink += scores[k];
    }
    fn->ScoreBackwardBatch(ref, triples, upstreams, grad_views, &scratch);
    return negs;
  });
  // Keeps the scores live so the forward pass cannot be elided.
  if (sink == 0.125) grads[0] += 1.0f;
  return ns;
}

double ProbeAdaGrad(const ProbeShape& shape, Rng* rng) {
  embedding::EmbeddingTable table(kRows, shape.dim);
  table.InitXavierUniform(rng);
  embedding::AdaGrad adagrad(kRows, shape.dim, 0.1);
  std::vector<float> grad(shape.dim);
  for (float& g : grad) g = static_cast<float>(rng->NextUniform(-0.1, 0.1));
  const std::vector<size_t> rows = RandomRows(rng, 4096);
  size_t cursor = 0;
  return MedianNsPerUnit([&] {
    const size_t row = rows[cursor++ % rows.size()];
    adagrad.ApplyBatch(row, table.Row(row), grad);
    return size_t{1};
  });
}

Status ProbeTier(const ProbeShape& shape, Rng* rng, ProbeResults* out) {
  const std::string dir = shape.work_dir + "/tier_probe";
  std::filesystem::create_directories(dir);
  embedding::TieredOptions opts;
  opts.enabled = true;
  opts.cold_dir = dir;
  opts.dtype = embedding::ColdDtype::kInt8;
  {
    HETKG_ASSIGN_OR_RETURN(
        embedding::EmbeddingTable table,
        embedding::EmbeddingTable::CreateTiered(kRows, shape.dim, opts,
                                                "probe"));
    table.InitXavierUniform(rng);
    std::vector<float> row(shape.dim);
    const std::vector<size_t> rows = RandomRows(rng, 4096);
    size_t cursor = 0;
    out->tier_decode_ns_per_row = MedianNsPerUnit([&] {
      table.ReadRowInto(rows[cursor++ % rows.size()], row);
      return size_t{1};
    });
    out->tier_encode_ns_per_row = MedianNsPerUnit([&] {
      table.SetRow(rows[cursor++ % rows.size()], row);
      return size_t{1};
    });
  }
  std::filesystem::remove_all(dir);
  return Status::OK();
}

/// Round trips of one workload-sized frame through a Messenger pair over
/// a shm ring pair, echoed by a second thread.
Status ProbeShm(const ProbeShape& shape, ProbeResults* out) {
  HETKG_ASSIGN_OR_RETURN(auto channels,
                         net::ShmRingChannel::CreatePair(size_t{1} << 20));
  net::Messenger client(channels.first.get());
  net::Messenger server(channels.second.get());
  std::thread echo([&server] {
    std::string payload;
    while (server.Recv(&payload, -1) == net::RecvStatus::kOk &&
           !payload.empty()) {
      if (!server.Send(payload)) break;
    }
  });
  const std::string frame(std::max<size_t>(shape.frame_bytes, 1), 'x');
  constexpr int kWarmup = 200;
  constexpr int kTimed = 4000;
  std::vector<double> rtt_us;
  rtt_us.reserve(kTimed);
  std::string reply;
  bool ok = true;
  for (int i = 0; i < kWarmup + kTimed && ok; ++i) {
    const Clock::time_point start = Clock::now();
    ok = client.Send(frame) &&
         client.Recv(&reply, 10'000) == net::RecvStatus::kOk &&
         reply.size() == frame.size();
    if (i >= kWarmup) {
      rtt_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count());
    }
  }
  client.Send(std::string_view());  // Stops the echo thread.
  echo.join();
  if (!ok) return Status::IoError("shm probe round trip failed");
  std::sort(rtt_us.begin(), rtt_us.end());
  out->shm_rtt_p50_us = rtt_us[rtt_us.size() / 2];
  out->shm_rtt_p99_us = rtt_us[rtt_us.size() * 99 / 100];
  return Status::OK();
}

}  // namespace

Result<ProbeResults> RunProbes(const ProbeShape& shape) {
  ProbeResults results;
  Rng rng(shape.seed);
  HETKG_ASSIGN_OR_RETURN(results.kernel_ns_per_pair, ProbeKernel(shape, &rng));
  results.adagrad_ns_per_row = ProbeAdaGrad(shape, &rng);
  HETKG_RETURN_IF_ERROR(ProbeTier(shape, &rng, &results));
  HETKG_RETURN_IF_ERROR(ProbeShm(shape, &results));
  return results;
}

}  // namespace hetkg::bench_e2e
