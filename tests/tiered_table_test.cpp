// Two-tier embedding storage tests (DESIGN.md §16): cold-row codec
// error bounds and scalar/vector bit identity, the mmap slab
// lifecycle, orphan sweeps (live slabs and checkpoint sidecars),
// fp32-tiered byte identity with the in-RAM baseline across thread
// counts, quantized thread determinism, and checkpoint resume of a
// quantized tiered run.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint_manager.h"
#include "core/trainer.h"
#include "embedding/adagrad.h"
#include "embedding/embedding_table.h"
#include "embedding/kernels.h"
#include "embedding/tiered_store.h"
#include "graph/synthetic.h"
#include "kernel_paths.h"

namespace hetkg {
namespace {

namespace fs = std::filesystem;
namespace kernels = embedding::kernels;
using embedding::ColdDtype;
using embedding::EmbeddingTable;
using embedding::TieredOptions;

// Pid-qualified so concurrent ctest entries running this same binary
// never share a directory.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "-" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TieredOptions Tiered(const std::string& dir, ColdDtype dtype) {
  TieredOptions opts;
  opts.enabled = true;
  opts.cold_dir = dir;
  opts.dtype = dtype;
  return opts;
}

std::vector<float> RandomRow(size_t dim, uint64_t seed, float spread) {
  Rng rng(seed);
  std::vector<float> row(dim);
  for (float& v : row) {
    v = static_cast<float>(rng.NextUniform(-spread, spread));
  }
  return row;
}

// ---- Codec error bounds ----------------------------------------------

TEST(TieredCodecTest, Fp16RoundTripWithinHalfUlp) {
  // binary16 has 11 significand bits: RNE round-trip error is at most
  // 2^-11 relative for normal values.
  const std::vector<float> row = RandomRow(512, 7, 4.0f);
  std::vector<uint16_t> enc(row.size());
  std::vector<float> dec(row.size());
  kernels::EncodeRowFp16(row, enc.data());
  kernels::DecodeRowFp16(enc.data(), dec);
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_LE(std::fabs(dec[i] - row[i]),
              std::fabs(row[i]) * (1.0f / 2048.0f) + 1e-7f)
        << "element " << i;
  }
}

TEST(TieredCodecTest, Fp16ExactValuesSurvive) {
  // Powers of two, zero, and small integers are exactly representable.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 1024.0f, 0.25f}) {
    EXPECT_EQ(kernels::Fp16ToFloat(kernels::Fp16FromFloat(v)), v);
  }
}

TEST(TieredCodecTest, Int8RoundTripWithinHalfStep) {
  const std::vector<float> row = RandomRow(512, 9, 2.0f);
  std::vector<uint8_t> q(row.size());
  std::vector<float> dec(row.size());
  float scale = 0.0f;
  float min = 0.0f;
  kernels::EncodeRowInt8(row, q.data(), &scale, &min);
  kernels::DecodeRowInt8(q.data(), scale, min, dec);
  // Affine quantization error is bounded by half a step; allow float
  // rounding slack on top.
  const float bound = scale * 0.5f + 1e-5f;
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_LE(std::fabs(dec[i] - row[i]), bound) << "element " << i;
  }
}

TEST(TieredCodecTest, Int8ConstantRowIsExact) {
  const std::vector<float> row(64, 0.75f);
  std::vector<uint8_t> q(row.size());
  std::vector<float> dec(row.size());
  float scale = 1.0f;
  float min = 0.0f;
  kernels::EncodeRowInt8(row, q.data(), &scale, &min);
  EXPECT_EQ(scale, 0.0f);
  kernels::DecodeRowInt8(q.data(), scale, min, dec);
  for (float v : dec) {
    EXPECT_EQ(v, 0.75f);
  }
}

TEST(TieredCodecTest, ScalarAndVectorCodecsBitIdentical) {
  // The codec contract: the kernel path is a pure performance knob even
  // when cold rows round-trip through fp16/int8.
  const std::vector<float> random_row = RandomRow(515, 11, 8.0f);  // Tail.
  // The same row with the fp16 boundaries (max finite 65504; 65520,
  // which rounds to Inf; 2^-14 min normal; 2^-24 min denormal; 2^-25,
  // which ties to zero), ±Inf and NaN, inside vector blocks and the tail.
  std::vector<float> special_row = random_row;
  const float kSpecials[] = {65504.0f,
                             65520.0f,
                             -65520.0f,
                             std::ldexp(1.0f, -14),
                             std::ldexp(1.0f, -24),
                             std::ldexp(1.0f, -25),
                             -std::ldexp(1.0f, -25),
                             INFINITY,
                             -INFINITY,
                             NAN};
  for (size_t i = 0; i < std::size(kSpecials); ++i) {
    special_row[i * 37] = kSpecials[i];
    special_row[special_row.size() - 1 - i % 3] = kSpecials[i];
  }

  struct Codes {
    std::vector<uint16_t> half;
    std::vector<float> half_decoded;
    std::vector<uint8_t> q;
    float scale = 0;
    float min = 0;
    std::vector<float> q_decoded;
  };
  for (bool special : {false, true}) {
    const std::vector<float>* row = special ? &special_row : &random_row;
    std::optional<Codes> scalar;
    for (kernels::KernelPath path : KernelPaths()) {
      ScopedKernelPath scoped(path);
      Codes c;
      c.half.resize(row->size());
      c.half_decoded.resize(row->size());
      c.q.resize(row->size());
      c.q_decoded.resize(row->size());
      kernels::EncodeRowFp16(*row, c.half.data());
      kernels::DecodeRowFp16(c.half.data(), c.half_decoded);
      kernels::EncodeRowInt8(*row, c.q.data(), &c.scale, &c.min);
      kernels::DecodeRowInt8(c.q.data(), c.scale, c.min, c.q_decoded);
      if (!scalar.has_value()) {
        scalar = std::move(c);
        continue;
      }
      const std::string where =
          std::string(kernels::KernelPathName(path)) +
          (special ? " special row" : " random row");
      EXPECT_EQ(c.half, scalar->half) << where;
      EXPECT_TRUE(SameBits(c.half_decoded, scalar->half_decoded)) << where;
      EXPECT_EQ(c.q, scalar->q) << where;
      EXPECT_TRUE(SameBits(std::vector<float>{c.scale, c.min},
                           std::vector<float>{scalar->scale, scalar->min}))
          << where;
      EXPECT_TRUE(SameBits(c.q_decoded, scalar->q_decoded)) << where;
    }
  }
}

// ---- Mmap slab + sweep -----------------------------------------------

TEST(TieredStoreTest, MmapFileLifecycle) {
  const std::string dir = FreshDir("tier-mmap");
  const std::string path = dir + "/slab.bin";
  auto file = embedding::MmapFile::Create(path, 4096);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->valid());
  EXPECT_EQ(file->size(), 4096u);
  EXPECT_EQ(file->data()[0], 0);  // Zero-filled.
  file->data()[100] = 0xAB;
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(fs::file_size(path), 4096u);

  // Moving transfers ownership; the source must not unmap on destroy.
  embedding::MmapFile moved = std::move(file).value();
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(moved.data()[100], 0xAB);
  moved.AdviseWillNeed(0, 4096);
  moved.DropResidency();
  // Dropping residency must not lose dirty data (file-backed shared).
  EXPECT_EQ(moved.data()[100], 0xAB);
}

TEST(TieredStoreTest, SweepRemovesOnlyLiveSlabSuffix) {
  const std::string dir = FreshDir("tier-sweep");
  std::ofstream(dir + "/entity.cold.tmp") << "x";
  std::ofstream(dir + "/relation.cold.tmp") << "x";
  std::ofstream(dir + "/keep.bin") << "x";
  std::ofstream(dir + "/ck-000000000005.hetkg") << "x";
  EXPECT_EQ(embedding::SweepOrphanedColdFiles(dir), 2u);
  EXPECT_FALSE(fs::exists(dir + "/entity.cold.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/keep.bin"));
  EXPECT_TRUE(fs::exists(dir + "/ck-000000000005.hetkg"));
  EXPECT_EQ(embedding::SweepOrphanedColdFiles(dir), 0u);
  EXPECT_EQ(embedding::SweepOrphanedColdFiles(dir + "/missing"), 0u);
}

TEST(TieredStoreTest, ManagerPrepareSweepsOrphanSidecars) {
  const std::string dir = FreshDir("tier-prepare");
  // A container with its sidecar (live), an orphan sidecar whose
  // container is gone, and a stale temp file.
  std::ofstream(dir + "/ck-000000000005.hetkg") << "c";
  std::ofstream(dir + "/ck-000000000005.hetkg.cold1") << "s";
  std::ofstream(dir + "/ck-000000000002.hetkg.cold1") << "o";
  std::ofstream(dir + "/ck-000000000009.hetkg.cold2.tmp") << "t";
  core::CheckpointManager manager(dir, 3);
  auto removed = manager.Prepare();
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 2u);  // The orphan sidecar + the temp file.
  EXPECT_TRUE(fs::exists(dir + "/ck-000000000005.hetkg.cold1"));
  EXPECT_FALSE(fs::exists(dir + "/ck-000000000002.hetkg.cold1"));
  EXPECT_FALSE(fs::exists(dir + "/ck-000000000009.hetkg.cold2.tmp"));
}

// ---- Tiered table semantics ------------------------------------------

TEST(TieredTableTest, Fp32TieredInitBitIdenticalToInRam) {
  const std::string dir = FreshDir("tier-fp32-init");
  EmbeddingTable ram(64, 16);
  auto tiered = EmbeddingTable::CreateTiered(
      64, 16, Tiered(dir, ColdDtype::kFp32), "entity");
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  ASSERT_TRUE(tiered->tiered());
  ASSERT_TRUE(tiered->row_addressable());

  Rng a(99), b(99);
  ram.InitGaussian(&a, 0.1f);
  tiered->InitGaussian(&b, 0.1f);
  for (size_t i = 0; i < ram.num_rows(); ++i) {
    const auto lhs = ram.Row(i);
    const auto rhs = tiered->Row(i);
    ASSERT_EQ(std::memcmp(lhs.data(), rhs.data(),
                          lhs.size() * sizeof(float)),
              0)
        << "row " << i;
  }
  EXPECT_GT(tiered->ColdBytes(), 0u);
  EXPECT_TRUE(tiered->SyncCold().ok());
}

TEST(TieredTableTest, QuantizedReadWriteAndColdReadCounter) {
  const std::string dir = FreshDir("tier-int8-rw");
  auto table = EmbeddingTable::CreateTiered(
      8, 32, Tiered(dir, ColdDtype::kInt8), "entity");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_FALSE(table->row_addressable());
  EXPECT_EQ(table->EncodedRowBytes(), embedding::ColdRowBytes(
                                          ColdDtype::kInt8, 32));

  const std::vector<float> row = RandomRow(32, 5, 1.0f);
  table->SetRow(3, row);
  const uint64_t before = table->cold_reads();
  std::vector<float> out(32);
  table->ReadRowInto(3, out);
  EXPECT_GT(table->cold_reads(), before);

  // DecodedRow must agree bit-for-bit with ReadRowInto: both decode
  // the same stored bytes.
  const auto span = table->DecodedRow(3);
  ASSERT_EQ(span.size(), out.size());
  EXPECT_EQ(std::memcmp(span.data(), out.data(),
                        out.size() * sizeof(float)),
            0);

  // Accumulate goes through decode -> fp32 add -> re-encode; the result
  // must match hand-computing the same steps.
  std::vector<float> expect(out);
  const std::vector<float> delta = RandomRow(32, 6, 0.1f);
  for (size_t j = 0; j < expect.size(); ++j) expect[j] += delta[j];
  std::vector<uint8_t> enc(table->EncodedRowBytes());
  embedding::EncodeColdRow(ColdDtype::kInt8, expect, enc.data());
  std::vector<float> expect_dec(32);
  embedding::DecodeColdRow(ColdDtype::kInt8, enc.data(), expect_dec);
  table->AccumulateRow(3, delta);
  table->ReadRowInto(3, out);
  EXPECT_EQ(std::memcmp(out.data(), expect_dec.data(),
                        out.size() * sizeof(float)),
            0);
}

TEST(TieredTableTest, AdaGradAccumulatorStaysFp32UnderQuantizedOpts) {
  const std::string dir = FreshDir("tier-accum");
  auto opt = embedding::AdaGrad::CreateTiered(
      16, 8, 0.1, Tiered(dir, ColdDtype::kInt8), "entity.accum");
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  // The slab holds raw fp32 regardless of the cold dtype: optimizer
  // state is never quantized.
  EXPECT_EQ(opt->ColdBytes(), 16u * 8u * sizeof(float));
  std::vector<float> row(8, 0.0f);
  std::vector<float> grad(8, 0.5f);
  opt->Apply(0, row, grad);
  EXPECT_GT(opt->AccumulatorRow(0)[0], 0.0f);
  EXPECT_TRUE(opt->SyncCold().ok());
}

// ---- End-to-end training equivalence ---------------------------------

graph::SyntheticSpec TierSpec() {
  graph::SyntheticSpec spec;
  spec.name = "tiered";
  spec.num_entities = 300;
  spec.num_relations = 10;
  spec.num_triples = 2000;
  spec.seed = 77;
  return spec;
}

core::TrainerConfig TierConfig() {
  core::TrainerConfig config;
  config.dim = 8;
  config.batch_size = 16;
  config.negatives_per_positive = 4;
  config.negative_chunk_size = 4;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.seed = 13;
  return config;
}

std::string TrainAndSaveState(const core::TrainerConfig& config,
                              const graph::SyntheticDataset& dataset,
                              const std::string& out) {
  auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                 dataset.graph, dataset.split.train);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->Train(2).ok());
  const Status saved = (*engine)->SaveTrainState(out);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(out);
}

// The fp32 cold tier is a pure placement change: its snapshots must be
// byte-identical to the in-RAM baseline's, at every thread count.
TEST(TieredTrainingTest, Fp32SnapshotByteIdenticalToRamAcrossThreads) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-fp32-equiv");

  core::TrainerConfig ram_config = TierConfig();
  const std::string ram_bytes =
      TrainAndSaveState(ram_config, dataset, base + "/ram.state");
  ASSERT_FALSE(ram_bytes.empty());

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    core::TrainerConfig config = TierConfig();
    config.num_threads = threads;
    config.storage =
        Tiered(FreshDir("tier-fp32-cold-" + tag), ColdDtype::kFp32);
    EXPECT_EQ(TrainAndSaveState(config, dataset,
                                base + "/tiered-" + tag + ".state"),
              ram_bytes);
  }
}

// Quantized cold tiers change the trajectory (rows round-trip through
// int8) but must stay deterministic: any thread count produces the same
// container and sidecar bytes.
TEST(TieredTrainingTest, QuantizedSnapshotDeterministicAcrossThreads) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-int8-equiv");

  core::TrainerConfig ref_config = TierConfig();
  ref_config.storage = Tiered(FreshDir("tier-int8-cold-1"), ColdDtype::kInt8);
  const std::string ref_state = base + "/t1.state";
  const std::string ref_bytes =
      TrainAndSaveState(ref_config, dataset, ref_state);
  // Quantized snapshots ship the tables as cold sidecar files next to
  // the container (entity = .cold1, relation = .cold2, accumulators =
  // .cold11/.cold12).
  ASSERT_TRUE(fs::exists(ref_state + ".cold1"));
  ASSERT_TRUE(fs::exists(ref_state + ".cold11"));

  for (const size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    core::TrainerConfig config = TierConfig();
    config.num_threads = threads;
    config.storage =
        Tiered(FreshDir("tier-int8-cold-" + tag), ColdDtype::kInt8);
    const std::string state = base + "/t" + tag + ".state";
    EXPECT_EQ(TrainAndSaveState(config, dataset, state), ref_bytes);
    EXPECT_EQ(ReadFileBytes(state + ".cold1"),
              ReadFileBytes(ref_state + ".cold1"));
    EXPECT_EQ(ReadFileBytes(state + ".cold2"),
              ReadFileBytes(ref_state + ".cold2"));
    EXPECT_EQ(ReadFileBytes(state + ".cold11"),
              ReadFileBytes(ref_state + ".cold11"));
    EXPECT_EQ(ReadFileBytes(state + ".cold12"),
              ReadFileBytes(ref_state + ".cold12"));
  }
}

// Halt + resume of a quantized tiered run ends bit-identical to an
// uninterrupted one: the sidecars round-trip the encoded slabs exactly.
TEST(TieredTrainingTest, QuantizedHaltResumeBitIdentical) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-resume");

  core::TrainerConfig ref_config = TierConfig();
  ref_config.storage = Tiered(FreshDir("tier-resume-cold-ref"),
                              ColdDtype::kInt8);
  ref_config.checkpoint_dir = base + "/ck-ref";
  ref_config.checkpoint_every = 5;
  const std::string ref_bytes =
      TrainAndSaveState(ref_config, dataset, base + "/ref.state");

  core::TrainerConfig crash_config = TierConfig();
  crash_config.storage = Tiered(FreshDir("tier-resume-cold-crash"),
                                ColdDtype::kInt8);
  crash_config.checkpoint_dir = base + "/ck";
  crash_config.checkpoint_every = 5;
  crash_config.halt_after_iterations = 12;
  auto crashed = core::MakeEngine(core::SystemKind::kHetKgDps, crash_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(crashed->Train(2).ok());

  core::TrainerConfig resume_config = TierConfig();
  resume_config.storage = Tiered(FreshDir("tier-resume-cold-resume"),
                                 ColdDtype::kInt8);
  resume_config.checkpoint_dir = base + "/ck";
  resume_config.checkpoint_every = 5;
  auto resumed = core::MakeEngine(core::SystemKind::kHetKgDps,
                                  resume_config, dataset.graph,
                                  dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(base + "/ck").ok());
  ASSERT_TRUE(resumed->Train(2).ok());
  const Status saved = resumed->SaveTrainState(base + "/resumed.state");
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(ReadFileBytes(base + "/resumed.state"), ref_bytes);
}

// A tiered fp32 engine restores a snapshot written by an in-RAM run and
// vice versa: the container format is identical (HETKGCK2) in both.
TEST(TieredTrainingTest, Fp32SnapshotsInterchangeableWithRam) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-interop");

  core::TrainerConfig ram_config = TierConfig();
  ram_config.checkpoint_dir = base + "/ck";
  ram_config.checkpoint_every = 5;
  auto ram_engine = core::MakeEngine(core::SystemKind::kHetKgDps,
                                     ram_config, dataset.graph,
                                     dataset.split.train)
                        .value();
  ASSERT_TRUE(ram_engine->Train(1).ok());
  ASSERT_TRUE(ram_engine->SaveTrainState(base + "/ram.state").ok());

  core::TrainerConfig tier_config = TierConfig();
  tier_config.storage = Tiered(FreshDir("tier-interop-cold"),
                               ColdDtype::kFp32);
  auto tier_engine = core::MakeEngine(core::SystemKind::kHetKgDps,
                                      tier_config, dataset.graph,
                                      dataset.split.train)
                         .value();
  ASSERT_TRUE(tier_engine->RestoreTrainState(base + "/ram.state").ok());
  ASSERT_TRUE(tier_engine->SaveTrainState(base + "/tier.state").ok());
  EXPECT_EQ(ReadFileBytes(base + "/tier.state"),
            ReadFileBytes(base + "/ram.state"));
}

// PBG trains partition-at-a-time in one process and must reject the
// tiered flag instead of silently ignoring it.
TEST(TieredTrainingTest, PbgRejectsTieredStorage) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  core::TrainerConfig config = TierConfig();
  config.pbg_partitions = 4;
  config.storage = Tiered(FreshDir("tier-pbg"), ColdDtype::kFp32);
  auto engine = core::MakeEngine(core::SystemKind::kPbg, config,
                                 dataset.graph, dataset.split.train);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hetkg
