// Snapshot codec tests (DESIGN.md §9): ByteReader length checks, the
// all-or-nothing restore contract of both engines, and a sweep that
// feeds damaged copies of every engine section payload straight to its
// decoder (the container CRC would otherwise reject them first).

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/trainer.h"
#include "embedding/checkpoint.h"
#include "graph/synthetic.h"

namespace hetkg {
namespace {

using embedding::SectionTag;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "-" +
         std::to_string(::getpid());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Section {
  SectionTag tag;
  std::string payload;
};

// Splits a HETKGCK2 container: magic, u64 count, then per section u32
// tag, u32 reserved, u64 length and the payload; a u32 CRC trails.
std::vector<Section> ReadSections(const std::string& path) {
  const std::string bytes = ReadFile(path);
  ByteReader r(bytes);
  char magic[8];
  EXPECT_TRUE(r.ReadRaw(magic, sizeof(magic)));
  std::vector<Section> sections(r.U64());
  for (Section& s : sections) {
    s.tag = static_cast<SectionTag>(r.U32());
    r.U32();
    const uint64_t len = r.U64();
    const char* payload = r.View(len);
    EXPECT_NE(payload, nullptr);
    if (payload != nullptr) s.payload.assign(payload, len);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 4u);
  return sections;
}

// Re-wraps `sections` into a container with a valid CRC.
void WriteSections(const std::string& path,
                   const std::vector<Section>& sections) {
  embedding::CheckpointWriter writer;
  for (const Section& s : sections) {
    ByteWriter payload;
    payload.Raw(s.payload.data(), s.payload.size());
    writer.AddSection(s.tag, std::move(payload));
  }
  ASSERT_TRUE(writer.WriteAtomic(path, /*durable=*/false).ok());
}

std::string SavedState(const core::TrainingEngine& engine,
                       const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(engine.SaveTrainState(path).ok());
  std::string bytes = ReadFile(path);
  std::filesystem::remove(path);
  return bytes;
}

graph::SyntheticSpec TinySpec() {
  graph::SyntheticSpec spec;
  spec.name = "codec";
  spec.num_entities = 60;
  spec.num_relations = 4;
  spec.num_triples = 300;
  spec.seed = 5;
  return spec;
}

core::TrainerConfig TinyConfig() {
  core::TrainerConfig config;
  config.dim = 4;
  config.batch_size = 8;
  config.negatives_per_positive = 2;
  config.negative_chunk_size = 2;
  config.num_machines = 2;
  config.cache_capacity = 16;
  config.sync.staleness_bound = 2;
  config.sync.dps_window = 2;
  config.pbg_partitions = 2;
  config.seed = 9;
  return config;
}

const graph::SyntheticDataset& Dataset() {
  static const graph::SyntheticDataset dataset =
      graph::GenerateDataset(TinySpec()).value();
  return dataset;
}

std::unique_ptr<core::TrainingEngine> NewEngine(core::SystemKind kind) {
  return core::MakeEngine(kind, TinyConfig(), Dataset().graph,
                          Dataset().split.train)
      .value();
}

// The sections of a snapshot taken from an engine that has trained a
// little: caches, queued batches and pending gradients are populated.
std::vector<Section> TrainedSections(core::SystemKind kind) {
  auto engine = NewEngine(kind);
  if (kind == core::SystemKind::kPbg) {
    EXPECT_TRUE(engine->Train(1).ok());
  } else {
    core::TrainerConfig config = TinyConfig();
    config.halt_after_iterations = 5;
    engine = core::MakeEngine(kind, config, Dataset().graph,
                              Dataset().split.train)
                 .value();
    EXPECT_TRUE(engine->Train(2).ok());
  }
  const std::string path = TempPath("codec-source");
  EXPECT_TRUE(engine->SaveTrainState(path).ok());
  std::vector<Section> sections = ReadSections(path);
  std::filesystem::remove(path);
  return sections;
}

Section* FindSection(std::vector<Section>* sections, SectionTag tag,
                     bool last = false) {
  Section* found = nullptr;
  for (Section& s : *sections) {
    if (s.tag != tag) continue;
    found = &s;
    if (!last) break;
  }
  return found;
}

TEST(ByteReaderTest, VectorLengthThatOverflowsIsRejected) {
  for (const uint64_t len : {uint64_t{1} << 61, uint64_t{1} << 62,
                             uint64_t{1} << 63, ~uint64_t{0}}) {
    ByteWriter w;
    w.U64(len);
    w.U64(7);  // Far fewer bytes than the length claims.
    ByteReader floats(w.buffer());
    EXPECT_TRUE(floats.FloatVec().empty());
    EXPECT_FALSE(floats.ok()) << len;
    ByteReader words(w.buffer());
    EXPECT_TRUE(words.U64Vec().empty());
    EXPECT_FALSE(words.ok()) << len;
  }
  ByteWriter w;
  w.U64Vec(std::vector<uint64_t>{1, 2, 3});
  ByteReader r(w.buffer());
  EXPECT_EQ(r.U64Vec(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

// A snapshot that passes its CRC but has one bad section must be
// rejected without changing the engine: SaveTrainState afterwards is
// byte-identical to before the attempt.
TEST(RecoveryTest, RejectedSnapshotLeavesEngineUntouched) {
  struct Damage {
    core::SystemKind kind;
    SectionTag tag;
    bool truncate;  // Else append a byte.
    bool last;      // Damage the last section with `tag`.
  };
  const Damage cases[] = {
      {core::SystemKind::kHetKgDps, SectionTag::kWorker, true, true},
      {core::SystemKind::kHetKgDps, SectionTag::kEngineCounters, false, false},
      {core::SystemKind::kHetKgDps, SectionTag::kClusterState, false, false},
      {core::SystemKind::kHetKgDps, SectionTag::kPsRuntime, false, false},
      {core::SystemKind::kPbg, SectionTag::kClusterState, false, false},
      {core::SystemKind::kPbg, SectionTag::kPbgState, false, false},
  };
  for (const Damage& d : cases) {
    SCOPED_TRACE(std::string(core::SystemKindName(d.kind)) + " section " +
                 std::to_string(static_cast<uint32_t>(d.tag)));
    std::vector<Section> sections = TrainedSections(d.kind);
    Section* target = FindSection(&sections, d.tag, d.last);
    ASSERT_NE(target, nullptr);
    if (d.truncate) {
      target->payload.pop_back();
    } else {
      target->payload.push_back('\0');
    }
    const std::string path = TempPath("codec-damaged");
    WriteSections(path, sections);

    auto engine = NewEngine(d.kind);
    const std::string before = SavedState(*engine, "codec-before");
    const Status status = engine->RestoreTrainState(path);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(SavedState(*engine, "codec-after"), before);
    std::filesystem::remove(path);
  }
}

// Every prefix truncation, every single-byte flip, and every 8-byte
// window (so every u64 length field) overwritten with a huge length of
// each engine section payload must decode to OK or a typed error, never
// crash, and never touch the engine it was decoded against.
void SweepSections(core::SystemKind kind,
                   std::initializer_list<SectionTag> tags) {
  std::vector<Section> sections = TrainedSections(kind);
  auto engine = NewEngine(kind);
  const std::string before = SavedState(*engine, "sweep-before");
  size_t cases = 0;
  for (const SectionTag tag : tags) {
    SCOPED_TRACE("section " + std::to_string(static_cast<uint32_t>(tag)));
    const Section* section = FindSection(&sections, tag);
    ASSERT_NE(section, nullptr);
    const std::string& payload = section->payload;
    ASSERT_TRUE(engine->StageSnapshotSection(tag, payload).ok());
    auto check = [&](const std::string& bytes, const char* what,
                     size_t at) {
      ++cases;
      const Status status = engine->StageSnapshotSection(tag, bytes).status();
      EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCorruption ||
                  status.code() == StatusCode::kFailedPrecondition)
          << what << " at " << at << ": " << status.ToString();
    };
    for (size_t len = 0; len < payload.size(); ++len) {
      check(payload.substr(0, len), "truncation", len);
    }
    for (size_t i = 0; i < payload.size(); ++i) {
      std::string flipped = payload;
      flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
      check(flipped, "flip", i);
    }
    for (const uint64_t len :
         {uint64_t{0xFFFFFFFF}, uint64_t{1} << 61, uint64_t{1} << 62,
          ~uint64_t{0}}) {
      for (size_t i = 0; i + sizeof(len) <= payload.size(); ++i) {
        std::string bytes = payload;
        std::memcpy(bytes.data() + i, &len, sizeof(len));
        check(bytes, "length", i);
      }
    }
  }
  EXPECT_GT(cases, 0u);
  EXPECT_EQ(SavedState(*engine, "sweep-after"), before);
}

TEST(SnapshotSectionSweep, PsEngineSectionsDecodeSafely) {
  SweepSections(core::SystemKind::kHetKgDps,
                {SectionTag::kTrainerMeta, SectionTag::kClusterState,
                 SectionTag::kEngineCounters, SectionTag::kWorker,
                 SectionTag::kPsRuntime});
}

TEST(SnapshotSectionSweep, PbgEngineSectionsDecodeSafely) {
  SweepSections(core::SystemKind::kPbg,
                {SectionTag::kTrainerMeta, SectionTag::kPbgState,
                 SectionTag::kClusterState});
}

}  // namespace
}  // namespace hetkg
