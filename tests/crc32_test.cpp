// The CRC-32 engine (common/crc32.h) against a bitwise reference, for
// each body the CPU can run, and single-bit-flip sweeps over the two
// formats it protects: Messenger wire frames and checkpoint containers.
// CRC-32 detects every single-bit error, so any flip that verifies is
// an engine bug.
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "embedding/checkpoint.h"
#include "net/channel.h"
#include "net/local_channel.h"

namespace hetkg {
namespace {

/// One bit at a time, no tables: shares nothing with the engine.
uint32_t ReferenceUpdate(uint32_t crc, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

using UpdateFn = uint32_t (*)(uint32_t, const void*, size_t);

struct Body {
  const char* name;
  UpdateFn update;
  bool supported;
};

void PrintTo(const Body& body, std::ostream* os) { *os << body.name; }

std::vector<Body> Bodies() {
  std::vector<Body> bodies = {
      {"dispatch", &Crc32Update, true},
      {"portable", &crc32_internal::UpdatePortable, true},
  };
#if defined(__x86_64__)
  bodies.push_back({"folding", &crc32_internal::UpdateFolding,
                    crc32_internal::CpuHasFolding()});
#endif
  return bodies;
}

class Crc32BodyTest : public ::testing::TestWithParam<Body> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) {
      GTEST_SKIP() << GetParam().name << " needs PCLMULQDQ and SSE4.1";
    }
  }
  uint32_t Checksum(const void* data, size_t size) const {
    return Crc32Finish(GetParam().update(Crc32Init(), data, size));
  }
};

TEST_P(Crc32BodyTest, KnownAnswers) {
  EXPECT_EQ(Checksum("", 0), 0x00000000u);
  EXPECT_EQ(Checksum("123456789", 9), 0xCBF43926u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Checksum(fox.data(), fox.size()), 0x414FA339u);
}

TEST_P(Crc32BodyTest, MatchesReferenceAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> bytes = RandomBytes((1 << 20) + 64, 11);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* start = bytes.data() + offset;
    // Every length up to 1100, with the reference extended one byte at
    // a time.
    uint32_t expected = Crc32Init();
    for (size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(GetParam().update(Crc32Init(), start, len), expected)
          << "offset " << offset << " length " << len;
      expected = ReferenceUpdate(expected, start + len, 1);
    }
    for (size_t len : {size_t{4096} + 3, size_t{65536} + 13,
                       size_t{1 << 20} + 7}) {
      ASSERT_EQ(GetParam().update(Crc32Init(), start, len),
                ReferenceUpdate(Crc32Init(), start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_P(Crc32BodyTest, ChainedUpdatesEqualOneShot) {
  const std::vector<uint8_t> bytes = RandomBytes(300, 12);
  const uint32_t whole = GetParam().update(Crc32Init(), bytes.data(), 300);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    uint32_t crc = GetParam().update(Crc32Init(), bytes.data(), split);
    crc = GetParam().update(crc, bytes.data() + split, 300 - split);
    ASSERT_EQ(crc, whole) << "split at " << split;
  }
}

TEST_P(Crc32BodyTest, EmptyUpdateFromNullIsIdentity) {
  for (uint32_t crc : {0u, 0xFFFFFFFFu, 0x12345678u}) {
    EXPECT_EQ(GetParam().update(crc, nullptr, 0), crc);
  }
}

INSTANTIATE_TEST_SUITE_P(Crc32Bodies, Crc32BodyTest,
                         ::testing::ValuesIn(Bodies()),
                         [](const ::testing::TestParamInfo<Body>& info) {
                           return std::string(info.param.name);
                         });

// Pid-qualified so concurrent ctest entries running this binary never
// share a path.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "-" +
         name;
}

TEST(BitFlipSweep, EveryFlippedWireFrameIsCorrupt) {
  auto [a, b] = net::LocalChannel::CreatePair();
  net::Messenger sender(a.get());
  // Long enough that the folding body covers most of the frame.
  const std::vector<uint8_t> payload = RandomBytes(100, 13);
  const std::string_view payload_view(
      reinterpret_cast<const char*>(payload.data()), payload.size());
  ASSERT_TRUE(sender.Send(payload_view));
  std::string frame;
  ASSERT_EQ(b->Recv(&frame, 1000), net::RecvStatus::kOk);

  net::Messenger receiver(b.get());
  std::string got;
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string flipped = frame;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_TRUE(a->Send(flipped));
    ASSERT_EQ(receiver.Recv(&got, 1000), net::RecvStatus::kCorrupt)
        << "bit " << bit << " of a " << frame.size() << "-byte frame";
  }
  // The unflipped frame still delivers: the sweep tested a valid frame.
  ASSERT_TRUE(a->Send(frame));
  ASSERT_EQ(receiver.Recv(&got, 1000), net::RecvStatus::kOk);
  EXPECT_EQ(got, payload_view);
}

TEST(BitFlipSweep, EveryFlippedCheckpointContainerIsCorruption) {
  const std::string path = TempPath("flip-sweep.ck");
  embedding::CheckpointWriter writer;
  ByteWriter meta;
  meta.Str("flip sweep");
  meta.U64(42);
  writer.AddSection(embedding::SectionTag::kTrainerMeta, std::move(meta));
  ByteWriter counters;
  const std::vector<uint8_t> bytes = RandomBytes(80, 14);
  counters.Raw(bytes.data(), bytes.size());
  writer.AddSection(embedding::SectionTag::kEngineCounters,
                    std::move(counters));
  ASSERT_TRUE(writer.WriteAtomic(path, /*durable=*/false).ok());

  std::string container;
  {
    std::ifstream in(path, std::ios::binary);
    container.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(container.compare(0, 8, "HETKGCK2"), 0);
  ASSERT_TRUE(embedding::CheckpointReader::Open(path).ok());

  for (size_t bit = 0; bit < container.size() * 8; ++bit) {
    std::string flipped = container;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    const auto reader = embedding::CheckpointReader::Open(path);
    ASSERT_FALSE(reader.ok()) << "bit " << bit << " verified";
    ASSERT_EQ(reader.status().code(), StatusCode::kCorruption)
        << "bit " << bit << ": " << reader.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetkg
