#include "embedding/embedding_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <utility>

namespace hetkg::embedding {

namespace {

/// Thread-local scratch backing DecodedRow() views of quantized tables.
/// A bump cursor over a fixed float arena: each decode claims `dim`
/// floats and the cursor wraps when the arena is exhausted, so a batch
/// of recent views (the triple rows plus a candidate set) stays live
/// while long-gone ones are recycled.
struct DecodeRing {
  std::vector<float> arena;
  size_t cursor = 0;

  std::span<float> Claim(size_t dim) {
    if (arena.size() < kDecodeRingFloats) arena.resize(kDecodeRingFloats);
    assert(dim <= arena.size());
    if (cursor + dim > arena.size()) cursor = 0;
    std::span<float> slot(arena.data() + cursor, dim);
    cursor += dim;
    return slot;
  }
};

thread_local DecodeRing t_decode_ring;

}  // namespace

EmbeddingTable::EmbeddingTable(size_t num_rows, size_t dim)
    : num_rows_(num_rows),
      dim_(dim),
      row_bytes_(dim * sizeof(float)),
      data_(num_rows * dim, 0.0f) {
  assert(dim > 0);
  f32_data_ = data_.data();
}

EmbeddingTable::EmbeddingTable(EmbeddingTable&& other) noexcept
    : num_rows_(other.num_rows_),
      dim_(other.dim_),
      tiered_(other.tiered_),
      dtype_(other.dtype_),
      row_bytes_(other.row_bytes_),
      cold_(std::move(other.cold_)),
      data_(std::move(other.data_)),
      cold_reads_(other.cold_reads_.load(std::memory_order_relaxed)) {
  // Pointers into data_ survive the vector move; pointers into the
  // mapped slab survive the MmapFile move. Recompute from the new
  // owners rather than copying the stale members.
  if (tiered_) {
    encoded_ = cold_.data();
    f32_data_ = (dtype_ == ColdDtype::kFp32)
                    ? reinterpret_cast<float*>(cold_.data())
                    : nullptr;
  } else {
    encoded_ = nullptr;
    f32_data_ = data_.data();
  }
  other.f32_data_ = nullptr;
  other.encoded_ = nullptr;
  other.num_rows_ = 0;
}

EmbeddingTable& EmbeddingTable::operator=(EmbeddingTable&& other) noexcept {
  if (this == &other) return *this;
  num_rows_ = other.num_rows_;
  dim_ = other.dim_;
  tiered_ = other.tiered_;
  dtype_ = other.dtype_;
  row_bytes_ = other.row_bytes_;
  cold_ = std::move(other.cold_);
  data_ = std::move(other.data_);
  cold_reads_.store(other.cold_reads_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  if (tiered_) {
    encoded_ = cold_.data();
    f32_data_ = (dtype_ == ColdDtype::kFp32)
                    ? reinterpret_cast<float*>(cold_.data())
                    : nullptr;
  } else {
    encoded_ = nullptr;
    f32_data_ = data_.data();
  }
  other.f32_data_ = nullptr;
  other.encoded_ = nullptr;
  other.num_rows_ = 0;
  return *this;
}

Result<EmbeddingTable> EmbeddingTable::CreateTiered(
    size_t num_rows, size_t dim, const TieredOptions& opts,
    const std::string& name) {
  if (!opts.enabled) {
    return EmbeddingTable(num_rows, dim);
  }
  if (dim == 0) {
    return Status::InvalidArgument("tiered table " + name + ": dim must be > 0");
  }
  if (opts.cold_dir.empty()) {
    return Status::InvalidArgument(
        "tiered storage requires a cold_dir (--cold_dir)");
  }
  // Created like the checkpoint directory (mkdir -p); a failure
  // surfaces as the slab file's IoError below.
  std::error_code ec;
  std::filesystem::create_directories(opts.cold_dir, ec);
  const size_t row_bytes = ColdRowBytes(opts.dtype, dim);
  HETKG_ASSIGN_OR_RETURN(
      MmapFile slab,
      MmapFile::Create(ColdSlabPath(opts.cold_dir, name),
                       num_rows * row_bytes));
  EmbeddingTable table;
  table.num_rows_ = num_rows;
  table.dim_ = dim;
  table.tiered_ = true;
  table.dtype_ = opts.dtype;
  table.row_bytes_ = row_bytes;
  table.cold_ = std::move(slab);
  table.encoded_ = table.cold_.data();
  table.f32_data_ = (opts.dtype == ColdDtype::kFp32)
                        ? reinterpret_cast<float*>(table.cold_.data())
                        : nullptr;
  return table;
}

void EmbeddingTable::ReadRowInto(size_t i, std::span<float> out) const {
  assert(i < num_rows_);
  assert(out.size() == dim_);
  if (f32_data_ != nullptr) {
    std::memcpy(out.data(), f32_data_ + i * dim_, dim_ * sizeof(float));
    return;
  }
  DecodeColdRow(dtype_, encoded_ + i * row_bytes_, out);
  cold_reads_.fetch_add(1, std::memory_order_relaxed);
}

std::span<const float> EmbeddingTable::DecodedRow(size_t i) const {
  assert(i < num_rows_);
  if (f32_data_ != nullptr) {
    return {f32_data_ + i * dim_, dim_};
  }
  std::span<float> slot = t_decode_ring.Claim(dim_);
  DecodeColdRow(dtype_, encoded_ + i * row_bytes_, slot);
  cold_reads_.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void EmbeddingTable::SetRow(size_t i, std::span<const float> values) {
  assert(i < num_rows_);
  assert(values.size() == dim_);
  if (f32_data_ != nullptr) {
    std::memcpy(f32_data_ + i * dim_, values.data(), dim_ * sizeof(float));
    return;
  }
  EncodeColdRow(dtype_, values, encoded_ + i * row_bytes_);
}

void EmbeddingTable::AccumulateRow(size_t i, std::span<const float> delta) {
  assert(i < num_rows_);
  assert(delta.size() == dim_);
  if (f32_data_ != nullptr) {
    float* row = f32_data_ + i * dim_;
    for (size_t j = 0; j < dim_; ++j) {
      row[j] += delta[j];
    }
    return;
  }
  std::span<float> slot = t_decode_ring.Claim(dim_);
  ReadRowInto(i, slot);
  for (size_t j = 0; j < dim_; ++j) {
    slot[j] += delta[j];
  }
  SetRow(i, slot);
}

void EmbeddingTable::Fill(float value) {
  if (f32_data_ != nullptr) {
    std::fill(f32_data_, f32_data_ + num_rows_ * dim_, value);
    return;
  }
  // Encode one constant row, then replicate its bytes.
  std::vector<float> scratch(dim_, value);
  std::vector<uint8_t> encoded(row_bytes_);
  EncodeColdRow(dtype_, scratch, encoded.data());
  for (size_t i = 0; i < num_rows_; ++i) {
    std::memcpy(encoded_ + i * row_bytes_, encoded.data(), row_bytes_);
  }
}

void EmbeddingTable::InitUniform(Rng* rng, float bound) {
  if (f32_data_ != nullptr) {
    const size_t n = num_rows_ * dim_;
    for (size_t k = 0; k < n; ++k) {
      f32_data_[k] = static_cast<float>(rng->NextUniform(-bound, bound));
    }
    return;
  }
  std::vector<float> scratch(dim_);
  for (size_t i = 0; i < num_rows_; ++i) {
    for (size_t j = 0; j < dim_; ++j) {
      scratch[j] = static_cast<float>(rng->NextUniform(-bound, bound));
    }
    SetRow(i, scratch);
  }
}

void EmbeddingTable::InitXavierUniform(Rng* rng) {
  InitUniform(rng, 6.0f / std::sqrt(static_cast<float>(dim_)));
}

void EmbeddingTable::InitGaussian(Rng* rng, float stddev) {
  if (f32_data_ != nullptr) {
    const size_t n = num_rows_ * dim_;
    for (size_t k = 0; k < n; ++k) {
      f32_data_[k] = static_cast<float>(rng->NextGaussian() * stddev);
    }
    return;
  }
  std::vector<float> scratch(dim_);
  for (size_t i = 0; i < num_rows_; ++i) {
    for (size_t j = 0; j < dim_; ++j) {
      scratch[j] = static_cast<float>(rng->NextGaussian() * stddev);
    }
    SetRow(i, scratch);
  }
}

void EmbeddingTable::L2NormalizeRow(size_t i) {
  if (f32_data_ != nullptr) {
    auto row = Row(i);
    const double norm = RowNorm(row);
    if (norm <= 1e-12) return;
    const float inv = static_cast<float>(1.0 / norm);
    for (float& v : row) {
      v *= inv;
    }
    return;
  }
  std::span<float> slot = t_decode_ring.Claim(dim_);
  ReadRowInto(i, slot);
  const double norm = RowNorm(slot);
  if (norm <= 1e-12) return;
  const float inv = static_cast<float>(1.0 / norm);
  for (float& v : slot) {
    v *= inv;
  }
  SetRow(i, slot);
}

Status EmbeddingTable::SyncCold() const {
  if (!tiered_) return Status::OK();
  return cold_.Sync();
}

void EmbeddingTable::DropColdResidency() const {
  if (tiered_) cold_.DropResidency();
}

void EmbeddingTable::AdviseRowWillNeed(size_t i) const {
  if (!tiered_ || i >= num_rows_) return;
  cold_.AdviseWillNeed(i * row_bytes_, row_bytes_);
}

double RowNorm(std::span<const float> row) {
  double sum = 0.0;
  for (float v : row) {
    sum += static_cast<double>(v) * v;
  }
  return std::sqrt(sum);
}

double RowDot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

}  // namespace hetkg::embedding
