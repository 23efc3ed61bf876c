#ifndef HETKG_COMMON_SERIALIZE_H_
#define HETKG_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace hetkg {

/// Append-only little-endian binary encoder backing the HETKGCK2
/// checkpoint sections. All multi-byte values are written via memcpy so
/// the encoding is identical on any host this library builds on
/// (little-endian is asserted at the checkpoint layer via the magic).
class ByteWriter {
 public:
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  /// Length-prefixed (u32) byte string.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  /// Length-prefixed (u64) packed float span.
  void FloatVec(std::span<const float> v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(float));
  }

  /// Length-prefixed (u64) packed u64 span.
  void U64Vec(std::span<const uint64_t> v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(uint64_t));
  }

  void Raw(const void* data, size_t size) {
    const auto* bytes = static_cast<const char*>(data);
    buffer_.append(bytes, size);
  }

  const std::string& buffer() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Bounds-checked decoder for ByteWriter output. A read past the end
/// latches `ok() == false` and returns zeros; callers validate `ok()`
/// once after decoding a section instead of checking every field.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  uint8_t U8() { return Scalar<uint8_t>(); }
  uint32_t U32() { return Scalar<uint32_t>(); }
  uint64_t U64() { return Scalar<uint64_t>(); }
  float F32() { return Scalar<float>(); }
  double F64() { return Scalar<double>(); }

  std::string Str() {
    const uint32_t len = U32();
    std::string s;
    if (!Require(len)) return s;
    s.assign(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  std::vector<float> FloatVec() { return Vec<float>(); }
  std::vector<uint64_t> U64Vec() { return Vec<uint64_t>(); }

  bool ReadRaw(void* out, size_t size) {
    if (!Require(size)) return false;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  /// The next `size` bytes, in place (nullptr past the end).
  const char* View(size_t size) {
    if (!Require(size)) return nullptr;
    pos_ += size;
    return data_ + pos_ - size;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T Scalar() {
    T v{};
    if (Require(sizeof(T))) {
      std::memcpy(&v, data_ + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
    return v;
  }

  template <typename T>
  std::vector<T> Vec() {
    const uint64_t n = U64();
    std::vector<T> v;
    // Divide rather than multiply: n * sizeof(T) wraps for n >= 2^61.
    if (!ok_ || n > remaining() / sizeof(T)) {
      ok_ = false;
      return v;
    }
    v.resize(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  bool Require(uint64_t size) {
    if (!ok_ || size > size_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Decode-then-commit (DESIGN.md §9): a `StageState` decoder validates
/// its bytes without touching its object and returns the commit that
/// installs them (empty when rejected). A commit cannot fail; it may
/// copy from the decoded bytes, so run it while they are alive.
using Commit = std::function<void()>;

/// Runs `commit` if the bytes were accepted; returns whether they were.
inline bool Apply(const Commit& commit) {
  if (commit) commit();
  return static_cast<bool>(commit);
}

}  // namespace hetkg

#endif  // HETKG_COMMON_SERIALIZE_H_
