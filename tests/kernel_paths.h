#ifndef HETKG_TESTS_KERNEL_PATHS_H_
#define HETKG_TESTS_KERNEL_PATHS_H_

// Test helpers for the kernel paths (DESIGN.md §10): every path must
// give the same bits.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "embedding/kernels.h"

namespace hetkg {

/// Every dispatch path this CPU can run; kAvx2 only on a CPU with AVX2.
inline std::vector<embedding::kernels::KernelPath> KernelPaths() {
  using embedding::kernels::KernelPath;
  std::vector<KernelPath> paths = {KernelPath::kScalar,
                                   KernelPath::kPortableVector};
  if (embedding::kernels::DetectCpuFeatures().avx2) {
    paths.push_back(KernelPath::kAvx2);
  }
  return paths;
}

/// Bitwise equality: unlike ==, tells -0.0 from +0.0 and matches NaNs.
template <class T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Pins the process-wide kernel path for one scope, then re-resolves
/// the default (CPU + HETKG_KERNEL), so tests can flip dispatch without
/// leaking state into other tests.
class ScopedKernelPath {
 public:
  explicit ScopedKernelPath(embedding::kernels::KernelPath path) {
    EXPECT_TRUE(embedding::kernels::SetKernelPath(path).ok())
        << embedding::kernels::KernelPathName(path);
  }
  ~ScopedKernelPath() {
    EXPECT_TRUE(embedding::kernels::SetKernelPath(std::nullopt).ok());
  }
  ScopedKernelPath(const ScopedKernelPath&) = delete;
  ScopedKernelPath& operator=(const ScopedKernelPath&) = delete;
};

}  // namespace hetkg

#endif  // HETKG_TESTS_KERNEL_PATHS_H_
