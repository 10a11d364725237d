#ifndef KRCORE_TESTS_SEARCH_CONTEXT_TEST_PEER_H_
#define KRCORE_TESTS_SEARCH_CONTEXT_TEST_PEER_H_

#include <limits>

#include "core/search_context.h"

namespace krcore {

/// Test-only access to SearchContext's kernel selection.
class SearchContextTestPeer {
 public:
  static VertexId DenseLimit() { return SearchContext::dense_limit_.load(); }
  static void SetDenseLimit(VertexId n) {
    SearchContext::dense_limit_.store(n);
  }
};

namespace test {

enum class Kernel { kDense, kSparse };

inline const char* KernelName(Kernel k) {
  return k == Kernel::kDense ? "dense" : "sparse";
}

/// Forces every SearchContext constructed in its scope onto one kernel,
/// whatever the component size; restores the size-based choice on exit.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kernel kernel)
      : saved_(SearchContextTestPeer::DenseLimit()) {
    SearchContextTestPeer::SetDenseLimit(
        kernel == Kernel::kDense ? std::numeric_limits<VertexId>::max() : 0);
  }
  ~ScopedKernel() { SearchContextTestPeer::SetDenseLimit(saved_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  VertexId saved_;
};

}  // namespace test
}  // namespace krcore

#endif  // KRCORE_TESTS_SEARCH_CONTEXT_TEST_PEER_H_
