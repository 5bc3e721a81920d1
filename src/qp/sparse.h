// Sparse symmetric linear algebra for the quadratic placement engine:
// a COO accumulator, a CSR matrix, and a Jacobi-preconditioned conjugate
// gradient solver. Sized for placement systems (n up to a few hundred
// thousand, a handful of entries per row from the B2B model).
//
// Determinism: CSR assembly sums duplicate coordinates in emission order,
// and every CG reduction is a fixed-block sum (kReduceBlock elements per
// block, each summed serially, block partials folded in block order). The
// pool runs whole blocks, so results depend on n only, never on the thread
// count (docs/PERFORMANCE.md, "Parallel mIP").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ep {

class ThreadPool;

/// Compressed sparse row matrix (square).
struct Csr {
  std::int32_t n = 0;
  std::vector<std::int32_t> start;  // n+1
  std::vector<std::int32_t> col;
  std::vector<double> val;

  /// y = A x.
  void multiply(std::span<const double> x, std::span<double> y) const;
};

/// Accumulates symmetric quadratic-form entries and compresses to CSR.
/// Duplicate coordinates are summed during build, in emission order.
class CooBuilder {
 public:
  explicit CooBuilder(std::int32_t n) : n_(n) {}

  /// A_ii += w.
  void addDiag(std::int32_t i, double w);
  /// A_ij += w and A_ji += w (call with the off-diagonal value, usually
  /// negative for a connection of weight -w... callers pass w directly).
  void addOffDiag(std::int32_t i, std::int32_t j, double w);
  /// Convenience: a two-movable spring of weight w
  /// (A_ii += w, A_jj += w, A_ij -= w, A_ji -= w).
  void addSpring(std::int32_t i, std::int32_t j, double w);

  /// Row-bucket assembly into `out`, reusing its capacity: a counting pass
  /// over rows, a stable scatter into row buckets, then per row a duplicate
  /// sum in emission order and an ascending column sort. `out` is sized to
  /// the emission count before compaction; no heap allocation once it and
  /// the builder hold enough capacity.
  void buildInto(Csr& out);
  [[nodiscard]] Csr build() {
    Csr m;
    buildInto(m);
    return m;
  }
  [[nodiscard]] std::int32_t size() const { return n_; }
  /// Drops the entries, keeping every buffer's capacity for the next build.
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::int32_t row, col;
    double val;
  };
  std::int32_t n_;
  std::vector<Entry> entries_;
  std::vector<std::int32_t> slot_;  // column -> CSR slot while its row builds
  std::vector<std::pair<std::int32_t, double>> sortScratch_;
};

struct CgResult {
  int iterations = 0;     ///< CG updates applied to x
  double residual = 0.0;  ///< ||Ax-b|| / ||b||
};

/// Scratch vectors of one CG solve. Callers that solve repeatedly (mIP's
/// B2B rebuilds) keep one so that only the first solve allocates.
struct CgWorkspace {
  std::vector<double> diag, r, z, p, ap;
  std::vector<double> partA, partB;  // per-block reduction partials
};

/// Elements per block of the CG's deterministic reductions.
inline constexpr std::size_t kReduceBlock = 1024;

/// Bytes a CgWorkspace holds for an n-variable solve.
[[nodiscard]] std::size_t cgWorkspaceBytes(std::size_t n);

/// Solve A x = b with Jacobi-preconditioned CG, starting from the x passed
/// in. A must be symmetric positive definite (the B2B system with at least
/// one fixed-pin anchor is). With a `pool`, SpMV and the vector updates run
/// on it over whole reduction blocks; the result is bit-identical for any
/// thread count and to the pool-less call. Task exceptions propagate.
CgResult cgSolve(const Csr& A, std::span<const double> b, std::span<double> x,
                 int maxIter = 300, double tol = 1e-6,
                 ThreadPool* pool = nullptr, CgWorkspace* ws = nullptr);

}  // namespace ep
