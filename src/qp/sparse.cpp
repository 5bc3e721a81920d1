#include "qp/sparse.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/parallel.h"

namespace ep {

namespace {

double rowDot(const Csr& A, std::size_t i, const double* x) {
  double s = 0.0;
  for (std::int32_t k = A.start[i]; k < A.start[i + 1]; ++k) {
    s += A.val[static_cast<std::size_t>(k)] *
         x[static_cast<std::size_t>(A.col[static_cast<std::size_t>(k)])];
  }
  return s;
}

/// Sorts the (unique) columns of one CSR row ascending, carrying values.
/// Short rows use an in-place insertion sort; long ones (bound pins of
/// high-fanout nets) go through `scratch`, whose capacity is kept.
void sortRow(std::int32_t* col, double* val, std::size_t len,
             std::vector<std::pair<std::int32_t, double>>& scratch) {
  if (len <= 32) {
    for (std::size_t a = 1; a < len; ++a) {
      const std::int32_t c = col[a];
      const double v = val[a];
      std::size_t b = a;
      for (; b > 0 && col[b - 1] > c; --b) {
        col[b] = col[b - 1];
        val[b] = val[b - 1];
      }
      col[b] = c;
      val[b] = v;
    }
    return;
  }
  scratch.clear();
  for (std::size_t a = 0; a < len; ++a) scratch.emplace_back(col[a], val[a]);
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });
  for (std::size_t a = 0; a < len; ++a) {
    col[a] = scratch[a].first;
    val[a] = scratch[a].second;
  }
}

std::size_t numBlocks(std::size_t n) {
  return (n + kReduceBlock - 1) / kReduceBlock;
}

/// Runs fn(block, begin, end) over every reduction block of [0, n): on the
/// pool when there is one, inline otherwise. Partitions hold whole blocks,
/// so each block's arithmetic is the same for any thread count.
template <typename F>
void forEachBlock(ThreadPool* pool, std::size_t n, F&& fn) {
  auto body = [&](std::size_t, std::size_t b0, std::size_t b1) {
    for (std::size_t k = b0; k < b1; ++k) {
      fn(k, k * kReduceBlock, std::min(n, (k + 1) * kReduceBlock));
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(numBlocks(n), body, ThreadPool::kGrain / kReduceBlock);
  } else {
    body(0, 0, numBlocks(n));
  }
}

}  // namespace

void Csr::multiply(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == static_cast<std::size_t>(n));
  assert(y.size() == static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    y[i] = rowDot(*this, i, x.data());
  }
}

void CooBuilder::addDiag(std::int32_t i, double w) {
  entries_.push_back({i, i, w});
}

void CooBuilder::addOffDiag(std::int32_t i, std::int32_t j, double w) {
  entries_.push_back({i, j, w});
  entries_.push_back({j, i, w});
}

void CooBuilder::addSpring(std::int32_t i, std::int32_t j, double w) {
  addDiag(i, w);
  addDiag(j, w);
  addOffDiag(i, j, -w);
}

void CooBuilder::buildInto(Csr& m) {
  const auto n = static_cast<std::size_t>(n_);
  m.n = n_;
  // Counting pass, then exclusive prefix: start[i] = bucket begin of row i.
  m.start.assign(n + 1, 0);
  for (const Entry& e : entries_) {
    ++m.start[static_cast<std::size_t>(e.row) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) m.start[i] += m.start[i - 1];
  // Stable scatter in emission order. start[i] is row i's cursor, so it
  // ends at the bucket's end (= the next row's bucket begin).
  m.col.resize(entries_.size());
  m.val.resize(entries_.size());
  for (const Entry& e : entries_) {
    const auto k =
        static_cast<std::size_t>(m.start[static_cast<std::size_t>(e.row)]++);
    m.col[k] = e.col;
    m.val[k] = e.val;
  }
  // Per row: sum duplicates in emission order while compacting toward the
  // front (the write cursor never passes the read cursor), then sort the
  // row's columns. slot_[c] is c's slot in the current row; stale values
  // from earlier rows or builds fail the range-and-column check.
  slot_.resize(n);
  std::int32_t w = 0;
  std::int32_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t end = m.start[i];
    const std::int32_t rowStart = w;
    for (std::int32_t k = begin; k < end; ++k) {
      const std::int32_t c = m.col[static_cast<std::size_t>(k)];
      const double v = m.val[static_cast<std::size_t>(k)];
      const std::int32_t s = slot_[static_cast<std::size_t>(c)];
      if (s >= rowStart && s < w && m.col[static_cast<std::size_t>(s)] == c) {
        m.val[static_cast<std::size_t>(s)] += v;
      } else {
        slot_[static_cast<std::size_t>(c)] = w;
        m.col[static_cast<std::size_t>(w)] = c;
        m.val[static_cast<std::size_t>(w)] = v;
        ++w;
      }
    }
    sortRow(m.col.data() + rowStart, m.val.data() + rowStart,
            static_cast<std::size_t>(w - rowStart), sortScratch_);
    m.start[i] = rowStart;
    begin = end;
  }
  m.start[n] = w;
  m.col.resize(static_cast<std::size_t>(w));
  m.val.resize(static_cast<std::size_t>(w));
}

std::size_t cgWorkspaceBytes(std::size_t n) {
  return (5 * n + 2 * numBlocks(n)) * sizeof(double);
}

CgResult cgSolve(const Csr& A, std::span<const double> b, std::span<double> x,
                 int maxIter, double tol, ThreadPool* pool, CgWorkspace* ws) {
  const auto n = static_cast<std::size_t>(A.n);
  CgWorkspace local;
  CgWorkspace& w = ws != nullptr ? *ws : local;
  for (auto* v : {&w.diag, &w.r, &w.z, &w.p, &w.ap}) v->resize(n);
  w.partA.resize(numBlocks(n));
  w.partB.resize(numBlocks(n));
  double* const diag = w.diag.data();
  double* const r = w.r.data();
  double* const z = w.z.data();
  double* const p = w.p.data();
  double* const ap = w.ap.data();
  double* const partA = w.partA.data();
  double* const partB = w.partB.data();

  forEachBlock(pool, n, [&](std::size_t k, std::size_t lo, std::size_t hi) {
    double bb = 0.0;
    for (std::size_t i = lo; i < hi; ++i) bb += b[i] * b[i];
    partA[k] = bb;
  });
  const double bNorm = std::max(std::sqrt(orderedSum(w.partA)), 1e-30);

  // Jacobi diagonal, r = b - A x, z = M^-1 r, p = z; partials of r.z, r.r.
  forEachBlock(pool, n, [&](std::size_t k, std::size_t lo, std::size_t hi) {
    double rz = 0.0, rr = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      diag[i] = 1.0;
      for (std::int32_t q = A.start[i]; q < A.start[i + 1]; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        if (static_cast<std::size_t>(A.col[qi]) == i && A.val[qi] > 0.0) {
          diag[i] = A.val[qi];
        }
      }
      r[i] = b[i] - rowDot(A, i, x.data());
      z[i] = r[i] / diag[i];
      p[i] = z[i];
      rz += r[i] * z[i];
      rr += r[i] * r[i];
    }
    partA[k] = rz;
    partB[k] = rr;
  });
  double rz = orderedSum(w.partA);
  double rr = orderedSum(w.partB);

  CgResult res;
  while (res.iterations < maxIter && std::sqrt(rr) / bNorm >= tol) {
    // SpMV fused with the p.Ap partials.
    forEachBlock(pool, n, [&](std::size_t k, std::size_t lo, std::size_t hi) {
      double pAp = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        ap[i] = rowDot(A, i, p);
        pAp += p[i] * ap[i];
      }
      partA[k] = pAp;
    });
    const double pAp = orderedSum(w.partA);
    if (pAp <= 0.0) break;  // numerical breakdown / not SPD
    const double alpha = rz / pAp;
    forEachBlock(pool, n, [&](std::size_t k, std::size_t lo, std::size_t hi) {
      double rzK = 0.0, rrK = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
        z[i] = r[i] / diag[i];
        rzK += r[i] * z[i];
        rrK += r[i] * r[i];
      }
      partA[k] = rzK;
      partB[k] = rrK;
    });
    ++res.iterations;
    const double rzNew = orderedSum(w.partA);
    rr = orderedSum(w.partB);
    const double beta = rzNew / rz;
    rz = rzNew;
    forEachBlock(pool, n, [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) p[i] = z[i] + beta * p[i];
    });
  }
  res.residual = std::sqrt(rr) / bNorm;
  return res;
}

}  // namespace ep
