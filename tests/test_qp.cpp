#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "qp/b2b.h"
#include "qp/initial_place.h"
#include "qp/sparse.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wirelength/wl.h"

// Heap-allocation counter for the steady-state test below: replacing the
// global operator new in this binary counts every allocation it makes.
// GCC flags the malloc/free pair once it inlines the replacements into
// callers that use new/delete; the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t sz) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ep {
namespace {

/// One emitted quadratic-form entry, recorded by the tests alongside the
/// builder so a dense reference can replay the same stream.
struct Emission {
  std::int32_t row, col;
  double val;
};

/// A B2B-shaped random system: springs between random variable pairs with
/// weights spread over several decades, plus fixed-pin anchors on the
/// diagonal. Feeds `b` and returns the entry stream in emission order.
std::vector<Emission> emitRandomB2B(CooBuilder& b, std::int32_t n,
                                    std::size_t springs, Rng& rng) {
  std::vector<Emission> out;
  for (std::size_t s = 0; s < springs; ++s) {
    const auto i = static_cast<std::int32_t>(rng.below(std::uint64_t(n)));
    const auto j = static_cast<std::int32_t>(rng.below(std::uint64_t(n)));
    const double w = std::pow(10.0, rng.uniform(-3.0, 3.0));
    if (i == j || rng.chance(0.3)) {
      b.addDiag(i, w);  // a pin on a fixed object
      out.push_back({i, i, w});
      continue;
    }
    b.addSpring(i, j, w);
    out.push_back({i, i, w});
    out.push_back({j, j, w});
    out.push_back({i, j, -w});
    out.push_back({j, i, -w});
  }
  return out;
}

/// Row/column structure every assembled CSR must have.
void expectWellFormed(const Csr& A) {
  ASSERT_EQ(A.start.size(), static_cast<std::size_t>(A.n) + 1);
  EXPECT_EQ(A.start.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(A.start.back()), A.col.size());
  EXPECT_EQ(A.col.size(), A.val.size());
  for (std::int32_t i = 0; i < A.n; ++i) {
    const auto b =
        static_cast<std::size_t>(A.start[static_cast<std::size_t>(i)]);
    const auto e =
        static_cast<std::size_t>(A.start[static_cast<std::size_t>(i) + 1]);
    ASSERT_LE(b, e) << "row " << i;
    for (std::size_t k = b; k < e; ++k) {
      EXPECT_GE(A.col[k], 0);
      EXPECT_LT(A.col[k], A.n);
      if (k > b) {
        EXPECT_LT(A.col[k - 1], A.col[k]) << "row " << i;
      }
    }
  }
}

/// A_ij from the CSR, 0 when absent.
double csrAt(const Csr& A, std::int32_t i, std::int32_t j) {
  for (std::int32_t k = A.start[static_cast<std::size_t>(i)];
       k < A.start[static_cast<std::size_t>(i) + 1]; ++k) {
    if (A.col[static_cast<std::size_t>(k)] == j) {
      return A.val[static_cast<std::size_t>(k)];
    }
  }
  return 0.0;
}

TEST(Sparse, BuildAndMultiply) {
  CooBuilder b(3);
  b.addDiag(0, 2.0);
  b.addDiag(1, 3.0);
  b.addDiag(2, 1.0);
  b.addOffDiag(0, 1, -1.0);
  b.addDiag(0, 0.5);  // duplicate coordinates sum
  const Csr A = b.build();
  EXPECT_EQ(A.n, 3);
  std::vector<double> x{1.0, 2.0, 3.0}, y(3);
  A.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5 * 1.0 - 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 * 1.0 + 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(Sparse, AddSpring) {
  CooBuilder b(2);
  b.addSpring(0, 1, 4.0);
  const Csr A = b.build();
  std::vector<double> x{1.0, -1.0}, y(2);
  A.multiply(x, y);
  // A = [[4,-4],[-4,4]]; A x = [8, -8].
  EXPECT_DOUBLE_EQ(y[0], 8.0);
  EXPECT_DOUBLE_EQ(y[1], -8.0);
}

TEST(Sparse, CgSolvesRandomSpdSystem) {
  // Diagonally dominant random symmetric system.
  const std::int32_t n = 30;
  Rng rng(11);
  CooBuilder b(n);
  for (std::int32_t i = 0; i < n; ++i) {
    b.addDiag(i, 10.0 + rng.uniform());
    for (std::int32_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.2)) {
        const double w = rng.uniform(-0.5, 0.5);
        b.addOffDiag(i, j, w);
      }
    }
  }
  const Csr A = b.build();
  std::vector<double> xTrue(static_cast<std::size_t>(n));
  for (auto& v : xTrue) v = rng.uniform(-3.0, 3.0);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  A.multiply(xTrue, rhs);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto res = cgSolve(A, rhs, x, 500, 1e-10);
  EXPECT_LT(res.residual, 1e-8);
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                xTrue[static_cast<std::size_t>(i)], 1e-6);
  }
}

TEST(Sparse, CgWarmStartFewerIterations) {
  const std::int32_t n = 50;
  Rng rng(13);
  CooBuilder b(n);
  for (std::int32_t i = 0; i < n; ++i) b.addDiag(i, 5.0 + rng.uniform());
  for (std::int32_t i = 0; i + 1 < n; ++i) b.addOffDiag(i, i + 1, -1.0);
  const Csr A = b.build();
  std::vector<double> rhs(static_cast<std::size_t>(n), 1.0);
  std::vector<double> cold(static_cast<std::size_t>(n), 0.0);
  const auto coldRes = cgSolve(A, rhs, cold, 500, 1e-10);
  auto warm = cold;  // exact solution as the start
  const auto warmRes = cgSolve(A, rhs, warm, 500, 1e-10);
  EXPECT_LT(warmRes.iterations, coldRes.iterations);
}

TEST(Sparse, DuplicatesSumInEmissionOrder) {
  // The same three summands in two orders: FP addition is not associative,
  // so each row's value identifies the order it was summed in.
  const double big = 1e16;  // big + 1 rounds back to big
  CooBuilder b(3);
  b.addDiag(0, big);
  b.addDiag(0, 1.0);
  b.addOffDiag(1, 2, 7.0);  // other rows interleave with row 0's stream
  b.addDiag(0, -big);
  b.addDiag(1, big);
  b.addDiag(2, 5.0);
  b.addDiag(1, -big);
  b.addDiag(1, 1.0);
  const Csr A = b.build();
  expectWellFormed(A);
  EXPECT_EQ(csrAt(A, 0, 0), 0.0);  // (big + 1) - big
  EXPECT_EQ(csrAt(A, 1, 1), 1.0);  // (big - big) + 1
  EXPECT_EQ(csrAt(A, 1, 2), 7.0);
  EXPECT_EQ(csrAt(A, 2, 1), 7.0);
  EXPECT_EQ(csrAt(A, 2, 2), 5.0);
  EXPECT_EQ(A.col.size(), 5u);  // one slot per distinct coordinate
}

TEST(Sparse, ColumnsAscendingWithinEveryRow) {
  // Rows are emitted in descending and random column order, some long
  // enough (> 32 distinct columns) to take the non-insertion sort path.
  const std::int32_t n = 200;
  CooBuilder b(n);
  for (std::int32_t j = n - 1; j >= 0; --j) b.addOffDiag(0, j, 1.0);
  Rng rng(5);
  emitRandomB2B(b, n, 3000, rng);
  for (std::int32_t j = 0; j < 60; ++j) b.addDiag(7, 1.0);  // 60 duplicates
  const Csr A = b.build();
  expectWellFormed(A);
  EXPECT_EQ(A.start[1] - A.start[0], n);  // row 0 touches every column
}

TEST(Sparse, EmptyRowsAndSingleVariable) {
  CooBuilder b(6);
  b.addDiag(0, 1.0);
  b.addSpring(2, 5, 3.0);
  const Csr A = b.build();
  expectWellFormed(A);
  EXPECT_EQ(A.start, (std::vector<std::int32_t>{0, 1, 1, 3, 3, 3, 5}));
  EXPECT_EQ(csrAt(A, 2, 2), 3.0);
  EXPECT_EQ(csrAt(A, 2, 5), -3.0);

  CooBuilder one(1);
  one.addDiag(0, 2.0);
  one.addDiag(0, 0.5);
  const Csr B = one.build();
  expectWellFormed(B);
  EXPECT_EQ(B.start, (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(B.val, std::vector<double>{2.5});
  std::vector<double> rhs{5.0}, x{0.0};
  const auto res = cgSolve(B, rhs, x, 10, 1e-12);
  EXPECT_EQ(x[0], 2.0);
  EXPECT_EQ(res.iterations, 1);

  CooBuilder none(4);  // no emissions at all: four empty rows
  const Csr C = none.build();
  expectWellFormed(C);
  EXPECT_TRUE(C.col.empty());
}

TEST(Sparse, RandomB2BSystemMatchesDenseReference) {
  // Rebuilding into reused buffers must give the same CSR as a fresh build;
  // both must match a dense accumulation of the emission stream: exactly
  // when replayed in emission order, and within 1 ulp per summand (of the
  // summands' magnitude sum) when replayed in reverse.
  const std::int32_t n = 150;
  const auto un = static_cast<std::size_t>(n);
  Rng rng(21);
  CooBuilder reused(n);
  Csr A;
  for (int round = 0; round < 3; ++round) {
    reused.clear();
    Rng replay = rng;  // the fresh builder sees the identical stream
    const auto stream = emitRandomB2B(reused, n, 2500, rng);
    reused.buildInto(A);
    expectWellFormed(A);

    CooBuilder fresh(n);
    emitRandomB2B(fresh, n, 2500, replay);
    const Csr F = fresh.build();
    EXPECT_EQ(A.start, F.start);
    EXPECT_EQ(A.col, F.col);
    for (std::size_t k = 0; k < A.val.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(A.val[k]),
                std::bit_cast<std::uint64_t>(F.val[k]));
    }

    std::vector<double> fwd(un * un, 0.0), rev(un * un, 0.0),
        mag(un * un, 0.0), count(un * un, 0.0);
    for (const Emission& e : stream) {
      const std::size_t at = static_cast<std::size_t>(e.row) * un +
                             static_cast<std::size_t>(e.col);
      fwd[at] += e.val;
      mag[at] += std::abs(e.val);
      count[at] += 1.0;
    }
    for (auto it = stream.rbegin(); it != stream.rend(); ++it) {
      rev[static_cast<std::size_t>(it->row) * un +
          static_cast<std::size_t>(it->col)] += it->val;
    }
    std::size_t nonzeros = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        const std::size_t at =
            static_cast<std::size_t>(i) * un + static_cast<std::size_t>(j);
        const double got = csrAt(A, i, j);
        if (count[at] > 0.0) ++nonzeros;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(fwd[at]))
            << "(" << i << "," << j << ")";
        const double ulpBound =
            count[at] * std::numeric_limits<double>::epsilon() * mag[at];
        EXPECT_LE(std::abs(got - rev[at]), ulpBound)
            << "(" << i << "," << j << ")";
      }
    }
    EXPECT_EQ(A.col.size(), nonzeros);
  }
}

TEST(Sparse, CgReportsMaxIterWhenUnconverged) {
  // A long weakly anchored chain needs far more than 5 iterations; a solve
  // capped at 5 applies 5 updates and must report exactly 5.
  const std::int32_t n = 400;
  CooBuilder b(n);
  for (std::int32_t i = 0; i + 1 < n; ++i) b.addSpring(i, i + 1, 1.0);
  b.addDiag(0, 1e-3);
  const Csr A = b.build();
  std::vector<double> rhs(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto capped = cgSolve(A, rhs, x, 5, 1e-12);
  EXPECT_EQ(capped.iterations, 5);
  EXPECT_GT(capped.residual, 1e-12);
  std::vector<double> x0(static_cast<std::size_t>(n), 0.0);
  EXPECT_EQ(cgSolve(A, rhs, x0, 0, 1e-12).iterations, 0);
}

TEST(Sparse, CgBitIdenticalAcrossThreadCounts) {
  // n spans several reduction blocks with a ragged last one, so 2, 3 and
  // 4 partitions split the block range unevenly.
  const std::int32_t n = 7 * static_cast<std::int32_t>(kReduceBlock) + 301;
  Rng rng(9);
  CooBuilder b(n);
  emitRandomB2B(b, n, 40000, rng);
  for (std::int32_t i = 0; i < n; ++i) b.addDiag(i, 1e-2);
  const Csr A = b.build();
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);

  std::vector<double> serial(static_cast<std::size_t>(n), 0.0);
  const auto ref = cgSolve(A, rhs, serial, 200, 1e-10);
  EXPECT_GT(ref.iterations, 10);
  for (int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const auto res = cgSolve(A, rhs, x, 200, 1e-10, &pool);
    EXPECT_EQ(res.iterations, ref.iterations) << threads << " threads";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.residual),
              std::bit_cast<std::uint64_t>(ref.residual));
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << threads << " threads, x[" << i << "]";
    }
  }
}

TEST(Sparse, SteadyStateAssemblyAndSolveAllocateNothing) {
  // mIP's reuse pattern: one builder, CSR and CgWorkspace, the pool, and
  // systems of the same emission count. Only the first build and solve
  // may allocate.
  const std::int32_t n = 5000;
  ThreadPool pool(4);
  CooBuilder b(n);
  Csr A;
  CgWorkspace ws;
  std::vector<double> rhs(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::uint64_t steady = 0;
  for (int round = 0; round < 3; ++round) {
    Rng rng(static_cast<std::uint64_t>(round) + 1);  // stack-only state
    const std::uint64_t before = gAllocCount.load();
    b.clear();
    for (std::int32_t i = 0; i < n; ++i) {
      b.addDiag(i, 1.0);
      b.addSpring(i, static_cast<std::int32_t>(rng.below(std::uint64_t(n))),
                  rng.uniform(0.1, 2.0));
    }
    b.buildInto(A);
    cgSolve(A, rhs, x, 50, 1e-12, &pool, &ws);
    if (round > 0) steady += gAllocCount.load() - before;
  }
  EXPECT_EQ(steady, 0u);
}

/// Two movables on a 2-pin net each anchored to fixed pads: the quadratic
/// optimum is the weighted average of the fixed positions.
TEST(B2B, TwoPinNetsSolveToFixedAverage) {
  PlacementDB db;
  db.region = {0, 0, 100, 100};
  for (int i = 0; i < 3; ++i) {
    Object o;
    o.name = "o" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.fixed = (i != 0);
    db.objects.push_back(o);
  }
  db.objects[1].setCenter(10, 10);
  db.objects[2].setCenter(90, 30);
  Net n1{"n1", {{0, 0, 0}, {1, 0, 0}}, 1.0};
  Net n2{"n2", {{0, 0, 0}, {2, 0, 0}}, 1.0};
  db.nets = {n1, n2};
  db.finalize();

  std::vector<std::int32_t> objToVar{0, -1, -1};
  std::vector<double> x{50.0};
  CooBuilder builder(1);
  std::vector<double> rhs(1, 0.0);
  buildB2B(db, Axis::kX, objToVar, x, builder, rhs);
  const Csr A = builder.build();
  std::vector<double> sol{50.0};
  cgSolve(A, rhs, sol, 100, 1e-12);
  // B2B on 2-pin nets is exact: weights cancel so the optimum is where the
  // pulls balance. With distances 40 each the weights are equal -> midpoint.
  EXPECT_NEAR(sol[0], 50.0, 1e-6);

  // Asymmetric start: B2B linearizes |x-10| + |x-90|, whose derivative is
  // zero anywhere between the pads — so any interior linearization point is
  // already stationary and must be reproduced exactly (the B2B fixed point
  // property).
  std::vector<double> x2{20.0};
  CooBuilder b2(1);
  std::vector<double> rhs2(1, 0.0);
  buildB2B(db, Axis::kX, objToVar, x2, b2, rhs2);
  std::vector<double> sol2{0.0};
  cgSolve(b2.build(), rhs2, sol2, 100, 1e-12);
  EXPECT_NEAR(sol2[0], 20.0, 1e-6);
}

TEST(B2B, PinOffsetsShiftSolution) {
  PlacementDB db;
  db.region = {0, 0, 100, 100};
  for (int i = 0; i < 2; ++i) {
    Object o;
    o.name = "o" + std::to_string(i);
    o.w = 2;
    o.h = 2;
    o.fixed = (i == 1);
    db.objects.push_back(o);
  }
  db.objects[1].setCenter(50, 50);
  // Movable pin offset +3: its center must settle at 47 to align the pins.
  Net n{"n", {{0, 3.0, 0}, {1, 0, 0}}, 1.0};
  db.nets = {n};
  db.finalize();
  std::vector<std::int32_t> objToVar{0, -1};
  std::vector<double> x{10.0};
  CooBuilder builder(1);
  std::vector<double> rhs(1, 0.0);
  buildB2B(db, Axis::kX, objToVar, x, builder, rhs);
  std::vector<double> sol{10.0};
  cgSolve(builder.build(), rhs, sol, 100, 1e-12);
  EXPECT_NEAR(sol[0], 47.0, 1e-6);
}

TEST(B2B, QuadraticNetCostSmoke) {
  PlacementDB db;
  db.region = {0, 0, 10, 10};
  for (int i = 0; i < 2; ++i) {
    Object o;
    o.name = "o" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    db.objects.push_back(o);
  }
  db.objects[0].setCenter(1, 1);
  db.objects[1].setCenter(4, 5);
  db.nets.push_back({"n", {{0, 0, 0}, {1, 0, 0}}, 1.0});
  db.finalize();
  EXPECT_DOUBLE_EQ(quadraticNetCost(db), 9.0 + 16.0);
}

TEST(InitialPlace, ReducesHpwlAndStaysInRegion) {
  // Star of movables around fixed pads: mIP must collapse wirelength
  // massively versus a spread random start.
  PlacementDB db;
  db.region = {0, 0, 200, 200};
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 2;
    o.h = 1;
    o.setCenter(rng.uniform(1, 199), rng.uniform(1, 199));
    db.objects.push_back(o);
  }
  for (int i = 0; i < 4; ++i) {
    Object o;
    o.name = "p" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.fixed = true;
    o.setCenter(i < 2 ? 5.0 : 195.0, (i % 2) ? 5.0 : 195.0);
    db.objects.push_back(o);
  }
  for (int i = 0; i < 49; ++i) {
    db.nets.push_back(
        {"n" + std::to_string(i),
         {{i, 0, 0}, {i + 1, 0, 0}, {50 + (i % 4), 0, 0}},
         1.0});
  }
  db.finalize();
  const auto res = quadraticInitialPlace(db);
  EXPECT_LT(res.hpwlAfter, res.hpwlBefore);
  for (const auto& o : db.objects) {
    if (o.fixed) continue;
    EXPECT_GE(o.lx, db.region.lx - 1e-9);
    EXPECT_LE(o.lx + o.w, db.region.hx + 1e-9);
  }
}

TEST(InitialPlace, HandlesNoFixedPins) {
  // Fully floating design: the fallback anchor must keep the system SPD and
  // pull everything to the region center.
  PlacementDB db;
  db.region = {0, 0, 100, 100};
  for (int i = 0; i < 10; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.w = 1;
    o.h = 1;
    o.setCenter(5.0 + i, 5.0);
    db.objects.push_back(o);
  }
  for (int i = 0; i < 9; ++i) {
    db.nets.push_back({"n" + std::to_string(i), {{i, 0, 0}, {i + 1, 0, 0}}, 1.0});
  }
  db.finalize();
  const auto res = quadraticInitialPlace(db);
  (void)res;
  for (const auto& o : db.objects) {
    EXPECT_NEAR(o.center().x, 50.0, 5.0);
    EXPECT_NEAR(o.center().y, 50.0, 5.0);
  }
}

TEST(InitialPlace, Deterministic) {
  PlacementDB db1, db2;
  for (PlacementDB* db : {&db1, &db2}) {
    db->region = {0, 0, 100, 100};
    for (int i = 0; i < 20; ++i) {
      Object o;
      o.name = "c" + std::to_string(i);
      o.w = 1;
      o.h = 1;
      db->objects.push_back(o);
    }
    Object pad;
    pad.name = "p";
    pad.w = 1;
    pad.h = 1;
    pad.fixed = true;
    pad.setCenter(10, 10);
    db->objects.push_back(pad);
    for (int i = 0; i < 19; ++i) {
      db->nets.push_back(
          {"n" + std::to_string(i), {{i, 0, 0}, {i + 1, 0, 0}, {20, 0, 0}}, 1.0});
    }
    db->finalize();
    quadraticInitialPlace(*db);
  }
  for (std::size_t i = 0; i < db1.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(db1.objects[i].lx, db2.objects[i].lx);
    EXPECT_DOUBLE_EQ(db1.objects[i].ly, db2.objects[i].ly);
  }
}

}  // namespace
}  // namespace ep
