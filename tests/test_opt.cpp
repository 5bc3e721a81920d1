#include <gtest/gtest.h>

#include <cmath>

#include "opt/cg.h"
#include "opt/nesterov.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ep {
namespace {

/// Convex quadratic f = 0.5 sum a_i (x_i - c_i)^2 with given stiffnesses.
struct Quadratic {
  std::vector<double> a, c;
  double operator()(std::span<const double> x, std::span<double> g) const {
    double f = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - c[i];
      f += 0.5 * a[i] * d * d;
      g[i] = a[i] * d;
    }
    return f;
  }
};

Quadratic makeQuadratic(std::size_t n, double conditioning,
                        std::uint64_t seed) {
  Rng rng(seed);
  Quadratic q;
  q.a.resize(n);
  q.c.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.a[i] = std::pow(conditioning,
                      static_cast<double>(i) / static_cast<double>(n - 1));
    q.c[i] = rng.uniform(-5.0, 5.0);
  }
  return q;
}

TEST(Nesterov, ConvergesOnWellConditionedQuadratic) {
  const std::size_t n = 50;
  auto q = makeQuadratic(n, 1.0, 1);
  NesterovOptimizer opt(
      n, [&](std::span<const double> x, std::span<double> g) { return q(x, g); });
  std::vector<double> v0(n, 0.0);
  opt.initialize(v0);
  double f = 0.0;
  for (int k = 0; k < 100; ++k) f = opt.step().objective;
  EXPECT_LT(f, 1e-8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(opt.solution()[i], q.c[i], 1e-4);
  }
}

TEST(Nesterov, HandlesIllConditioning) {
  const std::size_t n = 50;
  auto q = makeQuadratic(n, 100.0, 2);
  NesterovOptimizer opt(
      n, [&](std::span<const double> x, std::span<double> g) { return q(x, g); });
  std::vector<double> v0(n, 0.0);
  opt.initialize(v0);
  double f0 = 0.0, f = 0.0;
  {
    std::vector<double> g(n);
    f0 = q(v0, g);
  }
  for (int k = 0; k < 300; ++k) f = opt.step().objective;
  EXPECT_LT(f, 1e-4 * f0);
}

TEST(Nesterov, MomentumBeatsPlainGradientDescent) {
  const std::size_t n = 60;
  auto q = makeQuadratic(n, 300.0, 3);
  auto fn = [&](std::span<const double> x, std::span<double> g) {
    return q(x, g);
  };
  NesterovConfig withMomentum;
  NesterovConfig without = withMomentum;
  without.enableMomentum = false;

  double fMomentum = 0.0, fPlain = 0.0;
  {
    NesterovOptimizer opt(n, fn, withMomentum);
    std::vector<double> v0(n, 0.0);
    opt.initialize(v0);
    for (int k = 0; k < 120; ++k) fMomentum = opt.step().objective;
  }
  {
    NesterovOptimizer opt(n, fn, without);
    std::vector<double> v0(n, 0.0);
    opt.initialize(v0);
    for (int k = 0; k < 120; ++k) fPlain = opt.step().objective;
  }
  EXPECT_LT(fMomentum, fPlain);
}

TEST(Nesterov, StepLengthTracksInverseLipschitz) {
  // For f = 0.5 L ||x||^2 the Lipschitz constant is exactly L, so the
  // predicted steplength must approach 1/L.
  const std::size_t n = 10;
  const double L = 8.0;
  auto fn = [&](std::span<const double> x, std::span<double> g) {
    double f = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = L * x[i];
      f += 0.5 * L * x[i] * x[i];
    }
    return f;
  };
  NesterovOptimizer opt(n, fn);
  std::vector<double> v0(n, 1.0);
  opt.initialize(v0);
  const auto info = opt.step();
  EXPECT_NEAR(info.alpha, 1.0 / L, 1e-6);
  EXPECT_EQ(info.backtracks, 0);  // exact prediction: first check passes
}

TEST(Nesterov, BacktrackingActivatesWhenCurvatureJumps) {
  // Piecewise quadratic: stiffness 1 for |x|>1 but 50 inside. A step taken
  // from the shallow regime overshoots into the stiff one, forcing Alg. 2
  // to backtrack at the crossing.
  const std::size_t n = 1;
  auto fn = [&](std::span<const double> x, std::span<double> g) {
    const double v = x[0];
    if (std::abs(v) <= 1.0) {
      g[0] = 50.0 * v;
      return 25.0 * v * v;
    }
    const double s = v > 0 ? 1.0 : -1.0;
    g[0] = (std::abs(v) - 1.0) * s + 50.0 * s;
    return 0.5 * (std::abs(v) - 1.0) * (std::abs(v) - 1.0) +
           50.0 * std::abs(v) - 25.0;
  };
  NesterovOptimizer opt(n, fn);
  std::vector<double> v0{10.0};
  opt.initialize(v0);
  long total = 0;
  for (int k = 0; k < 50; ++k) opt.step();
  total = opt.backtrackCount();
  EXPECT_GT(total, 0);
}

TEST(Nesterov, ProjectionKeepsIteratesInBox) {
  const std::size_t n = 4;
  auto q = makeQuadratic(n, 1.0, 5);
  for (auto& c : q.c) c = 100.0;  // optimum far outside the box
  auto project = [](std::span<double> v) {
    for (auto& x : v) x = std::clamp(x, -1.0, 1.0);
  };
  NesterovOptimizer opt(
      n,
      [&](std::span<const double> x, std::span<double> g) { return q(x, g); },
      {}, project);
  std::vector<double> v0(n, 0.0);
  opt.initialize(v0);
  for (int k = 0; k < 30; ++k) opt.step();
  for (double x : opt.solution()) {
    EXPECT_GE(x, -1.0);
    EXPECT_LE(x, 1.0);
  }
  // Constrained optimum is the box corner.
  for (double x : opt.solution()) EXPECT_NEAR(x, 1.0, 1e-6);
}

TEST(Nesterov, EvalCountAccounting) {
  const std::size_t n = 8;
  auto q = makeQuadratic(n, 1.0, 6);
  NesterovOptimizer opt(
      n, [&](std::span<const double> x, std::span<double> g) { return q(x, g); });
  std::vector<double> v0(n, 0.0);
  opt.initialize(v0);
  EXPECT_EQ(opt.evalCount(), 2);  // v0 + bootstrap
  const auto info = opt.step();
  // Quadratic: prediction exact up to rounding, which the eps = 0.95 exit
  // absorbs, so the step costs exactly one evaluation.
  EXPECT_EQ(info.backtracks, 0);
  EXPECT_EQ(opt.evalCount(), 3);
}

/// 1-D objective whose gradient has slope 1 for x >= 1 and slope `s` below.
/// From x = 10 the first predicted step (alpha = 1) lands on x = 0, across
/// the kink, so the reference steplength is 10 / (10 + s - 1): the secant
/// curvature over the step rises by (s - 1) / 10.
GradFn kinkedSlope(double s) {
  return [s](std::span<const double> x, std::span<double> g) {
    const double v = x[0];
    if (v >= 1.0) {
      g[0] = v;
      return 0.5 * v * v;
    }
    g[0] = 1.0 + s * (v - 1.0);
    return 0.5 + (v - 1.0) + 0.5 * s * (v - 1.0) * (v - 1.0);
  };
}

TEST(Nesterov, StepStandsWhenReferenceIsWithinEps) {
  // Curvature up 3% across the step: alpha_ref = 0.971 alpha >= 0.95 alpha,
  // so the step stands. Up 10%: alpha_ref = 0.909 alpha, so the step is
  // re-taken at alpha_ref, whose own reference (0.990) is accepted.
  struct Case {
    double slope;
    int backtracks;
    double alpha;
  };
  for (const Case c : {Case{1.3, 0, 1.0}, Case{2.0, 1, 10.0 / 11.0}}) {
    NesterovOptimizer opt(1, kinkedSlope(c.slope));
    std::vector<double> v0{10.0};
    opt.initialize(v0);
    const auto info = opt.step();
    EXPECT_EQ(info.backtracks, c.backtracks) << "slope " << c.slope;
    EXPECT_NEAR(info.alpha, c.alpha, 1e-12) << "slope " << c.slope;
    EXPECT_EQ(opt.evalCount(), 3 + c.backtracks) << "slope " << c.slope;
  }
}

TEST(Cg, ConvergesOnQuadratic) {
  const std::size_t n = 40;
  auto q = makeQuadratic(n, 50.0, 7);
  CgOptimizer opt(
      n, [&](std::span<const double> x, std::span<double> g) { return q(x, g); });
  std::vector<double> v0(n, 0.0);
  opt.initialize(v0);
  double f = 0.0;
  for (int k = 0; k < 200; ++k) f = opt.step().objective;
  EXPECT_LT(f, 1e-6);
}

TEST(Cg, ConvergesOnRosenbrock) {
  auto rosen = [](std::span<const double> x, std::span<double> g) {
    const double a = x[0], b = x[1];
    g[0] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a);
    g[1] = 200.0 * (b - a * a);
    const double t1 = b - a * a, t2 = 1.0 - a;
    return 100.0 * t1 * t1 + t2 * t2;
  };
  CgOptimizer opt(2, rosen);
  std::vector<double> v0{-1.2, 1.0};
  opt.initialize(v0);
  double f = 1e9;
  for (int k = 0; k < 2000 && f > 1e-8; ++k) f = opt.step().objective;
  EXPECT_LT(f, 1e-6);
  EXPECT_NEAR(opt.solution()[0], 1.0, 1e-2);
  EXPECT_NEAR(opt.solution()[1], 1.0, 1e-2);
}

TEST(Cg, LineSearchTimeIsTracked) {
  const std::size_t n = 30;
  auto q = makeQuadratic(n, 100.0, 8);
  CgOptimizer opt(
      n, [&](std::span<const double> x, std::span<double> g) { return q(x, g); });
  std::vector<double> v0(n, 3.0);
  opt.initialize(v0);
  for (int k = 0; k < 50; ++k) opt.step();
  EXPECT_GT(opt.evalCount(), 50);  // line search costs extra evaluations
  EXPECT_GE(opt.lineSearchSeconds(), 0.0);
  EXPECT_GE(opt.totalSeconds(), opt.lineSearchSeconds());
}

TEST(Cg, MonotoneDecrease) {
  const std::size_t n = 20;
  auto q = makeQuadratic(n, 10.0, 9);
  CgOptimizer opt(
      n, [&](std::span<const double> x, std::span<double> g) { return q(x, g); });
  std::vector<double> v0(n, 2.0);
  opt.initialize(v0);
  double prev = 1e100;
  for (int k = 0; k < 40; ++k) {
    const double f = opt.step().objective;
    EXPECT_LE(f, prev + 1e-12);
    prev = f;
  }
}

}  // namespace
}  // namespace ep
