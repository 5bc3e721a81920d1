#include "qp/initial_place.h"

#include <algorithm>
#include <cmath>

#include "qp/b2b.h"
#include "qp/sparse.h"
#include "util/context.h"
#include "util/log.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Upper bound on B2B emissions per axis: a p-pin net makes 2p-3
/// connections of at most 4 entries each (addSpring), and the fallback
/// anchor adds one diagonal entry per variable.
std::size_t b2bEntryBound(const PlacementDB& db, std::size_t vars) {
  std::size_t entries = vars;
  for (const auto& net : db.nets) {
    if (net.pins.size() >= 2) entries += 4 * (2 * net.pins.size() - 3);
  }
  return entries;
}

}  // namespace

std::size_t mipWorkspaceBytes(const PlacementDB& db) {
  const std::size_t n = db.movable().size();
  if (n == 0) return 0;
  // Per emission: the COO entry plus its CSR column and value.
  constexpr std::size_t kEntryBytes =
      2 * sizeof(std::int32_t) + sizeof(double) + sizeof(std::int32_t) +
      sizeof(double);
  return b2bEntryBound(db, n) * kEntryBytes +
         (2 * n + 1) * sizeof(std::int32_t) +      // CSR start, column slots
         db.objects.size() * sizeof(std::int32_t) +  // objToVar
         3 * n * sizeof(double) +                  // x, y, rhs
         cgWorkspaceBytes(n);
}

InitialPlaceResult quadraticInitialPlace(PlacementDB& db,
                                         const InitialPlaceConfig& cfg,
                                         RuntimeContext* ctx) {
  RuntimeContext& rc = resolveContext(ctx);
  InitialPlaceResult result;
  result.hpwlBefore = hpwl(db);

  const auto& movable = db.movable();
  const auto n = static_cast<std::int32_t>(movable.size());
  if (n == 0) {
    result.hpwlAfter = result.hpwlBefore;
    return result;
  }

  // Charge before allocating. The assembly and CG buffers below live for
  // all 16 solves; after the first, CG allocates nothing and assembly only
  // when a system has more entries than any before it.
  const ScopedCharge charge =
      ScopedCharge::orThrow(rc.memory(), mipWorkspaceBytes(db));

  std::vector<std::int32_t> objToVar(db.objects.size(), -1);
  for (std::int32_t v = 0; v < n; ++v) {
    objToVar[static_cast<std::size_t>(movable[static_cast<std::size_t>(v)])] = v;
  }

  // Seed: region center plus deterministic jitter.
  const Point c = db.region.center();
  Rng rng(cfg.seed);
  std::vector<double> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n));
  const double jx = cfg.seedJitter * db.region.width();
  const double jy = cfg.seedJitter * db.region.height();
  for (std::int32_t v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = c.x + rng.uniform(-jx, jx);
    y[static_cast<std::size_t>(v)] = c.y + rng.uniform(-jy, jy);
  }

  bool hasFixedPin = false;
  for (const auto& net : db.nets) {
    for (const auto& pin : net.pins) {
      if (db.objects[static_cast<std::size_t>(pin.obj)].fixed) {
        hasFixedPin = true;
        break;
      }
    }
    if (hasFixedPin) break;
  }

  CooBuilder builder(n);
  Csr A;
  std::vector<double> rhs(static_cast<std::size_t>(n));
  CgWorkspace ws;

  auto solveAxis = [&](Axis axis, std::vector<double>& pos) {
    builder.clear();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    buildB2B(db, axis, objToVar, pos, builder, rhs);
    if (!hasFixedPin) {
      const double anchorPos = (axis == Axis::kX) ? c.x : c.y;
      for (std::int32_t v = 0; v < n; ++v) {
        builder.addDiag(v, cfg.fallbackAnchor);
        rhs[static_cast<std::size_t>(v)] += cfg.fallbackAnchor * anchorPos;
      }
    }
    builder.buildInto(A);
    const CgResult cg = cgSolve(A, rhs, pos, cfg.cgMaxIterations,
                                cfg.cgTolerance, &rc.pool(), &ws);
    result.totalCgIterations += cg.iterations;
  };

  for (int it = 0; it < cfg.outerIterations; ++it) {
    solveAxis(Axis::kX, x);
    solveAxis(Axis::kY, y);
  }

  // Write back, clamping centers so every object stays inside the region.
  // (Objects larger than the region — not seen in practice — sit centered.)
  auto clampOrMid = [](double v, double lo, double hi) {
    return lo > hi ? 0.5 * (lo + hi) : std::clamp(v, lo, hi);
  };
  for (std::int32_t v = 0; v < n; ++v) {
    auto& o = db.objects[static_cast<std::size_t>(
        movable[static_cast<std::size_t>(v)])];
    const double cx =
        clampOrMid(x[static_cast<std::size_t>(v)], db.region.lx + o.w * 0.5,
                   db.region.hx - o.w * 0.5);
    const double cy =
        clampOrMid(y[static_cast<std::size_t>(v)], db.region.ly + o.h * 0.5,
                   db.region.hy - o.h * 0.5);
    o.setCenter(cx, cy);
  }

  result.hpwlAfter = hpwl(db);
  rc.log().info("mIP: HPWL %.4g -> %.4g (%d CG iterations)",
                result.hpwlBefore, result.hpwlAfter,
                result.totalCgIterations);
  return result;
}

}  // namespace ep
