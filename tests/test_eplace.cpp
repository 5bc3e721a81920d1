#include <gtest/gtest.h>

#include "eplace/filler.h"
#include "eplace/flow.h"
#include "eplace/global_placer.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "qp/initial_place.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

PlacementDB circuit(std::uint64_t seed, std::size_t cells = 500,
                    std::size_t macros = 0, double rhoT = 1.0) {
  GenSpec spec;
  spec.name = "ep";
  spec.numCells = cells;
  spec.numMovableMacros = macros;
  spec.targetDensity = rhoT;
  spec.utilization = rhoT < 1.0 ? 0.45 * rhoT / 0.5 : 0.7;
  spec.seed = seed;
  return generateCircuit(spec);
}

TEST(Fillers, BudgetMatchesWhitespace) {
  const PlacementDB db = circuit(1);
  const FillerSet f = makeFillers(db, 7);
  const double budget = db.targetDensity * db.freeArea() - db.totalMovableArea();
  EXPECT_GT(f.size(), 0u);
  EXPECT_LE(f.totalArea(), budget + 1e-9);
  EXPECT_GT(f.totalArea(), 0.8 * budget);  // within one filler of the budget
}

TEST(Fillers, InsideRegion) {
  const PlacementDB db = circuit(2);
  const FillerSet f = makeFillers(db, 8);
  for (std::size_t k = 0; k < f.size(); ++k) {
    EXPECT_GE(f.cx[k] - f.w * 0.5, db.region.lx - 1e-9);
    EXPECT_LE(f.cx[k] + f.w * 0.5, db.region.hx + 1e-9);
    EXPECT_GE(f.cy[k] - f.h * 0.5, db.region.ly - 1e-9);
    EXPECT_LE(f.cy[k] + f.h * 0.5, db.region.hy + 1e-9);
  }
}

TEST(Fillers, DeterministicPerSeed) {
  const PlacementDB db = circuit(3);
  const FillerSet a = makeFillers(db, 9);
  const FillerSet b = makeFillers(db, 9);
  const FillerSet c = makeFillers(db, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.cx[k], b.cx[k]);
  }
  bool differs = false;
  for (std::size_t k = 0; k < std::min(a.size(), c.size()); ++k) {
    if (a.cx[k] != c.cx[k]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Fillers, NoBudgetNoFillers) {
  PlacementDB db = circuit(4);
  db.targetDensity = 0.05;  // below utilization: nothing left for fillers
  const FillerSet f = makeFillers(db, 11);
  EXPECT_EQ(f.size(), 0u);
}

GpResult runGp(PlacementDB& db, GpConfig cfg = {},
               GlobalPlacer::TraceFn trace = {}) {
  quadraticInitialPlace(db);
  GlobalPlacer gp(db, db.movable(), cfg);
  gp.makeFillersFromDb();
  return gp.run(std::move(trace));
}

TEST(GlobalPlacer, ConvergesToTargetOverflow) {
  PlacementDB db = circuit(5);
  const GpResult res = runGp(db);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.finalOverflow, 0.1 + 1e-6);
  EXPECT_LT(res.iterations, 1500);
  // Exact-footprint overflow on the DB agrees with the placer's number.
  EXPECT_NEAR(densityOverflow(db).overflow, res.finalOverflow, 0.05);
}

TEST(GlobalPlacer, OverflowDecreasesOverall) {
  PlacementDB db = circuit(6);
  std::vector<double> taus;
  runGp(db, {}, [&](const GpIterTrace& t) { taus.push_back(t.overflow); });
  ASSERT_GT(taus.size(), 50u);
  // Monotone in the large: final << initial, and the tail is below the head.
  EXPECT_LT(taus.back(), 0.11);
  EXPECT_GT(taus.front(), 0.5);
  EXPECT_LT(taus[taus.size() / 2], taus.front());
}

TEST(GlobalPlacer, Deterministic) {
  PlacementDB a = circuit(7);
  PlacementDB b = circuit(7);
  runGp(a);
  runGp(b);
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.objects[i].lx, b.objects[i].lx);
    EXPECT_DOUBLE_EQ(a.objects[i].ly, b.objects[i].ly);
  }
}

TEST(GlobalPlacer, CellsStayInRegion) {
  PlacementDB db = circuit(8);
  runGp(db);
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    EXPECT_TRUE(db.region.expanded(1e-6).contains(o.rect())) << o.name;
  }
}

TEST(GlobalPlacer, RespectsLowTargetDensity) {
  PlacementDB db = circuit(9, 500, 0, 0.5);
  const GpResult res = runGp(db);
  EXPECT_TRUE(res.converged);
  // Peak overflow-bin density should sit near the 0.5 cap, far below the
  // piled-up extreme (values slightly above rho_t are quantization).
  EXPECT_LT(densityOverflow(db).maxDensity, 0.9);
}

TEST(GlobalPlacer, TraceIsInvokedEveryIteration) {
  PlacementDB db = circuit(10, 300);
  int count = 0;
  const GpResult res = runGp(db, {}, [&](const GpIterTrace&) { ++count; });
  EXPECT_EQ(count, res.iterations);
}

TEST(GlobalPlacer, ScheduleDynamicsAreHealthy) {
  // The bring-up signature of a working mGP (docs/ALGORITHM.md §3): lambda
  // grows overall, gamma shrinks with the overflow, steplengths stay
  // positive and finite, and backtracks stay rare.
  PlacementDB db = circuit(20, 400);
  std::vector<GpIterTrace> trace;
  runGp(db, {}, [&](const GpIterTrace& t) { trace.push_back(t); });
  ASSERT_GT(trace.size(), 30u);
  EXPECT_GT(trace.back().lambda, trace.front().lambda);
  EXPECT_LT(trace.back().gamma, trace.front().gamma);
  long btTotal = 0;
  for (const auto& t : trace) {
    EXPECT_GT(t.alpha, 0.0);
    EXPECT_TRUE(std::isfinite(t.alpha));
    EXPECT_TRUE(std::isfinite(t.hpwl));
    EXPECT_GE(t.energy, 0.0);
    btTotal += t.backtracks;
  }
  EXPECT_LT(btTotal, 2 * static_cast<long>(trace.size()));
  // Energy at the end is far below the start (spreading happened).
  EXPECT_LT(trace.back().energy, 0.2 * trace.front().energy);
}

TEST(GlobalPlacer, DisablingPreconditionerHurts) {
  // Sec. V-D: without the preconditioner, macro gradients dwarf cell
  // gradients and mixed-size placement fails to converge (or badly lags).
  GenSpec spec;
  spec.name = "precond";
  spec.numCells = 400;
  spec.numMovableMacros = 3;
  spec.macroAreaFraction = 0.5;  // few huge macros: worst case for scaling
  spec.seed = 11;
  PlacementDB withP = generateCircuit(spec);
  PlacementDB withoutP = generateCircuit(spec);
  GpConfig cfg;
  cfg.maxIterations = 800;
  const GpResult rp = runGp(withP, cfg);
  GpConfig cfgNo = cfg;
  cfgNo.enablePreconditioner = false;
  const GpResult rn = runGp(withoutP, cfgNo);
  EXPECT_TRUE(rp.converged);
  // At full MMS scale (macros ~1000x cell area) the paper reports outright
  // divergence; at this scaled-down ratio the gap is consistent but
  // smaller — bench_ablation_precond reports the measured numbers.
  const bool failed = !rn.converged;
  const bool slower = rn.iterations > 2 * rp.iterations;
  const bool worse = rn.finalHpwl > 1.01 * rp.finalHpwl;
  EXPECT_TRUE(failed || worse || slower)
      << "precond: " << rp.iterations << " iters, HPWL " << rp.finalHpwl
      << "; unpreconditioned: " << rn.iterations << " iters, HPWL "
      << rn.finalHpwl;
}

TEST(GlobalPlacer, BacktracksAreRare) {
  // Paper Sec. V-C: ~1.04 gradient evaluations per iteration, i.e. few
  // backtracks once steps within eps = 0.95 of the reference stand.
  PlacementDB db = circuit(12, 400);
  const GpResult res = runGp(db);
  EXPECT_LT(static_cast<double>(res.backtracks),
            0.75 * static_cast<double>(res.iterations));
}

TEST(GlobalPlacer, FillerOnlyMovesOnlyFillers) {
  PlacementDB db = circuit(13, 300, 4);
  quadraticInitialPlace(db);
  GlobalPlacer gp(db, db.movable(), {});
  gp.makeFillersFromDb();
  const auto before = db.objects;
  const FillerSet fBefore = gp.fillers();
  gp.runFillerOnly(10);
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(db.objects[i].lx, before[i].lx);
  }
  bool fillersMoved = false;
  for (std::size_t k = 0; k < fBefore.size(); ++k) {
    if (gp.fillers().cx[k] != fBefore.cx[k]) fillersMoved = true;
  }
  EXPECT_TRUE(fillersMoved);
}

TEST(Flow, StdCellFlowIsLegalAndConverged) {
  PlacementDB db = circuit(14, 600);
  const FlowResult res = runEplaceFlow(db);
  EXPECT_TRUE(res.mgpResult.converged);
  EXPECT_FALSE(res.mlg.ran);  // no movable macros -> mLG/cGP skipped
  EXPECT_FALSE(res.cgp.ran);
  EXPECT_TRUE(res.legality.legal) << res.legality.firstIssue;
  EXPECT_GT(res.finalHpwl, 0.0);
}

TEST(Flow, MixedSizeFlowRunsAllStages) {
  PlacementDB db = circuit(15, 500, 6);
  const FlowResult res = runEplaceFlow(db);
  EXPECT_TRUE(res.mip.ran);
  EXPECT_TRUE(res.mgp.ran);
  EXPECT_TRUE(res.mlg.ran);
  EXPECT_TRUE(res.cgp.ran);
  EXPECT_TRUE(res.cdp.ran);
  EXPECT_TRUE(res.mlgResult.legal);
  EXPECT_TRUE(res.legality.legal) << res.legality.firstIssue;
  // Macros frozen after mLG.
  for (const auto& o : db.objects) {
    if (o.kind == ObjKind::kMacro) EXPECT_TRUE(o.fixed);
  }
}

TEST(Flow, CgpLambdaIsRewound) {
  PlacementDB db = circuit(16, 400, 5);
  const FlowResult res = runEplaceFlow(db);
  // cGP starts from lambda_mGP * 1.1^-m; by the end it must have grown back
  // but the recorded rewind means cGP ran with a real schedule. Check the
  // stage actually iterated and converged.
  EXPECT_GT(res.cgpResult.iterations, 5);
  EXPECT_LE(res.cgpResult.finalOverflow, 0.12);
}

TEST(Flow, TraceSeesStages) {
  PlacementDB db = circuit(17, 400, 4);
  FlowConfig cfg;
  bool sawMgp = false, sawCgp = false;
  cfg.gpTrace = [&](const std::string& stage, const GpIterTrace&) {
    if (stage == "mGP") sawMgp = true;
    if (stage == "cGP") sawCgp = true;
  };
  runEplaceFlow(db, cfg);
  EXPECT_TRUE(sawMgp);
  EXPECT_TRUE(sawCgp);
}

TEST(Flow, StageTimesAreRecorded) {
  PlacementDB db = circuit(18, 300);
  const FlowResult res = runEplaceFlow(db);
  EXPECT_GT(res.mgp.seconds, 0.0);
  EXPECT_GT(res.cdp.seconds, 0.0);
  EXPECT_GT(res.mgpInner.get("density"), 0.0);
  EXPECT_GT(res.mgpInner.get("wirelength"), 0.0);
  EXPECT_LE(res.mgpInner.get("density") + res.mgpInner.get("wirelength"),
            res.mgp.seconds);
}

TEST(Flow, DisablingFillerOnlyStillLegal) {
  PlacementDB db = circuit(19, 400, 4);
  FlowConfig cfg;
  cfg.enableFillerOnly = false;
  const FlowResult res = runEplaceFlow(db, cfg);
  EXPECT_TRUE(res.legality.legal) << res.legality.firstIssue;
}

}  // namespace
}  // namespace ep
