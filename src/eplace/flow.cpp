#include "eplace/flow.h"

#include <cmath>

#include "util/context.h"
#include "util/log.h"
#include "wirelength/wl.h"

namespace ep {

StageMetrics flowStageMetrics(const PlacementDB& db, double seconds,
                              int iterations) {
  StageMetrics m;
  m.hpwl = hpwl(db);
  m.overflow = densityOverflow(db).overflow;
  m.seconds = seconds;
  m.iterations = iterations;
  m.ran = true;
  return m;
}

namespace {

/// Filler-only iterations before cGP (Sec. VI-B).
constexpr int kFillerOnlyIterations = 20;
/// cGP rewinds lambda by 1.1^-m with m = mGP iterations / 10 (Sec. VI-B).
constexpr int kCgpBufferDivisor = 10;

}  // namespace

void flowStageMip(PlacementDB& db, FlowState& st) {
  Timer t;
  quadraticInitialPlace(db, st.cfg.ip, st.ctx);
  st.res.mip = flowStageMetrics(db, t.seconds(), st.cfg.ip.outerIterations);
}

void flowStageMgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl) {
  Timer t;
  GlobalPlacer mgp(db, db.movable(), st.cfg.gp, st.ctx);
  if (ctl.resume != nullptr && st.fillers.size() > 0) {
    // Resumed mid-mGP: the checkpoint carries the filler set (positions are
    // inside the optimizer state; dims/count must match the engine).
    mgp.setFillers(st.fillers);
  } else {
    mgp.makeFillersFromDb();
    // Publish the set before run(): mid-stage save hooks serialize
    // st.fillers, and a resume needs matching filler dims/count.
    st.fillers = mgp.fillers();
  }
  GlobalPlacer::TraceFn trace;
  if (st.cfg.gpTrace) {
    trace = [&st](const GpIterTrace& it) { st.cfg.gpTrace("mGP", it); };
  }
  st.res.mgpResult = mgp.run(trace, ctl);
  st.fillers = mgp.fillers();
  // Accumulated, not assigned: a supervised retry calls this once per
  // attempt, and the split must cover every attempt the stage clock does.
  const double stageTotal = t.seconds();
  const double density = mgp.breakdown().get("density");
  const double wirelength = mgp.breakdown().get("wirelength");
  st.res.mgpInner.add("density", density);
  st.res.mgpInner.add("wirelength", wirelength);
  st.res.mgpInner.add("other", stageTotal - density - wirelength);
  st.res.mgp = flowStageMetrics(db, stageTotal, st.res.mgpResult.iterations);
}

void flowStageMlg(PlacementDB& db, FlowState& st) {
  Timer t;
  st.res.mlgResult = legalizeMacros(db, st.cfg.mlg, st.ctx);
  st.res.mlg =
      flowStageMetrics(db, t.seconds(), st.res.mlgResult.outerIterations);
}

void flowFreezeMacros(PlacementDB& db) {
  for (auto& o : db.objects) {
    if (o.kind == ObjKind::kMacro) o.fixed = true;
  }
  db.finalize();
}

void flowStageCgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl) {
  Timer t;
  GpConfig gpc = st.cfg.gp;
  const int m = std::max(1, st.res.mgpResult.iterations / kCgpBufferDivisor);
  gpc.initialLambda = st.res.mgpResult.finalLambda *
                      std::pow(kLambdaMultMax, -static_cast<double>(m));
  GlobalPlacer cgp(db, db.movable(), gpc, st.ctx);
  cgp.setFillers(st.fillers);
  if (st.cfg.enableFillerOnly && ctl.resume == nullptr) {
    cgp.runFillerOnly(kFillerOnlyIterations);
  }
  GlobalPlacer::TraceFn trace;
  if (st.cfg.gpTrace) {
    trace = [&st](const GpIterTrace& it) { st.cfg.gpTrace("cGP", it); };
  }
  st.res.cgpResult = cgp.run(trace, ctl);
  st.fillers = cgp.fillers();
  st.res.cgp = flowStageMetrics(db, t.seconds(), st.res.cgpResult.iterations);
}

void flowStageCdp(PlacementDB& db, FlowState& st) {
  Timer t;
  st.res.legalizeResult = legalizeCells(db, st.ctx);
  st.res.detailResult = detailPlace(db, st.cfg.detail, st.ctx);
  st.res.cdp = flowStageMetrics(db, t.seconds(), st.res.detailResult.passes);
}

void flowFinish(PlacementDB& db, FlowState& st) {
  FlowResult& res = st.res;
  res.finalHpwl = hpwl(db);
  res.finalScaledHpwl = scaledHpwl(db);
  res.legality = checkLegality(db);
  res.totalSeconds = st.total.seconds();
  // First failing placement stage wins; later stages ran on its
  // best-checkpoint placement, so their metrics are still meaningful.
  if (res.status.ok()) {
    if (!res.mgpResult.status.ok()) {
      res.status = res.mgpResult.status;
    } else if (!res.cgpResult.status.ok()) {
      res.status = res.cgpResult.status;
    }
  }
  resolveContext(st.ctx).log().info(
      "flow done: HPWL %.4g (scaled %.4g), legal=%d, status=%s, %.2fs",
      res.finalHpwl, res.finalScaledHpwl, res.legality.legal ? 1 : 0,
      statusCodeName(res.status.code()), res.totalSeconds);
}

FlowResult runEplaceFlow(PlacementDB& db, const FlowConfig& cfg,
                         RuntimeContext* ctx) {
  FlowState st;
  st.cfg = cfg;
  st.ctx = ctx;

  flowStageMip(db, st);
  st.mixedSize = db.numMovableMacros() > 0;
  flowStageMgp(db, st);
  if (st.mixedSize) {
    flowStageMlg(db, st);
    flowFreezeMacros(db);
    flowStageCgp(db, st);
  }
  if (cfg.runDetail) flowStageCdp(db, st);
  flowFinish(db, st);
  return st.res;
}

StatusOr<FlowResult> runFlowChecked(PlacementDB& db, RuntimeContext* ctx,
                                    const std::function<FlowResult()>& place) {
  int repaired = 0;
  const Status s = db.sanitize(&repaired);
  if (!s.ok()) return s;
  if (repaired > 0) {
    resolveContext(ctx).log().warn(
        "flow: sanitize repaired %d object position(s)", repaired);
  }
  const Status v = db.validate();
  if (!v.ok()) return v;
  // Exception boundary: a throwing hot-path task (e.g. a worker on the
  // thread pool, see ThreadPool) surfaces here as a typed status instead of
  // std::terminate-ing the process; a memory-budget breach the stages did
  // not absorb (mIP's charge, arena growth, legalizer scratch) as
  // kResourceExhausted.
  try {
    return place();
  } catch (const MemoryBudgetExceeded& e) {
    return Status::resourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::internal(std::string("flow aborted by exception: ") +
                            e.what());
  }
}

StatusOr<FlowResult> runEplaceFlowChecked(PlacementDB& db,
                                          const FlowConfig& cfg,
                                          RuntimeContext* ctx) {
  return runFlowChecked(db, ctx, [&] { return runEplaceFlow(db, cfg, ctx); });
}

}  // namespace ep
