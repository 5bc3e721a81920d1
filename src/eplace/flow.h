// The complete ePlace flow (Fig. 1 of the paper):
//
//   mIP  quadratic wirelength-only initial placement
//   mGP  mixed-size global placement (Nesterov + eDensity, all movables +
//        fillers)
//   mLG  annealing macro legalization (mixed-size designs only)
//   cGP  standard-cell global placement with macros fixed: filler-only
//        redistribution, lambda rewound by 1.1^-m, then the same engine
//   cDP  legalization + detail placement of standard cells
//
// Standard-cell designs (no movable macros) skip mLG and cGP, exactly as
// the paper runs ISPD 2005/2006 ("with mLG and cGP disabled").
#pragma once

#include <functional>
#include <string>

#include "eplace/global_placer.h"
#include "eval/metrics.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "legal/mlg.h"
#include "model/netlist.h"
#include "qp/initial_place.h"
#include "util/status.h"
#include "util/timer.h"

namespace ep {

class RuntimeContext;

struct FlowConfig {
  InitialPlaceConfig ip;
  GpConfig gp;  ///< used by mGP and (with rewound lambda) cGP
  MlgConfig mlg;
  DetailConfig detail;
  bool enableFillerOnly = true;  ///< Sec. VI-B ablation switch
  bool runDetail = true;
  /// Per-iteration hook for the global placement stages; `stage` is "mGP"
  /// or "cGP" (the filler-only prelude moves no real objects and is not
  /// traced). The DB holds live positions during the call.
  std::function<void(const std::string& stage, const GpIterTrace&)> gpTrace;
};

/// One stage's record row and Fig. 7 share. Under the supervisor, `seconds`
/// is the supervisor's stage clock, covering every attempt.
struct StageMetrics {
  double hpwl = 0.0;
  double overflow = 0.0;
  double seconds = 0.0;
  int iterations = 0;
  bool ran = false;
};

/// One coarse level of the multilevel V-cycle (supervised flow only):
/// "mGP@L<level>" rows in the run record. Level indices count down toward
/// the flat netlist — the coarsest level has the highest index, level 0 is
/// the last clustered level before flat mGP refinement.
struct LevelMetrics {
  int level = 0;
  std::size_t clusters = 0;  ///< movable objects in the clustered instance
  StageMetrics metrics;
};

struct FlowResult {
  StageMetrics mip, mgp, mlg, cgp, cdp;
  /// Coarse V-cycle levels run before flat mGP, coarsest first. Empty for
  /// flat (non-multilevel) runs, so existing records are unchanged.
  std::vector<LevelMetrics> mgpLevels;
  double finalHpwl = 0.0;
  double finalScaledHpwl = 0.0;
  LegalityReport legality;
  GpResult mgpResult, cgpResult;
  MlgResult mlgResult;
  LegalizeResult legalizeResult;
  DetailResult detailResult;
  /// "density"/"wirelength"/"other" (Fig. 7), summed over mGP attempts.
  TimeBreakdown mgpInner;
  double totalSeconds = 0.0;
  /// OK for a clean run. kNumericalDivergence / kTimeout when a placement
  /// stage degraded gracefully (the first failing stage wins); the result
  /// then holds that stage's best-checkpoint placement, finite and inside
  /// the region, carried through the remaining stages.
  Status status;
};

/// Runs the flow on `db` in place and returns every stage's metrics.
/// Mixed-size behaviour (mLG + cGP) activates automatically when the design
/// has movable macros. The mGP filler set is reused by cGP per the paper.
/// Assumes a valid, finalized db (see runEplaceFlowChecked for the
/// validating entry point); degradation status is in FlowResult::status.
/// `ctx` supplies the thread pool, fault injector, log sink and deadline
/// for every stage; nullptr uses the process-default context.
FlowResult runEplaceFlow(PlacementDB& db, const FlowConfig& cfg = {},
                         RuntimeContext* ctx = nullptr);

/// Validating entry point: sanitizes the instance (clamping stranded fixed
/// pads, recentering non-finite movables), validates it, then runs the
/// flow. Returns kInvalidInput without placing anything when the instance
/// is structurally unusable; otherwise the FlowResult (whose `status`
/// reports any in-flight degradation, see above).
StatusOr<FlowResult> runEplaceFlowChecked(PlacementDB& db,
                                          const FlowConfig& cfg = {},
                                          RuntimeContext* ctx = nullptr);

// ---------------------------------------------------------------------------
// Stage-level decomposition. runEplaceFlow drives these in order; the
// FlowSupervisor (eplace/supervisor.h) drives the same functions but wraps
// each call with wall-clock budgets, bounded retries, fallbacks, and
// inter-stage invariant gates, and threads GpRunControl through the GP
// stages for durable checkpoint/resume. Keeping one implementation per
// stage guarantees the supervised flow cannot drift from the plain one.
// ---------------------------------------------------------------------------

/// Mutable state threaded through the stage functions. `ctx` is borrowed
/// (never owned) and may be nullptr, meaning the process-default context.
struct FlowState {
  FlowConfig cfg;
  FlowResult res;
  FillerSet fillers;  ///< mGP filler set, reused by cGP (Sec. VI-B)
  bool mixedSize = false;
  RuntimeContext* ctx = nullptr;
  Timer total;
};

/// Metrics snapshot of the current DB state, as recorded per stage.
StageMetrics flowStageMetrics(const PlacementDB& db, double seconds,
                              int iterations);

void flowStageMip(PlacementDB& db, FlowState& st);
void flowStageMgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl = {});
void flowStageMlg(PlacementDB& db, FlowState& st);
/// Freezes movable macros (mLG's output) for the rest of the flow.
void flowFreezeMacros(PlacementDB& db);
void flowStageCgp(PlacementDB& db, FlowState& st, const GpRunControl& ctl = {});
void flowStageCdp(PlacementDB& db, FlowState& st);
/// Final metrics / legality / status aggregation plus the summary log line.
void flowFinish(PlacementDB& db, FlowState& st);

/// The boundary of runEplaceFlowChecked and runSupervisedFlow: sanitize,
/// validate, then `place`, with an escaping exception turned into a status.
StatusOr<FlowResult> runFlowChecked(PlacementDB& db, RuntimeContext* ctx,
                                    const std::function<FlowResult()>& place);

}  // namespace ep
