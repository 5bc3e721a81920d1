// FlowSupervisor: supervised == plain flow bit-exactness, crash-safe
// checkpoint/resume (a killed run continues the exact iteration
// trajectory), corrupt-snapshot fallback, and the per-stage retry /
// fallback paths under injected legalization and detail-placement faults.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eplace/flow.h"
#include "eplace/supervisor.h"
#include "gen/generator.h"
#include "util/context.h"
#include "util/fault_injector.h"
#include "wirelength/wl.h"

namespace ep {
namespace {

namespace fs = std::filesystem;

/// Thrown from the per-iteration trace hook to emulate a SIGKILL mid-stage:
/// the flow dies at an arbitrary iteration, leaving only what the durable
/// snapshots already captured.
struct KillSignal {};

PlacementDB stdInstance() {
  GenSpec spec;
  spec.name = "sup_std";
  spec.numCells = 300;
  spec.seed = 11;
  return generateCircuit(spec);
}

PlacementDB mixedInstance() {
  GenSpec spec;
  spec.name = "sup_mms";
  spec.numCells = 220;
  spec.numMovableMacros = 2;
  spec.seed = 7;
  return generateCircuit(spec);
}

struct TraceRec {
  std::string stage;
  int iter = 0;
  double hpwl = 0.0;
};

/// Flow config with a per-iteration trace sink and an optional emulated
/// kill point (stage + iteration).
FlowConfig traceConfig(std::vector<TraceRec>* out,
                       std::string killStage = "", int killIter = -1) {
  FlowConfig cfg;
  cfg.gp.maxIterations = 400;
  cfg.gpTrace = [out, killStage = std::move(killStage), killIter](
                    const std::string& stage, const GpIterTrace& it) {
    if (out != nullptr) out->push_back({stage, it.iter, it.hpwl});
    if (it.iter == killIter && stage == killStage) throw KillSignal{};
  };
  return cfg;
}

const StageReport* findStage(const SupervisorReport& rep, FlowStage s) {
  const StageReport* found = nullptr;
  for (const auto& r : rep.stages) {
    if (r.stage == s) found = &r;  // last row for the stage wins
  }
  return found;
}

void expectSamePositions(const PlacementDB& a, const PlacementDB& b) {
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].lx, b.objects[i].lx) << a.objects[i].name;
    EXPECT_EQ(a.objects[i].ly, b.objects[i].ly) << a.objects[i].name;
  }
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("supervisor_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string snapDir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(SupervisorTest, SupervisedMatchesPlainFlowBitExact) {
  const FlowConfig cfg = traceConfig(nullptr);
  PlacementDB plain = stdInstance();
  const auto refRun = runEplaceFlowChecked(plain, cfg);
  ASSERT_TRUE(refRun.ok());

  PlacementDB sup = stdInstance();
  SupervisorReport report;
  const auto supRun = runSupervisedFlow(sup, cfg, {}, &report);
  ASSERT_TRUE(supRun.ok());

  // The supervisor drives the same stage functions, so with no faults and
  // no retries the result must be identical down to the last bit.
  EXPECT_EQ(refRun->finalHpwl, supRun->finalHpwl);
  EXPECT_EQ(refRun->legality.legal, supRun->legality.legal);
  expectSamePositions(plain, sup);
  EXPECT_FALSE(report.resumed);
  ASSERT_EQ(report.stages.size(), 3u);  // mIP, mGP, cDP
  for (const auto& r : report.stages) {
    EXPECT_EQ(r.attempts, 1);
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.fellBack);
  }
  EXPECT_NE(report.summary().find("mGP"), std::string::npos);
}

TEST_F(SupervisorTest, KilledRunResumesBitExactMidMgp) {
  // Reference: uninterrupted supervised run, trajectory recorded.
  std::vector<TraceRec> refTrace;
  PlacementDB ref = stdInstance();
  const auto refRun = runSupervisedFlow(ref, traceConfig(&refTrace), {});
  ASSERT_TRUE(refRun.ok());

  // "Killed" run: snapshots every 7 iterations, process dies at mGP #23.
  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.saveEvery = 7;
  {
    PlacementDB killed = stdInstance();
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(killed, traceConfig(nullptr, "mGP", 23),
                                     supCfg);
          (void)r;
        },
        KillSignal);
  }
  ASSERT_FALSE(fs::is_empty(dir_));

  // Resume in a fresh process image (fresh DB from the same input).
  std::vector<TraceRec> resTrace;
  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = snapDir();
  PlacementDB resumed = stdInstance();
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(resumed, traceConfig(&resTrace), resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resumeStage, FlowStage::kMgp);
  EXPECT_EQ(report.snapshotsRejected, 0);

  // The resumed run restarts at an iteration-aligned snapshot strictly
  // before the kill point and replays the exact trajectory from there.
  ASSERT_FALSE(resTrace.empty());
  EXPECT_GT(resTrace.front().iter, 0);
  EXPECT_LE(resTrace.front().iter, 23);
  std::map<std::pair<std::string, int>, double> refByIter;
  for (const auto& t : refTrace) refByIter[{t.stage, t.iter}] = t.hpwl;
  for (const auto& t : resTrace) {
    const auto it = refByIter.find({t.stage, t.iter});
    ASSERT_NE(it, refByIter.end()) << t.stage << " #" << t.iter;
    EXPECT_EQ(it->second, t.hpwl) << t.stage << " #" << t.iter;
  }
  EXPECT_EQ(refRun->finalHpwl, resRun->finalHpwl);
  expectSamePositions(ref, resumed);
}

TEST_F(SupervisorTest, KilledRunResumesBitExactMidCgp) {
  std::vector<TraceRec> refTrace;
  PlacementDB ref = mixedInstance();
  const auto refRun = runSupervisedFlow(ref, traceConfig(&refTrace), {});
  ASSERT_TRUE(refRun.ok());

  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.saveEvery = 6;
  {
    PlacementDB killed = mixedInstance();
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(killed, traceConfig(nullptr, "cGP", 15),
                                     supCfg);
          (void)r;
        },
        KillSignal);
  }

  std::vector<TraceRec> resTrace;
  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = snapDir();
  PlacementDB resumed = mixedInstance();
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(resumed, traceConfig(&resTrace), resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resumeStage, FlowStage::kCgp);

  // Only cGP re-runs; mIP/mGP/mLG come from the snapshot.
  for (const auto& t : resTrace) EXPECT_EQ(t.stage, "cGP");
  std::map<int, double> refCgp;
  for (const auto& t : refTrace) {
    if (t.stage == "cGP") refCgp[t.iter] = t.hpwl;
  }
  for (const auto& t : resTrace) {
    const auto it = refCgp.find(t.iter);
    ASSERT_NE(it, refCgp.end()) << "cGP #" << t.iter;
    EXPECT_EQ(it->second, t.hpwl) << "cGP #" << t.iter;
  }
  EXPECT_EQ(refRun->finalHpwl, resRun->finalHpwl);
  // Acceptance bound from the issue: within 0.1% (bit-exact in practice).
  EXPECT_NEAR(resRun->finalHpwl, refRun->finalHpwl,
              1e-3 * refRun->finalHpwl);
  expectSamePositions(ref, resumed);
}

TEST_F(SupervisorTest, CorruptSnapshotsFallBackToPreviousGoodOne) {
  std::vector<TraceRec> refTrace;
  PlacementDB ref = stdInstance();
  const auto refRun = runSupervisedFlow(ref, traceConfig(&refTrace), {});
  ASSERT_TRUE(refRun.ok());

  SupervisorConfig supCfg;
  supCfg.snapshotDir = snapDir();
  supCfg.saveEvery = 7;
  supCfg.keepSnapshots = 8;
  {
    PlacementDB killed = stdInstance();
    EXPECT_THROW(
        {
          auto r = runSupervisedFlow(killed, traceConfig(nullptr, "mGP", 23),
                                     supCfg);
          (void)r;
        },
        KillSignal);
  }

  // Corrupt the two newest snapshots: bit-flip one, truncate the other.
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir_)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);
  {
    const auto mid = static_cast<std::streamoff>(fs::file_size(files.back()) / 2);
    std::fstream f(files.back(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(mid);
    char byte = 0;
    f.get(byte);
    f.seekp(mid);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  fs::resize_file(files[files.size() - 2],
                  fs::file_size(files[files.size() - 2]) / 3);

  SupervisorConfig resumeCfg = supCfg;
  resumeCfg.resumeDir = snapDir();
  PlacementDB resumed = stdInstance();
  SupervisorReport report;
  const auto resRun =
      runSupervisedFlow(resumed, traceConfig(nullptr), resumeCfg, &report);
  ASSERT_TRUE(resRun.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_GE(report.snapshotsRejected, 2);
  // The older good snapshot is iteration-aligned too, so the trajectory —
  // and therefore the final result — is still bit-exact.
  EXPECT_EQ(refRun->finalHpwl, resRun->finalHpwl);
  expectSamePositions(ref, resumed);
}

TEST_F(SupervisorTest, LegalizeFaultRetriesThenFallsBackToGreedy) {
  // Corrupt every Abacus legalization pass: the supervisor must retry,
  // then fall back to the greedy (Tetris-only) legalizer and still deliver
  // a legal placement with an OK typed status.
  RuntimeContext ctx;
  ctx.faults().arm(
      "legalize.displace",
      {FaultKind::kSpike, /*atTick=*/0, /*count=*/-1, /*magnitude=*/1e9});
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, traceConfig(nullptr), {}, &report, &ctx);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->status.ok()) << run->status.toString();
  EXPECT_TRUE(run->legality.legal) << run->legality.firstIssue;

  const StageReport* cdp = findStage(report, FlowStage::kCdp);
  ASSERT_NE(cdp, nullptr);
  EXPECT_TRUE(cdp->fellBack);
  EXPECT_GE(cdp->attempts, 3);  // two corrupted Abacus tries + greedy
  EXPECT_NE(cdp->note.find("greedy"), std::string::npos) << cdp->note;
}

TEST_F(SupervisorTest, DetailFaultRollsBackToLegalizedPlacement) {
  RuntimeContext ctx;
  ctx.faults().arm("detail.swap",
                   {FaultKind::kNaN, /*atTick=*/0, /*count=*/-1});
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, traceConfig(nullptr), {}, &report, &ctx);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->status.ok()) << run->status.toString();
  EXPECT_TRUE(run->legality.legal) << run->legality.firstIssue;

  const StageReport* cdp = findStage(report, FlowStage::kCdp);
  ASSERT_NE(cdp, nullptr);
  EXPECT_TRUE(cdp->fellBack);
  EXPECT_NE(cdp->note.find("detail"), std::string::npos) << cdp->note;
  // The deliverable is exactly the post-legalization placement.
  EXPECT_EQ(run->finalHpwl, run->legalizeResult.hpwlAfter);
  EXPECT_TRUE(std::isfinite(hpwl(db)));
}

TEST_F(SupervisorTest, CdpRollbackNamesTheFailedGateCheck) {
  // Persistent NaN gradients leave mGP on its iteration-0 checkpoint, a
  // clump that no legalizer spreads within the HPWL cap: cDP rolls back,
  // and its report row, status and log line say which check failed.
  RuntimeContext ctx;
  ctx.faults().arm("nesterov.grad",
                   {FaultKind::kNaN, /*atTick=*/30, /*count=*/-1});
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, traceConfig(nullptr), {}, &report, &ctx);
  ASSERT_TRUE(run.ok()) << run.status().toString();

  const StageReport* cdp = findStage(report, FlowStage::kCdp);
  ASSERT_NE(cdp, nullptr);
  EXPECT_FALSE(cdp->status.ok());
  EXPECT_NE(cdp->note.find("gate: HPWL"), std::string::npos) << cdp->note;
  EXPECT_NE(cdp->status.message().find("over 2x pre-legal"),
            std::string::npos)
      << cdp->status.toString();
}

TEST_F(SupervisorTest, RecordWallTimeIsTheSupervisorStageClock) {
  // Every gradient from pass 30 on is NaN: the first mGP attempt exhausts
  // its recovery budget, so the supervisor runs a second one. The record's
  // wall_ms must cover both attempts, exactly as the report row and the
  // finish event do.
  RuntimeContext ctx;
  ctx.faults().arm("nesterov.grad",
                   {FaultKind::kNaN, /*atTick=*/30, /*count=*/-1});
  std::map<FlowStage, double> finishSeconds;
  SupervisorConfig sup;
  sup.onProgress = [&](const SupervisorEvent& ev) {
    if (ev.kind == SupervisorEvent::Kind::kStageFinish) {
      finishSeconds[ev.stage] = ev.seconds;
    }
  };
  PlacementDB db = stdInstance();
  SupervisorReport report;
  const auto run =
      runSupervisedFlow(db, traceConfig(nullptr), sup, &report, &ctx);
  ASSERT_TRUE(run.ok()) << run.status().toString();

  const StageReport* mgp = findStage(report, FlowStage::kMgp);
  ASSERT_NE(mgp, nullptr);
  EXPECT_EQ(mgp->attempts, 2);

  const RunRecord rec = buildRunRecord(db, *run, &report, &ctx);
  ASSERT_EQ(rec.stages.size(), 5u);     // flat: one row per FlowStage
  ASSERT_EQ(report.stages.size(), 3u);  // mIP, mGP, cDP ran
  for (const StageReport& r : report.stages) {
    const StageRecord& row = rec.stages[static_cast<std::size_t>(r.stage)];
    ASSERT_EQ(finishSeconds.count(r.stage), 1u) << row.stage;
    EXPECT_EQ(row.wallMs, r.seconds * 1000.0) << row.stage;
    EXPECT_EQ(row.wallMs, finishSeconds[r.stage] * 1000.0) << row.stage;
  }
  // mGP's Fig. 7 split covers both attempts too, not just the last one.
  const TimeBreakdown& inner = run->mgpInner;
  EXPECT_GE(inner.get("density") + inner.get("wirelength") + inner.get("other"),
            0.5 * run->mgp.seconds);
}

}  // namespace
}  // namespace ep
