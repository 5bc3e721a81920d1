// Measurement program behind perfbench/run.py. Each subcommand does one job
// and prints one JSON line on stdout; run.py runs one process per placement
// so every placement's CPU time and peak RSS are its own.
//
//   placer_bench info  --workload W
//       build stamp (compiler, build type, EP_MARCH, ISA) and the workload's
//       thread count
//   placer_bench gen   --workload W --seed N --out DIR [--scale F]
//       writes the workload's generated design as Bookshelf files into DIR
//       and prints the .aux path
//   placer_bench place --workload W --aux PATH [--scale F] [--overlap-cell]
//       loads the design kSetupLoads times (setup samples), places it once
//       untraced
//       through PlacerSession and applies the correctness gate
//   placer_bench trace --workload W --aux PATH [--scale F]
//       one traced placement: stage walls from outside the flow, then
//       per-call replays of the layers' public kernels on a second copy of
//       the instance (see README.md for every metric)
//
// --scale shrinks the generated design (the benchmark's own test runs at
// 0.1); --overlap-cell moves one placed cell onto another before the gate,
// so the test can check that the gate fails such a placement.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bookshelf/bookshelf.h"
#include "cluster/cluster.h"
#include "density/electro.h"
#include "eplace/filler.h"
#include "eplace/flow.h"
#include "eplace/session.h"
#include "eplace/supervisor.h"
#include "eval/metrics.h"
#include "fft/poisson.h"
#include "gen/generator.h"
#include "gen/suites.h"
#include "legal/detail.h"
#include "legal/legalize.h"
#include "qp/initial_place.h"
#include "util/context.h"
#include "util/jsonlite.h"
#include "util/memory_budget.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "wirelength/wl.h"

namespace {

using namespace ep;

// --- workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  int threads;
  /// Supervised flow with the multilevel V-cycle; otherwise the plain
  /// checked flow (mIP -> mGP [-> mLG -> cGP] -> cDP).
  bool multilevel;
};

// Why each workload exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"stdcell_flat", 1, false},
    {"mixed_size", 4, false},
    {"vcycle_50k", 4, true},
};

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      std::llround(static_cast<double>(n) *
                                                   scale)));
}

GenSpec workloadSpec(const Workload& wl, std::uint64_t seed, double scale) {
  GenSpec s;
  const std::string name = wl.name;
  if (name == "stdcell_flat") {
    s = suiteSpec("scale_10k");
  } else if (name == "vcycle_50k") {
    s = suiteSpec("scale_50k");
  } else {
    // MMS statistics (src/gen/suites.cpp mmsSuite) at 20k cells.
    s.numCells = 20000;
    s.numMovableMacros = 60;
    s.macroAreaFraction = 0.30;
    s.numFixedMacros = 0;
    s.numIo = 128;
    s.targetDensity = 1.0;
    s.utilization = 0.55;
  }
  s.name = name;
  s.numCells = scaled(s.numCells, scale);
  s.seed = seed;
  return s;
}

SessionOptions sessionOptions(const Workload& wl, double scale) {
  SessionOptions so;
  so.name = wl.name;
  so.threads = wl.threads;
  so.logLevel = LogLevel::kError;
  so.supervised = wl.multilevel;
  if (wl.multilevel) {
    so.sup.multilevel.enabled = true;
    // Keep the V-cycle engaged, with the same ladder shape, when the test
    // shrinks the design.
    so.sup.multilevel.minMovable =
        scaled(so.sup.multilevel.minMovable, scale);
    so.sup.multilevel.cluster.minMovable =
        scaled(so.sup.multilevel.cluster.minMovable, scale);
  }
  return so;
}

// --- small helpers ------------------------------------------------------------

struct Usage {
  double cpuSeconds = 0.0;  ///< user + system, all threads of the process
  double maxRssMb = 0.0;    ///< this program image's resident high-water mark
};

/// VmHWM of /proc/self/status. Unlike getrusage's ru_maxrss, it starts over
/// at exec, so it does not carry over the peak of the parent process that
/// forked this one.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

Usage usageNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                            ru.ru_stime.tv_usec);
  u.maxRssMb = peakRssMb();
  return u;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string hexBits(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, std::bit_cast<std::uint64_t>(d));
  return buf;
}

void printJson(const JsonValue& v) { std::printf("%s\n", writeJson(v).c_str()); }

/// The fields every placement result carries; NaN HPWL prints as null.
JsonValue placementJson(const std::string& why, double placeSeconds,
                        double finalHpwl) {
  JsonValue o = JsonValue::object();
  o.set("ok", JsonValue::boolean(why.empty()));
  o.set("why", JsonValue::str(why));
  o.set("place_s", JsonValue::number(placeSeconds));
  o.set("hpwl", JsonValue::number(finalHpwl));
  o.set("hpwl_bits", JsonValue::str(hexBits(finalHpwl)));
  return o;
}

std::vector<double> capturePositions(const PlacementDB& db) {
  std::vector<double> pos;
  pos.reserve(2 * db.objects.size());
  for (const Object& o : db.objects) {
    pos.push_back(o.lx);
    pos.push_back(o.ly);
  }
  return pos;
}

void applyPositions(PlacementDB& db, const std::vector<double>& pos) {
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    db.objects[i].lx = pos[2 * i];
    db.objects[i].ly = pos[2 * i + 1];
  }
}

// --- correctness gate ---------------------------------------------------------

/// Empty when the placement passes; otherwise why it failed. The HPWL
/// determinism check across runs lives in run.py, which sees every run.
std::string gateFailure(const PlacementDB& db,
                        const StatusOr<FlowResult>& run,
                        const SupervisorReport* report) {
  if (!run.ok()) return "flow failed: " + run.status().toString();
  if (!run->status.ok()) return "flow degraded: " + run->status.toString();
  if (report != nullptr) {
    for (const StageReport& s : report->stages) {
      if (s.fellBack) {
        return std::string("stage ") + flowStageName(s.stage) +
               " fell back: " + s.note;
      }
    }
  }
  const LegalityReport legal = checkLegality(db);
  if (!legal.legal) return "placement not legal: " + legal.firstIssue;
  if (!std::isfinite(run->finalHpwl)) return "final HPWL is not finite";
  return "";
}

/// Test hook: moves the first movable standard cell onto the second.
void overlapOneCell(PlacementDB& db) {
  std::vector<std::int32_t> cells;
  for (const std::int32_t id : db.movable()) {
    if (db.objects[static_cast<std::size_t>(id)].kind == ObjKind::kStdCell) {
      cells.push_back(id);
      if (cells.size() == 2) break;
    }
  }
  if (cells.size() < 2) return;
  Object& a = db.objects[static_cast<std::size_t>(cells[0])];
  const Object& b = db.objects[static_cast<std::size_t>(cells[1])];
  a.lx = b.lx;
  a.ly = b.ly;
}

// --- arguments ----------------------------------------------------------------

struct Args {
  std::string cmd;
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double scale = 1.0;
  std::string out, aux;
  bool overlapCell = false;
};

bool parseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--overlap-cell") {
      a->overlapCell = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = findWorkload(v);
      if (a->workload == nullptr) return false;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--scale") {
      a->scale = std::strtod(v, nullptr);
      if (!(a->scale > 0.0 && a->scale <= 1.0)) return false;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--aux") {
      a->aux = v;
    } else {
      return false;
    }
  }
  return a->workload != nullptr;
}

// --- info / gen ---------------------------------------------------------------

std::string isaString() {
  std::string isa =
#if defined(__x86_64__)
      "x86_64";
#elif defined(__aarch64__)
      "aarch64";
#else
      "other";
#endif
#if defined(__AVX512F__)
  isa += "+avx512f";
#endif
#if defined(__AVX2__)
  isa += "+avx2";
#endif
#if defined(__FMA__)
  isa += "+fma";
#endif
#if defined(__SSE4_2__)
  isa += "+sse4.2";
#endif
#if defined(__SSE2__)
  isa += "+sse2";
#endif
  return isa;
}

int cmdInfo(const Args& a) {
  JsonValue o = JsonValue::object();
  o.set("compiler", JsonValue::str(__VERSION__));
  o.set("build_type", JsonValue::str(PB_BUILD_TYPE));
  o.set("ep_march", JsonValue::str(PB_MARCH));
  o.set("isa", JsonValue::str(isaString()));
  o.set("threads", JsonValue::number(a.workload->threads));
  o.set("flow", JsonValue::str(a.workload->multilevel ? "supervised multilevel"
                                                       : "checked flat"));
  printJson(o);
  return 0;
}

int cmdGen(const Args& a) {
  const GenSpec spec = workloadSpec(*a.workload, a.seed, a.scale);
  const PlacementDB db = generateCircuit(spec);
  const Status s = writeBookshelf(a.out, spec.name, db);
  if (!s.ok()) {
    std::fprintf(stderr, "gen: %s\n", s.toString().c_str());
    return 1;
  }
  std::printf("%s\n", (std::filesystem::path(a.out) / (spec.name + ".aux"))
                          .string()
                          .c_str());
  return 0;
}

// --- place: one untraced placement ----------------------------------------------

/// Loads per placement process; setup_s is the median over all of them.
constexpr int kSetupLoads = 5;

int cmdPlace(const Args& a) {
  const Workload& wl = *a.workload;
  PlacerSession session(sessionOptions(wl, a.scale));
  JsonValue setup = JsonValue::array();
  for (int i = 0; i < kSetupLoads; ++i) {
    Timer t;
    const Status s = session.load(a.aux);
    setup.push(JsonValue::number(t.seconds()));
    if (!s.ok()) {
      std::fprintf(stderr, "place: load failed: %s\n", s.toString().c_str());
      return 1;
    }
  }
  const Usage u0 = usageNow();
  Timer t;
  const StatusOr<FlowResult> run = session.place();
  const double placeSeconds = t.seconds();
  const Usage u1 = usageNow();
  if (a.overlapCell) overlapOneCell(session.db());
  const std::string why = gateFailure(
      session.db(), run, wl.multilevel ? &session.report() : nullptr);
  const double finalHpwl = run.ok() ? run->finalHpwl : NAN;

  JsonValue o = placementJson(why, placeSeconds, finalHpwl);
  o.set("setup_s", std::move(setup));
  o.set("cpu_s", JsonValue::number(u1.cpuSeconds - u0.cpuSeconds));
  o.set("peak_rss_mb", JsonValue::number(u1.maxRssMb));
  printJson(o);
  return 0;
}

// --- trace: one traced placement plus layer replays ------------------------------

/// Spans recorded around the calls into the flow's layers.
struct Trace {
  std::map<std::string, double> stageWall;  ///< "mIP", "mGP", ...
  double mgpCpu = 0.0;                      ///< CPU seconds inside mGP
  std::vector<double> mgpIterStamps;        ///< flat mGP iteration ends
  std::vector<double> postMgp, cdpEntry;    ///< captured positions

  // Open span of the supervised flow (from its start/finish events).
  Timer open;
  Usage openUsage;

  void begin() {
    open.reset();
    openUsage = usageNow();
  }
  void end(const std::string& stage) {
    stageWall[stage] += open.seconds();
    if (stage == "mGP") mgpCpu += usageNow().cpuSeconds - openUsage.cpuSeconds;
  }
  /// Brackets a stage the benchmark drives itself.
  void stage(const std::string& name, const std::function<void()>& fn) {
    begin();
    fn();
    end(name);
  }

  std::function<void(const std::string&, const GpIterTrace&)> iterHook() {
    return [this](const std::string& stage, const GpIterTrace&) {
      if (stage != "mGP") return;  // coarse levels are "mGP@L<k>"
      mgpIterStamps.push_back(
          std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
  }
};

/// The plain checked flow (runEplaceFlowChecked) driven stage by stage, with
/// the same memory governance PlacerSession::place applies.
StatusOr<FlowResult> placeFlatTraced(PlacerSession& session, Trace& tr) {
  PlacementDB& db = session.db();
  RuntimeContext& ctx = session.context();
  MemoryBudget& mb = ctx.memory();
  db.view().arena().setBudget(&mb);
  ScopedCharge base(mb, db.view().footprintBytes());
  if (Status s = db.sanitize(); !s.ok()) return s;
  if (Status s = db.validate(); !s.ok()) return s;
  FlowState st;
  st.cfg = session.options().flow;
  st.ctx = &ctx;
  tr.stage("mIP", [&] { flowStageMip(db, st); });
  st.mixedSize = db.numMovableMacros() > 0;
  tr.stage("mGP", [&] { flowStageMgp(db, st); });
  tr.postMgp = capturePositions(db);
  if (st.mixedSize) {
    tr.stage("mLG", [&] {
      flowStageMlg(db, st);
      flowFreezeMacros(db);
    });
    tr.stage("cGP", [&] { flowStageCgp(db, st); });
  }
  tr.cdpEntry = capturePositions(db);
  tr.stage("cDP", [&] { flowStageCdp(db, st); });
  flowFinish(db, st);
  return st.res;
}

/// Per-call kernel timings at the post-mGP placement.
struct KernelTimes {
  double updateUs = 0, gradientUs = 0, overflowUs = 0, solveUs = 0;
  double waUs = 0, hpwlUs = 0;
  std::size_t grid = 0;
};

/// Median wall time of one call in microseconds: two untimed warm-up calls,
/// then calls until 0.25 s or 200 calls have been timed.
double perCallUs(const std::function<void()>& fn) {
  fn();
  fn();
  std::vector<double> us;
  Timer total;
  while (us.size() < 5 || (us.size() < 200 && total.seconds() < 0.25)) {
    Timer t;
    fn();
    us.push_back(t.seconds() * 1e6);
  }
  return percentile(us, 0.5);
}

/// Replays the mGP kernels as GlobalPlacer's engine calls them: movables at
/// the post-mGP placement plus a filler set of the engine's count and size,
/// on the grid BinGrid::chooseResolution picks, at the workload's threads.
KernelTimes replayKernels(const PlacementDB& db, RuntimeContext& ctx,
                          const GpConfig& gp, double overflow) {
  const auto& movables = db.movable();
  const FillerSet fillers = makeFillers(db, gp.fillerSeed, &ctx);
  const std::size_t nCells = movables.size();
  const std::size_t nVars = nCells + fillers.size();
  std::vector<double> x(nVars), y(nVars), w(nVars), h(nVars);
  std::vector<std::int32_t> objToVar(db.objects.size(), -1);
  for (std::size_t v = 0; v < nCells; ++v) {
    const auto obj = static_cast<std::size_t>(movables[v]);
    objToVar[obj] = static_cast<std::int32_t>(v);
    const Point c = db.objects[obj].center();
    x[v] = c.x;
    y[v] = c.y;
    w[v] = db.objects[obj].w;
    h[v] = db.objects[obj].h;
  }
  for (std::size_t k = 0; k < fillers.size(); ++k) {
    x[nCells + k] = fillers.cx[k];
    y[nCells + k] = fillers.cy[k];
    w[nCells + k] = fillers.w;
    h[nCells + k] = fillers.h;
  }
  const ChargeView all{x, y, w, h};
  const ChargeView cells{std::span<const double>(x).subspan(0, nCells),
                         std::span<const double>(y).subspan(0, nCells),
                         std::span<const double>(w).subspan(0, nCells),
                         std::span<const double>(h).subspan(0, nCells)};
  KernelTimes kt;
  kt.grid = BinGrid::chooseResolution(nVars);
  ThreadPool* pool = &ctx.pool();
  ElectroDensity density(db.region, kt.grid, kt.grid, db.targetDensity);
  density.stampFixed(db);
  std::vector<double> gx(nVars), gy(nVars);
  kt.updateUs = perCallUs([&] { density.update(all, pool); });
  kt.gradientUs = perCallUs([&] { density.gradient(all, gx, gy, pool); });
  kt.overflowUs = perCallUs([&] { (void)density.overflow(cells, pool); });
  PoissonSolver solver(kt.grid, kt.grid, density.grid().dx(),
                       density.grid().dy());
  kt.solveUs = perCallUs([&] { solver.solve(density.density(), pool); });
  WlEvaluator wl(db, objToVar, nVars);
  const VarView view{&db, objToVar, x, y};
  const double gx0 = waGammaSchedule(density.grid().dx(), overflow);
  const double gy0 = waGammaSchedule(density.grid().dy(), overflow);
  kt.waUs = perCallUs([&] { (void)wl.waGrad(view, gx0, gy0, gx, gy, pool); });
  kt.hpwlUs = perCallUs([&] { (void)wl.hpwl(view, pool); });
  return kt;
}

int cmdTrace(const Args& a) {
  const Workload& wl = *a.workload;
  const Usage before = usageNow();
  Trace tr;
  PlacementDB* live = nullptr;  // the session's instance, for the events
  SessionOptions so = sessionOptions(wl, a.scale);
  so.flow.gpTrace = tr.iterHook();
  so.sup.onProgress = [&](const SupervisorEvent& ev) {
    if (ev.kind == SupervisorEvent::Kind::kStageStart) {
      if (ev.stage == FlowStage::kCdp) tr.cdpEntry = capturePositions(*live);
      tr.begin();
    } else if (ev.kind == SupervisorEvent::Kind::kStageFinish) {
      tr.end(flowStageName(ev.stage));
      if (ev.stage == FlowStage::kMgp) tr.postMgp = capturePositions(*live);
    }
  };
  PlacerSession session(so);
  live = &session.db();

  // bookshelf: median of three loads; the last one is the instance placed.
  std::vector<double> reads;
  for (int i = 0; i < 3; ++i) {
    Timer t;
    const Status s = session.load(a.aux);
    reads.push_back(t.seconds());
    if (!s.ok()) {
      std::fprintf(stderr, "trace: load failed: %s\n", s.toString().c_str());
      return 1;
    }
  }
  double inputBytes = 0.0;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(a.aux).parent_path())) {
    if (e.is_regular_file()) inputBytes += static_cast<double>(e.file_size());
  }

  Timer placeTimer;
  const StatusOr<FlowResult> run =
      wl.multilevel ? session.place() : placeFlatTraced(session, tr);
  const double placeSeconds = placeTimer.seconds();
  const Usage uFlow = usageNow();
  std::string why = gateFailure(session.db(), run,
                                wl.multilevel ? &session.report() : nullptr);
  if (!run.ok()) {
    printJson(placementJson(why, placeSeconds, NAN));
    return 0;
  }
  const FlowResult& res = *run;
  const RuntimeContext& ctx = session.context();
  const double accountedMb =
      static_cast<double>(ctx.memory().peakBytes()) / (1024.0 * 1024.0);
  const long arenaGrowth = session.db().view().arena().growthEvents();

  // Replays on a second copy of the instance, loaded and sanitized as the
  // flow's own copy was.
  RuntimeContext rctx(wl.threads);
  PlacementDB db2;
  if (Status s = readBookshelf(a.aux, db2, &rctx); !s.ok()) {
    std::fprintf(stderr, "trace: reload failed: %s\n", s.toString().c_str());
    return 1;
  }
  (void)db2.sanitize();
  if (tr.postMgp.size() != 2 * db2.objects.size() ||
      tr.cdpEntry.size() != 2 * db2.objects.size()) {
    std::fprintf(stderr, "trace: the flow skipped mGP or cDP\n");
    return 1;
  }
  double ladderSeconds = 0.0;
  if (wl.multilevel) {
    Timer t;
    const auto ladder =
        buildClusterLadder(db2, so.sup.multilevel.cluster, &rctx);
    ladderSeconds = t.seconds();
    if (!ladder.ok()) why = "cluster ladder replay failed";
  }
  const InitialPlaceResult ip =
      quadraticInitialPlace(db2, so.flow.ip, &rctx);
  applyPositions(db2, tr.postMgp);
  db2.view().syncPositionsFromDb(db2);
  const KernelTimes kt =
      replayKernels(db2, rctx, so.flow.gp, res.mgpResult.finalOverflow);
  applyPositions(db2, tr.cdpEntry);
  if (db2.numMovableMacros() > 0) {
    flowFreezeMacros(db2);
  } else {
    db2.view().syncPositionsFromDb(db2);
  }
  Timer tl;
  (void)legalizeCells(db2, &rctx);
  const double legalizeSeconds = tl.seconds();
  Timer td;
  (void)detailPlace(db2, so.flow.detail, &rctx);
  const double detailSeconds = td.seconds();
  if (why.empty() && hpwl(db2) != res.finalHpwl) {
    why = "cDP replay HPWL " + hexBits(hpwl(db2)) + " != flow HPWL " +
          hexBits(res.finalHpwl);
  }

  // Derived metrics.
  double levelsSeconds = 0.0;
  for (const LevelMetrics& lm : res.mgpLevels) levelsSeconds += lm.metrics.seconds;
  double stageSum = 0.0;
  for (const auto& [_, s] : tr.stageWall) stageSum += s;
  const auto wall = [&](const char* s) {
    const auto it = tr.stageWall.find(s);
    return it == tr.stageWall.end() ? 0.0 : it->second;
  };
  const double mgpSeconds = wall("mGP");
  const double flatMgpSeconds = mgpSeconds - levelsSeconds;
  std::vector<double> iterMs;
  for (std::size_t i = 1; i < tr.mgpIterStamps.size(); ++i) {
    iterMs.push_back(1e3 * (tr.mgpIterStamps[i] - tr.mgpIterStamps[i - 1]));
  }
  const long evals = res.mgpResult.gradEvals + res.cgpResult.gradEvals;
  const int iters = res.mgpResult.iterations + res.cgpResult.iterations;
  const double rssGrowth = uFlow.maxRssMb - before.maxRssMb;
  const MlgResult& mlg = res.mlgResult;

  const std::vector<std::tuple<const char*, double, const char*>> layers = {
      {"bookshelf.read_s", percentile(reads, 0.5), "s"},
      {"bookshelf.mb_per_s", inputBytes / 1e6 / percentile(reads, 0.5),
       "MB/s"},
      {"qp.mip_s", wall("mIP"), "s"},
      {"qp.cg_iters", static_cast<double>(ip.totalCgIterations), "count"},
      {"qp.ms_per_cg_iter",
       ip.totalCgIterations > 0 ? 1e3 * wall("mIP") / ip.totalCgIterations
                                : 0.0,
       "ms"},
      {"cluster.ladder_s", ladderSeconds, "s"},
      {"cluster.levels", static_cast<double>(res.mgpLevels.size()), "count"},
      {"eplace.mgp_levels_s", levelsSeconds, "s"},
      {"eplace.mgp_s", mgpSeconds, "s"},
      {"eplace.mlg_s", wall("mLG"), "s"},
      {"eplace.cgp_s", wall("cGP"), "s"},
      {"eplace.cdp_s", wall("cDP"), "s"},
      {"eplace.unattributed_s", placeSeconds - stageSum, "s"},
      {"eplace.stage_coverage", stageSum / placeSeconds, "ratio"},
      {"eplace.mgp_busy_ratio", tr.mgpCpu / (mgpSeconds * wl.threads), "ratio"},
      {"opt.mgp_iters", static_cast<double>(res.mgpResult.iterations), "count"},
      {"opt.cgp_iters", static_cast<double>(res.cgpResult.iterations), "count"},
      {"opt.evals_per_iter",
       iters > 0 ? static_cast<double>(evals) / iters : 0.0, "ratio"},
      {"opt.mgp_iter_ms_p50", percentile(iterMs, 0.5), "ms"},
      {"opt.mgp_iter_ms_p90", percentile(iterMs, 0.9), "ms"},
      {"density.update_us", kt.updateUs, "us"},
      {"density.gradient_us", kt.gradientUs, "us"},
      {"density.overflow_us", kt.overflowUs, "us"},
      {"fft.solve_us", kt.solveUs, "us"},
      {"fft.grid", static_cast<double>(kt.grid), "bins"},
      {"wirelength.wa_grad_us", kt.waUs, "us"},
      {"wirelength.hpwl_us", kt.hpwlUs, "us"},
      {"density.in_mgp_s", res.mgpInner.get("density"), "s"},
      {"wirelength.in_mgp_s", res.mgpInner.get("wirelength"), "s"},
      {"opt.in_mgp_s", res.mgpInner.get("other"), "s"},
      {"opt.kernel_coverage",
       (kt.updateUs + kt.gradientUs + kt.waUs) * 1e-6 *
           static_cast<double>(res.mgpResult.gradEvals) / flatMgpSeconds,
       "ratio"},
      {"legal.legalize_s", legalizeSeconds, "s"},
      {"legal.detail_s", detailSeconds, "s"},
      {"legal.mlg_accept_ratio",
       mlg.attempted > 0 ? static_cast<double>(mlg.accepted) /
                               static_cast<double>(mlg.attempted)
                         : 0.0,
       "ratio"},
      {"util.accounted_peak_mb", accountedMb, "MB"},
      {"util.accounted_rss_ratio", rssGrowth > 0 ? accountedMb / rssGrowth : 0.0,
       "ratio"},
      {"util.arena_growth_events", static_cast<double>(arenaGrowth), "count"},
  };
  JsonValue layerJson = JsonValue::object();
  for (const auto& [name, value, unit] : layers) {
    JsonValue m = JsonValue::object();
    m.set("value", JsonValue::number(value));
    m.set("unit", JsonValue::str(unit));
    layerJson.set(name, std::move(m));
  }
  JsonValue o = placementJson(why, placeSeconds, res.finalHpwl);
  o.set("layers", std::move(layerJson));
  printJson(o);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s info|gen|place|trace --workload "
                 "stdcell_flat|mixed_size|vcycle_50k [--seed N] [--scale F] "
                 "[--out DIR] [--aux PATH] [--overlap-cell]\n",
                 argc > 0 ? argv[0] : "placer_bench");
    return 2;
  }
  if (a.cmd == "info") return cmdInfo(a);
  if (a.cmd == "gen" && !a.out.empty()) return cmdGen(a);
  if (a.cmd == "place" && !a.aux.empty()) return cmdPlace(a);
  if (a.cmd == "trace" && !a.aux.empty()) return cmdTrace(a);
  std::fprintf(stderr, "%s: unknown command or missing --out/--aux\n",
               argv[0]);
  return 2;
}
