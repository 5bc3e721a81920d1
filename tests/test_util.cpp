#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>

#include "util/csv.h"
#include "util/fault_injector.h"
#include "util/geometry.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace ep {
namespace {

TEST(Geometry, PointArithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -4.0};
  EXPECT_EQ(a + b, Point(4.0, -2.0));
  EXPECT_EQ(a - b, Point(-2.0, 6.0));
  EXPECT_EQ(a * 2.0, Point(2.0, 4.0));
  EXPECT_DOUBLE_EQ(Point(3.0, 4.0).norm(), 5.0);
}

TEST(Geometry, RectBasics) {
  const Rect r{0.0, 0.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 2.0);
  EXPECT_DOUBLE_EQ(r.area(), 8.0);
  EXPECT_EQ(r.center(), Point(2.0, 1.0));
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Rect(1.0, 1.0, 1.0, 3.0).empty());
}

TEST(Geometry, RectContainsAndOverlap) {
  const Rect r{0.0, 0.0, 10.0, 10.0};
  EXPECT_TRUE(r.contains(Point{5.0, 5.0}));
  EXPECT_TRUE(r.contains(Point{0.0, 0.0}));  // boundary is inside
  EXPECT_FALSE(r.contains(Point{10.5, 5.0}));
  EXPECT_TRUE(r.contains(Rect{1.0, 1.0, 9.0, 9.0}));
  EXPECT_FALSE(r.contains(Rect{-1.0, 1.0, 9.0, 9.0}));
  EXPECT_TRUE(r.overlaps(Rect{9.0, 9.0, 12.0, 12.0}));
  // Touching edges do not overlap (open comparison).
  EXPECT_FALSE(r.overlaps(Rect{10.0, 0.0, 12.0, 10.0}));
}

TEST(Geometry, OverlapArea) {
  const Rect a{0.0, 0.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(a.overlapArea(Rect{2.0, 2.0, 6.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(a.overlapArea(Rect{4.0, 0.0, 8.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(a.overlapArea(a), 16.0);
}

TEST(Geometry, IntervalOverlap) {
  EXPECT_DOUBLE_EQ(intervalOverlap(0.0, 2.0, 1.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(intervalOverlap(0.0, 1.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(intervalOverlap(0.0, 5.0, 1.0, 2.0), 1.0);
}

TEST(Geometry, ClampLowerLeft) {
  const Rect region{0.0, 0.0, 10.0, 10.0};
  EXPECT_EQ(clampLowerLeft(-3.0, 4.0, 2.0, 2.0, region), Point(0.0, 4.0));
  EXPECT_EQ(clampLowerLeft(9.5, 9.5, 2.0, 2.0, region), Point(8.0, 8.0));
  // Object wider than region pins to the lower-left.
  EXPECT_EQ(clampLowerLeft(5.0, 5.0, 20.0, 2.0, region), Point(0.0, 5.0));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  int counts[5] = {};
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.2, 0.02);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, Norms) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm1(v), 7.0);
  const std::vector<double> w{1.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(v, w), -1.0);
  EXPECT_DOUBLE_EQ(dist2(v, w), std::hypot(2.0, 5.0));
}

TEST(Stats, SummaryWelford) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138089935, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Geomean) {
  const std::vector<double> v{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(v), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  const std::vector<double> bad{1.0, 0.0};
  EXPECT_DOUBLE_EQ(geomean(bad), 0.0);
}

TEST(Timer, BreakdownAccumulates) {
  TimeBreakdown bd;
  bd.add("a", 1.0);
  bd.add("a", 2.0);
  bd.add("b", 0.5);
  EXPECT_DOUBLE_EQ(bd.get("a"), 3.0);
  EXPECT_DOUBLE_EQ(bd.get("b"), 0.5);
  EXPECT_DOUBLE_EQ(bd.get("missing"), 0.0);
}

TEST(Timer, MeasuresSomething) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Csv, WritesRows) {
  const std::string path = ::testing::TempDir() + "/ep_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.row(std::vector<double>{1.0, 2.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
}

TEST(FaultSpecParse, AcceptsTickAndCount) {
  std::string site;
  FaultSpec spec;
  ASSERT_TRUE(parseFaultInjection("nesterov.grad=nan@40", &site, &spec).ok());
  EXPECT_EQ(site, "nesterov.grad");
  EXPECT_EQ(spec.kind, FaultKind::kNaN);
  EXPECT_EQ(spec.atTick, 40);
  EXPECT_EQ(spec.count, 1);
  ASSERT_TRUE(parseFaultInjection("fft.forward=spike@3x2", &site, &spec).ok());
  EXPECT_EQ(spec.kind, FaultKind::kSpike);
  EXPECT_EQ(spec.atTick, 3);
  EXPECT_EQ(spec.count, 2);
  ASSERT_TRUE(parseFaultInjection("io.write=error@0x-1", &site, &spec).ok());
  EXPECT_EQ(site, "io.write");
  EXPECT_EQ(spec.kind, FaultKind::kError);
  EXPECT_EQ(spec.atTick, 0);
  EXPECT_EQ(spec.count, -1);
}

TEST(FaultSpecParse, KindNamesRoundTrip) {
  for (const FaultKind k : {FaultKind::kNaN, FaultKind::kSpike,
                            FaultKind::kTruncate, FaultKind::kError}) {
    FaultKind back = FaultKind::kNaN;
    ASSERT_TRUE(faultKindFromName(faultKindName(k), &back));
    EXPECT_EQ(back, k);
  }
  FaultKind ignored = FaultKind::kNaN;
  EXPECT_FALSE(faultKindFromName("NaN", &ignored));
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "nesterov.grad=nan@4x",     // empty count (was count 0: never fires)
      "nesterov.grad=nan@abc",    // non-numeric tick (was tick 0)
      "nesterov.grad=nan@12abc",  // partial tick
      "nesterov.grad=nan@4x2z",   // partial count
      "nesterov.grad=nan@4x0",    // count 0 never fires
      "nesterov.grad=nan@4x-2",   // only -1 means "every pass"
      "nesterov.grad=nan@-1",     // negative tick
      "nesterov.grad=nan@",       // empty tick
      "nesterov.gard=nan@4",      // unknown site
      "nesterov.grad=boom@4",     // unknown kind
      "nesterov.grad@4=nan",      // '@' before '='
      "nesterov.grad",            // no kind/tick at all
  };
  for (const char* arg : bad) {
    std::string site = "untouched";
    FaultSpec spec;
    spec.atTick = 99;
    const Status s = parseFaultInjection(arg, &site, &spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput) << arg;
    EXPECT_EQ(site, "untouched") << arg;
    EXPECT_EQ(spec.atTick, 99) << arg;
  }
}

/// Fresh directory under the gtest temp root holding empty files `names`.
std::string numberedDir(const std::string& leaf,
                        std::initializer_list<const char*> names) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  io::makeDirs(dir);
  for (const std::string& old : io::listDir(dir)) {
    std::remove((dir + "/" + old).c_str());
  }
  for (const char* name : names) std::ofstream(dir + "/" + name) << "{}";
  return dir;
}

TEST(NumberedFiles, ListIgnoresOtherNamesAndSortsNumerically) {
  const std::string dir = numberedDir(
      "ep_numbered_order",
      {"job_10.json", "job_9.json", "job_100.json", "job_0009.json",
       "job_.json",         // no digits
       "job_12a.json",      // non-digit
       "job_-1.json",       // sign
       "job_7.json.tmp",    // in-flight write
       "jab_7.json",        // other prefix
       "job_7.epsnap",      // other suffix
       "notes.txt"});
  const auto files = io::listNumberedFiles(dir, "job_", ".json");
  ASSERT_EQ(files.size(), 4u);
  EXPECT_EQ(files[0].id, 9u);
  EXPECT_EQ(files[0].name, "job_0009.json");  // id ties order by name
  EXPECT_EQ(files[1].name, "job_9.json");
  EXPECT_EQ(files[2].id, 10u);
  EXPECT_EQ(files[3].id, 100u);
  EXPECT_EQ(files[3].name, "job_100.json");
}

TEST(NumberedFiles, ListRejectsIdsThatOverflow) {
  const std::string dir = numberedDir(
      "ep_numbered_overflow",
      {"snap_2147483647.epsnap", "snap_2147483648.epsnap",
       "snap_99999999999.epsnap", "snap_18446744073709551615.epsnap",
       "snap_18446744073709551616.epsnap"});
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  const auto asInt = io::listNumberedFiles(dir, "snap_", ".epsnap", kIntMax);
  ASSERT_EQ(asInt.size(), 1u);
  EXPECT_EQ(asInt[0].id, kIntMax);

  const auto asU64 = io::listNumberedFiles(dir, "snap_", ".epsnap");
  ASSERT_EQ(asU64.size(), 4u);
  EXPECT_EQ(asU64.back().id, std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace ep
