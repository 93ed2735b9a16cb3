// Cost functions and the least-squares fitter.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "perfmodel/cost_functions.hpp"
#include "perfmodel/fit.hpp"

using namespace fompi;
using perf::Sample;

TEST(CostFunctions, PaperAnchors) {
  const perf::PaperModel m;
  EXPECT_NEAR(m.put().us(8), 1.0, 0.01);          // P_put small
  EXPECT_NEAR(m.put().us(100000), 17.0, 0.1);     // 0.16 ns/B slope
  EXPECT_NEAR(m.get().us(8), 1.9, 0.01);
  EXPECT_NEAR(m.acc_sum().us(8), 2.624, 0.01);    // 28 ns/B * 8 + 2.4
  EXPECT_NEAR(m.fence_us(2), 2.9, 0.01);
  EXPECT_NEAR(m.fence_us(8192), 2.9 * 13, 0.01);
  EXPECT_DOUBLE_EQ(m.fence_us(1), 0.0);
}

TEST(CostFunctions, FenceVsPscwDecisionRule) {
  const perf::PaperModel m;
  // For small k and large p PSCW wins; for huge k fence wins.
  EXPECT_TRUE(m.pscw_beats_fence(8192, 2));
  EXPECT_FALSE(m.pscw_beats_fence(4, 64));
  // The crossover grows with p: at p=256 the critical k is
  // k* = (2.9*8 - 0.7 - 1.8) / 0.7 ≈ 29.
  EXPECT_TRUE(m.pscw_beats_fence(256, 28));
  EXPECT_FALSE(m.pscw_beats_fence(256, 31));
}

TEST(Fit, RecoversExactAffine) {
  std::vector<Sample> s;
  for (double x : {8.0, 64.0, 512.0, 4096.0}) {
    s.push_back(Sample{x, 1.5 + 0.25 * x});
  }
  const auto r = perf::fit_affine(s);
  EXPECT_NEAR(r.intercept_us, 1.5, 1e-9);
  EXPECT_NEAR(r.slope_us_per_x, 0.25, 1e-12);
  EXPECT_NEAR(r.r2, 1.0, 1e-12);
}

TEST(Fit, RecoversLogModel) {
  std::vector<Sample> s;
  for (double p : {2.0, 8.0, 64.0, 1024.0}) {
    s.push_back(Sample{p, 2.9 * std::log2(p)});
  }
  const auto r = perf::fit_logarithmic(s);
  EXPECT_NEAR(r.slope_us_per_x, 2.9, 1e-9);
  EXPECT_NEAR(r.intercept_us, 0.0, 1e-9);
}

TEST(Fit, ToleratesNoise) {
  std::vector<Sample> s;
  Rng rng(3);
  for (int i = 1; i <= 50; ++i) {
    const double x = i * 10.0;
    s.push_back(Sample{x, 4.0 + 0.1 * x + (rng.uniform() - 0.5) * 0.01});
  }
  const auto r = perf::fit_affine(s);
  EXPECT_NEAR(r.intercept_us, 4.0, 0.05);
  EXPECT_NEAR(r.slope_us_per_x, 0.1, 0.001);
  EXPECT_GT(r.r2, 0.999);
}

TEST(Fit, DegenerateInputs) {
  EXPECT_THROW(perf::fit_affine({Sample{1, 1}}), Error);
  // All-equal x: no slope to estimate.
  const auto r = perf::fit_affine({Sample{5, 1}, Sample{5, 3}});
  EXPECT_DOUBLE_EQ(r.slope_us_per_x, 0);
  EXPECT_DOUBLE_EQ(r.intercept_us, 2);
  EXPECT_THROW(perf::fit_logarithmic({Sample{0, 1}, Sample{2, 2}}), Error);
}
