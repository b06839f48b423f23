// The experiment scaffolding's exit-code gate and provenance probe
// (bench/exp_common.h, bench/cpu_features.h): a failed shape check must
// turn finish() nonzero, exactly like a failed trial, so CI cannot pass a
// run whose theorem shape broke.
#include <gtest/gtest.h>

#include <string>

#include "bench/cpu_features.h"
#include "bench/exp_common.h"

namespace udwn::bench {
namespace {

TEST(BenchCommon, FinishFailsAfterAFailedShapeCheck) {
  // The failure count is process-wide, so this is the only test in the
  // binary that records a check.
  EXPECT_EQ(finish(), 0);
  shape_check(true, "holding check");
  EXPECT_EQ(finish(), 0);
  shape_check(false, "broken check");
  EXPECT_EQ(finish(), 1);
  shape_check(true, "a later holding check does not clear it");
  EXPECT_EQ(finish(), 1);
}

TEST(BenchCommon, CpuFeaturesStringIsStableAndNonEmpty) {
  const std::string features = cpu_features_string();
  EXPECT_FALSE(features.empty());
  EXPECT_EQ(features, cpu_features_string());
#if defined(__x86_64__) || defined(__i386__)
  // Any x86-64 host has SSE2 baseline.
  EXPECT_NE(features.find("sse2"), std::string::npos);
#endif
}

}  // namespace
}  // namespace udwn::bench
