#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/cdf.h"
#include "stats/histogram.h"

namespace riptide::stats {
namespace {

// -------------------------------------------------------------------- Cdf

TEST(CdfTest, QuantilesOfKnownSamples) {
  Cdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(25), 2.0);
}

TEST(CdfTest, QuantileInterpolatesBetweenOrderStatistics) {
  Cdf cdf;
  cdf.add(0.0);
  cdf.add(10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.9), 9.0);
}

TEST(CdfTest, SingleSample) {
  Cdf cdf;
  cdf.add(7.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 7.0);
}

TEST(CdfTest, EmptyThrows) {
  Cdf cdf;
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
  EXPECT_THROW(cdf.min(), std::logic_error);
  EXPECT_THROW(cdf.mean(), std::logic_error);
}

TEST(CdfTest, OutOfRangeQuantileThrows) {
  Cdf cdf;
  cdf.add(1.0);
  EXPECT_THROW(cdf.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(cdf.quantile(1.1), std::invalid_argument);
}

TEST(CdfTest, FractionAtOrBelow) {
  Cdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(100.0), 1.0);
}

TEST(CdfTest, FractionAtOrBelowEmptyIsZero) {
  Cdf cdf;
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.0);
}

TEST(CdfTest, AddAllAndUnsortedInsertion) {
  Cdf cdf;
  cdf.add_all({5.0, 1.0, 3.0});
  cdf.add(2.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
  EXPECT_EQ(cdf.count(), 4u);
}

TEST(CdfTest, MeanMatchesArithmeticMean) {
  Cdf cdf;
  cdf.add_all({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(cdf.mean(), 4.0);
}

TEST(CdfTest, CurveIsMonotone) {
  Cdf cdf;
  for (int i = 100; i >= 1; --i) cdf.add(static_cast<double>(i));
  const auto curve = cdf.curve(11);
  ASSERT_EQ(curve.size(), 11u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].second, curve[i].second);
    EXPECT_LT(curve[i - 1].first, curve[i].first);
  }
}

TEST(CdfTest, SummaryStringMentionsCount) {
  Cdf cdf;
  cdf.add(1.0);
  EXPECT_NE(cdf.summary_string().find("n=1"), std::string::npos);
  Cdf empty;
  EXPECT_EQ(empty.summary_string(), "(empty)");
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketsCoverRangeEvenly) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(HistogramTest, SamplesLandInCorrectBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);
  h.add(1.99);
  h.add(2.0);
  h.add(9.99);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, UnderflowAndOverflowTracked) {
  Histogram h(0.0, 10.0, 2);
  h.add(-1.0);
  h.add(10.0);
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, ModeBucket) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  EXPECT_EQ(h.mode_bucket(), 1u);
}

TEST(HistogramTest, ModeOnEmptyThrows) {
  Histogram h(0.0, 1.0, 1);
  EXPECT_THROW(h.mode_bucket(), std::logic_error);
}

TEST(HistogramTest, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramTest, RenderShowsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  const std::string rendered = h.render(10);
  EXPECT_NE(rendered.find('#'), std::string::npos);
}

}  // namespace
}  // namespace riptide::stats
