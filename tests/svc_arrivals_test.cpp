// Arrival generators: the job stream must be a pure function of
// (shape, mix, rate, seed), arrival times non-decreasing, long-run rates
// matching the requested lambda, and the class/variant streams independent
// of the arrival shape.
#include "svc/arrivals.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "svc/job.hpp"

namespace {

using dlb::svc::ArrivalGenerator;
using dlb::svc::ArrivalKind;
using dlb::svc::Job;
using dlb::svc::JobMix;
using dlb::svc::arrival_name;
using dlb::svc::parse_arrival_kind;

std::vector<Job> draw(ArrivalGenerator& gen, int n) {
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) jobs.push_back(gen.next());
  return jobs;
}

TEST(ParseArrivalSpec, RecognizesPoissonAndBursty) {
  EXPECT_EQ(parse_arrival_kind("poisson"), ArrivalKind::kPoisson);
  EXPECT_STREQ(arrival_name(ArrivalKind::kPoisson), "poisson");
  EXPECT_EQ(parse_arrival_kind("bursty"), ArrivalKind::kBursty);
  EXPECT_STREQ(arrival_name(ArrivalKind::kBursty), "bursty");
  EXPECT_THROW((void)parse_arrival_kind("uniform"), std::invalid_argument);
  // Anything else fails with an error naming the accepted shapes.
  try {
    (void)parse_arrival_kind("trace:x");
    ADD_FAILURE() << "trace:x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("poisson|bursty"), std::string::npos) << e.what();
  }
}

TEST(Arrivals, PoissonIsDeterministicPerSeedAndSaltedAcrossSeeds) {
  const ArrivalKind kind = ArrivalKind::kPoisson;
  const JobMix mix = JobMix::builtin("default");
  ArrivalGenerator a(kind, mix, 2.0, 8, 42);
  ArrivalGenerator b(kind, mix, 2.0, 8, 42);
  ArrivalGenerator c(kind, mix, 2.0, 8, 43);
  const auto ja = draw(a, 500);
  const auto jb = draw(b, 500);
  const auto jc = draw(c, 500);
  bool seeds_differ = false;
  for (int i = 0; i < 500; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_DOUBLE_EQ(ja[k].arrival_seconds, jb[k].arrival_seconds);
    EXPECT_EQ(ja[k].class_index, jb[k].class_index);
    EXPECT_EQ(ja[k].load_variant, jb[k].load_variant);
    if (ja[k].arrival_seconds != jc[k].arrival_seconds) seeds_differ = true;
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(Arrivals, LongRunRateMatchesLambda) {
  const JobMix mix = JobMix::builtin("default");
  for (const char* shape : {"poisson", "bursty"}) {
    ArrivalGenerator gen(parse_arrival_kind(shape), mix, 4.0, 4, 9001);
    const auto jobs = draw(gen, 20000);
    double prev = 0.0;
    for (const Job& j : jobs) {
      EXPECT_GE(j.arrival_seconds, prev) << shape;
      prev = j.arrival_seconds;
    }
    const double realized = 20000.0 / jobs.back().arrival_seconds;
    EXPECT_NEAR(realized, 4.0, 0.4) << shape;  // within 10% over 20k draws
  }
}

TEST(Arrivals, BurstyClumpsArrivalsIntoOnPhases) {
  // At an ON fraction of 0.25 the ON-phase rate is 4x the long-run rate, so the
  // median inter-arrival gap is far below the Poisson mean 1/lambda.
  const JobMix mix = JobMix::builtin("default");
  ArrivalGenerator gen(parse_arrival_kind("bursty"), mix, 1.0, 4, 11);
  const auto jobs = draw(gen, 4000);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    gaps.push_back(jobs[i].arrival_seconds - jobs[i - 1].arrival_seconds);
  }
  std::sort(gaps.begin(), gaps.end());
  EXPECT_LT(gaps[gaps.size() / 2], 0.5);  // median gap ~ 1/(4 lambda), not 1/lambda
}

TEST(Arrivals, ClassAndVariantStreamsAreIndependentOfTheShape) {
  // Swapping poisson for bursty must not perturb the class or variant draws:
  // the three streams are forked independently from the seed-salted root.
  const JobMix mix = JobMix::builtin("default");
  ArrivalGenerator poisson(parse_arrival_kind("poisson"), mix, 2.0, 8, 123);
  ArrivalGenerator bursty(parse_arrival_kind("bursty"), mix, 2.0, 8, 123);
  const auto jp = draw(poisson, 1000);
  const auto jb = draw(bursty, 1000);
  for (std::size_t i = 0; i < jp.size(); ++i) {
    EXPECT_EQ(jp[i].class_index, jb[i].class_index);
    EXPECT_EQ(jp[i].load_variant, jb[i].load_variant);
  }
}

TEST(Arrivals, ValidatesRateAndVariants) {
  const JobMix mix = JobMix::builtin("default");
  EXPECT_THROW(ArrivalGenerator(ArrivalKind::kPoisson, mix, 0.0, 8, 1), std::invalid_argument);
  EXPECT_THROW(ArrivalGenerator(ArrivalKind::kPoisson, mix, -1.0, 8, 1), std::invalid_argument);
  EXPECT_THROW(ArrivalGenerator(ArrivalKind::kPoisson, mix, 1.0, 0, 1), std::invalid_argument);
}

}  // namespace
