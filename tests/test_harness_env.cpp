// Tests for the bench-harness protocol size (paper_spec and the
// OMNIVAR_QUICK smoke clamp in bench/harness.hpp) and the --jobs sharding
// knob as the driver parses it (cli::parse_options).

#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "core/parallel_runner.hpp"

namespace omv::harness {
namespace {

/// Clears OMNIVAR_QUICK around each test so cases cannot leak the smoke
/// clamp into each other.
class HarnessEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv("OMNIVAR_QUICK"); }
  void TearDown() override { ::unsetenv("OMNIVAR_QUICK"); }
};

/// Parses `args` (after the program name) the way the driver does.
cli::Options parse(std::vector<std::string> args) {
  args.insert(args.begin(), "omnivar");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return cli::parse_options(static_cast<int>(argv.size()), argv.data());
}

/// The worker count a driver invocation with `args` would run on.
std::size_t jobs_for(std::vector<std::string> args) {
  return parse(std::move(args)).jobs;
}

TEST_F(HarnessEnvTest, PaperSpecDefaultsMatchPaperProtocol) {
  const auto spec = paper_spec(77);
  EXPECT_EQ(spec.runs, 10u);
  EXPECT_EQ(spec.reps, 100u);
  EXPECT_EQ(spec.warmup, 1u);
  EXPECT_EQ(spec.seed, 77u);
}

TEST_F(HarnessEnvTest, PaperSpecHonorsExplicitArguments) {
  const auto spec = paper_spec(1, 4, 25);
  EXPECT_EQ(spec.runs, 4u);
  EXPECT_EQ(spec.reps, 25u);
}

TEST_F(HarnessEnvTest, QuickClampsProtocol) {
  ::setenv("OMNIVAR_QUICK", "1", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 3u);
  EXPECT_EQ(spec.reps, 10u);
}

TEST_F(HarnessEnvTest, QuickOnlyClampsNeverGrows) {
  ::setenv("OMNIVAR_QUICK", "1", 1);
  const auto spec = paper_spec(1, 2, 5);
  EXPECT_EQ(spec.runs, 2u);
  EXPECT_EQ(spec.reps, 5u);
}

TEST_F(HarnessEnvTest, QuickZeroIsDisabled) {
  ::setenv("OMNIVAR_QUICK", "0", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 10u);
  EXPECT_EQ(spec.reps, 100u);
}

TEST_F(HarnessEnvTest, JobsDefaultsToSerial) {
  EXPECT_EQ(jobs_for({}), 1u);
}

TEST_F(HarnessEnvTest, JobsZeroMeansHardwareConcurrency) {
  EXPECT_GE(jobs_for({"--jobs", "0"}), 1u);
  EXPECT_EQ(jobs_for({"--jobs=0"}), resolve_jobs(0));
}

TEST_F(HarnessEnvTest, ParseArgsEqualsForm) {
  EXPECT_EQ(jobs_for({"--jobs=5"}), 5u);
}

TEST_F(HarnessEnvTest, ParseArgsSeparateForm) {
  EXPECT_EQ(jobs_for({"--jobs", "7"}), 7u);
}

TEST_F(HarnessEnvTest, ParseJobCountStrict) {
  std::size_t n = 0;
  EXPECT_TRUE(cli::parse_job_count("5", n));
  EXPECT_EQ(n, 5u);
  EXPECT_TRUE(cli::parse_job_count("0", n));
  EXPECT_EQ(n, resolve_jobs(0));
  EXPECT_FALSE(cli::parse_job_count("", n));
  EXPECT_FALSE(cli::parse_job_count("abc", n));
  EXPECT_FALSE(cli::parse_job_count("1O", n));  // letter O typo
  EXPECT_FALSE(cli::parse_job_count("4 ", n));
  EXPECT_FALSE(cli::parse_job_count(nullptr, n));
  EXPECT_FALSE(cli::parse_job_count("-4", n));  // strtoul would wrap this
  EXPECT_FALSE(cli::parse_job_count("+4", n));
  EXPECT_FALSE(cli::parse_job_count("99999999999999999999999", n));  // ERANGE
}

TEST_F(HarnessEnvTest, MalformedJobsFlagIsRejectedNotExpanded) {
  const auto o = parse({"--jobs=1O"});
  EXPECT_EQ(o.errors.size(), 1u);  // the driver exits 2 on it
  EXPECT_EQ(o.jobs, 1u);  // never all cores
}

TEST_F(HarnessEnvTest, NegativeJobsIsRejectedNotWrapped) {
  const auto o = parse({"--jobs=-4"});
  EXPECT_EQ(o.errors.size(), 1u);
  EXPECT_EQ(o.jobs, 1u);  // not ULONG_MAX-3 workers
}

TEST_F(HarnessEnvTest, TrailingJobsFlagWithoutValueIsRejected) {
  const auto o = parse({"--jobs"});
  EXPECT_EQ(o.errors.size(), 1u);
  EXPECT_EQ(o.jobs, 1u);
}

TEST_F(HarnessEnvTest, ParseArgsRejectsUnknownArguments) {
  const auto o = parse({"--frobnicate", "--jobs=4", "positional"});
  EXPECT_EQ(o.errors.size(), 2u);  // both reported, neither skipped
  EXPECT_EQ(o.jobs, 4u);           // the valid flag still parses
}

TEST_F(HarnessEnvTest, RunShardedHonorsJobsKnob) {
  ExperimentSpec spec;
  spec.runs = 5;
  spec.reps = 3;
  spec.seed = 11;
  const auto factory = [](const RunSlot&) -> RepKernel {
    return [](const RepContext& c) {
      return static_cast<double>(c.run_seed % 1000) +
             static_cast<double>(c.rep);
    };
  };
  const std::size_t jobs = jobs_for({"--jobs", "4"});
  ASSERT_EQ(jobs, 4u);
  const auto sharded = run_experiment_parallel(spec, factory, jobs);
  const auto serial = run_experiment(spec, [](const RepContext& c) {
    return static_cast<double>(c.run_seed % 1000) +
           static_cast<double>(c.rep);
  });
  ASSERT_EQ(sharded.runs(), serial.runs());
  for (std::size_t r = 0; r < serial.runs(); ++r) {
    for (std::size_t k = 0; k < serial.run(r).size(); ++k) {
      EXPECT_EQ(sharded.run(r)[k], serial.run(r)[k]);
    }
  }
}

}  // namespace
}  // namespace omv::harness
