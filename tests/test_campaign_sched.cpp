// Campaign worker-pool byte-identity: fork/exec the REAL omnivar driver
// and assert the pool's determinism contract —
//   * a multi-harness, multi-scenario campaign at --jobs 4 (one shared
//     pool, overlapping units) produces byte-identical stdout, per-unit
//     JSON artifacts, and cache contents to the inline --jobs 1 run
//     (campaign.json is exempt: it records wall-clock seconds and the
//     jobs setting), and a warm --jobs 4 re-run recomputes nothing;
//   * the same identity holds under an injected cell_throw quarantine
//     (the driver runs one unit at a time while a fault plan is armed and
//     still exits 4 with the FAILED line in the right stdout position);
//   * enumeration matches execution: the --plan listing's spec hashes are
//     exactly the cells a --jobs 4 campaign commits to the cache;
//   * units that declare no cells run alone, before any unit with cells;
//   * --cell-timeout spends a cell's budget on its own compute only, not
//     on its wait in the shared queue behind other units' cells;
//   * every option error (unknown flag, malformed or missing value) exits
//     2 before anything runs.
//
// The driver binary path arrives via OMNIVAR_BIN (set by the CMake test
// harness to $<TARGET_FILE:omnivar>); the suite skips when it is absent so
// the test library builds standalone.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const char* omnivar_bin() { return std::getenv("OMNIVAR_BIN"); }

// Three harnesses x three scenario presets = nine (harness, scenario)
// units, protocol-heavy and quick-mode sized.
const std::vector<std::string> kHarnesses = {"fig1", "fig3", "table2"};
const std::vector<std::string> kScenarios = {"vera", "epyc-like",
                                             "quiet-hpc"};

/// fork/execs the driver with the standard multi-harness multi-scenario
/// selection plus `extra_args`, stdout > `stdout_path` and stderr >
/// `stdout_path`.err. OMNIVAR_QUICK=1 keeps the workload CI-sized, and
/// OMNIVAR_JOBS=1 makes --jobs in `extra_args` the only worker knob;
/// `fault_spec` non-empty arms the deterministic fault plan in the child.
pid_t spawn_campaign(const std::string& bin,
                     const std::vector<std::string>& extra_args,
                     const std::string& stdout_path,
                     const std::string& fault_spec = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (!::freopen(stdout_path.c_str(), "w", stdout)) ::_exit(97);
  if (!::freopen((stdout_path + ".err").c_str(), "w", stderr)) ::_exit(96);
  ::setenv("OMNIVAR_QUICK", "1", 1);
  ::setenv("OMNIVAR_JOBS", "1", 1);
  if (!fault_spec.empty()) {
    ::setenv("OMNIVAR_FAULT_SPEC", fault_spec.c_str(), 1);
  }
  std::vector<std::string> args{bin};
  for (const auto& h : kHarnesses) {
    args.push_back("--only");
    args.push_back(h);
  }
  for (const auto& s : kScenarios) {
    args.push_back("--scenario");
    args.push_back(s);
  }
  for (const auto& a : extra_args) args.push_back(a);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(bin.c_str(), argv.data());
  ::_exit(98);
}

int wait_exit_code(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f),
          std::istreambuf_iterator<char>()};
}

/// Maps out-dir-relative path -> bytes for everything a campaign writes,
/// campaign.json excluded (it records wall-clock seconds and jobs).
std::map<std::string, std::string> artifact_contents(const fs::path& out) {
  std::map<std::string, std::string> m;
  for (const auto& e : fs::recursive_directory_iterator(out)) {
    if (!e.is_regular_file()) continue;
    const std::string rel =
        fs::relative(e.path(), out).generic_string();
    if (rel == "campaign.json") continue;
    m[rel] = slurp(e.path());
  }
  return m;
}

void expect_identical_trees(const fs::path& serial, const fs::path& par) {
  const auto expected = artifact_contents(serial);
  const auto got = artifact_contents(par);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(got.size(), expected.size());
  for (const auto& [rel, bytes] : expected) {
    const auto it = got.find(rel);
    if (it == got.end()) {
      ADD_FAILURE() << "missing from the --jobs 4 run: " << rel;
      continue;
    }
    EXPECT_EQ(it->second, bytes) << "artifact differs: " << rel;
  }
}

/// The wall-clock seconds of every `harness` unit in a campaign.json.
std::vector<double> unit_seconds(const std::string& json,
                                 const std::string& harness) {
  std::vector<double> out;
  const std::string name_key = "\"name\": \"" + harness + "\"";
  const std::string seconds_key = "\"seconds\": ";
  for (std::size_t at = json.find(name_key); at != std::string::npos;
       at = json.find(name_key, at + 1)) {
    const std::size_t s = json.find(seconds_key, at);
    if (s == std::string::npos) break;
    out.push_back(std::strtod(json.c_str() + s + seconds_key.size(), nullptr));
  }
  return out;
}

class CampaignSchedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (omnivar_bin() == nullptr || !fs::exists(omnivar_bin())) {
      GTEST_SKIP() << "OMNIVAR_BIN not set / not built; skipping the "
                      "campaign worker-pool end-to-end test";
    }
    dir_ = fs::temp_directory_path() /
           ("omnivar_sched_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(CampaignSchedTest, CellParallelCampaignBytesMatchSerial) {
  const std::string bin = omnivar_bin();

  const fs::path serial_out = dir_ / "serial";
  const pid_t serial = spawn_campaign(
      bin, {"--out", serial_out.string(), "--jobs", "1"},
      (dir_ / "serial.log").string());
  ASSERT_EQ(wait_exit_code(serial), 0);
  // --jobs 1 is the inline path: no pool, no enumeration pass.
  EXPECT_EQ(slurp(dir_ / "serial.log.err").find("worker pool"),
            std::string::npos);

  const fs::path par_out = dir_ / "par4";
  const pid_t par = spawn_campaign(
      bin, {"--out", par_out.string(), "--jobs", "4"},
      (dir_ / "par4.log").string());
  ASSERT_EQ(wait_exit_code(par), 0);
  EXPECT_NE(slurp(dir_ / "par4.log.err")
                .find("worker pool: 4 workers, "),
            std::string::npos);

  // Science stdout is replayed in registry x scenario order: byte-equal.
  const std::string serial_log = slurp(dir_ / "serial.log");
  ASSERT_FALSE(serial_log.empty());
  EXPECT_EQ(slurp(dir_ / "par4.log"), serial_log);

  // Per-unit JSON artifacts and every cache entry byte-equal.
  expect_identical_trees(serial_out, par_out);

  // A warm re-run on the pool serves everything from cache, recomputes
  // nothing, and leaves stdout, artifacts and cache byte-identical.
  const pid_t warm = spawn_campaign(
      bin, {"--out", par_out.string(), "--jobs", "4"},
      (dir_ / "warm.log").string());
  ASSERT_EQ(wait_exit_code(warm), 0);
  EXPECT_EQ(slurp(dir_ / "warm.log"), serial_log);
  expect_identical_trees(serial_out, par_out);
  const std::string warm_err = slurp(dir_ / "warm.log.err");
  std::size_t done_lines = 0;
  std::istringstream in(warm_err);
  for (std::string line; std::getline(in, line);) {
    if (line.find(": done") == std::string::npos) continue;
    ++done_lines;
    EXPECT_NE(line.find("cached + 0 computed"), std::string::npos) << line;
  }
  EXPECT_EQ(done_lines, kHarnesses.size() * kScenarios.size());
}

TEST_F(CampaignSchedTest, QuarantineUnderCellParallelMatchesSerial) {
  const std::string bin = omnivar_bin();

  // Persistent fault: every fig1 Vera/t2/reduction attempt throws, in
  // every scenario — the cell quarantines its harness, the campaign
  // continues, exit 4.
  const std::string spec = "cell_throw:*/t2/reduction";

  const fs::path serial_out = dir_ / "serial";
  const pid_t serial = spawn_campaign(
      bin, {"--out", serial_out.string(), "--jobs", "1"},
      (dir_ / "serial.log").string(), spec);
  ASSERT_EQ(wait_exit_code(serial), 4);  // kExitQuarantined

  const fs::path par_out = dir_ / "par4";
  const pid_t par = spawn_campaign(
      bin, {"--out", par_out.string(), "--jobs", "4"},
      (dir_ / "par4.log").string(), spec);
  ASSERT_EQ(wait_exit_code(par), 4);
  EXPECT_NE(slurp(dir_ / "par4.log.err").find("running one unit at a time"),
            std::string::npos);

  // Identical stdout (the FAILED lines land in the same replayed
  // positions) and identical surviving artifacts/cache.
  const std::string serial_log = slurp(dir_ / "serial.log");
  EXPECT_NE(serial_log.find("[omnivar] FAILED cell"), std::string::npos);
  EXPECT_EQ(slurp(dir_ / "par4.log"), serial_log);
  expect_identical_trees(serial_out, par_out);
}

TEST_F(CampaignSchedTest, EnumerationMatchesExecution) {
  const std::string bin = omnivar_bin();

  // --plan: every cell the selection would run, one line per cell:
  // harness<TAB>scenario<TAB>label<TAB>hash<TAB>cost.
  const pid_t plan = spawn_campaign(bin, {"--plan"},
                                    (dir_ / "plan.tsv").string());
  ASSERT_EQ(wait_exit_code(plan), 0);
  std::set<std::string> planned;
  {
    std::istringstream in(slurp(dir_ / "plan.tsv"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::vector<std::string> cols;
      std::istringstream ls(line);
      std::string col;
      while (std::getline(ls, col, '\t')) cols.push_back(col);
      ASSERT_EQ(cols.size(), 5u) << "malformed plan line: " << line;
      planned.insert(cols[3]);
    }
  }
  ASSERT_FALSE(planned.empty());

  // A pooled campaign commits exactly the enumerated cells: the cache's
  // .key marker set is the planned hash set.
  const fs::path out = dir_ / "par4";
  const pid_t run = spawn_campaign(
      bin, {"--out", out.string(), "--jobs", "4"},
      (dir_ / "par4.log").string());
  ASSERT_EQ(wait_exit_code(run), 0);
  std::set<std::string> computed;
  for (const auto& e : fs::directory_iterator(out / "cache")) {
    const std::string name = e.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".key") == 0) {
      computed.insert(name.substr(0, name.size() - 4));
    }
  }
  EXPECT_EQ(computed, planned);
}

// Units that declare no cells (here table1) run alone before any unit
// with cells starts, so a self-timed harness never shares the CPUs with
// the pool's workers.
TEST_F(CampaignSchedTest, CellLessUnitsRunBeforeTheOthers) {
  const std::string bin = omnivar_bin();
  const pid_t pid = spawn_campaign(bin, {"--only", "table1", "--jobs", "4"},
                                   (dir_ / "par4.log").string());
  ASSERT_EQ(wait_exit_code(pid), 0);
  std::vector<std::string> started;
  std::istringstream in(slurp(dir_ / "par4.log.err"));
  for (std::string line; std::getline(in, line);) {
    const std::string tag = "[omnivar] running ";
    if (line.rfind(tag, 0) == 0) {
      started.push_back(line.substr(tag.size(), line.find(' ', tag.size()) -
                                                    tag.size()));
    }
  }
  ASSERT_EQ(started.size(), (kHarnesses.size() + 1) * kScenarios.size());
  for (std::size_t i = 0; i < started.size(); ++i) {
    EXPECT_EQ(started[i] == "table1", i < kScenarios.size()) << i;
  }
}

// table2 enumerates the least work of the selection, so at --jobs 2 its
// cells dispatch last and wait behind most of the campaign. Its cells'
// budget is twice its whole --jobs 1 unit time (every fig1 and fig3 cell
// is smaller): that covers each cell's compute but not the wait, so the
// campaign completes only if queued time costs no budget.
TEST_F(CampaignSchedTest, CellTimeoutIgnoresTimeQueuedBehindOtherUnits) {
  const std::string bin = omnivar_bin();

  const fs::path serial_out = dir_ / "serial";
  const pid_t serial = spawn_campaign(
      bin, {"--out", serial_out.string(), "--jobs", "1"},
      (dir_ / "serial.log").string());
  ASSERT_EQ(wait_exit_code(serial), 0);
  const std::vector<double> table2_s =
      unit_seconds(slurp(serial_out / "campaign.json"), "table2");
  ASSERT_EQ(table2_s.size(), kScenarios.size());
  const double slowest = *std::max_element(table2_s.begin(), table2_s.end());
  const auto budget_ms = static_cast<long>(std::ceil(2000.0 * slowest));

  const fs::path par_out = dir_ / "par2";
  const pid_t par = spawn_campaign(
      bin,
      {"--out", par_out.string(), "--jobs", "2", "--cell-timeout",
       std::to_string(budget_ms)},
      (dir_ / "par2.log").string());
  EXPECT_EQ(wait_exit_code(par), 0) << "--cell-timeout " << budget_ms;
  EXPECT_EQ(slurp(dir_ / "par2.log"), slurp(dir_ / "serial.log"));
  expect_identical_trees(serial_out, par_out);
}

// A stale, typo'd or incomplete flag is a usage error: exit 2 with the
// error on stderr, nothing on stdout, and no --out dir created.
TEST_F(CampaignSchedTest, OptionErrorsExitUsageBeforeRunning) {
  const std::string bin = omnivar_bin();
  const std::vector<std::vector<std::string>> bad = {
      {"--cell-jobs", "8"},  // removed flag: unknown
      {"--jobs", "four"},    // malformed value
      {"--retry-cells"},     // missing value (last argument)
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const fs::path out = dir_ / ("out" + std::to_string(i));
    std::vector<std::string> args{"--out", out.string()};
    args.insert(args.end(), bad[i].begin(), bad[i].end());
    const std::string log = (dir_ / ("bad" + std::to_string(i))).string();
    const pid_t pid = spawn_campaign(bin, args, log);
    EXPECT_EQ(wait_exit_code(pid), 2) << bad[i][0];
    EXPECT_TRUE(slurp(log).empty()) << bad[i][0];
    EXPECT_NE(slurp(log + ".err").find(bad[i][0]), std::string::npos)
        << bad[i][0];
    EXPECT_FALSE(fs::exists(out)) << bad[i][0];
  }
}

}  // namespace
