#pragma once
// Harness registry for the omnivar campaign driver.
//
// Every bench/bench_*.cpp defines one harness: a run function plus a static
// Registration object that files it here under a short name ("fig3",
// "table2", ...). The omnivar driver (src/cli/omnivar_main.cpp) links all
// harnesses and runs the selected subset (`--only <glob>`) as one
// resumable campaign.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace omv::cli {

class RunContext;

/// One registered harness. `run` prints the harness's report to stdout,
/// records series/verdicts/cells into the context, and returns a process
/// exit code (0 = ran to completion; shape verdicts are recorded, not
/// exit codes).
struct HarnessInfo {
  std::string name;
  std::string description;
  std::function<int(RunContext&)> run;
};

/// Glob match supporting '*' (any substring) and '?' (any one character).
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

/// Process-wide harness registry (populated by static Registration objects
/// before main).
class Registry {
 public:
  static Registry& instance();

  /// Registers a harness; throws std::invalid_argument on a duplicate name.
  void add(HarnessInfo info);

  /// All harnesses, sorted by name (deterministic listing regardless of
  /// link order).
  [[nodiscard]] const std::vector<HarnessInfo>& all() const;

  /// Harness by exact name; nullptr when absent.
  [[nodiscard]] const HarnessInfo* find(std::string_view name) const;

  /// Harnesses matching any of `globs` (all harnesses when empty), sorted
  /// by name.
  [[nodiscard]] std::vector<const HarnessInfo*> match(
      const std::vector<std::string>& globs) const;

 private:
  mutable std::vector<HarnessInfo> harnesses_;
  mutable bool sorted_ = false;
};

/// Registers a harness at static-initialization time:
///   static const cli::Registration reg{"fig3", "Figure 3 — ...", run_fig3};
struct Registration {
  Registration(std::string name, std::string description,
               std::function<int(RunContext&)> run);
};

}  // namespace omv::cli
