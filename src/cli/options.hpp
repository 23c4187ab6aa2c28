#pragma once
// Command-line handling for the omnivar campaign driver. The command line
// is the only way to configure a campaign: no environment variable mirrors
// a flag, so the invocation states the whole experimental setup.
//
// Flags:
//   --list            list registered harnesses and exit
//   --scenarios       list the scenario catalog and exit
//   --isa-report      list the batched-kernel ISA levels this host can
//                     dispatch to (one per line, best last) and exit
//   --only <glob>     select harnesses by name glob (repeatable)
//   --jobs[=]N        run the campaign on one pool of N workers (0 = one
//                     per hardware thread): every protocol run of every
//                     selected harness and scenario queues there, and
//                     units overlap; default 1 — inline, no threads
//   --scenario[=]S    run on scenario S: a catalog name or a scenario-file
//                     path; repeatable — the driver fans the selected
//                     harnesses out over every listed scenario in one
//                     process (one shared --out cache); default: the
//                     paper's Dardel+Vera pair
//   --scenario-set[=]FILE
//                     append the scenario selectors listed in FILE (one
//                     per line; '#' comments and blank lines skipped) to
//                     the --scenario list
//   --plan            enumerate every protocol cell the selection would
//                     run (harness, scenario, label, spec hash, cost) and
//                     exit without computing anything
//   --out[=]DIR       campaign directory: JSON artifacts + result cache
//   --checkpoint-every[=]N
//                     checkpoint each protocol cell every N timed reps to
//                     a .snap sidecar of its cache entry (requires --out)
//   --resume[=]SRC    resume interrupted cells: "auto" scans each cell's
//                     .snap sidecar, an explicit path names one snapshot
//                     (requires --out)
//   --retry-cells[=]N retry a failing protocol cell N times (seeded
//                     exponential backoff) before quarantining it;
//                     default 0
//   --cell-timeout[=]MS
//                     per-cell wall-clock budget in milliseconds, enforced
//                     cooperatively at repetition boundaries; default
//                     unlimited
//   --fault-spec[=]SPEC
//                     arm the deterministic fault-injection plan (see
//                     core/faultinject.hpp for the grammar); a malformed
//                     spec is a usage error (exit 2), never silently
//                     ignored
//   --version         print engine version, snapshot format and dispatched
//                     ISA on stdout and exit
//   --help            usage
// Parsing is strict: a typo'd jobs value must not silently become
// "saturate every core" on a measurement harness, and a stale or unknown
// flag must not silently run a different campaign, so every malformed,
// unknown or value-less argument — and a checkpoint flag without --out —
// is collected in Options::errors and the driver exits 2 before running
// anything.

#include <cstddef>
#include <string>
#include <vector>

namespace omv::cli {

/// Strictly parses a non-negative integer. Returns false on empty,
/// non-digit, negative, or overflowing input (strtoul alone would happily
/// wrap "-4").
[[nodiscard]] bool parse_uint(const char* text, std::size_t& out);

/// Strictly parses a job count ("0" = hardware concurrency).
[[nodiscard]] bool parse_job_count(const char* text, std::size_t& out);

/// Parsed omnivar options.
struct Options {
  bool list = false;
  bool list_scenarios = false;  ///< --scenarios catalog listing.
  bool isa_report = false;      ///< --isa-report dispatchable-ISA listing.
  bool version = false;         ///< --version identity report.
  bool help = false;
  bool plan = false;              ///< --plan cell enumeration listing.
  std::vector<std::string> only;  ///< --only name globs (empty = all).
  std::size_t jobs = 1;           ///< worker count (--jobs 0 resolved).
  std::vector<std::string> scenarios;  ///< --scenario selectors, in order.
  std::string scenario_set;       ///< --scenario-set file; empty = none.
  std::string out_dir;            ///< --out campaign dir; empty = none.
  std::size_t checkpoint_every = 0;  ///< --checkpoint-every; 0 = off.
  std::string resume;  ///< --resume "auto" or snapshot path; empty = off.
  std::size_t retry_cells = 0;     ///< --retry-cells; 0 = no retries.
  std::size_t cell_timeout_ms = 0;  ///< --cell-timeout; 0 = unlimited.
  std::string fault_spec;  ///< --fault-spec; empty = unset.
  std::vector<std::string> errors;  ///< malformed/unknown arguments.
};

/// Parses argv. Unknown arguments, malformed values and missing values are
/// collected in `errors` (the caller reports them and exits 2); parsing
/// always completes.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// Scenario selector list: the repeated --scenario values plus the lines
/// of --scenario-set FILE, in order; empty = the paper's Dardel+Vera
/// default. Throws std::runtime_error when the set file cannot be read (a
/// typo'd file must not silently run the default scenario).
[[nodiscard]] std::vector<std::string> scenario_selectors(const Options& o);

}  // namespace omv::cli
