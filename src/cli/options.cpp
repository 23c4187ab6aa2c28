#include "cli/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/parallel_runner.hpp"

namespace omv::cli {

bool parse_uint(const char* text, std::size_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_job_count(const char* text, std::size_t& out) {
  std::size_t v = 0;
  if (!parse_uint(text, v)) return false;
  out = resolve_jobs(v);
  return true;
}

namespace {

/// Matches `--flag=value` or `--flag value`; on a match, `value` points at
/// the value and `i` is advanced past a separate-argument value.
const char* flag_value(const char* flag, int argc, char** argv, int& i,
                       std::vector<std::string>& errors) {
  const char* arg = argv[i];
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] != '\0') return nullptr;  // e.g. --outfoo
  if (i + 1 >= argc) {
    errors.push_back(std::string(flag) + " requires a value");
    return nullptr;
  }
  return argv[++i];
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      o.list = true;
      continue;
    }
    if (std::strcmp(arg, "--scenarios") == 0) {
      o.list_scenarios = true;
      continue;
    }
    if (std::strcmp(arg, "--isa-report") == 0) {
      o.isa_report = true;
      continue;
    }
    if (std::strcmp(arg, "--version") == 0) {
      o.version = true;
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      o.help = true;
      continue;
    }
    if (std::strcmp(arg, "--plan") == 0) {
      o.plan = true;
      continue;
    }
    if (const char* v = flag_value("--only", argc, argv, i, o.errors)) {
      o.only.emplace_back(v);
      continue;
    }
    if (const char* v = flag_value("--jobs", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_job_count(v, n)) {
        o.jobs = n;
      } else {
        o.errors.push_back("malformed --jobs value '" + std::string(v) +
                           "' (expected a non-negative integer)");
      }
      continue;
    }
    if (const char* v =
            flag_value("--scenario-set", argc, argv, i, o.errors)) {
      o.scenario_set = v;
      continue;
    }
    if (const char* v = flag_value("--scenario", argc, argv, i, o.errors)) {
      o.scenarios.emplace_back(v);
      continue;
    }
    if (const char* v = flag_value("--out", argc, argv, i, o.errors)) {
      o.out_dir = v;
      continue;
    }
    if (const char* v =
            flag_value("--checkpoint-every", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_uint(v, n)) {
        o.checkpoint_every = n;
      } else {
        o.errors.push_back("malformed --checkpoint-every value '" +
                           std::string(v) +
                           "' (expected a non-negative integer)");
      }
      continue;
    }
    if (const char* v = flag_value("--resume", argc, argv, i, o.errors)) {
      o.resume = v;
      continue;
    }
    if (const char* v = flag_value("--retry-cells", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_uint(v, n)) {
        o.retry_cells = n;
      } else {
        o.errors.push_back("malformed --retry-cells value '" +
                           std::string(v) +
                           "' (expected a non-negative integer)");
      }
      continue;
    }
    if (const char* v =
            flag_value("--cell-timeout", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_uint(v, n)) {
        o.cell_timeout_ms = n;
      } else {
        o.errors.push_back("malformed --cell-timeout value '" +
                           std::string(v) +
                           "' (expected milliseconds as a non-negative "
                           "integer)");
      }
      continue;
    }
    if (const char* v = flag_value("--fault-spec", argc, argv, i, o.errors)) {
      o.fault_spec = v;
      continue;
    }
    // flag_value may already have recorded a missing-value error for this
    // argument; only flag it as unknown when it did not consume it.
    if (std::strcmp(arg, "--only") != 0 && std::strcmp(arg, "--jobs") != 0 &&
        std::strcmp(arg, "--scenario") != 0 &&
        std::strcmp(arg, "--scenario-set") != 0 &&
        std::strcmp(arg, "--out") != 0 &&
        std::strcmp(arg, "--checkpoint-every") != 0 &&
        std::strcmp(arg, "--resume") != 0 &&
        std::strcmp(arg, "--retry-cells") != 0 &&
        std::strcmp(arg, "--cell-timeout") != 0 &&
        std::strcmp(arg, "--fault-spec") != 0) {
      o.errors.push_back("unknown argument '" + std::string(arg) + "'");
    }
  }
  // Snapshots ride the result cache: without --out there is nowhere to
  // checkpoint to or resume from.
  if ((o.checkpoint_every > 0 || !o.resume.empty()) && o.out_dir.empty()) {
    o.errors.push_back(std::string(o.checkpoint_every > 0
                                       ? "--checkpoint-every"
                                       : "--resume") +
                       " requires --out (checkpoint snapshots ride the "
                       "result cache)");
  }
  return o;
}

std::vector<std::string> scenario_selectors(const Options& o) {
  std::vector<std::string> out = o.scenarios;
  if (!o.scenario_set.empty()) {
    std::ifstream in(o.scenario_set);
    if (!in) {
      throw std::runtime_error("cannot read --scenario-set file '" +
                               o.scenario_set + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t b = line.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      const std::size_t e = line.find_last_not_of(" \t\r");
      line = line.substr(b, e - b + 1);
      if (line.empty() || line[0] == '#') continue;
      out.push_back(line);
    }
  }
  return out;
}

}  // namespace omv::cli
