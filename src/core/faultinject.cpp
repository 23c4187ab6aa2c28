#include "core/faultinject.hpp"

#include <memory>

namespace omv::fault {

bool glob_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative '*' backtracking (the classic two-cursor scan): on mismatch
  // past a star, re-anchor the star to swallow one more character.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

[[noreturn]] void bad_clause(std::string_view clause,
                             const std::string& why) {
  throw std::invalid_argument("fault spec clause '" + std::string(clause) +
                              "': " + why);
}

/// Strict non-negative integer (no sign, no whitespace).
bool parse_count(std::string_view text, std::size_t& out) {
  if (text.empty()) return false;
  std::size_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (v > (static_cast<std::size_t>(-1) - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

FaultClause parse_clause(std::string_view clause) {
  FaultClause c;

  // Split off a trailing "@N" occurrence selector.
  std::string_view body = clause;
  if (const auto at = body.rfind('@'); at != std::string_view::npos) {
    const std::string_view count = body.substr(at + 1);
    if (!parse_count(count, c.occurrence) || c.occurrence == 0) {
      bad_clause(clause, "occurrence '@" + std::string(count) +
                             "' must be a positive integer");
    }
    body = body.substr(0, at);
  }

  // Split "kind[:arg[:arg]]".
  std::string_view kind = body;
  std::string_view arg;
  if (const auto colon = body.find(':'); colon != std::string_view::npos) {
    kind = body.substr(0, colon);
    arg = body.substr(colon + 1);
  }

  if (kind == "cell_throw") {
    c.kind = FaultKind::kCellThrow;
    c.pattern = std::string(arg);
    if (c.pattern.empty() && c.occurrence == 0) {
      bad_clause(clause,
                 "needs a cell glob, an '@N' occurrence, or both (a bare "
                 "cell_throw would fail every cell)");
    }
  } else if (kind == "torn_write") {
    c.kind = FaultKind::kTornWrite;
    if (arg.empty()) {
      bad_clause(clause, "needs a site, e.g. torn_write:cache@2");
    }
    c.pattern = std::string(arg);
    if (c.occurrence == 0) {
      bad_clause(clause, "needs an '@N' occurrence (a torn write on every "
                         "commit would never converge)");
    }
  } else if (kind == "enospc") {
    c.kind = FaultKind::kEnospc;
    c.pattern = std::string(arg);  // empty = any site
    if (c.occurrence == 0) {
      bad_clause(clause, "needs an '@N' occurrence");
    }
  } else if (kind == "slow_cell") {
    c.kind = FaultKind::kSlowCell;
    // slow_cell:GLOB:DURms — the glob may itself contain ':'-free text
    // only; the duration is the final ':'-separated token.
    const auto last = arg.rfind(':');
    if (last == std::string_view::npos) {
      bad_clause(clause, "needs a glob and a duration, e.g. "
                         "slow_cell:fig3*:200ms");
    }
    c.pattern = std::string(arg.substr(0, last));
    std::string_view dur = arg.substr(last + 1);
    if (dur.size() < 3 || dur.substr(dur.size() - 2) != "ms") {
      bad_clause(clause, "duration must end in 'ms'");
    }
    std::size_t ms = 0;
    if (!parse_count(dur.substr(0, dur.size() - 2), ms) || ms == 0) {
      bad_clause(clause, "duration '" + std::string(dur) +
                             "' must be a positive millisecond count");
    }
    if (c.pattern.empty()) {
      bad_clause(clause, "needs a non-empty cell glob");
    }
    c.delay = std::chrono::milliseconds(ms);
  } else {
    bad_clause(clause, "unknown fault kind '" + std::string(kind) +
                           "' (expected cell_throw, torn_write, enospc or "
                           "slow_cell)");
  }
  return c;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string_view raw =
        spec.substr(start, comma == std::string_view::npos
                               ? std::string_view::npos
                               : comma - start);
    const std::string_view clause = trim(raw);
    if (!clause.empty()) {
      plan.clauses_.push_back(parse_clause(clause));
    } else if (!trim(spec).empty()) {
      throw std::invalid_argument(
          "fault spec: empty clause (stray comma?) in '" +
          std::string(spec) + "'");
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return plan;
}

WriteAction FaultPlan::on_write(std::string_view site) {
  // Un-named writes are exempt: atomicity still applies, injection never
  // does (and their operations must not advance occurrence counters, or a
  // test-targeted "@N" would drift with unrelated writes).
  if (site.empty()) return WriteAction::kNone;
  std::lock_guard lock(mutex_);
  WriteAction action = WriteAction::kNone;
  for (auto& c : clauses_) {
    if (c.kind != FaultKind::kTornWrite && c.kind != FaultKind::kEnospc) {
      continue;
    }
    if (!c.pattern.empty() && !glob_match(c.pattern, site)) continue;
    ++c.seen;
    if (c.occurrence != 0 && c.seen != c.occurrence) continue;
    if (c.kind == FaultKind::kEnospc) {
      action = WriteAction::kFail;  // kFail wins over kTorn
    } else if (action == WriteAction::kNone) {
      action = WriteAction::kTorn;
    }
  }
  return action;
}

std::chrono::milliseconds FaultPlan::on_cell_attempt(
    std::string_view label) {
  std::chrono::milliseconds stall{0};
  bool do_throw = false;
  {
    std::lock_guard lock(mutex_);
    for (auto& c : clauses_) {
      if (c.kind == FaultKind::kSlowCell) {
        if (glob_match(c.pattern, label)) stall += c.delay;
        continue;
      }
      if (c.kind != FaultKind::kCellThrow) continue;
      if (!c.pattern.empty() && !glob_match(c.pattern, label)) continue;
      ++c.seen;
      if (c.occurrence == 0 || c.seen == c.occurrence) do_throw = true;
    }
  }
  if (do_throw) {
    throw InjectedFault("exception", "injected cell fault (cell_throw) at "
                                     "cell '" + std::string(label) + "'");
  }
  return stall;
}

namespace {

std::mutex g_plan_mutex;
std::unique_ptr<FaultPlan> g_plan;

}  // namespace

FaultPlan& active_plan() {
  std::lock_guard lock(g_plan_mutex);
  if (!g_plan) g_plan = std::make_unique<FaultPlan>();
  return *g_plan;
}

void set_active_spec(std::string_view spec) {
  auto plan = std::make_unique<FaultPlan>(FaultPlan::parse(spec));
  std::lock_guard lock(g_plan_mutex);
  g_plan = std::move(plan);
}

void clear_active_plan() {
  std::lock_guard lock(g_plan_mutex);
  g_plan.reset();
}

}  // namespace omv::fault
