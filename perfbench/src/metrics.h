// Metric definitions of the benchmark, kept apart from the program's own
// statistics code so that a change to the library cannot silently redefine
// what the benchmark reports, plus the text form in which a plan passes
// from a set-up process to the measured run.  Everything here is a pure
// function of its arguments and is covered by tests/test_metrics.cc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/metrics.h"
#include "parallel/plan.h"

namespace perfbench {

/// Percentile with linear interpolation between closest ranks; `p` in
/// [0, 100].  Returns 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// SLO grading of one run over every request SENT.  A request attains the
/// SLO only if it finished and engine::meets_slo accepts it, so unfinished
/// and never-prefilled requests count as misses.
struct Grade {
  std::size_t sent = 0;
  std::size_t finished = 0;    // records that finished
  std::size_t unfinished = 0;  // records that did not, plus requests sent without a record
  std::size_t attained = 0;

  double attainment() const { return sent == 0 ? 0.0 : double(attained) / double(sent); }
  double unfinished_frac() const { return sent == 0 ? 0.0 : double(unfinished) / double(sent); }
  /// The pass criterion of the slo_rate_rps search.
  bool meets(double target) const { return attainment() >= target && unfinished == 0; }
};

Grade grade(const std::vector<hetis::engine::RequestRecord>& records, std::size_t sent,
            const hetis::engine::SloSpec& slo);

/// Highest `x` in [lo, hi] found by `steps` halvings for a predicate that
/// holds below some boundary and fails above it.  `ok(lo)` is assumed true
/// and `ok(hi)` false; the result is the last point known to pass.
template <class Ok>
double bisect_boundary(double lo, double hi, int steps, Ok&& ok) {
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ok(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// 64-bit FNV-1a, fed field by field.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <class T>
  void add(const T& v) {
    add_bytes(&v, sizeof(v));
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Digest of every per-request record (bit patterns of the times) plus the
/// number of simulation events the run executed.
std::string run_digest(const std::vector<hetis::engine::RequestRecord>& records,
                       std::size_t events);

/// First record that breaks arrival <= first token <= finish, as a message;
/// "" when every record is ordered.
std::string check_record_order(const std::vector<hetis::engine::RequestRecord>& records);

/// Text form of a plan: instances joined by ';', each its stages joined by
/// '/' then '@' and its Attention workers joined by ','; a stage is
/// "dev.dev:layers:extra_reserved".  Example: "0.1:26:0/4.5:14:0@8,9".
std::string plan_to_text(const hetis::parallel::ParallelPlan& plan);
/// Inverse of plan_to_text; throws std::invalid_argument on malformed text.
hetis::parallel::ParallelPlan plan_from_text(const std::string& text);

}  // namespace perfbench
