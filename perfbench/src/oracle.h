// The benchmark's answer oracle, computed apart from the program.
//
// Exact candidate x group counts come from the benchmark's own loop
// over the store's raw column chunks (not ComputeExactCounts or
// AccumulateExact); distances, eligibility, top-k and the paper's
// Guarantees 1 and 2 are coded here from their definitions (paper
// Problem 1), not through CheckGuarantees.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/histsim.h"
#include "storage/column_store.h"

namespace perfbench {

/// \brief Exact counts of one (Z, X) template.
struct OracleCounts {
  int vz = 0;
  int vx = 0;
  int64_t rows = 0;
  std::vector<int64_t> cells;   // vz * vx, candidate-major
  std::vector<int64_t> totals;  // per candidate
};

OracleCounts CountTemplate(const fastmatch::ColumnStore& store, int z_attr,
                           int x_attr);

/// \brief The exact answer for one target.
struct OracleAnswer {
  std::vector<double> distance;  // l1 to the target; 2 for empty rows
  std::vector<bool> eligible;    // selectivity >= sigma
  std::vector<int> topk;         // eligible, ascending distance, ties by id
};

OracleAnswer Rank(const OracleCounts& counts,
                  const std::vector<double>& target, double sigma, int k);

/// \brief One answer checked against the oracle.
struct Verdict {
  bool separation_ok = true;      // Guarantee 1
  bool reconstruction_ok = true;  // Guarantee 2
  /// Candidates flagged exact whose distance is not the oracle's.
  int exact_mismatches = 0;
  /// The returned set equals the exact top-k set.
  bool topk_equal = false;
};

Verdict Check(const OracleCounts& counts, const OracleAnswer& answer,
              const fastmatch::MatchResult& result, double epsilon);

/// \brief Smallest c with P(Binomial(n, p) > c) < tail.
int64_t BinomialUpperLimit(int64_t n, double p, double tail);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
