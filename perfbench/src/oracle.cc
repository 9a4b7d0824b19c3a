#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

using fastmatch::Column;
using fastmatch::ValueType;

// Decodes rows [0, n) of one raw chunk into `out`.
void Decode(const Column& col, int64_t chunk, int64_t n, uint32_t* out) {
  const uint8_t* raw = col.chunk_bytes(chunk);
  switch (col.type()) {
    case ValueType::kU8:
      for (int64_t i = 0; i < n; ++i) out[i] = raw[i];
      break;
    case ValueType::kU16:
      for (int64_t i = 0; i < n; ++i) {
        uint16_t v;
        std::memcpy(&v, raw + 2 * i, 2);
        out[i] = v;
      }
      break;
    case ValueType::kU32:
      std::memcpy(out, raw, static_cast<size_t>(n) * 4);
      break;
  }
}

double L1(const int64_t* row, int64_t total, const std::vector<double>& q) {
  if (total == 0) return 2.0;  // no rows: the farthest possible histogram
  double d = 0;
  for (size_t x = 0; x < q.size(); ++x) {
    d += std::fabs(static_cast<double>(row[x]) / static_cast<double>(total) -
                   q[x]);
  }
  return d;
}

}  // namespace

OracleCounts CountTemplate(const fastmatch::ColumnStore& store, int z_attr,
                           int x_attr) {
  const Column& zc = store.column(z_attr);
  const Column& xc = store.column(x_attr);
  OracleCounts out;
  out.vz = static_cast<int>(store.schema().attribute(z_attr).cardinality);
  out.vx = static_cast<int>(store.schema().attribute(x_attr).cardinality);
  out.rows = zc.size();
  out.cells.assign(static_cast<size_t>(out.vz) * out.vx, 0);
  out.totals.assign(static_cast<size_t>(out.vz), 0);
  const int64_t chunk_rows = zc.chunk_rows();
  std::vector<uint32_t> z(static_cast<size_t>(chunk_rows));
  std::vector<uint32_t> x(static_cast<size_t>(chunk_rows));
  for (int64_t c = 0; c * chunk_rows < out.rows; ++c) {
    const int64_t n = std::min(chunk_rows, out.rows - c * chunk_rows);
    Decode(zc, c, n, z.data());
    Decode(xc, c, n, x.data());
    for (int64_t i = 0; i < n; ++i) {
      out.cells[static_cast<size_t>(z[i]) * out.vx + x[i]] += 1;
      out.totals[z[i]] += 1;
    }
  }
  return out;
}

OracleAnswer Rank(const OracleCounts& counts, const std::vector<double>& target,
                  double sigma, int k) {
  OracleAnswer a;
  a.distance.resize(static_cast<size_t>(counts.vz));
  a.eligible.resize(static_cast<size_t>(counts.vz));
  std::vector<int> eligible;
  for (int i = 0; i < counts.vz; ++i) {
    a.distance[i] = L1(&counts.cells[static_cast<size_t>(i) * counts.vx],
                       counts.totals[i], target);
    a.eligible[i] = static_cast<double>(counts.totals[i]) >=
                    sigma * static_cast<double>(counts.rows);
    if (a.eligible[i]) eligible.push_back(i);
  }
  std::sort(eligible.begin(), eligible.end(), [&](int l, int r) {
    return a.distance[l] < a.distance[r] ||
           (a.distance[l] == a.distance[r] && l < r);
  });
  eligible.resize(std::min(eligible.size(), static_cast<size_t>(k)));
  a.topk = std::move(eligible);
  return a;
}

Verdict Check(const OracleCounts& counts, const OracleAnswer& answer,
              const fastmatch::MatchResult& result, double epsilon) {
  Verdict v;
  std::vector<bool> in_m(static_cast<size_t>(counts.vz), false);
  double farthest_in_m = 0;
  for (int i : result.topk) {
    in_m[i] = true;
    farthest_in_m = std::max(farthest_in_m, answer.distance[i]);
  }
  // Guarantee 1: every eligible candidate left out is at most epsilon
  // closer to the target than every returned one.
  for (int j = 0; j < counts.vz; ++j) {
    if (!in_m[j] && answer.eligible[j] &&
        !(farthest_in_m - answer.distance[j] < epsilon)) {
      v.separation_ok = false;
    }
  }
  // Guarantee 2: each returned histogram estimate is within epsilon of
  // the true histogram in l1.
  for (int i : result.topk) {
    const int64_t est_n = result.counts.RowTotal(i);
    const int64_t true_n = counts.totals[i];
    double err = 0;
    if (est_n == 0 || true_n == 0) {
      err = (est_n == 0 && true_n == 0) ? 0 : 2.0;
    } else {
      for (int x = 0; x < counts.vx; ++x) {
        err += std::fabs(
            static_cast<double>(result.counts.At(i, x)) / est_n -
            static_cast<double>(counts.cells[static_cast<size_t>(i) *
                                                 counts.vx + x]) / true_n);
      }
    }
    if (!(err < epsilon)) v.reconstruction_ok = false;
  }
  for (int i = 0; i < counts.vz; ++i) {
    if (static_cast<size_t>(i) < result.exact.size() && result.exact[i] &&
        !(std::fabs(result.distances[i] - answer.distance[i]) <= 1e-9)) {
      ++v.exact_mismatches;
    }
  }
  std::vector<int> got = result.topk, want = answer.topk;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  v.topk_equal = got == want;
  return v;
}

int64_t BinomialUpperLimit(int64_t n, double p, double tail) {
  if (n <= 0 || p <= 0) return 0;
  if (p >= 1) return n;
  // pmf(c) by the ratio recurrence, in log space so large n cannot
  // underflow pmf(0).
  double log_pmf = static_cast<double>(n) * std::log1p(-p);
  const double log_ratio = std::log(p) - std::log1p(-p);
  double cdf = std::exp(log_pmf);
  int64_t c = 0;
  while (c < n && 1.0 - cdf >= tail) {
    log_pmf += std::log(static_cast<double>(n - c)) -
               std::log(static_cast<double>(c + 1)) + log_ratio;
    ++c;
    cdf += std::exp(log_pmf);
  }
  return c;
}

}  // namespace perfbench
