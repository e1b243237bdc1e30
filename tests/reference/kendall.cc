#include "reference/kendall.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/parallel.h"

namespace dpcopula::reference {

namespace {

std::uint64_t MergeCountInversions(std::vector<double>* values,
                                   std::vector<double>* scratch,
                                   std::size_t lo, std::size_t hi) {
  if (hi - lo <= 1) return 0;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::uint64_t count = MergeCountInversions(values, scratch, lo, mid) +
                        MergeCountInversions(values, scratch, mid, hi);
  std::size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if ((*values)[j] < (*values)[i]) {
      count += mid - i;
      (*scratch)[k++] = (*values)[j++];
    } else {
      (*scratch)[k++] = (*values)[i++];
    }
  }
  while (i < mid) (*scratch)[k++] = (*values)[i++];
  while (j < hi) (*scratch)[k++] = (*values)[j++];
  std::copy(scratch->begin() + static_cast<std::ptrdiff_t>(lo),
            scratch->begin() + static_cast<std::ptrdiff_t>(hi),
            values->begin() + static_cast<std::ptrdiff_t>(lo));
  return count;
}

// Sum over groups of equal values of C(group_size, 2); `sorted` must be
// sorted.
std::uint64_t TiedPairs(const std::vector<double>& sorted) {
  std::uint64_t ties = 0;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const std::uint64_t g = j - i;
    ties += g * (g - 1) / 2;
    i = j;
  }
  return ties;
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

// The shape and finiteness checks of stats::KendallTau, with its messages.
Status CheckPair(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("KendallTau: size mismatch");
  }
  if (x.size() < 2) {
    return Status::InvalidArgument("KendallTau needs at least 2 points");
  }
  if (!AllFinite(x) || !AllFinite(y)) {
    return Status::InvalidArgument("KendallTau: non-finite input");
  }
  return Status::OK();
}

}  // namespace

std::uint64_t CountInversions(std::vector<double> values) {
  std::vector<double> scratch(values.size());
  return MergeCountInversions(&values, &scratch, 0, values.size());
}

Result<double> KendallTauKnight(const std::vector<double>& x,
                                const std::vector<double>& y) {
  DPC_RETURN_NOT_OK(CheckPair(x, y));
  const std::size_t n = x.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return y[a] < y[b];
  });
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = x[order[i]];
    ys[i] = y[order[i]];
  }

  // Pairs tied on x, and pairs tied on both (y-runs within an x-group).
  std::uint64_t ties_x = 0;
  std::uint64_t ties_xy = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && xs[j] == xs[i]) ++j;
    const std::uint64_t g = j - i;
    ties_x += g * (g - 1) / 2;
    std::vector<double> group(ys.begin() + static_cast<std::ptrdiff_t>(i),
                              ys.begin() + static_cast<std::ptrdiff_t>(j));
    std::sort(group.begin(), group.end());
    ties_xy += TiedPairs(group);
    i = j;
  }

  // Discordant pairs among x-distinct pairs = inversions of y in x-order;
  // the merge sort leaves y sorted for the y-tie count.
  std::vector<double> scratch(n);
  const std::uint64_t discordant = MergeCountInversions(&ys, &scratch, 0, n);
  const std::uint64_t ties_y = TiedPairs(ys);

  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const std::uint64_t concordant =
      total - (ties_x + ties_y - ties_xy) - discordant;
  return (static_cast<double>(concordant) -
          static_cast<double>(discordant)) /
         static_cast<double>(total);
}

Result<double> KendallTauBruteForce(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  DPC_RETURN_NOT_OK(CheckPair(x, y));
  const std::size_t n = x.size();
  std::int64_t net = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double prod = (x[i] - x[j]) * (y[i] - y[j]);
      if (prod > 0.0) ++net;
      if (prod < 0.0) --net;
    }
  }
  return static_cast<double>(net) / (static_cast<double>(n) * (n - 1) / 2.0);
}

Result<copula::KendallEstimate> EstimateKendallCorrelationKnight(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::KendallEstimatorOptions& options) {
  auto knight_taus =
      [&](const std::vector<const std::vector<double>*>& cols,
          const std::vector<std::pair<std::size_t, std::size_t>>& pairs)
      -> Result<std::vector<double>> {
    std::vector<Result<double>> taus(
        pairs.size(), Result<double>(Status::Internal("pair not computed")));
    ParallelFor(
        0, pairs.size(), /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            taus[i] = KendallTauKnight(*cols[pairs[i].first],
                                       *cols[pairs[i].second]);
          }
        },
        options.num_threads);
    std::vector<double> out;
    out.reserve(taus.size());
    for (const Result<double>& tau : taus) {
      if (!tau.ok()) return tau.status();  // Lowest-index failure.
      out.push_back(*tau);
    }
    return out;
  };
  return copula::internal::EstimateKendallCorrelation(table, epsilon2, rng,
                                                      options, knight_taus);
}

}  // namespace dpcopula::reference
