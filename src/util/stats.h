#ifndef QCFE_UTIL_STATS_H_
#define QCFE_UTIL_STATS_H_

/// \file stats.h
/// Metric utilities used throughout the evaluation: q-error (paper Eq. 2),
/// Pearson correlation (paper Eq. 3), quantiles and summary statistics.

#include <cstddef>
#include <vector>

namespace qcfe {

/// q-error of one prediction (paper Equation 2):
///   max(actual/predict, predict/actual), both clamped away from zero.
/// A perfect prediction scores 1.0; the metric is symmetric in over/under
/// estimation. Non-positive inputs are clamped to `floor` first (real query
/// latencies are positive; learned models may emit tiny negatives). A NaN or
/// ±inf in either argument scores +inf, the worst possible q-error, so a
/// broken prediction can never compare as better than a finite one.
double QError(double actual, double predicted, double floor = 1e-6);

/// Element-wise q-errors for two aligned vectors.
std::vector<double> QErrors(const std::vector<double>& actual,
                            const std::vector<double>& predicted);

/// Arithmetic mean; returns 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Population variance; returns 0 for fewer than 2 elements.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double Stddev(const std::vector<double>& xs);

/// Pearson correlation coefficient (paper Equation 3). Returns 0 when either
/// side is constant (undefined correlation).
double Pearson(const std::vector<double>& a, const std::vector<double>& b);

/// Quantile with linear interpolation, q in [0, 1]. Copies and sorts.
double Quantile(std::vector<double> xs, double q);

/// Summary bundle reported by the harness for one model/benchmark/scale cell.
struct MetricSummary {
  double pearson = 0.0;
  double mean_qerror = 0.0;
  double median_qerror = 0.0;
  double q25 = 0.0;   ///< 25th percentile q-error (Fig. 5 box lower edge)
  double q75 = 0.0;   ///< 75th percentile q-error (Fig. 5 box upper edge)
  double q90 = 0.0;   ///< 90th percentile q-error
  double q95 = 0.0;   ///< 95th percentile q-error
  double max_qerror = 0.0;
  size_t count = 0;
};

/// Computes the full summary from aligned actual/predicted vectors.
MetricSummary Summarize(const std::vector<double>& actual,
                        const std::vector<double>& predicted);

}  // namespace qcfe

#endif  // QCFE_UTIL_STATS_H_
