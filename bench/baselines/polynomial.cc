#include "bench/baselines/polynomial.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/buffer.h"

namespace modelardb {

PolynomialModel::PolynomialModel(const ModelConfig& config)
    : config_(config) {
  lows_.reserve(config.length_limit);
  highs_.reserve(config.length_limit);
}

std::unique_ptr<Model> PolynomialModel::Create(const ModelConfig& config) {
  return std::make_unique<PolynomialModel>(config);
}

bool PolynomialModel::Solve(std::array<double, 3>* coeffs) const {
  // Normal equations A c = b with A[i][j] = sum x^(i+j), b[i] = sum x^i y.
  double a[3][4] = {
      {sx_[0], sx_[1], sx_[2], sxy_[0]},
      {sx_[1], sx_[2], sx_[3], sxy_[1]},
      {sx_[2], sx_[3], sx_[4], sxy_[2]},
  };
  // With fewer than 3 points the system is rank-deficient; constrain the
  // unused coefficients to zero by solving the lower-order system.
  int order = std::min<int>(3, length_);
  for (int col = 0; col < order; ++col) {
    // Partial pivoting.
    int pivot = col;
    for (int row = col + 1; row < order; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[col], a[pivot]);
    for (int row = col + 1; row < order; ++row) {
      double f = a[row][col] / a[col][col];
      for (int k = col; k <= 3; ++k) a[row][k] -= f * a[col][k];
    }
  }
  std::array<double, 3> out = {0.0, 0.0, 0.0};
  for (int row = order - 1; row >= 0; --row) {
    double v = a[row][3];
    for (int k = row + 1; k < order; ++k) v -= a[row][k] * out[k];
    out[row] = v / a[row][row];
  }
  *coeffs = out;
  return true;
}

bool PolynomialModel::FitsAll(const std::array<double, 3>& coeffs) const {
  for (size_t i = 0; i < lows_.size(); ++i) {
    double x = static_cast<double>(i);
    double q = coeffs[0] + coeffs[1] * x + coeffs[2] * x * x;
    // The stored parameters are doubles but reconstruction goes through
    // float; validate the float-rounded value.
    double as_float = static_cast<double>(static_cast<Value>(q));
    if (as_float < lows_[i] || as_float > highs_[i]) return false;
  }
  return true;
}

bool PolynomialModel::Append(const Value* values) {
  if (length_ >= config_.length_limit) return false;
  double low = config_.error_bound.LowerAllowed(values[0]);
  double high = config_.error_bound.UpperAllowed(values[0]);
  for (int i = 1; i < config_.num_series; ++i) {
    low = std::max(low, config_.error_bound.LowerAllowed(values[i]));
    high = std::min(high, config_.error_bound.UpperAllowed(values[i]));
  }
  if (low > high) return false;

  double x = static_cast<double>(length_);
  double y = (low + high) / 2.0;
  std::array<double, 5> sx = sx_;
  std::array<double, 3> sxy = sxy_;
  double xp = 1.0;
  for (int k = 0; k < 5; ++k, xp *= x) sx[k] += xp;
  xp = 1.0;
  for (int k = 0; k < 3; ++k, xp *= x) sxy[k] += xp * y;

  lows_.push_back(low);
  highs_.push_back(high);
  std::array<double, 5> saved_sx = sx_;
  std::array<double, 3> saved_sxy = sxy_;
  sx_ = sx;
  sxy_ = sxy;
  ++length_;

  std::array<double, 3> coeffs;
  if (Solve(&coeffs) && FitsAll(coeffs)) {
    coeffs_ = coeffs;
    return true;
  }
  // Roll back: the model still represents the previous rows.
  lows_.pop_back();
  highs_.pop_back();
  sx_ = saved_sx;
  sxy_ = saved_sxy;
  --length_;
  return false;
}

std::vector<uint8_t> PolynomialModel::SerializeParameters(
    int prefix_length) const {
  // The accepted curve fits every buffered interval, hence any prefix.
  (void)prefix_length;
  BufferWriter writer;
  writer.WriteDouble(coeffs_[0]);
  writer.WriteDouble(coeffs_[1]);
  writer.WriteDouble(coeffs_[2]);
  return writer.Finish();
}

void PolynomialModel::Reset() {
  length_ = 0;
  lows_.clear();
  highs_.clear();
  sx_ = {};
  sxy_ = {};
  coeffs_ = {};
}

Result<std::unique_ptr<SegmentDecoder>> PolynomialModel::Decode(
    ByteSpan params, int num_series, int length) {
  BufferReader reader(params);
  MODELARDB_ASSIGN_OR_RETURN(double c0, reader.ReadDouble());
  MODELARDB_ASSIGN_OR_RETURN(double c1, reader.ReadDouble());
  MODELARDB_ASSIGN_OR_RETURN(double c2, reader.ReadDouble());
  return std::unique_ptr<SegmentDecoder>(
      new PolynomialDecoder(c0, c1, c2, num_series, length));
}

AggregateSummary PolynomialDecoder::AggregateRange(int from_row, int to_row,
                                                   int col) const {
  (void)col;
  AggregateSummary out;
  int64_t n = to_row - from_row + 1;
  out.count = n;
  // Closed forms: sum q(i) = c0 n + c1 sum i + c2 sum i^2 over the range.
  auto sum1 = [](int64_t m) {  // sum_{i=0..m} i
    return static_cast<double>(m) * (m + 1) / 2.0;
  };
  auto sum2 = [](int64_t m) {  // sum_{i=0..m} i^2
    return static_cast<double>(m) * (m + 1) * (2 * m + 1) / 6.0;
  };
  double s1 = sum1(to_row) - (from_row > 0 ? sum1(from_row - 1) : 0.0);
  double s2 = sum2(to_row) - (from_row > 0 ? sum2(from_row - 1) : 0.0);
  out.sum = c0_ * static_cast<double>(n) + c1_ * s1 + c2_ * s2;
  // Min/max of a quadratic on the integer grid [from, to]: the endpoints
  // plus the grid rows surrounding the vertex when it lies inside.
  double candidates[4] = {ValueAt(from_row, 0), ValueAt(to_row, 0), 0.0, 0.0};
  int num_candidates = 2;
  if (c2_ != 0.0) {
    double vertex = -c1_ / (2.0 * c2_);
    if (vertex >= from_row && vertex <= to_row) {
      int lo = std::clamp(static_cast<int>(std::floor(vertex)), from_row,
                          to_row);
      int hi = std::clamp(static_cast<int>(std::ceil(vertex)), from_row,
                          to_row);
      candidates[num_candidates++] = ValueAt(lo, 0);
      if (hi != lo) candidates[num_candidates++] = ValueAt(hi, 0);
    }
  }
  out.min = candidates[0];
  out.max = candidates[0];
  for (int i = 1; i < num_candidates; ++i) {
    out.min = std::min(out.min, candidates[i]);
    out.max = std::max(out.max, candidates[i]);
  }
  return out;
}

ModelRegistry ExtendedRegistry() {
  ModelRegistry registry = ModelRegistry::Default();
  // A fresh user Mid on a fresh registry: registration cannot fail.
  if (!registry
           .RegisterModel(kMidPolynomial, "Polynomial",
                          PolynomialModel::Create, PolynomialModel::Decode)
           .ok()) {
    std::abort();
  }
  return registry;
}

}  // namespace modelardb
