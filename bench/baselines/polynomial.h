// Quadratic polynomial group model: an additional bundled model showing
// the "extensible set of models" of MMGC (paper §1/§3.1; related work
// fits polynomial functions, e.g. FunctionDB and the regression models of
// Eichinger et al.).
//
// Group extension in the style of §5.2: per sampling instant only the
// intersection of the instant's allowed value intervals matters. The model
// keeps a least-squares quadratic over the interval midpoints and accepts
// a row iff the refitted curve stays inside every buffered interval (an
// O(n) check per append, bounded by the model length limit).
//
// Not part of the library — the paper's evaluation uses PMC/Swing/Gorilla —
// but an ordinary user model: ExtendedRegistry() adds it through the public
// RegisterModel extension path (§3.1), and bench_ablation_polynomial
// measures what it adds.

#ifndef MODELARDB_BENCH_BASELINES_POLYNOMIAL_H_
#define MODELARDB_BENCH_BASELINES_POLYNOMIAL_H_

#include <array>
#include <memory>
#include <vector>

#include "core/model.h"

namespace modelardb {

inline constexpr Mid kMidPolynomial = 105;  // A user Mid (>= kMinUserMid).

class PolynomialModel : public Model {
 public:
  explicit PolynomialModel(const ModelConfig& config);

  Mid mid() const override { return kMidPolynomial; }
  const char* name() const override { return "Polynomial"; }
  bool Append(const Value* values) override;
  int length() const override { return length_; }
  size_t ParameterSizeBytes() const override { return 3 * sizeof(double); }
  std::vector<uint8_t> SerializeParameters(int prefix_length) const override;
  void Reset() override;

  static std::unique_ptr<Model> Create(const ModelConfig& config);
  static Result<std::unique_ptr<SegmentDecoder>> Decode(
      ByteSpan params, int num_series, int length);

 private:
  // Solves the 3x3 least-squares system for the current midpoints.
  // Returns false when the system is singular.
  bool Solve(std::array<double, 3>* coeffs) const;
  // Whether q(i) = c0 + c1 i + c2 i^2 lies inside every buffered interval.
  bool FitsAll(const std::array<double, 3>& coeffs) const;

  ModelConfig config_;
  int length_ = 0;
  // Allowed interval per accepted row (intersection across the group).
  std::vector<double> lows_;
  std::vector<double> highs_;
  // Moment sums over midpoints: sum x^0..x^4 and sum x^k * y, k = 0..2.
  std::array<double, 5> sx_ = {};
  std::array<double, 3> sxy_ = {};
  std::array<double, 3> coeffs_ = {};  // Valid for the accepted rows.
};

// Decodes v(row) = c0 + c1 row + c2 row^2 (same curve for all series).
class PolynomialDecoder : public SegmentDecoder {
 public:
  PolynomialDecoder(double c0, double c1, double c2, int num_series,
                    int length)
      : c0_(c0), c1_(c1), c2_(c2), num_series_(num_series), length_(length) {}

  int num_series() const override { return num_series_; }
  int length() const override { return length_; }
  Value ValueAt(int row, int) const override {
    double x = row;
    return static_cast<Value>(c0_ + c1_ * x + c2_ * x * x);
  }
  AggregateSummary AggregateRange(int from_row, int to_row,
                                  int col) const override;
  bool HasConstantTimeAggregates() const override { return true; }

 private:
  double c0_, c1_, c2_;
  int num_series_;
  int length_;
};

// ModelRegistry::Default() with the polynomial model registered after
// Gorilla: fitting sequence PMC-Mean -> Swing -> Gorilla -> Polynomial.
ModelRegistry ExtendedRegistry();

}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_POLYNOMIAL_H_
