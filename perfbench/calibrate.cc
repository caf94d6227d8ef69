#include "perfbench/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace perfbench {
namespace {

// The shape of Xp in offline_batch: n tweets x l features, ~9 per tweet.
constexpr int kRows = 24000;
constexpr int kCols = 700;
constexpr int kNnzPerRow = 9;
constexpr int kRank = 3;
/// Sweeps per unit, sized so one unit takes about kReferenceUnitMs.
constexpr int kSweepsPerUnit = 8;

}  // namespace

Calibrator::Calibrator()
    : right_(kCols * kRank),
      left0_(kRows * kRank),
      product_(kRows * kRank),
      transposed_(kCols * kRank) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  row_ptr_.reserve(kRows + 1);
  row_ptr_.push_back(0);
  for (int r = 0; r < kRows; ++r) {
    for (int k = 0; k < kNnzPerRow; ++k) {
      col_.push_back(static_cast<int>(next() % kCols));
      val_.push_back(1.0 + (next() % 4));
    }
    row_ptr_.push_back(static_cast<int>(col_.size()));
  }
  for (double& x : right_) x = 0.1 + (next() % 100) / 100.0;
  for (double& x : left0_) x = 0.1 + (next() % 100) / 100.0;
  left_ = left0_;
}

void Calibrator::RunUnit() {
  const auto start = std::chrono::steady_clock::now();
  std::copy(left0_.begin(), left0_.end(), left_.begin());
  for (int sweep = 0; sweep < kSweepsPerUnit; ++sweep) {
    // product = X * right
    for (int r = 0; r < kRows; ++r) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0;
      for (int p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        const double* b = &right_[kRank * col_[p]];
        s0 += val_[p] * b[0];
        s1 += val_[p] * b[1];
        s2 += val_[p] * b[2];
      }
      product_[kRank * r] = s0;
      product_[kRank * r + 1] = s1;
      product_[kRank * r + 2] = s2;
    }
    // transposed = X^T * left
    std::fill(transposed_.begin(), transposed_.end(), 0.0);
    for (int r = 0; r < kRows; ++r) {
      const double* a = &left_[kRank * r];
      for (int p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        double* t = &transposed_[kRank * col_[p]];
        t[0] += val_[p] * a[0];
        t[1] += val_[p] * a[1];
        t[2] += val_[p] * a[2];
      }
    }
    // left <- left * sqrt(product / (left * G)), G = right^T right
    double g[kRank][kRank] = {};
    for (int c = 0; c < kCols; ++c) {
      for (int i = 0; i < kRank; ++i) {
        for (int j = 0; j < kRank; ++j) {
          g[i][j] += right_[kRank * c + i] * right_[kRank * c + j];
        }
      }
    }
    for (int r = 0; r < kRows; ++r) {
      double* a = &left_[kRank * r];
      const double a0 = a[0], a1 = a[1], a2 = a[2];
      for (int j = 0; j < kRank; ++j) {
        const double den = a0 * g[0][j] + a1 * g[1][j] + a2 * g[2][j];
        a[j] *= std::sqrt(product_[kRank * r + j] / (den + 1e-12));
      }
    }
    sink_ += left_[sweep] + transposed_[sweep];
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  unit_ms_.push_back(elapsed.count());
}

double Calibrator::FactorAround(size_t mark, size_t count) const {
  const size_t begin = mark > count ? mark - count : 0;
  const size_t end = std::min(unit_ms_.size(), mark + count);
  if (begin >= end) return 1.0;
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) total += unit_ms_[i];
  return total / static_cast<double>(end - begin) / kReferenceUnitMs;
}

double Calibrator::Factor() const {
  if (unit_ms_.empty()) return 1.0;
  std::vector<double> sorted = unit_ms_;
  std::sort(sorted.begin(), sorted.end());
  const size_t trim = sorted.size() / 10;
  double total = 0.0;
  for (size_t i = trim; i < sorted.size() - trim; ++i) total += sorted[i];
  const double mean = total / static_cast<double>(sorted.size() - 2 * trim);
  return mean / kReferenceUnitMs;
}

}  // namespace perfbench
