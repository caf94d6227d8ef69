#ifndef TRICLUST_PERFBENCH_CALIBRATE_H_
#define TRICLUST_PERFBENCH_CALIBRATE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Measures how fast the host runs right now, so that timings taken on a
/// shared machine can be reported at one reference speed.
///
/// A unit is a fixed amount of arithmetic written here, not in the
/// library, shaped like the solver's inner loops: a CSR matrix times a
/// 3-column dense matrix, its transpose product, and a multiplicative
/// update with a square root and a division per entry. Its inputs come
/// from a fixed internal seed, so a unit does the same work in every run,
/// for every workload and seed, and no change to the library moves it.
/// The workloads run units between their timed steps, outside the clocks
/// of those steps, and divide each step's time by FactorAround() the step:
/// on this kind of host the speed changes within seconds (a shared core
/// runs the same code up to 1.7x slower while a neighbour is busy), so a
/// step is compared with the units run just before and just after it.
class Calibrator {
 public:
  Calibrator();

  /// Runs one unit and records its time.
  void RunUnit();
  void RunUnits(int count) {
    for (int i = 0; i < count; ++i) RunUnit();
  }

  /// How slow the host ran around a step that began when units() was
  /// `mark`: the mean time of the `count` units before that point and the
  /// `count` units after it (fewer at either end of the run), divided by
  /// kReferenceUnitMs. 1 at reference speed, 1.5 when units take half as
  /// long again; 1 when no unit ran.
  double FactorAround(size_t mark, size_t count) const;

  /// The same over every unit of the run, with the fastest and slowest
  /// tenth left out. Reported beside the calibrated metrics.
  double Factor() const;

  size_t units() const { return unit_ms_.size(); }

  /// The unit time the factors are relative to. The value only sets the
  /// scale of the calibrated metrics; it is close to the fastest unit time
  /// seen on a 4-vCPU Xeon (Sapphire Rapids) KVM guest.
  static constexpr double kReferenceUnitMs = 8.0;

 private:
  std::vector<int> row_ptr_;
  std::vector<int> col_;
  std::vector<double> val_;
  std::vector<double> right_;  // cols x 3
  std::vector<double> left0_;  // rows x 3, the update's starting point
  std::vector<double> left_;
  std::vector<double> product_;     // rows x 3
  std::vector<double> transposed_;  // cols x 3
  std::vector<double> unit_ms_;
  double sink_ = 0.0;
};

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_CALIBRATE_H_
