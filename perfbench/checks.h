#ifndef TRICLUST_PERFBENCH_CHECKS_H_
#define TRICLUST_PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "src/core/result.h"
#include "src/serving/campaign_engine.h"
#include "src/util/status.h"

namespace perfbench {

/// Failure accounting of one run. Every TSV read, fit, Save and Restore
/// counts once in `attempted`; every failed output check and every non-OK
/// Status counts once in `failed`, with its reason kept for the report.
class Ledger {
 public:
  void Attempt() { ++attempted_; }
  /// Counts `status` as a failure when it is not OK; returns status.ok().
  bool Expect(const triclust::Status& status, const std::string& what);
  /// Counts a failed output check: `problem` is empty when the check
  /// passed. Returns true when it passed.
  bool Check(const std::string& problem);

  long attempted() const { return attempted_; }
  long failed() const { return static_cast<long>(failures_.size()); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long attempted_ = 0;
  std::vector<std::string> failures_;
};

// --- output checks -----------------------------------------------------------
// Each returns an empty string when the output is correct and the reason
// otherwise. --self-test runs the workloads with a fault injected for each
// check (workloads.h) and fails unless the check fires.

/// Every entry of every factor matrix is finite.
std::string CheckFinite(const triclust::TriClusterResult& result);

/// Every pass of one input stopped at the same iteration count.
std::string CheckIterationsEqual(const std::vector<int>& iterations);

/// `value` is at or above `floor`.
std::string CheckAccuracyFloor(const std::string& what, double value,
                               double floor);

/// The rows fitted, summed over every fitted report, equal the tweets
/// handed to Ingest.
std::string CheckRowsFitted(size_t fitted_rows, size_t ingested_tweets);

/// No campaign is degraded or quarantined.
std::string CheckHealthy(const triclust::serving::EngineHealthReport& health);

/// Every campaign of `restored` has a StreamState serializing to the same
/// bytes as the same campaign of `saved`.
std::string CheckRestoreIdentical(
    const triclust::serving::CampaignEngine& saved,
    const triclust::serving::CampaignEngine& restored);

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_CHECKS_H_
