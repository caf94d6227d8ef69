#include "perfbench/checks.h"

#include <cmath>
#include <sstream>

#include "src/core/stream_state.h"

namespace perfbench {

bool Ledger::Expect(const triclust::Status& status, const std::string& what) {
  if (status.ok()) return true;
  failures_.push_back(what + ": " + status.ToString());
  return false;
}

bool Ledger::Check(const std::string& problem) {
  if (problem.empty()) return true;
  failures_.push_back(problem);
  return false;
}

std::string CheckFinite(const triclust::TriClusterResult& result) {
  const std::pair<const char*, const triclust::DenseMatrix*> factors[] = {
      {"Sp", &result.sp}, {"Su", &result.su}, {"Sf", &result.sf},
      {"Hp", &result.hp}, {"Hu", &result.hu}};
  for (const auto& [name, matrix] : factors) {
    for (size_t i = 0; i < matrix->size(); ++i) {
      if (!std::isfinite(matrix->data()[i])) {
        return std::string("offline factor ") + name +
               " has a non-finite entry at flat index " + std::to_string(i);
      }
    }
  }
  return "";
}

std::string CheckIterationsEqual(const std::vector<int>& iterations) {
  for (size_t i = 1; i < iterations.size(); ++i) {
    if (iterations[i] != iterations[0]) {
      return "pass " + std::to_string(i) + " ran " +
             std::to_string(iterations[i]) + " iterations, pass 0 ran " +
             std::to_string(iterations[0]);
    }
  }
  return "";
}

std::string CheckAccuracyFloor(const std::string& what, double value,
                               double floor) {
  if (value >= floor) return "";
  std::ostringstream out;
  out << what << " " << value << " is below its floor " << floor;
  return out.str();
}

std::string CheckRowsFitted(size_t fitted_rows, size_t ingested_tweets) {
  if (fitted_rows == ingested_tweets) return "";
  return "fitted " + std::to_string(fitted_rows) + " rows but ingested " +
         std::to_string(ingested_tweets) + " tweets";
}

std::string CheckHealthy(const triclust::serving::EngineHealthReport& health) {
  if (health.AllHealthy()) return "";
  return "engine health: " + std::to_string(health.degraded) +
         " degraded, " + std::to_string(health.quarantined) + " quarantined";
}

namespace {

std::string StateBytes(const triclust::StreamState& state) {
  std::ostringstream out;
  const triclust::Status status = state.Write(&out);
  return status.ok() ? out.str() : "<unwritable: " + status.ToString() + ">";
}

}  // namespace

std::string CheckRestoreIdentical(
    const triclust::serving::CampaignEngine& saved,
    const triclust::serving::CampaignEngine& restored) {
  if (saved.num_campaigns() != restored.num_campaigns()) {
    return "restored engine has " + std::to_string(restored.num_campaigns()) +
           " campaigns, saved one has " +
           std::to_string(saved.num_campaigns());
  }
  for (size_t c = 0; c < saved.num_campaigns(); ++c) {
    if (StateBytes(saved.state(c)) != StateBytes(restored.state(c))) {
      return "campaign " + saved.name(c) +
             ": restored StreamState differs from the saved one";
    }
  }
  return "";
}

}  // namespace perfbench
