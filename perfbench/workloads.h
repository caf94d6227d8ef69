#ifndef TRICLUST_PERFBENCH_WORKLOADS_H_
#define TRICLUST_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/trace.h"

namespace perfbench {

/// A measured value with its unit, printed as `name = value unit`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// CampaignEngine::Options::num_threads of the serving workloads: half of
/// a 4-vCPU box, so both parallel tiers are in play with headroom left.
constexpr int kEngineThreads = 2;

/// Faults the self-test injects so that each output check is seen to fire.
enum class Fault {
  kNone,
  kNonFiniteFactor,    // a NaN in an offline factor
  kIterationDrift,     // one pass reports another iteration count
  kDroppedTweet,       // one tweet counted as ingested but never queued
  kQuarantine,         // a campaign quarantined before the health check
  kStaleCheckpoint,    // the engine advances after its final Save
  kMirrorDrift,        // the traced mirror's factors are perturbed
};

struct RunOptions {
  uint64_t seed = 1;
  /// Minimum measured time; whole rounds / replays are run until it is
  /// reached (offline_batch: a warm-up round, then at least 2 rounds of one
  /// pass per corpus; serving: one replay).
  double seconds = 10.0;
  /// Traced run: per-layer metrics from spans, mirror bit-identity check,
  /// tracing overhead against untraced repetitions of the same work.
  bool trace = false;
  /// Scratch directory for the corpus TSV and the checkpoint store.
  std::string work_dir;
  double tweet_acc_floor = 0.0;
  double user_acc_floor = 0.0;
  /// Tiny inputs for the self-test.
  bool small = false;
  Fault fault = Fault::kNone;
};

struct RunOutput {
  /// The end-to-end metrics (BENCHMARK.json "end_to_end"), measured with
  /// tracing off.
  Metrics end_to_end;
  /// The per-layer metrics (BENCHMARK.json "per_layer"); traced run only.
  Metrics per_layer;
  /// Further lines for the human-readable report: the workload's own
  /// names for its latencies, sample counts and shapes.
  Metrics detail;
};

/// ReadTsv → MatrixBuilder::Fit → BuildAll → OfflineTriClusterer::Run →
/// scoring, repeated over eight 4×-volume Prop30-like campaigns.
RunOutput RunOfflineBatch(const RunOptions& options, Ledger* ledger,
                          Tracer* tracer);
/// Eight preset-volume campaigns, 100 days of Ingest → Advance → Save.
RunOutput RunServeFleet(const RunOptions& options, Ledger* ledger,
                        Tracer* tracer);
/// One 8×-volume campaign, 100 days of Ingest → Advance.
RunOutput RunServeHot(const RunOptions& options, Ledger* ledger,
                      Tracer* tracer);

/// Runs every workload on tiny inputs, once clean and once per fault, and
/// fails unless the clean runs pass every check and each fault is caught
/// by its check. Returns the process exit code.
int RunSelfTest(const std::string& work_dir);

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_WORKLOADS_H_
