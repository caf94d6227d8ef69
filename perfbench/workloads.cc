#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "perfbench/calibrate.h"
#include "perfbench/mirror.h"
#include "src/core/offline.h"
#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/timeline_eval.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/campaign_store.h"
#include "src/text/lexicon.h"
#include "src/util/stopwatch.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using triclust::Corpus;
using triclust::DatasetMatrices;
using triclust::DenseMatrix;
using triclust::MatrixBuilder;
using triclust::Result;
using triclust::Stopwatch;
using triclust::SyntheticConfig;
using triclust::SyntheticDataset;
using triclust::TriClusterResult;
using triclust::serving::CampaignEngine;
using triclust::serving::CampaignStore;

constexpr int kNumClusters = 3;
/// Days replayed by the serving workloads: p90 then has ten samples
/// beyond it.
constexpr int kServeDays = 100;
constexpr size_t kFleetCampaigns = 8;
/// offline_batch solves this many corpora per run, one pass over each per
/// round. At tolerance 1e-5 a corpus converges in roughly 60-100
/// iterations depending on its seed; a run over several corpora keeps
/// that seed-to-seed spread out of the run-to-run spread.
constexpr size_t kOfflineCorpora = 8;
/// Untraced (and, in a traced run, traced) rounds at least.
constexpr size_t kMinOfflineRounds = 2;
/// The traced serving replay mirrors the fits of every fourth day.
constexpr size_t kMirrorEveryDays = 4;
/// A serving set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Calibration units run after each set-up, after each offline pass and
/// after each served day. A step's time is divided by the host factor of
/// the units on either side of it: the set-up's or pass's own count, and
/// kDayWindowUnits for a day (about half a second each way).
constexpr int kUnitsPerSetup = 8;
constexpr int kUnitsPerPass = 6;
constexpr int kUnitsPerDay = 2;
constexpr int kDayWindowUnits = 4;

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

/// The imperfect prior every bench/ program uses: 60% lexicon coverage
/// with 5% polarity noise (bench/bench_util.h).
triclust::SentimentLexicon PriorLexicon(const SyntheticDataset& dataset) {
  return triclust::CorruptLexicon(dataset.true_lexicon, /*coverage=*/0.6,
                                  /*error_rate=*/0.05, /*seed=*/99);
}

/// Per-unit (pass or fit) span totals of a traced run, reduced to the
/// median unit.
class LayerTotals {
 public:
  void Add(std::map<std::string, double> totals) {
    units_.push_back(std::move(totals));
  }
  /// Median over units of the summed time of the named spans.
  double MedianMs(std::initializer_list<const char*> names) const {
    std::vector<double> values;
    for (const auto& unit : units_) {
      double total = 0.0;
      for (const char* name : names) {
        auto it = unit.find(name);
        if (it != unit.end()) total += it->second;
      }
      values.push_back(total);
    }
    return Median(std::move(values));
  }
  /// Median over units of time per solver iteration.
  double MedianIterationMs() const {
    std::vector<double> values;
    for (const auto& unit : units_) {
      auto it = unit.find("core.iteration");
      auto iterations = unit.find("iterations");
      if (it == unit.end() || iterations->second <= 0.0) continue;
      values.push_back(it->second / iterations->second);
    }
    return Median(std::move(values));
  }
  size_t size() const { return units_.size(); }

 private:
  std::vector<std::map<std::string, double>> units_;
};

/// Every per-layer metric, in BENCHMARK.json order. A layer the workload
/// never calls keeps 0 (parallel: width 1, speedup 1).
struct LayerValues {
  double core_sp_ms = 0, core_hp_ms = 0, core_su_ms = 0, core_hu_ms = 0,
         core_sf_ms = 0, core_objective_ms = 0, core_init_ms = 0,
         core_iter_ms = 0, core_solve_ms = 0, core_iterations = 0;
  double data_read_tsv_ms = 0, data_read_mb_per_s = 0, data_fit_ms = 0,
         data_build_ms = 0, data_nnz_xp = 0, data_ingest_ms = 0;
  double serving_advance_ms_p50 = 0, serving_fit_ms_p50 = 0,
         serving_fits = 0, serving_deferred = 0, serving_fit_failures = 0,
         serving_iterations_per_fit = 0, serving_shard_efficiency = 0;
  double parallel_per_fit_threads = 1, parallel_speedup_vs_serial = 1;
  double store_save_ms_p50 = 0, store_save_bytes = 0, store_restore_ms = 0,
         store_save_failures = 0;
  double eval_score_ms = 0;
  double trace_overhead_pct = 0;

  void FillCore(const LayerTotals& fits) {
    core_sp_ms = fits.MedianMs({"core.UpdateSp"});
    core_hp_ms = fits.MedianMs({"core.UpdateHp"});
    core_su_ms = fits.MedianMs({"core.UpdateSu"});
    core_hu_ms = fits.MedianMs({"core.UpdateHu"});
    core_sf_ms = fits.MedianMs({"core.UpdateSf"});
    core_objective_ms = fits.MedianMs({"core.ComputeObjective"});
    core_init_ms = fits.MedianMs({"core.InitializeFactors", "core.init"});
    core_iter_ms = fits.MedianIterationMs();
    core_solve_ms = fits.MedianMs({"core.solve"});
    core_iterations = fits.MedianMs({"iterations"});
  }

  Metrics ToMetrics() const {
    return {
        {"core.sp_ms", core_sp_ms, "ms"},
        {"core.hp_ms", core_hp_ms, "ms"},
        {"core.su_ms", core_su_ms, "ms"},
        {"core.hu_ms", core_hu_ms, "ms"},
        {"core.sf_ms", core_sf_ms, "ms"},
        {"core.objective_ms", core_objective_ms, "ms"},
        {"core.init_ms", core_init_ms, "ms"},
        {"core.iter_ms", core_iter_ms, "ms"},
        {"core.solve_ms", core_solve_ms, "ms"},
        {"core.iterations", core_iterations, "count"},
        {"data.read_tsv_ms", data_read_tsv_ms, "ms"},
        {"data.read_mb_per_s", data_read_mb_per_s, "MB/s"},
        {"data.fit_ms", data_fit_ms, "ms"},
        {"data.build_ms", data_build_ms, "ms"},
        {"data.nnz_xp", data_nnz_xp, "count"},
        {"data.ingest_ms", data_ingest_ms, "ms"},
        {"serving.advance_ms_p50", serving_advance_ms_p50, "ms"},
        {"serving.fit_ms_p50", serving_fit_ms_p50, "ms"},
        {"serving.fits", serving_fits, "count"},
        {"serving.deferred", serving_deferred, "count"},
        {"serving.fit_failures", serving_fit_failures, "count"},
        {"serving.iterations_per_fit", serving_iterations_per_fit, "count"},
        {"serving.shard_efficiency", serving_shard_efficiency, "ratio"},
        {"parallel.per_fit_threads", parallel_per_fit_threads, "count"},
        {"parallel.speedup_vs_serial", parallel_speedup_vs_serial, "ratio"},
        {"store.save_ms_p50", store_save_ms_p50, "ms"},
        {"store.save_bytes", store_save_bytes, "bytes"},
        {"store.restore_ms", store_restore_ms, "ms"},
        {"store.save_failures", store_save_failures, "count"},
        {"eval.score_ms", eval_score_ms, "ms"},
        {"trace.overhead_pct", trace_overhead_pct, "%"},
    };
  }
};

double OverheadPct(const std::vector<double>& traced_ms,
                   const std::vector<double>& untraced_ms) {
  const double base = Median(untraced_ms);
  return base > 0.0 ? (Median(traced_ms) - base) / base * 100.0 : 0.0;
}

/// The timed end-to-end metrics of a run.
struct Timings {
  double setup_s = 0.0;
  double tweets_per_s = 0.0;
  double step_ms_p50 = 0.0;
  double step_ms_p90 = 0.0;
};

/// The end-to-end metrics; `calibrated` holds the timings at the
/// calibrator's reference speed.
Metrics EndToEnd(const Timings& calibrated, double tweet_acc,
                 double user_acc) {
  return {
      {"setup_s", calibrated.setup_s, "s"},
      {"tweets_per_s", calibrated.tweets_per_s, "1/s"},
      {"step_ms_p50", calibrated.step_ms_p50, "ms"},
      {"step_ms_p90", calibrated.step_ms_p90, "ms"},
      {"tweet_acc", tweet_acc, "ratio"},
      {"user_acc", user_acc, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Detail lines: the timings as this host ran them, and its factor.
Metrics RawTimings(const Timings& raw, const Calibrator& calibrator) {
  return {
      {"host_factor", calibrator.Factor(), "ratio"},
      {"calibration_units", static_cast<double>(calibrator.units()), "count"},
      {"raw.setup_s", raw.setup_s, "s"},
      {"raw.tweets_per_s", raw.tweets_per_s, "1/s"},
      {"raw.step_ms_p50", raw.step_ms_p50, "ms"},
      {"raw.step_ms_p90", raw.step_ms_p90, "ms"},
  };
}

/// Set-up times of a run, as measured and calibrated.
struct SetupTimes {
  std::vector<double> raw_s;
  std::vector<double> calibrated_s;

  /// Runs the calibration units after a set-up that took `seconds` and
  /// began when the calibrator had run `mark` units.
  void Add(double seconds, size_t mark, Calibrator* calibrator) {
    calibrator->RunUnits(kUnitsPerSetup);
    raw_s.push_back(seconds);
    calibrated_s.push_back(seconds /
                           calibrator->FactorAround(mark, kUnitsPerSetup));
  }
};

// --- offline_batch -----------------------------------------------------------

/// Corpus `index` of a run; distinct seeds never share a corpus.
SyntheticConfig OfflineCorpusConfig(const RunOptions& options, size_t index) {
  SyntheticConfig config =
      triclust::Prop30LikeConfig(options.seed * kOfflineCorpora + index);
  if (options.small) {
    config.num_days = 8;
    config.base_tweets_per_day = 40.0;
    config.num_users = 150;
    config.burst_days = {4};
  } else {
    config.base_tweets_per_day = 640.0;
    config.num_users = 2000;
  }
  return config;
}

struct OfflineInput {
  std::string tsv_path;
  double tsv_bytes = 0.0;
  size_t tweets = 0;
  triclust::SentimentLexicon lexicon;
};

/// Generation, TSV write and the lexicon prior of corpus `index`.
OfflineInput SetupOffline(const RunOptions& options, size_t index,
                          Ledger* ledger, Tracer* tracer) {
  OfflineInput input;
  input.tsv_path =
      options.work_dir + "/corpus-" + std::to_string(index) + ".tsv";
  SyntheticDataset dataset;
  {
    Span span(tracer, "data.GenerateSynthetic");
    dataset = triclust::GenerateSynthetic(OfflineCorpusConfig(options, index));
  }
  {
    Span span(tracer, "data.WriteTsv");
    ledger->Expect(triclust::WriteTsv(dataset.corpus, input.tsv_path),
                   "WriteTsv " + input.tsv_path);
  }
  input.lexicon = PriorLexicon(dataset);
  input.tweets = dataset.corpus.num_tweets();
  std::error_code ec;
  const uintmax_t bytes = fs::file_size(input.tsv_path, ec);
  input.tsv_bytes = ec ? 0.0 : static_cast<double>(bytes);
  return input;
}

struct PassOutcome {
  bool ok = false;
  double ms = 0.0;
  size_t nnz_xp = 0;
  TriClusterResult result;
  triclust::SnapshotScore score;
};

/// One analyst pass: ReadTsv → Fit → BuildAll → solve → score. `mirror`
/// solves through the traced mirror instead of OfflineTriClusterer::Run.
PassOutcome OfflinePass(const OfflineInput& input, bool mirror,
                        Ledger* ledger, Tracer* tracer) {
  PassOutcome out;
  const Stopwatch clock;
  ledger->Attempt();
  Result<Corpus> corpus = [&] {
    Span span(tracer, "data.ReadTsv");
    return triclust::ReadTsv(input.tsv_path);
  }();
  if (!corpus.ok()) {
    ledger->Expect(corpus.status(), "ReadTsv " + input.tsv_path);
    return out;
  }
  MatrixBuilder builder;
  {
    Span span(tracer, "data.MatrixBuilder::Fit");
    builder.Fit(corpus.ValueOrDie());
  }
  DatasetMatrices data;
  DenseMatrix sf0;
  {
    Span span(tracer, "data.BuildAll");
    data = builder.BuildAll(corpus.ValueOrDie());
    sf0 = input.lexicon.BuildSf0(builder.vocabulary(), kNumClusters);
  }
  triclust::TriClusterConfig config;  // the paper's defaults
  config.num_threads = 1;
  ledger->Attempt();
  if (mirror) {
    out.result = MirrorOfflineRun(data, sf0, config, tracer);
  } else {
    Span span(tracer, "core.OfflineTriClusterer::Run");
    out.result = triclust::OfflineTriClusterer(config).Run(data, sf0);
  }
  {
    Span span(tracer, "eval.ScoreSnapshot");
    out.score = triclust::ScoreSnapshot(corpus.ValueOrDie(), data,
                                        out.result, /*day=*/0,
                                        /*campaign=*/0, /*label_day=*/-1);
  }
  out.ms = clock.ElapsedMillis();
  out.nnz_xp = data.xp.nnz();
  out.ok = true;
  return out;
}

/// Nudges one factor entry by one ulp: the smallest drift the mirror's
/// bit-identity check must catch.
void Perturb(TriClusterResult* result) {
  if (result->sp.size() == 0) return;
  double* x = result->sp.data();
  *x = std::nextafter(*x, std::numeric_limits<double>::infinity());
}

}  // namespace

RunOutput RunOfflineBatch(const RunOptions& options, Ledger* ledger,
                          Tracer* tracer) {
  Tracer off(false);
  RunOutput out;
  Calibrator calibrator;
  SetupTimes setup;
  // Set-up is per corpus, so setup_s is the median over the corpora.
  std::vector<OfflineInput> inputs(kOfflineCorpora);
  for (size_t k = 0; k < inputs.size(); ++k) {
    const size_t mark = calibrator.units();
    double seconds = 0.0;
    {
      Span span(tracer, "setup");
      const Stopwatch clock;
      inputs[k] = SetupOffline(options, k, ledger, tracer);
      seconds = clock.ElapsedSeconds();
    }
    setup.Add(seconds, mark, &calibrator);
  }
  // One untimed pass warms the caches and the allocator.
  OfflinePass(inputs[0], /*mirror=*/false, ledger, &off);
  calibrator.RunUnits(kUnitsPerPass);

  // Rounds of one pass per corpus. Round 0's passes are the references
  // every later pass of their corpus is checked against. Traced runs
  // alternate untraced library rounds with traced mirror rounds, so the
  // mirror is checked against Run and the tracing overhead is measured
  // within one process. Pass times are kept as measured (raw) and
  // calibrated.
  const size_t n = inputs.size();
  std::vector<std::vector<double>> raw_ms(n);
  std::vector<std::vector<double>> untraced_ms(n);
  std::vector<std::vector<int>> iterations(n);
  std::vector<double> all_raw_ms;
  std::vector<double> all_untraced_ms;
  std::vector<double> traced_ms;
  size_t untraced_rounds = 0;
  size_t traced_rounds = 0;
  LayerTotals layers;
  std::vector<PassOutcome> reference(n);
  bool failed = false;
  const Stopwatch run_clock;
  for (size_t round = 0; !failed; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    Tracer* pass_tracer = traced ? tracer : &off;
    for (size_t k = 0; k < n; ++k) {
      PassOutcome p;
      int root = -1;
      const size_t mark = calibrator.units();
      {
        Span span(pass_tracer, "offline.pass");
        root = span.index();
        p = OfflinePass(inputs[k], traced, ledger, pass_tracer);
      }
      calibrator.RunUnits(kUnitsPerPass);
      const double pass_ms =
          p.ms / calibrator.FactorAround(mark, kUnitsPerPass);
      if (!p.ok) {
        failed = true;
        break;
      }
      if (options.fault == Fault::kNonFiniteFactor) {
        p.result.sp.data()[0] = std::numeric_limits<double>::quiet_NaN();
      }
      if (options.fault == Fault::kIterationDrift && round == 1 && k == 0) {
        ++p.result.iterations;
      }
      if (options.fault == Fault::kMirrorDrift && traced) Perturb(&p.result);
      ledger->Check(CheckFinite(p.result));
      iterations[k].push_back(p.result.iterations);
      if (traced) {
        ledger->Check(SameFactors(p.result, reference[k].result));
        std::map<std::string, double> totals = tracer->TotalsUnder(root);
        totals["iterations"] = p.result.iterations;
        layers.Add(std::move(totals));
        traced_ms.push_back(pass_ms);
      } else {
        raw_ms[k].push_back(p.ms);
        all_raw_ms.push_back(p.ms);
        untraced_ms[k].push_back(pass_ms);
        all_untraced_ms.push_back(pass_ms);
      }
      if (round == 0) reference[k] = std::move(p);
    }
    if (failed) break;
    ++(traced ? traced_rounds : untraced_rounds);
    if (run_clock.ElapsedSeconds() >= options.seconds &&
        untraced_rounds >= kMinOfflineRounds &&
        (!options.trace || traced_rounds >= kMinOfflineRounds)) {
      break;
    }
  }
  for (const std::vector<int>& its : iterations) {
    ledger->Check(CheckIterationsEqual(its));
  }

  // A step is a pass. Its median is each corpus's median pass, averaged
  // over the corpora, so one stalled pass does not move it and corpora
  // that converge in different iteration counts are weighed equally; the
  // throughput is a corpus's mean tweet count per median pass. The 90th
  // percentile is taken over every pass.
  double tweet_acc = 0.0;
  double user_acc = 0.0;
  double tweets = 0.0;
  Timings raw{Median(setup.raw_s), 0.0, 0.0, Quantile(all_raw_ms, 0.9)};
  Timings calibrated{Median(setup.calibrated_s), 0.0, 0.0,
                     Quantile(all_untraced_ms, 0.9)};
  for (size_t k = 0; k < n; ++k) {
    tweet_acc += reference[k].score.tweet_accuracy / n;
    user_acc += reference[k].score.user_accuracy / n;
    tweets += static_cast<double>(inputs[k].tweets) / n;
    raw.step_ms_p50 += Median(raw_ms[k]) / n;
    calibrated.step_ms_p50 += Median(untraced_ms[k]) / n;
  }
  for (Timings* t : {&raw, &calibrated}) {
    t->tweets_per_s = t->step_ms_p50 > 0.0 ? tweets / (t->step_ms_p50 / 1e3)
                                           : 0.0;
  }
  ledger->Check(
      CheckAccuracyFloor("tweet_acc", tweet_acc, options.tweet_acc_floor));
  ledger->Check(
      CheckAccuracyFloor("user_acc", user_acc, options.user_acc_floor));
  out.end_to_end = EndToEnd(calibrated, tweet_acc, user_acc);

  double iterations_mean = 0.0;
  double nnz_mean = 0.0;
  for (size_t k = 0; k < n; ++k) {
    iterations_mean += static_cast<double>(reference[k].result.iterations) / n;
    nnz_mean += static_cast<double>(reference[k].nnz_xp) / n;
  }
  out.detail = RawTimings(raw, calibrator);
  out.detail.insert(
      out.detail.end(),
      {
          {"pass_s_p50", calibrated.step_ms_p50 / 1e3, "s"},
          {"passes", static_cast<double>(all_untraced_ms.size()), "count"},
          {"corpora", static_cast<double>(n), "count"},
          {"tweets_per_corpus", tweets, "count"},
          {"iterations_per_corpus", iterations_mean, "count"},
          {"nnz_xp_per_corpus", nnz_mean, "count"},
      });
  if (options.trace) {
    LayerValues v;
    v.FillCore(layers);
    double tsv_bytes = 0.0;
    for (const OfflineInput& input : inputs) tsv_bytes += input.tsv_bytes / n;
    v.data_read_tsv_ms = layers.MedianMs({"data.ReadTsv"});
    v.data_read_mb_per_s = v.data_read_tsv_ms > 0.0
                               ? tsv_bytes / 1e6 / (v.data_read_tsv_ms / 1e3)
                               : 0.0;
    v.data_fit_ms = layers.MedianMs({"data.MatrixBuilder::Fit"});
    v.data_build_ms = layers.MedianMs({"data.BuildAll"});
    v.data_nnz_xp = nnz_mean;
    v.eval_score_ms = layers.MedianMs({"eval.ScoreSnapshot"});
    v.trace_overhead_pct = OverheadPct(traced_ms, all_untraced_ms);
    out.per_layer = v.ToMetrics();
    out.detail.push_back(
        {"traced_passes", static_cast<double>(traced_ms.size()), "count"});
  }
  return out;
}

// --- serving workloads ------------------------------------------------------

namespace {

struct CampaignInput {
  SyntheticDataset dataset;
  std::vector<triclust::Snapshot> days;
  MatrixBuilder builder;
  DenseMatrix sf0;
};

/// Corpora, day splits, fitted vocabularies and priors of a fleet.
/// Campaigns are heap-held: engines keep pointers to their corpora.
struct FleetInput {
  std::vector<std::unique_ptr<CampaignInput>> campaigns;
  size_t tweets = 0;
  size_t days = 0;
};

SyntheticConfig ServeCorpusConfig(const RunOptions& options, bool hot,
                                  uint64_t campaign) {
  SyntheticConfig config = triclust::Prop30LikeConfig(options.seed + campaign);
  config.num_days = kServeDays;
  if (hot) {
    config.base_tweets_per_day = 1280.0;
    config.num_users = 4000;
  }
  if (options.small) {
    config.num_days = 6;
    config.base_tweets_per_day = hot ? 80.0 : 30.0;
    config.num_users = hot ? 200 : 80;
    config.burst_days = {3};
  }
  return config;
}

FleetInput SetupFleetData(const RunOptions& options, bool hot,
                          Tracer* tracer) {
  FleetInput fleet;
  const size_t count = hot ? 1 : (options.small ? 2 : kFleetCampaigns);
  for (size_t i = 0; i < count; ++i) {
    auto c = std::make_unique<CampaignInput>();
    {
      Span span(tracer, "data.GenerateSynthetic");
      c->dataset =
          triclust::GenerateSynthetic(ServeCorpusConfig(options, hot, i));
    }
    c->days = triclust::SplitByDay(c->dataset.corpus);
    {
      Span span(tracer, "data.MatrixBuilder::Fit");
      c->builder.Fit(c->dataset.corpus);
    }
    c->sf0 = PriorLexicon(c->dataset).BuildSf0(c->builder.vocabulary(),
                                                kNumClusters);
    fleet.tweets += c->dataset.corpus.num_tweets();
    fleet.days = std::max(fleet.days, c->days.size());
    fleet.campaigns.push_back(std::move(c));
  }
  return fleet;
}

std::unique_ptr<CampaignEngine> MakeEngine(FleetInput* fleet, int threads,
                                           Ledger* ledger, Tracer* tracer) {
  CampaignEngine::Options engine_options;
  engine_options.num_threads = threads;
  auto engine = std::make_unique<CampaignEngine>(engine_options);
  for (size_t i = 0; i < fleet->campaigns.size(); ++i) {
    CampaignInput& c = *fleet->campaigns[i];
    Span span(tracer, "serving.AddCampaign");
    Result<size_t> id = engine->AddCampaign(
        "campaign-" + std::to_string(i), triclust::OnlineConfig{}, c.sf0,
        c.builder, &c.dataset.corpus);
    // Result::status() is only meaningful on an error.
    if (!id.ok()) ledger->Expect(id.status(), "AddCampaign");
  }
  return engine;
}

std::string StateBytes(const triclust::StreamState& state) {
  std::ostringstream out;
  if (!state.Write(&out).ok()) return "<unwritable>";
  return out.str();
}

struct ReplayResult {
  std::vector<double> day_ms;
  std::vector<double> calibrated_day_ms;
  std::vector<double> advance_ms;
  std::vector<double> save_ms;
  std::vector<double> fit_ms;
  std::vector<double> nnz_xp;
  size_t ingested = 0;
  size_t fitted_rows = 0;
  size_t fits = 0;
  size_t deferred = 0;
  size_t fit_failures = 0;
  size_t save_failures = 0;
  double iterations = 0.0;
  double fit_threads = 0.0;
  double save_bytes = 0.0;
  double restore_ms = 0.0;
  triclust::TimelineAggregate accuracy;
  LayerTotals days;  // per day: Ingest, ScoreSnapshot, ...
  LayerTotals fits_traced;  // per mirrored fit: core.*
};

/// Replays every campaign's days through `engine`: per day Ingest(all) →
/// Advance() (→ Save when `save_daily`). Afterwards checks the fitted row
/// count and fleet health, saves (again), restores into a fresh engine and
/// checks the restored states byte for byte. `mirror` re-solves the fitted
/// snapshots of every kMirrorEveryDays-th day through the traced mirror,
/// outside the day's clock.
ReplayResult Replay(FleetInput* fleet, CampaignEngine* engine, int threads,
                    bool save_daily, bool mirror, const RunOptions& options,
                    Calibrator* calibrator, Ledger* ledger, Tracer* tracer) {
  ReplayResult r;
  const std::string store_dir = options.work_dir + "/store";
  std::error_code ec;
  fs::remove_all(store_dir, ec);
  const CampaignStore store(store_dir);
  const size_t n = fleet->campaigns.size();

  triclust::TimelineEvaluator evaluator(engine);
  int current_day = 0;
  engine->set_fit_observer(
      [&](const CampaignEngine::SnapshotReport& report) {
        Span span(tracer, "eval.ScoreSnapshot");
        evaluator.Observe(current_day, report);
      });
  auto save = [&] {
    ledger->Attempt();
    Span span(tracer, "store.Save");
    const Stopwatch clock;
    const triclust::Status status = store.Save(*engine);
    r.save_ms.push_back(clock.ElapsedMillis());
    if (!ledger->Expect(status, "CampaignStore::Save")) ++r.save_failures;
  };

  std::vector<triclust::StreamState> pre_fit(n);
  std::vector<size_t> day_marks;
  for (size_t d = 0; d < fleet->days; ++d) {
    const bool mirror_day = mirror && d % kMirrorEveryDays == 0;
    if (mirror_day) {
      for (size_t c = 0; c < n; ++c) pre_fit[c] = engine->state(c);
    }
    current_day = static_cast<int>(d);
    std::vector<CampaignEngine::SnapshotReport> reports;
    day_marks.push_back(calibrator->units());
    {
      Span day(tracer, "serving.day");
      const Stopwatch day_clock;
      for (size_t c = 0; c < n; ++c) {
        const auto& days = fleet->campaigns[c]->days;
        if (d >= days.size()) continue;
        const std::vector<size_t>& ids = days[d].tweet_ids;
        r.ingested += ids.size();
        Span span(tracer, "serving.Ingest");
        if (options.fault == Fault::kDroppedTweet && d == 1 && c == 0 &&
            !ids.empty()) {
          engine->Ingest(c, {ids.begin(), ids.end() - 1}, static_cast<int>(d));
        } else {
          engine->Ingest(c, ids, static_cast<int>(d));
        }
      }
      {
        Span span(tracer, "serving.Advance");
        const Stopwatch clock;
        reports = engine->Advance();
        r.advance_ms.push_back(clock.ElapsedMillis());
      }
      if (save_daily) save();
      r.day_ms.push_back(day_clock.ElapsedMillis());
      r.days.Add(tracer->TotalsUnder(day.index()));
    }
    calibrator->RunUnits(kUnitsPerDay);

    const std::vector<int> slices = CampaignEngine::SplitThreadBudget(
        engine->effective_num_threads(), reports.size());
    for (size_t i = 0; i < reports.size(); ++i) {
      const CampaignEngine::SnapshotReport& report = reports[i];
      if (report.fitted) {
        ledger->Attempt();
        ++r.fits;
        r.fitted_rows += report.data.num_tweets();
        r.fit_ms.push_back(report.solve_ms);
        r.nnz_xp.push_back(static_cast<double>(report.data.xp.nnz()));
        r.iterations += report.result.iterations;
        r.fit_threads += slices[i];
      } else if (!report.status.ok()) {
        ledger->Attempt();
        ++r.fit_failures;
        ledger->Expect(report.status, "fit of " + engine->name(report.campaign));
      } else {
        ++r.deferred;
      }
      if (!mirror_day || !report.fitted) continue;
      const size_t c = report.campaign;
      Span span(tracer, "serving.mirror_fit");
      triclust::StreamState state = pre_fit[c];
      TriClusterResult result =
          MirrorSnapshotSolve(engine->solver(c), report.data, &state,
                              triclust::ThreadBudget(slices[i]), tracer);
      if (options.fault == Fault::kMirrorDrift) Perturb(&result);
      ledger->Check(SameFactors(result, report.result));
      if (StateBytes(state) != StateBytes(engine->state(c))) {
        ledger->Check("mirror stream state of " + engine->name(c) +
                      " differs from the engine's");
      }
      std::map<std::string, double> totals = tracer->TotalsUnder(span.index());
      totals["iterations"] = result.iterations;
      r.fits_traced.Add(std::move(totals));
    }
  }

  for (size_t d = 0; d < r.day_ms.size(); ++d) {
    r.calibrated_day_ms.push_back(
        r.day_ms[d] / calibrator->FactorAround(day_marks[d], kDayWindowUnits));
  }

  ledger->Check(CheckRowsFitted(r.fitted_rows, r.ingested));
  if (options.fault == Fault::kQuarantine) {
    engine->QuarantineCampaign(0, triclust::Status::Internal("fault"));
  }
  ledger->Check(CheckHealthy(engine->HealthReport()));
  if (!save_daily) save();
  if (options.fault == Fault::kStaleCheckpoint) {
    triclust::serving::AdvanceOptions idle;
    idle.include_idle = true;
    engine->Advance(idle);
  }
  r.save_bytes = DirectoryBytes(store_dir);
  std::unique_ptr<CampaignEngine> restored =
      MakeEngine(fleet, threads, ledger, tracer);
  ledger->Attempt();
  {
    Span span(tracer, "store.Restore");
    const Stopwatch clock;
    const triclust::Status status = store.Restore(restored.get());
    r.restore_ms = clock.ElapsedMillis();
    ledger->Expect(status, "CampaignStore::Restore");
  }
  ledger->Check(CheckRestoreIdentical(*engine, *restored));
  r.accuracy = evaluator.RunAggregate();
  engine->set_fit_observer({});
  return r;
}

RunOutput RunServe(const RunOptions& options, bool hot, Ledger* ledger,
                   Tracer* tracer) {
  Tracer off(false);
  RunOutput out;
  Calibrator calibrator;
  const bool save_daily = !hot;
  const int threads = kEngineThreads;

  // Set-up: generation, vocabulary fit, priors and AddCampaign. The engine
  // of the last repetition serves the first replay.
  SetupTimes setup;
  std::unique_ptr<FleetInput> fleet;
  std::unique_ptr<CampaignEngine> engine;
  LayerTotals setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    fleet.reset();
    const size_t mark = calibrator.units();
    double seconds = 0.0;
    {
      Span span(tracer, "setup");
      const Stopwatch clock;
      fleet =
          std::make_unique<FleetInput>(SetupFleetData(options, hot, tracer));
      engine = MakeEngine(fleet.get(), threads, ledger, tracer);
      seconds = clock.ElapsedSeconds();
      setups.Add(tracer->TotalsUnder(span.index()));
    }
    setup.Add(seconds, mark, &calibrator);
  }
  auto replay = [&](int width, bool mirror, Tracer* t) {
    if (!engine) engine = MakeEngine(fleet.get(), width, ledger, t);
    ReplayResult r = Replay(fleet.get(), engine.get(), width, save_daily,
                            mirror, options, &calibrator, ledger, t);
    engine.reset();
    return r;
  };

  // Untraced: whole replays, each on a fresh engine, until the measuring
  // time is used up; whole replays keep every run's day mix the same.
  // Traced: one untraced replay (the overhead base), one traced replay with
  // the mirror, one untraced replay at one engine thread (the serial base).
  std::vector<ReplayResult> replays;
  ReplayResult traced;
  ReplayResult serial;
  if (options.trace) {
    replays.push_back(replay(threads, false, &off));
    traced = replay(threads, true, tracer);
    serial = replay(1, false, &off);
  } else {
    const Stopwatch run_clock;
    do {
      replays.push_back(replay(threads, false, &off));
    } while (run_clock.ElapsedSeconds() < options.seconds);
  }

  std::vector<double> day_ms;
  std::vector<double> calibrated_day_ms;
  size_t ingested = 0;
  for (const ReplayResult& r : replays) {
    day_ms.insert(day_ms.end(), r.day_ms.begin(), r.day_ms.end());
    calibrated_day_ms.insert(calibrated_day_ms.end(),
                             r.calibrated_day_ms.begin(),
                             r.calibrated_day_ms.end());
    ingested += r.ingested;
  }
  const ReplayResult& first = replays.front();
  const double tweet_acc = first.accuracy.tweet_accuracy;
  const double user_acc = first.accuracy.user_accuracy;
  ledger->Check(
      CheckAccuracyFloor("tweet_acc", tweet_acc, options.tweet_acc_floor));
  ledger->Check(
      CheckAccuracyFloor("user_acc", user_acc, options.user_acc_floor));
  // A step is a day; the throughput is every tweet over the summed days.
  auto timings = [&](const std::vector<double>& setup_s,
                     const std::vector<double>& days) {
    const double total_s = Sum(days) / 1e3;
    return Timings{
        Median(setup_s),
        total_s > 0.0 ? static_cast<double>(ingested) / total_s : 0.0,
        Median(days), Quantile(days, 0.9)};
  };
  const Timings raw = timings(setup.raw_s, day_ms);
  const Timings calibrated = timings(setup.calibrated_s, calibrated_day_ms);
  out.end_to_end = EndToEnd(calibrated, tweet_acc, user_acc);
  out.detail = RawTimings(raw, calibrator);
  out.detail.insert(
      out.detail.end(),
      {
          {"day_ms_p50", calibrated.step_ms_p50, "ms"},
          {"day_ms_p90", calibrated.step_ms_p90, "ms"},
          {"days", static_cast<double>(day_ms.size()), "count"},
          {"replays", static_cast<double>(replays.size()), "count"},
          {"campaigns", static_cast<double>(fleet->campaigns.size()),
           "count"},
          {"tweets_per_replay", static_cast<double>(fleet->tweets), "count"},
          {"engine_threads", static_cast<double>(threads), "count"},
      });
  if (options.trace) {
    LayerValues v;
    v.FillCore(traced.fits_traced);
    v.data_fit_ms = setups.MedianMs({"data.MatrixBuilder::Fit"});
    v.data_nnz_xp = Median(traced.nnz_xp);
    v.data_ingest_ms = traced.days.MedianMs({"serving.Ingest"});
    v.serving_advance_ms_p50 = Median(traced.advance_ms);
    v.serving_fit_ms_p50 = Median(traced.fit_ms);
    v.serving_fits = static_cast<double>(traced.fits);
    v.serving_deferred = static_cast<double>(traced.deferred);
    v.serving_fit_failures = static_cast<double>(traced.fit_failures);
    v.serving_iterations_per_fit =
        traced.fits > 0 ? traced.iterations / traced.fits : 0.0;
    const double advance_total = Sum(traced.advance_ms);
    v.serving_shard_efficiency =
        advance_total > 0.0 ? Sum(traced.fit_ms) / (advance_total * threads)
                            : 0.0;
    v.parallel_per_fit_threads =
        traced.fits > 0 ? traced.fit_threads / traced.fits : 0.0;
    const double base_advance = Sum(first.advance_ms);
    v.parallel_speedup_vs_serial =
        base_advance > 0.0 ? Sum(serial.advance_ms) / base_advance : 0.0;
    v.store_save_ms_p50 = Median(traced.save_ms);
    v.store_save_bytes = traced.save_bytes;
    v.store_restore_ms = traced.restore_ms;
    v.store_save_failures = static_cast<double>(traced.save_failures);
    v.eval_score_ms = traced.days.MedianMs({"eval.ScoreSnapshot"});
    v.trace_overhead_pct =
        OverheadPct(traced.calibrated_day_ms, first.calibrated_day_ms);
    out.per_layer = v.ToMetrics();
    out.detail.push_back(
        {"serial_day_ms_p50", Median(serial.calibrated_day_ms), "ms"});
    out.detail.push_back(
        {"mirrored_fits", static_cast<double>(traced.fits_traced.size()),
         "count"});
  }
  return out;
}

}  // namespace

RunOutput RunServeFleet(const RunOptions& options, Ledger* ledger,
                        Tracer* tracer) {
  return RunServe(options, /*hot=*/false, ledger, tracer);
}

RunOutput RunServeHot(const RunOptions& options, Ledger* ledger,
                      Tracer* tracer) {
  return RunServe(options, /*hot=*/true, ledger, tracer);
}

int RunSelfTest(const std::string& work_dir) {
  struct Case {
    const char* workload;
    Fault fault;
    bool trace;
    double acc_floor;
    const char* expect;  // substring of the failure; empty = must pass
  };
  const Case cases[] = {
      {"offline_batch", Fault::kNone, true, 0.0, ""},
      {"serve_fleet", Fault::kNone, true, 0.0, ""},
      {"serve_hot", Fault::kNone, true, 0.0, ""},
      {"offline_batch", Fault::kNonFiniteFactor, false, 0.0, "non-finite"},
      {"offline_batch", Fault::kIterationDrift, false, 0.0, "iterations, pass 0"},
      {"offline_batch", Fault::kNone, false, 1.01, "below its floor"},
      {"offline_batch", Fault::kMirrorDrift, true, 0.0, "not bit-identical"},
      {"serve_fleet", Fault::kDroppedTweet, false, 0.0, "rows but ingested"},
      {"serve_fleet", Fault::kQuarantine, false, 0.0, "quarantined"},
      {"serve_fleet", Fault::kStaleCheckpoint, false, 0.0,
       "restored StreamState differs"},
      {"serve_fleet", Fault::kMirrorDrift, true, 0.0, "not bit-identical"},
      {"serve_hot", Fault::kNone, false, 1.01, "below its floor"},
      {"serve_hot", Fault::kStaleCheckpoint, false, 0.0,
       "restored StreamState differs"},
  };
  int failures = 0;
  for (const Case& c : cases) {
    RunOptions options;
    options.seed = 7;
    options.seconds = 0.0;
    options.small = true;
    options.trace = c.trace;
    options.fault = c.fault;
    options.tweet_acc_floor = c.acc_floor;
    options.user_acc_floor = c.acc_floor;
    options.work_dir = work_dir;
    Ledger ledger;
    Tracer tracer(c.trace);
    const std::string workload = c.workload;
    if (workload == "offline_batch") {
      RunOfflineBatch(options, &ledger, &tracer);
    } else if (workload == "serve_fleet") {
      RunServeFleet(options, &ledger, &tracer);
    } else {
      RunServeHot(options, &ledger, &tracer);
    }
    bool caught = false;
    for (const std::string& f : ledger.failures()) {
      if (*c.expect != '\0' && f.find(c.expect) != std::string::npos) {
        caught = true;
      }
    }
    const bool ok = *c.expect == '\0' ? ledger.failed() == 0 : caught;
    std::cout << (ok ? "ok   " : "FAIL ") << c.workload << " fault="
              << static_cast<int>(c.fault) << " floor=" << c.acc_floor
              << (c.trace ? " traced" : "") << ": "
              << (*c.expect == '\0' ? "clean run" : c.expect) << " ("
              << ledger.failed() << " failed of " << ledger.attempted()
              << " attempted)\n";
    if (!ok) {
      for (const std::string& f : ledger.failures()) {
        std::cout << "       " << f << "\n";
      }
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
