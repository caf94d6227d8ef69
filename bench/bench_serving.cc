/// Serving-layer throughput: N concurrent campaigns advanced day by day
/// through CampaignEngine, swept over campaigns × engine threads. The
/// engine shards each Advance() batch's fits across its threads and runs
/// every fit's kernels at width 1 (campaign-tier sharding). Per-campaign
/// results are bit-identical at every setting (width-invariant kernels).
///
/// Also reports the incremental-ingestion path in isolation (Append+Emit
/// versus re-running MatrixBuilder::Build per snapshot) and the checkpoint
/// path of a served fleet (CampaignStore Save/Restore, StreamState::Write
/// throughput).
///
/// Accepts the google-benchmark flag surface (see bench/bench_flags.h):
/// --benchmark_min_time=0.01x scales solver iterations down for CI smoke
/// runs, --benchmark_format=json / --benchmark_out=... emit a JSON report.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/data/snapshots.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/campaign_store.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

struct CampaignData {
  SyntheticDataset dataset;
  std::vector<Snapshot> days;
  MatrixBuilder builder;
  DenseMatrix sf0;
  size_t total_tweets = 0;
};

CampaignData MakeCampaignData(uint64_t seed) {
  SyntheticConfig config = Prop30LikeConfig(seed);
  config.num_days = 6;
  config.base_tweets_per_day = 150.0;
  config.num_users = 400;
  config.burst_days = {};
  CampaignData c;
  c.dataset = GenerateSynthetic(config);
  c.days = SplitByDay(c.dataset.corpus);
  c.builder.Fit(c.dataset.corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(c.dataset.true_lexicon, 0.6, 0.05, 99);
  c.sf0 = lexicon.BuildSf0(c.builder.vocabulary(), 3);
  c.total_tweets = c.dataset.corpus.num_tweets();
  return c;
}

OnlineConfig ServingConfig(const bench_flags::Flags& flags) {
  OnlineConfig config;
  config.base.max_iterations = flags.ScaledIters(25);
  config.base.tolerance = 0.0;  // fixed work per fit for clean scaling
  config.base.track_loss = false;
  return config;
}

/// Registers every campaign with `engine` under a positional name.
void RegisterFleet(std::vector<CampaignData>& campaigns,
                   const bench_flags::Flags& flags,
                   serving::CampaignEngine* engine) {
  for (CampaignData& c : campaigns) {
    engine->AddCampaign("campaign-" + std::to_string(engine->num_campaigns()),
                        ServingConfig(flags), c.sf0, c.builder,
                        &c.dataset.corpus).ValueOrDie();
  }
}

/// Feeds every campaign's days through `engine`, one Advance() per day;
/// returns elapsed seconds.
double ServeAllDays(const std::vector<CampaignData>& campaigns,
                    serving::CampaignEngine* engine) {
  size_t max_days = 0;
  for (const CampaignData& c : campaigns) {
    max_days = std::max(max_days, c.days.size());
  }
  const Stopwatch watch;
  for (size_t day = 0; day < max_days; ++day) {
    for (size_t i = 0; i < campaigns.size(); ++i) {
      if (day < campaigns[i].days.size()) {
        engine->Ingest(i, campaigns[i].days[day].tweet_ids,
                       static_cast<int>(day));
      }
    }
    engine->Advance();
  }
  return watch.ElapsedSeconds();
}

/// Streams every campaign through one engine; returns elapsed seconds.
double RunFleet(std::vector<CampaignData>& campaigns, int num_threads,
                const bench_flags::Flags& flags) {
  serving::CampaignEngine::Options options;
  options.num_threads = num_threads;
  serving::CampaignEngine engine(options);
  RegisterFleet(campaigns, flags, &engine);
  return ServeAllDays(campaigns, &engine);
}

std::vector<CampaignData> MakeFleet(size_t num_campaigns,
                                    size_t* total_tweets) {
  std::vector<CampaignData> campaigns;
  *total_tweets = 0;
  for (size_t i = 0; i < num_campaigns; ++i) {
    campaigns.push_back(MakeCampaignData(/*seed=*/42 + i));
    *total_tweets += campaigns.back().total_tweets;
  }
  return campaigns;
}

void RunThroughputSweep(const bench_flags::Flags& flags,
                        bench_flags::Reporter* reporter) {
  bench_util::PrintHeader(
      "Serving throughput: campaigns x engine threads (campaign-tier "
      "sharding)");

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(static_cast<int>(hw));

  for (const size_t num_campaigns : {2, 4, 8}) {
    size_t total_tweets = 0;
    std::vector<CampaignData> campaigns =
        MakeFleet(num_campaigns, &total_tweets);

    TableWriter table(std::to_string(num_campaigns) +
                      " campaigns, 6 days each, " +
                      std::to_string(flags.ScaledIters(25)) +
                      " iterations/snapshot");
    table.SetHeader(
        {"threads", "time (s)", "tweets/s", "speedup vs 1 thread"});
    double serial_seconds = 0.0;
    for (const int threads : thread_counts) {
      const double seconds = RunFleet(campaigns, threads, flags);
      if (threads == 1) serial_seconds = seconds;
      table.AddRow({std::to_string(threads), TableWriter::Num(seconds, 3),
                    TableWriter::Num(total_tweets / seconds, 0),
                    TableWriter::Num(serial_seconds / seconds, 2)});
      reporter->Add("serving/throughput/campaigns:" +
                        std::to_string(num_campaigns) +
                        "/threads:" + std::to_string(threads),
                    seconds * 1e3,
                    {{"tweets_per_second", total_tweets / seconds},
                     {"speedup_vs_serial", serial_seconds / seconds}});
    }
    table.Print(std::cout);
  }
  std::cout << "Hardware concurrency on this machine: " << hw << "\n";
}

void RunIngestionBench(bench_flags::Reporter* reporter) {
  bench_util::PrintHeader(
      "Incremental ingestion: Append+EmitSnapshot vs per-snapshot Build");
  CampaignData c = MakeCampaignData(/*seed=*/42);

  // What matters for a request deadline is the cost paid *at the snapshot
  // boundary*: Build does everything there, the incremental path only
  // assembles rows vectorized earlier at arrival.
  TableWriter table("Per-day snapshot matrix construction (totals over all "
                    "days)");
  table.SetHeader({"path", "at boundary (ms)", "at arrival (ms)", "note"});
  {
    const Stopwatch watch;
    for (const Snapshot& day : c.days) {
      const DatasetMatrices data =
          c.builder.Build(c.dataset.corpus, day.tweet_ids, day.last_day);
      (void)data;
    }
    const double build_ms = watch.ElapsedMillis();
    table.AddRow({"Build per snapshot", TableWriter::Num(build_ms, 2),
                  "0.00", "full vectorization under the deadline"});
    reporter->Add("serving/ingestion/build_per_snapshot", build_ms);
  }
  {
    double ingest_ms = 0.0;
    double emit_ms = 0.0;
    for (const Snapshot& day : c.days) {
      Stopwatch watch;
      c.builder.Append(c.dataset.corpus, day.tweet_ids);
      ingest_ms += watch.ElapsedMillis();
      watch.Restart();
      const DatasetMatrices data =
          c.builder.EmitSnapshot(c.dataset.corpus, day.last_day);
      (void)data;
      emit_ms += watch.ElapsedMillis();
    }
    table.AddRow({"Append + EmitSnapshot", TableWriter::Num(emit_ms, 2),
                  TableWriter::Num(ingest_ms, 2),
                  "each tweet vectorized once when it arrives"});
    reporter->Add("serving/ingestion/append_emit", emit_ms,
                  {{"arrival_ms", ingest_ms}});
  }
  table.Print(std::cout);
}

/// Checkpoint cost of a served fleet: what CampaignStore::Save adds to
/// every served day (serialization, CRC-32, file writes and fsyncs), the
/// StreamState::Write serialization rate alone, and a full Restore into a
/// freshly registered engine.
void RunCheckpointBench(const bench_flags::Flags& flags,
                        bench_flags::Reporter* reporter) {
  bench_util::PrintHeader(
      "Checkpointing: CampaignStore Save/Restore of an 8-campaign fleet");
  constexpr size_t kCampaigns = 8;
  constexpr int kReps = 5;
  size_t total_tweets = 0;
  std::vector<CampaignData> campaigns = MakeFleet(kCampaigns, &total_tweets);
  serving::CampaignEngine::Options options;
  options.num_threads = 2;
  serving::CampaignEngine engine(options);
  RegisterFleet(campaigns, flags, &engine);
  ServeAllDays(campaigns, &engine);

  size_t state_bytes = 0;
  Stopwatch watch;
  for (int rep = 0; rep < kReps; ++rep) {
    state_bytes = 0;
    for (size_t i = 0; i < engine.num_campaigns(); ++i) {
      std::ostringstream os;
      TRICLUST_CHECK(engine.state(i).Write(&os).ok());
      state_bytes += os.str().size();
    }
  }
  const double write_ms = watch.ElapsedMillis() / kReps;
  const double write_mb_per_s = state_bytes / 1e6 / (write_ms / 1e3);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("triclust_bench_checkpoint." + std::to_string(getpid())))
          .string();
  const serving::CampaignStore store(dir);
  watch.Restart();
  for (int rep = 0; rep < kReps; ++rep) {
    const Status status = store.Save(engine);
    TRICLUST_CHECK(status.ok());
  }
  const double save_ms = watch.ElapsedMillis() / kReps;

  serving::CampaignEngine restored(options);
  RegisterFleet(campaigns, flags, &restored);
  watch.Restart();
  const Status status = store.Restore(&restored);
  const double restore_ms = watch.ElapsedMillis();
  TRICLUST_CHECK(status.ok());
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  TableWriter table(std::to_string(kCampaigns) + " campaigns, " +
                    TableWriter::Num(state_bytes / 1e3, 1) +
                    " KB of state (mean of " + std::to_string(kReps) +
                    " saves)");
  table.SetHeader({"Save (ms)", "Write (MB/s)", "Restore (ms)"});
  table.AddRow({TableWriter::Num(save_ms, 2),
                TableWriter::Num(write_mb_per_s, 1),
                TableWriter::Num(restore_ms, 2)});
  table.Print(std::cout);
  reporter->Add("serving/checkpoint/campaigns:" + std::to_string(kCampaigns),
                save_ms,
                {{"write_mb_per_second", write_mb_per_s},
                 {"restore_ms", restore_ms},
                 {"state_bytes", static_cast<double>(state_bytes)}});
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_serving",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::RunThroughputSweep(flags, &reporter);
        triclust::RunIngestionBench(&reporter);
        triclust::RunCheckpointBench(flags, &reporter);
      });
}
