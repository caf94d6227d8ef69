// The repository benchmark: one workload per invocation, closed loop, one
// caller thread. See perfbench/README.md; perfbench/run.py builds this
// program and passes the workload, seed and accuracy floors.
//
//   perfbench --workload offline_batch|serve_fleet|serve_hot --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--tweet-acc-floor X] [--user-acc-floor X]
//             [--commit SHA] [--source-digest SHA]
//   perfbench --self-test --work-dir DIR
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 when every output check passed, 1 when one
// failed, 2 on a usage error (no result line then).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "perfbench/checks.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/matrix/kernel_dispatch.h"

namespace {

using perfbench::Metric;
using perfbench::Metrics;

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

const char* KernelModeName(triclust::KernelMode mode) {
  switch (mode) {
    case triclust::KernelMode::kAuto:
      return "auto";
    case triclust::KernelMode::kScalar:
      return "scalar";
    case triclust::KernelMode::kFast:
      return "fast";
  }
  return "unknown";
}

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload offline_batch|serve_fleet|"
               "serve_hot --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE] [--tweet-acc-floor X] "
               "[--user-acc-floor X] [--commit SHA] [--source-digest SHA]\n"
            << "       perfbench --self-test --work-dir DIR\n";
  return 2;
}

void PrintMetrics(const char* heading, const Metrics& metrics) {
  std::cout << heading << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Number(m.value) << " " << m.unit
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      self_test = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  if (args.count("work-dir") == 0) return Usage("--work-dir is required");
  const std::string work_dir = args["work-dir"];
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return Usage("cannot create " + work_dir + ": " + ec.message());
  if (self_test) return perfbench::RunSelfTest(work_dir);

  perfbench::RunOptions options;
  options.work_dir = work_dir;
  const std::string workload = args["workload"];
  try {
    if (args.count("seed") == 0 || args.count("seconds") == 0 ||
        args.count("trace") == 0) {
      return Usage("--seed, --seconds and --trace are required");
    }
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
    options.trace = std::stoi(args["trace"]) != 0;
    if (args.count("tweet-acc-floor") != 0) {
      options.tweet_acc_floor = std::stod(args["tweet-acc-floor"]);
    }
    if (args.count("user-acc-floor") != 0) {
      options.user_acc_floor = std::stod(args["user-acc-floor"]);
    }
  } catch (const std::exception& e) {
    return Usage(std::string("bad number: ") + e.what());
  }
  if (workload != "offline_batch" && workload != "serve_fleet" &&
      workload != "serve_hot") {
    return Usage("unknown workload '" + workload + "'");
  }

  // Run context, so results of different builds, machines or kernel modes
  // are never compared by accident.
  std::ostringstream context;
  context << "{\"workload\": " << Quoted(workload)
          << ", \"seed\": " << options.seed
          << ", \"seconds\": " << Number(options.seconds)
          << ", \"trace\": " << (options.trace ? 1 : 0)
          << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
          << ", \"engine_threads\": " << perfbench::kEngineThreads
          << ", \"compiler\": " << Quoted(PERFBENCH_COMPILER)
          << ", \"cxx_flags\": " << Quoted(PERFBENCH_CXX_FLAGS)
          << ", \"build_type\": " << Quoted(PERFBENCH_BUILD_TYPE)
          << ", \"kernel_mode\": "
          << Quoted(KernelModeName(triclust::ActiveKernelMode()))
          << ", \"cpu_avx2\": "
          << (triclust::CpuSupportsAvx2() ? "true" : "false")
          << ", \"force_scalar\": "
          << (triclust::ForceScalarActive() ? "true" : "false")
          << ", \"git_commit\": " << Quoted(args["commit"])
          << ", \"source_digest\": " << Quoted(args["source-digest"]) << "}";
  std::cout << "context " << context.str() << std::endl;

  perfbench::Ledger ledger;
  perfbench::Tracer tracer(options.trace);
  perfbench::RunOutput out;
  if (workload == "offline_batch") {
    out = perfbench::RunOfflineBatch(options, &ledger, &tracer);
  } else if (workload == "serve_fleet") {
    out = perfbench::RunServeFleet(options, &ledger, &tracer);
  } else {
    out = perfbench::RunServeHot(options, &ledger, &tracer);
  }
  std::filesystem::remove_all(work_dir, ec);

  Metrics& reported = options.trace ? out.per_layer : out.end_to_end;
  for (Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      ledger.Check("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (options.trace && args.count("trace-out") != 0) {
    if (!tracer.WriteJson(args["trace-out"])) {
      ledger.Check("cannot write span file " + args["trace-out"]);
    } else {
      std::cout << "spans " << tracer.spans().size() << " written to "
                << args["trace-out"] << "\n";
    }
  }

  PrintMetrics(options.trace ? "end-to-end (untraced repetitions in this "
                               "traced run):"
                             : "end-to-end:",
               out.end_to_end);
  PrintMetrics("detail:", out.detail);
  if (options.trace) PrintMetrics("per-layer:", out.per_layer);
  std::cout << "  ops_attempted = " << ledger.attempted() << " count\n"
            << "  ops_failed = " << ledger.failed() << " count\n";
  for (const std::string& failure : ledger.failures()) {
    std::cout << "check failed: " << failure << "\n";
  }

  const bool correct = ledger.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    std::cout << (i ? ", " : "") << Quoted(reported[i].name)
              << ": {\"value\": " << Number(reported[i].value)
              << ", \"unit\": " << Quoted(reported[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
