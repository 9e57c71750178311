// perfbench: the repository's benchmark program.
//
//   perfbench --workload <infer-cnn|serve-small|compile-search> --seed <n>
//             --seconds <s> --trace <0|1> --bench-dir <perfbench dir>
//             --work-dir <scratch dir> [--plant-flip]
//   perfbench --print-digests      (expected_digests.txt contents)
//
// Prints human-readable failures to stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see perfbench/README.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "support/logging.hpp"
#include "workloads.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  htvm::SetLogLevel(htvm::LogLevel::kWarn);
  RunConfig config;
  bool print_digests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--print-digests") {
      print_digests = true;
    } else if (arg == "--plant-flip") {
      config.plant_flip = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--bench-dir") {
      config.bench_dir = argv[++i];
    } else if (arg == "--work-dir") {
      config.work_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  if (print_digests) {
    std::vector<SourceModel> sources;
    for (const ModelSpec& spec : AllModelSpecs()) {
      auto source = BuildSource(spec);
      if (!source.ok()) return Usage(source.status().ToString().c_str());
      sources.push_back(std::move(*source));
    }
    std::printf("%s", DigestLines(sources).c_str());
    return 0;
  }

  if (config.seconds <= 0) return Usage("--seconds must be positive");
  if (config.bench_dir.empty() || config.work_dir.empty()) {
    return Usage("--bench-dir and --work-dir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  Report report;
  if (config.workload == "infer-cnn") {
    RunInferCnn(config, report);
  } else if (config.workload == "serve-small") {
    RunServeSmall(config, report);
  } else if (config.workload == "compile-search") {
    RunCompileSearch(config, report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (!config.trace && report.attempted > 0) {
    report.Set("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
