// perfbench: the repo benchmark's harness binary.
//
//   perfbench --workload {sweep|exact|service|synth} --seed N --seconds S
//             --trace {0|1} [--smoke] [--expect-digest HEX] [--trace-out PATH]
//
// Generates the workload's inputs from the seed, sets up five times
// (median reported), replays the inputs in whole rounds until S seconds
// have passed, checks the outputs, and prints one JSON object as the
// last line of stdout: the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced replay with --trace 1. Lines
// starting with '#' before it describe the inputs and the environment.
// See README.md in this directory.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string expect_digest;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {sweep|exact|service|synth} "
               "--seed N --seconds S --trace {0|1} [--smoke] [--expect-digest HEX] "
               "[--trace-out PATH]\n",
               message);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  return args;
}

// The first line of `path`, or with `key` the value of its first
// "key<tab>: value" line (the /proc/cpuinfo layout).
std::string ReadProcLine(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (key == nullptr) {
      return line;
    }
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

// The environment guard: what the numbers were measured on. Returns
// false for a build whose numbers must not be reported.
bool Environment(std::string* json) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  double load = 0;
  std::istringstream(ReadProcLine("/proc/loadavg", nullptr)) >> load;
  const char* commit = std::getenv("PERFBENCH_COMMIT");
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"build_type\": \"%s\", \"optimized\": %s, \"compiler\": \"%s\", "
                "\"nproc\": %ld, \"cpu\": \"%s\", \"commit\": \"%s\", \"loadavg_1m\": %.2f, "
                "\"loaded\": %s}",
                build_type.c_str(), optimized ? "true" : "false", Escape(__VERSION__).c_str(),
                nproc, Escape(ReadProcLine("/proc/cpuinfo", "model name")).c_str(),
                commit != nullptr ? Escape(commit).c_str() : "unknown", load,
                load > static_cast<double>(nproc) ? "true" : "false");
  *json = buf;
  if (load > static_cast<double>(nproc)) {
    std::printf("# warning: 1-minute load average %.2f exceeds nproc %ld\n", load, nproc);
  }
  return optimized && build_type == "Release";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  char buf[256];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(), value.first,
                  value.second.c_str());
    out += buf;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::string env;
  const bool trusted = Environment(&env);
  std::printf("# env %s\n", env.c_str());
  if (!trusted) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a non-Release build\n");
    return 3;
  }

  // Set-up: input generation, fixtures, and untimed warm-up calls on
  // shapes outside the list, five times; the median is setup_s.
  std::unique_ptr<Workload> workload;
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const double start = Now();
    workload = MakeWorkload(args.workload, args.seed, args.smoke);
    if (workload == nullptr) {
      Usage(("unknown workload " + args.workload).c_str());
    }
    workload->WarmUp();
    setups.push_back(Now() - start);
  }
  std::printf("# inputs (seed %llu) %s\n", static_cast<unsigned long long>(args.seed),
              workload->Describe().c_str());

  std::vector<Replay> rounds;
  Tracer tracer(args.smoke);
  double untraced_wall = 0;
  if (!args.trace) {
    const double start = Now();
    do {
      rounds.push_back(workload->Run(nullptr));
    } while (Now() - start < args.seconds);
  } else {
    // Untraced, traced, untraced: the overhead baseline is the mean of
    // the two untraced replays around the traced one.
    rounds.push_back(workload->Run(nullptr));
    rounds.push_back(workload->Run(&tracer));
    rounds.push_back(workload->Run(nullptr));
    untraced_wall = (rounds[0].wall_s + rounds[2].wall_s) / 2;
  }

  long attempted = 0;
  long failed = 0;
  for (const Replay& round : rounds) {
    attempted += round.calls;
    failed += round.failed;
    if (round.digest != rounds.front().digest) {
      ++failed;
      std::printf("# error: replay digests differ between rounds\n");
    }
  }
  std::vector<std::string> errors;
  workload->Check(&errors);
  attempted += workload->CheckCount();
  failed += static_cast<long>(errors.size());
  for (const std::string& error : errors) {
    std::printf("# error: %s\n", Escape(error).c_str());
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(rounds.front().digest));
  std::printf("# output digest %s\n", digest);
  if (!args.expect_digest.empty()) {
    ++attempted;
    if (args.expect_digest != digest) {
      ++failed;
      std::printf("# error: output digest %s, expected %s\n", digest,
                  args.expect_digest.c_str());
    }
  }

  MetricMap metrics;
  if (!args.trace) {
    std::vector<double> wall;
    std::vector<double> cold;
    std::vector<double> warm;
    double cold_s = 0;
    long candidates = 0;
    for (const Replay& round : rounds) {
      wall.push_back(round.wall_s);
      cold.insert(cold.end(), round.cold_ms.begin(), round.cold_ms.end());
      warm.insert(warm.end(), round.warm_ms.begin(), round.warm_ms.end());
      cold_s += round.cold_s;
      candidates += round.cold_candidates;
    }
    std::printf("# %zu rounds, %zu cold and %zu warm calls\n", rounds.size(), cold.size(),
                warm.size());
    metrics["setup_s"] = {Median(setups), "s"};
    metrics["wall_s"] = {Median(wall), "s"};
    metrics["cold_query_p50_ms"] = {Quantile(cold, 0.5), "ms"};
    metrics["cold_query_p90_ms"] = {Quantile(cold, 0.9), "ms"};
    metrics["warm_query_p50_ms"] = {Quantile(warm, 0.5), "ms"};
    metrics["warm_query_p90_ms"] = {Quantile(warm, 0.9), "ms"};
    metrics["candidates_per_s"] = {cold_s > 0 ? static_cast<double>(candidates) / cold_s : 0,
                                   "1/s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    metrics = tracer.Metrics(untraced_wall, rounds[1].wall_s);
    const std::string path =
        args.trace_out.empty() ? "perfbench-trace-" + args.workload + ".json" : args.trace_out;
    std::ofstream out(path);
    out << "{\"env\": " << env << ",\n\"workload\": \"" << args.workload
        << "\", \"seed\": " << args.seed << ",\n\"layers\": {";
    bool first = true;
    for (const auto& [name, layer] : tracer.recorder().Summarize()) {
      out << (first ? "" : ",") << "\n  \"" << name << "\": {\"calls\": " << layer.calls
          << ", \"ops\": " << layer.ops << ", \"total_s\": " << layer.total_s
          << ", \"self_s\": " << layer.self_s << "}";
      first = false;
    }
    out << "},\n\"replayed_calls\": {\"total_s\": " << tracer.replayed_call_s()
        << ", \"covered_s\": " << tracer.covered_s()
        << ", \"self_s\": " << tracer.replayed_call_s() - tracer.covered_s() << "}";
    out << ",\n\"metrics\": " << MetricsJson(metrics)
        << ",\n\"traceEvents\": " << tracer.recorder().ToChromeTraceJson() << "}\n";
    MEPIPE_CHECK(out.good()) << "cannot write " << path;
    std::printf("# trace written to %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed, MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
