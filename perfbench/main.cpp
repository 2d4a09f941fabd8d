// perfbench: the repository benchmark binary. perfbench/run.py builds it
// and is the documented entry point:
//
//   perfbench --workload thread_contended|thread_spread|sim_fuzz
//             --seed N --seconds S --trace 0|1
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 runs the
// end-to-end loop; --trace 1 runs the per-layer ledger (workload files
// explain both). Exit 2 on bad arguments.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload thread_contended|"
               "thread_spread|sim_fuzz --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

bool parse_uint(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(value, &number)) usage("--seed must be an unsigned integer");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, &number) || number < 1 || number > 600) {
        usage("--seconds must be an integer in [1, 600]");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  return options;
}

/// Confines this thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on. On a small shared VM, rank threads on
/// separate vCPUs hand shard mutexes to each other through futex wake-ups
/// whose cost (5-12 us) follows the host's load: the threaded workloads'
/// p99 swung between 4 and 12 us from program to program. On one CPU the
/// ranks interleave through the same mutexes, recorder and clocks, and what
/// the host still varies is the CPU's speed.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::fprintf(stderr, "perfbench: could not pin to CPU %d; running unpinned\n", cpu);
    }
    return;
  }
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  // Pin glibc's allocator to a warm steady state: with its default dynamic
  // mmap/trim thresholds, whether a World's multi-MiB segments come back as
  // recycled heap or as fresh zero pages depends on the allocation history,
  // so a pseudo-random 1-2% of programs paid thousands of page faults and
  // the tail percentiles flipped from seed to seed. Large blocks now stay in
  // the heap and freed memory is kept for reuse.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  pin_to_one_cpu();
  Result result;
  if (options.workload == "thread_contended") {
    result = run_thread_contended(options);
  } else if (options.workload == "thread_spread") {
    result = run_thread_spread(options);
  } else if (options.workload == "sim_fuzz") {
    result = run_sim_fuzz(options);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  const double failed_ratio =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  if (options.trace) result.add("failed_ratio", failed_ratio, "ratio");
  std::fprintf(stderr, "perfbench %s seed=%llu: attempted=%llu failed=%llu (ratio %g)\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed), failed_ratio);
  std::string line = "{\"correct\": ";
  line += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + metric.name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    std::fprintf(stderr, "  %-32s %.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
