/// hoh_bench — one workload of the outside-in benchmark (README.md).
///
/// Usage:
///   hoh_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--scale bench|smoke|full]
///
/// Runs fresh rounds of the workload until --seconds of host time have
/// passed — at least one; with --trace 1 untraced and traced rounds
/// alternate and each kind runs at least once — checks every round and
/// prints one JSON document on the last line of standard output:
/// end-to-end metrics (medians over the untraced rounds), per-layer
/// metrics (medians over the traced rounds), the deterministic pins and
/// the op counts. Exits 1 when a check failed and 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/statistics.h"
#include "hoh_bench/span_recorder.h"
#include "hoh_bench/workloads.h"

namespace {

using namespace hoh;
using bench::RoundResult;

/// Keeps the whole process — the socket reactor included — on the
/// highest CPU it may use. Frames then change threads on one core rather
/// than waking another one, which makes runs far steadier on a host whose
/// other cores are busy.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

common::Json metric(double value, const std::string& unit) {
  common::Json m;
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

/// Median of \p field over the rounds whose traced flag is \p traced.
template <typename Field>
double median_over(const std::vector<RoundResult>& rounds, bool traced,
                   Field field) {
  std::vector<double> values;
  for (const RoundResult& r : rounds) {
    if (r.traced == traced) values.push_back(field(r));
  }
  return common::median(std::move(values));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hoh_bench: %s\nusage: hoh_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale bench|smoke|full]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = bench::SpanRecorder::now_ns();
  std::string name;
  std::string scale = "bench";
  std::optional<std::uint64_t> seed_arg;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed_arg = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--scale") {
      scale = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  bench::Workload workload;
  try {
    workload = bench::find_workload(name, scale);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const std::uint64_t seed = seed_arg.value_or(workload.default_seed);
  pin_to_one_cpu();

  std::vector<std::string> errors;
  std::vector<RoundResult> rounds;
  std::optional<common::Json> reference;
  int untraced = 0;
  int traced = 0;
  try {
    // The socket cell must reproduce the in-process run of its shape.
    if (!workload.tenant && workload.kmeans.socket) {
      bench::Workload inproc = workload;
      inproc.kmeans.socket = false;
      const RoundResult ref = bench::run_round(inproc, seed, false);
      for (const auto& e : ref.errors) {
        errors.push_back("in-process reference: " + e);
      }
      reference = ref.pins;
    }
    const auto elapsed = [&] {
      return static_cast<double>(bench::SpanRecorder::now_ns() -
                                 process_start) / 1e9;
    };
    while (untraced == 0 || (trace && traced == 0) || elapsed() < seconds) {
      const bool traced_round = trace && untraced > traced;
      rounds.push_back(bench::run_round(workload, seed, traced_round));
      ++(traced_round ? traced : untraced);
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("exception: ") + e.what());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    const std::string where = "round " + std::to_string(i) + ": ";
    for (const auto& e : r.errors) errors.push_back(where + e);
    if (r.pins != rounds.front().pins) {
      errors.push_back(where + "pins differ from round 0");
    }
    if (reference.has_value() && r.pins != *reference) {
      errors.push_back(where + "differs from the in-process run");
    }
    attempted += r.attempted;
    failed += r.failed;
  }
  if (!errors.empty()) failed = attempted;

  common::Json doc;
  doc["workload"] = workload.name;
  doc["scale"] = scale;
  doc["seed"] = seed;
  doc["correct"] = errors.empty();
  common::JsonArray error_list(errors.begin(), errors.end());
  doc["errors"] = std::move(error_list);
  doc["rounds"]["untraced"] = untraced;
  doc["rounds"]["traced"] = traced;
  doc["ops"]["attempted"] = attempted;
  doc["ops"]["failed"] = failed;
  if (!rounds.empty()) doc["pins"] = rounds.front().pins;

  if (untraced > 0) {
    common::Json& e2e = doc["end_to_end"];
    e2e["units_per_s"] = metric(
        median_over(rounds, false,
                    [](const RoundResult& r) {
                      return r.timed_s > 0.0
                                 ? static_cast<double>(r.done) / r.timed_s
                                 : 0.0;
                    }),
        "units/s");
    e2e["setup_s"] = metric(
        median_over(rounds, false,
                    [](const RoundResult& r) { return r.setup_s; }),
        "s");
    e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  }
  if (traced > 0) {
    common::Json& layers = doc["layers"];
    const auto timed = [](const RoundResult& r) { return r.timed_s; };
    const double untraced_s = median_over(rounds, false, timed);
    layers["trace.overhead_frac"] = metric(
        untraced_s > 0.0 ? median_over(rounds, true, timed) / untraced_s - 1.0
                         : 0.0,
        "frac");
    // The layer with the largest self time: "engine.self_frac" names
    // "engine", "unit_manager.all_done_self_frac" "unit_manager.all_done".
    const std::string self_frac = "self_frac";
    std::string dominant;
    double dominant_frac = -1.0;
    const auto first = std::find_if(rounds.begin(), rounds.end(),
                                    [](const RoundResult& r) { return r.traced; });
    for (const auto& [key, m] : first->layers) {
      const double value =
          median_over(rounds, true, [&key](const RoundResult& r) {
            const auto it = r.layers.find(key);
            return it == r.layers.end() ? 0.0 : it->second.value;
          });
      layers[key] = metric(value, m.unit);
      if (key.ends_with(self_frac) && value > dominant_frac) {
        dominant = key.substr(0, key.size() - self_frac.size() - 1);
        dominant_frac = value;
      }
    }
    doc["dominant_layer"] = dominant;
  }

  std::printf("%s\n", doc.dump().c_str());
  return errors.empty() ? 0 : 1;
}
