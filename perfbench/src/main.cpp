// perfbench: the repository benchmark's binary. Runs one workload for a
// time budget, gates its outcome, and prints one JSON object with the
// run's provenance, correctness tally and metrics. perfbench/run.py
// builds this binary, runs it, and turns the object into the report.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--spans PATH] [--commit C] [--source DIGEST]
//
// W is mixed_native_<structure> (skip, multiqueue), service_trace, or
// paper_sim_<structure> (skip, funnel).
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Result;
using perfbench::RunSpec;

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--commit C] [--source DIGEST]\n"
               "  W: mixed_native_{skip,multiqueue}, service_trace, "
               "paper_sim_{skip,funnel}\n";
  std::exit(2);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int online_cpus() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof set, &set) == 0
             ? CPU_COUNT(&set)
             : static_cast<int>(std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_spans(const std::string& path, const perfbench::Tracer& tracer) {
  std::ofstream f(path);
  f << "id,parent,op,name,start_ns,end_ns\n";
  for (const perfbench::Span& s : tracer.spans())
    f << s.id << ',' << s.parent << ',' << s.op << ',' << s.name << ','
      << s.start << ',' << s.end << '\n';
  if (!f) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans, commit = "unknown", source = "unknown";
  RunSpec spec;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      spec.seconds = std::strtod(v, &end);
      have_seconds = *v != '\0' && *end == '\0' && spec.seconds > 0;
    } else if (arg == "--trace") {
      spec.trace = std::strcmp(v, "1") == 0;
      have_trace = spec.trace || std::strcmp(v, "0") == 0;
    } else if (arg == "--spans") {
      spans = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--source") {
      source = v;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace take a number (--trace 0 or 1)");

  // Provenance goes into every output; numbers from a debug, assertion or
  // sanitizer build are refused rather than recorded.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::ostringstream prov;
  prov << "{\"build_type\": " << quoted(build_type)
       << ", \"assertions\": " << (kAssertions ? "true" : "false")
       << ", \"sanitizers\": " << (kSanitized ? "true" : "false")
       << ", \"nproc\": " << online_cpus() << ", \"seed\": " << spec.seed
       << ", \"git_commit\": " << quoted(commit)
       << ", \"source_sha256\": " << quoted(source)
       << ", \"compiler\": " << quoted(__VERSION__) << "}";
  if ((build_type != "Release" && build_type != "RelWithDebInfo") ||
      kAssertions || kSanitized) {
    std::cerr << "perfbench: refusing to record from this build: "
              << prov.str() << "\n";
    return 3;
  }

  Result result;
  try {
    const auto structure = [&](const std::string& prefix,
                               std::initializer_list<const char*> names) {
      for (const char* name : names)
        if (workload == prefix + name) return std::string(name);
      return std::string();
    };
    if (const std::string s = structure("mixed_native_", {"skip", "multiqueue"});
        !s.empty())
      perfbench::run_mixed_native(spec, s, result);
    else if (const std::string s =
                 structure("paper_sim_", {"skip", "funnel"});
             !s.empty())
      perfbench::run_paper_sim(spec, s, result);
    else if (workload == "service_trace")
      perfbench::run_service_trace(spec, result);
    else
      usage(("unknown workload " + workload).c_str());
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    if (spec.trace && !spans.empty()) write_spans(spans, result.tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    return 1;
  }

  std::ostringstream os;
  os << "{\"provenance\": " << prov.str()
     << ", \"correct\": " << (result.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"violations\": [";
  for (std::size_t i = 0; i < result.violations.size(); ++i)
    os << (i ? ", " : "") << quoted(result.violations[i]);
  os << "], \"notes\": [";
  for (std::size_t i = 0; i < result.notes.size(); ++i)
    os << (i ? ", " : "") << quoted(result.notes[i]);
  os << "], \"metrics\": [";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    os << (i ? ", " : "") << "{\"name\": " << quoted(m.name)
       << ", \"value\": " << number(m.value) << ", \"unit\": "
       << quoted(m.unit) << ", \"samples\": " << m.samples << "}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return result.failed == 0 ? 0 : 1;
}
