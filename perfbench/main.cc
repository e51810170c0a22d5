// fsdp_perfbench: runs one benchmark workload and prints, as its last line
// of standard output, one JSON object with every metric the run measured,
// the attempted / failed operation counts, the failure messages and the
// exact counters. run.py builds this binary, selects the metrics that
// BENCHMARK.json names and prints the benchmark's result line.
//
//   fsdp_perfbench --workload <train_wide|plan_tune>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// With --trace 1 the run also writes its spans (name, start, end, parent,
// step) as JSON to the --spans file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace fsdp::perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Finite values print with all their digits; anything else is null, which
/// run.py rejects.
std::string Number(double v) { return std::isfinite(v) ? Exact(v) : "null"; }

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"id\":" << s.id << ",\"name\":" << Quote(s.name)
      << ",\"start_us\":" << Number(s.start_us)
      << ",\"end_us\":" << Number(s.end_us) << ",\"parent\":" << s.parent
      << ",\"step\":" << s.step << ",\"thread\":" << s.thread << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "fsdp_perfbench: %s\nusage: fsdp_perfbench --workload "
               "<train_wide|plan_tune> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  NowUs();  // start the clock
  GlobalTracer().set_enabled(args.trace);
  RunResult r;
  if (args.workload == "train_wide") {
    r = RunTrainWide(args);
  } else if (args.workload == "plan_tune") {
    r = RunPlanTune(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace && !spans_path.empty()) {
    WriteSpans(spans_path, GlobalTracer().spans());
  }

  std::ostringstream out;
  out << "{\"workload\":" << Quote(args.workload)
      << ",\"attempted\":" << r.outcome.attempted()
      << ",\"failed\":" << r.outcome.failed() << ",\"failures\":[";
  for (size_t i = 0; i < r.outcome.failures().size(); ++i) {
    out << (i ? "," : "") << Quote(r.outcome.failures()[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    out << (first ? "" : ",") << Quote(name) << ":" << Number(value);
    first = false;
  }
  out << "},\"exact\":{";
  first = true;
  for (const auto& [name, value] : r.exact) {
    out << (first ? "" : ",") << Quote(name) << ":" << Quote(value);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace fsdp::perfbench

int main(int argc, char** argv) { return fsdp::perfbench::Main(argc, argv); }
