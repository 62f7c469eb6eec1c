// e2ebench: composim's end-to-end benchmark driver.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--expect <digest,...>] [--spans <path>] [--print-digests]
//
// Run from the repository root (workload references name
// examples/graphs/*). --trace 0 times the workload and prints every
// end-to-end metric; --trace 1 runs the traced per-layer ledger instead.
// --expect passes the seed's recorded per-experiment digests (run.py reads
// them from digests.json). --print-digests runs one untimed pass and
// prints its digests. The last stdout line is always one JSON object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "inputs.hpp"
#include "workloads.hpp"

namespace {

using e2ebench::Report;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void printReport(const std::string& title, const Report& rep) {
  std::printf("%s\n", title.c_str());
  for (const std::string& line : rep.lines) std::printf("  %s\n", line.c_str());
  for (const auto& m : rep.metrics) {
    std::printf("  %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& f : rep.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += rep.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    if (i > 0) json += ", ";
    json += jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void printDigests(const e2ebench::RunArgs& args, const Report& rep) {
  std::string json = "{\"workload\": " + jsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"correct\": " + (rep.correct() ? "true" : "false") +
                     ", \"digests\": [";
  for (std::size_t i = 0; i < rep.digests.size(); ++i) {
    json += (i > 0 ? ", " : "") + jsonString(rep.digests[i]);
  }
  std::printf("%s]}\n", json.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--expect <d,...>] "
               "[--spans <path>] [--print-digests]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunArgs args;
  bool trace = false;
  bool print_digests = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      print_digests = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--expect") {
      std::stringstream list(value);
      for (std::string d; std::getline(list, d, ',');) {
        if (!d.empty()) args.expected_digests.push_back(d);
      }
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : e2ebench::workloadNames()) {
    known = known || w == args.workload;
  }
  if (!known) {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  try {
    if (print_digests) {
      printDigests(args, e2ebench::digestPass(args));
    } else if (trace) {
      printReport("per-layer ledger, " + args.workload + " seed " +
                      std::to_string(args.seed),
                  e2ebench::runLedger(args, spans_path));
    } else {
      printReport(args.workload + " seed " + std::to_string(args.seed),
                  e2ebench::runWorkload(args));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  return 0;
}
