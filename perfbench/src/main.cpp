// Chronos benchmark program.
//
//   chronos_perfbench --workload <office_batch|daemon_hostile>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable notes (lines starting with '#'), the host
// fingerprint, and as the LAST line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set of
// the traced pass (--trace 1). Spans of a traced run and the deterministic
// counters are written under .bench_out/. Exits 1 when a correctness gate
// fails, 2 on bad usage.
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && opt.seconds > 0.0;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Deterministic counters of (workload, seed) must repeat exactly: the first
/// run records them, every later run compares. Returns the differing names.
std::vector<std::string> check_counters(const Options& opt, const Report& rep) {
  namespace fs = std::filesystem;
  std::vector<std::string> diffs;
  const fs::path dir = fs::path(".bench_out") / "counters";
  std::error_code ec;
  fs::create_directories(dir, ec);
  // Keyed by the executable too: a rebuilt program may count differently.
  const auto exe_time = fs::last_write_time("/proc/self/exe", ec);
  const std::string build_id = std::to_string(
      static_cast<long long>(exe_time.time_since_epoch().count()));
  const fs::path file =
      dir / (opt.workload + "-" + std::to_string(opt.seed) + "-" +
             std::to_string(opt.seconds) + "-" + build_id + ".txt");
  std::map<std::string, std::uint64_t> previous;
  {
    std::ifstream in(file);
    std::string name;
    std::uint64_t value = 0;
    while (in >> name >> value) previous[name] = value;
  }
  for (const auto& [name, value] : rep.counters) {
    const auto it = previous.find(name);
    if (it != previous.end() && it->second != value) diffs.push_back(name);
    previous[name] = value;
  }
  std::ofstream out(file);
  for (const auto& [name, value] : previous) out << name << ' ' << value << '\n';
  return diffs;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: chronos_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  if (opt.workload != "office_batch" && opt.workload != "daemon_hostile") {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }

  std::cout << "# host " << host_fingerprint_json() << "\n";
  opt.ref_kernel_ns = reference_kernel_ns();
  std::cout << "# host.ref_kernel_ns " << number(opt.ref_kernel_ns) << "\n";

  Report rep;
  Tracer tracer(Clock::now());
  try {
    if (opt.workload == "office_batch") {
      run_office_batch(opt, rep, tracer);
    } else {
      run_daemon_hostile(opt, rep, tracer);
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& diff : check_counters(opt, rep)) {
    rep.fail("deterministic counter changed since an earlier run of this "
             "seed: " + diff);
  }
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!tracer.write(path)) rep.note("could not write " + path);
  }

  for (const std::string& line : rep.notes) std::cout << "# " << line << "\n";
  for (const auto& [name, value] : rep.counters) {
    std::cout << "# counter " << name << " = " << value << "\n";
  }
  for (const Metric& m : opt.trace ? rep.per_layer : rep.end_to_end) {
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& why : rep.gate_failures) {
    std::cout << "# CORRECTNESS GATE FAILED: " << why << "\n";
  }
  std::cout << "{\"correct\": " << (rep.correct() ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": "
            << metrics_json(opt.trace ? rep.per_layer : rep.end_to_end)
            << "}" << std::endl;
  return rep.correct() ? 0 : 1;
}
