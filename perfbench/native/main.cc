// qpwm_perfbench — the benchmark's in-process helper.
//
//   qpwm_perfbench gen-xml --students N --names K --seed S --out FILE
//       writes a RandomSchoolDocument (N students, K first names).
//   qpwm_perfbench gen-csv --rows N --customers K --seed S --out FILE
//       writes an order,customer,revenue ledger (~N/K orders per customer).
//   qpwm_perfbench serve
//       reads one request per line on stdin, answers one JSON line each:
//         replica T COMMAND --flag value...  one replica op (T = trace 0|1)
//         leak-setup T SEED                  (re)build the answers-only workload
//         leak T mark|read                   one answers-only op
//         leak T mark-corrupt|read-wrong-copy  the same op with its check
//                                            made to fail (self-test)
//         reference                          one run of the speed reference
//         peak                               the peak RSS of everything but
//                                            the reference, in kB
//         quit
//       Every answer carries the op's wall time, and with T = 1 its spans
//       and counters.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "leak.h"
#include "reference.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/dom.h"
#include "qpwm/xml/encode.h"
#include "replica.h"
#include "spans.h"

namespace {

using perfbench::Tracer;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// "spans": [[name, id, parent, request, start_ms, end_ms], ...], "counts": {...}
std::string TraceJson(const Tracer& t) {
  std::string out = "\"spans\":[";
  bool first = true;
  for (const perfbench::SpanRecord& s : t.spans()) {
    if (!first) out += ',';
    first = false;
    out += "[" + JsonString(s.name) + "," + std::to_string(s.id) + "," + std::to_string(s.parent) +
           "," + std::to_string(s.request) + "," + JsonNumber(s.start_ms) + "," +
           JsonNumber(s.end_ms) + "]";
  }
  out += "],\"counts\":{";
  first = true;
  for (const auto& [name, value] : t.counts()) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  return out + "}";
}

// gen-xml / gen-csv: writes one generated input file; returns the exit code.
int Generate(const std::string& what, const std::vector<std::string>& args) {
  static const std::set<std::string> kFlags = {"--seed",  "--out",  "--students",
                                               "--names", "--rows", "--customers"};
  std::map<std::string, std::string> flags;
  for (size_t i = 0; i + 1 < args.size(); i += 2) {
    if (!kFlags.contains(args[i])) {
      std::cerr << what << ": unknown flag " << args[i] << "\n";
      return 2;
    }
    flags[args[i]] = args[i + 1];
  }
  const auto num = [&](const std::string& flag, uint64_t fallback) {
    const auto it = flags.find(flag);
    return it == flags.end() ? fallback : std::stoull(it->second);
  };
  std::string text;
  if (what == "gen-xml") {
    qpwm::Rng rng(num("--seed", 1));
    text = qpwm::SerializeXml(
        qpwm::RandomSchoolDocument(num("--students", 1000), rng, 0, 20, num("--names", 2)));
  } else {
    // order,customer,revenue with about rows/customers orders per customer
    // (bounded degree).
    std::mt19937_64 rng(num("--seed", 1));
    const uint64_t customers = num("--customers", 1);
    text = "order,customer,revenue\n";
    for (uint64_t i = 0, rows = num("--rows", 0); i < rows; ++i) {
      text += "O" + std::to_string(i) + ",C" + std::to_string(rng() % customers) + "," +
              std::to_string(100 + rng() % 9900) + "\n";
    }
  }
  const std::string out = flags["--out"];
  std::FILE* f = out.empty() ? nullptr : std::fopen(out.c_str(), "wb");
  const bool written = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) return 2;
  if (!written) {
    std::cerr << what << ": cannot write --out " << out << "\n";
    return 2;
  }
  return 0;
}

// The process's resident set high-water mark (VmHWM), in kB.
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

int Serve() {
  std::unique_ptr<perfbench::LeakWorkload> leak;
  long program_peak_kb = 0;  // peak RSS before the latest reference run
  uint64_t request = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::vector<std::string> words;
    for (std::string w; in >> w;) words.push_back(w);
    if (words.empty()) continue;
    const std::string& cmd = words[0];
    if (cmd == "quit") break;
    if (cmd == "reference") {
      // The reference's memory must not count as the program's: note the
      // peak so far, and after the run (which unmaps all it touched) restart
      // the high-water mark from the current RSS.
      program_peak_kb = std::max(program_peak_kb, PeakRssKb());
      const double t0 = perfbench::NowMs();
      char output[17];
      std::snprintf(output, sizeof output, "%016llx",
                    static_cast<unsigned long long>(perfbench::RunReference()));
      const double wall = perfbench::NowMs() - t0;
      std::ofstream("/proc/self/clear_refs") << "5";
      std::cout << "{\"wall_ms\":" << JsonNumber(wall) << ",\"output\":" << JsonString(output)
                << "}" << std::endl;
      continue;
    }
    if (cmd == "peak") {
      std::cout << "{\"peak_kb\":" << std::max(program_peak_kb, PeakRssKb()) << "}" << std::endl;
      continue;
    }
    if (words.size() < 3) {
      std::cout << "{\"error\":" << JsonString("bad request: " + line) << "}" << std::endl;
      continue;
    }
    Tracer tracer(words[1] == "1");
    tracer.BeginRequest(++request);
    std::string body;
    if (cmd == "replica") {
      perfbench::Flags flags;
      for (size_t i = 3; i + 1 < words.size(); i += 2) flags[words[i].substr(2)] = words[i + 1];
      const double t0 = perfbench::NowMs();
      perfbench::ReplicaResult r = [&] {
        perfbench::Span op(tracer, "op." + words[2]);
        return perfbench::RunReplica(words[2], flags, tracer);
      }();
      const double wall = perfbench::NowMs() - t0;
      body = "\"wall_ms\":" + JsonNumber(wall) + ",\"exit\":" + std::to_string(r.exit_code) +
             ",\"error\":" + JsonString(r.error) + ",\"payload\":" + JsonString(r.payload);
    } else if (cmd == "leak-setup") {
      leak.reset();
      const double t0 = perfbench::NowMs();
      {
        perfbench::Span op(tracer, "op.setup");
        leak = std::make_unique<perfbench::LeakWorkload>(std::stoull(words[2]), tracer);
      }
      body = "\"wall_ms\":" + JsonNumber(perfbench::NowMs() - t0);
    } else if (cmd == "leak" && leak &&
               (words[2] == "mark" || words[2] == "mark-corrupt" || words[2] == "read" ||
                words[2] == "read-wrong-copy")) {
      const perfbench::LeakOutcome o = words[2].starts_with("mark")
                                           ? leak->Mark(tracer, words[2] == "mark-corrupt")
                                           : leak->Read(tracer, words[2] == "read-wrong-copy");
      body = "\"wall_ms\":" + JsonNumber(o.wall_ms) + ",\"ok\":" + (o.ok ? "true" : "false") +
             ",\"detail\":" + JsonString(o.detail);
    } else {
      std::cout << "{\"error\":" << JsonString("bad request: " + line) << "}" << std::endl;
      continue;
    }
    std::cout << "{" << body << "," << TraceJson(tracer) << "}" << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "gen-xml" || args[0] == "gen-csv")) {
    return Generate(args[0], std::vector<std::string>(args.begin() + 1, args.end()));
  }
  if (!args.empty() && args[0] == "serve") return Serve();
  std::cerr << "usage: qpwm_perfbench gen-xml --students N --names K --seed S --out FILE\n"
               "       qpwm_perfbench gen-csv --rows N --customers K --seed S --out FILE\n"
               "       qpwm_perfbench serve\n";
  return 2;
}
