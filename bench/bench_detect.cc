// bench_detect — the detection-side perf baseline: the witness-resolve
// kernel against the per-read oracle, and the parallel multi-suspect fan-out.
//
// Detection is the serving hot path once a scheme is deployed: the detector
// replans once, then reads pair weights through query answers for every
// suspect copy (Remark 2's fingerprint tracing runs this against up to 2^l
// marked copies). The oracle (tests/detect_oracle.h) pays one Answer() round
// trip per pair element — an AnswerSet allocation plus a linear scan. The
// kernel (PairCarrier::Observe) answers each distinct witness parameter once
// per run in one flat AnswerAllFlat batch and resolves rows through an
// epoch-stamped table.
//
// Instance: bounded-degree graph with a DistanceQuery ball (answer sets of
// a few dozen rows — the regime where re-answering per pair hurts most).
//
// Reported speedups are against the oracle. Observations are verified
// identical to the oracle's, and detections bit-identical across thread
// counts; the run fails if they are not.
//
// --json[=PATH] writes/merges the "detect_scale" section of
// BENCH_detect.json so future PRs have a trajectory to beat.
//
// The fan-out is additionally held against the *serial optimized* detector
// (a plain loop of single-suspect detections with every fast path on): the
// honest bar for the thread pool, reported as parallel_faster_than_serial.
//
// --sweep[=N1,N2,...] scales the fan-out to 10^6-element instances (qrho=2,
// a few suspects) with flat-storage bytes per tuple and process peak RSS per
// point; sizes are visited ascending so each RSS sample is dominated by the
// current instance.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_json.h"
#include "detect_oracle.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

using namespace qpwm;

namespace {

double TimeMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool SameDetection(const AdversarialDetection& a, const AdversarialDetection& b) {
  if (a.mark.size() != b.mark.size() || a.margins != b.margins ||
      a.min_margin != b.min_margin || a.group_sizes != b.group_sizes ||
      a.bit_erased != b.bit_erased || a.pairs_erased != b.pairs_erased ||
      a.bits_recovered != b.bits_recovered || a.bits_erased != b.bits_erased) {
    return false;
  }
  for (size_t i = 0; i < a.mark.size(); ++i) {
    if (a.mark.Get(i) != b.mark.Get(i)) return false;
  }
  return true;
}

bool SameObservations(const std::vector<PairObservation>& a,
                      const std::vector<PairObservation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].delta != b[i].delta || a[i].erased != b[i].erased) return false;
  }
  return true;
}

struct PathResult {
  std::string path;
  double ms = 0;
  bool identical = true;
};

struct FanoutResult {
  size_t threads = 0;
  double ms = 0;
  bool identical = true;
};

struct DetectSweepPoint {
  size_t n = 0;
  size_t tuples = 0;
  size_t pairs = 0;
  size_t suspects = 0;
  double serial_optimized_ms = 0;
  double fanout_1t_ms = 0;
  double fanout_8t_ms = 0;
  size_t structure_bytes = 0;
  uint64_t peak_rss_kb = 0;
  bool identical = true;
};

std::vector<size_t> ParseSizeList(const std::string& list) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    out.push_back(std::stoul(list.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults picked for a serving-heavy regime: distance-4 balls on a
  // degree-4 graph give large answer sets with ~7x witness sharing, the
  // regime batching exists for (big answers re-served per pair element).
  size_t n = 2000;
  size_t k = 4;
  uint32_t qrho = 4;
  size_t num_suspects = 32;
  size_t redundancy = 5;
  int reps = 3;
  double epsilon = 0.02;
  std::optional<std::string> json_path;
  std::vector<size_t> sweep_sizes;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_detect.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--sweep") {
      sweep_sizes = {50000, 200000, 1000000};
    } else if (arg.rfind("--sweep=", 0) == 0) {
      sweep_sizes = ParseSizeList(arg.substr(8));
    } else if (arg == "--n" && i + 1 < argc) {
      n = std::stoul(argv[++i]);
    } else if (arg == "--k" && i + 1 < argc) {
      k = std::stoul(argv[++i]);
    } else if (arg == "--qrho" && i + 1 < argc) {
      qrho = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--suspects" && i + 1 < argc) {
      num_suspects = std::stoul(argv[++i]);
    } else if (arg == "--redundancy" && i + 1 < argc) {
      redundancy = std::stoul(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--epsilon" && i + 1 < argc) {
      epsilon = std::stod(argv[++i]);
    } else {
      std::cerr << "usage: bench_detect [--json[=PATH]] [--n N] [--k K] "
                   "[--qrho R] [--suspects S] [--redundancy R] [--reps R] "
                   "[--epsilon E] [--sweep[=N1,N2,...]]\n";
      return 2;
    }
  }

  std::cout << "=== bench_detect: detection kernel vs oracle, parallel fan-out (n=" << n
            << ", k=" << k << ", query=dist<=" << qrho
            << ", suspects=" << num_suspects << ") ===\n";

  // One planned scheme; the detection workload reads through it.
  Rng rng(42);
  Structure g = RandomBoundedDegreeGraph(n, k, 3 * n, false, rng);
  DistanceQuery query(qrho);
  SetParallelThreads(1);
  QueryIndex index(g, query, AllParams(g, 1));
  WeightMap weights = RandomWeights(g, 1000, 9999, rng);

  LocalSchemeOptions opts;
  opts.epsilon = epsilon;
  opts.key = {42, 99};
  opts.encoding = PairEncoding::kAntipodal;
  LocalScheme scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  AdversarialScheme adv(scheme, redundancy);
  if (adv.CapacityBits() == 0) {
    std::cerr << "FAIL: planned scheme has zero capacity\n";
    return 1;
  }

  // Witness sharing decides the kernel's win: every detection run performs
  // 2 * pairs element reads, each through the first parameter containing the
  // element, and the kernel answers each distinct witness once.
  size_t witness_reads = 0;
  std::unordered_set<uint32_t> distinct_witnesses;
  for (const WeightPair& p : scheme.marking().pairs()) {
    for (uint32_t w : {p.plus, p.minus}) {
      const auto& witnesses = index.ParamsContaining(w);
      if (witnesses.empty()) continue;
      ++witness_reads;
      distinct_witnesses.insert(witnesses[0]);
    }
  }
  const double sharing =
      distinct_witnesses.empty()
          ? 0.0
          : static_cast<double>(witness_reads) /
                static_cast<double>(distinct_witnesses.size());
  std::cout << "planned " << scheme.CapacityBits() << " pairs ("
            << adv.CapacityBits() << " message bits): " << witness_reads
            << " element reads via " << distinct_witnesses.size()
            << " distinct witness params (sharing " << FmtDouble(sharing, 1)
            << "x)\n";

  // One marked copy per suspect, each carrying a distinct message — the
  // fingerprinting scenario.
  std::vector<BitVec> messages;
  std::vector<std::unique_ptr<HonestServer>> servers;
  std::vector<const AnswerServer*> ptrs;
  for (size_t s = 0; s < num_suspects; ++s) {
    BitVec msg(adv.CapacityBits());
    Rng msg_rng(1000 + s);
    for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
    servers.push_back(std::make_unique<HonestServer>(index, adv.Embed(weights, msg)));
    ptrs.push_back(servers.back().get());
    messages.push_back(std::move(msg));
  }

  // --- Single suspect (1 thread): oracle vs kernel ------------------------
  const AdversarialDetection clean = adv.Detect(weights, *ptrs[0]).ValueOrDie();
  if (clean.mark != messages[0]) {
    std::cerr << "FAIL: clean detection recovered a wrong bit\n";
    return 1;
  }

  const std::vector<PairObservation> reference =
      oracle::ObservePairs(scheme, weights, *ptrs[0]);
  std::vector<PathResult> paths;
  for (const std::string path : {"oracle", "kernel"}) {
    PathResult r;
    r.path = path;
    std::vector<PairObservation> out;
    for (int rep = 0; rep < reps; ++rep) {
      const double ms = TimeMs([&] {
        out = path == "oracle" ? oracle::ObservePairs(scheme, weights, *ptrs[0])
                               : scheme.ObservePairs(weights, *ptrs[0]);
      });
      r.ms = rep == 0 ? ms : std::min(r.ms, ms);
    }
    r.identical = SameObservations(reference, out);
    paths.push_back(r);
  }
  const double single_baseline_ms = paths.front().ms;
  const double kernel_speedup = single_baseline_ms / paths.back().ms;

  TextTable single(StrCat("Single-suspect pair reads, ", scheme.CapacityBits(),
                          " pairs -> ", adv.CapacityBits(),
                          " bits (baseline: per-read oracle ",
                          FmtDouble(single_baseline_ms, 2), " ms)"));
  single.SetHeader({"path", "ms", "speedup", "identical"});
  for (const PathResult& r : paths) {
    single.AddRow({r.path, FmtDouble(r.ms, 2),
                   FmtDouble(single_baseline_ms / r.ms, 2),
                   r.identical ? "yes" : "NO"});
  }
  single.Print(std::cout);

  // --- Multi-suspect fan-out ------------------------------------------------
  // Baseline: a serial loop of oracle reads over every suspect, which is
  // what tracing a leak against `num_suspects` copies costs one Answer()
  // per pair element. Each suspect's kernel observations are checked
  // against it.
  std::vector<std::vector<PairObservation>> multi_reference;
  double multi_baseline_ms = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double ms = TimeMs([&] {
      multi_reference.clear();
      for (const AnswerServer* s : ptrs) {
        multi_reference.push_back(oracle::ObservePairs(scheme, weights, *s));
      }
    });
    multi_baseline_ms = rep == 0 ? ms : std::min(multi_baseline_ms, ms);
  }
  bool kernel_identical = true;
  for (size_t s = 0; s < ptrs.size(); ++s) {
    kernel_identical &=
        SameObservations(multi_reference[s], scheme.ObservePairs(weights, *ptrs[s]));
  }

  // The honest bar for the thread pool: a serial loop of kernel detections.
  // DetectMany has to beat this, not just the oracle loop.
  std::vector<AdversarialDetection> serial_optimized;
  double serial_optimized_ms = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double ms = TimeMs([&] {
      serial_optimized.clear();
      for (const AnswerServer* s : ptrs) {
        serial_optimized.push_back(adv.Detect(weights, *s).ValueOrDie());
      }
    });
    serial_optimized_ms = rep == 0 ? ms : std::min(serial_optimized_ms, ms);
  }

  std::vector<FanoutResult> fanout;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    FanoutResult r;
    r.threads = threads;
    std::vector<AdversarialDetection> out;
    for (int rep = 0; rep < reps; ++rep) {
      const double ms = TimeMs([&] { out = adv.DetectMany(weights, ptrs); });
      r.ms = rep == 0 ? ms : std::min(r.ms, ms);
    }
    r.identical = kernel_identical && out.size() == serial_optimized.size();
    for (size_t s = 0; r.identical && s < out.size(); ++s) {
      r.identical = SameDetection(serial_optimized[s], out[s]);
    }
    fanout.push_back(r);
  }
  SetParallelThreads(0);  // restore the env/hardware default

  TextTable multi(StrCat("Multi-suspect tracing, ", num_suspects,
                         " marked copies (baseline: serial oracle reads ",
                         FmtDouble(multi_baseline_ms, 2), " ms)"));
  multi.SetHeader({"threads", "ms", "speedup", "suspects/s", "identical"});
  for (const FanoutResult& r : fanout) {
    multi.AddRow({StrCat(r.threads), FmtDouble(r.ms, 2),
                  FmtDouble(multi_baseline_ms / r.ms, 2),
                  FmtDouble(1000.0 * static_cast<double>(num_suspects) / r.ms, 1),
                  r.identical ? "yes" : "NO"});
  }
  multi.Print(std::cout);
  const double fanout_8t_ms = fanout.back().ms;
  const bool parallel_faster_than_serial = fanout_8t_ms < serial_optimized_ms;
  std::cout << "hardware threads visible: " << std::thread::hardware_concurrency()
            << "; speedups are vs the serial per-read oracle "
               "(one Answer() per pair element).\n";
  std::cout << "serial kernel loop (1 thread): "
            << FmtDouble(serial_optimized_ms, 2) << " ms; DetectMany@8T "
            << FmtDouble(fanout_8t_ms, 2) << " ms -> parallel faster: "
            << (parallel_faster_than_serial ? "yes" : "no")
            << " (expect no on a single hardware thread; the perf CI job "
               "checks this multicore).\n";

  bool all_identical = kernel_identical;
  for (const PathResult& r : paths) all_identical &= r.identical;
  for (const FanoutResult& r : fanout) all_identical &= r.identical;
  if (!all_identical) {
    std::cerr << "FAIL: kernel differs from the oracle or across threads\n";
    return 1;
  }

  // --- Scaling sweep ------------------------------------------------------
  // Fan-out tracing at large n. Distance-2 balls keep the answer index a
  // small constant per parameter so the instance — not the index — dominates
  // memory; at most 8 suspects keep the marked-copy weight maps bounded.
  // Each point runs once (no reps): plan, embed, then the serial kernel
  // loop vs DetectMany at 1 and 8 threads, outputs compared exactly.
  const uint32_t kSweepQrho = 2;
  std::vector<DetectSweepPoint> sweep;
  for (size_t sn : sweep_sizes) {
    DetectSweepPoint pt;
    pt.n = sn;
    pt.suspects = std::min<size_t>(num_suspects, 8);
    Rng srng(42);
    Structure sg = RandomBoundedDegreeGraph(sn, k, 3 * sn, false, srng);
    for (size_t r = 0; r < sg.num_relations(); ++r) pt.tuples += sg.relation(r).size();
    pt.structure_bytes = sg.BytesResident();
    DistanceQuery squery(kSweepQrho);
    SetParallelThreads(0);
    QueryIndex sindex(sg, squery, AllParams(sg, 1));
    Rng wrng(7);
    WeightMap sweights = RandomWeights(sg, 1000, 9999, wrng);
    LocalSchemeOptions sopts;
    sopts.epsilon = epsilon;
    sopts.key = {42, 99};
    sopts.encoding = PairEncoding::kAntipodal;
    LocalScheme sscheme = LocalScheme::Plan(sindex, sopts).ValueOrDie();
    AdversarialScheme sadv(sscheme, redundancy);
    pt.pairs = sscheme.CapacityBits();
    std::vector<std::unique_ptr<HonestServer>> sweep_servers;
    std::vector<const AnswerServer*> sweep_ptrs;
    for (size_t s = 0; s < pt.suspects; ++s) {
      BitVec msg(sadv.CapacityBits());
      Rng msg_rng(1000 + s);
      for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
      sweep_servers.push_back(
          std::make_unique<HonestServer>(sindex, sadv.Embed(sweights, msg)));
      sweep_ptrs.push_back(sweep_servers.back().get());
    }
    std::vector<AdversarialDetection> ref;
    pt.serial_optimized_ms = TimeMs([&] {
      for (const AnswerServer* s : sweep_ptrs) {
        ref.push_back(sadv.Detect(sweights, *s).ValueOrDie());
      }
    });
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SetParallelThreads(threads);
      std::vector<AdversarialDetection> out;
      const double ms = TimeMs([&] { out = sadv.DetectMany(sweights, sweep_ptrs); });
      (threads == 1 ? pt.fanout_1t_ms : pt.fanout_8t_ms) = ms;
      pt.identical &= out.size() == ref.size();
      for (size_t s = 0; pt.identical && s < out.size(); ++s) {
        pt.identical = SameDetection(ref[s], out[s]);
      }
    }
    SetParallelThreads(0);
    pt.peak_rss_kb = PeakRssKb();
    sweep.push_back(pt);
  }
  if (!sweep.empty()) {
    TextTable st(StrCat("DetectMany scaling sweep (qrho=", kSweepQrho,
                        "; serial bar = loop of single-suspect kernel "
                        "detections)"));
    st.SetHeader({"n", "tuples", "pairs", "suspects", "serial ms", "1T ms",
                  "8T ms", "8T vs serial", "B/tuple", "peak RSS MB", "identical"});
    for (const DetectSweepPoint& pt : sweep) {
      st.AddRow({StrCat(pt.n), StrCat(pt.tuples), StrCat(pt.pairs),
                 StrCat(pt.suspects), FmtDouble(pt.serial_optimized_ms, 1),
                 FmtDouble(pt.fanout_1t_ms, 1), FmtDouble(pt.fanout_8t_ms, 1),
                 FmtDouble(pt.serial_optimized_ms / pt.fanout_8t_ms, 2),
                 FmtDouble(static_cast<double>(pt.structure_bytes) /
                               static_cast<double>(pt.tuples), 1),
                 FmtDouble(static_cast<double>(pt.peak_rss_kb) / 1024.0, 1),
                 pt.identical ? "yes" : "NO"});
    }
    st.Print(std::cout);
    bool sweep_identical = true;
    for (const DetectSweepPoint& pt : sweep) sweep_identical &= pt.identical;
    if (!sweep_identical) {
      std::cerr << "FAIL: sweep detections differ across thread counts\n";
      return 1;
    }
  }

  if (json_path) {
    JsonWriter w;
    w.BeginObject();
    w.Key("instance").BeginObject();
    w.Key("n").UInt(n);
    w.Key("k").UInt(k);
    w.Key("query_rho").UInt(qrho);
    w.Key("num_params").UInt(index.num_params());
    w.Key("num_active").UInt(index.num_active());
    w.Key("pairs").UInt(scheme.CapacityBits());
    w.Key("capacity_bits").UInt(adv.CapacityBits());
    w.Key("redundancy").UInt(redundancy);
    w.Key("suspects").UInt(num_suspects);
    w.EndObject();
    w.Key("hardware_threads").UInt(std::thread::hardware_concurrency());
    w.Key("reps").Int(reps);
    w.Key("single_suspect").BeginObject();
    w.Key("baseline_description")
        .String("per-read oracle: one Answer() round trip per pair element");
    w.Key("baseline_ms").Double(single_baseline_ms);
    w.Key("paths").BeginArray();
    for (const PathResult& r : paths) {
      w.BeginObject();
      w.Key("path").String(r.path);
      w.Key("ms").Double(r.ms);
      w.Key("speedup").Double(single_baseline_ms / r.ms);
      w.Key("identical_to_baseline").Bool(r.identical);
      w.EndObject();
    }
    w.EndArray();
    w.Key("kernel_speedup").Double(kernel_speedup);
    w.EndObject();
    w.Key("multi_suspect").BeginObject();
    w.Key("baseline_description")
        .String("serial loop of oracle reads over all suspects");
    w.Key("baseline_ms").Double(multi_baseline_ms);
    w.Key("serial_optimized_ms").Double(serial_optimized_ms);
    w.Key("parallel_faster_than_serial").Bool(parallel_faster_than_serial);
    w.Key("runs").BeginArray();
    for (const FanoutResult& r : fanout) {
      w.BeginObject();
      w.Key("threads").UInt(r.threads);
      w.Key("ms").Double(r.ms);
      w.Key("speedup").Double(multi_baseline_ms / r.ms);
      w.Key("suspects_per_sec")
          .Double(1000.0 * static_cast<double>(num_suspects) / r.ms);
      w.Key("identical_to_baseline").Bool(r.identical);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    if (!sweep.empty()) {
      w.Key("sweep").BeginArray();
      for (const DetectSweepPoint& pt : sweep) {
        w.BeginObject();
        w.Key("n").UInt(pt.n);
        w.Key("k").UInt(k);
        w.Key("query_rho").UInt(kSweepQrho);
        w.Key("tuples").UInt(pt.tuples);
        w.Key("pairs").UInt(pt.pairs);
        w.Key("suspects").UInt(pt.suspects);
        w.Key("serial_optimized_ms").Double(pt.serial_optimized_ms);
        w.Key("fanout_1t_ms").Double(pt.fanout_1t_ms);
        w.Key("fanout_8t_ms").Double(pt.fanout_8t_ms);
        w.Key("speedup_8t_vs_serial")
            .Double(pt.serial_optimized_ms / pt.fanout_8t_ms);
        w.Key("parallel_faster_than_serial")
            .Bool(pt.fanout_8t_ms < pt.serial_optimized_ms);
        w.Key("identical_across_threads").Bool(pt.identical);
        w.Key("structure_bytes").UInt(pt.structure_bytes);
        w.Key("bytes_per_tuple")
            .Double(pt.tuples == 0 ? 0.0
                                   : static_cast<double>(pt.structure_bytes) /
                                         static_cast<double>(pt.tuples));
        w.Key("peak_rss_kb").UInt(pt.peak_rss_kb);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
    if (!UpdateBenchJsonSection(*json_path, "detect_scale", w.str())) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote section \"detect_scale\" to " << *json_path << "\n";
  }
  return 0;
}
