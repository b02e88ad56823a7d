#include "replica.h"

#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/conjunctive.h"
#include "qpwm/relational/csv.h"
#include "qpwm/relational/table.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/util/str.h"
#include "qpwm/xml/dom.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"
#include "counts.h"

namespace perfbench {

using namespace qpwm;

namespace {

// Thrown on any failed library call; RunReplica maps it to exit code 2, as
// the CLI does.
struct ReplicaError {
  std::string message;
};

template <typename T>
T Take(Result<T> r) {
  if (!r.ok()) throw ReplicaError{r.status().ToString()};
  return std::move(r).value();
}

const std::string& Need(const Flags& flags, const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) throw ReplicaError{"missing --" + name};
  return it->second;
}

std::string Or(const Flags& flags, const std::string& name, const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ReplicaError{"cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ReplicaError{"cannot write " + path};
  out << content;
}

PrfKey ParseKey(const std::string& text) {
  auto parts = Split(text, ':');
  if (parts.size() != 2) throw ReplicaError{"--key must be K0:K1"};
  return PrfKey{std::stoull(parts[0], nullptr, 16), std::stoull(parts[1], nullptr, 16)};
}

std::vector<ColumnSpec> ParseSchema(const std::string& text) {
  std::vector<ColumnSpec> out;
  for (const std::string& part : Split(text, ',')) {
    auto fields = Split(part, ':');
    if (fields.size() == 2 && fields[1] == "key") {
      out.push_back({fields[0], ColumnRole::kKey, ""});
    } else if (fields.size() == 3 && fields[1] == "weight") {
      out.push_back({fields[0], ColumnRole::kWeight, fields[2]});
    } else {
      throw ReplicaError{"bad schema entry '" + part + "'"};
    }
  }
  return out;
}

BitVec ParseMark(const std::string& bits, size_t capacity) {
  if (bits.size() > capacity) throw ReplicaError{"mark exceeds capacity"};
  BitVec mark(capacity);
  for (size_t i = 0; i < bits.size(); ++i) mark.Set(i, bits[i] == '1');
  return mark;
}

std::unique_ptr<MessageCodec> CodecFromFlags(const Flags& flags) {
  auto codec = Take(MakeCodec(Or(flags, "codec", "identity")));
  if (codec->Name() == "identity") {
    throw ReplicaError{"the replica models the coded path only; pass --codec"};
  }
  return codec;
}

void CountPlan(Tracer& t, const AdversarialScheme& adv, size_t pairs) {
  t.Count("core.pairs", static_cast<double>(pairs));
  t.Count("core.channel_bits", static_cast<double>(adv.CapacityBits()));
}

// The coded detect shared by both data models, run once the suspect's
// answer server is built.
void Detect(const Flags& flags, Tracer& t, const AdversarialScheme& adv,
            const WeightMap& original, const AnswerServer& server, ReplicaResult& out) {
  auto codec = CodecFromFlags(flags);
  CodedWatermark wm(adv, *codec);
  CodedDetection d = Traced(t, "core.detect", [&] { return Take(wm.Detect(original, server)); });
  CountDetection(t, d);
  std::string bits;
  for (size_t i = 0; i < d.message.payload.size(); ++i) {
    bits += d.message.bit_erased[i] ? '?' : (d.message.payload.Get(i) ? '1' : '0');
  }
  out.payload = bits;
  const BitVec expected = ParseMark(Or(flags, "mark", ""), d.message.payload.size());
  size_t mismatched = 0;
  for (size_t i = 0; i < d.message.payload.size(); ++i) {
    if (!d.message.bit_erased[i] && d.message.payload.Get(i) != expected.Get(i)) ++mismatched;
  }
  out.exit_code = mismatched > 0 ? 1 : d.verdict.ExitCode();
}

// Marked weights: --mark through the codec.
WeightMap EmbedWeights(const Flags& flags, Tracer& t, const AdversarialScheme& adv,
                       const WeightMap& original) {
  auto codec = CodecFromFlags(flags);
  Span span(t, "core.embed");
  CodedWatermark wm(adv, *codec);
  return wm.Embed(original, ParseMark(Or(flags, "mark", "1"), wm.PayloadBits()));
}

// --- CSV --------------------------------------------------------------------

struct CsvState {
  Database db;
  std::unique_ptr<RelationalInstance> instance;
  std::unique_ptr<ConjunctiveQuery> query;
  std::unique_ptr<QueryIndex> index;
  std::unique_ptr<LocalScheme> scheme;
  std::vector<ColumnSpec> schema;
  std::string table_name;
};

// SetupCsv of the CLI, span by span.
CsvState SetupCsv(const Flags& flags, const std::string& path, Tracer& t) {
  CsvState s;
  const std::string csv = Traced(t, "io.read", [&] { return ReadFile(path); });
  s.schema = ParseSchema(Need(flags, "schema"));
  s.table_name = Or(flags, "table", "T");
  Table table = Traced(t, "relational.csv_parse", [&] {
    return Take(TableFromCsv(s.table_name, s.schema, csv));
  });
  s.db.AddTable(std::move(table));
  s.instance = Traced(t, "relational.to_structure", [&] {
    return std::make_unique<RelationalInstance>(Take(ToWeightedStructure(s.db)));
  });
  s.query = Traced(t, "logic.query_parse", [&] {
    return std::make_unique<ConjunctiveQuery>(Take(ConjunctiveQuery::Parse(Need(flags, "query"))));
  });

  std::vector<Tuple> domain;
  {
    Span span(t, "cli.param_domain");
    if (flags.count("param-column")) {
      const Table* tab = s.db.Find(s.table_name).ValueOrDie();
      const size_t col = Take(tab->ColumnIndex(Need(flags, "param-column")));
      std::set<std::string> seen;
      for (size_t r = 0; r < tab->num_rows(); ++r) {
        const std::string& value = tab->KeyAt(r, col);
        if (!seen.insert(value).second) continue;
        domain.push_back(Tuple{s.instance->structure.FindElement(value).ValueOrDie()});
      }
    } else {
      domain = AllParams(s.instance->structure, s.query->ParamArity());
    }
  }
  s.index = Traced(t, "core.query_index", [&] {
    return std::make_unique<QueryIndex>(s.instance->structure, *s.query, std::move(domain));
  });
  t.Count("core.active_weights", static_cast<double>(s.index->num_active()));
  t.Count("core.params", static_cast<double>(s.index->num_params()));

  LocalSchemeOptions opts;
  opts.key = ParseKey(Or(flags, "key", "c0ffee:7ea"));
  opts.epsilon = std::stod(Or(flags, "eps", "0.5"));
  const CanonCache::Stats before = CanonCache::Global().stats();
  s.scheme = Traced(t, "core.local_plan", [&] {
    return std::make_unique<LocalScheme>(Take(LocalScheme::Plan(*s.index, opts)));
  });
  const CanonCache::Stats after = CanonCache::Global().stats();
  t.Count("structure.canon_hits", static_cast<double>(after.hits - before.hits));
  t.Count("structure.canon_misses", static_cast<double>(after.misses - before.misses));
  return s;
}

void MarkCsv(const Flags& flags, Tracer& t) {
  TeardownSpan teardown(t);
  const std::string in = Need(flags, "in");
  CsvState s = SetupCsv(flags, in, t);
  AdversarialScheme adv(*s.scheme, std::stoul(Or(flags, "redundancy", "1")));
  CountPlan(t, adv, s.scheme->CapacityBits());
  WeightMap marked = EmbedWeights(flags, t, adv, s.instance->weights);
  const std::string csv = Traced(t, "relational.write", [&] {
    Database marked_db = Take(ApplyWeightsToDatabase(s.db, *s.instance, marked));
    return TableToCsv(*marked_db.Find(s.table_name).ValueOrDie());
  });
  Traced(t, "io.write", [&] { WriteFile(Or(flags, "out", in + ".marked"), csv); return 0; });
  teardown.Begin();
}

void DetectCsv(const Flags& flags, Tracer& t, ReplicaResult& out) {
  TeardownSpan teardown(t);
  CsvState s = SetupCsv(flags, Need(flags, "original"), t);
  const std::string suspect_csv = Traced(t, "io.read", [&] { return ReadFile(Need(flags, "suspect")); });
  Database suspect_db;
  suspect_db.AddTable(Traced(t, "relational.csv_parse", [&] {
    return Take(TableFromCsv(s.table_name, s.schema, suspect_csv));
  }));
  RelationalInstance suspect = Traced(t, "relational.to_structure", [&] {
    return Take(ToWeightedStructure(suspect_db));
  });
  AlignedSuspect aligned = Traced(t, "relational.align", [&] {
    return AlignSuspectInstance(*s.instance, suspect);
  });
  std::optional<HonestServer> base;
  std::optional<TamperedAnswerServer> server;
  {
    Span span(t, "core.server_build");
    base.emplace(*s.index, aligned.weights);
    server.emplace(*base);
    for (ElemId e = 0; e < aligned.present.size(); ++e) {
      if (!aligned.present[e]) server->Erase(Tuple{e});
    }
  }
  AdversarialScheme adv(*s.scheme, std::stoul(Or(flags, "redundancy", "1")));
  CountPlan(t, adv, s.scheme->CapacityBits());
  Detect(flags, t, adv, s.instance->weights, *server, out);
  teardown.Begin();
}

// --- XML --------------------------------------------------------------------

struct XmlState {
  XmlDocument doc;
  std::set<std::string> tags;
  std::unique_ptr<EncodedXml> encoded;
  std::unique_ptr<XPathQuery> query;
  std::unique_ptr<TrackedDta> automaton;
  std::unique_ptr<TreeScheme> scheme;
};

// SetupXml of the CLI, span by span.
XmlState SetupXml(const Flags& flags, const std::string& path, Tracer& t) {
  XmlState s;
  const std::string xml = Traced(t, "io.read", [&] { return ReadFile(path); });
  s.doc = Traced(t, "xml.parse", [&] { return Take(ParseXml(xml)); });
  for (const std::string& tag : Split(Need(flags, "weight-tags"), ',')) s.tags.insert(tag);
  s.encoded = Traced(t, "xml.encode", [&] {
    return std::make_unique<EncodedXml>(Take(EncodeXml(s.doc, s.tags)));
  });
  size_t weight_nodes = 0;
  for (bool w : s.encoded->is_weight_node) weight_nodes += w ? 1 : 0;
  t.Count("core.active_weights", static_cast<double>(weight_nodes));
  {
    Span span(t, "xml.xpath_compile");
    s.query = std::make_unique<XPathQuery>(Take(XPathQuery::Parse(Need(flags, "xpath"))));
    s.automaton = std::make_unique<TrackedDta>(Take(s.query->Compile(*s.encoded)));
  }
  t.Count("tree.dta_states", static_cast<double>(s.automaton->dta.num_states()));
  TreeSchemeOptions opts;
  opts.key = ParseKey(Or(flags, "key", "c0ffee:7ea"));
  s.scheme = Traced(t, "core.tree_plan", [&] {
    return std::make_unique<TreeScheme>(Take(TreeScheme::Plan(
        s.encoded->tree, s.encoded->tree.labels(),
        static_cast<uint32_t>(s.encoded->sigma.size()), s.automaton->dta,
        s.query->has_param() ? 1 : 0, opts)));
  });
  return s;
}

void MarkXml(const Flags& flags, Tracer& t) {
  TeardownSpan teardown(t);
  const std::string in = Need(flags, "in");
  XmlState s = SetupXml(flags, in, t);
  AdversarialScheme adv(*s.scheme, std::stoul(Or(flags, "redundancy", "1")));
  CountPlan(t, adv, s.scheme->CapacityBits());
  WeightMap marked = EmbedWeights(flags, t, adv, s.encoded->weights);
  const std::string xml = Traced(t, "xml.write", [&] {
    return SerializeXml(ApplyWeights(s.doc, *s.encoded, marked));
  });
  Traced(t, "io.write", [&] { WriteFile(Or(flags, "out", in + ".marked"), xml); return 0; });
  teardown.Begin();
}

void DetectXml(const Flags& flags, Tracer& t, ReplicaResult& out) {
  TeardownSpan teardown(t);
  XmlState s = SetupXml(flags, Need(flags, "original"), t);
  const std::string suspect_xml = Traced(t, "io.read", [&] { return ReadFile(Need(flags, "suspect")); });
  XmlDocument suspect = Traced(t, "xml.parse", [&] { return Take(ParseXml(suspect_xml)); });
  SuspectAlignment aligned = Traced(t, "xml.align", [&] {
    return Take(AlignSuspectWeights(s.doc, *s.encoded, suspect, s.tags));
  });
  std::optional<HonestTreeServer> base;
  std::optional<TamperedAnswerServer> server;
  {
    Span span(t, "core.server_build");
    base.emplace(s.encoded->tree, s.encoded->tree.labels(),
                 static_cast<uint32_t>(s.encoded->sigma.size()), s.automaton->dta,
                 s.query->has_param() ? 1 : 0, aligned.weights);
    server.emplace(*base);
    for (NodeId v = 0; v < aligned.present.size(); ++v) {
      if (!aligned.present[v]) server->Erase(Tuple{v});
    }
  }
  AdversarialScheme adv(*s.scheme, std::stoul(Or(flags, "redundancy", "1")));
  CountPlan(t, adv, s.scheme->CapacityBits());
  Detect(flags, t, adv, s.encoded->weights, *server, out);
  teardown.Begin();
}

}  // namespace

ReplicaResult RunReplica(const std::string& command, const Flags& flags, Tracer& tracer) {
  ReplicaResult out;
  CanonCache::Global().Clear();
  try {
    if (command == "mark-csv") {
      MarkCsv(flags, tracer);
    } else if (command == "detect-csv") {
      DetectCsv(flags, tracer, out);
    } else if (command == "mark-xml") {
      MarkXml(flags, tracer);
    } else if (command == "detect-xml") {
      DetectXml(flags, tracer, out);
    } else {
      throw ReplicaError{"unknown command " + command};
    }
  } catch (const ReplicaError& e) {
    out.exit_code = 2;
    out.error = e.message;
  } catch (const std::exception& e) {
    out.exit_code = 2;
    out.error = e.what();
  }
  return out;
}

}  // namespace perfbench
