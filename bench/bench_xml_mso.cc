// E8 — Theorem 4 on XML (Example 4 scaled): the XPath query
// school/student[firstname=$1]/exam compiled through MSO into a tree
// automaton, then watermarked with the tree scheme. Reports f(Robert)
// distortion (the paper's Example 4 shows distortion 1), capacity vs
// student count, and the compile cost against the value domain: the
// name-pool size the query compares against (state growth, inherent to
// Lemma 2) and distinct last names it never mentions (alphabet size only).
//
// Exits 1 when a detection fails or a measured |df| exceeds the scheme's
// distortion bound.
#include <chrono>
#include <iostream>
#include <string>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

using namespace qpwm;
using Clock = std::chrono::steady_clock;

namespace {

// RandomSchoolDocument's shape, every student with a last name of its own.
XmlDocument UniqueLastNameSchool(size_t students, size_t name_pool, Rng& rng) {
  static const char* kFirst[] = {"John", "Robert", "Alice"};
  XmlDocument doc;
  XmlNodeId school = doc.AddElement("school");
  doc.SetRoot(school);
  for (size_t i = 0; i < students; ++i) {
    XmlNodeId student = doc.AddElement("student");
    doc.AppendChild(school, student);
    XmlNodeId firstname = doc.AddElement("firstname");
    doc.AppendChild(student, firstname);
    doc.AppendChild(firstname, doc.AddText(kFirst[rng.Below(name_pool)]));
    XmlNodeId lastname = doc.AddElement("lastname");
    doc.AppendChild(student, lastname);
    doc.AppendChild(lastname, doc.AddText(StrCat("L", i)));
    XmlNodeId exam = doc.AddElement("exam");
    doc.AppendChild(student, exam);
    doc.AppendChild(exam, doc.AddText(StrCat(rng.Uniform(0, 20))));
  }
  return doc;
}

}  // namespace

int main() {
  std::cout << "=== bench_xml_mso: Theorem 4 on XML documents ===\n";
  bool ok = true;

  XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();

  // Example 4 verbatim.
  {
    XmlDocument doc = SchoolExampleDocument();
    EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
    auto compiled = query.Compile(enc).ValueOrDie();
    const auto base = static_cast<uint32_t>(enc.sigma.size());

    TextTable table("Example 4: f values and a 1-local distortion");
    table.SetHeader({"firstname", "f original", "f marked", "|df|"});

    TreeSchemeOptions opts;
    opts.key = {4, 4};
    auto scheme =
        TreeScheme::Plan(enc.tree, enc.tree.labels(), base, compiled.dta, 1, opts)
            .ValueOrDie();
    WeightMap marked = enc.weights;
    if (scheme.CapacityBits() > 0) {
      BitVec mark(scheme.CapacityBits(), true);
      marked = scheme.Embed(enc.weights, mark);
    }
    for (NodeId p : query.ParamTreeNodes(enc)) {
      Weight f0 = 0, f1 = 0;
      for (NodeId b :
           EvaluateWa(enc.tree, enc.tree.labels(), base, compiled.dta, 1, p)) {
        f0 += enc.weights.GetElem(b);
        f1 += marked.GetElem(b);
      }
      table.AddRow({enc.sigma.Name(enc.tree.label(p)), StrCat(f0), StrCat(f1),
                    StrCat(std::abs(f1 - f0))});
      ok = ok && std::abs(f1 - f0) <= scheme.DistortionBound();
    }
    table.Print(std::cout);
    std::cout << "paper's Example 4: f(Robert) = 28 originally, distortion 1 "
                 "after marking.\n";
  }

  // Scaling with student count (fixed 2-name pool).
  {
    TextTable table("Capacity vs school size (2-name pool)");
    table.SetHeader({"students", "tree nodes", "m", "bits l", "max |df| over params",
                     "detect", "plan ms"});
    Rng rng(8);
    for (size_t students : {50, 200, 800, 3200}) {
      XmlDocument doc = RandomSchoolDocument(students, rng, 0, 20, 2);
      EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
      auto compiled = query.Compile(enc).ValueOrDie();
      const auto base = static_cast<uint32_t>(enc.sigma.size());

      TreeSchemeOptions opts;
      opts.key = {students, 1};
      auto t0 = Clock::now();
      auto scheme = TreeScheme::Plan(enc.tree, enc.tree.labels(), base,
                                     compiled.dta, 1, opts)
                        .ValueOrDie();
      auto t1 = Clock::now();

      BitVec mark(scheme.CapacityBits());
      for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
      WeightMap marked = scheme.Embed(enc.weights, mark);

      Weight worst = 0;
      bool detect_ok = true;
      if (students <= 800) {
        for (NodeId p : query.ParamTreeNodes(enc)) {
          Weight f0 = 0, f1 = 0;
          for (NodeId b :
               EvaluateWa(enc.tree, enc.tree.labels(), base, compiled.dta, 1, p)) {
            f0 += enc.weights.GetElem(b);
            f1 += marked.GetElem(b);
          }
          worst = std::max(worst, std::abs(f1 - f0));
        }
        HonestTreeServer server(enc.tree, enc.tree.labels(), base, compiled.dta, 1,
                                marked);
        auto detected = scheme.Detect(enc.weights, server);
        detect_ok = detected.ok() && detected.value() == mark;
        ok = ok && detect_ok && worst <= scheme.DistortionBound();
      }
      table.AddRow({StrCat(students), StrCat(enc.tree.size()),
                    StrCat(compiled.dta.num_states()), StrCat(scheme.CapacityBits()),
                    students <= 800 ? StrCat(worst) : "(skipped)",
                    students <= 800 ? (detect_ok ? "OK" : "FAIL") : "(skipped)",
                    FmtDouble(std::chrono::duration<double, std::milli>(t1 - t0)
                                  .count(),
                              1)});
    }
    table.Print(std::cout);
  }

  // Compile cost vs the value domain. The automaton must tell apart the
  // first names the parameter compares against, so its states grow with
  // the name pool; last names only enlarge the alphabet, which the symbol
  // classes absorb.
  {
    TextTable table("Query automaton vs value domain");
    table.SetHeader({"document", "alphabet", "automaton states", "compile ms"});
    auto measure = [&](const std::string& name, const XmlDocument& doc) {
      EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
      auto t0 = Clock::now();
      auto compiled = query.Compile(enc).ValueOrDie();
      auto t1 = Clock::now();
      table.AddRow({name, StrCat(enc.sigma.size()), StrCat(compiled.dta.num_states()),
                    FmtDouble(std::chrono::duration<double, std::milli>(t1 - t0).count(),
                              1)});
    };
    Rng rng(9);
    for (size_t pool : {1, 2, 3}) {
      measure(StrCat("100 students, ", pool, "-name pool"),
              RandomSchoolDocument(100, rng, 0, 20, pool));
    }
    for (size_t students : {100, 300}) {
      measure(StrCat(students, " students, 2 names, unique last names"),
              UniqueLastNameSchool(students, 2, rng));
    }
    table.Print(std::cout);
    std::cout << "states grow with the compared value domain (Lemma 2's "
                 "construction); distinct values the query never compares "
                 "only widen the alphabet.\n";
  }
  std::cout << "checks (detection, |df| within the distortion bound): "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
