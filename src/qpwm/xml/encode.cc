#include "qpwm/xml/encode.h"

#include <algorithm>
#include <charconv>
#include <map>

#include "qpwm/util/check.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/xml/parser.h"

namespace qpwm {
namespace {

// Parses one weight element's text and adds its magnitude to `total`, the
// document's running sum of |weight|.
Result<Weight> ParseWeight(const std::string& text, uint64_t& total) {
  Weight value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::ParseError("weight element text '" + text + "' is not an integer");
  }
  if (!AddToTotalWeight(total, value)) {
    return Status::ParseError("sum of |weight| exceeds 2^61 at weight '" + text + "'");
  }
  return value;
}

// One entry of the effective child list of an XML element.
struct EffectiveChild {
  enum class Kind { kXml, kAttr } kind;
  XmlNodeId xml = kNoXmlNode;   // kXml
  std::string attr_label;       // kAttr: "@name"
  std::string attr_value;       // kAttr
};

class Encoder {
 public:
  Encoder(const XmlDocument& doc, const std::set<std::string>& weight_tags)
      : doc_(doc), weight_tags_(weight_tags) {}

  Result<EncodedXml> Encode() {
    out_.xml_to_tree.assign(doc_.size(), kNoNode);
    auto root = EncodeNode(doc_.root());
    if (!root.ok()) return root.status();
    QPWM_RETURN_NOT_OK(out_.tree.Finalize());
    out_.weights = WeightMap(1, out_.tree.size());
    out_.is_weight_node.assign(out_.tree.size(), false);
    for (const auto& [node, w] : pending_weights_) {
      out_.weights.SetElem(node, w);
      out_.is_weight_node[node] = true;
    }
    return std::move(out_);
  }

 private:
  // Creates the tree node for one XML node and (recursively) its subtree in
  // first-child / next-sibling form. Returns the tree node id.
  Result<NodeId> EncodeNode(XmlNodeId xml_id) {
    const XmlNode& n = doc_.node(xml_id);

    if (n.kind == XmlNode::Kind::kText) {
      NodeId v = out_.tree.AddNode(out_.sigma.Intern(n.text));
      RecordMapping(v, xml_id);
      return v;
    }

    NodeId v = out_.tree.AddNode(out_.sigma.Intern(n.tag));
    RecordMapping(v, xml_id);

    const bool is_weight = weight_tags_.count(n.tag) > 0;
    if (is_weight) {
      std::string text = doc_.TextContent(xml_id);
      auto w = ParseWeight(text, total_weight_);
      if (!w.ok()) return w.status();
      pending_weights_.emplace_back(v, w.value());
      bool has_element_child = false;
      for (XmlNodeId c : n.children) {
        if (doc_.node(c).kind == XmlNode::Kind::kElement) has_element_child = true;
      }
      if (has_element_child) {
        return Status::InvalidArgument("weight element <" + n.tag +
                                       "> must contain only its numeric value");
      }
      return v;  // numeric text absorbed into the weight map
    }

    // Effective children: attributes first, then document children.
    std::vector<EffectiveChild> children;
    for (const XmlAttr& a : n.attrs) {
      children.push_back({EffectiveChild::Kind::kAttr, kNoXmlNode, "@" + a.name, a.value});
    }
    for (XmlNodeId c : n.children) {
      children.push_back({EffectiveChild::Kind::kXml, c, "", ""});
    }

    NodeId prev = kNoNode;
    for (size_t i = 0; i < children.size(); ++i) {
      NodeId child_node;
      if (children[i].kind == EffectiveChild::Kind::kAttr) {
        child_node = out_.tree.AddNode(out_.sigma.Intern(children[i].attr_label));
        RecordMapping(child_node, kNoXmlNode);
        NodeId value_node = out_.tree.AddNode(out_.sigma.Intern(children[i].attr_value));
        RecordMapping(value_node, kNoXmlNode);
        out_.tree.SetLeft(child_node, value_node);
      } else {
        auto encoded = EncodeNode(children[i].xml);
        if (!encoded.ok()) return encoded;
        child_node = encoded.value();
      }
      if (i == 0) {
        out_.tree.SetLeft(v, child_node);
      } else {
        out_.tree.SetRight(prev, child_node);
      }
      prev = child_node;
    }
    return v;
  }

  void RecordMapping(NodeId tree_node, XmlNodeId xml_id) {
    if (out_.tree_to_xml.size() <= tree_node) out_.tree_to_xml.resize(tree_node + 1);
    out_.tree_to_xml[tree_node] = xml_id;
    if (xml_id != kNoXmlNode) out_.xml_to_tree[xml_id] = tree_node;
  }

  const XmlDocument& doc_;
  const std::set<std::string>& weight_tags_;
  EncodedXml out_;
  std::vector<std::pair<NodeId, Weight>> pending_weights_;
  uint64_t total_weight_ = 0;  // sum of |weight| so far
};

}  // namespace

Result<EncodedXml> EncodeXml(const XmlDocument& doc,
                             const std::set<std::string>& weight_tags) {
  return Encoder(doc, weight_tags).Encode();
}

XmlDocument ApplyWeights(const XmlDocument& doc, const EncodedXml& encoded,
                         const WeightMap& weights) {
  XmlDocument out = doc;
  for (NodeId v = 0; v < encoded.tree.size(); ++v) {
    if (!encoded.is_weight_node[v]) continue;
    XmlNodeId xml_id = encoded.tree_to_xml[v];
    QPWM_CHECK(xml_id != kNoXmlNode);
    const XmlNode& elem = out.node(xml_id);
    QPWM_CHECK(!elem.children.empty());
    for (XmlNodeId c : elem.children) {
      if (out.node(c).kind == XmlNode::Kind::kText) {
        out.mutable_node(c).text = StrCat(weights.GetElem(v));
        break;
      }
    }
  }
  return out;
}

namespace {

// Record signature of a weight element: own tag, ancestor tag path, and the
// text of the parent's non-weight element children (the record's key fields).
// Stable under subtree deletion of *other* records and under weight-value
// tampering (the weight's own text is deliberately excluded).
std::string WeightSignature(const XmlDocument& doc, XmlNodeId elem,
                            const std::set<std::string>& weight_tags) {
  std::string sig = doc.node(elem).tag;
  sig += '|';
  for (XmlNodeId p = doc.node(elem).parent; p != kNoXmlNode; p = doc.node(p).parent) {
    sig += doc.node(p).tag;
    sig += '/';
  }
  sig += '|';
  XmlNodeId parent = doc.node(elem).parent;
  if (parent != kNoXmlNode) {
    for (XmlNodeId sib : doc.node(parent).children) {
      const XmlNode& s = doc.node(sib);
      if (s.kind != XmlNode::Kind::kElement) continue;
      if (weight_tags.count(s.tag) > 0) continue;
      sig += s.tag;
      sig += '=';
      sig += doc.TextContent(sib);
      sig += ';';
    }
  }
  return sig;
}

// Weight-tagged elements of `doc` in document order.
std::vector<XmlNodeId> WeightElements(const XmlDocument& doc, XmlNodeId id,
                                      const std::set<std::string>& weight_tags) {
  std::vector<XmlNodeId> out;
  std::vector<XmlNodeId> stack{id};
  while (!stack.empty()) {
    XmlNodeId cur = stack.back();
    stack.pop_back();
    const XmlNode& n = doc.node(cur);
    if (n.kind != XmlNode::Kind::kElement) continue;
    if (weight_tags.count(n.tag) > 0) out.push_back(cur);
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

// When several records share a signature (e.g. students with the same
// firstname), a deletion shifts every later record of the class — naive
// doc-order pairing would hand each original the *next* record's value and
// flip votes instead of erasing them. Within a class we instead take the
// longest common subsequence of original-vs-suspect values, where a pair is
// compatible iff the suspect value is within the schemes' per-value
// distortion of the original. Originals left unmatched become erasures.
constexpr Weight kAlignTolerance = 1;

bool Compatible(Weight original, Weight suspect) {
  const Weight d = original - suspect;
  return d <= kAlignTolerance && d >= -kAlignTolerance;
}

// Per-original matched suspect index (or npos) within one signature class.
std::vector<size_t> MatchClass(const std::vector<Weight>& orig,
                               const std::vector<Weight>& sus) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  const size_t n = orig.size();
  const size_t m = sus.size();
  std::vector<size_t> match(n, kNone);
  // Equal counts: the class is structurally untouched; doc-order 1:1 keeps
  // weight-only attacks (which may exceed the tolerance) decodable as votes.
  if (n == m || n * m > (size_t{16} << 20)) {
    for (size_t i = 0; i < std::min(n, m); ++i) match[i] = i;
    return match;
  }
  // dp[i][j] = LCS length of orig[i..) vs sus[j..).
  std::vector<uint32_t> dp((n + 1) * (m + 1), 0);
  auto at = [&](size_t i, size_t j) -> uint32_t& { return dp[i * (m + 1) + j]; };
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      uint32_t best = std::max(at(i + 1, j), at(i, j + 1));
      if (Compatible(orig[i], sus[j])) {
        best = std::max(best, at(i + 1, j + 1) + 1);
      }
      at(i, j) = best;
    }
  }
  for (size_t i = 0, j = 0; i < n && j < m;) {
    if (Compatible(orig[i], sus[j]) && at(i, j) == at(i + 1, j + 1) + 1) {
      match[i] = j;
      ++i;
      ++j;
    } else if (at(i + 1, j) >= at(i, j + 1)) {
      ++i;
    } else {
      ++j;
    }
  }
  return match;
}

}  // namespace

Result<SuspectAlignment> AlignSuspectWeights(
    const XmlDocument& original, const EncodedXml& encoded,
    const XmlDocument& suspect, const std::set<std::string>& weight_tags) {
  SuspectAlignment out;
  out.weights = encoded.weights;
  out.present.assign(encoded.tree.size(), true);

  // Suspect weight records, grouped per signature in document order.
  std::map<std::string, std::vector<Weight>> suspect_by_sig;
  size_t suspect_records = 0;
  uint64_t total_weight = 0;
  for (XmlNodeId e : WeightElements(suspect, suspect.root(), weight_tags)) {
    auto w = ParseWeight(suspect.TextContent(e), total_weight);
    if (!w.ok()) return w.status();
    suspect_by_sig[WeightSignature(suspect, e, weight_tags)].push_back(w.value());
    ++suspect_records;
  }

  // Original weight nodes, grouped the same way.
  std::map<std::string, std::vector<NodeId>> original_by_sig;
  for (XmlNodeId e : WeightElements(original, original.root(), weight_tags)) {
    NodeId v = encoded.xml_to_tree[e];
    QPWM_CHECK(v != kNoNode);
    original_by_sig[WeightSignature(original, e, weight_tags)].push_back(v);
  }

  // Match within each signature class; unmatched originals are erasures.
  static const std::vector<Weight> kEmpty;
  for (const auto& [sig, nodes] : original_by_sig) {
    auto it = suspect_by_sig.find(sig);
    const std::vector<Weight>& sus = it == suspect_by_sig.end() ? kEmpty : it->second;
    std::vector<Weight> orig;
    orig.reserve(nodes.size());
    for (NodeId v : nodes) orig.push_back(encoded.weights.GetElem(v));
    std::vector<size_t> match = MatchClass(orig, sus);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (match[i] == static_cast<size_t>(-1)) {
        out.present[nodes[i]] = false;
        ++out.missing;
      } else {
        out.weights.SetElem(nodes[i], sus[match[i]]);
        ++out.matched;
      }
    }
  }
  out.extra = suspect_records - out.matched;
  return out;
}

XmlDocument SchoolExampleDocument() {
  static const char* kXml = R"(
<school>
  <student>
    <firstname>John</firstname>
    <lastname>Doe</lastname>
    <exam>11</exam>
  </student>
  <student>
    <firstname>Robert</firstname>
    <lastname>Durant</lastname>
    <exam>16</exam>
  </student>
  <student>
    <firstname>Robert</firstname>
    <lastname>Smith</lastname>
    <exam>12</exam>
  </student>
</school>
)";
  return MustParseXml(kXml);
}

XmlDocument RandomSchoolDocument(size_t students, Rng& rng, Weight grade_lo,
                                 Weight grade_hi, size_t name_pool) {
  static const char* kFirst[] = {"John", "Robert", "Alice",  "Maria",
                                 "Wei",  "Ahmed",  "Sofia",  "Ivan"};
  static const char* kLast[] = {"Doe", "Durant", "Smith", "Khan", "Garcia", "Li"};
  QPWM_CHECK_GE(name_pool, 1u);
  QPWM_CHECK_LE(name_pool, 8u);
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
    doc.AppendChild(lastname, doc.AddText(kLast[rng.Below(6)]));
    XmlNodeId exam = doc.AddElement("exam");
    doc.AppendChild(student, exam);
    doc.AppendChild(exam, doc.AddText(StrCat(rng.Uniform(grade_lo, grade_hi))));
  }
  return doc;
}

}  // namespace qpwm
