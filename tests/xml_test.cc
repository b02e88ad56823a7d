#include <gtest/gtest.h>

#include "qpwm/util/random.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/parser.h"

namespace qpwm {
namespace {

// --- Parser ----------------------------------------------------------------

TEST(XmlParserTest, SimpleElement) {
  XmlDocument doc = MustParseXml("<a><b>text</b></a>");
  const XmlNode& root = doc.node(doc.root());
  EXPECT_EQ(root.tag, "a");
  ASSERT_EQ(root.children.size(), 1u);
  const XmlNode& b = doc.node(root.children[0]);
  EXPECT_EQ(b.tag, "b");
  EXPECT_EQ(doc.TextContent(root.children[0]), "text");
}

TEST(XmlParserTest, SelfClosingAndAttributes) {
  XmlDocument doc = MustParseXml(R"(<a x="1" y="two"><b/></a>)");
  const XmlNode& root = doc.node(doc.root());
  ASSERT_EQ(root.attrs.size(), 2u);
  EXPECT_EQ(root.attrs[0].name, "x");
  EXPECT_EQ(root.attrs[1].value, "two");
  EXPECT_EQ(root.children.size(), 1u);
}

TEST(XmlParserTest, EntitiesDecoded) {
  XmlDocument doc = MustParseXml("<a>&lt;x&gt; &amp; &quot;y&quot;</a>");
  EXPECT_EQ(doc.TextContent(doc.root()), "<x> & \"y\"");
}

TEST(XmlParserTest, CommentsAndPrologSkipped) {
  XmlDocument doc = MustParseXml(
      "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner -->x</a><!-- bye -->");
  EXPECT_EQ(doc.TextContent(doc.root()), "x");
}

TEST(XmlParserTest, WhitespaceOnlyTextDropped) {
  XmlDocument doc = MustParseXml("<a>\n  <b>v</b>\n</a>");
  EXPECT_EQ(doc.node(doc.root()).children.size(), 1u);
}

TEST(XmlParserTest, Errors) {
  EXPECT_FALSE(ParseXml("<a><b></a>").ok());      // mismatched close
  EXPECT_FALSE(ParseXml("<a>").ok());             // unterminated
  EXPECT_FALSE(ParseXml("<a>x</a><b/>").ok());    // two roots
  EXPECT_FALSE(ParseXml("<a x=1></a>").ok());     // unquoted attribute
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());  // unknown entity
  EXPECT_FALSE(ParseXml("").ok());
}

TEST(XmlParserTest, SerializeRoundTrip) {
  XmlDocument doc = MustParseXml("<a p=\"q\"><b>1 &amp; 2</b><c/></a>");
  std::string serialized = SerializeXml(doc);
  XmlDocument again = MustParseXml(serialized);
  EXPECT_EQ(SerializeXml(again), serialized);
}

TEST(XmlDomTest, ChildByTag) {
  XmlDocument doc = MustParseXml("<a><b>1</b><c>2</c></a>");
  auto c = doc.ChildByTag(doc.root(), "c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(doc.TextContent(c.value()), "2");
  EXPECT_FALSE(doc.ChildByTag(doc.root(), "zzz").ok());
}

// --- Binary encoding --------------------------------------------------------

TEST(EncodeTest, FirstChildNextSibling) {
  XmlDocument doc = MustParseXml("<a><b/><c/><d/></a>");
  auto enc = EncodeXml(doc, {}).ValueOrDie();
  // a's left child is b; b's right sibling is c; c's right sibling is d.
  const BinaryTree& t = enc.tree;
  NodeId a = enc.xml_to_tree[doc.root()];
  NodeId b = t.left(a);
  ASSERT_NE(b, kNoNode);
  EXPECT_EQ(enc.sigma.Name(t.label(b)), "b");
  NodeId c = t.right(b);
  ASSERT_NE(c, kNoNode);
  EXPECT_EQ(enc.sigma.Name(t.label(c)), "c");
  NodeId d = t.right(c);
  ASSERT_NE(d, kNoNode);
  EXPECT_EQ(enc.sigma.Name(t.label(d)), "d");
  EXPECT_EQ(t.right(d), kNoNode);
  EXPECT_EQ(t.right(a), kNoNode);  // root has no sibling
}

TEST(EncodeTest, TextNodesBecomeLabeledLeaves) {
  XmlDocument doc = MustParseXml("<a><b>John</b></a>");
  auto enc = EncodeXml(doc, {}).ValueOrDie();
  NodeId b = enc.tree.left(enc.xml_to_tree[doc.root()]);
  NodeId text = enc.tree.left(b);
  ASSERT_NE(text, kNoNode);
  EXPECT_EQ(enc.sigma.Name(enc.tree.label(text)), "John");
}

TEST(EncodeTest, WeightTagsAbsorbNumericText) {
  XmlDocument doc = MustParseXml("<a><exam>17</exam></a>");
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  NodeId exam = enc.tree.left(enc.xml_to_tree[doc.root()]);
  EXPECT_EQ(enc.sigma.Name(enc.tree.label(exam)), "exam");
  EXPECT_TRUE(enc.is_weight_node[exam]);
  EXPECT_EQ(enc.weights.GetElem(exam), 17);
  EXPECT_EQ(enc.tree.left(exam), kNoNode);  // text absorbed
}

TEST(EncodeTest, WeightTagWithNonNumericTextFails) {
  XmlDocument doc = MustParseXml("<a><exam>abc</exam></a>");
  EXPECT_FALSE(EncodeXml(doc, {"exam"}).ok());
}

// Sum of |weight| above 2^61 would let +-1 marks, answer sums and
// suspect - original differences wrap int64: rejected at load.
TEST(EncodeTest, WeightSumOverBoundFails) {
  const auto encode = [](const std::string& exams) {
    return EncodeXml(MustParseXml("<a>" + exams + "</a>"), {"exam"});
  };
  const std::string half = "<exam>1152921504606846976</exam>";  // 2^60
  EXPECT_TRUE(encode(half + "<exam>-1152921504606846976</exam>").ok());
  for (const std::string& exams :
       {half + half + "<exam>-1</exam>", std::string("<exam>-9223372036854775808</exam>"),
        std::string("<exam>9223372036854775807</exam>")}) {
    auto enc = encode(exams);
    ASSERT_FALSE(enc.ok()) << exams;
    EXPECT_EQ(enc.status().code(), StatusCode::kParseError);
  }
}

TEST(EncodeTest, SuspectWeightSumOverBoundFails) {
  XmlDocument doc = MustParseXml("<a><exam>1</exam></a>");
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  XmlDocument suspect = MustParseXml("<a><exam>-9223372036854775808</exam></a>");
  auto aligned = AlignSuspectWeights(doc, enc, suspect, {"exam"});
  ASSERT_FALSE(aligned.ok());
  EXPECT_EQ(aligned.status().code(), StatusCode::kParseError);
}

TEST(EncodeTest, WeightTagWithElementChildFails) {
  XmlDocument doc = MustParseXml("<a><exam><sub/>1</exam></a>");
  EXPECT_FALSE(EncodeXml(doc, {"exam"}).ok());
}

TEST(EncodeTest, AttributesBecomeAtNodes) {
  XmlDocument doc = MustParseXml(R"(<a k="v"><b/></a>)");
  auto enc = EncodeXml(doc, {}).ValueOrDie();
  NodeId a = enc.xml_to_tree[doc.root()];
  NodeId attr = enc.tree.left(a);
  EXPECT_EQ(enc.sigma.Name(enc.tree.label(attr)), "@k");
  EXPECT_EQ(enc.sigma.Name(enc.tree.label(enc.tree.left(attr))), "v");
  // The document child b follows as the attribute node's sibling.
  EXPECT_EQ(enc.sigma.Name(enc.tree.label(enc.tree.right(attr))), "b");
}

TEST(EncodeTest, NodeCountMatches) {
  XmlDocument doc = SchoolExampleDocument();
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  // 1 school + 3 students + 9 field elements + 6 text leaves (firstname /
  // lastname values; exam texts absorbed).
  EXPECT_EQ(enc.tree.size(), 1u + 3u + 9u + 6u);
}

TEST(EncodeTest, ApplyWeightsRoundTrip) {
  XmlDocument doc = SchoolExampleDocument();
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  WeightMap modified = enc.weights;
  // Find some weight node and bump it.
  NodeId weight_node = kNoNode;
  for (NodeId v = 0; v < enc.tree.size(); ++v) {
    if (enc.is_weight_node[v]) {
      weight_node = v;
      break;
    }
  }
  ASSERT_NE(weight_node, kNoNode);
  modified.AddElem(weight_node, 1);
  XmlDocument out = ApplyWeights(doc, enc, modified);
  auto enc2 = EncodeXml(out, {"exam"}).ValueOrDie();
  EXPECT_EQ(enc2.weights.GetElem(weight_node), enc.weights.GetElem(weight_node) + 1);
}

TEST(EncodeTest, SchoolExampleWeights) {
  XmlDocument doc = SchoolExampleDocument();
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  Weight total = 0;
  for (NodeId v = 0; v < enc.tree.size(); ++v) {
    if (enc.is_weight_node[v]) total += enc.weights.GetElem(v);
  }
  EXPECT_EQ(total, 11 + 16 + 12);
}

TEST(EncodeTest, RandomSchoolDocumentShape) {
  Rng rng(5);
  XmlDocument doc = RandomSchoolDocument(25, rng, 0, 20, 2);
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  size_t weight_nodes = 0;
  for (NodeId v = 0; v < enc.tree.size(); ++v) weight_nodes += enc.is_weight_node[v];
  EXPECT_EQ(weight_nodes, 25u);
}

}  // namespace
}  // namespace qpwm
