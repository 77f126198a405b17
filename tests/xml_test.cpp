// Tests for the XML substrate: DOM, parser, writer, canonicalizer, schema.
#include <gtest/gtest.h>

#include "xml/canonical.hpp"
#include "xml/node.hpp"
#include "xml/parser.hpp"
#include "xml/pull.hpp"
#include "xml/schema.hpp"
#include "xml/writer.hpp"

namespace gs::xml {
namespace {

// --- QName -------------------------------------------------------------------

TEST(QName, IdentityIsUriPlusLocal) {
  EXPECT_EQ(QName("urn:a", "x"), QName("urn:a", "x"));
  EXPECT_NE(QName("urn:a", "x"), QName("urn:b", "x"));
  EXPECT_NE(QName("urn:a", "x"), QName("urn:a", "y"));
}

TEST(QName, ClarkNotation) {
  EXPECT_EQ(QName("urn:a", "x").clark(), "{urn:a}x");
  EXPECT_EQ(QName("x").clark(), "x");
}

// --- Element -----------------------------------------------------------------

TEST(Element, AttributesSetAndReplace) {
  Element el(QName("root"));
  el.set_attr("a", "1");
  el.set_attr("a", "2");
  EXPECT_EQ(el.attr("a"), "2");
  EXPECT_EQ(el.attributes().size(), 1u);
  EXPECT_FALSE(el.attr("missing").has_value());
}

TEST(Element, RemoveAttr) {
  Element el(QName("root"));
  el.set_attr("a", "1");
  EXPECT_TRUE(el.remove_attr(QName("a")));
  EXPECT_FALSE(el.remove_attr(QName("a")));
}

TEST(Element, TextConcatenatesDirectChildren) {
  Element el(QName("root"));
  el.append_text("a");
  el.append_element(QName("child")).append_text("HIDDEN");
  el.append_text("b");
  EXPECT_EQ(el.text(), "ab");
}

TEST(Element, ChildLookup) {
  Element el(QName("root"));
  el.append_element(QName("urn:x", "a"));
  el.append_element(QName("urn:y", "a"));
  EXPECT_EQ(el.child(QName("urn:y", "a"))->name().ns(), "urn:y");
  EXPECT_EQ(el.child_local("a")->name().ns(), "urn:x");  // first wins
  EXPECT_EQ(el.children_named(QName("urn:x", "a")).size(), 1u);
  EXPECT_EQ(el.child_elements().size(), 2u);
}

TEST(Element, DetachChildTransfersOwnership) {
  Element el(QName("root"));
  Element& child = el.append_element(QName("child"));
  std::unique_ptr<Node> detached = el.detach_child(child);
  ASSERT_TRUE(detached);
  EXPECT_FALSE(el.has_children());
  EXPECT_EQ(detached->parent(), nullptr);
}

TEST(Element, CloneIsDeep) {
  Element el(QName("root"));
  el.set_attr("a", "1");
  el.append_element(QName("child")).set_text("v");
  auto copy = el.clone_element();
  EXPECT_TRUE(Element::deep_equal(el, *copy));
  copy->child(QName("child"))->set_text("other");
  EXPECT_FALSE(Element::deep_equal(el, *copy));
}

TEST(Element, DeepEqualIgnoresComments) {
  Element a(QName("r"));
  a.append(std::make_unique<CharData>(NodeKind::kComment, "note"));
  a.append_element(QName("c"));
  Element b(QName("r"));
  b.append_element(QName("c"));
  EXPECT_TRUE(Element::deep_equal(a, b));
}

TEST(Element, ParentPointersMaintained) {
  Element el(QName("root"));
  Element& child = el.append_element(QName("c"));
  EXPECT_EQ(child.parent(), &el);
}

// --- parser ------------------------------------------------------------------

TEST(Parser, SimpleDocument) {
  auto root = parse_element("<a><b>text</b></a>");
  EXPECT_EQ(root->name().local(), "a");
  EXPECT_EQ(root->child_local("b")->text(), "text");
}

TEST(Parser, Prolog) {
  auto root = parse_element("<?xml version=\"1.0\"?>\n<a/>");
  EXPECT_EQ(root->name().local(), "a");
}

TEST(Parser, DefaultNamespace) {
  auto root = parse_element("<a xmlns=\"urn:x\"><b/></a>");
  EXPECT_EQ(root->name(), QName("urn:x", "a"));
  EXPECT_EQ(root->child_elements()[0]->name(), QName("urn:x", "b"));
}

TEST(Parser, PrefixedNamespaces) {
  auto root = parse_element(
      "<p:a xmlns:p=\"urn:x\" xmlns:q=\"urn:y\"><q:b p:attr=\"1\"/></p:a>");
  EXPECT_EQ(root->name(), QName("urn:x", "a"));
  const Element* b = root->child(QName("urn:y", "b"));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->attr(QName("urn:x", "attr")), "1");
}

TEST(Parser, NamespaceShadowing) {
  auto root = parse_element(
      "<a xmlns=\"urn:outer\"><b xmlns=\"urn:inner\"/><c/></a>");
  EXPECT_EQ(root->child_elements()[0]->name().ns(), "urn:inner");
  EXPECT_EQ(root->child_elements()[1]->name().ns(), "urn:outer");
}

TEST(Parser, NamespaceUndeclaration) {
  auto root = parse_element("<a xmlns=\"urn:x\"><b xmlns=\"\"/></a>");
  EXPECT_EQ(root->child_elements()[0]->name().ns(), "");
}

TEST(Parser, UnprefixedAttributesHaveNoNamespace) {
  auto root = parse_element("<a xmlns=\"urn:x\" attr=\"v\"/>");
  EXPECT_EQ(root->attr(QName("attr")), "v");
}

TEST(Parser, BuiltinEntities) {
  auto root = parse_element("<a>&lt;&gt;&amp;&quot;&apos;</a>");
  EXPECT_EQ(root->text(), "<>&\"'");
}

TEST(Parser, NumericCharacterReferences) {
  auto root = parse_element("<a>&#65;&#x42;</a>");
  EXPECT_EQ(root->text(), "AB");
}

TEST(Parser, Utf8CharacterReference) {
  auto root = parse_element("<a>&#x20AC;</a>");  // euro sign
  EXPECT_EQ(root->text(), "\xE2\x82\xAC");
}

TEST(Parser, EntityInAttribute) {
  auto root = parse_element("<a v=\"&amp;&lt;\"/>");
  EXPECT_EQ(root->attr("v"), "&<");
}

TEST(Parser, Cdata) {
  auto root = parse_element("<a><![CDATA[<not & parsed>]]></a>");
  EXPECT_EQ(root->text(), "<not & parsed>");
}

TEST(Parser, CommentsPreservedInTree) {
  auto root = parse_element("<a><!-- note --><b/></a>");
  ASSERT_EQ(root->children().size(), 2u);
  EXPECT_EQ(root->children()[0]->kind(), NodeKind::kComment);
}

TEST(Parser, ProcessingInstructionsSkipped) {
  auto root = parse_element("<a><?pi data?><b/></a>");
  EXPECT_EQ(root->child_elements().size(), 1u);
}

TEST(Parser, MixedContent) {
  auto root = parse_element("<a>x<b/>y</a>");
  EXPECT_EQ(root->text(), "xy");
  EXPECT_EQ(root->child_elements().size(), 1u);
}

TEST(Parser, SingleQuotedAttributes) {
  auto root = parse_element("<a v='1'/>");
  EXPECT_EQ(root->attr("v"), "1");
}

// Malformed input. The container reports parse errors to clients, so each
// case pins the exact message and position, through both entry points: the
// DOM (parse_element) and the wire view (ArenaDocument::parse).
struct BadXmlCase {
  const char* name;
  std::string input;
  const char* what;
  int line;
  int column;
};

std::string nested(int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += "<d>";
  doc += "x";
  for (int i = 0; i < depth; ++i) doc += "</d>";
  return doc;
}

class ParserRejects : public ::testing::TestWithParam<BadXmlCase> {};

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserRejects,
    ::testing::Values(
        BadXmlCase{"MismatchedTags", "<a></b>",
                   "mismatched closing tag </b> for <a> at line 1, column 7", 1, 7},
        BadXmlCase{"MismatchedTagOnSecondLine", "<a>\n<b></c></a>",
                   "mismatched closing tag </c> for <b> at line 2, column 7", 2, 7},
        BadXmlCase{"UnclosedTag", "<a><b></a>",
                   "mismatched closing tag </a> for <b> at line 1, column 10", 1, 10},
        BadXmlCase{"TrailingContent", "<a/><b/>",
                   "trailing content after root element at line 1, column 5", 1, 5},
        BadXmlCase{"UnboundPrefix", "<p:a/>",
                   "unbound namespace prefix 'p' at line 1, column 5", 1, 5},
        BadXmlCase{"UnboundAttrPrefix", "<a p:v='1'/>",
                   "unbound namespace prefix 'p' at line 1, column 11", 1, 11},
        BadXmlCase{"BareAmpersand", "<a>&unknown;</a>",
                   "unknown entity &unknown; at line 1, column 13", 1, 13},
        BadXmlCase{"LtInAttribute", "<a v=\"<\"/>",
                   "'<' in attribute value at line 1, column 8", 1, 8},
        BadXmlCase{"Doctype", "<!DOCTYPE a><a/>",
                   "DTDs are not supported at line 1, column 1", 1, 1},
        BadXmlCase{"EmptyInput", "", "expected '<' at line 1, column 1", 1, 1},
        BadXmlCase{"UnterminatedCdata", "<a><![CDATA[x</a>",
                   "unterminated CDATA section at line 1, column 18", 1, 18},
        BadXmlCase{"UnquotedAttr", "<a v=1/>",
                   "expected quoted attribute value at line 1, column 6", 1, 6},
        BadXmlCase{"HugeCharRef", "<a>&#x110000;</a>",
                   "character reference out of range at line 1, column 14", 1, 14},
        BadXmlCase{"CharRefTrailingJunk", "<a>&#65x;</a>",
                   "malformed character reference &#65x; at line 1, column 10", 1, 10},
        BadXmlCase{"CharRefLeadingSpace", "<a>&# 65;</a>",
                   "malformed character reference &# 65; at line 1, column 10", 1, 10},
        BadXmlCase{"CharRefSign", "<a>&#+65;</a>",
                   "malformed character reference &#+65; at line 1, column 10", 1, 10},
        BadXmlCase{"HexCharRefTrailingJunk", "<a>&#x41zz;</a>",
                   "malformed character reference &#x41zz; at line 1, column 12", 1,
                   12},
        BadXmlCase{"HexCharRefLeadingSpace", "<a>&#x 41;</a>",
                   "malformed character reference &#x 41; at line 1, column 11", 1, 11},
        BadXmlCase{"CharRefJunkInAttribute", "<a v=\"&#66q;\"/>",
                   "malformed character reference &#66q; at line 1, column 13", 1, 13},
        BadXmlCase{"TruncatedOpenTag", "<a><b", "expected a name at line 1, column 6",
                   1, 6},
        BadXmlCase{"TruncatedAttrValue", "<a v=\"unfinished",
                   "unexpected end of input at line 1, column 17", 1, 17},
        BadXmlCase{"TruncatedCloseTag", "<a></a", "expected '>' at line 1, column 7",
                   1, 7},
        BadXmlCase{"BadEntityNoSemicolon", "<a>&amp</a>",
                   "unexpected end of input at line 1, column 12", 1, 12},
        BadXmlCase{"UnterminatedComment", "<a><!-- forever</a>",
                   "expected '-->' at line 1, column 20", 1, 20},
        BadXmlCase{"DepthLimit", nested(300),
                   "document nesting exceeds the depth limit at line 1, column 769",
                   1, 769},
        // Errors after newlines the scanner skips in bulk: every run kind
        // must leave the line and column exact.
        BadXmlCase{"NewlinesInAttrValue", "<a v=\"x\ny\n<\"/>",
                   "'<' in attribute value at line 3, column 2", 3, 2},
        BadXmlCase{"NewlinesInTextRun", "<a>one\ntwo\n  &bogus;</a>",
                   "unknown entity &bogus; at line 3, column 10", 3, 10},
        BadXmlCase{"NewlinesInComment", "<a><!-- c\nc\n --><b></c></a>",
                   "mismatched closing tag </c> for <b> at line 3, column 11", 3, 11},
        BadXmlCase{"NewlinesInCdata", "<a><![CDATA[x\ny\n]]></b>",
                   "mismatched closing tag </b> for <a> at line 3, column 7", 3, 7},
        BadXmlCase{"NewlinesInPi", "<a><?pi x\ny\n?><p:b/></a>",
                   "unbound namespace prefix 'p' at line 3, column 7", 3, 7},
        BadXmlCase{"NewlinesBetweenAttrs", "<a\n  v=\"1\"\n\t w=2/>",
                   "expected quoted attribute value at line 3, column 5", 3, 5},
        BadXmlCase{"NewlinesInPrologPi",
                   "<?xml version=\"1.0\"\n?>\n<?pi\n?>\n<a>&#0;</a>",
                   "character reference out of range at line 5, column 8", 5, 8},
        BadXmlCase{"CrLfTextRun", "<a>\r\nx\r\n&#0;</a>",
                   "character reference out of range at line 3, column 5", 3, 5},
        BadXmlCase{"UnterminatedCommentAfterNewlines", "<a><!-- x\ny\nz",
                   "expected '-->' at line 3, column 2", 3, 2},
        BadXmlCase{"UnterminatedCdataAfterNewlines", "<a><![CDATA[x\n\ny",
                   "unterminated CDATA section at line 3, column 2", 3, 2}),
    [](const auto& info) { return info.param.name; });

TEST_P(ParserRejects, ThrowsPinnedParseError) {
  const BadXmlCase& c = GetParam();
  for (bool wire : {false, true}) {
    try {
      if (wire) {
        ArenaDocument::parse(c.input);
      } else {
        parse_element(c.input);
      }
      ADD_FAILURE() << "accepted malformed input: " << c.input;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), c.what) << (wire ? "wire view" : "DOM");
      EXPECT_EQ(e.line(), c.line);
      EXPECT_EQ(e.column(), c.column);
    }
  }
}

// --- writer ------------------------------------------------------------------

TEST(Writer, EscapesText) {
  Element el(QName("a"));
  el.set_text("x < y & z");
  EXPECT_EQ(write(el), "<a>x &lt; y &amp; z</a>");
}

TEST(Writer, EscapesAttributes) {
  Element el(QName("a"));
  el.set_attr("v", "\"quoted\" & <tag>");
  EXPECT_EQ(write(el), "<a v=\"&quot;quoted&quot; &amp; &lt;tag&gt;\"/>");
}

TEST(Writer, UsesPrefixHints) {
  Element el(QName("urn:x", "a"));
  el.declare_prefix("x", "urn:x");
  EXPECT_EQ(write(el), "<x:a xmlns:x=\"urn:x\"/>");
}

TEST(Writer, GeneratesPrefixesWhenUnhinted) {
  Element el(QName("urn:x", "a"));
  std::string out = write(el);
  EXPECT_NE(out.find("urn:x"), std::string::npos);
  // Must round-trip to the same names.
  auto back = parse_element(out);
  EXPECT_EQ(back->name(), el.name());
}

TEST(Writer, GeneratedPrefixesPastTheNameTableRoundTrip) {
  // More unhinted namespaces than the writer's table of generated names.
  Element root(QName("urn:root", "r"));
  for (int i = 0; i < 300; ++i) {
    Element& child = root.append_element(QName("urn:ns" + std::to_string(i), "c"));
    child.set_attr(QName("urn:attr" + std::to_string(i), "a"), std::to_string(i));
  }
  std::string out = write(root);
  EXPECT_NE(out.find("n601:a=\"299\""), std::string::npos);
  EXPECT_TRUE(Element::deep_equal(root, *parse_element(out)));
}

TEST(Writer, DefaultNamespaceHint) {
  Element el(QName("urn:x", "a"));
  el.declare_prefix("", "urn:x");
  EXPECT_EQ(write(el), "<a xmlns=\"urn:x\"/>");
}

TEST(Writer, DeclarationOption) {
  Element el(QName("a"));
  std::string out = write(el, {.pretty = false, .declaration = true});
  EXPECT_TRUE(out.starts_with("<?xml"));
}

TEST(Writer, PrettyPrintsNestedElements) {
  Element el(QName("a"));
  el.append_element(QName("b")).append_element(QName("c"));
  std::string out = write(el, {.pretty = true});
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
  EXPECT_NE(out.find("\n    <c/>"), std::string::npos);
}

TEST(Writer, PrettyLeavesMixedContentAlone) {
  Element el(QName("a"));
  el.append_text("x");
  el.append_element(QName("b"));
  std::string out = write(el, {.pretty = true});
  EXPECT_EQ(out, "<a>x<b/></a>");
}

// Round-trip corpus: each document with the octets parse + write must give
// back (names, attribute order, prefix hints, comments and CDATA survive;
// entities decode; duplicate attributes keep the last value).
struct RoundTripCase {
  const char* input;
  const char* written;
};

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTrip,
    ::testing::Values(
        RoundTripCase{"<a/>", "<a/>"},
        RoundTripCase{"<a>text</a>", "<a>text</a>"},
        RoundTripCase{"<a v=\"1\" w=\"2\"><b/><c>x</c></a>",
                      "<a v=\"1\" w=\"2\"><b/><c>x</c></a>"},
        RoundTripCase{
            "<a xmlns=\"urn:x\"><b xmlns=\"urn:y\" xmlns:z=\"urn:z\"><z:c/></b></a>",
            "<a xmlns=\"urn:x\"><b xmlns=\"urn:y\" xmlns:z=\"urn:z\"><z:c/></b></a>"},
        RoundTripCase{"<a>&lt;escaped&gt; &amp; entities</a>",
                      "<a>&lt;escaped&gt; &amp; entities</a>"},
        RoundTripCase{
            "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\">"
            "<soap:Header/><soap:Body><x xmlns=\"urn:app\">payload</x></soap:Body>"
            "</soap:Envelope>",
            "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\">"
            "<soap:Header/><soap:Body><x xmlns=\"urn:app\">payload</x></soap:Body>"
            "</soap:Envelope>"},
        RoundTripCase{"<a><b>1</b><b>2</b><b>3</b></a>",
                      "<a><b>1</b><b>2</b><b>3</b></a>"},
        RoundTripCase{"<deep><l1><l2><l3><l4>x</l4></l3></l2></l1></deep>",
                      "<deep><l1><l2><l3><l4>x</l4></l3></l2></l1></deep>"},
        // Wire-shaped extras: CDATA, comments, char refs, mixed content,
        // attribute namespaces, whitespace runs, prolog, duplicate attributes.
        RoundTripCase{"<a><![CDATA[raw <markup> & bytes]]></a>",
                      "<a><![CDATA[raw <markup> & bytes]]></a>"},
        RoundTripCase{"<a><!-- note -->x<b/><!-- tail --></a>",
                      "<a><!-- note -->x<b/><!-- tail --></a>"},
        RoundTripCase{"<a>&#65;&#x42;&apos;&quot;</a>", "<a>AB'\"</a>"},
        RoundTripCase{"<a>pre<b>mid</b>post</a>", "<a>pre<b>mid</b>post</a>"},
        RoundTripCase{
            "<p:a xmlns:p=\"urn:x\" xmlns:q=\"urn:y\" q:attr=\"v\"><q:b p:w=\"2\"/></p:a>",
            "<p:a xmlns:p=\"urn:x\" xmlns:q=\"urn:y\" q:attr=\"v\"><q:b p:w=\"2\"/></p:a>"},
        RoundTripCase{"<a>  spaced\n\tout  </a>", "<a>  spaced\n\tout  </a>"},
        RoundTripCase{"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a><b/></a>",
                      "<a><b/></a>"},
        RoundTripCase{"<a v=\"1\" v=\"2\"/>", "<a v=\"2\"/>"}));

TEST_P(RoundTrip, WritesPinnedOctets) {
  EXPECT_EQ(write(*parse_element(GetParam().input)), GetParam().written);
}

TEST_P(RoundTrip, ParseWriteParsePreservesTree) {
  auto first = parse_element(GetParam().input);
  auto second = parse_element(write(*first));
  EXPECT_TRUE(Element::deep_equal(*first, *second));
  // And pretty output round-trips structurally for element-only content.
  auto third = parse_element(write(*first, {.pretty = false}));
  EXPECT_TRUE(Element::deep_equal(*first, *third));
}

TEST_P(RoundTrip, CanonicalizeViewMatchesDomCanonicalization) {
  // Two canonicalizers exist (arena view and DOM); signatures need both to
  // emit the same octets.
  ArenaDocument arena = ArenaDocument::parse(GetParam().input);
  EXPECT_EQ(canonicalize_view(arena.root()), canonicalize(*arena.to_dom()));
}

// --- canonicalizer -----------------------------------------------------------

TEST(Canonical, SortsAttributes) {
  auto a = parse_element("<r b=\"2\" a=\"1\"/>");
  auto b = parse_element("<r a=\"1\" b=\"2\"/>");
  EXPECT_EQ(canonicalize(*a), canonicalize(*b));
}

TEST(Canonical, PrefixChoiceDoesNotMatter) {
  auto a = parse_element("<p:r xmlns:p=\"urn:x\"><p:c/></p:r>");
  auto b = parse_element("<q:r xmlns:q=\"urn:x\"><q:c/></q:r>");
  auto c = parse_element("<r xmlns=\"urn:x\"><c/></r>");
  EXPECT_EQ(canonicalize(*a), canonicalize(*b));
  EXPECT_EQ(canonicalize(*a), canonicalize(*c));
}

TEST(Canonical, StripsComments) {
  auto a = parse_element("<r><!-- note --><c/></r>");
  auto b = parse_element("<r><c/></r>");
  EXPECT_EQ(canonicalize(*a), canonicalize(*b));
}

TEST(Canonical, FoldsCdata) {
  auto a = parse_element("<r><![CDATA[x<y]]></r>");
  auto b = parse_element("<r>x&lt;y</r>");
  EXPECT_EQ(canonicalize(*a), canonicalize(*b));
}

TEST(Canonical, DistinguishesContentChanges) {
  auto a = parse_element("<r><c>1</c></r>");
  auto b = parse_element("<r><c>2</c></r>");
  EXPECT_NE(canonicalize(*a), canonicalize(*b));
}

TEST(Canonical, DistinguishesNamespaces) {
  auto a = parse_element("<r xmlns=\"urn:x\"/>");
  auto b = parse_element("<r xmlns=\"urn:y\"/>");
  EXPECT_NE(canonicalize(*a), canonicalize(*b));
}

TEST(Canonical, IsDeterministicAcrossRoundTrip) {
  const char* doc = "<r b=\"2\" a=\"1\" xmlns=\"urn:x\"><c>v</c></r>";
  auto first = parse_element(doc);
  auto second = parse_element(write(*first));
  EXPECT_EQ(canonicalize(*first), canonicalize(*second));
}

// --- schema ------------------------------------------------------------------

Schema counter_schema() {
  ElementDecl root(QName("urn:c", "Counter"));
  root.child(ElementDecl(QName("urn:c", "cv"), ContentType::kInteger));
  return Schema(std::move(root));
}

TEST(Schema, AcceptsValidDocument) {
  auto doc = parse_element("<Counter xmlns=\"urn:c\"><cv>42</cv></Counter>");
  EXPECT_TRUE(counter_schema().validate(*doc).valid());
}

TEST(Schema, RejectsWrongRoot) {
  auto doc = parse_element("<Other xmlns=\"urn:c\"/>");
  auto result = counter_schema().validate(*doc);
  ASSERT_FALSE(result.valid());
  EXPECT_NE(result.summary().find("expected element"), std::string::npos);
}

TEST(Schema, RejectsMissingChild) {
  auto doc = parse_element("<Counter xmlns=\"urn:c\"/>");
  EXPECT_FALSE(counter_schema().validate(*doc).valid());
}

TEST(Schema, RejectsNonIntegerContent) {
  auto doc = parse_element("<Counter xmlns=\"urn:c\"><cv>oops</cv></Counter>");
  EXPECT_FALSE(counter_schema().validate(*doc).valid());
}

TEST(Schema, RejectsExtraChildrenWhenClosed) {
  auto doc = parse_element(
      "<Counter xmlns=\"urn:c\"><cv>1</cv><extra/></Counter>");
  EXPECT_FALSE(counter_schema().validate(*doc).valid());
}

TEST(Schema, OpenContentAllowsExtras) {
  ElementDecl root(QName("urn:c", "Counter"));
  root.child(ElementDecl(QName("urn:c", "cv"), ContentType::kInteger));
  root.open_content();
  Schema schema(std::move(root));
  auto doc = parse_element(
      "<Counter xmlns=\"urn:c\"><cv>1</cv><extra/></Counter>");
  EXPECT_TRUE(schema.validate(*doc).valid());
}

TEST(Schema, OccurrenceBounds) {
  ElementDecl root(QName("list"));
  root.child(ElementDecl(QName("item"), ContentType::kString), 1, 2);
  Schema schema(std::move(root));
  EXPECT_FALSE(schema.validate(*parse_element("<list/>")).valid());
  EXPECT_TRUE(
      schema.validate(*parse_element("<list><item>a</item></list>")).valid());
  EXPECT_FALSE(schema
                   .validate(*parse_element(
                       "<list><item/><item/><item/></list>"))
                   .valid());
}

TEST(Schema, RequiredAttribute) {
  ElementDecl root(QName("r"));
  root.require_attr(QName("id"));
  Schema schema(std::move(root));
  EXPECT_FALSE(schema.validate(*parse_element("<r/>")).valid());
  EXPECT_TRUE(schema.validate(*parse_element("<r id=\"1\"/>")).valid());
}

TEST(Schema, BooleanAndDoubleContent) {
  {
    ElementDecl root(QName("b"), ContentType::kBoolean);
    Schema schema(std::move(root));
    EXPECT_TRUE(schema.validate(*parse_element("<b>true</b>")).valid());
    EXPECT_FALSE(schema.validate(*parse_element("<b>yes</b>")).valid());
  }
  {
    ElementDecl root(QName("d"), ContentType::kDouble);
    Schema schema(std::move(root));
    EXPECT_TRUE(schema.validate(*parse_element("<d>3.25</d>")).valid());
    EXPECT_FALSE(schema.validate(*parse_element("<d>NaNish</d>")).valid());
  }
}

TEST(Schema, CollectsAllViolations) {
  ElementDecl root(QName("r"));
  root.require_attr(QName("id"));
  root.child(ElementDecl(QName("a"), ContentType::kInteger));
  root.child(ElementDecl(QName("b"), ContentType::kInteger));
  Schema schema(std::move(root));
  auto result = schema.validate(*parse_element("<r><a>x</a></r>"));
  // Missing id, bad integer in a, missing b = 3 violations.
  EXPECT_EQ(result.violations.size(), 3u);
}

// --- arena view -------------------------------------------------------------

TEST(ArenaView, AccessorsMirrorElement) {
  const char* doc =
      "<p:a xmlns:p=\"urn:x\" xmlns:q=\"urn:y\" id=\"7\"><q:b p:w=\"2\">text"
      "</q:b><c/></p:a>";
  ArenaDocument arena = ArenaDocument::parse(doc);
  const ArenaNode& root = arena.root();
  EXPECT_EQ(root.clark(), "{urn:x}a");
  EXPECT_EQ(root.attr_local("id").value_or(""), "7");
  const ArenaNode* b = root.child("urn:y", "b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->attr("urn:x", "w").value_or(""), "2");
  EXPECT_EQ(b->text(), "text");
  EXPECT_EQ(root.child_local("c")->clark(), "c");
  EXPECT_EQ(root.first_element(), b);
  EXPECT_EQ(root.child("urn:z", "nope"), nullptr);
}

TEST(ArenaView, CountsNodesAndArenaBytes) {
  ArenaDocument arena = ArenaDocument::parse("<a><b>1</b><b>2</b></a>");
  // a, b, text, b, text.
  EXPECT_EQ(arena.node_count(), 5u);
  EXPECT_GT(arena.arena_bytes(), 0u);
}

}  // namespace
}  // namespace gs::xml
