#include "sparql/sparql_parser.h"

#include <cctype>
#include <map>
#include <string>

#include "rdf/vocabulary.h"

namespace sedge::sparql {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Query> Run() {
    Query query;
    SkipWhitespace();
    while (MatchKeyword("PREFIX")) {
      SEDGE_RETURN_NOT_OK(ParsePrefix());
      SkipWhitespace();
    }
    if (!MatchKeyword("SELECT")) return Error("expected SELECT");
    query.distinct = MatchKeyword("DISTINCT");
    // Projection: '*' or variables.
    SkipWhitespace();
    if (!AtEnd() && Peek() == '*') {
      Advance();
    } else {
      while (true) {
        SkipWhitespace();
        if (AtEnd() || (Peek() != '?' && Peek() != '$')) break;
        SEDGE_ASSIGN_OR_RETURN(Variable v, ParseVariable());
        query.select.push_back(std::move(v));
      }
      if (query.select.empty()) return Error("expected '*' or variables");
    }
    SkipWhitespace();
    MatchKeyword("WHERE");  // optional
    SkipWhitespace();
    SEDGE_ASSIGN_OR_RETURN(query.where, ParseGroup());
    // Modifiers.
    SkipWhitespace();
    while (!AtEnd()) {
      if (MatchKeyword("LIMIT")) {
        SEDGE_ASSIGN_OR_RETURN(uint64_t n, ParseInteger());
        query.limit = n;
      } else if (MatchKeyword("OFFSET")) {
        SEDGE_ASSIGN_OR_RETURN(uint64_t n, ParseInteger());
        query.offset = n;
      } else {
        return Error("unexpected trailing input");
      }
      SkipWhitespace();
    }
    return query;
  }

 private:
  // One level of group or expression nesting. Every recursive cycle of
  // the grammar passes through ParseGroup or ParseUnary, which hold one
  // scope each, so the depth bounds the parser's stack.
  class NestingScope {
   public:
    explicit NestingScope(int* depth) : depth_(depth) { ++*depth_; }
    ~NestingScope() { --*depth_; }
    NestingScope(const NestingScope&) = delete;
    NestingScope& operator=(const NestingScope&) = delete;
    bool exceeded() const { return *depth_ > kMaxNestingDepth; }

   private:
    int* depth_;
  };

  Status TooDeep() const {
    return Status::InvalidArgument(
        "SPARQL line " + std::to_string(line_) + ": nesting deeper than " +
        std::to_string(kMaxNestingDepth));
  }

  // ------------------------------------------------------------- scanning
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }
  void Advance() {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }
  void SkipWhitespace() {
    while (!AtEnd()) {
      if (std::isspace(static_cast<unsigned char>(Peek()))) {
        Advance();
      } else if (Peek() == '#') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else {
        return;
      }
    }
  }

  Status Error(const std::string& what) const {
    return Status::ParseError("SPARQL line " + std::to_string(line_) + ": " +
                              what);
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.';
  }

  /// Case-insensitively consumes `kw` if present as a whole word.
  bool MatchKeyword(std::string_view kw) {
    SkipWhitespace();
    if (pos_ + kw.size() > text_.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) != kw[i]) {
        return false;
      }
    }
    const char next = PeekAt(kw.size());
    if (IsNameChar(next) || next == ':') return false;
    pos_ += kw.size();
    return true;
  }

  Result<uint64_t> ParseInteger() {
    SkipWhitespace();
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Error("expected integer");
    }
    uint64_t n = 0;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      n = n * 10 + static_cast<uint64_t>(Peek() - '0');
      Advance();
    }
    return n;
  }

  Status Expect(char c) {
    SkipWhitespace();
    if (AtEnd() || Peek() != c) {
      return Error(std::string("expected '") + c + "'");
    }
    Advance();
    return Status::OK();
  }

  // ------------------------------------------------------------ prologue
  Status ParsePrefix() {
    SkipWhitespace();
    std::string name;
    while (!AtEnd() && Peek() != ':') {
      if (std::isspace(static_cast<unsigned char>(Peek()))) {
        return Error("bad prefix name");
      }
      name += Peek();
      Advance();
    }
    SEDGE_RETURN_NOT_OK(Expect(':'));
    SkipWhitespace();
    SEDGE_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
    prefixes_[name] = iri;
    return Status::OK();
  }

  Result<std::string> ParseIriRef() {
    SkipWhitespace();
    if (AtEnd() || Peek() != '<') return Error("expected '<'");
    Advance();
    std::string iri;
    while (!AtEnd() && Peek() != '>') {
      iri += Peek();
      Advance();
    }
    if (AtEnd()) return Error("unterminated IRI");
    Advance();
    return iri;
  }

  Result<Variable> ParseVariable() {
    SkipWhitespace();
    if (AtEnd() || (Peek() != '?' && Peek() != '$')) {
      return Error("expected variable");
    }
    Advance();
    std::string name;
    while (!AtEnd() && IsNameChar(Peek()) && Peek() != '.') {
      name += Peek();
      Advance();
    }
    if (name.empty()) return Error("empty variable name");
    return Variable{std::move(name)};
  }

  Result<rdf::Term> ParsePrefixedName() {
    std::string prefix;
    while (!AtEnd() && Peek() != ':') {
      if (!IsNameChar(Peek())) {
        return Error(std::string("unexpected character '") + Peek() + "'");
      }
      prefix += Peek();
      Advance();
    }
    if (AtEnd()) return Error("expected ':'");
    Advance();
    std::string local;
    while (!AtEnd() && IsNameChar(Peek())) {
      local += Peek();
      Advance();
    }
    while (!local.empty() && local.back() == '.') {
      local.pop_back();
      --pos_;
    }
    const auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Error("unknown prefix '" + prefix + ":'");
    }
    return rdf::Term::Iri(it->second + local);
  }

  Result<rdf::Term> ParseLiteral() {
    Advance();  // opening quote
    std::string lexical;
    while (!AtEnd() && Peek() != '"') {
      char c = Peek();
      if (c == '\\') {
        Advance();
        if (AtEnd()) return Error("unterminated escape");
        switch (Peek()) {
          case 't': c = '\t'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: return Error("unsupported escape");
        }
      }
      lexical += c;
      Advance();
    }
    if (AtEnd()) return Error("unterminated string");
    Advance();
    if (!AtEnd() && Peek() == '^' && PeekAt(1) == '^') {
      Advance();
      Advance();
      if (!AtEnd() && Peek() == '<') {
        SEDGE_ASSIGN_OR_RETURN(std::string dt, ParseIriRef());
        return rdf::Term::Literal(std::move(lexical), std::move(dt));
      }
      SEDGE_ASSIGN_OR_RETURN(rdf::Term dt, ParsePrefixedName());
      return rdf::Term::Literal(std::move(lexical), dt.lexical());
    }
    if (!AtEnd() && Peek() == '@') {
      Advance();
      std::string lang;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '-')) {
        lang += Peek();
        Advance();
      }
      return rdf::Term::Literal(std::move(lexical), "", std::move(lang));
    }
    return rdf::Term::Literal(std::move(lexical));
  }

  Result<rdf::Term> ParseNumber() {
    std::string lexical;
    bool has_dot = false;
    bool has_exp = false;
    if (Peek() == '+' || Peek() == '-') {
      lexical += Peek();
      Advance();
    }
    while (!AtEnd()) {
      const char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        lexical += c;
        Advance();
      } else if (c == '.' && !has_dot && !has_exp &&
                 std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
        has_dot = true;
        lexical += c;
        Advance();
      } else if ((c == 'e' || c == 'E') && !has_exp && !lexical.empty()) {
        has_exp = true;
        lexical += c;
        Advance();
        if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
          lexical += Peek();
          Advance();
        }
      } else {
        break;
      }
    }
    if (lexical.empty()) return Error("malformed number");
    const char* dt = has_exp ? rdf::kXsdDouble
                             : (has_dot ? rdf::kXsdDecimal : rdf::kXsdInteger);
    return rdf::Term::Literal(std::move(lexical), dt);
  }

  /// A term or variable in a triple-pattern slot.
  Result<TermOrVar> ParseTermOrVar(bool predicate_position) {
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of pattern");
    const char c = Peek();
    if (c == '?' || c == '$') {
      SEDGE_ASSIGN_OR_RETURN(Variable v, ParseVariable());
      return TermOrVar{std::move(v)};
    }
    if (predicate_position && c == 'a' &&
        (std::isspace(static_cast<unsigned char>(PeekAt(1))) ||
         PeekAt(1) == '<' || PeekAt(1) == '?')) {
      Advance();
      return TermOrVar{rdf::Term::Iri(rdf::kRdfType)};
    }
    if (c == '<') {
      SEDGE_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      return TermOrVar{rdf::Term::Iri(std::move(iri))};
    }
    if (c == '"') {
      SEDGE_ASSIGN_OR_RETURN(rdf::Term lit, ParseLiteral());
      return TermOrVar{std::move(lit)};
    }
    if (c == '+' || c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      SEDGE_ASSIGN_OR_RETURN(rdf::Term num, ParseNumber());
      return TermOrVar{std::move(num)};
    }
    if (c == '_' && PeekAt(1) == ':') {
      Advance();
      Advance();
      std::string label;
      while (!AtEnd() && IsNameChar(Peek())) {
        label += Peek();
        Advance();
      }
      return TermOrVar{rdf::Term::Blank(std::move(label))};
    }
    SEDGE_ASSIGN_OR_RETURN(rdf::Term iri, ParsePrefixedName());
    return TermOrVar{std::move(iri)};
  }

  // --------------------------------------------------------------- groups
  Result<GroupPattern> ParseGroup() {
    const NestingScope scope(&depth_);
    if (scope.exceeded()) return TooDeep();
    GroupPattern group;
    SEDGE_RETURN_NOT_OK(Expect('{'));
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated group (missing '}')");
      if (Peek() == '}') {
        Advance();
        return group;
      }
      if (MatchKeyword("FILTER")) {
        SkipWhitespace();
        std::unique_ptr<Expr> e;
        if (Peek() == '(') {
          Advance();
          SEDGE_ASSIGN_OR_RETURN(e, ParseExpr());
          SEDGE_RETURN_NOT_OK(Expect(')'));
        } else {
          // FILTER BuiltInCall — e.g. FILTER regex(str(?n), "...").
          SEDGE_ASSIGN_OR_RETURN(e, ParsePrimary());
        }
        group.filters.push_back(std::move(e));
        ConsumeOptionalDot();
        continue;
      }
      if (MatchKeyword("BIND")) {
        SEDGE_RETURN_NOT_OK(Expect('('));
        SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        if (!MatchKeyword("AS")) return Error("expected AS in BIND");
        SEDGE_ASSIGN_OR_RETURN(Variable v, ParseVariable());
        SEDGE_RETURN_NOT_OK(Expect(')'));
        group.binds.push_back(Bind{std::move(e), std::move(v)});
        ConsumeOptionalDot();
        continue;
      }
      if (Peek() == '{') {
        // Nested group, possibly a UNION chain.
        UnionBlock block;
        SEDGE_ASSIGN_OR_RETURN(GroupPattern first, ParseGroup());
        block.alternatives.push_back(std::move(first));
        while (MatchKeyword("UNION")) {
          SEDGE_ASSIGN_OR_RETURN(GroupPattern alt, ParseGroup());
          block.alternatives.push_back(std::move(alt));
        }
        group.unions.push_back(std::move(block));
        ConsumeOptionalDot();
        continue;
      }
      SEDGE_RETURN_NOT_OK(ParseTriplesBlock(&group));
    }
  }

  void ConsumeOptionalDot() {
    SkipWhitespace();
    if (!AtEnd() && Peek() == '.') Advance();
  }

  Status ParseTriplesBlock(GroupPattern* group) {
    SEDGE_ASSIGN_OR_RETURN(TermOrVar subject, ParseTermOrVar(false));
    for (;;) {
      SEDGE_ASSIGN_OR_RETURN(TermOrVar predicate, ParseTermOrVar(true));
      for (;;) {
        SEDGE_ASSIGN_OR_RETURN(TermOrVar object, ParseTermOrVar(false));
        group->triples.push_back({subject, predicate, object});
        SkipWhitespace();
        if (!AtEnd() && Peek() == ',') {
          Advance();
          continue;
        }
        break;
      }
      SkipWhitespace();
      if (!AtEnd() && Peek() == ';') {
        Advance();
        SkipWhitespace();
        if (!AtEnd() && (Peek() == '.' || Peek() == '}')) break;
        continue;
      }
      break;
    }
    ConsumeOptionalDot();
    return Status::OK();
  }

  // ---------------------------------------------------------- expressions
  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAnd());
    for (;;) {
      SkipWhitespace();
      if (Peek() == '|' && PeekAt(1) == '|') {
        Advance();
        Advance();
        SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAnd());
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::kOr;
        node->args.push_back(std::move(left));
        node->args.push_back(std::move(right));
        left = std::move(node);
      } else {
        return left;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseCompare());
    for (;;) {
      SkipWhitespace();
      if (Peek() == '&' && PeekAt(1) == '&') {
        Advance();
        Advance();
        SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseCompare());
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::kAnd;
        node->args.push_back(std::move(left));
        node->args.push_back(std::move(right));
        left = std::move(node);
      } else {
        return left;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParseCompare() {
    SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAdditive());
    SkipWhitespace();
    CompareOp op;
    if (Peek() == '=' && PeekAt(1) != '=') {
      op = CompareOp::kEq;
      Advance();
    } else if (Peek() == '!' && PeekAt(1) == '=') {
      op = CompareOp::kNe;
      Advance();
      Advance();
    } else if (Peek() == '<' && PeekAt(1) == '=') {
      op = CompareOp::kLe;
      Advance();
      Advance();
    } else if (Peek() == '<') {
      op = CompareOp::kLt;
      Advance();
    } else if (Peek() == '>' && PeekAt(1) == '=') {
      op = CompareOp::kGe;
      Advance();
      Advance();
    } else if (Peek() == '>') {
      op = CompareOp::kGt;
      Advance();
    } else {
      return left;
    }
    SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAdditive());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kCompare;
    node->compare_op = op;
    node->args.push_back(std::move(left));
    node->args.push_back(std::move(right));
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseMultiplicative());
    for (;;) {
      SkipWhitespace();
      const char c = Peek();
      if (AtEnd() || (c != '+' && c != '-')) return left;
      Advance();
      SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right,
                             ParseMultiplicative());
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kArith;
      node->arith_op = c == '+' ? ArithOp::kAdd : ArithOp::kSub;
      node->args.push_back(std::move(left));
      node->args.push_back(std::move(right));
      left = std::move(node);
    }
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseUnary());
    for (;;) {
      SkipWhitespace();
      const char c = Peek();
      if (AtEnd() || (c != '*' && c != '/')) return left;
      Advance();
      SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseUnary());
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kArith;
      node->arith_op = c == '*' ? ArithOp::kMul : ArithOp::kDiv;
      node->args.push_back(std::move(left));
      node->args.push_back(std::move(right));
      left = std::move(node);
    }
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    const NestingScope scope(&depth_);
    if (scope.exceeded()) return TooDeep();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '!') {
      Advance();
      SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseUnary());
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kNot;
      node->args.push_back(std::move(inner));
      return node;
    }
    if (!AtEnd() && Peek() == '-' &&
        !std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
      Advance();
      SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseUnary());
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kNegate;
      node->args.push_back(std::move(inner));
      return node;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of expression");
    const char c = Peek();
    if (c == '(') {
      Advance();
      SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      SEDGE_RETURN_NOT_OK(Expect(')'));
      return e;
    }
    if (c == '?' || c == '$') {
      SEDGE_ASSIGN_OR_RETURN(Variable v, ParseVariable());
      return Expr::MakeVar(v.name);
    }
    if (c == '"') {
      SEDGE_ASSIGN_OR_RETURN(rdf::Term lit, ParseLiteral());
      return Expr::MakeTerm(std::move(lit));
    }
    if (c == '<') {
      SEDGE_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      return Expr::MakeTerm(rdf::Term::Iri(std::move(iri)));
    }
    if (c == '+' || c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      SEDGE_ASSIGN_OR_RETURN(rdf::Term num, ParseNumber());
      return Expr::MakeTerm(std::move(num));
    }
    // Identifier: function call, boolean, or prefixed name.
    std::string ident;
    while (!AtEnd() && (IsNameChar(Peek()))) {
      ident += Peek();
      Advance();
    }
    SkipWhitespace();
    if (!AtEnd() && Peek() == '(' && !ident.empty()) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kFunction;
      for (char& ch : ident) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      node->function = ident;
      SkipWhitespace();
      if (!AtEnd() && Peek() == ')') {
        Advance();
        return node;
      }
      for (;;) {
        SEDGE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
        node->args.push_back(std::move(arg));
        SkipWhitespace();
        if (!AtEnd() && Peek() == ',') {
          Advance();
          continue;
        }
        break;
      }
      SEDGE_RETURN_NOT_OK(Expect(')'));
      return node;
    }
    if (ident == "true" || ident == "false") {
      return Expr::MakeTerm(rdf::Term::Literal(ident, rdf::kXsdBoolean));
    }
    if (!AtEnd() && Peek() == ':') {
      // Prefixed name: rewind is impossible, so parse the rest here.
      Advance();
      std::string local;
      while (!AtEnd() && IsNameChar(Peek())) {
        local += Peek();
        Advance();
      }
      const auto it = prefixes_.find(ident);
      if (it == prefixes_.end()) {
        return Error("unknown prefix '" + ident + ":'");
      }
      return Expr::MakeTerm(rdf::Term::Iri(it->second + local));
    }
    return Error("cannot parse expression near '" + ident + "'");
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;  // live NestingScopes
  std::map<std::string, std::string> prefixes_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) { return Parser(text).Run(); }

std::vector<Variable> Query::MentionedVariables() const {
  std::vector<Variable> out;
  const auto add = [&out](const TermOrVar& tv) {
    if (!IsVar(tv)) return;
    const Variable& v = AsVar(tv);
    for (const Variable& existing : out) {
      if (existing == v) return;
    }
    out.push_back(v);
  };
  // Walk the top-level group and union alternatives (one level, which is
  // what the supported grammar produces).
  const auto walk_group = [&add](const GroupPattern& g, const auto& self)
      -> void {
    for (const TriplePattern& tp : g.triples) {
      add(tp.subject);
      add(tp.predicate);
      add(tp.object);
    }
    for (const UnionBlock& u : g.unions) {
      for (const GroupPattern& alt : u.alternatives) self(alt, self);
    }
  };
  walk_group(where, walk_group);
  return out;
}

}  // namespace sedge::sparql
