// Recursive-descent parser for the SPARQL subset (see ast.h).

#ifndef SEDGE_SPARQL_SPARQL_PARSER_H_
#define SEDGE_SPARQL_SPARQL_PARSER_H_

#include <string_view>

#include "sparql/ast.h"
#include "util/status.h"

namespace sedge::sparql {

/// Parses a SELECT query. Supported grammar:
///   PREFIX ns: <iri>            (any number, before SELECT)
///   SELECT [DISTINCT] (?v... | *) [WHERE] { pattern }
///   pattern := (triples | FILTER(expr) | BIND(expr AS ?v) |
///               { pattern } UNION { pattern } [UNION ...])*
///   triples use '.', ';', ',' and 'a'; terms are IRIs, prefixed names,
///   literals ("..."^^dt, "..."@lang, numbers, booleans) and variables.
///   Modifiers: LIMIT n, OFFSET n.
/// Nesting of groups and expressions ('{', '(', unary '!'/'-') deeper
/// than kMaxNestingDepth fails with kInvalidArgument instead of
/// exhausting the stack.
Result<Query> ParseQuery(std::string_view text);

/// Combined group + expression nesting bound of ParseQuery.
inline constexpr int kMaxNestingDepth = 128;

}  // namespace sedge::sparql

#endif  // SEDGE_SPARQL_SPARQL_PARSER_H_
