#include "sparql/executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "rdf/vocabulary.h"
#include "sparql/optimizer.h"
#include "util/logging.h"

namespace sedge::sparql {
namespace {

using store::EncodedTerm;
using store::ValueSpace;

constexpr EncodedTerm kUnboundValue{ValueSpace::kUnbound, 0};

bool IsUnbound(const EncodedTerm& v) {
  return v.space == ValueSpace::kUnbound;
}

bool IsTypePredicate(const TermOrVar& pred) {
  return !IsVar(pred) && AsTerm(pred).is_iri() &&
         AsTerm(pred).lexical() == rdf::kRdfType;
}

// Visits the concrete predicates a constant property scans in one store
// (`view`): the stored predicates of its LiteMat interval when reasoning,
// else its own id. A provisional predicate's interval is its leaf
// [id, id+1): it is a single direct route — no inference expansion, no
// base probe (the overlay is the only place its triples can live
// pre-re-encode).
template <typename View, typename Visit>
void ForEachRoutePredicate(const View& view,
                           std::pair<uint64_t, uint64_t> interval,
                           bool reasoning, Visit&& visit) {
  if (!reasoning || store::schema::IsProvisionalId(interval.first)) {
    visit(interval.first);
    return;
  }
  view.ForEachPredicateIn(interval.first, interval.second, visit);
}

}  // namespace

// ---------------------------------------------------------------- Decoder

class Executor::Decoder : public ValueDecoder {
 public:
  Decoder(const store::TripleStore* store,
          const std::vector<rdf::Term>* computed_pool,
          const std::vector<std::optional<double>>* computed_numeric)
      : store_(store),
        computed_pool_(computed_pool),
        computed_numeric_(computed_numeric) {}

  rdf::Term Decode(const EncodedTerm& value) const override {
    switch (value.space) {
      case ValueSpace::kRdfType:
        return rdf::Term::Iri(rdf::kRdfType);
      case ValueSpace::kComputed:
        return (*computed_pool_)[value.id];
      case ValueSpace::kUnbound:
        return rdf::Term::Iri("");
      default:
        return store_->DecodeTerm(value);
    }
  }

  std::optional<double> Numeric(const EncodedTerm& value) const override {
    switch (value.space) {
      case ValueSpace::kLiteral:
        return store_->NumericAt(value.id);  // routes base + delta pools
      case ValueSpace::kComputed:
        return (*computed_numeric_)[value.id];
      case ValueSpace::kUnbound:
        return std::nullopt;
      case ValueSpace::kInstance:
      case ValueSpace::kConcept:
      case ValueSpace::kObjectProperty:
      case ValueSpace::kDatatypeProperty:
      case ValueSpace::kRdfType:
        return std::nullopt;
    }
    return std::nullopt;
  }

  std::string Str(const EncodedTerm& value) const override {
    switch (value.space) {
      case ValueSpace::kLiteral:
        return store_->LexicalAt(value.id);
      case ValueSpace::kUnbound:
        return "";
      default:
        return Decode(value).lexical();
    }
  }

 private:
  const store::TripleStore* store_;
  const std::vector<rdf::Term>* computed_pool_;
  const std::vector<std::optional<double>>* computed_numeric_;
};

// -------------------------------------------------------------- Estimator

class Executor::Estimator : public CardinalityEstimator {
 public:
  Estimator(const store::TripleStore* store, bool reasoning)
      : store_(store), reasoning_(reasoning) {}

  uint64_t Estimate(const TriplePattern& tp) const override {
    const bool s_const = !IsVar(tp.subject);
    const bool o_const = !IsVar(tp.object);
    if (IsVar(tp.predicate)) return store_->num_triples() + 1;
    const std::string& p = AsTerm(tp.predicate).lexical();
    const auto& dict = store_->dict();
    if (p == rdf::kRdfType) {
      if (o_const && AsTerm(tp.object).is_iri()) {
        const auto interval = ConceptIntervalFor(AsTerm(tp.object).lexical());
        if (!interval) return 0;
        const uint64_t count = store_->type_view().CountTypedIn(
            interval->first, interval->second);
        return s_const ? std::min<uint64_t>(count, 1) : count;
      }
      if (s_const) return ConceptCountOf(AsTerm(tp.subject));
      return store_->type_view().num_triples() + 1;
    }
    if (!s_const && o_const && !AsTerm(tp.object).is_literal()) {
      return CountObjectMatches(p, AsTerm(tp.object));
    }
    // Property counts, hierarchy-aggregated when reasoning (Section 5.1).
    // Provisional predicates have no hierarchy entry or recorded
    // statistics; their counts come straight off the merged views —
    // judged per space, because one IRI can be dictionary-encoded in one
    // property space and provisionally admitted in the other.
    uint64_t count = 0;
    uint64_t pairs = 0;
    if (reasoning_) {
      count = dict.PropertyCountAggregated(p);  // 0 outside the hierarchies
      pairs = count;  // refined below when the exact predicate is stored
    }
    if (const auto id = store_->ObjectPropertyIdOf(p)) {
      if (!reasoning_ || store::schema::IsProvisionalId(*id)) {
        count += store_->object_view().CountForPredicate(*id);
      }
      pairs = std::max(pairs,
                       store_->object_view().CountSubjectsForPredicate(*id));
    }
    if (const auto id = store_->DatatypePropertyIdOf(p)) {
      if (!reasoning_ || store::schema::IsProvisionalId(*id)) {
        count += store_->datatype_view().CountForPredicate(*id);
      }
      pairs = std::max(
          pairs, store_->datatype_view().CountSubjectsForPredicate(*id));
    }
    if (s_const && o_const) return 1;
    if (s_const || o_const) {
      return std::max<uint64_t>(1, count / std::max<uint64_t>(1, pairs));
    }
    return count;
  }

 private:
  std::optional<std::pair<uint64_t, uint64_t>> ConceptIntervalFor(
      const std::string& iri) const {
    return store_->ConceptIntervalOf(iri, reasoning_);
  }

  // Stored concepts of a constant subject: the rows (s, rdf:type, ?o)
  // yields.
  uint64_t ConceptCountOf(const rdf::Term& subject) const {
    const auto sid = store_->dict().InstanceId(subject);
    if (!sid) return 0;
    uint64_t count = 0;
    store_->type_view().ForEachConceptOf(*sid,
                                         [&count](uint64_t) { ++count; });
    return count;
  }

  // Exact (?s, p, <resource>) count over the routes ExtendRegularTp scans,
  // two wavelet ranks per route.
  uint64_t CountObjectMatches(const std::string& p,
                              const rdf::Term& object) const {
    const auto oid = store_->dict().InstanceId(object);
    const auto interval = store_->ObjectPropertyIntervalOf(p, reasoning_);
    if (!oid || !interval) return 0;
    const store::delta::MergedObjectView view = store_->object_view();
    uint64_t count = 0;
    ForEachRoutePredicate(view, *interval, reasoning_, [&](uint64_t pred) {
      count += view.CountPO(pred, *oid);
    });
    return count;
  }

  const store::TripleStore* store_;
  bool reasoning_;
};

// ---------------------------------------------------------------- Executor

Executor::Executor(const store::TripleStore* store)
    : Executor(store, Options()) {}

Executor::Executor(const store::TripleStore* store, Options options)
    : store_(store), options_(options) {
  decoder_ = std::make_unique<Decoder>(store_, &computed_pool_,
                                       &computed_numeric_);
  evaluator_ = std::make_unique<ExpressionEvaluator>(decoder_.get());
}

Executor::Executor(std::shared_ptr<const store::StoreGeneration> snapshot,
                   Options options)
    : snapshot_(std::move(snapshot)),
      store_(&snapshot_->store()),
      options_(options) {
  decoder_ = std::make_unique<Decoder>(store_, &computed_pool_,
                                       &computed_numeric_);
  evaluator_ = std::make_unique<ExpressionEvaluator>(decoder_.get());
}

Executor::~Executor() = default;

std::vector<size_t> Executor::PlanOrder(
    const std::vector<TriplePattern>& triples) const {
  if (!options_.use_optimizer) {
    std::vector<size_t> order(triples.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    return order;
  }
  const Estimator estimator(store_, options_.reasoning);
  return OrderTriplePatterns(triples, estimator);
}

Result<BindingTable> Executor::ExecuteEncoded(const Query& query) {
  SEDGE_ASSIGN_OR_RETURN(BindingTable table, EvaluateGroup(query.where));

  // Projection.
  std::vector<Variable> projected = query.select;
  if (projected.empty()) projected = query.MentionedVariables();
  BindingTable out;
  out.vars = projected;
  std::vector<int> cols;
  cols.reserve(projected.size());
  for (const Variable& v : projected) cols.push_back(table.IndexOf(v));
  out.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<EncodedTerm> projected_row;
    projected_row.reserve(cols.size());
    for (const int c : cols) {
      projected_row.push_back(c >= 0 ? row[c] : kUnboundValue);
    }
    out.rows.push_back(std::move(projected_row));
  }

  if (query.distinct) {
    std::set<std::string> seen;
    std::vector<std::vector<EncodedTerm>> unique_rows;
    for (auto& row : out.rows) {
      std::string key;
      for (const EncodedTerm& v : row) {
        key += CanonicalKey(v);
        key += '\x1f';
      }
      if (seen.insert(std::move(key)).second) {
        unique_rows.push_back(std::move(row));
      }
    }
    out.rows = std::move(unique_rows);
  }

  const uint64_t offset = query.offset.value_or(0);
  if (offset > 0) {
    if (offset >= out.rows.size()) {
      out.rows.clear();
    } else {
      out.rows.erase(out.rows.begin(),
                     out.rows.begin() + static_cast<ptrdiff_t>(offset));
    }
  }
  if (query.limit && out.rows.size() > *query.limit) {
    out.rows.resize(*query.limit);
  }
  return out;
}

Result<QueryResult> Executor::Execute(const Query& query) {
  SEDGE_ASSIGN_OR_RETURN(BindingTable table, ExecuteEncoded(query));
  QueryResult result;
  result.var_names.reserve(table.vars.size());
  for (const Variable& v : table.vars) result.var_names.push_back(v.name);
  result.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<std::optional<rdf::Term>> decoded;
    decoded.reserve(row.size());
    for (const EncodedTerm& v : row) {
      if (IsUnbound(v)) {
        decoded.push_back(std::nullopt);
      } else {
        decoded.push_back(decoder_->Decode(v));
      }
    }
    result.rows.push_back(std::move(decoded));
  }
  return result;
}

Result<BindingTable> Executor::EvaluateGroup(const GroupPattern& group) {
  BindingTable table = BindingTable::Unit();
  if (!group.triples.empty()) {
    SEDGE_ASSIGN_OR_RETURN(table, EvaluateBgp(group.triples));
  }
  for (const UnionBlock& block : group.unions) {
    BindingTable combined;
    bool first = true;
    for (const GroupPattern& alt : block.alternatives) {
      SEDGE_ASSIGN_OR_RETURN(BindingTable alt_table, EvaluateGroup(alt));
      if (first) {
        combined = std::move(alt_table);
        first = false;
        continue;
      }
      // Align columns and concatenate.
      for (const Variable& v : alt_table.vars) combined.AddVar(v);
      for (const auto& row : alt_table.rows) {
        std::vector<EncodedTerm> aligned(combined.vars.size(), kUnboundValue);
        for (size_t i = 0; i < alt_table.vars.size(); ++i) {
          aligned[static_cast<size_t>(combined.IndexOf(alt_table.vars[i]))] =
              row[i];
        }
        combined.rows.push_back(std::move(aligned));
      }
    }
    table = JoinTables(std::move(table), std::move(combined));
  }
  for (const Bind& bind : group.binds) {
    SEDGE_RETURN_NOT_OK(ApplyBind(bind, &table));
  }
  for (const auto& filter : group.filters) {
    ApplyFilter(*filter, &table);
  }
  return table;
}

namespace {

std::string TermOrVarToString(const TermOrVar& tv) {
  if (IsVar(tv)) return "?" + AsVar(tv).name;
  return AsTerm(tv).ToNTriples();
}

std::string PatternToString(const TriplePattern& tp) {
  return TermOrVarToString(tp.subject) + " " +
         TermOrVarToString(tp.predicate) + " " +
         TermOrVarToString(tp.object);
}

}  // namespace

Result<BindingTable> Executor::EvaluateBgp(
    const std::vector<TriplePattern>& triples) {
  BindingTable table = BindingTable::Unit();
  std::vector<size_t> order;
  // A cached plan covers the top-level BGP only; consume the hint so a
  // nested group (union alternative) never inherits a foreign order.
  const std::vector<size_t>* hint = plan_hint_;
  plan_hint_ = nullptr;
  if (hint != nullptr && hint->size() == triples.size()) {
    order = *hint;
  } else if (profile_ != nullptr) {
    obs::ProfileNode* optimize = profile_->AddChild("optimize");
    obs::ProfileTimer plan_timer(optimize);
    order = PlanOrder(triples);
    plan_timer.Stop();
    optimize->AddStat("patterns", static_cast<int64_t>(triples.size()));
  } else {
    order = PlanOrder(triples);
  }
  for (const size_t idx : order) {
    const TriplePattern& tp = triples[idx];
    if (profile_ == nullptr) {
      SEDGE_RETURN_NOT_OK(ExtendWithTp(tp, &table));
    } else {
      obs::ProfileNode* node = profile_->AddChild("tp");
      node->detail = PatternToString(tp);
      // The planner's standalone estimate, next to rows_out below.
      node->AddStat("est_rows",
                    static_cast<int64_t>(
                        Estimator(store_, options_.reasoning).Estimate(tp)));
      tp_node_ = node;
      const ExecutorStats before = stats_;
      obs::ProfileTimer tp_timer(node);
      const Status st = ExtendWithTp(tp, &table);
      tp_timer.Stop();
      tp_node_ = nullptr;
      SEDGE_RETURN_NOT_OK(st);
      // Path attribution: which physical strategy served this extension.
      const uint64_t merge_join =
          stats_.merge_join_extends - before.merge_join_extends;
      const uint64_t row = stats_.row_extends - before.row_extends;
      node->name += IsTypePredicate(tp.predicate) ? "/type"
                    : merge_join > 0              ? "/merge_join"
                    : row > 0                     ? "/row"
                                                  : "/empty";
      node->AddStat("rows_out", static_cast<int64_t>(table.rows.size()));
      node->AddStat("merge_join_extends", static_cast<int64_t>(merge_join));
      node->AddStat(
          "merge_join_delta_extends",
          static_cast<int64_t>(stats_.merge_join_delta_extends -
                               before.merge_join_delta_extends));
      node->AddStat("row_extends", static_cast<int64_t>(row));
      node->AddStat(
          "provisional_routes",
          static_cast<int64_t>(stats_.provisional_routes -
                               before.provisional_routes));
    }
    if (table.rows.empty()) break;  // no solutions can appear later
  }
  return table;
}

Status Executor::ExtendWithTp(const TriplePattern& tp, BindingTable* table) {
  if (IsTypePredicate(tp.predicate)) return ExtendTypeTp(tp, table);
  return ExtendRegularTp(tp, table);
}

// --------------------------------------------------------- value plumbing

namespace {

// How one TP slot resolves for a given row.
struct Slot {
  bool is_const = false;
  const rdf::Term* const_term = nullptr;
  bool is_var = false;
  Variable var;
  int col = -1;  // column in the table, -1 if the variable is new
};

Slot MakeSlot(const TermOrVar& tv, const BindingTable& table) {
  Slot s;
  if (IsVar(tv)) {
    s.is_var = true;
    s.var = AsVar(tv);
    s.col = table.IndexOf(s.var);
  } else {
    s.is_const = true;
    s.const_term = &AsTerm(tv);
  }
  return s;
}

}  // namespace

// Conversions between value spaces: a bound variable carrying a concept id
// may be reused as an instance (same IRI, different space), etc.
namespace {

std::optional<uint64_t> ToInstanceId(const store::TripleStore& store,
                                     const ValueDecoder& decoder,
                                     const EncodedTerm& v) {
  if (v.space == ValueSpace::kInstance) return v.id;
  if (v.space == ValueSpace::kLiteral || v.space == ValueSpace::kUnbound) {
    return std::nullopt;
  }
  return store.dict().InstanceId(decoder.Decode(v));
}

std::optional<uint64_t> ToConceptId(const store::TripleStore& store,
                                    const ValueDecoder& decoder,
                                    const EncodedTerm& v) {
  if (v.space == ValueSpace::kConcept) return v.id;
  if (v.space == ValueSpace::kLiteral || v.space == ValueSpace::kUnbound) {
    return std::nullopt;
  }
  const rdf::Term t = decoder.Decode(v);
  if (!t.is_iri()) return std::nullopt;
  return store.ConceptIdOf(t.lexical());  // provisional concepts included
}

}  // namespace

Status Executor::ExtendTypeTp(const TriplePattern& tp, BindingTable* table) {
  const Slot s_slot = MakeSlot(tp.subject, *table);
  const Slot o_slot = MakeSlot(tp.object, *table);
  const store::delta::MergedTypeView type_view = store_->type_view();

  // Constant-object interval: the LiteMat rewriting (two shifts + add)
  // replaces the n+1 union sub-queries.
  std::optional<std::pair<uint64_t, uint64_t>> const_interval;
  if (s_slot.is_const &&
      (!s_slot.const_term->is_iri() && !s_slot.const_term->is_blank())) {
    table->rows.clear();  // literal subject never matches
  }
  if (o_slot.is_const) {
    if (!o_slot.const_term->is_iri()) {
      table->rows.clear();
    } else {
      // Provisional concepts resolve to their leaf interval [id, id+1):
      // queryable immediately, subsumption only after the re-encode.
      const_interval = store_->ConceptIntervalOf(
          o_slot.const_term->lexical(), options_.reasoning);
      if (const_interval &&
          store::schema::IsProvisionalId(const_interval->first)) {
        ++stats_.provisional_routes;
      }
    }
    if (!const_interval) table->rows.clear();
  }

  // New columns introduced by this pattern.
  BindingTable out;
  out.vars = table->vars;
  const bool new_s = s_slot.is_var && s_slot.col < 0;
  const bool new_o =
      o_slot.is_var && o_slot.col < 0 && !(new_s && o_slot.var == s_slot.var);
  int s_newcol = -1;
  int o_newcol = -1;
  if (new_s) s_newcol = out.AddVar(s_slot.var);
  if (new_o) o_newcol = out.AddVar(o_slot.var);
  const bool same_new_var = s_slot.is_var && o_slot.is_var &&
                            s_slot.var == o_slot.var && new_s;

  const std::optional<uint64_t> const_sid =
      s_slot.is_const ? store_->dict().InstanceId(*s_slot.const_term)
                      : std::nullopt;
  if (s_slot.is_const && !const_sid) table->rows.clear();

  for (const auto& row : table->rows) {
    // Resolve the subject for this row.
    std::optional<uint64_t> sid;
    if (s_slot.is_const) {
      sid = const_sid;
    } else if (s_slot.col >= 0 && !IsUnbound(row[s_slot.col])) {
      sid = ToInstanceId(*store_, *decoder_, row[s_slot.col]);
      if (!sid) continue;
    }
    // Resolve the object (concept) for this row.
    std::optional<std::pair<uint64_t, uint64_t>> interval = const_interval;
    if (o_slot.is_var && o_slot.col >= 0 && !IsUnbound(row[o_slot.col])) {
      const auto cid = ToConceptId(*store_, *decoder_, row[o_slot.col]);
      if (!cid) continue;
      interval = std::make_pair(*cid, *cid + 1);
    }

    const auto emit = [&](uint64_t subject, uint64_t concept_id) {
      std::vector<EncodedTerm> extended = row;
      extended.resize(out.vars.size(), kUnboundValue);
      if (s_newcol >= 0) {
        extended[s_newcol] = {ValueSpace::kInstance, subject};
      }
      if (o_newcol >= 0) {
        extended[o_newcol] = {ValueSpace::kConcept, concept_id};
      }
      out.rows.push_back(std::move(extended));
    };

    if (sid && interval) {
      // (s, type, o): membership within the interval.
      const auto first = type_view.FirstConceptIn(*sid, interval->first,
                                                  interval->second);
      if (first) emit(*sid, *first);
    } else if (sid) {
      // (s, type, ?o): stored concepts of the subject.
      if (same_new_var) continue;  // ?x type ?x can never match
      type_view.ForEachConceptOf(*sid,
                                 [&](uint64_t c) { emit(*sid, c); });
    } else if (interval) {
      // (?s, type, o): LiteMat interval range scan; deduplicate subjects
      // when the object is not a variable (a subject typed by two
      // sub-concepts is still one solution).
      if (o_slot.is_var && o_newcol >= 0) {
        type_view.ForEachSubjectTypedIn(
            interval->first, interval->second,
            [&](uint64_t subject, uint64_t concept_id) {
              emit(subject, concept_id);
            });
      } else {
        std::vector<uint64_t> subjects;
        type_view.ForEachSubjectTypedIn(
            interval->first, interval->second,
            [&subjects](uint64_t subject, uint64_t) {
              subjects.push_back(subject);
            });
        std::sort(subjects.begin(), subjects.end());
        subjects.erase(std::unique(subjects.begin(), subjects.end()),
                       subjects.end());
        for (const uint64_t subject : subjects) emit(subject, 0);
      }
    } else {
      // (?s, type, ?o): full enumeration.
      if (same_new_var) continue;
      type_view.ForEach([&](uint64_t subject, uint64_t concept_id) {
        emit(subject, concept_id);
      });
    }
  }
  *table = std::move(out);
  return Status::OK();
}

Status Executor::ExtendRegularTp(const TriplePattern& tp,
                                 BindingTable* table) {
  const Slot s_slot = MakeSlot(tp.subject, *table);
  const Slot p_slot = MakeSlot(tp.predicate, *table);
  const Slot o_slot = MakeSlot(tp.object, *table);
  const auto& dict = store_->dict();

  // Routes for a constant predicate are row-independent.
  struct Route {
    bool is_type = false;
    bool is_object = false;  // vs datatype
    uint64_t pred = 0;
  };
  std::vector<Route> const_routes;
  const bool object_is_literal_const =
      o_slot.is_const && o_slot.const_term->is_literal();
  if (p_slot.is_const) {
    const std::string& p = p_slot.const_term->lexical();
    // Object-property routes (skipped when the object is a literal).
    if (!object_is_literal_const) {
      if (const auto interval =
              store_->ObjectPropertyIntervalOf(p, options_.reasoning)) {
        if (store::schema::IsProvisionalId(interval->first)) {
          ++stats_.provisional_routes;
        }
        ForEachRoutePredicate(store_->object_view(), *interval,
                              options_.reasoning, [&](uint64_t pred) {
                                const_routes.push_back({false, true, pred});
                              });
      }
    }
    // Datatype routes (skipped when the object is a bound resource).
    const bool object_is_resource_const =
        o_slot.is_const && !o_slot.const_term->is_literal();
    if (!object_is_resource_const) {
      if (const auto interval =
              store_->DatatypePropertyIntervalOf(p, options_.reasoning)) {
        if (store::schema::IsProvisionalId(interval->first)) {
          ++stats_.provisional_routes;
        }
        ForEachRoutePredicate(store_->datatype_view(), *interval,
                              options_.reasoning, [&](uint64_t pred) {
                                const_routes.push_back({false, false, pred});
                              });
      }
    }
  }

  if (tp_node_ != nullptr) {
    // Route selection outcome: how many concrete predicate scans the
    // (possibly reasoning-expanded) pattern resolved to.
    tp_node_->AddStat("routes", static_cast<int64_t>(const_routes.size()));
  }

  // Merge-join fast path: subject-bound star extension over concrete
  // predicates (possibly several after reasoning expansion).
  if (p_slot.is_const && !const_routes.empty() && options_.merge_join) {
    std::vector<PredRoute> routes;
    routes.reserve(const_routes.size());
    for (const Route& r : const_routes) routes.push_back({r.is_object, r.pred});
    if (TryMergeJoinExtend(tp, routes, table)) {
      ++stats_.merge_join_extends;
      if (store_->has_delta()) ++stats_.merge_join_delta_extends;
      return Status::OK();
    }
  }

  BindingTable out;
  out.vars = table->vars;
  const bool new_s = s_slot.is_var && s_slot.col < 0;
  const bool new_p = p_slot.is_var && p_slot.col < 0;
  const bool new_o = o_slot.is_var && o_slot.col < 0 &&
                     !(new_s && o_slot.var == s_slot.var) &&
                     !(new_p && o_slot.var == p_slot.var);
  int s_newcol = -1;
  int p_newcol = -1;
  int o_newcol = -1;
  if (new_s) s_newcol = out.AddVar(s_slot.var);
  if (new_p && !(new_s && p_slot.var == s_slot.var)) {
    p_newcol = out.AddVar(p_slot.var);
  }
  if (new_o) o_newcol = out.AddVar(o_slot.var);

  const std::optional<uint64_t> const_sid =
      s_slot.is_const ? dict.InstanceId(*s_slot.const_term) : std::nullopt;
  const std::optional<uint64_t> const_oid =
      (o_slot.is_const && !object_is_literal_const)
          ? dict.InstanceId(*o_slot.const_term)
          : std::nullopt;

  // Routes for an unbound predicate variable — every stored predicate
  // plus rdf:type — are row-independent; enumerate them once, lazily
  // (the wavelet-tree predicate scans are too costly to repeat per row).
  std::optional<std::vector<Route>> unbound_routes;
  const auto unbound_predicate_routes = [&]() -> const std::vector<Route>& {
    if (!unbound_routes) {
      unbound_routes.emplace();
      store_->object_view().ForEachPredicateIn(
          0, ~0ULL,
          [&](uint64_t pred) { unbound_routes->push_back({false, true, pred}); });
      store_->datatype_view().ForEachPredicateIn(
          0, ~0ULL,
          [&](uint64_t pred) { unbound_routes->push_back({false, false, pred}); });
      if (store_->type_view().num_triples() > 0) {
        unbound_routes->push_back({true, false, 0});
      }
    }
    return *unbound_routes;
  };

  std::vector<Route> row_routes;  // scratch for a bound predicate variable
  for (const auto& row : table->rows) {
    // Subject resolution.
    std::optional<uint64_t> sid;
    if (s_slot.is_const) {
      if (!const_sid) continue;
      sid = const_sid;
    } else if (s_slot.col >= 0 && !IsUnbound(row[s_slot.col])) {
      sid = ToInstanceId(*store_, *decoder_, row[s_slot.col]);
      if (!sid) continue;
    }

    // Predicate routes for this row; the row-independent lists (constant
    // predicate, unbound variable) are referenced, not copied.
    const std::vector<Route>* routes = nullptr;
    if (p_slot.is_const) {
      routes = &const_routes;
    } else if (p_slot.col >= 0 && !IsUnbound(row[p_slot.col])) {
      row_routes.clear();
      const EncodedTerm pv = row[p_slot.col];
      if (pv.space == ValueSpace::kObjectProperty) {
        row_routes.push_back({false, true, pv.id});
      } else if (pv.space == ValueSpace::kDatatypeProperty) {
        row_routes.push_back({false, false, pv.id});
      } else if (pv.space == ValueSpace::kRdfType) {
        row_routes.push_back({true, false, 0});
      } else {
        const rdf::Term t = decoder_->Decode(pv);
        if (!t.is_iri()) continue;
        if (t.lexical() == rdf::kRdfType) {
          row_routes.push_back({true, false, 0});
        } else {
          if (const auto id = store_->ObjectPropertyIdOf(t.lexical())) {
            row_routes.push_back({false, true, *id});
          }
          if (const auto id = store_->DatatypePropertyIdOf(t.lexical())) {
            row_routes.push_back({false, false, *id});
          }
        }
      }
      routes = &row_routes;
    } else {
      routes = &unbound_predicate_routes();
    }

    // Object resolution (space depends on the route; resolve lazily).
    const EncodedTerm* bound_o = nullptr;
    if (o_slot.is_var && o_slot.col >= 0 && !IsUnbound(row[o_slot.col])) {
      bound_o = &row[o_slot.col];
    }

    const auto emit = [&](const EncodedTerm& p_val, uint64_t subject,
                          const EncodedTerm& o_val) {
      // Repeated-variable constraints within the pattern.
      if (s_slot.is_var && o_slot.is_var && s_slot.var == o_slot.var) {
        if (o_val.space != ValueSpace::kInstance || o_val.id != subject) {
          return;
        }
      }
      std::vector<EncodedTerm> extended = row;
      extended.resize(out.vars.size(), kUnboundValue);
      if (s_newcol >= 0) extended[s_newcol] = {ValueSpace::kInstance, subject};
      if (p_newcol >= 0) extended[p_newcol] = p_val;
      if (o_newcol >= 0) extended[o_newcol] = o_val;
      out.rows.push_back(std::move(extended));
    };

    for (const Route& route : *routes) {
      if (route.is_type) {
        // Var-predicate hit on rdf:type triples.
        const EncodedTerm p_val{ValueSpace::kRdfType, 0};
        std::optional<uint64_t> cid;
        if (o_slot.is_const) {
          if (!o_slot.const_term->is_iri()) continue;
          const auto id = store_->ConceptIdOf(o_slot.const_term->lexical());
          if (!id) continue;
          cid = *id;
        } else if (bound_o != nullptr) {
          cid = ToConceptId(*store_, *decoder_, *bound_o);
          if (!cid) continue;
        }
        const store::delta::MergedTypeView types = store_->type_view();
        if (sid && cid) {
          if (types.Contains(*sid, *cid)) {
            emit(p_val, *sid, {ValueSpace::kConcept, *cid});
          }
        } else if (sid) {
          types.ForEachConceptOf(*sid, [&](uint64_t c) {
            emit(p_val, *sid, {ValueSpace::kConcept, c});
          });
        } else if (cid) {
          types.ForEachSubjectOf(*cid, [&](uint64_t s) {
            emit(p_val, s, {ValueSpace::kConcept, *cid});
          });
        } else {
          types.ForEach([&](uint64_t s, uint64_t c) {
            emit(p_val, s, {ValueSpace::kConcept, c});
          });
        }
        continue;
      }

      if (route.is_object) {
        const store::delta::MergedObjectView pso = store_->object_view();
        const EncodedTerm p_val{ValueSpace::kObjectProperty, route.pred};
        std::optional<uint64_t> oid;
        if (o_slot.is_const) {
          if (object_is_literal_const) continue;
          if (!const_oid) continue;
          oid = const_oid;
        } else if (bound_o != nullptr) {
          oid = ToInstanceId(*store_, *decoder_, *bound_o);
          if (!oid) continue;
        }
        const auto sink = [&](uint64_t s, uint64_t o) {
          emit(p_val, s, {ValueSpace::kInstance, o});
          return true;
        };
        if (sid && oid) {
          if (pso.Contains(route.pred, *sid, *oid)) sink(*sid, *oid);
        } else if (sid) {
          pso.ScanSP(route.pred, *sid, sink);
        } else if (oid) {
          pso.ScanPO(route.pred, *oid, sink);
        } else {
          pso.ScanP(route.pred, sink);
        }
        continue;
      }

      // Datatype route.
      const store::delta::MergedDatatypeView dts = store_->datatype_view();
      const EncodedTerm p_val{ValueSpace::kDatatypeProperty, route.pred};
      std::optional<rdf::Term> literal;
      if (o_slot.is_const) {
        if (!o_slot.const_term->is_literal()) continue;
        literal = *o_slot.const_term;
      } else if (bound_o != nullptr) {
        if (bound_o->space == ValueSpace::kLiteral ||
            bound_o->space == ValueSpace::kComputed) {
          const rdf::Term t = decoder_->Decode(*bound_o);
          if (!t.is_literal()) continue;
          literal = t;
        } else {
          continue;  // resource-valued binding cannot match a literal
        }
      }
      const auto sink = [&](uint64_t s, uint64_t pos) {
        emit(p_val, s, {ValueSpace::kLiteral, pos});
        return true;
      };
      if (sid && literal) {
        dts.ScanSP(route.pred, *sid, [&](uint64_t s, uint64_t pos) {
          if (dts.LiteralAt(pos) == *literal) sink(s, pos);
          return true;
        });
      } else if (sid) {
        dts.ScanSP(route.pred, *sid, sink);
      } else if (literal) {
        dts.ScanPO(route.pred, *literal, sink);
      } else {
        dts.ScanP(route.pred, sink);
      }
    }
  }
  ++stats_.row_extends;
  *table = std::move(out);
  return Status::OK();
}

bool Executor::TryMergeJoinExtend(const TriplePattern& tp,
                                  const std::vector<PredRoute>& routes,
                                  BindingTable* table) {
  const Slot s_slot = MakeSlot(tp.subject, *table);
  const Slot o_slot = MakeSlot(tp.object, *table);
  // Preconditions: subject var already bound, object a fresh var or a
  // constant, no repeated variable.
  if (!s_slot.is_var || s_slot.col < 0) return false;
  if (o_slot.is_var && (o_slot.col >= 0 || o_slot.var == s_slot.var)) {
    return false;
  }
  // All subject bindings must be plain instances (space conversions take
  // the general path).
  for (const auto& row : table->rows) {
    if (row[s_slot.col].space != ValueSpace::kInstance) return false;
  }

  BindingTable out;
  out.vars = table->vars;
  int o_newcol = -1;
  if (o_slot.is_var) o_newcol = out.AddVar(o_slot.var);

  // Object constant, resolved per object kind.
  std::optional<uint64_t> const_oid;
  std::optional<rdf::Term> const_literal;
  if (o_slot.is_const) {
    if (o_slot.const_term->is_literal()) {
      const_literal = *o_slot.const_term;
    } else {
      const_oid = store_->dict().InstanceId(*o_slot.const_term);
      if (!const_oid) {  // unknown resource: object routes cannot match
        *table = std::move(out);
        return true;
      }
    }
  }

  // Both sides ordered by subject: sort the rows once, then sweep each
  // route's merged subject run left to right (Figure 7). The RunCursors
  // interleave the delta overlay's sorted adds and skip tombstoned base
  // triples, so the sweep stays a single pass whether or not writes are
  // live.
  std::vector<size_t> order(table->rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table->rows[a][s_slot.col].id < table->rows[b][s_slot.col].id;
  });

  // The distinct sorted subjects and each sorted row's window index,
  // computed once and shared by every route: each cursor precomputes all
  // its per-subject windows in one batched pass (SeekBatch), so the
  // per-row cost drops to an O(1) window switch instead of a virtual
  // Seek + wavelet descent per distinct subject per route.
  std::vector<uint64_t> subjects;
  std::vector<size_t> row_window(order.size());
  subjects.reserve(order.size());
  for (size_t r = 0; r < order.size(); ++r) {
    const uint64_t s = table->rows[order[r]][s_slot.col].id;
    if (subjects.empty() || subjects.back() != s) subjects.push_back(s);
    row_window[r] = subjects.size() - 1;
  }

  const auto emit = [&](size_t row_idx, const EncodedTerm* o_val) {
    std::vector<EncodedTerm> extended = table->rows[row_idx];
    extended.resize(out.vars.size(), kUnboundValue);
    if (o_newcol >= 0 && o_val != nullptr) extended[o_newcol] = *o_val;
    out.rows.push_back(std::move(extended));
  };

  const store::delta::MergedObjectView pso = store_->object_view();
  const store::delta::MergedDatatypeView dts = store_->datatype_view();
  for (const PredRoute& route : routes) {
    if (route.is_object) {
      if (const_literal) continue;  // literal never matches a resource
      auto cursor = pso.OpenRun(route.pred);
      if (!cursor.valid()) continue;
      cursor.SeekBatch(subjects.data(), subjects.size());
      size_t cur_window = ~size_t{0};
      for (size_t r = 0; r < order.size(); ++r) {
        const size_t idx = order[r];
        if (row_window[r] != cur_window) {
          cur_window = row_window[r];
          cursor.SelectWindow(cur_window);
        }
        if (!cursor.has_current()) continue;
        if (const_oid) {
          if (cursor.ContainsObject(*const_oid)) emit(idx, nullptr);
        } else {
          cursor.ForEachObject([&](uint64_t o) {
            const EncodedTerm value{ValueSpace::kInstance, o};
            emit(idx, &value);
            return true;
          });
        }
      }
      continue;
    }
    // Datatype route. Emitted positions may carry kDeltaLiteralBit; the
    // binding keeps them verbatim and the decode path routes both pools.
    if (const_oid) continue;  // resource never matches a literal
    auto cursor = dts.OpenRun(route.pred);
    if (!cursor.valid()) continue;
    cursor.SeekBatch(subjects.data(), subjects.size());
    size_t cur_window = ~size_t{0};
    for (size_t r = 0; r < order.size(); ++r) {
      const size_t idx = order[r];
      if (row_window[r] != cur_window) {
        cur_window = row_window[r];
        cursor.SelectWindow(cur_window);
      }
      if (!cursor.has_current()) continue;
      cursor.ForEachLiteral([&](uint64_t pos) {
        if (const_literal) {
          if (dts.LiteralAt(pos) == *const_literal) emit(idx, nullptr);
        } else {
          const EncodedTerm value{ValueSpace::kLiteral, pos};
          emit(idx, &value);
        }
        return true;
      });
    }
  }
  *table = std::move(out);
  return true;
}

Status Executor::ApplyBind(const Bind& bind, BindingTable* table) {
  const int col = table->AddVar(bind.var);
  for (auto& row : table->rows) {
    const auto lookup =
        [&](const Variable& v) -> std::optional<EncodedTerm> {
      const int c = table->IndexOf(v);
      if (c < 0 || IsUnbound(row[c])) return std::nullopt;
      return row[c];
    };
    const EvalValue value = evaluator_->Evaluate(*bind.expr, lookup);
    switch (value.kind) {
      case EvalValue::Kind::kError:
        row[col] = kUnboundValue;
        break;
      case EvalValue::Kind::kEncoded:
        row[col] = value.encoded;
        break;
      case EvalValue::Kind::kBool:
        row[col] = InternComputed(
            rdf::Term::Literal(value.boolean ? "true" : "false",
                               rdf::kXsdBoolean),
            value.boolean ? 1.0 : 0.0);
        break;
      case EvalValue::Kind::kNumber: {
        std::string lexical = std::to_string(value.number);
        row[col] = InternComputed(
            rdf::Term::Literal(std::move(lexical), rdf::kXsdDouble),
            value.number);
        break;
      }
      case EvalValue::Kind::kString:
        row[col] = InternComputed(rdf::Term::Literal(value.string),
                                  std::nullopt);
        break;
      case EvalValue::Kind::kTerm: {
        // Re-encode known instances so downstream joins stay id-based.
        if (const auto inst = store_->EncodeInstance(value.term)) {
          row[col] = *inst;
        } else {
          std::optional<double> numeric;
          if (value.term.IsNumericLiteral()) numeric = value.term.AsDouble();
          row[col] = InternComputed(value.term, numeric);
        }
        break;
      }
    }
  }
  return Status::OK();
}

void Executor::ApplyFilter(const Expr& filter, BindingTable* table) {
  std::vector<std::vector<EncodedTerm>> kept;
  kept.reserve(table->rows.size());
  for (auto& row : table->rows) {
    const auto lookup =
        [&](const Variable& v) -> std::optional<EncodedTerm> {
      const int c = table->IndexOf(v);
      if (c < 0 || IsUnbound(row[c])) return std::nullopt;
      return row[c];
    };
    if (evaluator_->EffectiveBool(filter, lookup)) {
      kept.push_back(std::move(row));
    }
  }
  table->rows = std::move(kept);
}

BindingTable Executor::JoinTables(BindingTable left,
                                  BindingTable right) const {
  // Shared variables.
  std::vector<std::pair<int, int>> shared;  // (left col, right col)
  for (size_t i = 0; i < left.vars.size(); ++i) {
    const int rc = right.IndexOf(left.vars[i]);
    if (rc >= 0) shared.push_back({static_cast<int>(i), rc});
  }
  BindingTable out;
  out.vars = left.vars;
  std::vector<int> right_extra;  // right columns not shared
  for (size_t i = 0; i < right.vars.size(); ++i) {
    bool is_shared = false;
    for (const auto& [lc, rc] : shared) {
      if (rc == static_cast<int>(i)) is_shared = true;
    }
    if (!is_shared) {
      right_extra.push_back(static_cast<int>(i));
      out.vars.push_back(right.vars[i]);
    }
  }

  // Hash the right side on the shared-variable key.
  const auto key_of = [&](const std::vector<EncodedTerm>& row,
                          bool is_left) {
    std::string key;
    for (const auto& [lc, rc] : shared) {
      key += CanonicalKey(row[is_left ? lc : rc]);
      key += '\x1f';
    }
    return key;
  };
  std::map<std::string, std::vector<size_t>> right_index;
  for (size_t i = 0; i < right.rows.size(); ++i) {
    right_index[key_of(right.rows[i], false)].push_back(i);
  }
  for (const auto& lrow : left.rows) {
    const auto it = right_index.find(key_of(lrow, true));
    if (it == right_index.end()) continue;
    for (const size_t ri : it->second) {
      std::vector<EncodedTerm> merged = lrow;
      for (const int rc : right_extra) {
        merged.push_back(right.rows[ri][rc]);
      }
      out.rows.push_back(std::move(merged));
    }
  }
  return out;
}

store::EncodedTerm Executor::InternComputed(rdf::Term term,
                                            std::optional<double> numeric) {
  computed_pool_.push_back(std::move(term));
  computed_numeric_.push_back(numeric);
  return {ValueSpace::kComputed, computed_pool_.size() - 1};
}

std::string Executor::CanonicalKey(const store::EncodedTerm& v) const {
  switch (v.space) {
    case ValueSpace::kLiteral:
    case ValueSpace::kComputed: {
      const rdf::Term t = decoder_->Decode(v);
      return "L:" + t.ToNTriples();
    }
    case ValueSpace::kUnbound:
      return "U";
    default:
      return std::to_string(static_cast<int>(v.space)) + ":" +
             std::to_string(v.id);
  }
}

}  // namespace sedge::sparql
