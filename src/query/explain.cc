#include "query/explain.h"

#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace vqe {

namespace {

const char* AggregateName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kExists:
      return "EXISTS";
    case AggregateKind::kMaxConf:
      return "MAX_CONF";
    case AggregateKind::kAvgConf:
      return "AVG_CONF";
    case AggregateKind::kTracks:
      return "TRACKS";
  }
  return "?";
}

const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string NumberToString(double v) {
  // Integers without the trailing ".000000". Only below 2^53 in
  // magnitude, where every integer is exact and the cast is defined.
  if (std::fabs(v) < 9007199254740992.0 && v == std::trunc(v)) {
    return std::to_string(static_cast<long long>(v));
  }
  // %g keeps six significant digits; where that loses the value, 17
  // digits render it exactly (query identities compare these strings).
  const std::string short_form = StrFormat("%g", v);
  if (std::strtod(short_form.c_str(), nullptr) == v) return short_form;
  return StrFormat("%.17g", v);
}

}  // namespace

std::string PredicateToString(const Predicate* pred) {
  if (pred == nullptr) return "true";
  switch (pred->type) {
    case Predicate::Type::kComparison: {
      std::string agg = std::string(AggregateName(pred->aggregate.kind)) +
                        "(" + pred->aggregate.class_name;
      // The confidence floor has no query syntax; show it only when a
      // programmatically built query changed it.
      if (pred->aggregate.min_confidence != AggregateExpr{}.min_confidence) {
        agg += ", min_confidence " +
               NumberToString(pred->aggregate.min_confidence);
      }
      agg += ")";
      if (pred->aggregate.kind == AggregateKind::kExists) return agg;
      return agg + " " + OpName(pred->op) + " " + NumberToString(pred->value);
    }
    case Predicate::Type::kNot:
      return "NOT " + PredicateToString(pred->lhs.get());
    case Predicate::Type::kAnd:
      return "(" + PredicateToString(pred->lhs.get()) + " AND " +
             PredicateToString(pred->rhs.get()) + ")";
    case Predicate::Type::kOr:
      return "(" + PredicateToString(pred->lhs.get()) + " OR " +
             PredicateToString(pred->rhs.get()) + ")";
  }
  return "?";
}

std::string ExplainQuery(const Query& query) {
  std::string out;
  out += "Select " + query.select_column + "\n";
  std::string indent = "  ";
  if (query.limit > 0) {
    out += indent + "Limit: " + std::to_string(query.limit) + "\n";
    indent += "  ";
  }
  if (query.where != nullptr) {
    out += indent + "Filter: " + PredicateToString(query.where.get()) + "\n";
    indent += "  ";
  }
  out += indent + "Process video=" + query.video_name;
  if (query.process.scale > 0.0) {
    out += " scale=" + NumberToString(query.process.scale);
  }
  if (query.process.seed > 0) {
    out += " seed=" + std::to_string(query.process.seed);
  }
  if (query.process.stride > 1) {
    out += " stride=" + std::to_string(query.process.stride);
  }
  out += " strategy=" + query.using_clause.strategy;
  if (query.using_clause.detector_names.empty()) {
    out += " detectors=[default pool]";
  } else {
    out += " detectors=[" + Join(query.using_clause.detector_names, ", ") +
           "]";
  }
  out += std::string(" ref=") +
         (query.using_clause.has_reference ? "yes" : "no");
  if (query.budget_ms > 0) {
    out += " budget=" + NumberToString(query.budget_ms) + "ms";
  }
  if (query.window > 0) {
    out += " window=" + std::to_string(query.window);
  }
  out += "\n";
  return out;
}

}  // namespace vqe
