// EXPLAIN support: renders a parsed query's logical plan — input video,
// detector pool, selection strategy, predicate tree — as indented text, for
// debugging queries and documenting what the executor will do.

#ifndef VQE_QUERY_EXPLAIN_H_
#define VQE_QUERY_EXPLAIN_H_

#include <string>

#include "query/ast.h"

namespace vqe {

/// Renders the predicate tree (parenthesized infix form). A null predicate
/// renders as "true". The rendering is exact — every number round-trips
/// and a non-default aggregate confidence floor is shown — so two trees
/// render alike only when they filter alike.
std::string PredicateToString(const Predicate* pred);

/// Renders the full logical plan of a query.
///
/// Example:
///   Select frameID
///     Filter: (COUNT(car) >= 2 AND NOT EXISTS(bus))
///       Process video=nusc strategy=MES detectors=[...] ref=yes
std::string ExplainQuery(const Query& query);

}  // namespace vqe

#endif  // VQE_QUERY_EXPLAIN_H_
