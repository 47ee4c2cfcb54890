// Operator-level safety of a concrete execution plan shape
// (Definitions 1-3). The paper's headline theorems decide whether
// *some* safe plan exists without enumerating shapes; this module is
// the complementary operational check for one given shape, used by
//  - the exponential baseline checker (naive_checker.h) that the
//    paper's algorithm avoids,
//  - the safe-plan enumerator (plan/enumerator.h),
//  - the runtime, to refuse executing unsafe shapes.
//
// Semantics: a plan is safe iff every operator is purgeable
// (Definition 2). Each operator is judged by CheckOperator
// (core/local_graph.h) on the generalized punctuation graph over its
// *direct inputs*, where an input's available punctuation schemes are
//  - for a leaf: the raw schemes of that stream (LocalInput::Leaf), and
//  - for a join output: the schemes of any input whose join state in
//    that operator is purgeable (CheckOperator's `output`). This
//    propagation rule is the operational reading of the paper's Lemma
//    1/2 induction and is validated against Theorems 2/4 by the
//    property-test suite; the operator tree, the cost model, the
//    enumerator and the runtime MJoin apply the same function.

#ifndef PUNCTSAFE_CORE_PLAN_SAFETY_H_
#define PUNCTSAFE_CORE_PLAN_SAFETY_H_

#include <string>
#include <vector>

#include "core/local_graph.h"
#include "query/cjq.h"
#include "query/plan_shape.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

/// \brief Verdict for one operator of the plan.
struct OperatorVerdict {
  /// Query streams under each child, in child order.
  std::vector<std::vector<size_t>> child_streams;
  /// Per-child purgeability of the join state inside this operator.
  std::vector<bool> child_purgeable;
  bool purgeable = false;
};

struct PlanSafetyReport {
  bool safe = false;
  std::vector<OperatorVerdict> operators;  ///< post-order
  /// Schemes propagated to the plan root's output.
  std::vector<AvailableScheme> root_schemes;

  std::string ToString(const ContinuousJoinQuery& query) const;
};

/// \brief Checks the safety of one execution plan shape.
///
/// InvalidArgument if the shape's leaves are not exactly the query's
/// streams (each exactly once).
Result<PlanSafetyReport> CheckPlanSafety(const ContinuousJoinQuery& query,
                                         const SchemeSet& schemes,
                                         const PlanShape& shape);

}  // namespace punctsafe

#endif  // PUNCTSAFE_CORE_PLAN_SAFETY_H_
