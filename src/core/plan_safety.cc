#include "core/plan_safety.h"

#include <algorithm>

#include "util/string_util.h"

namespace punctsafe {

namespace {

LocalInput CheckNode(const ContinuousJoinQuery& query,
                     const SchemeSet& schemes, const PlanShape& shape,
                     PlanSafetyReport* report) {
  if (shape.IsLeaf()) return LocalInput::Leaf(query, schemes, shape.stream());

  std::vector<LocalInput> children;
  children.reserve(shape.children().size());
  for (const PlanShape& child : shape.children()) {
    children.push_back(CheckNode(query, schemes, child, report));
  }

  OperatorCheck check = CheckOperator(query, children);
  OperatorVerdict verdict;
  for (LocalInput& child : children) {
    verdict.child_streams.push_back(std::move(child.streams));
  }
  verdict.purgeable = check.purgeable();
  verdict.child_purgeable = std::move(check.input_purgeable);
  report->operators.push_back(std::move(verdict));
  return std::move(check.output);
}

}  // namespace

std::string PlanSafetyReport::ToString(
    const ContinuousJoinQuery& query) const {
  std::ostringstream out;
  out << (safe ? "SAFE" : "UNSAFE");
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorVerdict& v = operators[i];
    out << "\n  op#" << i << (v.purgeable ? " purgeable" : " NOT purgeable");
    for (size_t c = 0; c < v.child_streams.size(); ++c) {
      out << " [" << JoinMapped(v.child_streams[c], ",", [&](size_t s) {
        return query.stream(s);
      }) << (v.child_purgeable[c] ? "" : " !") << "]";
    }
  }
  return out.str();
}

Result<PlanSafetyReport> CheckPlanSafety(const ContinuousJoinQuery& query,
                                         const SchemeSet& schemes,
                                         const PlanShape& shape) {
  std::vector<size_t> leaves = shape.Leaves();
  std::vector<size_t> expected(query.num_streams());
  for (size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  if (leaves != expected) {
    return Status::InvalidArgument(
        "plan shape leaves do not cover the query streams exactly once");
  }

  PlanSafetyReport report;
  LocalInput root = CheckNode(query, schemes, shape, &report);
  report.root_schemes = std::move(root.schemes);
  report.safe = std::all_of(
      report.operators.begin(), report.operators.end(),
      [](const OperatorVerdict& v) { return v.purgeable; });
  return report;
}

}  // namespace punctsafe
