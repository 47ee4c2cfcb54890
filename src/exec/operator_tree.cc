#include "exec/operator_tree.h"

namespace punctsafe {

namespace {

// Bottom-up construction result for one plan-shape node.
struct BuiltNode {
  LocalInput info;  // streams + schemes visible on this edge
  size_t op = OperatorTree::ParentEdge::kNoParent;  // npos for leaves
};

BuiltNode BuildNode(const ContinuousJoinQuery& query,
                    const SchemeSet& schemes, const PlanShape& shape,
                    const MJoinConfig& config, OperatorTree* tree,
                    Status* status) {
  if (!status->ok()) return {};
  if (shape.IsLeaf()) {
    BuiltNode node;
    node.info = LocalInput::Leaf(query, schemes, shape.stream());
    return node;
  }

  std::vector<BuiltNode> children;
  children.reserve(shape.children().size());
  for (const PlanShape& child : shape.children()) {
    children.push_back(
        BuildNode(query, schemes, child, config, tree, status));
    if (!status->ok()) return {};
  }

  std::vector<LocalInput> inputs;
  inputs.reserve(children.size());
  for (const BuiltNode& c : children) inputs.push_back(c.info);

  auto op_or = MJoinOperator::Create(query, inputs, config);
  if (!op_or.ok()) {
    *status = op_or.status();
    return {};
  }
  tree->operators.push_back(std::move(op_or).ValueOrDie());
  tree->node_inputs.push_back(inputs);
  tree->parents.emplace_back();
  size_t op_index = tree->operators.size() - 1;
  MJoinOperator* op = tree->operators[op_index].get();

  // Record edges: child operators and raw-stream leaves.
  for (size_t k = 0; k < children.size(); ++k) {
    if (children[k].op != OperatorTree::ParentEdge::kNoParent) {
      tree->parents[children[k].op] = {op_index, k};
    } else {
      tree->leaf_route[children[k].info.streams[0]] = {op_index, k};
    }
  }

  BuiltNode node;
  node.op = op_index;
  node.info = op->output();
  return node;
}

}  // namespace

Result<OperatorTree> BuildOperatorTree(const ContinuousJoinQuery& query,
                                       const SchemeSet& schemes,
                                       const PlanShape& shape,
                                       const MJoinConfig& config) {
  OperatorTree tree;
  tree.leaf_route.assign(query.num_streams(),
                         {OperatorTree::ParentEdge::kNoParent, 0});
  Status status = Status::OK();
  BuildNode(query, schemes, shape, config, &tree, &status);
  PUNCTSAFE_RETURN_IF_ERROR(status);
  return tree;
}

}  // namespace punctsafe
