#include "plan/enumerator.h"

#include <algorithm>
#include <functional>

#include "core/local_graph.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

// Enumerates unordered partitions of `mask` into >= 2 non-empty
// blocks. The block containing the lowest set bit is enumerated
// explicitly; the rest recursively, which canonicalizes the order.
void PartitionsInto(uint32_t mask, std::vector<uint32_t>* blocks,
                    const std::function<void(const std::vector<uint32_t>&)>&
                        emit) {
  if (mask == 0) {
    if (blocks->size() >= 2) emit(*blocks);
    return;
  }
  uint32_t low = mask & (~mask + 1);  // lowest set bit
  uint32_t rest = mask ^ low;
  // The block containing `low` is {low} ∪ sub for each sub ⊆ rest.
  for (uint32_t sub = rest;; sub = (sub - 1) & rest) {
    blocks->push_back(low | sub);
    PartitionsInto(mask ^ (low | sub), blocks, emit);
    blocks->pop_back();
    if (sub == 0) break;
  }
}

}  // namespace

Result<std::vector<PlanShape>> SafePlanEnumerator::EnumerateSafePlans(
    size_t limit) {
  const size_t n = query_.num_streams();
  if (n > 16) {
    return Status::InvalidArgument(
        "safe-plan enumeration supports up to 16 streams");
  }
  limit_reached_ = false;
  memo_.assign(size_t{1} << n, {});
  memo_valid_.assign(size_t{1} << n, false);

  uint32_t full = static_cast<uint32_t>((size_t{1} << n) - 1);
  const std::vector<Entry>& entries = SafePlansFor(full, limit);
  std::vector<PlanShape> plans;
  plans.reserve(entries.size());
  for (const Entry& e : entries) plans.push_back(e.shape);
  return plans;
}

const std::vector<SafePlanEnumerator::Entry>&
SafePlanEnumerator::SafePlansFor(uint32_t mask, size_t limit) {
  if (memo_valid_[mask]) return memo_[mask];
  memo_valid_[mask] = true;
  std::vector<Entry>& out = memo_[mask];

  // Singleton: the raw stream.
  if ((mask & (mask - 1)) == 0) {
    size_t stream = static_cast<size_t>(__builtin_ctz(mask));
    Entry leaf;
    leaf.shape = PlanShape::Leaf(stream);
    leaf.schemes = LocalInput::Leaf(query_, schemes_, stream).schemes;
    out.push_back(std::move(leaf));
    return out;
  }

  std::vector<uint32_t> blocks;
  PartitionsInto(
      mask, &blocks, [&](const std::vector<uint32_t>& partition) {
        if (out.size() >= limit) {
          limit_reached_ = true;
          return;
        }
        // Gather the safe sub-plan lists per block.
        std::vector<const std::vector<Entry>*> block_entries;
        block_entries.reserve(partition.size());
        for (uint32_t block : partition) {
          const std::vector<Entry>& entries = SafePlansFor(block, limit);
          if (entries.empty()) return;  // block has no safe plan
          block_entries.push_back(&entries);
        }
        // Cartesian product over block choices.
        std::vector<size_t> cursor(partition.size(), 0);
        for (;;) {
          if (out.size() >= limit) {
            limit_reached_ = true;
            return;
          }
          std::vector<LocalInput> inputs;
          std::vector<PlanShape> children;
          inputs.reserve(partition.size());
          children.reserve(partition.size());
          for (size_t b = 0; b < partition.size(); ++b) {
            const Entry& e = (*block_entries[b])[cursor[b]];
            LocalInput input;
            input.streams = e.shape.Leaves();
            input.schemes = e.schemes;
            inputs.push_back(std::move(input));
            children.push_back(e.shape);
          }
          OperatorCheck check = CheckOperator(query_, inputs);
          if (check.purgeable()) {
            out.push_back({PlanShape::Join(std::move(children)),
                           std::move(check.output.schemes)});
          }
          // Advance cursor.
          size_t b = 0;
          while (b < cursor.size()) {
            if (++cursor[b] < block_entries[b]->size()) break;
            cursor[b] = 0;
            ++b;
          }
          if (b == cursor.size()) break;
        }
      });
  return out;
}

}  // namespace punctsafe
