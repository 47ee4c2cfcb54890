#include "exec/punctuation_store.h"

#include <algorithm>

namespace punctsafe {

namespace {

// Projects the constants of a punctuation, in its constrained-attr
// order, into a Tuple usable as a hash key.
Tuple ConstantsOf(const Punctuation& p, const std::vector<size_t>& attrs) {
  std::vector<Value> values;
  values.reserve(attrs.size());
  for (size_t a : attrs) values.push_back(p.pattern(a).constant());
  return Tuple(std::move(values));
}

// Whether `p` constrains exactly the (sorted) attributes `attrs`.
bool ConstrainsExactly(const Punctuation& p, const std::vector<size_t>& attrs) {
  size_t constrained = 0;
  for (const Pattern& pattern : p.patterns()) {
    constrained += pattern.is_wildcard() ? 0 : 1;
  }
  return constrained == attrs.size() &&
         std::none_of(attrs.begin(), attrs.end(), [&](size_t a) {
           return a >= p.arity() || p.pattern(a).is_wildcard();
         });
}

}  // namespace

Punctuation PunctuationStore::Materialize(const Group& group,
                                          const Tuple& key) {
  std::vector<Pattern> patterns(group.arity);
  for (size_t i = 0; i < group.attrs.size(); ++i) {
    patterns[group.attrs[i]] = key.at(i);
  }
  return Punctuation(std::move(patterns));
}

bool PunctuationStore::Add(const Punctuation& punctuation, int64_t now) {
  Group* group = nullptr;
  for (auto& g : groups_) {
    if (g.arity == punctuation.arity() &&
        ConstrainsExactly(punctuation, g.attrs)) {
      group = &g;
      break;
    }
  }
  if (group == nullptr) {
    groups_.push_back(
        {punctuation.ConstrainedAttrs(), punctuation.arity(), {}});
    group = &groups_.back();
  }
  Tuple key = ConstantsOf(punctuation, group->attrs);
  auto [it, inserted] =
      group->by_values.try_emplace(std::move(key), Entry{now});
  if (!inserted) {
    it->second.arrival = now;  // refresh lifespan of a duplicate
    return false;
  }
  ++size_;
  return true;
}

bool PunctuationStore::CoversSubspace(const std::vector<size_t>& attrs,
                                      std::span<const Value> values,
                                      int64_t now) const {
  return CoversSubspaceImpl(
      attrs, [&](size_t i) { return &values[i]; }, now);
}

bool PunctuationStore::CoversSubspace(const std::vector<size_t>& attrs,
                                      std::span<const Value* const> values,
                                      int64_t now) const {
  return CoversSubspaceImpl(
      attrs, [&](size_t i) { return values[i]; }, now);
}

template <typename ValueAt>
bool PunctuationStore::CoversSubspaceImpl(const std::vector<size_t>& attrs,
                                          ValueAt value, int64_t now) const {
  for (const Group& group : groups_) {
    // Group applies iff its constrained attrs are a subset of `attrs`.
    key_scratch_.clear();
    bool subset = true;
    for (size_t a : group.attrs) {
      auto it = std::find(attrs.begin(), attrs.end(), a);
      if (it == attrs.end()) {
        subset = false;
        break;
      }
      key_scratch_.push_back(value(it - attrs.begin()));
    }
    if (!subset) continue;
    auto it = group.by_values.find(ProjectedKey{&key_scratch_});
    if (it != group.by_values.end() && !Expired(it->second, now)) {
      return true;
    }
  }
  return false;
}

bool PunctuationStore::ExcludesTuple(const Tuple& tuple, int64_t now) const {
  for (const Group& group : groups_) {
    key_scratch_.clear();
    bool ok = true;
    for (size_t a : group.attrs) {
      if (a >= tuple.size()) {
        ok = false;
        break;
      }
      key_scratch_.push_back(&tuple.at(a));
    }
    if (!ok) continue;
    auto it = group.by_values.find(ProjectedKey{&key_scratch_});
    if (it != group.by_values.end() && !Expired(it->second, now)) {
      return true;
    }
  }
  return false;
}

size_t PunctuationStore::ExpireBefore(int64_t now) {
  if (!lifespan_.has_value()) return 0;
  size_t dropped = 0;
  for (Group& group : groups_) {
    for (auto it = group.by_values.begin(); it != group.by_values.end();) {
      if (Expired(it->second, now)) {
        it = group.by_values.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  size_ -= dropped;
  return dropped;
}

size_t PunctuationStore::Retire(size_t attr, const Value& value) {
  size_t removed = 0;
  for (Group& group : groups_) {
    auto pos = std::find(group.attrs.begin(), group.attrs.end(), attr);
    if (pos == group.attrs.end() || group.by_values.empty()) continue;
    if (group.attrs.size() == 1) {
      key_scratch_.assign(1, &value);
      auto it = group.by_values.find(ProjectedKey{&key_scratch_});
      if (it != group.by_values.end()) {
        group.by_values.erase(it);
        ++removed;
      }
      continue;
    }
    const size_t i = static_cast<size_t>(pos - group.attrs.begin());
    removed += std::erase_if(group.by_values, [&](const auto& entry) {
      return entry.first.at(i) == value;
    });
  }
  size_ -= removed;
  return removed;
}

size_t PunctuationStore::CountConstraining(size_t attr) const {
  size_t count = 0;
  for (const Group& group : groups_) {
    if (std::find(group.attrs.begin(), group.attrs.end(), attr) !=
        group.attrs.end()) {
      count += group.by_values.size();
    }
  }
  return count;
}

void PunctuationStore::ForEachEntry(
    const std::function<void(Punctuation, int64_t)>& fn) const {
  for (const Group& group : groups_) {
    for (const auto& [key, entry] : group.by_values) {
      fn(Materialize(group, key), entry.arrival);
    }
  }
}

}  // namespace punctsafe
