#include "workload/random_query.h"

#include <algorithm>
#include <optional>

#include "util/rng.h"
#include "util/string_util.h"

namespace punctsafe {

Result<RandomQueryInstance> MakeRandomQuery(const RandomQueryConfig& config) {
  if (config.num_streams < 2 || config.attrs_per_stream < 1) {
    return Status::InvalidArgument("need >= 2 streams and >= 1 attribute");
  }
  Rng rng(config.seed);
  RandomQueryInstance inst;

  for (size_t s = 0; s < config.num_streams; ++s) {
    std::vector<std::string> names;
    for (size_t a = 0; a < config.attrs_per_stream; ++a) {
      names.push_back(StrCat("A", a));
    }
    std::string stream = StrCat("S", s);
    PUNCTSAFE_RETURN_IF_ERROR(
        inst.catalog.Register(stream, Schema::OfInts(names)));
    inst.streams.push_back(std::move(stream));
  }

  auto rand_attr = [&]() {
    return StrCat("A", rng.NextBelow(config.attrs_per_stream));
  };

  // Connecting spanning tree.
  for (size_t s = 1; s < config.num_streams; ++s) {
    size_t parent = static_cast<size_t>(rng.NextBelow(s));
    inst.predicate_specs.push_back(Eq({inst.streams[parent], rand_attr()},
                                      {inst.streams[s], rand_attr()}));
  }
  // Extra edges.
  for (size_t e = 0; e < config.extra_predicates; ++e) {
    size_t a = static_cast<size_t>(rng.NextBelow(config.num_streams));
    size_t b = static_cast<size_t>(rng.NextBelow(config.num_streams));
    if (a == b) continue;
    inst.predicate_specs.push_back(
        Eq({inst.streams[a], rand_attr()}, {inst.streams[b], rand_attr()}));
  }

  // Schemes: biased toward join attributes so safe instances occur at
  // a useful rate.
  PUNCTSAFE_ASSIGN_OR_RETURN(
      ContinuousJoinQuery query,
      ContinuousJoinQuery::Create(inst.catalog, inst.streams,
                                  inst.predicate_specs));
  for (size_t s = 0; s < config.num_streams; ++s) {
    if (rng.NextBool(config.schemeless_prob)) continue;
    size_t num_schemes = 1 + (rng.NextBool(config.second_scheme_prob) ? 1 : 0);
    std::vector<size_t> join_attrs = query.JoinAttrsOf(s);
    for (size_t k = 0; k < num_schemes; ++k) {
      auto pick_attr = [&]() -> size_t {
        if (!join_attrs.empty() && rng.NextBool(0.85)) {
          return join_attrs[rng.NextBelow(join_attrs.size())];
        }
        return static_cast<size_t>(rng.NextBelow(config.attrs_per_stream));
      };
      std::vector<bool> flags(config.attrs_per_stream, false);
      flags[pick_attr()] = true;
      if (rng.NextBool(config.multi_attr_prob) &&
          config.attrs_per_stream >= 2) {
        size_t second = pick_attr();
        flags[second] = true;  // may coincide; then it stays simple
      }
      PunctuationScheme scheme(inst.streams[s], flags);
      // Ignore duplicates quietly.
      (void)inst.schemes.Add(std::move(scheme));
    }
  }
  inst.query = std::move(query);
  return inst;
}

Trace MakeCoveringTrace(const ContinuousJoinQuery& query,
                        const SchemeSet& schemes,
                        const CoveringTraceConfig& config) {
  Rng rng(config.seed);
  Trace trace;
  int64_t now = 0;
  const int64_t v_per_gen = static_cast<int64_t>(config.values_per_generation);

  // Skewed mode: draw pool ranks from Zipf(zipf_s) instead of
  // uniformly. Rank 0 is the hot value of every generation; since the
  // pool is generation-scoped (required for punctuations to close it),
  // the hot value — and hence the shard its key hashes to — moves with
  // every generation. Routing skew is therefore strong within a window
  // and drifting across windows, so static hash sharding spreads it
  // over time.
  std::optional<ZipfSampler> zipf;
  if (config.zipf_s > 0.0) {
    zipf.emplace(config.values_per_generation, config.zipf_s);
  }

  for (size_t gen = 0; gen < config.num_generations; ++gen) {
    int64_t base = static_cast<int64_t>(gen) * v_per_gen;
    auto gen_value = [&]() {
      if (zipf.has_value()) {
        return Value(base + static_cast<int64_t>(zipf->Sample(&rng)));
      }
      return Value(base + rng.NextInRange(0, v_per_gen - 1));
    };

    for (size_t t = 0; t < config.tuples_per_generation; ++t) {
      size_t s = static_cast<size_t>(rng.NextBelow(query.num_streams()));
      std::vector<Value> values;
      values.reserve(query.schema(s).num_attributes());
      for (size_t a = 0; a < query.schema(s).num_attributes(); ++a) {
        values.push_back(gen_value());
      }
      trace.push_back({query.stream(s),
                       StreamElement::OfTuple(Tuple(std::move(values)),
                                              ++now)});
    }

    if (!config.emit_punctuations) continue;
    // Close the generation: every scheme instantiated over the whole
    // value pool of this generation.
    for (const PunctuationScheme& scheme : schemes.schemes()) {
      auto idx = query.StreamIndex(scheme.stream());
      if (!idx.has_value()) continue;
      if (scheme.arity() != query.schema(*idx).num_attributes()) continue;
      std::vector<size_t> attrs = scheme.PunctuatableAttrs();
      std::vector<int64_t> cursor(attrs.size(), 0);
      for (;;) {
        std::vector<Value> constants;
        constants.reserve(attrs.size());
        for (int64_t c : cursor) constants.push_back(Value(base + c));
        auto punct = scheme.Instantiate(constants);
        trace.push_back({scheme.stream(),
                         StreamElement::OfPunctuation(
                             std::move(punct).ValueOrDie(), ++now)});
        size_t i = 0;
        while (i < cursor.size()) {
          if (++cursor[i] < v_per_gen) break;
          cursor[i] = 0;
          ++i;
        }
        if (i == cursor.size()) break;
      }
    }
  }
  return trace;
}

}  // namespace punctsafe
