#include "server/query_registry.h"

#include <algorithm>
#include <iterator>

#include "query/spec_parser.h"
#include "util/string_util.h"

namespace punctsafe {
namespace server {

namespace {

// Query ids travel on protocol lines; keep them one clean token.
Status ValidateQueryId(const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("query id must be non-empty");
  }
  for (char c : id) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      return Status::InvalidArgument(
          StrCat("query id '", id, "' must not contain whitespace"));
    }
  }
  return Status::OK();
}

// Punctuation patterns must instantiate the stream's schema: matching
// arity, constants of the attribute's type.
Status ValidatePunctuation(const std::string& stream, const Schema& schema,
                           const Punctuation& p) {
  if (p.arity() != schema.num_attributes()) {
    return Status::InvalidArgument(
        StrCat("punctuation arity ", p.arity(), " != stream '", stream,
               "' arity ", schema.num_attributes()));
  }
  for (size_t i = 0; i < p.arity(); ++i) {
    const Pattern& pattern = p.pattern(i);
    if (pattern.is_wildcard()) continue;
    ValueType expect = schema.attribute(i).type;
    if (pattern.constant().type() != expect) {
      return Status::InvalidArgument(
          StrCat("punctuation constant ", pattern.constant().ToString(),
                 " at attribute '", schema.attribute(i).name, "' is not ",
                 ValueTypeToString(expect)));
    }
  }
  return Status::OK();
}

}  // namespace

Status QueryRegistry::CreateStream(const std::string& name, Schema schema) {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.Register(name, std::move(schema));
}

Result<RegistrationInfo> QueryRegistry::RegisterQuery(
    const std::string& id, const std::string& spec_text,
    std::optional<ExecutorConfig> config) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_RETURN_IF_ERROR(ValidateQueryId(id));
  if (queries_.count(id) > 0) {
    return Status::AlreadyExists(
        StrCat("query '", id, "' is already registered"));
  }

  PUNCTSAFE_ASSIGN_OR_RETURN(ParsedSpec spec, ParseSpec(spec_text, catalog_));
  if (spec.catalog.size() != catalog_.size()) {
    return Status::InvalidArgument(
        "query specs must not declare streams — streams are shared state, "
        "create them first (CREATE STREAM)");
  }

  ExecutorConfig cfg = config.value_or(default_config_);
  cfg.keep_results = true;  // the registry owns result draining

  // Per-query admission: the server catalog plus the spec's schemes,
  // through the full QueryRegister pipeline (validation, safety check
  // with witness, plan safety, executor instantiation).
  QueryRegister reg(catalog_);
  for (const PunctuationScheme& scheme : spec.schemes.schemes()) {
    PUNCTSAFE_RETURN_IF_ERROR(reg.RegisterScheme(scheme));
  }
  PUNCTSAFE_ASSIGN_OR_RETURN(
      RegisteredQuery rq,
      reg.Register(spec.query_streams, spec.predicates, cfg));

  RegistrationInfo info;
  info.id = id;
  info.plan = rq.shape.ToString(rq.query);
  info.safety = rq.safety;

  std::string signature = StrCat(rq.query.ToString(), " | ",
                                 spec.schemes.ToString(), " | ", info.plan);
  auto shared = std::find_if(
      groups_.begin(), groups_.end(), [&](const auto& g) {
        return g->pristine && g->signature == signature && g->config == cfg;
      });
  PlanGroup* group;
  if (shared != groups_.end()) {
    // This registration's own executor is dropped unused.
    group = shared->get();
  } else {
    group = groups_.emplace_back(std::make_unique<PlanGroup>()).get();
    group->signature = std::move(signature);
    group->config = cfg;
    group->rq = std::move(rq);
  }
  Entry& entry = queries_[id];
  entry.group = group;
  group->members.push_back(&entry);
  return info;
}

Status QueryRegistry::UnregisterQuery(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query '", id, "' is not registered"));
  }
  PlanGroup* group = it->second.group;
  std::erase(group->members, &it->second);
  if (group->members.empty()) {
    std::erase_if(groups_, [group](const auto& g) { return g.get() == group; });
  }
  queries_.erase(it);
  return Status::OK();
}

bool QueryRegistry::HasQuery(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.count(id) > 0;
}

std::vector<std::string> QueryRegistry::QueryIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(queries_.size());
  for (const auto& [id, entry] : queries_) out.push_back(id);
  return out;
}

Result<int64_t> QueryRegistry::ResolveTimestamp(const std::string& stream,
                                                std::optional<int64_t> ts) {
  auto [last, inserted] = last_ts_.try_emplace(stream, 0);
  if (ts.has_value()) {
    if (!inserted && *ts < last->second) {
      return Status::InvalidArgument(
          StrCat("timestamp ", *ts, " on stream '", stream,
                 "' is earlier than its last element's ", last->second));
    }
    clock_ = std::max(clock_, *ts);
  } else {
    ++clock_;
  }
  last->second = ts.value_or(clock_);
  return last->second;
}

template <typename PushFn>
void QueryRegistry::FanOut(const std::string& stream,
                           uint64_t Entry::*counter, PushFn push) {
  for (const auto& group : groups_) {
    auto idx = group->rq.query.StreamIndex(stream);
    if (!idx.has_value()) continue;
    push(group->rq, *idx);
    group->pristine = false;
    for (Entry* member : group->members) ++(member->*counter);
  }
}

Status QueryRegistry::PushTuple(const std::string& stream, const Tuple& tuple,
                                std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  PUNCTSAFE_RETURN_IF_ERROR(tuple.MatchesSchema(*schema));
  PUNCTSAFE_ASSIGN_OR_RETURN(int64_t now, ResolveTimestamp(stream, ts));
  FanOut(stream, &Entry::tuples_in, [&](RegisteredQuery& rq, size_t input) {
    if (rq.is_parallel()) {
      rq.parallel_executor->PushTuple(input, tuple, now);
    } else {
      rq.executor->PushTuple(input, tuple, now);
    }
  });
  return Status::OK();
}

Status QueryRegistry::PushPunctuation(const std::string& stream,
                                      const Punctuation& p,
                                      std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  PUNCTSAFE_RETURN_IF_ERROR(ValidatePunctuation(stream, *schema, p));
  PUNCTSAFE_ASSIGN_OR_RETURN(int64_t now, ResolveTimestamp(stream, ts));
  FanOut(stream, &Entry::punctuations_in,
         [&](RegisteredQuery& rq, size_t input) {
           if (rq.is_parallel()) {
             rq.parallel_executor->PushPunctuation(input, p, now);
           } else {
             rq.executor->PushPunctuation(input, p, now);
           }
         });
  return Status::OK();
}

Status QueryRegistry::DrainAll(std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = ts.value_or(clock_);
  clock_ = std::max(clock_, now);
  for (const auto& group : groups_) {
    RegisteredQuery& rq = group->rq;
    if (rq.is_parallel()) {
      PUNCTSAFE_RETURN_IF_ERROR(rq.parallel_executor->Drain(now));
    } else {
      rq.executor->FlushIngest();
      rq.executor->SweepAll(now);
    }
  }
  return Status::OK();
}

Result<std::vector<Tuple>> QueryRegistry::TakeResults(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query '", id, "' is not registered"));
  }
  Entry& entry = it->second;
  RegisteredQuery& rq = entry.group->rq;
  std::vector<Tuple> fresh = rq.is_parallel()
                                 ? rq.parallel_executor->TakeResults()
                                 : rq.executor->TakeResults();
  if (!fresh.empty()) {
    // Copies for the other members, the originals for the caller: a
    // singleton group copies nothing.
    for (Entry* member : entry.group->members) {
      if (member == &entry) continue;
      member->pending.insert(member->pending.end(), fresh.begin(),
                             fresh.end());
    }
    if (entry.pending.empty()) {
      entry.pending = std::move(fresh);
    } else {
      entry.pending.insert(entry.pending.end(),
                           std::make_move_iterator(fresh.begin()),
                           std::make_move_iterator(fresh.end()));
    }
  }
  return std::exchange(entry.pending, {});
}

std::vector<std::pair<std::string, std::string>> QueryRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("clock", StrCat(clock_));
  out.emplace_back("streams", StrCat(catalog_.size()));
  if (catalog_.size() > 0) out.emplace_back("catalog", catalog_.ToString());
  out.emplace_back("queries", StrCat(queries_.size()));
  out.emplace_back("plans", StrCat(groups_.size()));
  for (const auto& [id, entry] : queries_) {
    const RegisteredQuery& rq = entry.group->rq;
    // Every member joined its group before the first element, so each
    // is handed every result the group executor emits.
    uint64_t results = rq.is_parallel() ? rq.parallel_executor->num_results()
                                        : rq.executor->num_results();
    size_t live = rq.is_parallel() ? rq.parallel_executor->TotalLiveTuples()
                                   : rq.executor->TotalLiveTuples();
    out.emplace_back(
        StrCat("query.", id),
        StrCat("mode=", rq.is_parallel() ? "parallel" : "serial",
               " plan_members=", entry.group->members.size(),
               " tuples_in=", entry.tuples_in,
               " punctuations_in=", entry.punctuations_in,
               " results=", results, " live_tuples=", live));
  }
  return out;
}

Result<const Schema*> QueryRegistry::SchemaFor(
    const std::string& stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.Get(stream);
}

int64_t QueryRegistry::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

}  // namespace server
}  // namespace punctsafe
