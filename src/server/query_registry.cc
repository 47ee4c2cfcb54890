#include "server/query_registry.h"

#include <algorithm>

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

  queries_.emplace(id, Entry{std::move(rq)});
  return info;
}

Status QueryRegistry::UnregisterQuery(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query '", id, "' is not registered"));
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

Status QueryRegistry::PushTuple(const std::string& stream, const Tuple& tuple,
                                std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  PUNCTSAFE_RETURN_IF_ERROR(tuple.MatchesSchema(*schema));
  PUNCTSAFE_ASSIGN_OR_RETURN(int64_t now, ResolveTimestamp(stream, ts));
  for (auto& [id, entry] : queries_) {
    auto idx = entry.rq.query.StreamIndex(stream);
    if (!idx.has_value()) continue;
    if (entry.rq.is_parallel()) {
      entry.rq.parallel_executor->PushTuple(*idx, tuple, now);
    } else {
      entry.rq.executor->PushTuple(*idx, tuple, now);
    }
    ++entry.tuples_in;
  }
  return Status::OK();
}

Status QueryRegistry::PushPunctuation(const std::string& stream,
                                      const Punctuation& p,
                                      std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  PUNCTSAFE_RETURN_IF_ERROR(ValidatePunctuation(stream, *schema, p));
  PUNCTSAFE_ASSIGN_OR_RETURN(int64_t now, ResolveTimestamp(stream, ts));
  for (auto& [id, entry] : queries_) {
    auto idx = entry.rq.query.StreamIndex(stream);
    if (!idx.has_value()) continue;
    if (entry.rq.is_parallel()) {
      entry.rq.parallel_executor->PushPunctuation(*idx, p, now);
    } else {
      entry.rq.executor->PushPunctuation(*idx, p, now);
    }
    ++entry.punctuations_in;
  }
  return Status::OK();
}

Status QueryRegistry::DrainAll(std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = ts.value_or(clock_);
  clock_ = std::max(clock_, now);
  for (auto& [id, entry] : queries_) {
    if (entry.rq.is_parallel()) {
      PUNCTSAFE_RETURN_IF_ERROR(entry.rq.parallel_executor->Drain(now));
    } else {
      entry.rq.executor->FlushIngest();
      entry.rq.executor->SweepAll(now);
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
  if (it->second.rq.is_parallel()) {
    return it->second.rq.parallel_executor->TakeResults();
  }
  return it->second.rq.executor->TakeResults();
}

std::vector<std::pair<std::string, std::string>> QueryRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("clock", StrCat(clock_));
  out.emplace_back("streams", StrCat(catalog_.size()));
  if (catalog_.size() > 0) out.emplace_back("catalog", catalog_.ToString());
  out.emplace_back("queries", StrCat(queries_.size()));
  for (const auto& [id, entry] : queries_) {
    uint64_t results = entry.rq.is_parallel()
                           ? entry.rq.parallel_executor->num_results()
                           : entry.rq.executor->num_results();
    size_t live = entry.rq.is_parallel()
                      ? entry.rq.parallel_executor->TotalLiveTuples()
                      : entry.rq.executor->TotalLiveTuples();
    out.emplace_back(
        StrCat("query.", id),
        StrCat("mode=", entry.rq.is_parallel() ? "parallel" : "serial",
               " tuples_in=", entry.tuples_in,
               " punctuations_in=", entry.punctuations_in,
               " results=", results, " live_tuples=", live));
  }
  return out;
}

StreamCatalog QueryRegistry::CatalogSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_;
}

Result<Schema> QueryRegistry::SchemaFor(const std::string& stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  return *schema;
}

int64_t QueryRegistry::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

}  // namespace server
}  // namespace punctsafe
