// QueryRegistry: the multi-query catalog of the ingestion server
// (docs/SERVER.md). Where QueryRegister admits ONE query per instance
// from C++ call sites, the registry serves many concurrent queries
// over shared streams: streams are created once, each registered
// query brings its own punctuation schemes and executor
// configuration, and every ingested tuple/punctuation fans out once
// to each executor reading that stream. Registration reuses the full
// admission pipeline (spec_parser -> SafetyChecker -> plan safety),
// rejecting unsafe queries with the checker's witness.
//
// Registrations with an identical plan share one executor (a *plan
// group*). Two plans are identical when their rendered query (streams
// and predicates), rendered scheme set, plan shape and whole
// ExecutorConfig are equal: both were then admitted as safe under the
// same schemes, which is the whole-plan case of the sharing
// precondition in "Safe Subjoins in Acyclic Joins". A registration
// joins a group only while the group's executor has received no
// element (the *pristine* rule), so every member sees exactly the
// results a fresh executor of its own would produce. Each member keeps
// its own pending results: TakeResults hands a member every result
// the group emitted since its last take.
//
// Thread contract: every public method is safe from any thread (one
// coarse mutex — the registry is the single driver of each executor,
// which satisfies the executors' single-driver-thread contract). The
// socket server (server/server.h) calls it from its event loop;
// embedders may call it directly.

#ifndef PUNCTSAFE_SERVER_QUERY_REGISTRY_H_
#define PUNCTSAFE_SERVER_QUERY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/query_register.h"
#include "stream/catalog.h"
#include "stream/element.h"
#include "util/status.h"

namespace punctsafe {
namespace server {

/// \brief What RegisterQuery reports back to the client.
struct RegistrationInfo {
  std::string id;
  /// Rendered plan shape, e.g. "[item bid]".
  std::string plan;
  /// The admission verdict (always safe here — unsafe registrations
  /// return an error instead), with the checker's explanation.
  SafetyReport safety;
};

class QueryRegistry {
 public:
  /// \param default_config executor configuration applied to
  ///        registrations that do not override it (keep_results is
  ///        forced on — the registry owns result draining).
  explicit QueryRegistry(ExecutorConfig default_config = {})
      : default_config_(std::move(default_config)) {}

  /// \brief Registers a stream schema (protocol `CREATE STREAM`).
  Status CreateStream(const std::string& name, Schema schema);

  /// \brief Admits a query (protocol `REGISTER QUERY id AS spec`).
  /// `spec_text` is spec_parser syntax (';' = newline) carrying
  /// scheme/query/join lines; every referenced stream must already
  /// exist (stream lines are rejected — streams are shared state,
  /// created via CreateStream). The safety check runs at registration
  /// and unsafe queries are rejected with the checker's witness in
  /// the status message.
  Result<RegistrationInfo> RegisterQuery(
      const std::string& id, const std::string& spec_text,
      std::optional<ExecutorConfig> config = std::nullopt);

  /// \brief Drops a query. Its plan group's executor goes with the
  /// group's last member.
  Status UnregisterQuery(const std::string& id);

  bool HasQuery(const std::string& id) const;
  std::vector<std::string> QueryIds() const;

  /// \brief Fans a tuple out to every query reading `stream`. Without
  /// an explicit timestamp the registry's logical clock stamps it. An
  /// explicit timestamp earlier than the last stamp on `stream` is
  /// InvalidArgument, and no query receives the tuple.
  Status PushTuple(const std::string& stream, const Tuple& tuple,
                   std::optional<int64_t> ts = std::nullopt);

  /// \brief Fans a punctuation out to every query reading `stream`.
  /// Timestamps follow PushTuple's rules.
  Status PushPunctuation(const std::string& stream, const Punctuation& p,
                         std::optional<int64_t> ts = std::nullopt);

  /// \brief Barrier: flushes/drains every executor so all results of
  /// prior pushes are observable via TakeResults (protocol `DRAIN`).
  Status DrainAll(std::optional<int64_t> ts = std::nullopt);

  /// \brief Moves out the results `id` emitted since the last take
  /// (subscriber streaming; arrival order preserved per query). The
  /// group executor's new results are first handed to every member,
  /// so each member of a shared plan receives the full result
  /// sequence.
  Result<std::vector<Tuple>> TakeResults(const std::string& id);

  /// \brief Registry-wide stats as ordered key/value pairs (protocol
  /// `STATS`): `plans` counts executors, and each `query.<id>` line
  /// carries `plan_members=<n>`, the registrations sharing its
  /// executor.
  std::vector<std::pair<std::string, std::string>> Stats() const;

  /// \brief Schema of one stream (what protocol value parsing needs
  /// per PUSH/PUNCT). The pointer stays valid for the registry's
  /// lifetime: streams are never dropped, and the catalog's index is a
  /// node-based map, so later CreateStream calls do not move it.
  Result<const Schema*> SchemaFor(const std::string& stream) const;

  /// \brief The configuration registrations start from (immutable
  /// after construction).
  const ExecutorConfig& default_config() const { return default_config_; }

  /// \brief Current logical ingestion clock.
  int64_t clock() const;

 private:
  struct Entry;

  // One executor and the registrations reading its results. Every
  // registration belongs to exactly one group; most groups have one
  // member.
  struct PlanGroup {
    // Rendered query, scheme set and plan shape; with `config` the
    // identity a newcomer must match to join.
    std::string signature;
    ExecutorConfig config;
    RegisteredQuery rq;
    // No element pushed yet: a newcomer may still join.
    bool pristine = true;
    std::vector<Entry*> members;  // registration order
  };

  struct Entry {
    PlanGroup* group = nullptr;
    // Results taken from the group executor, not yet taken by this
    // member.
    std::vector<Tuple> pending;
    uint64_t tuples_in = 0;
    uint64_t punctuations_in = 0;
  };

  // Runs `push(rq, input)` once for every group whose query reads
  // `stream`, and counts the element in `counter` of each member.
  template <typename PushFn>
  void FanOut(const std::string& stream, uint64_t Entry::*counter,
              PushFn push);

  // Stamps an element of `stream`: explicit timestamps advance the
  // clock, implicit ones tick it. An explicit timestamp earlier than
  // the stream's last stamp is InvalidArgument and changes nothing.
  Result<int64_t> ResolveTimestamp(const std::string& stream,
                                   std::optional<int64_t> ts);

  mutable std::mutex mu_;
  ExecutorConfig default_config_;
  StreamCatalog catalog_;
  std::map<std::string, Entry> queries_;  // ordered for stable STATS
  std::vector<std::unique_ptr<PlanGroup>> groups_;  // creation order
  // Per stream: the timestamp of its last element.
  std::unordered_map<std::string, int64_t> last_ts_;
  int64_t clock_ = 0;
};

}  // namespace server
}  // namespace punctsafe

#endif  // PUNCTSAFE_SERVER_QUERY_REGISTRY_H_
