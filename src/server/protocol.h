// The ingestion server's newline-delimited text protocol
// (docs/SERVER.md has the full grammar). One request per line; the
// server answers each request with one or more response lines and
// pushes subscribed results as unsolicited `RESULT` lines:
//
//   CREATE STREAM <name> <attr>:<type>...   -> OK stream <name> ...
//   REGISTER QUERY <id> [WITH k=v ...] AS <spec ';'-separated>
//   PUSH <stream> [@<ts>] <value>...        -> OK
//   PUNCT <stream> [@<ts>] <pattern>...     -> OK   (pattern: * or value)
//   SUBSCRIBE <id> / UNSUBSCRIBE <id>
//   UNREGISTER <id>
//   DRAIN [@<ts>]                           -> barrier, results flushed
//   STATS                                   -> STAT <key> <value>... OK
//   PING / QUIT
//
// Errors come back as one `ERR <Code>: <message>` line (newlines in
// messages — e.g. multi-line safety witnesses — are flattened), so a
// rejected registration reports its unsafety witness instead of
// killing the connection. Values are single whitespace-free tokens;
// strings may be double-quoted (quotes are stripped; no escapes).
//
// ProcessLine is the whole command surface, independent of sockets:
// the server (server/server.h) frames bytes into lines and pumps
// results; tests drive the same path without a network.

#ifndef PUNCTSAFE_SERVER_PROTOCOL_H_
#define PUNCTSAFE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "server/query_registry.h"
#include "stream/punctuation.h"
#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/status.h"

namespace punctsafe {
namespace server {

/// \brief Upper limits on the REGISTER ... WITH executor options
/// (shards=, batch=, queue=), shared with punctsafe_serve's flags. A
/// larger value is one `ERR InvalidArgument:` line, returned before any
/// executor is built. Limits, not knobs.
inline constexpr int64_t kMaxShards = 64;
inline constexpr int64_t kMaxBatch = 65536;
inline constexpr int64_t kMaxQueue = 1048576;

/// \brief Per-connection protocol state.
struct Session {
  /// Query ids this connection receives RESULT lines for.
  std::set<std::string> subscriptions;
  /// Set by QUIT: the transport should close after flushing.
  bool quit = false;
};

/// \brief Whitespace-splits a protocol line (values are single
/// tokens).
std::vector<std::string> Tokenize(const std::string& line);

/// \brief Parses one literal token as a Value of the schema type.
/// Strings may be double-quoted; int64/double must consume the whole
/// token.
Result<Value> ParseValueToken(const std::string& token, ValueType type);

/// \brief Parses tokens[begin..] as a tuple of `schema` (exact arity).
Result<Tuple> ParseTupleTokens(const Schema& schema,
                               const std::vector<std::string>& tokens,
                               size_t begin);

/// \brief Parses tokens[begin..] as punctuation patterns over
/// `schema`: `*` is the wildcard, anything else a constant of the
/// attribute's type.
Result<Punctuation> ParsePunctuationTokens(
    const Schema& schema, const std::vector<std::string>& tokens,
    size_t begin);

/// \brief One value in protocol form (strings double-quoted — the
/// shape ParseValueToken accepts back).
std::string FormatValue(const Value& v);

/// \brief Appends the "RESULT <id> <v>..." line of a subscribed result
/// tuple to `out`, without a newline. This is the server's result
/// path: values render straight into the caller's reused buffer.
void AppendResultLine(std::string* out, const std::string& id,
                      const Tuple& t);

/// \brief AppendResultLine into a fresh string.
std::string FormatResultLine(const std::string& id, const Tuple& t);

/// \brief "ERR <Code>: <message>" with newlines flattened to "; ".
std::string FormatError(const Status& status);

/// \brief Executes one protocol line against the registry and returns
/// the immediate response lines (no trailing newlines; empty input
/// lines produce no response). RESULT streaming is the transport's
/// job via QueryRegistry::TakeResults.
std::vector<std::string> ProcessLine(QueryRegistry* registry,
                                     Session* session,
                                     const std::string& line);

}  // namespace server
}  // namespace punctsafe

#endif  // PUNCTSAFE_SERVER_PROTOCOL_H_
