#include "server/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <utility>

#include "util/string_util.h"

namespace punctsafe {
namespace server {

namespace {

// Single-token CamelCase code names for `ERR <Code>:` lines (the
// library's StatusCodeToString renderings contain spaces).
const char* CodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

Result<int64_t> ParseInt64Token(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty integer token");
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) {
    return Status::InvalidArgument(StrCat("'", token, "' is not an integer"));
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDoubleToken(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty double token");
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(token.c_str(), &end);
  if (errno != 0 || end != token.c_str() + token.size()) {
    return Status::InvalidArgument(StrCat("'", token, "' is not a number"));
  }
  // NaN never equals itself, so no punctuation could ever close a NaN
  // join value and its tuples would stay in state forever.
  if (std::isnan(v)) {
    return Status::InvalidArgument(
        StrCat("'", token, "' is NaN, which no punctuation can match"));
  }
  return v;
}

// `@<ts>` after the stream name stamps the element explicitly;
// without it the registry's logical clock ticks.
Result<std::optional<int64_t>> ParseTimestampToken(
    const std::vector<std::string>& tokens, size_t* pos) {
  if (*pos >= tokens.size() || tokens[*pos].empty() ||
      tokens[*pos][0] != '@') {
    return std::optional<int64_t>();
  }
  PUNCTSAFE_ASSIGN_OR_RETURN(int64_t ts,
                             ParseInt64Token(tokens[*pos].substr(1)));
  ++(*pos);
  return std::optional<int64_t>(ts);
}

// "attr:type" schema tokens of CREATE STREAM (same types the spec
// parser accepts).
Result<Attribute> ParseAttributeToken(const std::string& token) {
  size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size()) {
    return Status::InvalidArgument(
        StrCat("expected attr:type, got '", token, "'"));
  }
  Attribute attr;
  attr.name = token.substr(0, colon);
  std::string type = token.substr(colon + 1);
  if (type == "int" || type == "int64") {
    attr.type = ValueType::kInt64;
  } else if (type == "double") {
    attr.type = ValueType::kDouble;
  } else if (type == "string") {
    attr.type = ValueType::kString;
  } else {
    return Status::InvalidArgument(StrCat(
        "unknown type '", type, "' (expected int, int64, double, string)"));
  }
  return attr;
}

// "k=v" executor options of REGISTER QUERY ... WITH, layered on the
// registry's default configuration.
Status ApplyExecutorOption(const std::string& token, ExecutorConfig* cfg) {
  size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    return Status::InvalidArgument(
        StrCat("expected key=value option, got '", token, "'"));
  }
  std::string key = token.substr(0, eq);
  std::string value = token.substr(eq + 1);
  if (key == "mode") {
    if (value == "serial") {
      cfg->mode = ExecutionMode::kSerial;
    } else if (value == "parallel") {
      cfg->mode = ExecutionMode::kParallel;
    } else {
      return Status::InvalidArgument(
          StrCat("mode must be serial or parallel, got '", value, "'"));
    }
    return Status::OK();
  }
  if (key == "shards" || key == "batch" || key == "queue") {
    PUNCTSAFE_ASSIGN_OR_RETURN(int64_t n, ParseInt64Token(value));
    const int64_t max = key == "shards"  ? kMaxShards
                        : key == "batch" ? kMaxBatch
                                         : kMaxQueue;
    if (n <= 0 || n > max) {
      return Status::InvalidArgument(
          StrCat(key, " must be in [1, ", max, "], got ", value));
    }
    if (key == "shards") {
      cfg->shards = static_cast<size_t>(n);
    } else if (key == "batch") {
      cfg->batch_size = static_cast<size_t>(n);
    } else {
      cfg->queue_capacity = static_cast<size_t>(n);
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrCat("unknown option '", key, "' (expected mode, shards, batch, ",
             "queue)"));
}

std::vector<std::string> One(std::string line) {
  std::vector<std::string> out;
  out.push_back(std::move(line));
  return out;
}

Status NeedArgs(const std::vector<std::string>& tokens, size_t n,
                const char* usage) {
  if (tokens.size() < n) {
    return Status::InvalidArgument(StrCat("usage: ", usage));
  }
  return Status::OK();
}

// The command handlers return Result<lines>; ProcessLine renders any
// error as one ERR line.
Result<std::vector<std::string>> Dispatch(
    QueryRegistry* registry, Session* session,
    const std::vector<std::string>& tokens) {
  const std::string& cmd = tokens[0];

  if (cmd == "PING") return One("OK pong");
  if (cmd == "QUIT") {
    session->quit = true;
    return One("OK bye");
  }

  if (cmd == "CREATE") {
    PUNCTSAFE_RETURN_IF_ERROR(NeedArgs(
        tokens, 4, "CREATE STREAM <name> <attr>:<type>..."));
    if (tokens[1] != "STREAM") {
      return Status::InvalidArgument("only CREATE STREAM is supported");
    }
    std::vector<Attribute> attrs;
    for (size_t i = 3; i < tokens.size(); ++i) {
      PUNCTSAFE_ASSIGN_OR_RETURN(Attribute attr,
                                 ParseAttributeToken(tokens[i]));
      attrs.push_back(std::move(attr));
    }
    Schema schema(std::move(attrs));
    std::string rendered = schema.ToString();
    PUNCTSAFE_RETURN_IF_ERROR(
        registry->CreateStream(tokens[2], std::move(schema)));
    return One(StrCat("OK stream ", tokens[2], " ", rendered));
  }

  if (cmd == "REGISTER") {
    const char* usage =
        "REGISTER QUERY <id> [WITH k=v ...] AS <spec, ';'-separated>";
    PUNCTSAFE_RETURN_IF_ERROR(NeedArgs(tokens, 5, usage));
    if (tokens[1] != "QUERY") {
      return Status::InvalidArgument("only REGISTER QUERY is supported");
    }
    const std::string& id = tokens[2];
    size_t pos = 3;
    std::optional<ExecutorConfig> cfg;
    if (tokens[pos] == "WITH") {
      cfg = registry->default_config();
      ++pos;
      while (pos < tokens.size() && tokens[pos] != "AS") {
        PUNCTSAFE_RETURN_IF_ERROR(ApplyExecutorOption(tokens[pos], &*cfg));
        ++pos;
      }
    }
    if (pos >= tokens.size() || tokens[pos] != "AS" ||
        pos + 1 >= tokens.size()) {
      return Status::InvalidArgument(StrCat("usage: ", usage));
    }
    // The spec is the rest of the line; tokens rejoin losslessly
    // because spec syntax is whitespace-separated.
    std::string spec = Join(
        std::vector<std::string>(tokens.begin() + pos + 1, tokens.end()),
        " ");
    PUNCTSAFE_ASSIGN_OR_RETURN(RegistrationInfo info,
                               registry->RegisterQuery(id, spec, cfg));
    return One(StrCat("OK query ", info.id, " plan ", info.plan));
  }

  if (cmd == "PUSH" || cmd == "PUNCT") {
    const char* usage = cmd == "PUSH"
                            ? "PUSH <stream> [@<ts>] <value>..."
                            : "PUNCT <stream> [@<ts>] <pattern>...";
    PUNCTSAFE_RETURN_IF_ERROR(NeedArgs(tokens, 3, usage));
    const std::string& stream = tokens[1];
    size_t pos = 2;
    PUNCTSAFE_ASSIGN_OR_RETURN(std::optional<int64_t> ts,
                               ParseTimestampToken(tokens, &pos));
    PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema,
                               registry->SchemaFor(stream));
    if (cmd == "PUSH") {
      PUNCTSAFE_ASSIGN_OR_RETURN(Tuple tuple,
                                 ParseTupleTokens(*schema, tokens, pos));
      PUNCTSAFE_RETURN_IF_ERROR(registry->PushTuple(stream, tuple, ts));
    } else {
      PUNCTSAFE_ASSIGN_OR_RETURN(
          Punctuation p, ParsePunctuationTokens(*schema, tokens, pos));
      PUNCTSAFE_RETURN_IF_ERROR(registry->PushPunctuation(stream, p, ts));
    }
    return One("OK");
  }

  if (cmd == "SUBSCRIBE") {
    PUNCTSAFE_RETURN_IF_ERROR(NeedArgs(tokens, 2, "SUBSCRIBE <id>"));
    if (!registry->HasQuery(tokens[1])) {
      return Status::NotFound(
          StrCat("query '", tokens[1], "' is not registered"));
    }
    session->subscriptions.insert(tokens[1]);
    return One(StrCat("OK subscribed ", tokens[1]));
  }

  if (cmd == "UNSUBSCRIBE") {
    PUNCTSAFE_RETURN_IF_ERROR(NeedArgs(tokens, 2, "UNSUBSCRIBE <id>"));
    if (session->subscriptions.erase(tokens[1]) == 0) {
      return Status::NotFound(
          StrCat("not subscribed to query '", tokens[1], "'"));
    }
    return One(StrCat("OK unsubscribed ", tokens[1]));
  }

  if (cmd == "UNREGISTER") {
    // Tolerate the symmetric `UNREGISTER QUERY <id>` spelling.
    size_t pos = (tokens.size() > 1 && tokens[1] == "QUERY") ? 2 : 1;
    PUNCTSAFE_RETURN_IF_ERROR(NeedArgs(tokens, pos + 1, "UNREGISTER <id>"));
    PUNCTSAFE_RETURN_IF_ERROR(registry->UnregisterQuery(tokens[pos]));
    session->subscriptions.erase(tokens[pos]);
    return One(StrCat("OK unregistered ", tokens[pos]));
  }

  if (cmd == "DRAIN") {
    size_t pos = 1;
    PUNCTSAFE_ASSIGN_OR_RETURN(std::optional<int64_t> ts,
                               ParseTimestampToken(tokens, &pos));
    if (pos != tokens.size()) {
      return Status::InvalidArgument("usage: DRAIN [@<ts>]");
    }
    PUNCTSAFE_RETURN_IF_ERROR(registry->DrainAll(ts));
    return One("OK drained");
  }

  if (cmd == "STATS") {
    std::vector<std::string> out;
    for (const auto& [key, value] : registry->Stats()) {
      out.push_back(StrCat("STAT ", key, " ", value));
    }
    out.push_back("OK");
    return out;
  }

  return Status::InvalidArgument(StrCat(
      "unknown command '", cmd, "' (expected CREATE, REGISTER, PUSH, PUNCT, ",
      "SUBSCRIBE, UNSUBSCRIBE, UNREGISTER, DRAIN, STATS, PING, QUIT)"));
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r')) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r') {
      ++i;
    }
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Result<Value> ParseValueToken(const std::string& token, ValueType type) {
  switch (type) {
    case ValueType::kInt64: {
      PUNCTSAFE_ASSIGN_OR_RETURN(int64_t v, ParseInt64Token(token));
      return Value(v);
    }
    case ValueType::kDouble: {
      PUNCTSAFE_ASSIGN_OR_RETURN(double v, ParseDoubleToken(token));
      return Value(v);
    }
    case ValueType::kString: {
      if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
        return Value(token.substr(1, token.size() - 2));
      }
      return Value(token);
    }
    case ValueType::kNull:
      return Status::InvalidArgument("null-typed attributes are not pushable");
  }
  return Status::InvalidArgument("unknown value type");
}

Result<Tuple> ParseTupleTokens(const Schema& schema,
                               const std::vector<std::string>& tokens,
                               size_t begin) {
  size_t n = tokens.size() - begin;
  if (n != schema.num_attributes()) {
    return Status::InvalidArgument(StrCat("expected ",
                                          schema.num_attributes(),
                                          " values, got ", n));
  }
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto v = ParseValueToken(tokens[begin + i], schema.attribute(i).type);
    if (!v.ok()) {
      return Status::InvalidArgument(StrCat("attribute '",
                                            schema.attribute(i).name,
                                            "': ", v.status().message()));
    }
    values.push_back(std::move(*v));
  }
  return Tuple(std::move(values));
}

Result<Punctuation> ParsePunctuationTokens(
    const Schema& schema, const std::vector<std::string>& tokens,
    size_t begin) {
  size_t n = tokens.size() - begin;
  if (n != schema.num_attributes()) {
    return Status::InvalidArgument(StrCat("expected ",
                                          schema.num_attributes(),
                                          " patterns, got ", n));
  }
  std::vector<Pattern> patterns;
  patterns.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& token = tokens[begin + i];
    if (token == "*") {
      patterns.push_back(Pattern::Wildcard());
      continue;
    }
    auto v = ParseValueToken(token, schema.attribute(i).type);
    if (!v.ok()) {
      return Status::InvalidArgument(StrCat("attribute '",
                                            schema.attribute(i).name,
                                            "': ", v.status().message()));
    }
    patterns.push_back(Pattern(std::move(*v)));
  }
  return Punctuation(std::move(patterns));
}

std::string FormatValue(const Value& v) {
  // Value renders strings double-quoted — the shape ParseValueToken
  // strips back off — and scalars bare.
  return v.ToString();
}

void AppendResultLine(std::string* out, const std::string& id,
                      const Tuple& t) {
  out->append("RESULT ");
  out->append(id);
  for (const Value& v : t.values()) {
    out->push_back(' ');
    v.AppendTo(out);
  }
}

std::string FormatResultLine(const std::string& id, const Tuple& t) {
  std::string out;
  AppendResultLine(&out, id, t);
  return out;
}

std::string FormatError(const Status& status) {
  std::string msg = status.message();
  // Multi-line messages (the safety witness) must fit one protocol
  // line.
  for (char& c : msg) {
    if (c == '\n') c = ';';
    if (c == '\r') c = ' ';
  }
  return StrCat("ERR ", CodeToken(status.code()), ": ", msg);
}

std::vector<std::string> ProcessLine(QueryRegistry* registry,
                                     Session* session,
                                     const std::string& line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return {};
  Result<std::vector<std::string>> result =
      Dispatch(registry, session, tokens);
  if (!result.ok()) return One(FormatError(result.status()));
  return std::move(result).ValueOrDie();
}

}  // namespace server
}  // namespace punctsafe
