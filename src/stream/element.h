// Stream elements and traces: the unit of input fed to executors
// (FeedTrace, FeedTraceParallel). An element is either a data tuple or
// a punctuation, tagged with a logical timestamp (used for punctuation
// lifespans, paper Section 5.1).

#ifndef PUNCTSAFE_STREAM_ELEMENT_H_
#define PUNCTSAFE_STREAM_ELEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/punctuation.h"
#include "stream/tuple.h"

namespace punctsafe {

/// \brief A tuple or punctuation flowing on one stream.
struct StreamElement {
  enum class Kind { kTuple, kPunctuation };

  static StreamElement OfTuple(Tuple t, int64_t ts = 0) {
    StreamElement e;
    e.kind = Kind::kTuple;
    e.tuple = std::move(t);
    e.timestamp = ts;
    return e;
  }
  static StreamElement OfPunctuation(Punctuation p, int64_t ts = 0) {
    StreamElement e;
    e.kind = Kind::kPunctuation;
    e.punctuation = std::move(p);
    e.timestamp = ts;
    return e;
  }

  bool is_tuple() const { return kind == Kind::kTuple; }
  bool is_punctuation() const { return kind == Kind::kPunctuation; }

  std::string ToString() const {
    return is_tuple() ? tuple.ToString()
                      : ("punct" + punctuation.ToString());
  }

  Kind kind = Kind::kTuple;
  Tuple tuple;
  Punctuation punctuation;
  int64_t timestamp = 0;
};

/// \brief One event of a multi-stream trace: which stream it arrives
/// on plus the element itself.
struct TraceEvent {
  std::string stream;
  StreamElement element;
};

/// \brief A finite, ordered prefix of the (conceptually infinite)
/// multi-stream input, used to drive executors in tests, examples and
/// benchmarks.
using Trace = std::vector<TraceEvent>;

}  // namespace punctsafe

#endif  // PUNCTSAFE_STREAM_ELEMENT_H_
