// Umbrella header: the complete public API of punctsafe.
//
// punctsafe reproduces "Safety Guarantee of Continuous Join Queries
// over Punctuated Data Streams" (Li, Chen, Tatemura, Agrawal, Candan,
// Hsiung — VLDB 2006): compile-time safety checking of continuous
// join queries under punctuation schemes, the chained purge strategy,
// a punctuation-aware join runtime, and safe-plan selection.
//
// Typical entry points:
//   QueryRegister       — register streams/schemes, admit safe CJQs
//   SafetyChecker       — Theorems 1-5 verdicts with explanations
//   PlanExecutor        — run a plan shape over stream traces
//   ParallelExecutor    — pipelined runtime, one thread per operator
//   SafePlanEnumerator / PlanChooser — Section 5.2 plan selection

#ifndef PUNCTSAFE_PUNCTSAFE_H_
#define PUNCTSAFE_PUNCTSAFE_H_

// Stream & punctuation model (paper Section 2).
#include "stream/catalog.h"
#include "stream/element.h"
#include "stream/punctuation.h"
#include "stream/schema.h"
#include "stream/scheme.h"
#include "stream/tuple.h"
#include "stream/value.h"

// Query model.
#include "query/cjq.h"
#include "query/join_graph.h"
#include "query/plan_shape.h"
#include "query/predicate.h"
#include "query/spec_parser.h"

// Safety checking (paper Sections 3-4).
#include "core/chained_purge.h"
#include "core/generalized_punctuation_graph.h"
#include "core/naive_checker.h"
#include "core/plan_safety.h"
#include "core/punctuation_graph.h"
#include "core/safety_checker.h"
#include "core/transformed_punctuation_graph.h"

// Runtime (paper Figure 2 architecture).
#include "exec/bounded_queue.h"
#include "exec/checkpoint.h"
#include "exec/mjoin.h"
#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "exec/purge_engine.h"
#include "exec/reference_join.h"

// Plan selection (paper Section 5.2).
#include "plan/chooser.h"
#include "plan/cost_model.h"
#include "plan/enumerator.h"
#include "plan/scheme_selection.h"

// Workload generators.
#include "workload/auction.h"
#include "workload/network.h"
#include "workload/random_query.h"
#include "workload/sensor.h"

#endif  // PUNCTSAFE_PUNCTSAFE_H_
