// Test-only access to MJoinOperator internals.
//
//  * UseFullSweepReference switches a freshly created operator to the
//    reference purge: every purge pass re-checks every live tuple of
//    every input (the pre-wait-index behavior), nothing is parked or
//    woken. Differential tests run it next to the wait-index operator.
//  * Removable runs one chained-purge check exactly as the on-arrival
//    path and the purge pass do (allocation pins measure it).

#ifndef PUNCTSAFE_TESTS_MJOIN_TEST_PEER_H_
#define PUNCTSAFE_TESTS_MJOIN_TEST_PEER_H_

#include "exec/mjoin.h"

namespace punctsafe {

class MJoinTestPeer {
 public:
  static void UseFullSweepReference(MJoinOperator* op) {
    op->full_sweep_reference_ = true;
  }
  static bool Removable(MJoinOperator* op, size_t input, const Tuple& tuple,
                        int64_t now) {
    return op->Removable(input, tuple, now) ==
           MJoinOperator::Check::kRemovable;
  }
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_TESTS_MJOIN_TEST_PEER_H_
