// Reusable schedule-invariant validator.
//
// A hand-built schedule is only as trustworthy as its checker, so every
// schedule test suite funnels through this harness instead of ad-hoc
// partial dependency checks. It states three invariants and collects
// every violation instead of stopping at the first:
//
//   multiset        every stage lists exactly its owned ops, once
//   executable      the joint program order admits a complete execution
//                   (dependency completeness and acyclicity)
//   activation-cap  the running count of retained forwards (released by
//                   W when W is static, by B otherwise) never exceeds
//                   the per-stage cap — the accounting core/memory_model
//                   prices in bytes, checked here in forward units
//
// The first two are ValidateSchedule's own passes (both live in
// sched/schedule.cc). Timing predicates need no check of their own: W
// depends on its B, F(t) on F(t-1) and B(t) on B(t+1), each pair on one
// stage (sched/dependency.h), so a program order that executes already
// runs W after B and slices in causal order; and a list interpreter
// starts an op only after its dependencies (plus transfer) and the
// stage's previous op have ended, so cross-chunk timing and one op per
// stream at a time hold by construction for any durations.
//
// CheckScheduleInvariants collects every violation; the Validate
// wrapper throws CheckError with all of them. ValidateSchedule
// (sched/schedule.h) is the throwing structural subset generators call
// on every construction.
#ifndef MEPIPE_SCHED_VALIDATE_H_
#define MEPIPE_SCHED_VALIDATE_H_

#include <string>
#include <vector>

#include "sched/schedule.h"

namespace mepipe::sched {

struct InvariantOptions {
  // Per-stage cap on retained forwards for the activation-accounting
  // invariant; empty skips the check. (Callers derive the cap from
  // core/memory_model's byte budget divided by the per-forward unit, or
  // from the construction's documented bound.)
  std::vector<int> retained_cap;
};

struct Violation {
  std::string invariant;  // "multiset", "executable" or "activation-cap"
  std::string detail;
};

struct InvariantReport {
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
  // Human-readable one-per-line summary ("<invariant>: <detail>").
  std::string Summary() const;
};

// Runs every invariant, collecting violations instead of throwing.
InvariantReport CheckScheduleInvariants(const Schedule& schedule,
                                        const InvariantOptions& options = {});

// Throws CheckError with the full summary when any invariant fails.
void ValidateScheduleInvariants(const Schedule& schedule, const InvariantOptions& options = {});

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_VALIDATE_H_
