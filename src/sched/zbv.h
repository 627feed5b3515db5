// The handcrafted ZB-V schedule (Qi et al., "Pipeline Parallelism with
// Controllable Memory", arXiv:2405.15362).
//
// ZB-V places v=2 chunks per stage in a V: stage i owns chunk i on the
// descending leg and chunk 2p-1-i on the ascending leg, so both the
// mid-pipeline turnaround (chunk p-1 → p on stage p-1) and the loss
// turnaround (F → B of chunk 2p-1 on stage 0) are stage-local. With the
// backward split into its activation-gradient half (B) and its
// weight-gradient half (W), every stage owes 2F + 2B + 2W per
// micro-batch, and the construction interleaves them so that under
// uniform durations (F ≈ B ≈ W) the steady state is bubble-free while
// at most 2p chunk-forwards — 1F1B-parity activation memory — are ever
// retained per stage.
//
// ZB-V is one point of the synthesizer's block family (sched/synth.h):
// both entry points below run its composer at v=2, V-shape placement,
// split backward, one retained-forward cap on every stage (max_retained,
// else 2p) and no warmup offsets. Unlike the capped list-scheduler
// approximation (`ZbvCappedSchedule`), that emits the V-shape F/B/W
// interleaving directly:
//   1. warmup     — the chunk-0 forward wave descends the V; while a
//                   stage waits for its ascending-leg forward to come
//                   back up, it fills the wait with future descending-
//                   leg forwards (memory permitting) — the ascending-leg
//                   forward outranks them, and each descending-leg
//                   forward reserves a cap slot for it;
//   2. steady     — one B, one F, one W per chunk per period,
//                   alternating legs, W drawn FIFO from the pending
//                   queue its B filled;
//   3. drain      — remaining B waves retire, then the W backlog runs
//                   back-to-back.
// Weight gradients are part of the static program order (the recipe
// decides where W runs), not deferred to the execution engine.
//
// Four fill-policy variants are tried — whether an idle slot prefers
// alternating F/B or strictly drains backwards, and whether pending W
// may fill any idle slot or only memory-forced ones. Selection is
// memory-aware: a fill's peak activation (retained chunk-forwards plus
// the act-grad each pending W retains until it runs) is checked against
// the activation budget first, and only the feasible fills compete on
// abstract makespan.
#ifndef MEPIPE_SCHED_ZBV_H_
#define MEPIPE_SCHED_ZBV_H_

#include "sched/schedule.h"

namespace mepipe::sched {

struct ZbvOptions {
  // Abstract durations used to order the construction; real costs are
  // applied later by the execution engine. B is the activation-gradient
  // half only, so F ≈ B ≈ W is the zero-bubble regime.
  double f_time = 1.0;
  double b_time = 1.0;
  double w_time = 1.0;
  // Abstract inter-stage transfer delay; the list-scheduling kernel's
  // lookahead window is twice this (sched/list_scheduler.h).
  double transfer_time = 0.05;
  // Per-stage cap on retained chunk-forwards; a forward is retained
  // until its weight gradient has run. 0 selects the construction's
  // 1F1B-parity bound of 2p chunk-forwards (each 1/(2p) of a sample's
  // activation footprint).
  int max_retained = 0;
  // Memory-aware fill selection. A fill's peak activation is counted in
  // chunk-forward units: retained forwards plus act_grad_weight per
  // pending W (the activation gradient B produces is retained until its
  // W consumes it). Fills whose peak exceeds activation_budget_units
  // are filtered out of the makespan ranking whenever any fill fits;
  // 0 budget means "the retained-forward cap" (so with the default
  // act_grad_weight of 0 the ranking degenerates to the legacy
  // makespan-only selection).
  double act_grad_weight = 0.0;
  double activation_budget_units = 0.0;
};

// One fill-policy variant's measured profile, for tests and diagnostics.
struct ZbvFillCandidate {
  bool alternate = false;
  bool w_eager = false;
  double makespan = 0.0;
  double peak_activation_units = 0.0;  // retained + act-grad backlog
  bool within_budget = false;
};

// Profiles of the four fill policies under `options`, in the fixed trial
// order (alternate, w_eager) = (1,1), (1,0), (0,1), (0,0). The schedule
// HandcraftedZbvSchedule returns is the feasible candidate with the
// smallest makespan (peak, then makespan, when none fits the budget).
std::vector<ZbvFillCandidate> ZbvFillCandidates(int stages, int micros,
                                                const ZbvOptions& options = {});

// Builds and validates the handcrafted ZB-V schedule. Throws CheckError
// for malformed inputs (stages < 1, micros < 1, max_retained < 2).
Schedule HandcraftedZbvSchedule(int stages, int micros, const ZbvOptions& options = {});

// The memory bound of the construction: retained chunk-forwards on the
// worst stage, min(2·micros, 2·stages) — 1F1B parity when n ≥ p.
int ZbvMaxRetainedForwards(int stages, int micros);

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_ZBV_H_
