#include "sim/engine.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "sched/dependency.h"

namespace mepipe::sim {
namespace {

using sched::Dep;
using sched::OpId;
using sched::OpKind;

constexpr double kEps = 1e-12;

// Sentinel for "not recorded yet" in the dense completion arena. All
// recorded times are >= 0, so the comparison is exact.
constexpr Seconds kNotDone = -1.0;

// A deferred weight-gradient work item, optionally split into GEMMs.
struct WgradItem {
  OpId op;               // the kWeightGrad identity
  Seconds available = 0; // its B's completion time
  int next_gemm = 0;
  int gemm_count = 1;    // 1 when executed as a whole-W task
};

// One stage's compute stream and its running accounts.
struct Stream {
  std::size_t cursor = 0;        // next op of the program order
  Seconds clock = 0;             // when the stream is next free
  std::deque<WgradItem> wqueue;  // deferred W work, in B completion order
  Bytes resident = 0;            // activations + retained act-grads
  Bytes peak = 0;
  Seconds busy = 0;
  Seconds first_start = std::numeric_limits<Seconds>::infinity();
  Seconds last_end = 0;
  int overflow_count = 0;
  Bytes overflow_bytes = 0;
};

// The list interpreter, instantiated on EngineOptions for Simulate and on
// TableOptions for PriceScheduleTable. kTable selects point-to-point
// transfer arrivals and compiles out the timeline, the memory series and
// the fault hooks; every other line runs for both.
template <typename Options>
class Engine {
 public:
  static constexpr bool kTable = std::is_same_v<Options, TableOptions>;

  Engine(const sched::Schedule& schedule, const CostModel& costs, const Options& options)
      : schedule_(schedule),
        problem_(schedule.problem),
        costs_(costs),
        options_(options),
        index_(schedule.problem) {
    CheckInput();
    const auto stages = static_cast<std::size_t>(problem_.stages);
    done_.assign(index_.size(), kNotDone);
    streams_.resize(stages);
    if constexpr (!kTable) {
      link_free_.assign(stages * stages, 0.0);
      if (options_.record_memory_timeline) {
        memory_timeline_.resize(stages);
      }
      if (options_.dp_overlap && options_.dp_link_shared) {
        fabric_busy_.resize(stages);
      }
      if (options_.fault_plan) {
        faulty_.emplace(costs, options_.fault_plan, problem_.stages);
      }
    }
  }

  SimResult Run();

 private:
  // Rejects malformed input before anything is sized from it: the
  // problem, the stage count, the budget, each stage's op count, and each
  // op's kind, index ranges, owning stage, gemm and job tag. Run rejects
  // a duplicate as it executes and a wedge as a deadlock; together that
  // is exactly sched::ValidateSchedule's acceptance, at O(1) per op.
  void CheckInput() const {
    problem_.Validate();
    MEPIPE_CHECK_EQ(static_cast<int>(schedule_.stage_ops.size()), problem_.stages)
        << "schedule lists " << schedule_.stage_ops.size() << " stages for a "
        << problem_.stages << "-stage problem";
    MEPIPE_CHECK(!schedule_.deferred_wgrad || problem_.split_backward)
        << "deferred W requires split backward";
    if (!options_.activation_budget.empty()) {
      MEPIPE_CHECK_EQ(options_.activation_budget.size(),
                      static_cast<std::size_t>(problem_.stages))
          << "activation_budget must have one entry per stage";
      for (Bytes budget : options_.activation_budget) {
        MEPIPE_CHECK_GE(budget, 0) << "negative activation budget";
      }
    }
    const bool static_w = problem_.split_backward && !schedule_.deferred_wgrad;
    const std::int64_t per_stage = static_cast<std::int64_t>(problem_.micros) *
                                   problem_.slices * problem_.virtual_chunks * (static_w ? 3 : 2);
    std::vector<int> owner(static_cast<std::size_t>(problem_.num_chunks()));
    for (int chunk = 0; chunk < problem_.num_chunks(); ++chunk) {
      owner[static_cast<std::size_t>(chunk)] = problem_.stage_of_chunk(chunk);
    }
    for (int stage = 0; stage < problem_.stages; ++stage) {
      const auto& ops = schedule_.stage_ops[static_cast<std::size_t>(stage)];
      MEPIPE_CHECK_EQ(static_cast<std::int64_t>(ops.size()), per_stage)
          << "stage " << stage << " lists " << ops.size() << " ops, expected " << per_stage;
      for (const OpId& op : ops) {
        MEPIPE_CHECK(op.kind == OpKind::kForward || op.kind == OpKind::kBackward ||
                     (static_w && op.kind == OpKind::kWeightGrad))
            << sched::ToString(op) << " cannot appear in a program order of this schedule";
        MEPIPE_CHECK(op.micro >= 0 && op.micro < problem_.micros && op.slice >= 0 &&
                     op.slice < problem_.slices && op.chunk >= 0 &&
                     op.chunk < problem_.num_chunks())
            << sched::ToString(op) << " is out of range";
        MEPIPE_CHECK_EQ(owner[static_cast<std::size_t>(op.chunk)], stage)
            << sched::ToString(op) << " is listed on stage " << stage;
        MEPIPE_CHECK_EQ(op.gemm, -1) << sched::ToString(op) << " names a GEMM";
        MEPIPE_CHECK_EQ(op.job, schedule_.job)
            << sched::ToString(op) << " is not tagged with the schedule's job " << schedule_.job;
      }
    }
  }

  Seconds DoneTime(const OpId& op) const { return done_[index_(op)]; }
  bool IsDone(const OpId& op) const { return done_[index_(op)] != kNotDone; }
  void SetDone(const OpId& op, Seconds time) { done_[index_(op)] = time; }
  Stream& StreamOf(int stage) { return streams_[static_cast<std::size_t>(stage)]; }

  // Arrival time of `producer`'s output at the consuming stage. The table
  // replay charges it point to point; the engine serializes transfers per
  // directed stage-pair link, records each one when keeping the timeline,
  // and under fabric sharing notes its interval on both endpoint stages.
  // Every producer feeds one cross-stage consumer, so each arrival is
  // asked for once.
  Seconds Arrival(const OpId& producer) {
    const Seconds done = DoneTime(producer);
    if constexpr (kTable) {
      return done + costs_.TransferTime(producer);
    } else {
      const int from = problem_.stage_of_chunk(producer.chunk);
      const int to = producer.kind == OpKind::kForward
                         ? problem_.stage_of_chunk(producer.chunk + 1)
                         : problem_.stage_of_chunk(producer.chunk - 1);
      double& link_free = link_free_[static_cast<std::size_t>(from) *
                                         static_cast<std::size_t>(problem_.stages) +
                                     static_cast<std::size_t>(to)];
      Seconds start = std::max(done, link_free);
      Seconds arrival;
      if (faulty_) {
        start = faulty_->NextUpTime(start);
        arrival = faulty_->TransferEndAt(from, to, producer, start);
      } else {
        arrival = start + costs_.TransferTime(producer);
      }
      link_free = arrival;
      RecordSpan({from, producer, start, arrival, /*is_transfer=*/true});
      if (!fabric_busy_.empty()) {
        fabric_busy_[static_cast<std::size_t>(from)].push_back({start, arrival});
        if (to != from) {
          fabric_busy_[static_cast<std::size_t>(to)].push_back({start, arrival});
        }
      }
      return arrival;
    }
  }

  Seconds ReadyTime(const OpId& op) {
    Seconds ready = 0.0;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      ready = std::max(ready, dep.cross_stage ? Arrival(dep.op) : DoneTime(dep.op));
    });
    return ready;
  }

  bool DepsDone(const OpId& op) const {
    bool all = true;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      all = all && IsDone(dep.op);
    });
    return all;
  }

  // Fault-aware pricing: where a compute op started at `start` finishes.
  Seconds ComputeEnd(int stage, const OpId& op, Seconds start) const {
    if constexpr (!kTable) {
      if (faulty_) {
        return faulty_->ComputeEndAt(stage, op, start);
      }
    }
    return start + costs_.ComputeTime(op);
  }

  // First instant >= t the stage may start work (skips fail-stop downtime).
  Seconds StartAt(Seconds t) const {
    if constexpr (!kTable) {
      if (faulty_) {
        return faulty_->NextUpTime(t);
      }
    }
    return t;
  }

  void RecordSpan(const OpSpan& span) {
    if constexpr (!kTable) {
      if (options_.record_timeline) {
        timeline_.push_back(span);
      }
    }
  }

  void RecordCompute(int stage, const OpId& op, Seconds start, Seconds end) {
    RecordSpan({stage, op, start, end, /*is_transfer=*/false});
    Stream& s = StreamOf(stage);
    s.busy += end - start;
    s.first_start = std::min(s.first_start, start);
    s.last_end = std::max(s.last_end, end);
  }

  // A stage's memory only changes at its own clock, which never runs
  // backwards, so the running peak and the series need no sorting.
  void AddMem(int stage, Seconds time, Bytes delta) {
    Stream& s = StreamOf(stage);
    s.resident += delta;
    s.peak = std::max(s.peak, s.resident);
    if constexpr (!kTable) {
      if (options_.record_memory_timeline) {
        auto& series = memory_timeline_[static_cast<std::size_t>(stage)];
        if (!series.empty() && series.back().time == time) {
          series.back().bytes = s.resident;  // coalesce simultaneous deltas
        } else {
          series.push_back({time, s.resident});
        }
      }
    }
  }

  // Releases the activation (and act-grad) footprint of (micro, slice,
  // chunk) at `time` on `stage`.
  void ReleaseSlice(int stage, const OpId& op, Seconds time, bool release_act_grad) {
    const OpId forward{OpKind::kForward, op.micro, op.slice, op.chunk, -1, op.job};
    AddMem(stage, time, -costs_.ActivationBytes(forward));
    if (release_act_grad) {
      const OpId backward{OpKind::kBackward, op.micro, op.slice, op.chunk, -1, op.job};
      AddMem(stage, time, -costs_.ActGradBytes(backward));
    }
  }

  // Executes W items from the stage's queue into the idle window
  // [clock, until). Never overshoots `until`.
  void FillWgrad(int stage, Seconds until) {
    if (options_.wgrad_mode == WgradMode::kImmediate) {
      return;
    }
    Stream& s = StreamOf(stage);
    while (!s.wqueue.empty()) {
      WgradItem& item = s.wqueue.front();
      if (item.available > s.clock + kEps) {
        break;
      }
      const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                         item.next_gemm, item.op.job};
      const OpId& exec_op = item.gemm_count > 1 ? gemm_op : item.op;
      const Seconds start = StartAt(s.clock);
      const Seconds end = ComputeEnd(stage, exec_op, start);
      if (end > until + kEps) {
        break;  // does not fit in the bubble
      }
      RecordCompute(stage, exec_op, start, end);
      s.clock = end;
      if (++item.next_gemm >= item.gemm_count) {
        SetDone(item.op, end);
        ReleaseSlice(stage, item.op, end, /*release_act_grad=*/true);
        s.wqueue.pop_front();
      }
    }
  }

  // Frees memory by draining deferred W items until `incoming` more bytes
  // fit within the stage's activation budget (no-op when unbudgeted).
  // When the queue runs dry with the stage still over budget, the
  // allocation is admitted and the violation recorded — or, under
  // strict_activation_budget, the engine throws.
  void DrainForBudget(int stage, Bytes incoming) {
    if (options_.activation_budget.empty()) {
      return;
    }
    const Bytes budget = options_.activation_budget[static_cast<std::size_t>(stage)];
    if (budget <= 0) {
      return;  // 0 = this stage is unbudgeted
    }
    Stream& s = StreamOf(stage);
    while (!s.wqueue.empty() && s.resident + incoming > budget) {
      DrainWgradItem(stage, s.wqueue.front());
      s.wqueue.pop_front();
    }
    const Bytes resident = s.resident + incoming;
    if (resident > budget) {
      const Bytes overflow = resident - budget;
      if constexpr (!kTable) {
        MEPIPE_CHECK(!options_.strict_activation_budget)
            << "stage " << stage << " exceeds its activation budget by " << overflow
            << " bytes with no deferred W work left to drain";
      }
      ++s.overflow_count;
      s.overflow_bytes = std::max(s.overflow_bytes, overflow);
    }
  }

  // Runs a W item (whole or remaining GEMMs) to completion immediately.
  void DrainWgradItem(int stage, WgradItem& item) {
    Stream& s = StreamOf(stage);
    s.clock = std::max(s.clock, item.available);
    if (item.gemm_count <= 1) {
      const Seconds start = StartAt(s.clock);
      const Seconds end = ComputeEnd(stage, item.op, start);
      RecordCompute(stage, item.op, start, end);
      s.clock = end;
    } else {
      for (; item.next_gemm < item.gemm_count; ++item.next_gemm) {
        const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                           item.next_gemm, item.op.job};
        const Seconds start = StartAt(s.clock);
        const Seconds end = ComputeEnd(stage, gemm_op, start);
        RecordCompute(stage, gemm_op, start, end);
        s.clock = end;
      }
    }
    SetDone(item.op, s.clock);
    ReleaseSlice(stage, item.op, s.clock, /*release_act_grad=*/true);
  }

  // Schedules every stage's DP gradient buckets on that stage's comm
  // stream against the finished run. Each bucket starts at max(stream
  // free, last gradient producer done); with dp_link_shared its
  // transmission is additionally suspended while pipeline transfers
  // touching the stage hold the fabric. Fills result.dp and each stage's
  // dp_sync. Correctness of the hidden/exposed split: every bucket
  // dependency and every pipeline transfer ends by result.makespan, so
  // past the makespan the stream runs gap-free and unstretched — the
  // exposed tail per stage is at most that stage's summed bucket cost,
  // hence exposed <= serialized and hidden >= 0.
  void RunDpSync(SimResult& result) {
    // Merge each stage's fabric-busy intervals (empty unless shared).
    const bool shared = !fabric_busy_.empty();
    for (auto& intervals : fabric_busy_) {
      std::sort(intervals.begin(), intervals.end());
      std::vector<std::pair<Seconds, Seconds>> merged;
      for (const auto& interval : intervals) {
        if (!merged.empty() && interval.first <= merged.back().second) {
          merged.back().second = std::max(merged.back().second, interval.second);
        } else {
          merged.push_back(interval);
        }
      }
      intervals = std::move(merged);
    }
    // End of a transmission of `work` seconds entering at `start`,
    // suspended across the sorted disjoint busy `intervals`.
    const auto advance = [](const std::vector<std::pair<Seconds, Seconds>>& intervals,
                            Seconds start, Seconds work) {
      Seconds t = start;
      Seconds remaining = work;
      for (const auto& [begin, end] : intervals) {
        if (end <= t) {
          continue;  // already past this interval
        }
        if (t + remaining <= begin) {
          break;  // finishes before the fabric is next claimed
        }
        if (t >= begin) {
          t = end;  // entered mid-interval: wait it out
          continue;
        }
        remaining -= begin - t;  // transmit until the pipeline claims the link
        t = end;                 // suspended while its transfer runs
      }
      return t + remaining;
    };

    for (int stage = 0; stage < problem_.stages; ++stage) {
      std::vector<std::pair<Seconds, OpId>> buckets;  // (ready, bucket)
      Seconds total = 0;
      for (const OpId& bucket : sched::DpSyncOps(problem_, stage, schedule_.job)) {
        const Seconds duration = costs_.DpSyncTime(bucket);
        if (duration <= 0) {
          continue;  // the model does not price this bucket
        }
        Seconds ready = 0;
        sched::ForEachDependency(problem_, bucket, [&](const Dep& dep) {
          const Seconds done = DoneTime(dep.op);
          MEPIPE_CHECK(done != kNotDone)
              << "DP bucket scheduled before its gradients completed";
          ready = std::max(ready, done);
        });
        buckets.push_back({ready, bucket});
        total += duration;
      }
      // NCCL-style launch order: buckets enqueue as their gradients
      // become ready (stable on chunk order for deterministic ties).
      std::stable_sort(buckets.begin(), buckets.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      Seconds stream = 0;
      for (const auto& [ready, bucket] : buckets) {
        const Seconds start = std::max(stream, ready);
        const Seconds end =
            shared ? advance(fabric_busy_[static_cast<std::size_t>(stage)], start,
                             costs_.DpSyncTime(bucket))
                   : start + costs_.DpSyncTime(bucket);
        RecordSpan({stage, bucket, start, end, /*is_transfer=*/true});
        result.stages[static_cast<std::size_t>(stage)].dp_sync += end - start;
        stream = end;
        ++result.dp.buckets;
      }
      result.dp.serialized = std::max(result.dp.serialized, total);
      result.dp.last_end = std::max(result.dp.last_end, stream);
    }
    result.dp.exposed = std::max(0.0, result.dp.last_end - result.makespan);
    result.dp.hidden = std::max(0.0, result.dp.serialized - result.dp.exposed);
  }

  const sched::Schedule& schedule_;
  const sched::PipelineProblem& problem_;
  const CostModel& costs_;
  const Options& options_;

  // Completion times live in one dense per-op arena (kNotDone sentinel)
  // and the per-directed-link free times in a flat stages × stages
  // matrix, each allocated once; the hot loop does index arithmetic only.
  const sched::OpIndex index_;
  std::vector<Seconds> done_;
  std::vector<Stream> streams_;
  // Simulate only.
  std::vector<double> link_free_;
  std::vector<OpSpan> timeline_;
  std::vector<std::vector<MemoryPoint>> memory_timeline_;
  // Per stage, the [start, arrival) of every pipeline transfer it sends
  // or receives (sized only under dp_overlap && dp_link_shared).
  std::vector<std::vector<std::pair<Seconds, Seconds>>> fabric_busy_;
  std::optional<FaultyCostModel> faulty_;
};

template <typename Options>
SimResult Engine<Options>::Run() {
  std::size_t remaining = 0;
  for (const auto& ops : schedule_.stage_ops) {
    remaining += ops.size();
  }
  if constexpr (!kTable) {
    if (options_.record_timeline) {
      // Compute spans plus at most one transfer per F/B op; per-GEMM W
      // splits can push past this, at which point the vector grows normally.
      timeline_.reserve(2 * remaining);
    }
  }

  while (remaining > 0) {
    bool progress = false;
    for (int stage = 0; stage < problem_.stages; ++stage) {
      Stream& s = StreamOf(stage);
      const auto& ops = schedule_.stage_ops[static_cast<std::size_t>(stage)];
      while (s.cursor < ops.size()) {
        const OpId& op = ops[s.cursor];
        if (!DepsDone(op)) {
          break;
        }
        Seconds& done = done_[index_(op)];
        MEPIPE_CHECK(done == kNotDone) << "stage " << stage << " lists " << sched::ToString(op)
                                       << " twice";
        const Seconds ready = ReadyTime(op);
        if (ready > s.clock) {
          FillWgrad(stage, ready);
        }
        if (op.kind == OpKind::kForward) {
          DrainForBudget(stage, costs_.ActivationBytes(op));
        } else if (op.kind == OpKind::kBackward && problem_.split_backward) {
          DrainForBudget(stage, costs_.ActGradBytes(op));
        }
        const Seconds start = StartAt(std::max(s.clock, ready));
        const Seconds end = ComputeEnd(stage, op, start);
        RecordCompute(stage, op, start, end);
        s.clock = end;
        done = end;

        if (op.kind == OpKind::kForward) {
          AddMem(stage, end, costs_.ActivationBytes(op));
        } else if (op.kind == OpKind::kWeightGrad) {
          // Statically placed W (non-deferred split schedules).
          ReleaseSlice(stage, op, end, /*release_act_grad=*/true);
        } else if (!problem_.split_backward) {
          ReleaseSlice(stage, op, end, /*release_act_grad=*/false);
        } else {
          AddMem(stage, end, costs_.ActGradBytes(op));
          if (schedule_.deferred_wgrad) {
            const OpId w{OpKind::kWeightGrad, op.micro, op.slice, op.chunk, -1, op.job};
            WgradItem item{w, end, 0,
                           options_.wgrad_mode == WgradMode::kFillGemms
                               ? costs_.WeightGradGemmCount(w)
                               : 1};
            if (options_.wgrad_mode == WgradMode::kImmediate) {
              DrainWgradItem(stage, item);
            } else {
              s.wqueue.push_back(item);
            }
          }
        }
        ++s.cursor;
        --remaining;
        progress = true;
      }
    }
    MEPIPE_CHECK(progress) << "schedule deadlocks: " << remaining
                           << " ops can never execute under program order";
  }

  // Drain any weight-gradient work still queued (zero-bubble tail).
  for (int stage = 0; stage < problem_.stages; ++stage) {
    auto& queue = StreamOf(stage).wqueue;
    while (!queue.empty()) {
      DrainWgradItem(stage, queue.front());
      queue.pop_front();
    }
  }

  SimResult result;
  for (const Stream& s : streams_) {
    result.makespan = std::max(result.makespan, s.last_end);
  }
  result.stages.resize(static_cast<std::size_t>(problem_.stages));

  // Overlapped data-parallel gradient sync: a post-pass over the now
  // fixed compute/transfer timeline. Buckets only read completed
  // gradients, and under dp_link_shared DP yields the fabric to the
  // pipeline, so nothing above moves — how much sync hides in bubbles
  // and how much tail is exposed past the makespan simply emerges.
  if (options_.dp_overlap) {
    RunDpSync(result);
  }

  double bubble_sum = 0;
  for (int stage = 0; stage < problem_.stages; ++stage) {
    const Stream& s = StreamOf(stage);
    StageMetrics& metrics = result.stages[static_cast<std::size_t>(stage)];
    metrics.busy = s.busy;
    metrics.peak_activation = s.peak;
    metrics.bubble_ratio = result.makespan > 0 ? 1.0 - metrics.busy / result.makespan : 0.0;
    if (s.first_start <= s.last_end) {  // the stage ran at least one compute op
      metrics.warmup_idle = s.first_start;
      metrics.steady_idle = std::max(0.0, (s.last_end - s.first_start) - metrics.busy);
      metrics.drain_idle = std::max(0.0, result.makespan - s.last_end);
    } else {
      metrics.warmup_idle = result.makespan;  // never ran: all warmup
    }
    metrics.budget_violations = s.overflow_count;
    metrics.budget_overflow_bytes = s.overflow_bytes;
    result.budget_violations += metrics.budget_violations;
    result.peak_activation = std::max(result.peak_activation, metrics.peak_activation);
    bubble_sum += metrics.bubble_ratio;
  }
  result.bubble_ratio = bubble_sum / problem_.stages;
  if constexpr (!kTable) {
    if (faulty_) {
      result.fault_spans = faulty_->Spans();
    }
    result.memory_timeline = std::move(memory_timeline_);
    if (options_.record_timeline) {
      result.timeline = std::move(timeline_);
      std::sort(result.timeline.begin(), result.timeline.end(),
                [](const OpSpan& a, const OpSpan& b) {
                  return a.start < b.start || (a.start == b.start && a.stage < b.stage);
                });
    }
  }
  return result;
}

}  // namespace

SimResult Simulate(const sched::Schedule& schedule, const CostModel& costs,
                   const EngineOptions& options) {
  return Engine<EngineOptions>(schedule, costs, options).Run();
}

SimResult PriceScheduleTable(const sched::Schedule& schedule, const CostModel& costs,
                             const TableOptions& options) {
  return Engine<TableOptions>(schedule, costs, options).Run();
}

}  // namespace mepipe::sim
