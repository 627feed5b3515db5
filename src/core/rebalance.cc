#include "core/rebalance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/check.h"
#include "common/format.h"
#include "sched/generator.h"

namespace mepipe::core {
namespace {

// Guard for floor(T / s) at T values that are exact products U·s.
constexpr double kFloorEps = 1e-9;

std::string JoinInts(const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out;
}

double SafeRatio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 1.0;
}

}  // namespace

double StageProfile::max_slowdown() const {
  double worst = 1.0;
  for (const double s : slowdown) {
    worst = std::max(worst, s);
  }
  return worst;
}

void StageProfile::Validate(int stages) const {
  MEPIPE_CHECK_EQ(static_cast<int>(slowdown.size()), stages)
      << "profile has " << slowdown.size() << " entries for " << stages << " stages";
  for (const double s : slowdown) {
    MEPIPE_CHECK(std::isfinite(s) && s >= 1.0)
        << "stage slowdown must be finite and >= 1, got " << s;
  }
}

StageProfile EstimateStageSlowdowns(const sim::SimResult& clean,
                                    const sim::SimResult& faulted) {
  MEPIPE_CHECK_EQ(clean.stages.size(), faulted.stages.size())
      << "clean/faulted runs disagree on stage count";
  MEPIPE_CHECK(!clean.stages.empty()) << "cannot estimate a profile from an empty run";
  StageProfile profile;
  profile.slowdown.reserve(clean.stages.size());
  for (std::size_t i = 0; i < clean.stages.size(); ++i) {
    const Seconds base = clean.stages[i].busy;
    const Seconds dilated = faulted.stages[i].busy;
    profile.slowdown.push_back(base > 0 ? std::max(1.0, dilated / base) : 1.0);
  }
  return profile;
}

StageProfile EstimateStageSlowdowns(const sim::FaultPlan& plan, int stages, Seconds horizon) {
  MEPIPE_CHECK_GT(stages, 0);
  MEPIPE_CHECK_GT(horizon, 0) << "profile horizon must be positive";
  plan.Validate(stages);
  StageProfile profile;
  profile.slowdown.assign(static_cast<std::size_t>(stages), 1.0);
  for (const sim::StragglerFault& fault : plan.stragglers) {
    const Seconds begin = std::max<Seconds>(fault.begin, 0);
    const Seconds end = std::min(fault.end, horizon);
    if (end <= begin) {
      continue;
    }
    profile.slowdown[static_cast<std::size_t>(fault.stage)] +=
        (end - begin) / horizon * (fault.slowdown - 1.0);
  }
  return profile;
}

void WindowedProfileOptions::Validate() const {
  MEPIPE_CHECK_GE(window, 1) << "detection window must hold at least one iteration";
  MEPIPE_CHECK(min_observations >= 1 && min_observations <= window)
      << "min_observations " << min_observations << " outside [1, window=" << window << "]";
  MEPIPE_CHECK_GT(trigger_threshold, 1.0) << "trigger threshold must exceed 1";
  MEPIPE_CHECK_GE(hysteresis_windows, 1);
}

namespace {

// Median-normalized per-stage busy ratios of a partial window: the raw
// deviation of each stage from the plan's expected busy time, anchored
// on the majority so a uniform fleet-wide dilation reads as 1 everywhere.
std::vector<double> WindowRatiosFrom(const std::vector<Seconds>& baseline_busy,
                                     const std::vector<Seconds>& window_busy_sum, int observed) {
  MEPIPE_CHECK_GE(observed, 1) << "a windowed profile needs at least one observation";
  MEPIPE_CHECK_EQ(baseline_busy.size(), window_busy_sum.size())
      << "baseline/window busy vectors disagree on stage count";
  MEPIPE_CHECK(!baseline_busy.empty()) << "cannot estimate a profile over zero stages";
  std::vector<double> ratios(baseline_busy.size(), 1.0);
  for (std::size_t i = 0; i < baseline_busy.size(); ++i) {
    MEPIPE_CHECK_GE(baseline_busy[i], 0.0) << "negative baseline busy time";
    MEPIPE_CHECK_GE(window_busy_sum[i], 0.0) << "negative windowed busy time";
    const Seconds mean = window_busy_sum[i] / static_cast<double>(observed);
    ratios[i] = baseline_busy[i] > 0 ? mean / baseline_busy[i] : 1.0;
  }
  std::vector<double> sorted = ratios;
  std::nth_element(sorted.begin(), sorted.begin() + (sorted.size() - 1) / 2, sorted.end());
  const double median = sorted[(sorted.size() - 1) / 2];  // lower median
  if (median > 0) {
    for (double& r : ratios) {
      r /= median;
    }
  }
  return ratios;
}

StageProfile ProfileFromRatios(const std::vector<double>& ratios) {
  StageProfile profile;
  profile.slowdown.reserve(ratios.size());
  for (const double r : ratios) {
    profile.slowdown.push_back(std::max(1.0, r));
  }
  return profile;
}

}  // namespace

StageProfile EstimateStageSlowdowns(const std::vector<Seconds>& baseline_busy,
                                    const std::vector<Seconds>& window_busy_sum, int observed) {
  return ProfileFromRatios(WindowRatiosFrom(baseline_busy, window_busy_sum, observed));
}

SlowdownWindowEstimator::SlowdownWindowEstimator(std::vector<Seconds> baseline_busy,
                                                 const WindowedProfileOptions& options)
    : options_(options) {
  options_.Validate();
  Reset(std::move(baseline_busy));
}

void SlowdownWindowEstimator::Reset(std::vector<Seconds> baseline_busy) {
  MEPIPE_CHECK(!baseline_busy.empty()) << "estimator baseline needs at least one stage";
  for (const Seconds b : baseline_busy) {
    MEPIPE_CHECK_GE(b, 0.0) << "negative baseline busy time";
  }
  baseline_ = std::move(baseline_busy);
  accum_.assign(baseline_.size(), 0.0);
  accum_count_ = 0;
  window_profile_ = {};
  window_ratios_.clear();
  deviant_windows_ = 0;
}

bool SlowdownWindowEstimator::Observe(const std::vector<Seconds>& busy) {
  MEPIPE_CHECK(!baseline_.empty()) << "Observe() on an estimator without a baseline";
  MEPIPE_CHECK_EQ(busy.size(), baseline_.size()) << "observation/baseline stage mismatch";
  for (std::size_t i = 0; i < busy.size(); ++i) {
    MEPIPE_CHECK_GE(busy[i], 0.0) << "negative observed busy time";
    accum_[i] += busy[i];
  }
  ++accum_count_;
  if (accum_count_ < options_.window) {
    return false;
  }
  CloseWindow();
  return true;
}

bool SlowdownWindowEstimator::ClosePartialWindow() {
  if (accum_count_ < options_.min_observations) {
    // Under the confidence gate: too few observations to trust — drop.
    accum_.assign(baseline_.size(), 0.0);
    accum_count_ = 0;
    return false;
  }
  CloseWindow();
  return true;
}

void SlowdownWindowEstimator::CloseWindow() {
  window_ratios_ = WindowRatiosFrom(baseline_, accum_, accum_count_);
  window_profile_ = ProfileFromRatios(window_ratios_);
  double deviation = 1.0;
  for (const double r : window_ratios_) {
    deviation = std::max(deviation, std::max(r, r > 0 ? 1.0 / r : deviation));
  }
  if (deviation >= options_.trigger_threshold) {
    ++deviant_windows_;
  } else {
    deviant_windows_ = 0;  // one clean window re-arms the hysteresis
  }
  ++windows_closed_;
  accum_.assign(baseline_.size(), 0.0);
  accum_count_ = 0;
}

StageProfile SlowdownWindowEstimator::PartialProfile() const {
  MEPIPE_CHECK(!baseline_.empty()) << "PartialProfile() on an estimator without a baseline";
  if (accum_count_ < options_.min_observations) {
    StageProfile flat;
    flat.slowdown.assign(baseline_.size(), 1.0);
    return flat;
  }
  return ProfileFromRatios(WindowRatiosFrom(baseline_, accum_, accum_count_));
}

const StageProfile& SlowdownWindowEstimator::WindowProfile() const { return window_profile_; }

const std::vector<double>& SlowdownWindowEstimator::WindowRatios() const {
  return window_ratios_;
}

bool SlowdownWindowEstimator::PersistentDeviation() const {
  return deviant_windows_ >= options_.hysteresis_windows;
}

std::vector<int> PartitionUnitsBySpeed(int total_units, const std::vector<double>& slowdown,
                                       int min_units) {
  const int workers = static_cast<int>(slowdown.size());
  MEPIPE_CHECK_GT(workers, 0);
  MEPIPE_CHECK_GE(min_units, 1);
  MEPIPE_CHECK_GE(total_units, workers * min_units)
      << total_units << " units cannot give " << workers << " workers " << min_units << " each";
  for (const double s : slowdown) {
    MEPIPE_CHECK(std::isfinite(s) && s > 0) << "slowdown must be finite and positive, got " << s;
  }

  // Candidate bottlenecks are products U · s_i; feasibility of T is
  // monotone, so binary search the smallest feasible candidate.
  std::vector<double> candidates;
  candidates.reserve(static_cast<std::size_t>(workers) *
                     static_cast<std::size_t>(total_units - min_units + 1));
  for (const double s : slowdown) {
    for (int u = min_units; u <= total_units; ++u) {
      candidates.push_back(u * s);
    }
  }
  std::sort(candidates.begin(), candidates.end());

  auto units_at = [&](double bottleneck) {
    std::vector<int> units(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      const double quota = bottleneck / slowdown[static_cast<std::size_t>(i)];
      const int whole = static_cast<int>(std::floor(quota + kFloorEps));
      units[static_cast<std::size_t>(i)] = std::clamp(whole, min_units, total_units);
    }
    return units;
  };
  auto feasible = [&](double bottleneck) {
    std::int64_t capacity = 0;
    for (int i = 0; i < workers; ++i) {
      const double s = slowdown[static_cast<std::size_t>(i)];
      if (min_units * s > bottleneck + kFloorEps) {
        return false;  // the min allocation alone already exceeds T
      }
      capacity += static_cast<int>(std::floor(bottleneck / s + kFloorEps));
    }
    return capacity >= total_units;
  };

  std::size_t lo = 0;
  std::size_t hi = candidates.size() - 1;
  MEPIPE_CHECK(feasible(candidates[hi])) << "no feasible bottleneck (internal)";
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible(candidates[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  std::vector<int> units = units_at(candidates[lo]);
  std::int64_t assigned = std::accumulate(units.begin(), units.end(), std::int64_t{0});
  MEPIPE_CHECK_GE(assigned, total_units) << "floor capacity below total (internal)";
  // Trim the surplus off the most-loaded workers: removing a unit there
  // can only lower (never raise) the realized bottleneck.
  while (assigned > total_units) {
    int victim = -1;
    double worst_load = -1.0;
    for (int i = 0; i < workers; ++i) {
      if (units[static_cast<std::size_t>(i)] <= min_units) {
        continue;
      }
      const double load = units[static_cast<std::size_t>(i)] * slowdown[static_cast<std::size_t>(i)];
      if (load > worst_load) {
        worst_load = load;
        victim = i;
      }
    }
    MEPIPE_CHECK_GE(victim, 0) << "partition trim stuck (internal)";
    --units[static_cast<std::size_t>(victim)];
    --assigned;
  }
  return units;
}

double RebalancePlan::unit_ratio(int chunk) const {
  if (old_units.empty() || chunk < 0 || chunk >= static_cast<int>(old_units.size())) {
    return 1.0;
  }
  return SafeRatio(new_units[static_cast<std::size_t>(chunk)],
                   old_units[static_cast<std::size_t>(chunk)]);
}

double RebalancePlan::stage_unit_ratio(const sched::PipelineProblem& problem, int stage) const {
  if (old_units.empty()) {
    return 1.0;
  }
  double before = 0;
  double after = 0;
  for (int c = 0; c < problem.num_chunks() && c < static_cast<int>(old_units.size()); ++c) {
    if (problem.stage_of_chunk(c) != stage) {
      continue;
    }
    before += old_units[static_cast<std::size_t>(c)];
    after += new_units[static_cast<std::size_t>(c)];
  }
  return SafeRatio(after, before);
}

std::string RebalancePlan::Summary() const {
  std::string out;
  auto append = [&out](const std::string& part) {
    if (!out.empty()) {
      out += "; ";
    }
    out += part;
  };
  if (!old_units.empty()) {
    append(StrFormat("units %s -> %s", JoinInts(old_units).c_str(), JoinInts(new_units).c_str()));
  }
  if (resliced()) {
    std::string tokens;
    for (std::size_t i = 0; i < new_spans.size(); ++i) {
      if (i > 0) {
        tokens += ',';
      }
      tokens += std::to_string(new_spans[i].tokens);
    }
    append("slice tokens " + tokens);
  }
  if (!old_caps.empty()) {
    append(StrFormat("caps %s -> %s", JoinInts(old_caps).c_str(), JoinInts(new_caps).c_str()));
  }
  if (out.empty()) {
    return "no-op";
  }
  out += StrFormat("; gain %.2fx", predicted_gain);
  return out;
}

std::vector<std::string> RebalancePlan::StageLabels(const sched::PipelineProblem& problem) const {
  std::vector<std::string> labels;
  labels.reserve(static_cast<std::size_t>(problem.stages));
  for (int stage = 0; stage < problem.stages; ++stage) {
    std::string label;
    if (stage < static_cast<int>(profile.slowdown.size())) {
      label = StrFormat("x%.2f", profile.slowdown[static_cast<std::size_t>(stage)]);
    }
    if (!old_units.empty()) {
      int before = 0;
      int after = 0;
      for (int c = 0; c < problem.num_chunks() && c < static_cast<int>(old_units.size()); ++c) {
        if (problem.stage_of_chunk(c) != stage) {
          continue;
        }
        before += old_units[static_cast<std::size_t>(c)];
        after += new_units[static_cast<std::size_t>(c)];
      }
      label += StrFormat(" units %d->%d", before, after);
    }
    if (stage < static_cast<int>(old_caps.size())) {
      label += StrFormat(" cap %d->%d", old_caps[static_cast<std::size_t>(stage)],
                         new_caps[static_cast<std::size_t>(stage)]);
    }
    labels.push_back(label);
  }
  return labels;
}

RebalancePlan Rebalance(const StageProfile& profile, const sched::PipelineProblem& problem,
                        const RebalanceOptions& options) {
  problem.Validate();
  profile.Validate(problem.stages);
  RebalancePlan plan;
  plan.profile = profile;
  const int chunks = problem.num_chunks();

  // Axis 1 — layers.
  if (options.units_per_chunk > 0) {
    plan.old_units.assign(static_cast<std::size_t>(chunks), options.units_per_chunk);
    plan.new_units = plan.old_units;
    if (options.repartition_layers) {
      std::vector<double> chunk_slowdown(static_cast<std::size_t>(chunks));
      for (int c = 0; c < chunks; ++c) {
        chunk_slowdown[static_cast<std::size_t>(c)] =
            profile.slowdown[static_cast<std::size_t>(problem.stage_of_chunk(c))];
      }
      plan.new_units = PartitionUnitsBySpeed(options.units_per_chunk * chunks, chunk_slowdown,
                                             std::max(1, options.min_units_per_chunk));
      auto bottleneck = [&](const std::vector<int>& units) {
        std::vector<double> load(static_cast<std::size_t>(problem.stages), 0.0);
        for (int c = 0; c < chunks; ++c) {
          load[static_cast<std::size_t>(problem.stage_of_chunk(c))] +=
              units[static_cast<std::size_t>(c)];
        }
        double worst = 0;
        for (int i = 0; i < problem.stages; ++i) {
          worst = std::max(worst, load[static_cast<std::size_t>(i)] *
                                      profile.slowdown[static_cast<std::size_t>(i)]);
        }
        return worst;
      };
      plan.predicted_gain = SafeRatio(bottleneck(plan.old_units), bottleneck(plan.new_units));
    }
  }

  // Axis 2 — slices.
  if (options.rebalance_slices && options.config.hidden > 0 && options.seq_len > 0 &&
      problem.slices > 1) {
    const std::int64_t alignment = std::max<std::int64_t>(1, options.slice_alignment);
    plan.old_spans = options.base_spans;
    if (plan.old_spans.empty()) {
      plan.old_spans = model::AlignSlices(
          model::BalancedSlices(options.config, options.seq_len, problem.slices), alignment);
    }
    MEPIPE_CHECK_EQ(plan.old_spans.size(), static_cast<std::size_t>(problem.slices))
        << "base_spans count disagrees with problem.slices";
    std::int64_t cursor = 0;
    for (const model::SliceSpan& span : plan.old_spans) {
      MEPIPE_CHECK_EQ(span.start, cursor) << "base_spans are not contiguous";
      MEPIPE_CHECK_GT(span.tokens, 0) << "base_spans contain an empty slice";
      cursor = span.end();
    }
    MEPIPE_CHECK_EQ(cursor, options.seq_len) << "base_spans do not cover [0, seq_len)";
    plan.new_spans = model::AlignSlices(
        model::BalancedSlices(options.config, options.seq_len, problem.slices), alignment);
  }

  // Axis 3 — caps. A stage's per-forward activation footprint scales
  // with its layer share, so the cap shrinks/grows inversely to keep
  // the same memory envelope; v·s stays the schedulability floor.
  if (!options.base_caps.empty()) {
    MEPIPE_CHECK_EQ(static_cast<int>(options.base_caps.size()), problem.stages)
        << "base_caps must have one entry per stage";
    plan.old_caps = options.base_caps;
    plan.new_caps = plan.old_caps;
    if (options.retune_caps) {
      const int floor_cap = problem.virtual_chunks * problem.slices;
      for (int i = 0; i < problem.stages; ++i) {
        MEPIPE_CHECK_GE(plan.old_caps[static_cast<std::size_t>(i)], floor_cap)
            << "base cap below the v*s schedulability floor on stage " << i;
        const double ratio = std::max(plan.stage_unit_ratio(problem, i), kFloorEps);
        const int cap = static_cast<int>(
            std::llround(plan.old_caps[static_cast<std::size_t>(i)] / ratio));
        plan.new_caps[static_cast<std::size_t>(i)] = std::max(floor_cap, cap);
      }
    }
  }
  return plan;
}

sched::Schedule RegenerateForProfile(const sched::Schedule& schedule, const StageProfile& profile,
                                     RebalanceOptions rebalance, const std::string& suffix,
                                     RebalancePlan& plan) {
  const sched::PipelineProblem& problem = schedule.problem;
  if (rebalance.base_caps.empty()) {
    const int floor_cap = problem.virtual_chunks * problem.slices;
    rebalance.base_caps.resize(static_cast<std::size_t>(problem.stages));
    for (int i = 0; i < problem.stages; ++i) {
      rebalance.base_caps[static_cast<std::size_t>(i)] =
          std::max(floor_cap, sched::PeakRetainedForwards(schedule, i));
    }
  }
  plan = Rebalance(profile, problem, rebalance);

  sched::GeneratorOptions generator;
  generator.inflight_cap = plan.new_caps;  // set, since the base caps are
  generator.backward_first = true;
  generator.child_count_backward_priority = true;
  generator.wgrad = schedule.deferred_wgrad ? sched::WgradPolicy::kDeferred
                                            : sched::WgradPolicy::kLowestPriority;
  generator.stage_time_scale.resize(static_cast<std::size_t>(problem.stages));
  for (int i = 0; i < problem.stages; ++i) {
    generator.stage_time_scale[static_cast<std::size_t>(i)] =
        profile.slowdown[static_cast<std::size_t>(i)] * plan.stage_unit_ratio(problem, i);
  }
  return sched::GenerateCapped(problem, generator, schedule.method + suffix);
}

RebalancedCostModel::RebalancedCostModel(const sim::CostModel& base,
                                         const sched::PipelineProblem& problem,
                                         const RebalancePlan& plan,
                                         const model::TransformerConfig& config)
    : sim::WrappingCostModel(base) {
  problem.Validate();
  const int chunks = problem.num_chunks();
  unit_ratio_.assign(static_cast<std::size_t>(chunks), 1.0);
  if (!plan.old_units.empty()) {
    MEPIPE_CHECK_EQ(static_cast<int>(plan.old_units.size()), chunks)
        << "plan unit count disagrees with the problem's chunks";
    MEPIPE_CHECK_EQ(plan.new_units.size(), plan.old_units.size());
    for (int c = 0; c < chunks; ++c) {
      MEPIPE_CHECK_GT(plan.old_units[static_cast<std::size_t>(c)], 0);
      unit_ratio_[static_cast<std::size_t>(c)] = plan.unit_ratio(c);
    }
  }
  if (plan.resliced()) {
    MEPIPE_CHECK_GT(config.hidden, 0) << "slice re-pricing needs the model config";
    MEPIPE_CHECK_EQ(plan.old_spans.size(), static_cast<std::size_t>(problem.slices));
    MEPIPE_CHECK_EQ(plan.new_spans.size(), plan.old_spans.size());
    const std::size_t slices = plan.old_spans.size();
    forward_ratio_.resize(slices);
    backward_ratio_.resize(slices);
    wgrad_ratio_.resize(slices);
    token_ratio_.resize(slices);
    for (std::size_t t = 0; t < slices; ++t) {
      const model::SliceSpan& before = plan.old_spans[t];
      const model::SliceSpan& after = plan.new_spans[t];
      MEPIPE_CHECK_GT(before.tokens, 0);
      MEPIPE_CHECK_GT(after.tokens, 0);
      token_ratio_[t] = static_cast<double>(after.tokens) / static_cast<double>(before.tokens);
      forward_ratio_[t] = SafeRatio(model::ForwardLayerFlops(config, after).total(),
                                    model::ForwardLayerFlops(config, before).total());
      backward_ratio_[t] = SafeRatio(model::BackwardLayerFlops(config, after),
                                     model::BackwardLayerFlops(config, before));
      wgrad_ratio_[t] = SafeRatio(model::WeightGradLayerFlops(config, after),
                                  model::WeightGradLayerFlops(config, before));
    }
  }
}

Seconds RebalancedCostModel::ComputeTime(const sched::OpId& op) const {
  double ratio = 1.0;
  if (op.chunk >= 0 && op.chunk < static_cast<int>(unit_ratio_.size())) {
    ratio *= unit_ratio_[static_cast<std::size_t>(op.chunk)];
  }
  if (!forward_ratio_.empty() && op.slice >= 0 &&
      op.slice < static_cast<int>(forward_ratio_.size())) {
    const std::size_t t = static_cast<std::size_t>(op.slice);
    switch (op.kind) {
      case sched::OpKind::kForward:
        ratio *= forward_ratio_[t];
        break;
      case sched::OpKind::kBackward:
        ratio *= backward_ratio_[t];
        break;
      case sched::OpKind::kWeightGrad:
      case sched::OpKind::kWeightGradGemm:
        ratio *= wgrad_ratio_[t];
        break;
      case sched::OpKind::kDpSync:
        break;  // parameter volume is slice-independent; unit ratio applies
    }
  }
  return base().ComputeTime(op) * ratio;
}

Seconds RebalancedCostModel::TransferTime(const sched::OpId& producer) const {
  double ratio = 1.0;
  if (!token_ratio_.empty() && producer.slice >= 0 &&
      producer.slice < static_cast<int>(token_ratio_.size())) {
    ratio = token_ratio_[static_cast<std::size_t>(producer.slice)];
  }
  return base().TransferTime(producer) * ratio;
}

Bytes RebalancedCostModel::ActivationBytes(const sched::OpId& forward) const {
  double ratio = 1.0;
  if (forward.chunk >= 0 && forward.chunk < static_cast<int>(unit_ratio_.size())) {
    ratio *= unit_ratio_[static_cast<std::size_t>(forward.chunk)];
  }
  if (!token_ratio_.empty() && forward.slice >= 0 &&
      forward.slice < static_cast<int>(token_ratio_.size())) {
    ratio *= token_ratio_[static_cast<std::size_t>(forward.slice)];
  }
  return static_cast<Bytes>(std::llround(static_cast<double>(base().ActivationBytes(forward)) * ratio));
}

Bytes RebalancedCostModel::ActGradBytes(const sched::OpId& backward) const {
  double ratio = 1.0;
  if (backward.chunk >= 0 && backward.chunk < static_cast<int>(unit_ratio_.size())) {
    ratio *= unit_ratio_[static_cast<std::size_t>(backward.chunk)];
  }
  if (!token_ratio_.empty() && backward.slice >= 0 &&
      backward.slice < static_cast<int>(token_ratio_.size())) {
    ratio *= token_ratio_[static_cast<std::size_t>(backward.slice)];
  }
  return static_cast<Bytes>(std::llround(static_cast<double>(base().ActGradBytes(backward)) * ratio));
}

Seconds RebalancedCostModel::DpSyncTime(const sched::OpId& bucket) const {
  // A chunk's gradient-bucket volume tracks its parameter share, which
  // moves with the layer re-partition (the latency term is scaled along
  // with it — an approximation, small against the volume term).
  double ratio = 1.0;
  if (bucket.chunk >= 0 && bucket.chunk < static_cast<int>(unit_ratio_.size())) {
    ratio = unit_ratio_[static_cast<std::size_t>(bucket.chunk)];
  }
  return base().DpSyncTime(bucket) * ratio;
}

double MitigationReport::degradation() const {
  return clean_makespan > 0 ? faulted_makespan / clean_makespan : 1.0;
}

double MitigationReport::mitigated_degradation() const {
  return clean_makespan > 0 ? mitigated_makespan / clean_makespan : 1.0;
}

double MitigationReport::improvement() const {
  return mitigated_makespan > 0 ? faulted_makespan / mitigated_makespan : 1.0;
}

MitigationReport MitigateStragglers(const sched::Schedule& schedule, const sim::CostModel& costs,
                                    const sim::FaultPlan& faults,
                                    const MitigationOptions& options) {
  const sched::PipelineProblem& problem = schedule.problem;
  faults.Validate(problem.stages);

  MitigationReport report;
  sim::EngineOptions clean_options = options.engine;
  clean_options.fault_plan = nullptr;
  clean_options.record_timeline = false;  // only busy times and the makespan are read
  const sim::SimResult clean = sim::Simulate(schedule, costs, clean_options);
  report.clean_makespan = clean.makespan;

  sim::EngineOptions faulted_options = options.engine;
  faulted_options.fault_plan = faults;  // copied into shared storage
  report.faulted = sim::Simulate(schedule, costs, faulted_options);
  report.faulted_makespan = report.faulted.makespan;

  report.profile =
      options.profile.empty() ? EstimateStageSlowdowns(clean, report.faulted) : options.profile;
  report.profile.Validate(problem.stages);

  report.mitigated_schedule = RegenerateForProfile(schedule, report.profile, options.rebalance,
                                                   "+rebalanced", report.plan);
  const RebalancedCostModel mitigated_costs(costs, problem, report.plan,
                                            options.rebalance.config);
  report.mitigated = sim::Simulate(report.mitigated_schedule, mitigated_costs, faulted_options);
  report.mitigated_makespan = report.mitigated.makespan;
  return report;
}

}  // namespace mepipe::core
