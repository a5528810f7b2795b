#include "core/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/ensure.hpp"

namespace soda::core {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kFeasibilityTolerance = 1e-9;

// Pruning margin: a subtree is cut only when its admissible lower bound
// exceeds the incumbent by more than this. The slack absorbs the few ulps
// by which the factored bound arithmetic can differ from the exact
// per-step arithmetic, so pruning can never drop a strictly-better (or
// tying) sequence and the search stays plan-identical to the exhaustive
// enumeration.
double PruneMargin(double bound) {
  return 1e-9 + 1e-12 * std::abs(bound);
}

struct StepOutcome {
  double next_buffer = 0.0;
  double cost = 0.0;
  bool feasible = true;
};

StepOutcome EvaluateStep(const CostModel& model, double predicted_mbps,
                         media::Rung rung, media::Rung prev_rung,
                         double buffer_s, bool charge_switch,
                         bool hard_constraints) {
  const double bitrate = model.RungBitrate(rung);
  const double raw_next = model.NextBuffer(buffer_s, predicted_mbps, bitrate);
  const double max_buffer = model.Config().max_buffer_s;

  StepOutcome out;
  out.next_buffer = std::clamp(raw_next, 0.0, max_buffer);
  if (hard_constraints) {
    out.feasible = raw_next >= -kFeasibilityTolerance &&
                   raw_next <= max_buffer + kFeasibilityTolerance;
  }
  out.cost = model.RungIntervalCost(predicted_mbps, rung,
                                    charge_switch ? prev_rung : -1,
                                    out.next_buffer);
  return out;
}

// Anchor rung used when there is no previous bitrate: the highest rung the
// predicted throughput sustains.
media::Rung AnchorRung(const CostModel& model, double predicted_mbps) {
  return model.Ladder().HighestRungAtMost(predicted_mbps);
}

// Terminal tail: the plan's last rung is assumed to persist for
// `tail_intervals` more intervals at the last predicted throughput. Charges
// the distortion term plus the buffer cost at the midpoint of the
// continuation's buffer drift, so an unsustainable final rung (which would
// drain the buffer right after the horizon) is not scored as a free ride.
double TailCost(const CostModel& model, double tail_intervals,
                double predicted_mbps, media::Rung rung, double buffer_s) {
  if (tail_intervals <= 0.0) return 0.0;
  const double bitrate = model.RungBitrate(rung);
  const double drift_per_interval =
      model.NextBuffer(buffer_s, predicted_mbps, bitrate) - buffer_s;
  const double mid_buffer =
      std::clamp(buffer_s + 0.5 * tail_intervals * drift_per_interval, 0.0,
                 model.Config().max_buffer_s);
  return tail_intervals *
         (model.RungDistortionTermCost(predicted_mbps, rung) +
          model.Config().weights.beta * model.BufferCost(mid_buffer));
}

// Fills `lb_suffix[d]` with an admissible lower bound on the cost of
// completing a plan from interval d (including the terminal tail), for
// d in [0, K]. Computed once per Solve.
void FillLowerBoundSuffix(const CostModel& model, const SolverConfig& config,
                          std::span<const double> predicted_mbps,
                          double* lb_suffix) {
  const double min_term = model.MinDistortionTermPerMbps();
  const std::size_t horizon = predicted_mbps.size();
  lb_suffix[horizon] = config.tail_intervals > 0.0
                           ? config.tail_intervals *
                                 (predicted_mbps.back() * min_term)
                           : 0.0;
  for (std::size_t d = horizon; d > 0; --d) {
    lb_suffix[d - 1] = lb_suffix[d] + predicted_mbps[d - 1] * min_term;
  }
}

// The exact leaf total the search would compute for `plan` — the same
// left-to-right accumulation and tail cost — or infinity when the plan is
// infeasible. Used to seed the warm-start incumbent; because the
// accumulation mirrors the DFS arithmetic operation for operation, the
// returned value can never undercut the objective the search itself would
// assign to the same sequence.
double ExactPlanTotal(const CostModel& model, const SolverConfig& config,
                      std::span<const double> predicted_mbps,
                      std::span<const media::Rung> plan, double buffer_s,
                      media::Rung anchor, bool has_prev) {
  double accumulated = 0.0;
  double buffer = buffer_s;
  media::Rung prev = anchor;
  bool charge_switch = has_prev;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const StepOutcome step =
        EvaluateStep(model, predicted_mbps[i], plan[i],
                     charge_switch ? prev : -1, buffer, charge_switch,
                     config.hard_buffer_constraints);
    if (!step.feasible) return kInfinity;
    accumulated = accumulated + step.cost;
    buffer = step.next_buffer;
    prev = plan[i];
    charge_switch = true;
  }
  return accumulated + TailCost(model, config.tail_intervals,
                                predicted_mbps.back(), plan.back(), buffer);
}

bool PlanRungsValid(const CostModel& model,
                    std::span<const media::Rung> plan) {
  for (const media::Rung r : plan) {
    if (r < 0 || r >= model.RungCount()) return false;
  }
  return true;
}

// True when [anchor, plan...] is non-decreasing or non-increasing — i.e.
// the plan lies inside MonotonicSolver's search space, which guarantees
// its cost is an upper bound on the monotone optimum.
bool PlanIsMonotone(std::span<const media::Rung> plan, media::Rung anchor) {
  bool non_decreasing = true;
  bool non_increasing = true;
  media::Rung prev = anchor;
  for (const media::Rung r : plan) {
    if (r < prev) non_decreasing = false;
    if (r > prev) non_increasing = false;
    prev = r;
  }
  return non_decreasing || non_increasing;
}

void ValidatePredictions(std::span<const double> predicted_mbps) {
  SODA_ENSURE(!predicted_mbps.empty(), "need at least one prediction");
  SODA_ENSURE(predicted_mbps.size() <=
                  static_cast<std::size_t>(kMaxSolverHorizon),
              "planning horizon exceeds kMaxSolverHorizon");
  for (const double w : predicted_mbps) {
    SODA_ENSURE(w > 0.0, "predicted throughput must be positive");
  }
}

// Which monotone space a partial plan lies in. A plan that has held the
// anchor so far lies in both; once it moves it is up-only or down-only.
enum class Space { kHold, kUp, kDown };

// The first-found minimum over one direction's monotone space.
struct Incumbent {
  double objective = 0.0;
  media::Rung plan[kMaxSolverHorizon];
  bool found = false;
};

// One MonotonicSolver::Solve: a depth-first walk over the up and down spaces
// together. A node that still holds the anchor visits its hold child, then
// its up children (ascending), then its down children (descending), so the
// shared hold prefix is walked once while each direction still meets its
// own plans in the order a separate up-only or down-only search would. Each
// leaf is offered to the incumbent of every space that contains it; the
// all-hold plan, the walk's first leaf, to both.
class MonotoneWalk {
 public:
  MonotoneWalk(const CostModel& model, const SolverConfig& config,
               std::span<const double> predicted_mbps, const double* lb_suffix,
               double bound)
      : model_(model),
        config_(config),
        predicted_(predicted_mbps),
        horizon_(static_cast<int>(predicted_mbps.size())),
        lb_suffix_(lb_suffix),
        bound_(bound),
        cutoff_(bound + PruneMargin(bound)) {}

  // Enters the node for interval `depth`: `prev` is the rung of the last
  // planned interval (the anchor at the root) and `buffer_s` the buffer
  // after it.
  void Visit(int depth, double buffer_s, media::Rung prev, bool charge_switch,
             double accumulated, Space space) {
    ++expanded;
    if (depth == horizon_) {
      Leaf(accumulated + TailCost(model_, config_.tail_intervals,
                                  predicted_.back(), prev, buffer_s),
           space);
      return;
    }
    // Branch-and-bound: even a zero-switch, target-buffer completion costs
    // at least lb_suffix[depth]; cut the subtree when that cannot beat the
    // incumbent (within the float-safety margin that keeps results
    // plan-identical to the exhaustive search).
    if (lb_suffix_ != nullptr && accumulated + lb_suffix_[depth] >= cutoff_) {
      ++pruned;
      return;
    }
    switch (space) {
      case Space::kHold:
        Child(depth, buffer_s, prev, charge_switch, accumulated, prev,
              Space::kHold);
        Siblings<+1>(depth, buffer_s, prev, charge_switch, accumulated,
                     prev + 1);
        Siblings<-1>(depth, buffer_s, prev, charge_switch, accumulated,
                     prev - 1);
        return;
      case Space::kUp:
        Siblings<+1>(depth, buffer_s, prev, charge_switch, accumulated, prev);
        return;
      case Space::kDown:
        Siblings<-1>(depth, buffer_s, prev, charge_switch, accumulated, prev);
        return;
    }
  }

  Incumbent up;
  Incumbent down;
  long long sequences = 0;
  long long expanded = 0;
  long long pruned = 0;
  // Whether the all-hold plan was feasible and so reached as the first leaf.
  bool hold_leaf_reached = false;

 private:
  // Children `first`, `first + kDirection`, ... up to the ladder's end, all
  // in that direction's space. Sibling cutoff: before paying for a child's
  // step, compare the part of its cost that is known without the buffer
  // term (the switch terms, plus the distortion term when moving down) plus
  // the remaining bound with the incumbent. Each part is non-decreasing as
  // r moves away from `prev` in the loop's direction, so once one child
  // cannot win, no later sibling can either, and the run is cut.
  template <int kDirection>
  void Siblings(int depth, double buffer_s, media::Rung prev,
                bool charge_switch, double accumulated, media::Rung first) {
    constexpr Space space = kDirection > 0 ? Space::kUp : Space::kDown;
    const media::Rung end = kDirection > 0 ? model_.Ladder().HighestRung()
                                           : model_.Ladder().LowestRung();
    const CostWeights& weights = model_.Config().weights;
    const double w = predicted_[static_cast<std::size_t>(depth)];
    for (media::Rung r = first; kDirection > 0 ? r <= end : r >= end;
         r += kDirection) {
      if (lb_suffix_ != nullptr) {
        double floor = lb_suffix_[depth + 1];
        if (charge_switch) {
          floor += weights.gamma * model_.RungSwitchCost(r, prev);
          if (r != prev) floor += weights.kappa;
        }
        if (kDirection < 0) floor += model_.RungDistortionTermCost(w, r);
        if (accumulated + floor >= cutoff_) {
          ++pruned;
          return;
        }
      }
      Child(depth, buffer_s, prev, charge_switch, accumulated, r, space);
    }
  }

  void Child(int depth, double buffer_s, media::Rung prev, bool charge_switch,
             double accumulated, media::Rung r, Space space) {
    const StepOutcome step =
        EvaluateStep(model_, predicted_[static_cast<std::size_t>(depth)], r,
                     charge_switch ? prev : -1, buffer_s, charge_switch,
                     config_.hard_buffer_constraints);
    if (!step.feasible) return;
    stack_[depth] = r;
    Visit(depth + 1, step.next_buffer, r, /*charge_switch=*/true,
          accumulated + step.cost, space);
  }

  void Leaf(double total, Space space) {
    ++sequences;
    if (space != Space::kDown) Offer(up, total);
    if (space != Space::kUp) Offer(down, total);
    if (space == Space::kHold) hold_leaf_reached = true;
    if (total < bound_) {
      bound_ = total;
      cutoff_ = total + PruneMargin(total);
    }
  }

  void Offer(Incumbent& best, double total) {
    if (best.found && !(total < best.objective)) return;
    best.found = true;
    best.objective = total;
    std::copy_n(stack_, horizon_, best.plan);
  }

  const CostModel& model_;
  const SolverConfig& config_;
  std::span<const double> predicted_;
  int horizon_;
  // Remaining-cost lower bounds; null when pruning is off.
  const double* lb_suffix_;
  // Incumbent objective shared by both spaces, and the cost at or above
  // which a subtree cannot beat it.
  double bound_;
  double cutoff_;
  // The partial plan of the node being visited.
  media::Rung stack_[kMaxSolverHorizon];
};

}  // namespace

MonotonicSolver::MonotonicSolver(const CostModel& model, SolverConfig config)
    : model_(&model), config_(config) {}

PlanResult MonotonicSolver::Solve(std::span<const double> predicted_mbps,
                                  double buffer_s,
                                  media::Rung prev_rung) const {
  return Solve(predicted_mbps, buffer_s, prev_rung, {});
}

PlanResult MonotonicSolver::Solve(std::span<const double> predicted_mbps,
                                  double buffer_s, media::Rung prev_rung,
                                  std::span<const media::Rung> warm_plan) const {
  ValidatePredictions(predicted_mbps);

  const bool has_prev = prev_rung >= 0;
  const media::Rung anchor =
      has_prev ? prev_rung : AnchorRung(*model_, predicted_mbps.front());

  // Solve-scoped arena: the bound table lives on the stack and the walk
  // allocates nothing.
  double lb_storage[kMaxSolverHorizon + 1];
  const double* lb_suffix = nullptr;
  if (config_.enable_pruning) {
    FillLowerBoundSuffix(*model_, config_, predicted_mbps, lb_storage);
    lb_suffix = lb_storage;
  }

  // Incumbent objective shared by both directions, seeded by the warm plan
  // when one is usable. Used purely for pruning: the bound can only ever
  // hold the cost of a plan inside the search space, so the optimum always
  // survives and the chosen result matches the cold exhaustive search
  // exactly.
  double bound = kInfinity;
  bool warm_holds_anchor = false;
  if (config_.enable_pruning && warm_plan.size() == predicted_mbps.size() &&
      PlanRungsValid(*model_, warm_plan) &&
      PlanIsMonotone(warm_plan, anchor)) {
    // A plan that holds the anchor throughout is the walk's first leaf, and
    // no sibling is visited before it, so its total would cut nothing:
    // skip evaluating it. The walk reaches that leaf exactly when the plan
    // is feasible, that is, when it would have seeded the bound.
    warm_holds_anchor =
        std::all_of(warm_plan.begin(), warm_plan.end(),
                    [anchor](media::Rung r) { return r == anchor; });
    if (!warm_holds_anchor) {
      bound = ExactPlanTotal(*model_, config_, predicted_mbps, warm_plan,
                             buffer_s, anchor, has_prev);
    }
  }

  MonotoneWalk walk(*model_, config_, predicted_mbps, lb_suffix, bound);
  walk.Visit(0, buffer_s, anchor, has_prev, 0.0, Space::kHold);

  PlanResult result;
  result.sequences_evaluated = walk.sequences;
  result.nodes_expanded = walk.expanded;
  result.nodes_pruned = walk.pruned;
  result.warm_start_used =
      bound < kInfinity || (warm_holds_anchor && walk.hold_leaf_reached);
  // Down wins an exact up/down tie.
  const Incumbent* chosen = nullptr;
  if (walk.up.found &&
      (!walk.down.found || walk.up.objective < walk.down.objective)) {
    chosen = &walk.up;
  } else if (walk.down.found) {
    chosen = &walk.down;
  }
  if (chosen != nullptr) {
    result.feasible = true;
    result.first_rung = chosen->plan[0];
    result.objective = chosen->objective;
    result.plan.assign(chosen->plan, chosen->plan + predicted_mbps.size());
  }
  return result;
}

BruteForceSolver::BruteForceSolver(const CostModel& model, SolverConfig config)
    : model_(&model), config_(config) {}

void BruteForceSolver::SearchAll(std::span<const double> predicted_mbps,
                                 int depth, double buffer_s, media::Rung prev,
                                 bool charge_switch, double accumulated,
                                 media::Rung* stack, PlanResult& best,
                                 media::Rung* best_plan,
                                 const double* lb_suffix,
                                 double& bound) const {
  const int horizon = static_cast<int>(predicted_mbps.size());
  ++best.nodes_expanded;
  if (depth == horizon) {
    const double total =
        accumulated + TailCost(*model_, config_.tail_intervals,
                               predicted_mbps.back(), prev, buffer_s);
    ++best.sequences_evaluated;
    if (!best.feasible || total < best.objective) {
      best.feasible = true;
      best.objective = total;
      best.first_rung = stack[0];
      std::copy_n(stack, horizon, best_plan);
    }
    if (total < bound) bound = total;
    return;
  }
  if (lb_suffix != nullptr &&
      accumulated + lb_suffix[depth] >= bound + PruneMargin(bound)) {
    ++best.nodes_pruned;
    return;
  }
  const auto& ladder = model_->Ladder();
  const double w = predicted_mbps[static_cast<std::size_t>(depth)];
  for (media::Rung r = ladder.LowestRung(); r <= ladder.HighestRung(); ++r) {
    const StepOutcome step =
        EvaluateStep(*model_, w, r, charge_switch ? prev : -1, buffer_s,
                     charge_switch, config_.hard_buffer_constraints);
    if (!step.feasible) continue;
    stack[depth] = r;
    SearchAll(predicted_mbps, depth + 1, step.next_buffer, r,
              /*charge_switch=*/true, accumulated + step.cost, stack, best,
              best_plan, lb_suffix, bound);
  }
}

PlanResult BruteForceSolver::Solve(std::span<const double> predicted_mbps,
                                   double buffer_s,
                                   media::Rung prev_rung) const {
  return Solve(predicted_mbps, buffer_s, prev_rung, {});
}

PlanResult BruteForceSolver::Solve(std::span<const double> predicted_mbps,
                                   double buffer_s, media::Rung prev_rung,
                                   std::span<const media::Rung> warm_plan) const {
  ValidatePredictions(predicted_mbps);
  const double combos =
      std::pow(static_cast<double>(model_->Ladder().Count()),
               static_cast<double>(predicted_mbps.size()));
  SODA_ENSURE(combos <= 2e7, "brute-force search space too large");

  const bool has_prev = prev_rung >= 0;
  const media::Rung anchor =
      has_prev ? prev_rung : AnchorRung(*model_, predicted_mbps.front());

  media::Rung stack[kMaxSolverHorizon];
  media::Rung best_plan[kMaxSolverHorizon];
  double lb_storage[kMaxSolverHorizon + 1];
  const double* lb_suffix = nullptr;
  if (config_.enable_pruning) {
    FillLowerBoundSuffix(*model_, config_, predicted_mbps, lb_storage);
    lb_suffix = lb_storage;
  }

  double bound = kInfinity;
  if (config_.enable_pruning && warm_plan.size() == predicted_mbps.size() &&
      PlanRungsValid(*model_, warm_plan)) {
    // The brute-force space contains every rung sequence, so any feasible
    // plan's exact total is a valid incumbent.
    bound = ExactPlanTotal(*model_, config_, predicted_mbps, warm_plan,
                           buffer_s, anchor, has_prev);
  }

  PlanResult best;
  best.warm_start_used = bound < kInfinity;
  SearchAll(predicted_mbps, 0, buffer_s, anchor, has_prev, 0.0, stack, best,
            best_plan, lb_suffix, bound);
  if (best.feasible) {
    best.plan.assign(best_plan, best_plan + predicted_mbps.size());
  }
  return best;
}

double EvaluatePlan(const CostModel& model,
                    std::span<const double> predicted_mbps,
                    std::span<const media::Rung> plan, double buffer_s,
                    media::Rung prev_rung, bool hard_buffer_constraints) {
  SODA_ENSURE(plan.size() == predicted_mbps.size(),
              "plan and prediction lengths must match");
  SODA_ENSURE(PlanRungsValid(model, plan), "plan rung out of range");
  double total = 0.0;
  double buffer = buffer_s;
  media::Rung prev = prev_rung;
  bool charge_switch = prev_rung >= 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const StepOutcome step = EvaluateStep(
        model, predicted_mbps[i], plan[i], charge_switch ? prev : -1, buffer,
        charge_switch, hard_buffer_constraints);
    if (!step.feasible) return kInfinity;
    total += step.cost;
    buffer = step.next_buffer;
    prev = plan[i];
    charge_switch = true;
  }
  return total;
}

}  // namespace soda::core
