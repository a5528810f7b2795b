// SODA's horizon solvers.
//
// MonotonicSolver implements Algorithm 1: it searches only bitrate
// sequences that move monotonically (up or down) from the previous bitrate,
// which Theorem 4.3 shows approximates the unconstrained optimum; the
// complexity drops from O(|R|^K) to O(C(|R|+K, K)). BruteForceSolver
// enumerates everything and exists to validate the approximation (Fig. 8)
// and for the micro-benchmarks.
//
// Both solvers plan over K intervals of dt seconds against per-interval
// throughput predictions, with buffer dynamics from the cost model. With
// `hard_buffer_constraints` the planner rejects trajectories leaving
// [0, x_max] (the paper's optimization-phase constraint); in soft mode the
// trajectory is clamped and the boundary cost charged, which is what the
// deployable controller uses so a plan always exists.
//
// MonotonicSolver walks the up and down spaces in one depth-first pass.
// The plans that still hold the previous rung (the anchor) belong to both
// spaces, so that shared prefix is walked once: a node that holds visits
// its hold child, then its up children, then its down children. Each
// direction still meets its own plans in the order of a separate up-only
// or down-only search, which keeps the tie rule: the first-found minimum
// per direction, and down wins an exact up/down tie. The all-hold plan is
// one sequence, scored once and offered to both directions.
//
// Branch-and-bound: with `enable_pruning` (the default) both solvers cut
// subtrees whose accumulated cost plus an admissible remaining-cost lower
// bound cannot beat the incumbent. The bound is the per-interval minimum
// distortion term (the buffer and switching terms are bounded by zero).
// Under the default log distortion v(top rung) = 0, so that bound is 0 and
// a subtree is cut only once its accumulated cost alone reaches the
// incumbent. MonotonicSolver also cuts runs of siblings before paying for
// their step: moving further from the previous rung never lowers the
// switch terms (nor, moving down, the distortion term), so once one child
// cannot win, neither can any later sibling. Pruning is plan-identical:
// the returned feasibility, first rung, objective and full plan are
// exactly those of the exhaustive search; only `sequences_evaluated`
// shrinks. The Solve overload taking `warm_plan` additionally seeds the
// incumbent bound with the cost of a known-good plan (e.g. the previous
// decision's plan shifted by one interval) so pruning engages from the
// first node; the warm plan is used purely as a bound, never returned,
// which keeps warm-started results identical to cold ones. A warm plan
// that holds the anchor throughout is the walk's first leaf, so it is not
// evaluated separately.
#pragma once

#include <span>
#include <vector>

#include "core/cost_model.hpp"

namespace soda::core {

// Hard cap on the planning horizon; lets the solvers keep their search
// stack and bound tables in fixed-size, allocation-free scratch space.
// Far above any practical horizon (the paper uses K <= 10 s / dt).
inline constexpr int kMaxSolverHorizon = 64;

struct SolverConfig {
  bool hard_buffer_constraints = false;
  // Terminal tail: the plan's last rung is assumed to persist for this many
  // extra intervals and its distortion term is charged for them. This
  // approximates the value of ending the horizon at a sustainable quality
  // level, so that one-time switching costs amortize over more than K
  // intervals (K-step lookahead alone undervalues climbing back after a
  // dip). 0 recovers the pure Equation-2 objective used by the theory.
  double tail_intervals = 0.0;
  // Branch-and-bound pruning (see the file comment). Off reproduces the
  // original exhaustive enumeration; the property tests compare the two.
  bool enable_pruning = true;
};

struct PlanResult {
  bool feasible = false;
  media::Rung first_rung = 0;
  double objective = 0.0;
  // Full planned rung sequence (length = horizon).
  std::vector<media::Rung> plan;
  // Number of complete bitrate sequences whose objective was evaluated
  // (pruned subtrees are not counted; MonotonicSolver counts the all-hold
  // plan once, although it lies in both directions).
  long long sequences_evaluated = 0;
  // Search-work counters for observability; they never influence the
  // decision. `nodes_expanded` counts search-tree nodes entered (interior
  // and leaf). `nodes_pruned` counts subtrees cut by the branch-and-bound
  // bound, plus, in MonotonicSolver, runs of siblings cut before their
  // step was evaluated (one per run). `warm_start_used` reports whether a
  // usable warm plan (valid, monotone for MonotonicSolver, and feasible)
  // bounded this solve.
  long long nodes_expanded = 0;
  long long nodes_pruned = 0;
  bool warm_start_used = false;
};

class MonotonicSolver {
 public:
  MonotonicSolver(const CostModel& model, SolverConfig config = {});

  // Plans against `predicted_mbps` (one entry per interval; the horizon is
  // its length). `prev_rung` < 0 means no previous bitrate: the first
  // step's switching cost is dropped and the search is anchored at the
  // throughput-matched rung.
  [[nodiscard]] PlanResult Solve(std::span<const double> predicted_mbps,
                                 double buffer_s, media::Rung prev_rung) const;

  // Warm-started variant: `warm_plan` (same length as the horizon) seeds
  // the pruning incumbent with its exactly-evaluated objective when it is
  // a feasible monotone plan; otherwise it is ignored. The result is
  // always identical to the cold Solve.
  [[nodiscard]] PlanResult Solve(std::span<const double> predicted_mbps,
                                 double buffer_s, media::Rung prev_rung,
                                 std::span<const media::Rung> warm_plan) const;

 private:
  const CostModel* model_;
  SolverConfig config_;
};

class BruteForceSolver {
 public:
  BruteForceSolver(const CostModel& model, SolverConfig config = {});

  [[nodiscard]] PlanResult Solve(std::span<const double> predicted_mbps,
                                 double buffer_s, media::Rung prev_rung) const;

  // Warm-started variant (bound-only, identical results; see
  // MonotonicSolver). Any feasible rung sequence may seed the bound here —
  // the brute-force search space has no monotonicity requirement.
  [[nodiscard]] PlanResult Solve(std::span<const double> predicted_mbps,
                                 double buffer_s, media::Rung prev_rung,
                                 std::span<const media::Rung> warm_plan) const;

 private:
  void SearchAll(std::span<const double> predicted_mbps, int depth,
                 double buffer_s, media::Rung prev, bool charge_switch,
                 double accumulated, media::Rung* stack, PlanResult& best,
                 media::Rung* best_plan, const double* lb_suffix,
                 double& bound) const;

  const CostModel* model_;
  SolverConfig config_;
};

// Evaluates the cost-model objective of a fixed rung sequence (used by
// tests and the theory module). Returns infinity when infeasible under
// hard constraints.
[[nodiscard]] double EvaluatePlan(const CostModel& model,
                                  std::span<const double> predicted_mbps,
                                  std::span<const media::Rung> plan,
                                  double buffer_s, media::Rung prev_rung,
                                  bool hard_buffer_constraints);

}  // namespace soda::core
