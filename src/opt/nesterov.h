// Nesterov's method with Lipschitz-constant steplength prediction and
// backtracking — Algorithms 1 and 2 of the paper.
//
// Two iterates u (output) and v (lookahead) advance together:
//   u_{k+1} = v_k - alpha_k * gradPre(v_k)
//   a_{k+1} = (1 + sqrt(4 a_k^2 + 1)) / 2
//   v_{k+1} = u_{k+1} + (a_k - 1)(u_{k+1} - u_k)/a_{k+1}
//
// The steplength is the inverse of the predicted Lipschitz constant
// (Eq. 10): alpha_k = ||v_k - v_{k-1}|| / ||grad(v_k) - grad(v_{k-1})||,
// refined by backtracking (Alg. 2): the candidate v_{k+1} produces a
// *reference* steplength from the (v_{k+1}, v_k) gradient pair; until the
// reference reaches eps times the step taken, the step is re-taken with the
// reference value. The gradient evaluated at the accepted v_{k+1} is cached
// and reused as grad(v_k) of the next iteration, so a pass on the first
// check costs nothing extra (Sec. V-C).
//
// The evaluation callback returns the (optionally preconditioned) gradient;
// preconditioning (Sec. V-D) is the caller's concern — this class only sees
// the final descent vector. An optional projection keeps iterates feasible
// (the placer clamps object centers into the core region).
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace ep {

class ThreadPool;

/// Evaluate the objective at `v`, writing the (preconditioned) gradient into
/// `grad`; returns the objective value (used for reporting only — the
/// optimizer itself is value-free, as in the paper).
using GradFn =
    std::function<double(std::span<const double> v, std::span<double> grad)>;

/// In-place projection of a candidate iterate onto the feasible box.
using ProjectionFn = std::function<void(std::span<double> v)>;

struct NesterovConfig {
  /// Disable to reproduce the "no backtracking" ablation (Sec. V-C).
  bool enableBacktracking = true;
  /// Disable to degrade the method to plain (projected) gradient descent
  /// with Lipschitz steplength — the momentum ablation.
  bool enableMomentum = true;
  /// Bootstrap: the fictitious previous iterate is one small gradient step
  /// away, scaled so the largest coordinate move equals this value.
  double bootstrapMove = 0.1;
};

class NesterovOptimizer {
 public:
  /// `pool` (optional, borrowed) runs the element-wise iterate updates on
  /// its threads; nullptr runs them serially — bit-identical either way by
  /// the determinism contract. The caller's context owns the pool and
  /// outlives the optimizer.
  NesterovOptimizer(std::size_t dim, GradFn fn, NesterovConfig cfg = {},
                    ProjectionFn projection = {}, ThreadPool* pool = nullptr);

  /// Set the start point; evaluates the gradient twice (v0 and the
  /// bootstrap point) to seed the Lipschitz prediction.
  void initialize(std::span<const double> v0);

  struct StepInfo {
    double alpha = 0.0;       ///< accepted steplength
    int backtracks = 0;       ///< Alg. 2 re-takes in this iteration
    double objective = 0.0;   ///< f at the new lookahead point
    double gradNorm = 0.0;    ///< ||gradPre(v_{k+1})||
  };

  /// One accepted iteration of Algorithm 1.
  StepInfo step();

  /// Full optimizer state for checkpoint/rollback recovery: both iterates,
  /// the fictitious previous pair, the cached gradients and the momentum /
  /// steplength scalars. Restoring a snapshot resumes exactly where it was
  /// taken.
  struct Snapshot {
    std::vector<double> u, cur, prev;
    std::vector<double> curGrad, prevGrad;
    double a = 1.0;
    double lastAlpha = 0.0;
    int iter = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// snapshot() into an existing Snapshot: vector assignment reuses the
  /// destination's capacity, so refreshing a same-dimension checkpoint
  /// performs no heap allocation (the Nesterov-loop zero-alloc contract).
  void snapshotInto(Snapshot& s) const;
  void restore(const Snapshot& s);

  /// Post-rollback cool restart: drops the accumulated momentum (a_k back
  /// to 1) and scales the remembered steplength down so the re-run leaves
  /// the checkpoint cautiously instead of re-taking the diverging step.
  void coolRestart(double alphaScale);

  /// Current output solution u_k.
  [[nodiscard]] std::span<const double> solution() const { return u_; }
  /// Current lookahead iterate v_k (where gradients are evaluated).
  [[nodiscard]] std::span<const double> lookahead() const { return cur_; }
  /// Gradient evaluations so far (for the runtime experiments).
  [[nodiscard]] long evalCount() const { return evals_; }
  /// Total backtracks so far.
  [[nodiscard]] long backtrackCount() const { return backtracks_; }
  [[nodiscard]] int iteration() const { return iter_; }

 private:
  double evaluate(std::span<const double> v, std::span<double> grad);

  /// Runs body(i0, i1) over [0, dim) — on the pool when one was given,
  /// inline otherwise.
  template <typename Body>
  void forRange(Body&& body);

  std::size_t dim_;
  GradFn fn_;
  NesterovConfig cfg_;
  ProjectionFn project_;
  ThreadPool* pool_ = nullptr;

  std::vector<double> u_, cur_, prev_;
  std::vector<double> curGrad_, prevGrad_;
  std::vector<double> uNext_, vNext_, gradNext_;
  double a_ = 1.0;
  double lastAlpha_ = 0.0;
  long evals_ = 0;
  long backtracks_ = 0;
  int iter_ = 0;
};

}  // namespace ep
