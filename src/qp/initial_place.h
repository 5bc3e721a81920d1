// Mixed-size initial placement (mIP, Sec. III): quadratic wirelength
// minimization only — no spreading. Produces the low-wirelength /
// high-overlap seed v_mIP that mGP starts from.
#pragma once

#include <cstddef>

#include "model/netlist.h"

namespace ep {

class RuntimeContext;

struct InitialPlaceConfig {
  int outerIterations = 8;   ///< B2B rebuild count
  int cgMaxIterations = 300;
  double cgTolerance = 1e-6;
  /// Weight of the weak anchor to the region center added to every movable
  /// when the design has no fixed pins (keeps the system SPD).
  double fallbackAnchor = 1e-6;
  /// Deterministic jitter (fraction of region size) applied to the seed so
  /// the first B2B linearization has distinct bounds.
  double seedJitter = 1e-3;
  std::uint64_t seed = 1;
};

struct InitialPlaceResult {
  double hpwlBefore = 0.0;
  double hpwlAfter = 0.0;
  int totalCgIterations = 0;
};

/// Bytes mIP holds while it runs, an upper bound sized from the netlist's
/// pin count: the B2B emissions and the CSR assembled from them, the CG
/// workspace, the position and right-hand-side vectors, and the variable
/// map. quadraticInitialPlace charges exactly this to the context's
/// MemoryBudget before allocating any of it.
std::size_t mipWorkspaceBytes(const PlacementDB& db);

/// Runs mIP: seeds every movable at the region center (with jitter), then
/// alternates B2B model construction and CG solves per axis, the CG on the
/// context's pool (bit-identical for any thread count). Updates object
/// positions in `db` (centers clamped into the region). Throws
/// MemoryBudgetExceeded when the context's budget cannot hold
/// mipWorkspaceBytes(db); pool task exceptions propagate.
InitialPlaceResult quadraticInitialPlace(PlacementDB& db,
                                         const InitialPlaceConfig& cfg = {},
                                         RuntimeContext* ctx = nullptr);

}  // namespace ep
