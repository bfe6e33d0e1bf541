// Concrete application of reconfiguration primitives to a configuration.
//
// Given a primitive kind and a target (bottleneck) stage, produces the set
// of candidate configurations that one application of the primitive can
// reach, handling:
//
//  * argument choice (§4.1): how many / which operators to move or
//    recompute, picked greedily against the performance model;
//  * partner primitives & partner stages (§3.2.1): device migrations pair an
//    inc-tp/inc-dp on the bottleneck with a dec-dp/dec-tp on a donor stage;
//  * primitive combinations (§4.3): every candidate gets a recomputation
//    fix-up pass attached, and op-count moves relay across intermediate
//    stages toward the idlest stage.
//
// Every returned candidate is structurally valid for the model/cluster.

#ifndef SRC_CORE_APPLY_H_
#define SRC_CORE_APPLY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/config/parallel_config.h"
#include "src/core/primitives.h"
#include "src/cost/perf_model.h"

namespace aceso {

// What one application of a primitive did beyond its kind, in the order
// the generator tries them. `a` and `b` are the detail's arguments.
enum class CandidateDetail : uint8_t {
  kMigrateFromTp,  // +<a>gpu from s<b>, donor shrinks tp ("partner dec-tp")
  kMigrateFromDp,  // +<a>gpu from s<b>, donor shrinks dp ("partner dec-dp")
  kRelayOps,       // <a> ops relayed toward s<b>
  kPushOneOp,      // one op pushed to neighbour s<b>
  kPullOps,        // <a> ops pulled from neighbour s<b>
  kMicrobatch,     // microbatch size set to <a>
  kSwapDpToTp,
  kSwapTpToDp,
  kRecomputeFit,    // recompute until the stage fits (inc-rc)
  kRecomputeOneMore,
  kRecomputeRelax,  // drop recompute while memory allows (dec-rc)
  kRecomputeOneLess,
  kShardOptimizer,
  kReplicateOptimizer,
};

// How a candidate was produced, recorded as plain data: the search never
// reads it, so generation formats no text. DescribeCandidate() renders it.
struct CandidateDescription {
  int stage = 0;  // the stage named in the text (a migration's gaining stage)
  CandidateDetail detail = CandidateDetail::kSwapDpToTp;
  int a = 0;
  int b = 0;
};

// One reachable configuration plus how it was produced.
struct Candidate {
  ParallelConfig config;
  PrimitiveKind primitive;
  int stage = 0;
  CandidateDescription description;
};

// Human-readable account of how `candidate` was produced, e.g.
// "inc-dp(s1) +2gpu from s0 partner dec-tp" or "dec-mbs(s0) mbs=2".
std::string DescribeCandidate(const Candidate& candidate);

// Generates all candidates for applying `kind` at `stage`. `perf` must be
// the evaluation of `config`. `attach_recompute_fix` controls the §4.3
// recompute attachment — disable it to observe a primitive's isolated
// resource impact (used by the Table-1 verification bench).
std::vector<Candidate> GeneratePrimitiveCandidates(
    const PerformanceModel& model, const ParallelConfig& config,
    const PerfResult& perf, PrimitiveKind kind, int stage,
    bool attach_recompute_fix = true);

// §4.3 recompute attachment: greedily enables recomputation (largest stored
// activation first) in `stage` until its memory fits the device, or disables
// it (most expensive recompute first) while memory allows. Mutates `config`
// in place; no-op when the stage cannot be fixed. Stage-local: prices only
// `stage` (PerformanceModel::StageMemoryBytes, so NumEvaluations() does not
// move) and leaves the stage's block shared when no flag changes.
void FixRecompute(const PerformanceModel& model, ParallelConfig& config,
                  int stage);

// Moves `count` ops across the boundary between adjacent stages `from` and
// `to`; moved ops adopt the destination stage's (clamped) parallelism.
// Returns false (leaving `config` untouched) when the move would empty a
// stage or the stages are not adjacent.
bool MoveOps(const PerformanceModel& model, ParallelConfig& config, int from,
             int to, int count);

// Per-microbatch fwd+bwd kernel time of one op under `setting` — the greedy
// choosers' ranking key.
double EstimateOpTime(const PerformanceModel& model, const Operator& op,
                      const OpParallel& setting, int microbatch_size);

}  // namespace aceso

#endif  // SRC_CORE_APPLY_H_
