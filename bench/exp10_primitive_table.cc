// Table 1 verification — reconfiguration primitives and their resource
// impacts.
//
// Applies each primitive, in isolation (no recompute attachment), to a
// reference configuration and measures the direction of change of the
// bottleneck stage's *per-iteration* resource consumption:
//
//   computation  = (kernel + recompute time per microbatch) x #microbatches
//   communication= (tp/reshard/p2p per microbatch) x #microbatches + dp sync
//   memory       = peak bytes per device
//
// For the tp/dp concurrency primitives the canonical variant is the
// device-migration one (Figure 5(c)(d) show explicit device
// re-arrangement); in-place tp<->dp swaps are an additional capability.
//
// References: most primitives are measured on GPT-3 1.3B over 16 GPUs in 4
// stages with devices {8,4,2,2} and per-stage parallelism (dp8, tp4, dp2,
// tp2), mbs=16, every second op recomputed — a point where every primitive
// has a valid canonical variant and slack in every direction. The
// microbatch primitives use a small-microbatch reference (GPT-3 0.35B,
// 2 stages, tp8, mbs=2), where the kernel-efficiency effect that drives
// their computation trend is strongest.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"

namespace aceso {
namespace bench {
namespace {

char TrendChar(Trend trend) {
  switch (trend) {
    case Trend::kIncrease:
      return '+';
    case Trend::kDecrease:
      return '-';
    case Trend::kUnchanged:
      return '=';
  }
  return '?';
}

std::string Direction(double after, double before) {
  const double eps = 0.005 * std::max(std::abs(before), 1e-12);
  if (std::abs(after - before) <= eps) {
    return "=";
  }
  return after > before ? "+" : "-";
}

struct Consumption {
  double comp = 0.0;
  double comm = 0.0;
  double mem = 0.0;
};

Consumption StageConsumption(const PerfResult& perf, int stage,
                             int64_t num_microbatches) {
  const StageUsage& u = perf.stages[static_cast<size_t>(stage)];
  Consumption c;
  const double n = static_cast<double>(num_microbatches);
  c.comp = (u.comp_time + u.recompute_time) * n;
  c.comm = u.comm_time * n + u.dp_sync_time;
  c.mem = static_cast<double>(u.memory_bytes);
  return c;
}

}  // namespace
}  // namespace bench
}  // namespace aceso

int main() {
  using namespace aceso;
  using namespace aceso::bench;
  PrintHeader("Table 1: reconfiguration primitives",
              "each primitive trades resources as documented: no primitive "
              "decreases everything");

  Workload workload("gpt3-1.3b", 16);
  auto maybe = MakeEvenConfig(workload.graph(), workload.cluster(), 4, 8);
  ACESO_CHECK(maybe.ok());
  ParallelConfig config = *maybe;
  config.set_microbatch_size(16);
  const int devices[4] = {8, 4, 2, 2};
  const int tps[4] = {1, 4, 1, 2};
  for (int s = 0; s < 4; ++s) {
    StageConfig& stage = config.MutableStage(s);
    stage.num_devices = devices[s];
    stage.SetUniformParallelism(workload.graph(), tps[s],
                                devices[s] / tps[s]);
  }
  for (int i = 0; i < workload.graph().num_ops(); i += 2) {
    config.MutableOpSettings(i).recompute = true;
  }
  // Stage 2's data-parallel ops start ZeRO-sharded so dec-zero has work.
  for (OpParallel& setting : config.MutableStage(2).ops) {
    if (setting.dp > 1) {
      setting.zero_opt = true;
    }
  }
  ACESO_CHECK(config.Validate(workload.graph(), workload.cluster()).ok());
  std::printf("reference A: %s\n", config.ShortString().c_str());

  Workload small_workload("gpt3-0.35b", 16);
  auto small_maybe =
      MakeEvenConfig(small_workload.graph(), small_workload.cluster(), 2, 2);
  ACESO_CHECK(small_maybe.ok());
  ParallelConfig small_config = *small_maybe;
  small_config.set_microbatch_size(2);
  for (int s = 0; s < 2; ++s) {
    StageConfig& stage = small_config.MutableStage(s);
    stage.SetUniformParallelism(small_workload.graph(), 8, 1);
  }
  ACESO_CHECK(
      small_config.Validate(small_workload.graph(), small_workload.cluster())
          .ok());
  std::printf("reference B (mbs primitives): %s\n\n",
              small_config.ShortString().c_str());

  const PerfResult before = workload.model().Evaluate(config);
  const PerfResult small_before = small_workload.model().Evaluate(small_config);

  TablePrinter table({"primitive", "mechanism", "table", "measured",
                      "candidate"});
  for (const PrimitiveInfo& info : PrimitiveTable()) {
    // Targets and canonical-variant filters: device-gaining concurrency
    // primitives act on the dp-only 2-GPU stage 2 (donor: stage 1);
    // dec-dp donates from the dp8 stage 0; dec-tp donates from the tp4
    // stage 1; everything else targets stage 1.
    // Per-primitive target stage and canonical-variant selection.
    const bool is_mbs = info.kind == PrimitiveKind::kIncMbs ||
                        info.kind == PrimitiveKind::kDecMbs;
    Workload& wl = is_mbs ? small_workload : workload;
    const ParallelConfig& ref = is_mbs ? small_config : config;
    const PerfResult& ref_perf = is_mbs ? small_before : before;

    int stage = 1;
    std::string filter;
    bool prefer_biggest_move = false;
    switch (info.kind) {
      case PrimitiveKind::kIncOpCount: {
        // Pull ops into the idlest stage: the move counts are then sized by
        // a positive load gap.
        double best = 1e300;
        for (size_t i = 0; i < ref_perf.stages.size(); ++i) {
          if (ref_perf.stages[i].stage_time < best) {
            best = ref_perf.stages[i].stage_time;
            stage = static_cast<int>(i);
          }
        }
        prefer_biggest_move = true;
        break;
      }
      case PrimitiveKind::kDecOpCount:
        stage = ref_perf.slowest_stage;
        prefer_biggest_move = true;
        break;
      case PrimitiveKind::kIncDp:
      case PrimitiveKind::kIncTp:
        stage = 2;
        filter = "gpu";
        break;
      case PrimitiveKind::kDecDp:
        stage = 0;
        filter = "partner dec-dp";
        break;
      case PrimitiveKind::kDecTp:
        stage = 1;
        filter = "partner dec-tp";
        break;
      case PrimitiveKind::kIncZero:
        stage = 0;  // the dp8 stage, optimizer states unsharded
        break;
      case PrimitiveKind::kDecZero:
        stage = 2;  // the dp2 stage seeded with ZeRO enabled
        break;
      default:
        stage = is_mbs ? 0 : 1;
        break;
    }
    auto candidates = GeneratePrimitiveCandidates(
        wl.model(), ref, ref_perf, info.kind, stage,
        /*attach_recompute_fix=*/false);
    const Candidate* chosen = nullptr;
    if (prefer_biggest_move) {
      // The 1-op probes are dominated by boundary-activation effects; the
      // sized moves show the primitive's real direction.
      int best_delta = 0;
      for (const Candidate& c : candidates) {
        if (stage >= c.config.num_stages()) {
          continue;
        }
        const int delta = std::abs(c.config.stage(stage).num_ops -
                                   ref.stage(stage).num_ops);
        if (delta > best_delta) {
          best_delta = delta;
          chosen = &c;
        }
      }
    } else {
      for (const Candidate& c : candidates) {
        if (filter.empty() ||
            DescribeCandidate(c).find(filter) != std::string::npos) {
          chosen = &c;
          break;
        }
      }
    }
    if (chosen == nullptr && !candidates.empty()) {
      chosen = &candidates.front();
    }

    const std::string expected = std::string(1, TrendChar(info.computation)) +
                                 TrendChar(info.communication) +
                                 TrendChar(info.memory);
    std::string measured = "n/a";
    std::string description = "(no applicable candidate)";
    if (chosen != nullptr) {
      const PerfResult after = wl.model().Evaluate(chosen->config);
      const int after_stage =
          std::min(stage, static_cast<int>(after.stages.size()) - 1);
      const Consumption b =
          StageConsumption(ref_perf, stage, ref.NumMicrobatches(wl.graph()));
      const Consumption a = StageConsumption(
          after, after_stage, chosen->config.NumMicrobatches(wl.graph()));
      measured = Direction(a.comp, b.comp) + Direction(a.comm, b.comm) +
                 Direction(a.mem, b.mem);
      description = DescribeCandidate(*chosen);
    }
    table.AddRow({PrimitiveName(info.kind), info.mechanism, expected, measured,
                  description});
  }
  table.Print(std::cout);
  std::printf(
      "\n(comp/comm/mem direction triplets; '+' increase, '-' decrease, "
      "'=' within 0.5%%)\n"
      "Secondary effects the qualitative table omits show up as small "
      "deviations:\nop moves change the stage's p2p boundary bytes (comm "
      "+/- instead of =),\nmicrobatch changes shift collective bucket sizes, "
      "and a single +1op recompute\nprobe can fall below the 0.5%% "
      "threshold.\n");
  return 0;
}
