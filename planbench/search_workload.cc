// The fixed-budget search workloads (search_gpt3, search_deepnet).
//
// Each measured operation is one AcesoSearch at a fixed evaluation budget
// (the wall-clock budget is out of the way), on a fresh PerformanceModel over
// a profile database that set-up has already filled. With a fixed budget the
// search is deterministic for a given input, so every search of a run must
// choose the same plan; the chosen plan and the rest of the model's top-k
// are then executed on the discrete-event runtime.
//
// The two workloads load different layers. gpt3-2.6b on 16 GPUs is
// generation-bound: most candidates are duplicates or stage-cache hits, so
// core (candidate generation, recompute fix-up) and config (validation,
// hashing) dominate and cost is cheap. deepnet-1000 on 8 GPUs has 8,003 ops:
// every evaluation does hundreds of profile lookups and every validation
// walks thousands of ops, so cost, profile and the runtime carry the load.
//
// The workload seed is the search's seed and the runtime's jitter seed. The
// profile database keeps the library's default measurement seed: other
// measurement seeds give other trajectories, with run-to-run differences in
// work that would swamp the timings (and on deepnet-1000 some of them give
// top-k plans that run out of memory in the runtime; see
// planbench/METRICS.md).
//
// The traced run (--trace 1) measures from outside: it attaches a
// TelemetrySink for exact work counts, then replays the search's hop
// pattern over the initial and top-k configurations with a span around each
// call into core, config and cost, and attributes search time to layers as
// count x per-call time. serve_mix's traced run uses the same probe on the
// search its misses run.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "planbench/bench.h"
#include "src/common/stopwatch.h"
#include "src/config/parallel_config.h"
#include "src/core/apply.h"
#include "src/core/bottleneck.h"
#include "src/core/finetune.h"
#include "src/core/primitives.h"
#include "src/core/search.h"
#include "src/cost/perf_model.h"
#include "src/ir/models/model_zoo.h"
#include "src/obs/telemetry.h"
#include "src/plan/execution_plan.h"
#include "src/profile/profile_db.h"
#include "src/runtime/pipeline_executor.h"

namespace planbench {
namespace {

using aceso::ClusterSpec;
using aceso::OpGraph;
using aceso::ParallelConfig;
using aceso::PerfResult;
using aceso::PerformanceModel;
using aceso::ProfileDatabase;
using aceso::SearchOptions;
using aceso::SearchResult;

// A workload's search: the model, the cluster size and the options of every
// measured search.
struct SearchCase {
  std::string model;
  int gpus = 0;
  SearchOptions options;
  // Set-ups per run; setup_s is their median.
  int setups = 1;
};

// Stage-count searches run on this many workers: fixed, never derived from
// the machine, and no more than a 4-core machine has.
constexpr int kStageWorkers = 1;
// Bottlenecks the replay explores per configuration (the search's
// max_bottlenecks_per_iteration default), and improvements it follows from
// each stage count's initial configuration.
constexpr int kReplayBottlenecks = 4;
constexpr int kReplaySteps = 4;

// The search workloads search every stage count with `max_evaluations`
// evaluations each. serve_mix's search is the one a miss on its largest
// working-set request runs (deepnet-24 on 8 GPUs, 4 stages, 24 evaluations,
// the daemon's eval_threads=2; see serve_workload.cc).
SearchCase CaseFor(const std::string& workload, uint64_t seed) {
  SearchCase c;
  c.options.seed = seed;
  c.options.time_budget_seconds = 3600.0;  // the evaluation budget binds
  c.options.eval_threads = 1;
  c.options.num_threads = kStageWorkers;
  if (workload == "search_deepnet") {
    c.model = "deepnet-1000";
    c.gpus = 8;
    c.options.max_evaluations = 80;
    c.setups = 5;
  } else if (workload == "serve_mix") {
    c.model = "deepnet-24";
    c.gpus = 8;
    c.options.max_evaluations = 24;
    c.options.min_stages = 4;
    c.options.max_stages = 4;
    c.options.eval_threads = 2;
  } else {
    c.model = "gpt3-2.6b";
    c.gpus = 16;
    c.options.max_evaluations = 500;
    c.setups = 5;
  }
  return c;
}

// Whether a search runs on the calling thread alone, so that moving that
// thread between CPUs moves all of it (a search's pool threads would
// inherit a single-CPU set and share that CPU).
bool SingleThreaded(const SearchOptions& options) {
  return options.eval_threads == 1 && options.num_threads == 1;
}

// The model, cluster and filled profile database every measured search of a
// run shares.
struct Prepared {
  std::unique_ptr<OpGraph> graph;
  ClusterSpec cluster;
  std::unique_ptr<ProfileDatabase> db;
  SearchResult warmup;
  std::vector<double> setup_seconds;
};

// Set-up: build the model and cluster, create the profile database and fill
// it with one warm-up search (the planner profiles a model once and reuses
// the measurements). Done `c.setups` times; the last one is kept.
std::optional<Prepared> Prepare(const SearchCase& c, CpuRotation& rotation) {
  Prepared out;
  for (int i = 0; i < c.setups; ++i) {
    rotation.Next();
    const double t0 = NowSeconds();
    auto graph = aceso::models::BuildByName(c.model);
    if (!graph.ok()) {
      std::fprintf(stderr, "cannot build %s: %s\n", c.model.c_str(),
                   graph.status().ToString().c_str());
      return std::nullopt;
    }
    out.graph = std::make_unique<OpGraph>(std::move(graph).value());
    out.cluster = ClusterSpec::WithGpuCount(c.gpus);
    out.db = std::make_unique<ProfileDatabase>(out.cluster);
    PerformanceModel model(out.graph.get(), out.cluster, out.db.get());
    out.warmup = aceso::AcesoSearch(model, c.options);
    out.setup_seconds.push_back(NowSeconds() - t0);
  }
  return out;
}

// Whether a search chose exactly the warm-up's plan.
bool SamePlan(const SearchResult& a, const SearchResult& b) {
  return a.found == b.found && a.best.semantic_hash == b.best.semantic_hash &&
         a.best.perf.iteration_time == b.best.perf.iteration_time &&
         a.stats.configs_explored == b.stats.configs_explored;
}

// Runs fixed-budget searches on fresh models until `seconds` have passed
// (at least `min_runs`), checking each against the warm-up's plan. With
// `traced`, each search gets its own TelemetrySink and the latest one is
// kept there.
std::vector<double> MeasureSearches(
    const Prepared& p, const SearchOptions& options, double seconds,
    int min_runs, CpuRotation& rotation, Report& report, SearchResult* last,
    std::unique_ptr<aceso::TelemetrySink>* traced = nullptr) {
  std::vector<double> times;
  const double start = NowSeconds();
  while (static_cast<int>(times.size()) < min_runs ||
         NowSeconds() - start < seconds) {
    rotation.Next();
    PerformanceModel model(p.graph.get(), p.cluster, p.db.get());
    SearchOptions run_options = options;
    std::unique_ptr<aceso::TelemetrySink> sink;
    if (traced != nullptr) {
      aceso::TelemetryOptions telemetry;
      telemetry.ring_capacity = 0;  // counters and timers only
      sink = std::make_unique<aceso::TelemetrySink>(telemetry);
      run_options.telemetry = sink.get();
    }
    const double t0 = NowSeconds();
    SearchResult result = aceso::AcesoSearch(model, run_options);
    times.push_back(NowSeconds() - t0);
    ++report.attempted;
    if (!SamePlan(result, p.warmup)) {
      ++report.failed;
      report.Fail("a fixed-budget search chose a different plan than the "
                  "warm-up search");
    }
    *last = std::move(result);
    if (traced != nullptr) {
      *traced = std::move(sink);
    }
  }
  return times;
}

// Output checks on the chosen plan: it validates and lowers to a verified
// execution plan.
void CheckPlan(const Prepared& p, const SearchResult& result, Report& report) {
  if (!result.found) {
    report.Fail("search found no plan");
    return;
  }
  const aceso::Status valid =
      result.best.config.Validate(*p.graph, p.cluster);
  if (!valid.ok()) {
    report.Fail("chosen plan fails Validate: " + valid.ToString());
    return;
  }
  const aceso::ExecutionPlan plan =
      aceso::ExecutionPlan::Lower(*p.graph, result.best.config);
  const aceso::Status verified = plan.Verify();
  if (!verified.ok()) {
    report.Fail("lowered plan fails Verify: " + verified.ToString());
  }
}

// The top-k plans on the discrete-event runtime. Every plan is one attempted
// operation; a plan that runs out of memory there is a failed one.
struct RuntimeOutcome {
  std::vector<aceso::ExecutionResult> runs;  // model order (best first)
  int ok = 0;
};

RuntimeOutcome RunTopK(const Prepared& p, const SearchResult& result,
                       uint64_t seed, Report& report, SpanLog* spans) {
  RuntimeOutcome out;
  PerformanceModel model(p.graph.get(), p.cluster, p.db.get());
  aceso::PipelineExecutor executor(&model);
  aceso::ExecutionOptions options;
  options.seed = seed;
  for (const aceso::ScoredConfig& scored : result.top_configs) {
    aceso::ExecutionResult run;
    {
      ScopedSpan span(spans, "runtime.execute");
      run = executor.Execute(scored.config, options);
    }
    ++report.attempted;
    if (run.oom) {
      ++report.failed;
    } else {
      ++out.ok;
    }
    out.runs.push_back(std::move(run));
  }
  return out;
}

// ---- traced run: replay of the hop pattern ----

// Work the replay did, next to its spans' times.
struct ReplayTotals {
  int64_t generated = 0;       // candidates emitted with recompute attachment
  int64_t generate_evals = 0;  // Evaluate calls made inside those calls
  int64_t finetune_trials = 0;
  int64_t finetune_evals = 0;  // Evaluate calls made inside FineTune
};

// One hop of Algorithm 2 at `config`, one span per call into the library:
// OrderedBottlenecks -> GeneratePrimitiveCandidates (with and without the
// recompute attachment) -> FixRecompute -> SemanticHash -> Validate ->
// Evaluate. Returns the best candidate that improves on `perf`, if any.
std::optional<aceso::ScoredConfig> ReplayHop(const Prepared& p,
                                             const PerformanceModel& model,
                                             const ParallelConfig& config,
                                             const PerfResult& perf,
                                             int64_t parent, SpanLog& spans,
                                             ReplayTotals& totals) {
  std::optional<aceso::ScoredConfig> best;
  std::vector<aceso::Bottleneck> bottlenecks;
  {
    ScopedSpan span(&spans, "core.bottleneck", parent);
    bottlenecks = aceso::OrderedBottlenecks(perf);
  }
  const int attempts =
      std::min<int>(static_cast<int>(bottlenecks.size()), kReplayBottlenecks);
  for (int b = 0; b < attempts; ++b) {
    const aceso::Bottleneck& bn = bottlenecks[static_cast<size_t>(b)];
    for (const aceso::Resource resource : bn.resources) {
      for (const aceso::PrimitiveKind kind :
           aceso::PrimitivesDecreasing(resource, false)) {
        std::vector<aceso::Candidate> candidates;
        const int64_t evals_before = model.NumEvaluations();
        {
          ScopedSpan span(&spans, "core.generate", parent);
          candidates = aceso::GeneratePrimitiveCandidates(
              model, config, perf, kind, bn.stage, true);
        }
        totals.generate_evals += model.NumEvaluations() - evals_before;
        totals.generated += static_cast<int64_t>(candidates.size());
        std::vector<aceso::Candidate> plain;
        {
          ScopedSpan span(&spans, "core.generate_noattach", parent);
          plain = aceso::GeneratePrimitiveCandidates(model, config, perf, kind,
                                                     bn.stage, false);
        }
        for (aceso::Candidate& candidate : plain) {
          ScopedSpan span(&spans, "core.fixrecompute", parent);
          aceso::FixRecompute(model, candidate.config, candidate.stage);
        }
        for (aceso::Candidate& candidate : candidates) {
          aceso::ScoredConfig scored;
          scored.config = std::move(candidate.config);
          {
            ScopedSpan span(&spans, "config.hash", parent);
            scored.semantic_hash = scored.config.SemanticHash(*p.graph);
          }
          {
            ScopedSpan span(&spans, "config.validate", parent);
            (void)scored.config.Validate(*p.graph, p.cluster);
          }
          {
            ScopedSpan span(&spans, "cost.evaluate", parent);
            scored.perf = model.Evaluate(scored.config);
          }
          {
            // What Evaluate computes for a stage on a stage-cache miss.
            ScopedSpan span(&spans, "cost.stage_cost", parent);
            (void)model.ComputeStageCost(scored.config, candidate.stage);
          }
          const PerfResult& bar = best.has_value() ? best->perf : perf;
          if (scored.perf.BetterThan(bar)) {
            best = std::move(scored);
          }
        }
      }
    }
  }
  return best;
}

// Replays the search's hop pattern from outside. From the initial
// configuration of every stage count the search covers it follows a chain of
// improvements (best improving candidate, then FineTune), like Algorithm 1's
// first iterations; each top-k configuration gets one hop. Cold evaluations
// use a fresh model per configuration; everything else runs on `model`,
// whose caches a full search has already warmed.
ReplayTotals Replay(const Prepared& p, const SearchOptions& options,
                    const PerformanceModel& model, const SearchResult& result,
                    SpanLog& spans) {
  ReplayTotals totals;
  std::vector<ParallelConfig> starts;
  const int max_stages =
      options.max_stages > 0
          ? options.max_stages
          : std::min({p.cluster.num_gpus(), p.graph->num_ops(), 12});
  for (int stages = options.min_stages; stages <= max_stages; ++stages) {
    auto initial = aceso::MakeEvenConfig(*p.graph, p.cluster, stages, 1);
    if (initial.ok()) {
      starts.push_back(std::move(initial).value());
    }
  }
  const size_t chains = starts.size();
  for (const aceso::ScoredConfig& scored : result.top_configs) {
    starts.push_back(scored.config);
  }
  for (size_t i = 0; i < starts.size(); ++i) {
    const int64_t request = static_cast<int64_t>(i);
    ParallelConfig config = starts[i];
    {
      PerformanceModel cold(p.graph.get(), p.cluster, p.db.get());
      ScopedSpan span(&spans, "cost.evaluate_cold", -1, request);
      (void)cold.Evaluate(config);
    }
    PerfResult perf = model.Evaluate(config);
    const int steps = i < chains ? kReplaySteps : 1;
    for (int step = 0; step < steps; ++step) {
      const int64_t hop = spans.Begin("replay.hop", -1, request);
      std::optional<aceso::ScoredConfig> next =
          ReplayHop(p, model, config, perf, hop, spans, totals);
      spans.End(hop);
      if (!next.has_value()) {
        break;
      }
      config = std::move(next->config);
      int64_t trials = 0;
      const int64_t evals_before = model.NumEvaluations();
      {
        ScopedSpan span(&spans, "core.finetune", -1, request);
        perf = aceso::FineTune(model, config, next->perf,
                               aceso::TimeBudget(0.0), {}, &trials);
      }
      totals.finetune_evals += model.NumEvaluations() - evals_before;
      totals.finetune_trials += trials;
    }
  }
  return totals;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

// Pairs of top-k plans the runtime orders opposite to the model (both runs
// in memory; model order is best first).
int64_t RankInversions(const RuntimeOutcome& runtime) {
  int64_t inversions = 0;
  const size_t n = runtime.runs.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!runtime.runs[i].oom && !runtime.runs[j].oom &&
          runtime.runs[i].iteration_seconds > runtime.runs[j].iteration_seconds) {
        ++inversions;
      }
    }
  }
  return inversions;
}

void AddEndToEnd(const Prepared& p, const SearchResult& last,
                 const std::vector<double>& search_times,
                 const RuntimeOutcome& runtime, Report& report) {
  const double search_s = Median(search_times);
  report.Add("search_s", search_s, "s");
  report.Add("configs_per_s",
             Ratio(static_cast<double>(last.stats.configs_explored), search_s),
             "1/s");
  const aceso::ExecutionResult& chosen = runtime.runs.front();
  report.Add("plan_samples_per_s",
             chosen.oom ? 0.0 : chosen.Throughput(p.graph->global_batch_size()),
             "1/s");
  report.Add("plan_ok_frac",
             Ratio(runtime.ok, static_cast<double>(runtime.runs.size())), "frac");
  report.Add("setup_s", Median(p.setup_seconds), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("ok_frac",
             Ratio(static_cast<double>(report.attempted - report.failed),
                   static_cast<double>(report.attempted)),
             "frac");
}

void AddPerLayer(const Prepared& p, const SearchResult& last,
                 const std::vector<double>& plain_times,
                 const std::vector<double>& traced_times,
                 const aceso::TelemetrySink& sink, int64_t evaluations,
                 int64_t setup_measurements, const ReplayTotals& replay,
                 const SpanLog& spans, const RuntimeOutcome& runtime,
                 bool primary, Report& report) {
  auto counter = [&sink](const char* name) {
    return static_cast<double>(sink.counter(name));
  };
  const double generated = counter("search.candidates_generated");
  const double deduped = counter("search.candidates_deduped");
  const double finetune_trials = counter("search.finetune_trials");
  const double iterations = counter("search.iterations");
  const double explored = static_cast<double>(last.stats.configs_explored);
  const double evals = static_cast<double>(evaluations);

  // Per-call times from the replay's spans.
  const std::vector<double> generate_calls = spans.Durations("core.generate");
  const double generate_s = Sum(generate_calls);
  const double generate_us = 1e6 * Mean(generate_calls);
  const double fixrecompute_us = 1e6 * Mean(spans.Durations("core.fixrecompute"));
  const double finetune_us = 1e6 * Mean(spans.Durations("core.finetune"));
  const double bottleneck_us = 1e6 * Mean(spans.Durations("core.bottleneck"));
  const double validate_us = 1e6 * Mean(spans.Durations("config.validate"));
  const double hash_us = 1e6 * Mean(spans.Durations("config.hash"));
  const double evaluate_us = 1e6 * Mean(spans.Durations("cost.evaluate"));
  const double evaluate_cold_us =
      1e6 * Mean(spans.Durations("cost.evaluate_cold"));

  report.Add("core.generate_us", generate_us, "us");
  report.Add("core.generate_noattach_us",
             1e6 * Mean(spans.Durations("core.generate_noattach")), "us");
  report.Add("core.fixrecompute_us", fixrecompute_us, "us");
  report.Add("core.scratch_evals_per_config", Ratio(evals - explored, explored),
             "ratio");
  report.Add("core.dedup_ratio", Ratio(deduped, generated), "ratio");
  report.Add("core.finetune_share", Ratio(finetune_trials, explored), "ratio");
  report.Add("core.finetune_us", finetune_us, "us");
  report.Add("core.bottleneck_us", bottleneck_us, "us");
  report.Add("core.accept_rate", Ratio(counter("search.accepts"), iterations),
             "ratio");
  report.Add("config.validate_us", validate_us, "us");
  report.Add("config.hash_us", hash_us, "us");
  report.Add("cost.evaluate_us", evaluate_us, "us");
  report.Add("cost.evaluate_cold_us", evaluate_cold_us, "us");
  report.Add("cost.stage_cost_us", 1e6 * Mean(spans.Durations("cost.stage_cost")),
             "us");
  const double cache_hits = counter("cost.stage_cache_hits");
  const double cache_misses = counter("cost.stage_cache_misses");
  report.Add("cost.stage_cache_hit_rate",
             Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  const double memo_hits = counter("cost.op_memo_hits");
  report.Add("cost.op_memo_hit_rate",
             Ratio(memo_hits, memo_hits + counter("cost.op_memo_misses")),
             "ratio");
  report.Add("cost.batch_saved_per_lane",
             Ratio(counter("search.batch_shared_saved"),
                   counter("search.batch_lanes")),
             "ratio");
  const double lookups = counter("profile_db.lookups");
  report.Add("profile.lookups_per_eval", Ratio(lookups, evals), "ratio");
  report.Add("profile.measurements", static_cast<double>(setup_measurements),
             "count");
  report.Add("profile.l1_hit_rate", Ratio(counter("profile_db.l1_hits"), lookups),
             "ratio");

  // The model's prediction for the chosen plan: deterministic for a
  // workload, so a per-layer figure next to the runtime's measurement.
  report.Add("cost.plan_pred_samples_per_s",
             last.best.perf.Throughput(p.graph->global_batch_size()), "1/s");
  const aceso::ExecutionResult& chosen = runtime.runs.front();
  report.Add("runtime.execute_ms", 1e3 * Median(spans.Durations("runtime.execute")),
             "ms");
  report.Add("runtime.pred_error",
             Ratio(std::abs(chosen.iteration_seconds -
                            last.best.perf.iteration_time),
                   chosen.iteration_seconds),
             "ratio");
  report.Add("runtime.topk_rank_inversions",
             static_cast<double>(RankInversions(runtime)), "count");

  // Exact work counts: they repeat run to run with one stage-count worker
  // (planbench/METRICS.md).
  report.Add("core.configs_explored", explored, "count");
  report.Add("core.evaluations", evals, "count");
  report.Add("core.candidates_generated", generated, "count");
  report.Add("cost.stage_cache_hits", cache_hits, "count");
  report.Add("profile.lookups", lookups, "count");

  // Attribution of one search's busy time (summed over stage-count
  // workers) to layers: exact counts times per-call costs from the replay.
  // Every Evaluate (scratch ones included) is charged to cost at the warm
  // per-call cost plus one stage walk per stage-cache miss, every Validate
  // of a generated candidate to config, and generation and fine-tuning keep
  // the rest of their time (fine-tuning's own validations included).
  const auto timers = sink.Timers();
  const auto worker = timers.find("search.worker_seconds");
  const double busy =
      worker != timers.end() ? worker->second.total_seconds : 0.0;
  const double eval_s = evaluate_us * 1e-6;
  const double stage_cost_s = Mean(spans.Durations("cost.stage_cost"));
  const double validate_s1 = validate_us * 1e-6;
  const double generated_replay = static_cast<double>(replay.generated);
  const double generate_self_per_candidate = std::max(
      0.0, Ratio(generate_s -
                     static_cast<double>(replay.generate_evals) * eval_s -
                     generated_replay * validate_s1,
                 generated_replay));
  const double trials_replay = static_cast<double>(replay.finetune_trials);
  const double finetune_self_per_trial = std::max(
      0.0, Ratio(Sum(spans.Durations("core.finetune")) -
                     static_cast<double>(replay.finetune_evals) * eval_s,
                 trials_replay));
  const double evaluate_total = evals * eval_s + cache_misses * stage_cost_s;
  const double validate_total = generated * validate_s1;
  const double hash_total = generated * hash_us * 1e-6;
  const double generate_total = generated * generate_self_per_candidate;
  const double finetune_total = finetune_trials * finetune_self_per_trial;
  const double bottleneck_total = iterations * bottleneck_us * 1e-6;
  const double attributed = evaluate_total + validate_total + hash_total +
                            generate_total + finetune_total + bottleneck_total;
  report.Add("attrib.core_generate_share", Ratio(generate_total, busy), "ratio");
  report.Add("attrib.core_finetune_share", Ratio(finetune_total, busy), "ratio");
  report.Add("attrib.core_bottleneck_share", Ratio(bottleneck_total, busy),
             "ratio");
  report.Add("attrib.config_validate_share", Ratio(validate_total, busy),
             "ratio");
  report.Add("attrib.config_hash_share", Ratio(hash_total, busy), "ratio");
  report.Add("attrib.cost_evaluate_share", Ratio(evaluate_total, busy), "ratio");
  report.Add("trace.attribution_coverage", Ratio(attributed, busy), "ratio");
  if (primary) {
    const double plain = Median(plain_times);
    report.Add("trace.overhead_frac",
               Ratio(Median(traced_times) - plain, plain), "ratio");
  }
  std::fprintf(stderr,
               "attribution of %.3f busy s per search: generate %.3f, "
               "finetune %.3f, bottleneck %.3f, validate %.3f, hash %.3f, "
               "evaluate %.3f (coverage %.2f)\n",
               busy, generate_total, finetune_total, bottleneck_total,
               validate_total, hash_total, evaluate_total,
               Ratio(attributed, busy));
}

}  // namespace

bool RunSearchWorkload(const Args& args, Report& report) {
  const SearchCase c = CaseFor(args.workload, args.seed);
  CpuRotation rotation(SingleThreaded(c.options));
  std::optional<Prepared> prepared = Prepare(c, rotation);
  if (!prepared.has_value()) {
    return false;
  }
  const Prepared& p = *prepared;
  std::fprintf(stderr, "%s: %s on %d GPUs, %lld evaluations per stage count\n",
               args.workload.c_str(), c.model.c_str(), c.gpus,
               static_cast<long long>(c.options.max_evaluations));
  SearchResult last;
  const std::vector<double> times =
      MeasureSearches(p, c.options, args.seconds, 3, rotation, report, &last);
  CheckPlan(p, last, report);
  const RuntimeOutcome runtime = RunTopK(p, last, args.seed, report, nullptr);
  AddEndToEnd(p, last, times, runtime, report);
  std::fprintf(stderr, "%zu searches, median %.4f s, %lld configs explored\n",
               times.size(), Median(times),
               static_cast<long long>(last.stats.configs_explored));
  return true;
}

// Untraced and traced searches alternate, so their difference is the
// tracing overhead; then the replay and the runtime.
bool TraceSearchLayers(const std::string& workload, uint64_t seed,
                       double seconds, bool primary, Report& report,
                       SpanLog& spans) {
  const SearchCase c = CaseFor(workload, seed);
  CpuRotation rotation(SingleThreaded(c.options));
  std::optional<Prepared> prepared = Prepare(c, rotation);
  if (!prepared.has_value()) {
    return false;
  }
  const Prepared& p = *prepared;
  std::fprintf(stderr, "search probe: %s on %d GPUs, %lld evaluations per "
               "stage count\n", c.model.c_str(), c.gpus,
               static_cast<long long>(c.options.max_evaluations));
  const int64_t setup_measurements = p.db->stats().misses;
  SearchResult last;
  std::vector<double> plain;
  std::vector<double> traced;
  std::unique_ptr<aceso::TelemetrySink> sink;
  const double start = NowSeconds();
  while (plain.size() < 2 || NowSeconds() - start < seconds * 0.6) {
    for (const double t :
         MeasureSearches(p, c.options, 0.0, 1, rotation, report, &last)) {
      plain.push_back(t);
    }
    for (const double t : MeasureSearches(p, c.options, 0.0, 1, rotation,
                                          report, &last, &sink)) {
      traced.push_back(t);
    }
  }
  // The replay runs on the model of one more search, so its caches are as
  // warm as a search leaves them; its NumEvaluations counts the search's
  // scratch evaluations too.
  PerformanceModel model(p.graph.get(), p.cluster, p.db.get());
  (void)aceso::AcesoSearch(model, c.options);
  const int64_t evaluations = model.NumEvaluations();
  CheckPlan(p, last, report);
  const ReplayTotals replay = Replay(p, c.options, model, last, spans);
  const RuntimeOutcome runtime = RunTopK(p, last, seed, report, &spans);
  AddPerLayer(p, last, plain, traced, *sink, evaluations, setup_measurements,
              replay, spans, runtime, primary, report);
  return true;
}

}  // namespace planbench
