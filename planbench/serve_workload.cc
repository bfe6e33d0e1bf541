// The serve_mix workload: a PlanDaemon on loopback HTTP, driven open loop.
//
// Set-up starts the daemon through its public API and plans a small working
// set of zoo requests with deterministic evaluation budgets (their first
// answers are what later hits must repeat). The measured load is a seeded
// Poisson schedule: about 90% exact repeats of working-set requests (plan
// cache hits, which never reach core) and about 10% perturbed requests (a
// new search seed, a few layers more or fewer, or a tighter memory budget),
// which miss the cache, are seeded from the cached neighbor plan and run a
// search with the daemon's own eval_threads. The rate sits well below the
// hit path's capacity and keeps misses well under half of the daemon's
// max_inflight_searches slots (about 0.15 in flight on average).
//
// Every request is timed from when it was due, so a stall also delays the
// requests queued behind it; the generator's own lateness is reported next
// to the latencies and a run whose generator fell behind is refused.
//
// What a user of the daemon sees besides latency: how long the search
// behind a miss takes and how fast it explores (the daemon reports both in
// each miss's payload), and how the plans it serves run (the working set's
// plans on the discrete-event runtime).
//
// The traced run (--trace 1) splits the time into an untraced and a traced
// half (spans around each HTTP call; the difference is the tracing
// overhead), then times PlanService::Handle, ParsePlanRequestJson,
// PlanCacheKey and BuildPlanPayload in process. A search workload's traced
// run drives the same probe with its own model as the working set, at a
// rate its misses can keep up with.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "planbench/bench.h"
#include "src/common/json.h"
#include "src/config/config_io.h"
#include "src/core/search.h"
#include "src/cost/perf_model.h"
#include "src/ir/models/model_zoo.h"
#include "src/profile/profile_db.h"
#include "src/runtime/pipeline_executor.h"
#include "src/serve/daemon.h"
#include "src/serve/plan_protocol.h"
#include "src/serve/service.h"

namespace planbench {
namespace {

using aceso::serve::PlanDaemon;

// ---- the request mix ----

struct BaseRequest {
  std::string family;  // zoo name, or "deepnet" for deepnet-<layers>
  int layers;          // deepnet only
  int stages;
  int64_t max_evaluations;
};

// A working set of requests with deterministic evaluation budgets, the
// cluster they ask for, and the open-loop load over them.
struct ServeMix {
  std::vector<BaseRequest> working_set;
  int gpus = 8;
  // Offered rate. serve_mix's keeps its four sender connections mostly idle
  // even when a slow spell on the host stretches every request; twice the
  // rate could back them up past the generator-lag bound.
  double rate_per_second = 500.0;
  // Set-ups per run; setup_s is their median.
  int setups = 25;
  // Perturbed requests the traced run hands to Handle in process.
  int timed_misses = 100;
};

// serve_mix: small zoo models on 8 GPUs at a fixed stage count. The search
// workloads' probe serves their own model at two stage counts, at a rate
// that keeps their much slower misses to a fraction of a search slot.
ServeMix MixFor(const std::string& workload) {
  ServeMix mix;
  if (workload == "search_gpt3") {
    mix.working_set = {{"gpt3-2.6b", 0, 2, 24}, {"gpt3-2.6b", 0, 4, 24}};
    mix.gpus = 16;
    mix.rate_per_second = 200.0;
    mix.setups = 3;
    mix.timed_misses = 50;
  } else if (workload == "search_deepnet") {
    mix.working_set = {{"deepnet", 1000, 2, 24}, {"deepnet", 1000, 4, 24}};
    mix.rate_per_second = 50.0;
    mix.setups = 3;
    mix.timed_misses = 20;
  } else {
    mix.working_set = {
        {"gpt3-0.35b", 0, 2, 24},  {"gpt3-1.3b", 0, 4, 24},
        {"t5-0.77b", 0, 2, 24},    {"wresnet-0.5b", 0, 2, 24},
        {"deepnet", 16, 2, 24},    {"deepnet", 24, 4, 24},
    };
  }
  return mix;
}

// The share of perturbed (miss) requests.
constexpr double kMissShare = 0.10;
// Loopback connections, one sender thread each (no more than nproc).
constexpr int kConnections = 4;
// A run whose generator sent its p99 request later than this is refused.
constexpr double kMaxLagP99Seconds = 0.050;
// Per-request socket timeout; a timed-out request counts as failed.
constexpr int kTimeoutSeconds = 20;

std::string ModelName(const BaseRequest& base, int layers) {
  return base.family == "deepnet" ? "deepnet-" + std::to_string(layers)
                                  : base.family;
}

std::string RequestBody(const ServeMix& mix, const BaseRequest& base,
                        int layers, uint64_t seed, int64_t memory_budget) {
  std::string body = "{\"model\":\"" + ModelName(base, layers) +
                     "\",\"gpus\":" + std::to_string(mix.gpus) +
                     ",\"budget_seconds\":60,\"max_evaluations\":" +
                     std::to_string(base.max_evaluations) +
                     ",\"stages\":" + std::to_string(base.stages);
  if (seed != 0) {
    body += ",\"seed\":" + std::to_string(seed);
  }
  if (memory_budget > 0) {
    body += ",\"memory_budget_bytes\":" + std::to_string(memory_budget);
  }
  body += "}";
  return body;
}

std::string BaseBody(const ServeMix& mix, size_t index) {
  const BaseRequest& base = mix.working_set[index];
  return RequestBody(mix, base, base.layers, 0, 0);
}

struct ScheduledRequest {
  double due = 0.0;  // seconds after the schedule starts
  bool miss = false;
  size_t base = 0;   // working-set index (hits: the request repeated)
  std::string body;
};

// A seeded Poisson schedule over `seconds`. Perturbed requests carry a
// seed unique within the run, so each one misses the cache.
std::vector<ScheduledRequest> MakeSchedule(const ServeMix& mix, uint64_t seed,
                                           double seconds,
                                           uint64_t first_unique) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(mix.rate_per_second);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int64_t capacity =
      aceso::ClusterSpec::WithGpuCount(mix.gpus).gpu.memory_bytes;
  const size_t n_base = mix.working_set.size();
  std::vector<ScheduledRequest> out;
  uint64_t unique = first_unique;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    ScheduledRequest r;
    r.due = t;
    r.base = static_cast<size_t>(rng() % n_base);
    r.miss = unit(rng) < kMissShare;
    if (!r.miss) {
      r.body = BaseBody(mix, r.base);
    } else {
      const BaseRequest& base = mix.working_set[r.base];
      int layers = base.layers;
      int64_t budget = 0;
      switch (rng() % 3) {
        case 0:  // new search seed only
          break;
        case 1:  // a few layers more or fewer (deepnet), else a new seed
          if (base.family == "deepnet") {
            const int delta = 1 + static_cast<int>(rng() % 4);
            layers += (rng() % 2 == 0) ? delta : -delta;
          }
          break;
        default:  // a tighter memory budget
          budget = capacity / 20 * (17 + static_cast<int64_t>(rng() % 3));
          break;
      }
      r.body = RequestBody(mix, base, layers, ++unique, budget);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---- a minimal blocking HTTP/1.1 client (one keep-alive connection) ----
//
// The benchmark carries its own client so the instrument does not change
// when the library's client does.

class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // POSTs `body` to /plan; fills the status code and response body. False
  // on a transport error or timeout (the connection is then closed).
  bool Post(const std::string& body, int* status, std::string* response) {
    if (fd_ < 0 && !Open()) {
      return false;
    }
    const std::string wire =
        "POST /plan HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    if (!SendAll(wire) || !ReadResponse(status, response)) {
      Close();
      return false;
    }
    return true;
  }

 private:
  bool Open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{};
    timeout.tv_sec = kTimeoutSeconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads more bytes into buffer_; false on EOF, error or timeout.
  bool Fill() {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  bool ReadResponse(int* status, std::string* body) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) {
        return false;
      }
    }
    if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0) {
      return false;
    }
    *status = std::atoi(buffer_.c_str() + 9);
    const size_t cl = buffer_.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) {
      return false;  // the daemon frames every non-streamed response
    }
    const size_t length =
        static_cast<size_t>(std::strtoull(buffer_.c_str() + cl + 16, nullptr, 10));
    const size_t total = head_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) {
        return false;
      }
    }
    body->assign(buffer_, head_end + 4, length);
    buffer_.erase(0, total);
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

// The envelope's "cache" member and everything from "payload" on: the part
// of a response that must repeat exactly (request_id differs per request).
std::string CacheKind(const std::string& body) {
  const std::string tag = "\"cache\":\"";
  const size_t at = body.find(tag);
  if (at == std::string::npos) {
    return "";
  }
  const size_t end = body.find('"', at + tag.size());
  return body.substr(at + tag.size(), end - at - tag.size());
}

std::string Payload(const std::string& body) {
  const size_t at = body.find("\"payload\":");
  return at == std::string::npos ? "" : body.substr(at);
}

// ---- set-up ----

aceso::serve::ServeOptions DaemonOptions() {
  aceso::serve::ServeOptions options;
  options.worker_threads = 4;  // fixed, not derived from the machine
  return options;
}

struct Daemon {
  std::unique_ptr<PlanDaemon> daemon;
  std::vector<std::string> first_payloads;  // per working-set request
  std::vector<double> setup_seconds;
};

// Starts the daemon and plans the working set once (these misses are the
// first answers every later hit must repeat). Done `mix.setups` times; the
// last daemon is kept.
std::optional<Daemon> StartDaemon(const ServeMix& mix) {
  Daemon out;
  for (int i = 0; i < mix.setups; ++i) {
    out.daemon.reset();  // stops the previous one, outside the timing
    const double t0 = NowSeconds();
    out.daemon = std::make_unique<PlanDaemon>(DaemonOptions());
    const aceso::Status started = out.daemon->Start("127.0.0.1", 0);
    if (!started.ok()) {
      std::fprintf(stderr, "daemon failed to start: %s\n",
                   started.ToString().c_str());
      return std::nullopt;
    }
    Connection conn(out.daemon->port());
    out.first_payloads.clear();
    for (size_t b = 0; b < mix.working_set.size(); ++b) {
      int status = 0;
      std::string body;
      if (!conn.Post(BaseBody(mix, b), &status, &body) || status != 200 ||
          CacheKind(body) != "miss") {
        std::fprintf(stderr, "warm-up request %zu failed (HTTP %d): %s\n", b,
                     status, body.c_str());
        return std::nullopt;
      }
      out.first_payloads.push_back(Payload(body));
    }
    out.setup_seconds.push_back(NowSeconds() - t0);
  }
  return out;
}

// ---- the open-loop load ----

struct Outcome {
  bool miss = false;
  bool ok = false;       // HTTP 200 with the expected body
  double latency = 0.0;  // done - due
  double lag = 0.0;      // send - due
  std::string body;      // misses only: read once the load is over
};

struct LoadResult {
  std::vector<Outcome> outcomes;
  std::string first_error;
};

LoadResult DriveLoad(const Daemon& d, const std::vector<ScheduledRequest>& schedule,
                     SpanLog* spans) {
  LoadResult result;
  result.outcomes.resize(schedule.size());
  std::vector<SpanLog> logs(kConnections);
  std::vector<std::string> errors(kConnections);
  std::atomic<size_t> next{0};
  const auto start = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(5);
  const double start_s =
      std::chrono::duration<double>(start.time_since_epoch()).count();
  auto sender = [&](int worker) {
    Connection conn(d.daemon->port());
    SpanLog* log = spans != nullptr ? &logs[static_cast<size_t>(worker)] : nullptr;
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) {
        return;
      }
      const ScheduledRequest& r = schedule[i];
      const double due = start_s + r.due;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(r.due)));
      Outcome& o = result.outcomes[i];
      o.miss = r.miss;
      const double send = NowSeconds();
      int status = 0;
      std::string body;
      bool transported;
      {
        ScopedSpan span(log, r.miss ? "serve.http.miss" : "serve.http.hit", -1,
                        static_cast<int64_t>(i));
        transported = conn.Post(r.body, &status, &body);
      }
      const double done = NowSeconds();
      o.lag = send - due;
      o.latency = done - due;
      std::string problem;
      if (!transported) {
        problem = "transport error or timeout";
      } else if (status != 200) {
        problem = "HTTP " + std::to_string(status) + ": " + body;
      } else if (CacheKind(body) != (r.miss ? "miss" : "hit")) {
        problem = "expected a " + std::string(r.miss ? "miss" : "hit") +
                  ", got '" + CacheKind(body) + "'";
      } else if (!r.miss && Payload(body) != d.first_payloads[r.base]) {
        problem = "hit body differs from the request's first answer";
      }
      o.ok = problem.empty();
      if (o.ok && r.miss) {
        o.body = std::move(body);
      }
      if (!o.ok && errors[static_cast<size_t>(worker)].empty()) {
        errors[static_cast<size_t>(worker)] = problem;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kConnections; ++w) {
    threads.emplace_back(sender, w);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int w = 0; w < kConnections; ++w) {
    if (spans != nullptr) {
      spans->Append(logs[static_cast<size_t>(w)]);
    }
    if (result.first_error.empty()) {
      result.first_error = errors[static_cast<size_t>(w)];
    }
  }
  return result;
}

struct ClassLatency {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> lag_ms;
  int64_t sent = 0;
  int64_t ok = 0;
};

ClassLatency Summarize(const LoadResult& load) {
  ClassLatency out;
  for (const Outcome& o : load.outcomes) {
    ++out.sent;
    out.lag_ms.push_back(o.lag * 1e3);
    if (!o.ok) {
      continue;  // a failed request has no latency
    }
    ++out.ok;
    (o.miss ? out.miss_ms : out.hit_ms).push_back(o.latency * 1e3);
  }
  return out;
}

// Counts a load phase into the report; false when the generator fell behind.
bool Account(const ClassLatency& c, const LoadResult& load, Report& report) {
  report.attempted += c.sent;
  report.failed += c.sent - c.ok;
  if (c.ok < c.sent) {
    report.Fail("request failed: " + load.first_error);
  }
  const double lag_p99 = Percentile(c.lag_ms, 0.99);
  std::fprintf(stderr,
               "%lld requests (%zu hits, %zu misses ok); generator lag p50 "
               "%.3f ms, p99 %.3f ms\n",
               static_cast<long long>(c.sent), c.hit_ms.size(), c.miss_ms.size(),
               Percentile(c.lag_ms, 0.5), lag_p99);
  std::fprintf(stderr,
               "hit p50 %.3f ms p99 %.3f ms; miss p50 %.3f ms p99 %.3f ms\n",
               Percentile(c.hit_ms, 0.50), Percentile(c.hit_ms, 0.99),
               Percentile(c.miss_ms, 0.50), Percentile(c.miss_ms, 0.99));
  if (lag_p99 > kMaxLagP99Seconds * 1e3) {
    std::fprintf(stderr, "run refused: generator lag p99 %.3f ms exceeds %.0f ms\n",
                 lag_p99, kMaxLagP99Seconds * 1e3);
    return false;
  }
  return true;
}

// The ServeStats audits, and that hits never reached core: the searches
// run since `before` are exactly the misses served.
void Audit(PlanDaemon& daemon, const aceso::serve::ServeStats& before,
           size_t misses_served, Report& report) {
  const aceso::serve::ServeStats s = daemon.service().stats();
  if (s.cache_hits + s.cache_misses != s.requests) {
    report.Fail("audit: cache hits + misses != requests");
  }
  if (s.seed_adopted + s.seed_fallbacks != s.neighbor_seeded) {
    report.Fail("audit: seed adopted + fallbacks != neighbor seeded");
  }
  if (report.failed == 0 &&
      (s - before).completed != static_cast<int64_t>(misses_served)) {
    report.Fail("searches run != misses served: a hit reached core");
  }
}

// ---- what the daemon's answers say ----

// The served plan and its search, read from a response envelope (the
// payload is its last member).
struct Served {
  std::string config_text;  // empty when no plan was found
  double search_seconds = 0.0;
  double configs_explored = 0.0;
};

std::optional<Served> ReadServed(const std::string& body) {
  auto doc = aceso::JsonParse(body);
  if (!doc.ok()) {
    return std::nullopt;
  }
  const aceso::JsonValue* payload = doc->Find("payload");
  const aceso::JsonValue* search =
      payload != nullptr ? payload->Find("search") : nullptr;
  const aceso::JsonValue* seconds =
      search != nullptr ? search->Find("seconds") : nullptr;
  const aceso::JsonValue* explored =
      search != nullptr ? search->Find("configs_explored") : nullptr;
  if (seconds == nullptr || !seconds->is_number() || explored == nullptr ||
      !explored->is_number()) {
    return std::nullopt;
  }
  Served out;
  out.search_seconds = seconds->number_value();
  out.configs_explored = explored->number_value();
  const aceso::JsonValue* plan = payload->Find("plan");
  const aceso::JsonValue* text =
      plan != nullptr ? plan->Find("config_text") : nullptr;
  if (text != nullptr && text->is_string()) {
    out.config_text = text->string_value();
  }
  return out;
}

// The searches behind the misses of a load: the medians, over misses, of a
// search's seconds and of its configs explored per second.
struct MissSearches {
  double median_seconds = 0.0;
  double configs_per_second = 0.0;
};

MissSearches ReadMissSearches(const LoadResult& load, Report& report) {
  std::vector<double> seconds;
  std::vector<double> rates;
  for (const Outcome& o : load.outcomes) {
    if (!o.miss || !o.ok) {
      continue;
    }
    const std::optional<Served> served = ReadServed(o.body);
    if (!served.has_value()) {
      report.Fail("a miss response carries no search record");
      continue;
    }
    seconds.push_back(served->search_seconds);
    rates.push_back(Ratio(served->configs_explored, served->search_seconds));
  }
  return {Median(seconds), Median(rates)};
}

// The working set's served plans on the discrete-event runtime (the
// runtime's jitter seeded by the workload seed). Each plan is one attempted
// operation; one that runs out of memory there is a failed one. Fills the
// geometric mean throughput of the plans that ran and the share that ran.
void RunServedPlans(const ServeMix& mix, const Daemon& d, uint64_t seed,
                    Report& report, double* samples_per_s, double* ok_frac) {
  const aceso::ClusterSpec cluster = aceso::ClusterSpec::WithGpuCount(mix.gpus);
  aceso::ProfileDatabase db(cluster);
  aceso::ExecutionOptions options;
  options.seed = seed;
  double log_sum = 0.0;
  int ran = 0;
  for (size_t b = 0; b < mix.working_set.size(); ++b) {
    const BaseRequest& base = mix.working_set[b];
    auto graph = aceso::models::BuildByName(ModelName(base, base.layers));
    const std::optional<Served> served =
        ReadServed("{" + d.first_payloads[b]);
    ++report.attempted;
    if (!graph.ok() || !served.has_value() || served->config_text.empty()) {
      ++report.failed;
      report.Fail("a working-set answer carries no plan");
      continue;
    }
    auto config = aceso::ParseConfig(served->config_text, *graph);
    if (!config.ok()) {
      ++report.failed;
      report.Fail("a served plan does not parse: " +
                  config.status().ToString());
      continue;
    }
    aceso::PerformanceModel model(&*graph, cluster, &db);
    aceso::PipelineExecutor executor(&model);
    const aceso::ExecutionResult run = executor.Execute(*config, options);
    if (run.oom) {
      ++report.failed;
      continue;
    }
    ++ran;
    log_sum += std::log(run.Throughput(graph->global_batch_size()));
  }
  *samples_per_s = ran > 0 ? std::exp(log_sum / ran) : 0.0;
  *ok_frac = Ratio(ran, static_cast<double>(mix.working_set.size()));
}

// ---- in-process layer timings (traced run) ----

// Times the serve layers in process, one span per call: parse, key and
// payload of every working-set request, Handle on repeats (hits) and on
// perturbed requests (misses, one at a time).
void TimeLayers(const ServeMix& mix, PlanDaemon& daemon, uint64_t seed,
                SpanLog& spans, Report& report) {
  aceso::serve::PlanService& service = daemon.service();
  const int reps = 200;
  for (size_t b = 0; b < mix.working_set.size(); ++b) {
    const int64_t id = static_cast<int64_t>(b);
    const std::string body = BaseBody(mix, b);
    aceso::serve::PlanRequest request;
    for (int i = 0; i < reps; ++i) {
      ScopedSpan span(&spans, "serve.protocol.parse", -1, id);
      request = aceso::serve::ParsePlanRequestJson(body).value();
    }
    auto graph = aceso::models::BuildByName(request.model);
    const aceso::ClusterSpec cluster =
        aceso::ClusterSpec::WithGpuCount(request.gpus);
    const aceso::SearchOptions options =
        aceso::serve::ToSearchOptions(request, service.options().eval_threads);
    for (int i = 0; i < reps; ++i) {
      ScopedSpan span(&spans, "serve.protocol.key", -1, id);
      (void)aceso::serve::PlanCacheKey(*graph, cluster, options);
    }
    aceso::ProfileDatabase db(cluster);
    aceso::PerformanceModel model(&*graph, cluster, &db);
    const aceso::SearchResult result = aceso::AcesoSearch(model, options);
    for (int i = 0; i < reps; ++i) {
      ScopedSpan span(&spans, "serve.protocol.payload", -1, id);
      (void)aceso::serve::BuildPlanPayload(*graph, cluster, result,
                                           service.options().convergence_cap);
    }
    for (int i = 0; i < reps; ++i) {
      std::string cache;
      {
        ScopedSpan span(&spans, "serve.service.handle_hit", -1, id);
        cache = service.Handle(request).cache;
      }
      if (cache != "hit") {
        report.Fail("in-process repeat of a working-set request missed");
      }
    }
  }
  // The perturbed requests of a fresh schedule long enough to hold about
  // `timed_misses` of them.
  const std::vector<ScheduledRequest> schedule =
      MakeSchedule(mix, seed ^ 0x9e3779b97f4a7c15ULL,
                   mix.timed_misses / (mix.rate_per_second * kMissShare),
                   1u << 30);
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (!schedule[i].miss) {
      continue;
    }
    const aceso::serve::PlanRequest request =
        aceso::serve::ParsePlanRequestJson(schedule[i].body).value();
    std::string cache;
    {
      ScopedSpan span(&spans, "serve.service.handle_miss", -1,
                      static_cast<int64_t>(i));
      cache = service.Handle(request).cache;
    }
    if (cache != "miss") {
      report.Fail("in-process perturbed request did not miss the cache");
    }
  }
}

}  // namespace

bool RunServeWorkload(const Args& args, Report& report) {
  const ServeMix mix = MixFor(args.workload);
  std::optional<Daemon> started = StartDaemon(mix);
  if (!started.has_value()) {
    return false;
  }
  Daemon& d = *started;
  const aceso::serve::ServeStats stats_before = d.daemon->service().stats();
  const std::vector<ScheduledRequest> schedule =
      MakeSchedule(mix, args.seed, args.seconds, 1000);
  const LoadResult load = DriveLoad(d, schedule, nullptr);
  const ClassLatency c = Summarize(load);
  if (!Account(c, load, report)) {
    return false;
  }
  Audit(*d.daemon, stats_before, c.miss_ms.size(), report);
  const MissSearches searches = ReadMissSearches(load, report);
  double plan_samples_per_s = 0.0;
  double plan_ok_frac = 0.0;
  RunServedPlans(mix, d, args.seed, report, &plan_samples_per_s, &plan_ok_frac);
  // Latencies are per-layer metrics here: on a shared machine they swing
  // between runs beyond any bound (planbench/METRICS.md).
  report.Add("search_s", searches.median_seconds, "s");
  report.Add("configs_per_s", searches.configs_per_second, "1/s");
  report.Add("plan_samples_per_s", plan_samples_per_s, "1/s");
  report.Add("plan_ok_frac", plan_ok_frac, "frac");
  report.Add("setup_s", Median(d.setup_seconds), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("ok_frac", Ratio(static_cast<double>(c.ok),
                              static_cast<double>(c.sent)), "frac");
  std::fprintf(stderr, "miss searches: median %.4f s, %.0f configs/s\n",
               searches.median_seconds, searches.configs_per_second);
  return true;
}

// An untraced and a traced half of the load, then the in-process layer
// timings.
bool TraceServeLayers(const std::string& workload, uint64_t seed,
                      double seconds, bool primary, Report& report,
                      SpanLog& spans) {
  const ServeMix mix = MixFor(workload);
  std::optional<Daemon> started = StartDaemon(mix);
  if (!started.has_value()) {
    return false;
  }
  Daemon& d = *started;
  PlanDaemon& daemon = *d.daemon;
  std::fprintf(stderr, "serve probe: %zu working-set requests on %d GPUs, "
               "%.0f requests/s\n", mix.working_set.size(), mix.gpus,
               mix.rate_per_second);
  const aceso::serve::ServeStats stats_before = daemon.service().stats();
  const aceso::serve::PlanCacheStats cache_before =
      daemon.service().plan_cache_stats();
  const aceso::ThreadPoolStats pool_before = daemon.service().pool().stats();

  const std::vector<ScheduledRequest> plain_schedule =
      MakeSchedule(mix, seed, seconds / 2.0, 1000);
  const LoadResult plain_load = DriveLoad(d, plain_schedule, nullptr);
  const ClassLatency plain = Summarize(plain_load);
  if (!Account(plain, plain_load, report)) {
    return false;
  }
  const std::vector<ScheduledRequest> traced_schedule =
      MakeSchedule(mix, seed + 1, seconds / 2.0, 1u << 20);
  const LoadResult traced_load = DriveLoad(d, traced_schedule, &spans);
  const ClassLatency traced = Summarize(traced_load);
  if (!Account(traced, traced_load, report)) {
    return false;
  }
  Audit(daemon, stats_before, plain.miss_ms.size() + traced.miss_ms.size(),
        report);
  const aceso::serve::ServeStats load_delta =
      daemon.service().stats() - stats_before;
  const aceso::serve::PlanCacheStats cache = daemon.service().plan_cache_stats();
  const aceso::ThreadPoolStats pool = daemon.service().pool().stats() - pool_before;

  TimeLayers(mix, daemon, seed, spans, report);
  auto median_us = [&spans](const char* name) {
    return 1e6 * Median(spans.Durations(name));
  };
  const double hit_handle_us = median_us("serve.service.handle_hit");
  const double hit_http_us = 1e3 * Percentile(plain.hit_ms, 0.50);
  report.Add("serve.protocol.parse_us", median_us("serve.protocol.parse"), "us");
  report.Add("serve.protocol.key_us", median_us("serve.protocol.key"), "us");
  report.Add("serve.protocol.payload_us", median_us("serve.protocol.payload"),
             "us");
  report.Add("serve.service.handle_hit_us", hit_handle_us, "us");
  report.Add("serve.http.hit_overhead_us", hit_http_us - hit_handle_us, "us");
  report.Add("serve.service.handle_miss_ms",
             1e-3 * median_us("serve.service.handle_miss"), "ms");
  const double hits = static_cast<double>(cache.hits - cache_before.hits);
  const double misses = static_cast<double>(cache.misses - cache_before.misses);
  report.Add("serve.plan_cache.hit_rate", Ratio(hits, hits + misses), "ratio");
  report.Add("serve.plan_cache.neighbor_hit_rate",
             Ratio(static_cast<double>(cache.neighbor_hits -
                                       cache_before.neighbor_hits),
                   static_cast<double>(cache.neighbor_probes -
                                       cache_before.neighbor_probes)),
             "ratio");
  report.Add("serve.service.seed_adopted_rate",
             Ratio(static_cast<double>(load_delta.seed_adopted),
                   static_cast<double>(load_delta.neighbor_seeded)),
             "ratio");
  report.Add("serve.service.rejected", static_cast<double>(load_delta.rejected),
             "count");
  report.Add("serve.pool.steals", static_cast<double>(pool.stolen), "count");
  // Latencies of the untraced half, timed from when each request was due.
  report.Add("serve.setup_s", Median(d.setup_seconds), "s");
  report.Add("serve.http.hit_p50_ms", Percentile(plain.hit_ms, 0.50), "ms");
  report.Add("serve.http.miss_p50_ms", Percentile(plain.miss_ms, 0.50), "ms");
  report.Add("serve.http.hit_p99_ms", Percentile(plain.hit_ms, 0.99), "ms");
  report.Add("serve.http.miss_p99_ms", Percentile(plain.miss_ms, 0.99), "ms");
  report.Add("serve.generator.lag_p50_ms", Percentile(plain.lag_ms, 0.50), "ms");
  report.Add("serve.generator.lag_p99_ms", Percentile(plain.lag_ms, 0.99), "ms");
  // Exact counts of the measured load.
  report.Add("serve.service.cache_hits", static_cast<double>(load_delta.cache_hits),
             "count");
  report.Add("serve.service.searches", static_cast<double>(load_delta.completed),
             "count");
  report.Add("serve.service.neighbor_seeded",
             static_cast<double>(load_delta.neighbor_seeded), "count");
  if (primary) {
    const double plain_p50 = Percentile(plain.hit_ms, 0.50);
    report.Add("trace.overhead_frac",
               Ratio(Percentile(traced.hit_ms, 0.50) - plain_p50, plain_p50),
               "ratio");
  }
  return true;
}

}  // namespace planbench
