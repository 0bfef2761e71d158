// erbench: the end-to-end benchmark of the erlb pipeline.
//
//   erbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--scale full|tiny] [--wrong-matcher <modulus>]
//
// Every workload runs both faces of the system over one generated input:
//
//   batch  CSV -> entities -> BDM job -> plan -> match job -> clusters,
//          once per strategy (Basic skips the BDM job and planning), on
//          one mr::JobRunner with 4 workers;
//   serve  a resident serve::ServeSession behind serve::Server on a Unix
//          socket, driven by an open-loop generator over 4 connections
//          (single-probe requests, 2 % writes).
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates traced rounds (a span around every layer call, a counting
// matcher) with untraced ones, prints the per-layer metrics, and writes
// the spans as Chrome trace-event JSON under .bench_build/erbench/. The
// last line of stdout is the result object; the line before it stamps
// the machine, build and sample counts. WORKLOADS.md explains the
// workloads and the metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bdm/bdm_job.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/reference.h"
#include "er/blocking.h"
#include "er/clustering.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/perturb.h"
#include "gen/product_gen.h"
#include "gen/skew_gen.h"
#include "lb/basic.h"
#include "lb/strategy.h"
#include "matchers.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve_load.h"
#include "sim/calibrate.h"
#include "sim/er_sim.h"
#include "trace.h"

#ifndef ERBENCH_COMPILER
#define ERBENCH_COMPILER "unknown"
#endif
#ifndef ERBENCH_BUILD_TYPE
#define ERBENCH_BUILD_TYPE "unknown"
#endif

namespace erbench {
namespace {

using namespace erlb;

// ---- fixed configuration --------------------------------------------------

constexpr uint32_t kThreads = 4;         // worker threads / processes
constexpr uint32_t kReduceTasks = 32;    // r of both batch jobs
constexpr uint32_t kSplitRecords = 1024; // CSV rows per input split
constexpr int kConnections = 4;          // serve client connections
constexpr uint32_t kWriteEvery = 50;     // every 50th request writes (2 %)
constexpr double kLatencyLimitMs = 50.0; // probe p99 limit of the ladder
constexpr double kNominalRate = 250.0;   // probes+writes per second
constexpr double kLadderBase = 25.0;     // ladder rung k: 25 * 1.05^k /s
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 128;
constexpr uint64_t kProbeIdBase = 1'000'000'000'000ull;
constexpr uint64_t kInsertIdBase = 2'000'000'000'000ull;
constexpr double kWindowShare = 0.75;   // rest of --seconds: the ladder
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 3.0;
constexpr int kRunTimeoutSeconds = 170;

const lb::StrategyKind kStrategies[] = {lb::StrategyKind::kBasic,
                                        lb::StrategyKind::kBlockSplit,
                                        lb::StrategyKind::kPairRange};

std::string Suffix(lb::StrategyKind kind) {
  switch (kind) {
    case lb::StrategyKind::kBasic:
      return "basic";
    case lb::StrategyKind::kBlockSplit:
      return "blocksplit";
    case lb::StrategyKind::kPairRange:
      return "pairrange";
  }
  return "unknown";
}

// ---- workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  /// DS1 products (gen::GenerateProducts, prefix blocking) or the
  /// exponential-skew generator (gen::GenerateSkewed, block-label
  /// blocking).
  bool products = true;
  uint64_t entities = 0;
  uint32_t blocks = 0;  // GenerateSkewed only
  /// The serve corpus: entities of blocks 0..serve_blocks-1 (0 = all).
  uint32_t serve_blocks = 0;
  bool multi_process = false;
};

bool FindWorkload(const std::string& name, bool tiny, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "ds1_skewed") {
    w.entities = tiny ? 800 : 10000;
  } else if (name == "small_blocks" || name == "small_blocks_mp") {
    w.products = false;
    w.entities = tiny ? 4000 : 250000;
    w.blocks = tiny ? 480 : 30000;
    // ~20,000 of the 250,000 records: a probe batch scans the whole
    // resident corpus (~75 ms for 500,000 records), so a full-size corpus
    // could not be served under the 50 ms limit at any rate.
    w.serve_blocks = tiny ? 0 : 2400;
    w.multi_process = name == "small_blocks_mp";
  } else {
    return false;
  }
  *out = w;
  return true;
}

// ---- options --------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool tiny = false;
  uint64_t drop_modulus = 0;  // 0 = the real matcher
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0) || o->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      o->tiny = value == "tiny";
    } else if (flag == "--wrong-matcher") {
      o->drop_modulus = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || o->drop_modulus == 0) return false;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// ---- measurement helpers --------------------------------------------------

/// User + system CPU seconds of this process and its reaped children
/// (the forked workers of multi-process jobs).
double CpuSeconds() {
  auto seconds = [](const rusage& u) {
    return u.ru_utime.tv_sec + u.ru_utime.tv_usec / 1e6 +
           u.ru_stime.tv_sec + u.ru_stime.tv_usec / 1e6;
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self) + seconds(children);
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self.ru_maxrss, children.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile `p` in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop the NUL padding
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Order-sensitive digest of a canonical (sorted, unique) match set.
uint64_t MatchDigest(const er::MatchResult& matches) {
  uint64_t h = Fnv1aHashU64(matches.size());
  for (const auto& p : matches.pairs()) {
    h = Fnv1aHashU64(p.second, Fnv1aHashU64(p.first, h));
  }
  return h;
}

uint64_t ClusterDigest(const er::Clusters& clusters) {
  uint64_t h = Fnv1aHashU64(clusters.size());
  for (const auto& cluster : clusters) {
    for (uint64_t id : cluster) h = Fnv1aHashU64(id, h);
    h = Fnv1aHashU64(~uint64_t{0}, h);
  }
  return h;
}

// ---- input ----------------------------------------------------------------

Result<std::vector<er::Entity>> Generate(const Workload& w, uint64_t seed) {
  if (w.products) {
    gen::ProductConfig config;
    config.num_entities = w.entities;
    config.zipf_exponent = 1.1;
    config.duplicate_fraction = 0.2;
    config.seed = seed;
    return gen::GenerateProducts(config);
  }
  gen::SkewConfig config;
  config.num_entities = w.entities;
  config.num_blocks = w.blocks;
  config.skew = 0.0;
  config.seed = seed;
  return gen::GenerateSkewed(config);
}

std::unique_ptr<er::BlockingFunction> MakeBlocking(const Workload& w) {
  if (w.products) return std::make_unique<er::PrefixBlocking>(0, 3);
  return std::make_unique<er::AttributeBlocking>(gen::kSkewBlockField);
}

std::vector<er::Entity> ServeCorpus(const Workload& w,
                                    const std::vector<er::Entity>& all) {
  if (w.serve_blocks == 0) return all;
  std::unordered_map<std::string, bool> keep;
  for (uint32_t k = 0; k < w.serve_blocks; ++k) {
    keep[gen::SkewBlockLabel(k)] = true;
  }
  std::vector<er::Entity> out;
  for (const auto& e : all) {
    if (keep.count(e.fields.at(gen::kSkewBlockField)) != 0) out.push_back(e);
  }
  return out;
}

/// core::ReferenceDeduplicate over the whole input, spread over kThreads
/// threads by blocking key (blocks never straddle two threads).
er::MatchResult ReferenceMatches(const std::vector<er::Entity>& entities,
                                 const er::BlockingFunction& blocking,
                                 const er::Matcher& matcher) {
  std::vector<std::vector<er::Entity>> groups(kThreads);
  for (const auto& e : entities) {
    groups[Fnv1aHash(blocking.Key(e)) % kThreads].push_back(e);
  }
  std::vector<er::MatchResult> parts(kThreads);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      parts[t] = core::ReferenceDeduplicate(groups[t], blocking, matcher);
    });
  }
  for (auto& t : threads) t.join();
  er::MatchResult all;
  for (const auto& p : parts) all.Merge(p);
  all.Canonicalize();
  return all;
}

// ---- setup ----------------------------------------------------------------

/// Everything that exists before the timed window.
struct Setup {
  std::vector<er::Entity> entities;
  std::vector<er::Entity> serve_corpus;
  std::unique_ptr<serve::ServeSession> session;
  std::unique_ptr<serve::Server> server;
  std::vector<Connection> connections;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() { Close(); }

  void Close() {
    for (Connection& c : connections) {
      if (c.fd >= 0) ::close(c.fd);
    }
    connections.clear();
    if (server) server->Stop();
    server.reset();
    session.reset();
    // Free the input too, so a repeated set-up starts from the same heap.
    entities = {};
    serve_corpus = {};
  }
};

Status BuildSetup(const Workload& w, uint64_t seed,
                  const std::string& csv_path,
                  const std::string& socket_path,
                  const er::BlockingFunction* blocking,
                  const er::Matcher* serve_matcher, Setup* s) {
  ERLB_ASSIGN_OR_RETURN(s->entities, Generate(w, seed));
  ERLB_RETURN_NOT_OK(er::SaveEntitiesToCsv(csv_path, s->entities));
  s->serve_corpus = ServeCorpus(w, s->entities);

  // The daemon's defaults, with the worker count pinned.
  serve::SessionOptions session_options;
  session_options.num_corpus_partitions = 4;
  session_options.num_reduce_tasks = 8;
  session_options.strategy = lb::StrategyKind::kBlockSplit;
  session_options.num_workers = kThreads;
  s->session = std::make_unique<serve::ServeSession>(blocking, serve_matcher,
                                                     session_options);
  ERLB_RETURN_NOT_OK(s->session->Insert(s->serve_corpus));

  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  s->server = std::make_unique<serve::Server>(s->session.get(),
                                              server_options);
  ERLB_RETURN_NOT_OK(s->server->Start());
  for (int i = 0; i < kConnections; ++i) {
    ERLB_ASSIGN_OR_RETURN(int fd, serve::Server::Connect(socket_path));
    s->connections.emplace_back();
    s->connections.back().fd = fd;
  }
  return Status::OK();
}

// ---- batch phase ----------------------------------------------------------

/// What the traced run records about one job, besides its wall time.
struct LayerSample {
  double ingest_s = 0, ingest_cpu_s = 0;
  double bdm_s = 0, bdm_cpu_s = 0, bdm_map_output_pairs = 0;
  double plan_s = 0;
  double match_s = 0, match_cpu_s = 0, match_map_output_pairs = 0;
  double reduce_max_s = 0, reduce_mean_s = 0, reduce_sum_s = 0;
  double cluster_s = 0;
  double spill_mb = 0, worker_processes = 0, worker_deaths = 0;
  double task_retries = 0;
  MatcherTotals matcher;
};

struct JobOutcome {
  bool ok = false;
  double job_s = 0;
  double cpu_s = 0;
  LayerSample layers;
  std::shared_ptr<lb::MatchPlan> plan;  // BlockSplit / PairRange
  std::shared_ptr<bdm::Bdm> bdm;
};

struct BatchContext {
  std::string csv_path;
  const er::BlockingFunction* blocking;
  const mr::JobRunner* runner;
  uint64_t reference_digest;
  uint64_t reference_cluster_digest;
  Tracer* tracer;
};

/// Wall (and optionally CPU) seconds of one layer call, stored when the
/// clock goes out of scope.
class LayerClock {
 public:
  explicit LayerClock(double* wall_s, double* cpu_s = nullptr)
      : wall_s_(wall_s), cpu_s_(cpu_s) {}
  ~LayerClock() {
    *wall_s_ = (NowNs() - start_ns_) / 1e9;
    if (cpu_s_ != nullptr) *cpu_s_ = CpuSeconds() - start_cpu_;
  }

  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

 private:
  double* wall_s_;
  double* cpu_s_;
  const int64_t start_ns_ = NowNs();
  const double start_cpu_ = CpuSeconds();
};

void AddJobMetrics(const mr::JobMetrics& m, LayerSample* l) {
  l->spill_mb += m.spill_bytes_written / (1024.0 * 1024.0);
  l->worker_processes += m.worker_processes;
  l->worker_deaths += m.worker_deaths;
  l->task_retries += static_cast<double>(m.task_retries);
}

/// One CSV -> clusters run of `kind`. Spans are recorded only when
/// `traced` (the tracer is then enabled); the output check runs after the
/// clock stopped.
JobOutcome RunJob(const BatchContext& ctx, lb::StrategyKind kind,
                  const er::Matcher& matcher, bool traced) {
  JobOutcome out;
  Tracer disabled(false);
  Tracer* tracer = traced ? ctx.tracer : &disabled;
  const uint64_t run = tracer->enabled() ? tracer->NextId() : 0;
  LayerSample& l = out.layers;

  const int64_t start_ns = NowNs();
  const double start_cpu = CpuSeconds();
  ScopedSpan job_span(tracer, "job." + Suffix(kind), 0, run);

  // Ingest: chunked CSV read, one input split per kSplitRecords rows.
  er::Partitions parts;
  Result<uint64_t> loaded = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "ingest", job_span.id(), run);
    LayerClock clock(&l.ingest_s, &l.ingest_cpu_s);
    er::CsvSchema schema;
    schema.id_column = 0;
    loaded = er::LoadEntitiesFromCsvChunked(
        ctx.csv_path, schema, kSplitRecords,
        [&parts](std::vector<er::Entity>&& batch) {
          std::vector<er::EntityRef> split;
          split.reserve(batch.size());
          for (auto& e : batch) split.push_back(er::MakeEntityRef(std::move(e)));
          parts.push_back(std::move(split));
          return Status::OK();
        });
    span.Count("entities", loaded.ok() ? static_cast<double>(*loaded) : 0);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 loaded.status().ToString().c_str());
    return out;
  }

  lb::MatchJobOptions match_options;
  match_options.num_reduce_tasks = kReduceTasks;
  Result<lb::MatchJobOutput> matched = Status::Internal("not run");
  if (kind == lb::StrategyKind::kBasic) {
    ScopedSpan span(tracer, "match", job_span.id(), run);
    LayerClock clock(&l.match_s, &l.match_cpu_s);
    matched = lb::RunBasicSingleJob(parts, *ctx.blocking, matcher,
                                    match_options, *ctx.runner);
  } else {
    bdm::BdmJobOptions bdm_options;
    bdm_options.num_reduce_tasks = kReduceTasks;
    Result<bdm::BdmJobOutput> job1 = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "bdm", job_span.id(), run);
      LayerClock clock(&l.bdm_s, &l.bdm_cpu_s);
      job1 = bdm::RunBdmJob(parts, *ctx.blocking, bdm_options, *ctx.runner);
      if (job1.ok()) {
        span.Count("map_output_pairs",
                   static_cast<double>(job1->metrics.TotalMapOutputPairs()));
        span.Count("blocks", static_cast<double>(job1->bdm.num_blocks()));
      }
    }
    if (!job1.ok()) {
      std::fprintf(stderr, "bdm job failed: %s\n",
                   job1.status().ToString().c_str());
      return out;
    }
    l.bdm_map_output_pairs =
        static_cast<double>(job1->metrics.TotalMapOutputPairs());
    AddJobMetrics(job1->metrics, &l);
    const auto strategy = lb::MakeStrategy(kind);
    Result<lb::MatchPlan> plan = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "plan", job_span.id(), run);
      LayerClock clock(&l.plan_s);
      plan = strategy->BuildPlan(job1->bdm, match_options);
    }
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n",
                   plan.status().ToString().c_str());
      return out;
    }
    {
      ScopedSpan span(tracer, "match", job_span.id(), run);
      LayerClock clock(&l.match_s, &l.match_cpu_s);
      matched = strategy->ExecutePlan(*plan, *job1->annotated, job1->bdm,
                                      matcher, *ctx.runner);
    }
    if (traced) {
      out.plan = std::make_shared<lb::MatchPlan>(std::move(*plan));
      out.bdm = std::make_shared<bdm::Bdm>(std::move(job1->bdm));
    }
  }
  if (!matched.ok()) {
    std::fprintf(stderr, "match job failed: %s\n",
                 matched.status().ToString().c_str());
    return out;
  }
  const mr::JobMetrics& metrics = matched->metrics;
  l.match_map_output_pairs =
      static_cast<double>(metrics.TotalMapOutputPairs());
  for (const auto& t : metrics.reduce_tasks) {
    const double s = t.duration_nanos / 1e9;
    l.reduce_max_s = std::max(l.reduce_max_s, s);
    l.reduce_sum_s += s;
  }
  if (!metrics.reduce_tasks.empty()) {
    l.reduce_mean_s = l.reduce_sum_s / metrics.reduce_tasks.size();
  }
  AddJobMetrics(metrics, &l);

  er::Clusters clusters;
  {
    ScopedSpan span(tracer, "cluster", job_span.id(), run);
    LayerClock clock(&l.cluster_s);
    clusters = er::ClusterMatches(matched->matches);
    span.Count("clusters", static_cast<double>(clusters.size()));
  }
  out.job_s = (NowNs() - start_ns) / 1e9;
  out.cpu_s = CpuSeconds() - start_cpu;
  job_span.Count("comparisons", static_cast<double>(matched->comparisons));
  job_span.Count("matches", static_cast<double>(matched->matches.size()));
  job_span.End();

  er::MatchResult matches = std::move(matched->matches);
  matches.Canonicalize();
  out.ok = MatchDigest(matches) == ctx.reference_digest &&
           ClusterDigest(clusters) == ctx.reference_cluster_digest;
  if (!out.ok) {
    std::fprintf(stderr, "%s: match set differs from the reference\n",
                 lb::StrategyName(kind));
  }
  return out;
}

// ---- serve phase ----------------------------------------------------------

/// Builds `count` requests arriving at `rate` per second (Poisson):
/// probes (perturbed corpus titles) with every kWriteEvery-th request a
/// write that alternately inserts a new record and removes the one
/// inserted before. `next_id` keeps ids unique across phases. Sampled
/// probes get their answers re-checked.
std::vector<LoadRequest> BuildSchedule(const Workload& w,
                                       const std::vector<er::Entity>& corpus,
                                       size_t count, double rate,
                                       double sample_share, Pcg32* rng,
                                       uint64_t* next_id) {
  const size_t protect = w.products ? 3 : 0;
  auto perturbed = [&](uint64_t id) {
    const er::Entity& src = corpus[rng->NextBounded(
        static_cast<uint32_t>(corpus.size()))];
    er::Entity e;
    e.id = id;
    e.fields = src.fields;
    e.fields[0] = gen::Perturb(src.fields[0], 2, protect, rng);
    return e;
  };
  std::vector<LoadRequest> out;
  out.reserve(count);
  size_t pending_insert = SIZE_MAX;
  double due_s = 0;
  for (size_t i = 0; i < count; ++i) {
    LoadRequest r;
    due_s += rng->NextExponential(rate);
    r.due_offset_ns = static_cast<int64_t>(due_s * 1e9);
    if ((i + 1) % kWriteEvery == 0) {
      if (pending_insert == SIZE_MAX) {
        r.kind = LoadRequest::Kind::kInsert;
        r.entity = perturbed(kInsertIdBase + (*next_id)++);
        pending_insert = i;
      } else {
        r.kind = LoadRequest::Kind::kRemove;
        r.remove_id = out[pending_insert].entity.id;
        r.insert_index = pending_insert;
        pending_insert = SIZE_MAX;
      }
    } else {
      r.kind = LoadRequest::Kind::kProbe;
      r.entity = perturbed(kProbeIdBase + (*next_id)++);
      r.sampled = rng->NextDouble() < sample_share;
    }
    out.push_back(std::move(r));
  }
  // A trailing insert is removed too, so the corpus ends as it began.
  if (pending_insert != SIZE_MAX) {
    LoadRequest r;
    r.due_offset_ns = static_cast<int64_t>(due_s * 1e9);
    r.kind = LoadRequest::Kind::kRemove;
    r.remove_id = out[pending_insert].entity.id;
    r.insert_index = pending_insert;
    out.push_back(std::move(r));
  }
  return out;
}

struct PhaseStats {
  std::vector<double> probe_ms;  // failed probes count as +inf
  std::vector<double> write_ms;
  std::vector<double> lag_ms;    // generator wake-up lateness
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double rate = 0;  // achieved request rate
  /// Some request was skipped because it could not be sent in time.
  bool aborted = false;
};

PhaseStats Summarize(const std::vector<LoadRequest>& requests,
                     const std::vector<LoadOutcome>& outcomes) {
  PhaseStats s;
  int64_t first_due = INT64_MAX;
  int64_t last_done = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const LoadOutcome& o = outcomes[i];
    if (o.skipped) {
      s.aborted = true;
      continue;
    }
    const double latency = o.ok ? (o.done_ns - o.due_ns) / 1e6 : INFINITY;
    ++s.attempted;
    if (!o.ok) ++s.failed;
    if (requests[i].kind == LoadRequest::Kind::kProbe) {
      s.probe_ms.push_back(latency);
    } else {
      s.write_ms.push_back(latency);
    }
    if (o.slept) s.lag_ms.push_back((o.send_ns - o.due_ns) / 1e6);
    first_due = std::min(first_due, o.due_ns);
    last_done = std::max(last_done, o.done_ns);
  }
  if (last_done > first_due) {
    s.rate = s.attempted / ((last_done - first_due) / 1e9);
  }
  return s;
}

void Pool(const PhaseStats& slice, PhaseStats* into) {
  auto append = [](const std::vector<double>& from, std::vector<double>* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(slice.probe_ms, &into->probe_ms);
  append(slice.write_ms, &into->write_ms);
  append(slice.lag_ms, &into->lag_ms);
  into->attempted += slice.attempted;
  into->failed += slice.failed;
}

/// Re-checks a sampled probe's answer against core::ReferenceLink over
/// the corpus that probe saw: the resident corpus plus every inserted
/// record live for the whole request (required) or for part of it
/// (allowed). The answer must contain the first and lie within the second.
bool CheckProbe(const LoadRequest& probe, const LoadOutcome& outcome,
                const std::vector<LoadRequest>& requests,
                const std::vector<LoadOutcome>& outcomes,
                const std::unordered_map<std::string,
                                         std::vector<const er::Entity*>>&
                    corpus_by_key,
                const er::BlockingFunction& blocking,
                const er::Matcher& reference_matcher) {
  const std::string key = blocking.Key(probe.entity);
  std::vector<er::Entity> definite;
  if (auto it = corpus_by_key.find(key); it != corpus_by_key.end()) {
    for (const er::Entity* e : it->second) definite.push_back(*e);
  }
  std::vector<er::Entity> possible = definite;
  for (size_t j = 0; j < requests.size(); ++j) {
    if (requests[j].kind != LoadRequest::Kind::kInsert) continue;
    if (blocking.Key(requests[j].entity) != key) continue;
    const LoadOutcome& ins = outcomes[j];
    int64_t remove_send = INT64_MAX, remove_done = INT64_MAX;
    for (size_t k = j + 1; k < requests.size(); ++k) {
      if (requests[k].kind == LoadRequest::Kind::kRemove &&
          requests[k].insert_index == j) {
        remove_send = outcomes[k].send_ns;
        remove_done = outcomes[k].done_ns;
        break;
      }
    }
    if (ins.send_ns < outcome.done_ns && remove_done > outcome.send_ns) {
      possible.push_back(requests[j].entity);
      if (ins.done_ns < outcome.send_ns && remove_send > outcome.done_ns) {
        definite.push_back(requests[j].entity);
      }
    }
  }
  er::MatchResult required = core::ReferenceLink(
      definite, {probe.entity}, blocking, reference_matcher);
  er::MatchResult allowed = core::ReferenceLink(
      possible, {probe.entity}, blocking, reference_matcher);
  required.Canonicalize();
  allowed.Canonicalize();
  er::MatchResult answer = outcome.answer;
  answer.Canonicalize();
  const auto& a = answer.pairs();
  return std::includes(a.begin(), a.end(), required.pairs().begin(),
                       required.pairs().end()) &&
         std::includes(allowed.pairs().begin(), allowed.pairs().end(),
                       a.begin(), a.end());
}

struct Ladder {
  double max_rate = 0;  // achieved rate at the highest passing rung
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int steps = 0;
};

/// The ladder: binary search over fixed rungs for the highest rate whose
/// probe p99 stays within the limit without a growing backlog, in about
/// `seconds`. A rung is abandoned as soon as some request could not be
/// sent within four limits of its due time (the client-side queue is
/// growing), which keeps failed rungs short. A failed rung is tried once
/// more before the search moves down, so one slow spell of the machine
/// does not halve the result.
Ladder RunLadder(const Workload& w, Setup* setup, double seconds, Pcg32* rng,
                 uint64_t* next_id, Tracer* tracer) {
  Ladder out;
  const double rung_seconds = seconds / 8;
  const auto abort_ns = static_cast<int64_t>(4 * kLatencyLimitMs * 1e6);
  int lo = -1, hi = kLadderRungs;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = kLadderBase * std::pow(kLadderStep, mid);
    const size_t count =
        std::max<size_t>(static_cast<size_t>(rate * rung_seconds), 100);
    bool passed = false;
    for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
      const auto requests =
          BuildSchedule(w, setup->serve_corpus, count, rate, 0, rng, next_id);
      const auto outcomes =
          RunOpenLoop(&setup->connections, requests, abort_ns, tracer, 0);
      const PhaseStats rung = Summarize(requests, outcomes);
      out.attempted += rung.attempted;
      out.failed += rung.failed;
      ++out.steps;
      passed = !rung.aborted && rung.failed == 0 &&
               Percentile(rung.probe_ms, 99) <= kLatencyLimitMs;
      if (passed) out.max_rate = rung.rate;
    }
    if (passed) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return out;
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- the run --------------------------------------------------------------

int Run(const Options& opt) {
  Workload w;
  if (!FindWorkload(opt.workload, opt.tiny, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const std::string out_dir = ".bench_build/erbench";
  const std::string pid = std::to_string(::getpid());
  const std::string work_dir = out_dir + "/run-" + pid;
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
    return 1;
  }
  // Removes the run's files (CSVs, spill directories, socket) on return.
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{work_dir};
  const std::string socket_path = work_dir + "/serve.sock";

  const auto blocking = MakeBlocking(w);
  const er::EditDistanceMatcher real_matcher(0.8);
  std::unique_ptr<er::Matcher> dropping;
  if (opt.drop_modulus > 0) {
    dropping = std::make_unique<DroppingMatcher>(&real_matcher,
                                                 opt.drop_modulus);
  }
  // The matcher the system runs with; the checks use real_matcher.
  const er::Matcher& system_matcher =
      dropping ? *dropping : static_cast<const er::Matcher&>(real_matcher);

  // ---- set-up, repeated; the median is setup_s ----
  // At least kMinSetups times, more while they take under kSetupBudgetS
  // (the traced run sets up once). Each repetition writes a new CSV and
  // unlinks the previous one: truncating and rewriting a file makes ext4
  // flush it on close, which put disk speed into setup_s.
  Setup setup;
  std::vector<double> setup_times;
  double setup_total = 0;
  std::string csv_path;
  const int max_setups = opt.trace ? 1 : kMaxSetups;
  for (int i = 0; i < max_setups; ++i) {
    if (i >= kMinSetups && setup_total > kSetupBudgetS) break;
    setup.Close();
    if (!csv_path.empty()) std::filesystem::remove(csv_path, ec);
    csv_path = work_dir + "/input-" + std::to_string(i) + ".csv";
    const int64_t t0 = NowNs();
    Status st = BuildSetup(w, opt.seed, csv_path, socket_path,
                           blocking.get(), &system_matcher, &setup);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_times.push_back((NowNs() - t0) / 1e9);
    setup_total += setup_times.back();
  }

  // ---- reference answer, outside the timed window ----
  er::MatchResult reference =
      ReferenceMatches(setup.entities, *blocking, real_matcher);
  const uint64_t reference_digest = MatchDigest(reference);
  const uint64_t candidate_pairs =
      core::ReferencePairCount(setup.entities, *blocking);
  const uint64_t reference_cluster_digest =
      ClusterDigest(er::ClusterMatches(reference));
  std::unordered_map<std::string, std::vector<const er::Entity*>>
      corpus_by_key;
  for (const auto& e : setup.serve_corpus) {
    corpus_by_key[blocking->Key(e)].push_back(&e);
  }

  Tracer tracer(opt.trace);
  mr::ExecutionOptions execution;
  execution.mode = w.multi_process ? mr::ExecutionMode::kMultiProcess
                                   : mr::ExecutionMode::kInMemory;
  if (w.multi_process) {
    execution.num_worker_processes = kThreads;
    execution.temp_dir = work_dir;
  }
  const mr::JobRunner runner(kThreads, execution);
  const BatchContext ctx{csv_path,         blocking.get(),
                         &runner,          reference_digest,
                         reference_cluster_digest, &tracer};
  CountingMatcher counting(&system_matcher);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // ---- timed window: batch rounds interleaved with serve slices ----
  // Each round runs the three strategies once and then serves a slice of
  // open-loop traffic at the nominal rate. Interleaving spreads both kinds
  // of measurement over the whole window, so a slow spell of the shared
  // machine touches every metric a little instead of one metric a lot. A
  // round starts only if it is expected to end inside the window. The
  // traced run alternates traced and untraced rounds, so the tracing
  // overhead is measured in the same run.
  const double window = opt.seconds * kWindowShare;
  const double slice_seconds = opt.tiny ? 0.4 : 2.0;
  const int min_rounds = opt.trace ? 4 : 2;
  std::map<std::string, std::vector<double>> job_s, job_s_traced;
  std::map<std::string, std::vector<LayerSample>> layers;
  std::vector<double> round_cpu;
  std::map<std::string, JobOutcome> last_traced;
  Pcg32 rng(opt.seed, 0x5e7e);
  uint64_t next_id = 0;
  PhaseStats nominal;  // pooled over every serve slice
  uint64_t checked = 0;
  uint64_t batches = 0, batched_probes = 0;
  uint64_t cache_hits = 0, cache_lookups = 0, cache_invalidations = 0;
  const int64_t window_start = NowNs();
  double last_round_s = 0;
  int rounds = 0;
  for (;; ++rounds) {
    const double elapsed = (NowNs() - window_start) / 1e9;
    if (rounds >= min_rounds && elapsed + last_round_s > window) break;
    const int64_t round_start = NowNs();
    const bool traced = opt.trace && rounds % 2 == 0;
    double cpu = 0;
    for (int i = 0; i < 3; ++i) {
      const lb::StrategyKind kind = kStrategies[(rounds + i) % 3];
      const std::string suffix = Suffix(kind);
      if (traced) counting.Reset();
      JobOutcome o = RunJob(ctx, kind,
                            traced ? static_cast<const er::Matcher&>(counting)
                                   : system_matcher,
                            traced);
      ++attempted;
      if (!o.ok) ++failed;
      cpu += o.cpu_s;
      if (traced) {
        o.layers.matcher = counting.Read();
        job_s_traced[suffix].push_back(o.job_s);
        layers[suffix].push_back(o.layers);
        last_traced[suffix] = std::move(o);
      } else {
        job_s[suffix].push_back(o.job_s);
      }
    }
    if (!traced) round_cpu.push_back(cpu);

    const serve::SessionStats stats_before = setup.session->Stats();
    const serve::BatcherStats batcher_before = setup.server->batcher_stats();
    ScopedSpan slice_span(&tracer, "serve.slice", 0, tracer.NextId());
    const std::vector<LoadRequest> requests = BuildSchedule(
        w, setup.serve_corpus,
        static_cast<size_t>(kNominalRate * slice_seconds), kNominalRate, 0.2,
        &rng, &next_id);
    const std::vector<LoadOutcome> outcomes =
        RunOpenLoop(&setup.connections, requests, 0, &tracer, slice_span.id());
    slice_span.End();
    const serve::SessionStats stats_after = setup.session->Stats();
    const serve::BatcherStats batcher_after = setup.server->batcher_stats();
    batches += batcher_after.batches - batcher_before.batches;
    batched_probes += batcher_after.probes - batcher_before.probes;
    const auto& pc0 = stats_before.plan_cache;
    const auto& pc1 = stats_after.plan_cache;
    cache_hits += pc1.hits - pc0.hits;
    cache_lookups += (pc1.hits - pc0.hits) + (pc1.misses - pc0.misses);
    cache_invalidations += pc1.invalidations - pc0.invalidations;
    Pool(Summarize(requests, outcomes), &nominal);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].sampled || !outcomes[i].ok) continue;
      ++checked;
      if (!CheckProbe(requests[i], outcomes[i], requests, outcomes,
                      corpus_by_key, *blocking, real_matcher)) {
        ++nominal.failed;
      }
    }
    last_round_s = (NowNs() - round_start) / 1e9;
  }
  attempted += nominal.attempted;
  failed += nominal.failed;

  const Ladder ladder = RunLadder(w, &setup, opt.seconds * (1 - kWindowShare),
                                  &rng, &next_id, &tracer);
  attempted += ladder.attempted;
  failed += ladder.failed;

  // ---- per-layer extras of the traced run ----
  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  const double mean_batch =
      batches == 0 ? 0 : static_cast<double>(batched_probes) / batches;

  if (opt.trace) {
    // Simulator reconciliation: project each executed plan with a cost
    // model calibrated on this input; one reduce slot per task, so the
    // slot imbalance is the predicted task max/mean. Task and job start-up
    // overheads are zero: tasks here are function calls, not JVMs.
    sim::CalibrationOptions calibration;
    calibration.base.task_overhead_ms = 0;
    calibration.base.job_overhead_s = 0;
    calibration.seed = opt.seed;
    const auto model = sim::CalibrateCostModel(setup.entities, *blocking,
                                               real_matcher, calibration);
    const JobOutcome& bs = last_traced["blocksplit"];
    for (lb::StrategyKind kind : kStrategies) {
      const std::string sfx = Suffix(kind);
      const auto& ls = layers[sfx];
      auto med = [&ls](auto field) {
        std::vector<double> v;
        for (const LayerSample& l : ls) v.push_back(field(l));
        return Median(v);
      };
      add("ingest.s." + sfx, med([](auto& l) { return l.ingest_s; }), "s");
      add("ingest.cpu_s." + sfx, med([](auto& l) { return l.ingest_cpu_s; }),
          "s");
      if (kind != lb::StrategyKind::kBasic) {
        add("bdm.s." + sfx, med([](auto& l) { return l.bdm_s; }), "s");
        add("bdm.cpu_s." + sfx, med([](auto& l) { return l.bdm_cpu_s; }),
            "s");
        add("bdm.map_output_pairs." + sfx,
            med([](auto& l) { return l.bdm_map_output_pairs; }), "count");
        add("plan.s." + sfx, med([](auto& l) { return l.plan_s; }), "s");
      }
      add("match.s." + sfx, med([](auto& l) { return l.match_s; }), "s");
      add("match.cpu_s." + sfx, med([](auto& l) { return l.match_cpu_s; }),
          "s");
      add("match.map_output_pairs." + sfx,
          med([](auto& l) { return l.match_map_output_pairs; }), "count");
      add("match.reduce_max_s." + sfx,
          med([](auto& l) { return l.reduce_max_s; }), "s");
      add("match.reduce_mean_s." + sfx,
          med([](auto& l) { return l.reduce_mean_s; }), "s");
      const double imbalance = med([](auto& l) {
        return l.reduce_mean_s > 0 ? l.reduce_max_s / l.reduce_mean_s : 1.0;
      });
      add("match.imbalance." + sfx, imbalance, "ratio");
      add("match.reduce_sum_over_cpu." + sfx, med([](auto& l) {
            return l.match_cpu_s > 0 ? l.reduce_sum_s / l.match_cpu_s : 0.0;
          }),
          "ratio");
      const double calls = med([](auto& l) {
        return static_cast<double>(l.matcher.calls);
      });
      const double matches = med([](auto& l) {
        return static_cast<double>(l.matcher.matches);
      });
      const double busy = med([](auto& l) { return l.matcher.busy_ns / 1e9; });
      add("matcher.calls." + sfx, calls, "count");
      add("matcher.matches." + sfx, matches, "count");
      add("matcher.match_ratio." + sfx, calls > 0 ? matches / calls : 0,
          "ratio");
      add("matcher.busy_s." + sfx, busy, "s");
      add("matcher.ns_per_call." + sfx, calls > 0 ? busy * 1e9 / calls : 0,
          "ns");
      add("cluster.s." + sfx, med([](auto& l) { return l.cluster_s; }), "s");
      add("spill.mb." + sfx, med([](auto& l) { return l.spill_mb; }), "MB");
      add("proc.worker_processes." + sfx,
          med([](auto& l) { return l.worker_processes; }), "count");
      add("proc.worker_deaths." + sfx,
          med([](auto& l) { return l.worker_deaths; }), "count");
      add("mr.task_retries." + sfx,
          med([](auto& l) { return l.task_retries; }), "count");
      add("trace.overhead_s." + sfx,
          Median(job_s_traced[sfx]) - Median(job_s[sfx]), "s");

      double err = 0;
      if (bs.bdm && model.ok()) {
        std::shared_ptr<lb::MatchPlan> plan = last_traced[sfx].plan;
        if (kind == lb::StrategyKind::kBasic) {
          lb::MatchJobOptions options;
          options.num_reduce_tasks = kReduceTasks;
          auto basic = lb::MakeStrategy(kind)->BuildPlan(*bs.bdm, options);
          if (basic.ok()) {
            plan = std::make_shared<lb::MatchPlan>(std::move(*basic));
          }
        }
        if (plan) {
          sim::ClusterConfig cluster;
          cluster.num_nodes = kReduceTasks;
          cluster.map_slots_per_node = 1;
          cluster.reduce_slots_per_node = 1;
          auto projected =
              sim::SimulateMatchPlan(*plan, *bs.bdm, cluster, model->model);
          if (projected.ok() && imbalance > 0) {
            err = std::abs(projected->reduce_slot_imbalance / imbalance - 1);
          }
        }
      }
      add("sim.imbalance_err." + sfx, err, "ratio");
    }

    // Direct session calls (server idle): the per-call costs behind the
    // serve latencies, and the re-plan cost a plan-cache miss pays.
    const size_t batch_size =
        std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch)));
    std::vector<double> probe_ms, insert_ms, remove_ms, plan_ms;
    for (int i = 0; i < 20; ++i) {
      auto probes = BuildSchedule(w, setup.serve_corpus, batch_size, 1, 0,
                                  &rng, &next_id);
      std::vector<er::Entity> batch;
      for (auto& r : probes) {
        if (r.kind == LoadRequest::Kind::kProbe) batch.push_back(r.entity);
      }
      int64_t t0 = NowNs();
      if (!setup.session->ProbeBatch(batch).ok()) ++failed;
      probe_ms.push_back((NowNs() - t0) / 1e6);
      er::Entity record = probes.front().entity;
      record.id = kInsertIdBase + next_id++;
      t0 = NowNs();
      if (!setup.session->Insert({record}).ok()) ++failed;
      insert_ms.push_back((NowNs() - t0) / 1e6);
      t0 = NowNs();
      if (!setup.session->Remove({record.id}).ok()) ++failed;
      remove_ms.push_back((NowNs() - t0) / 1e6);
      attempted += 3;
    }
    const bdm::Bdm serve_bdm = setup.session->BdmSnapshot();
    const auto serve_strategy = lb::MakeStrategy(lb::StrategyKind::kBlockSplit);
    for (int i = 0; i < 20; ++i) {
      const int64_t t0 = NowNs();
      auto plan = serve_strategy->BuildPlan(
          serve_bdm, setup.session->options().MatchOptions());
      if (!plan.ok()) ++failed;
      plan_ms.push_back((NowNs() - t0) / 1e6);
    }

    add("plan.s.serve", Median(plan_ms) / 1e3, "s");
    add("serve.batches", static_cast<double>(batches), "count");
    add("serve.batch_probes_mean", mean_batch, "count");
    add("plan_cache.hit_ratio",
        cache_lookups > 0 ? static_cast<double>(cache_hits) / cache_lookups
                          : 0,
        "ratio");
    add("plan_cache.invalidations", static_cast<double>(cache_invalidations),
        "count");
    add("session.probe_batch_ms", Median(probe_ms), "ms");
    add("session.insert_ms", Median(insert_ms), "ms");
    add("session.remove_ms", Median(remove_ms), "ms");
    add("probe_p99_ms", Percentile(nominal.probe_ms, 99), "ms");
    add("max_probe_rate", ladder.max_rate, "1/s");
    add("write_p50_ms", Percentile(nominal.write_ms, 50), "ms");
    add("write_p99_ms", Percentile(nominal.write_ms, 99), "ms");
    add("serve.generator_lag_ms", Percentile(nominal.lag_ms, 99), "ms");
    add("serve.probe_samples",
        static_cast<double>(nominal.probe_ms.size()), "count");
    add("serve.write_samples",
        static_cast<double>(nominal.write_ms.size()), "count");
    add("failed_frac", static_cast<double>(failed) / attempted, "ratio");
  } else {
    add("setup_s", Median(setup_times), "s");
    for (lb::StrategyKind kind : kStrategies) {
      add("job_s." + Suffix(kind), Median(job_s[Suffix(kind)]), "s");
    }
    add("cpu_s", Median(round_cpu), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("probe_p50_ms", Percentile(nominal.probe_ms, 50), "ms");
  }

  setup.Close();

  char stamp[1024];
  std::snprintf(
      stamp, sizeof(stamp),
      "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"trace\": %d, \"batch_rounds\": %d, \"probe_samples\": %zu, "
      "\"write_samples\": %zu, \"probes_checked\": %llu, "
      "\"ladder_steps\": %d, \"candidate_pairs\": %llu, "
      "\"reference_pairs\": %zu, "
      "\"reference_digest\": \"%016llx\"}",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(ERBENCH_COMPILER).c_str(),
      JsonEscape(ERBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(opt.seed), w.name.c_str(),
      opt.trace ? 1 : 0, rounds, nominal.probe_ms.size(),
      nominal.write_ms.size(),
      static_cast<unsigned long long>(checked), ladder.steps,
      static_cast<unsigned long long>(candidate_pairs), reference.size(), static_cast<unsigned long long>(reference_digest));
  if (opt.trace) {
    const std::string trace_path = out_dir + "/trace-" + w.name + "-seed" +
                                   std::to_string(opt.seed) + ".json";
    Status written = tracer.WriteChromeJson(trace_path, stamp);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu spans)\n", trace_path.c_str(),
                 tracer.size());
  }
  std::printf("{\"stamp\": %s}\n", stamp);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace erbench

int main(int argc, char** argv) {
  erbench::Options options;
  if (!erbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: erbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale full|tiny] "
                 "[--wrong-matcher <modulus>]\n");
    return 2;
  }
  // A run that hangs must still end well inside the 180 s budget.
  std::signal(SIGALRM, SIG_DFL);
  ::alarm(erbench::kRunTimeoutSeconds);
  return erbench::Run(options);
}
