// perfbench: the end-to-end benchmark of the FastMatch reproduction.
//
//   perfbench --workload <paper-solo|dashboard-b8|service-closed8>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload as a closed loop, paper-solo and
// dashboard-b8 at paper scale (flights 24M, taxi 24M, police 16M rows),
// service-closed8 at 8M rows per store. Every answer is checked against
// the independent oracle in oracle.h. The last line of stdout is one
// JSON object: the five end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1 (which also writes the span trace
// to .bench_build/traces/).
// See perfbench/README.md for the workloads, metrics and figures.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "engine/io_manager.h"
#include "index/bitmap_index.h"
#include "oracle.h"
#include "service/query_scheduler.h"
#include "trace.h"
#include "workload/generator.h"
#include "workload/queries.h"
#include "workload/traffic.h"

namespace perfbench {
namespace {

using namespace fastmatch;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val);
    } else if (key == "--trace") {
      args->trace = std::atoi(val) != 0;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int EngineThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Seconds of CPU time the hypervisor took from this machine's CPUs
// (the steal column of /proc/stat), or -1 when unavailable. Reported
// with each run: steal from other tenants slows the nproc-thread
// workloads most.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : -1;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// --------------------------------------------------------------- set-up

constexpr double kEpsilon = 0.04;
constexpr double kDelta = 0.01;
constexpr double kSigma = 0.0008;
constexpr int64_t kStage1Samples = 200000;
constexpr int kBatchQueries = 8;
constexpr int kBatchVariants = 4;  // distinct-target batches per template
// The stores are fixed, like the paper's datasets (the seeds of the
// repository's benches); the run seed drives everything drawn from them.
constexpr uint64_t kDataSeed = 20180501;
constexpr int kOutstanding = 8;

HistSimParams Params() {
  HistSimParams p;
  p.epsilon = kEpsilon;
  p.delta = kDelta;
  p.sigma = kSigma;
  p.stage1_samples = kStage1Samples;
  return p;
}

// One Table 3 template with everything the workloads and the oracle
// need about it.
struct Template {
  PaperQuery spec;
  const SyntheticDataset* ds = nullptr;
  std::shared_ptr<const BitmapIndex> index;
  int z_attr = -1;
  int x_attr = -1;
  OracleCounts oracle;
};

struct World {
  std::map<std::string, SyntheticDataset> datasets;
  std::vector<Template> templates;
  double generate_s = 0;
  double index_s = 0;
  double prepare_s = 0;  // filled by the workload
};

// Store sizes (flights, taxi, police) of one workload.
struct Rows {
  int64_t flights, taxi, police;
};

// Generates the three stores and builds the bitmap indexes the nine
// templates use.
World BuildWorld(const Rows& rows, Tracer* tracer, int parent) {
  World w;
  const double t0 = Now();
  {
    ScopedSpan span(tracer, "storage.generate", parent);
    w.datasets["flights"] = MakeFlightsLike(rows.flights, kDataSeed);
    w.datasets["taxi"] = MakeTaxiLike(rows.taxi, kDataSeed + 1);
    w.datasets["police"] = MakePoliceLike(rows.police, kDataSeed + 2);
  }
  const double t1 = Now();
  std::map<std::pair<std::string, int>, std::shared_ptr<const BitmapIndex>>
      indexes;
  {
    ScopedSpan span(tracer, "index.build", parent);
    for (const PaperQuery& spec : PaperQueries()) {
      Template t;
      t.spec = spec;
      t.ds = &w.datasets.at(spec.dataset);
      const Schema& schema = t.ds->store->schema();
      auto z = schema.FindAttribute(spec.z_attr);
      auto x = schema.FindAttribute(spec.x_attr);
      if (!z.ok() || !x.ok()) {
        std::fprintf(stderr, "perfbench: %s: unknown attribute\n",
                     spec.id.c_str());
        std::exit(2);
      }
      t.z_attr = *z;
      t.x_attr = *x;
      auto& idx = indexes[{spec.dataset, t.z_attr}];
      if (idx == nullptr) {
        auto built = BitmapIndex::Build(*t.ds->store, t.z_attr);
        if (!built.ok()) {
          std::fprintf(stderr, "perfbench: index: %s\n",
                       built.status().ToString().c_str());
          std::exit(2);
        }
        idx = std::move(built).value();
      }
      t.index = idx;
      w.templates.push_back(std::move(t));
    }
  }
  w.generate_s = t1 - t0;
  w.index_s = Now() - t1;
  return w;
}

// Exact counts per template from the benchmark's own column loop.
// Runs after setup_s is taken; not part of any metric.
void BuildOracle(World* w) {
  for (Template& t : w->templates) {
    t.oracle = CountTemplate(*t.ds->store, t.z_attr, t.x_attr);
  }
}

// ---------------------------------------------------------- checking

// Tallies the oracle verdicts of one run.
struct Checker {
  int64_t checked = 0;      // OK answers checked against the oracle
  int64_t violations = 0;   // answers breaking Guarantee 1 or 2
  int64_t exact_mismatches = 0;
  int64_t topk_equal = 0;
  bool property_ok = true;
  std::vector<std::string> notes;

  // Returns true when the query counts as answered (not failed).
  bool Answer(const Status& status, const MatchResult* match,
              const OracleCounts& counts, const OracleAnswer& answer,
              const char* what) {
    if (!status.ok()) {
      Note(std::string(what) + ": status " + status.ToString());
      return false;
    }
    const Verdict v = Check(counts, answer, *match, kEpsilon);
    ++checked;
    topk_equal += v.topk_equal;
    if (v.exact_mismatches > 0) {
      exact_mismatches += v.exact_mismatches;
      property_ok = false;
      Note(std::string(what) + ": candidate flagged exact with a distance "
                               "other than the oracle's");
    }
    if (!v.separation_ok || !v.reconstruction_ok) {
      ++violations;
      Note(std::string(what) +
           (v.separation_ok ? "" : ": Guarantee 1 violated") +
           (v.reconstruction_ok ? "" : ": Guarantee 2 violated"));
      return false;
    }
    return true;
  }

  // The verdict on an answer that a known fault is expected to break
  // (the join probe's joiner): empty when it passes, else what failed.
  // It neither counts towards the violation rate nor fails a property.
  std::string Probe(const Status& status, const MatchResult& match,
                    const OracleCounts& counts, const OracleAnswer& answer) {
    if (!status.ok()) return "status " + status.ToString();
    const Verdict v = Check(counts, answer, match, kEpsilon);
    std::string why;
    if (!v.separation_ok) why += " Guarantee 1 violated;";
    if (!v.reconstruction_ok) why += " Guarantee 2 violated;";
    if (v.exact_mismatches > 0) {
      why += " " + std::to_string(v.exact_mismatches) +
             " candidates flagged exact with a distance other than the "
             "oracle's;";
    }
    return why;
  }

  void Fail(const std::string& what) {
    property_ok = false;
    Note(what);
  }

  void Note(const std::string& s) {
    if (notes.size() < 20) notes.push_back(s);
  }

  // Realized violations must stay below what Binomial(n, delta) exceeds
  // with probability under 1e-6.
  void CheckViolationRate() {
    const int64_t limit = BinomialUpperLimit(checked, kDelta, 1e-6);
    if (violations > limit) {
      Fail("realized guarantee violations " + std::to_string(violations) +
           " exceed the Binomial(" + std::to_string(checked) +
           ", delta) limit " + std::to_string(limit));
    }
  }
};

// ----------------------------------------------------------- reporting

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  std::string MetricsJson() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i ? ", " : "", metrics[i].first.c_str(),
                    std::isfinite(metrics[i].second.first)
                        ? metrics[i].second.first
                        : 0.0);
      out += buf;
      out += "\"unit\": \"" + metrics[i].second.second + "\"}";
    }
    return out + "}";
  }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed), MetricsJson().c_str());
    std::fflush(stdout);
  }
};

// The end-to-end figures every workload reports, from its measured phase.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> latencies;  // seconds, one per answered query
  int64_t answered = 0;
  double busy_s = 0;  // measured-phase time the workload's calls took
  double tail_p = 0.99;
};

void AddEndToEnd(const EndToEnd& e, Report* r) {
  r->Set("setup_s", e.setup_s, "s");
  r->Set("queries_per_s", e.answered / std::max(1e-9, e.busy_s), "1/s");
  r->Set("query_p50_s", Percentile(e.latencies, 0.5), "s");
  r->Set("query_tail_s", Percentile(e.latencies, e.tail_p), "s");
  r->Set("peak_rss_mib", PeakRssMib(), "MiB");
}

// Per-layer figures by name. Every traced run reports every name in
// LayerNames(); a layer the workload does not pass through reads 0.
using Layers = std::map<std::string, double>;

const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const auto* names =
      new std::vector<std::pair<std::string, std::string>>{
          {"storage.generate_s", "s"},
          {"index.build_s", "s"},
          {"workload.prepare_s", "s"},
          {"engine.blocks_read_per_query", "count"},
          {"engine.blocks_skipped_per_query", "count"},
          {"engine.skip_ratio", "ratio"},
          {"engine.marker_batches_per_query", "count"},
          {"core.stage1_s", "s"},
          {"core.stage2_s", "s"},
          {"core.stage3_s", "s"},
          {"core.stage1_rows", "count"},
          {"core.stage2_rows", "count"},
          {"core.stage3_rows", "count"},
          {"core.rounds_per_query", "count"},
          {"engine.create_s", "s"},
          {"engine.step_s", "s"},
          {"engine.chunks_per_batch", "count"},
          {"engine.rows_read_per_query", "count"},
          {"engine.block_scans_per_query", "count"},
          {"engine.kernel_rows_per_s", "1/s"},
          {"engine.thread_speedup", "ratio"},
          {"service.submit_s", "s"},
          {"service.queue_wait_s", "s"},
          {"service.exec_s", "s"},
          {"service.timeout_flush_ratio", "ratio"},
          {"service.first_progress_s", "s"},
          {"service.queries_per_batch", "count"},
          {"service.stage1_hit_ratio", "ratio"},
          {"service.blocks_read_per_query", "count"},
          {"service.join_probe_s", "s"},
      };
  return *names;
}

// Means of the HistSim diagnostics over the answered queries.
struct CoreTally {
  std::vector<double> s1, s2, s3, r1, r2, r3, rounds;
  void Add(const HistSimDiagnostics& d) {
    s1.push_back(d.stage1_seconds);
    s2.push_back(d.stage2_seconds);
    s3.push_back(d.stage3_seconds);
    r1.push_back(static_cast<double>(d.stage1_samples));
    r2.push_back(static_cast<double>(d.stage2_samples));
    r3.push_back(static_cast<double>(d.stage3_samples));
    rounds.push_back(d.rounds);
  }
  void Report(Layers* l) const {
    (*l)["core.stage1_s"] = Mean(s1);
    (*l)["core.stage2_s"] = Mean(s2);
    (*l)["core.stage3_s"] = Mean(s3);
    (*l)["core.stage1_rows"] = Mean(r1);
    (*l)["core.stage2_rows"] = Mean(r2);
    (*l)["core.stage3_rows"] = Mean(r3);
    (*l)["core.rounds_per_query"] = Mean(rounds);
  }
};

// The counting kernel's rows per second: the median of three passes,
// each one single-thread IoManager::ReadBlocks over every block of
// each template.
double KernelRowsPerSecond(const World& w, Tracer* tracer, int parent) {
  ScopedSpan span(tracer, "probe.kernel", parent);
  std::vector<double> rates;
  for (int pass = 0; pass < 3; ++pass) {
    int64_t rows = 0;
    double secs = 0;
    for (const Template& t : w.templates) {
      auto io = IoManager::Create(t.ds->store, t.z_attr, {t.x_attr});
      if (!io.ok()) continue;
      std::vector<BlockId> blocks(static_cast<size_t>((*io)->pin().num_blocks));
      for (size_t b = 0; b < blocks.size(); ++b) {
        blocks[b] = static_cast<BlockId>(b);
      }
      CountMatrix shard((*io)->num_candidates(), (*io)->num_groups());
      const double t0 = Now();
      rows += (*io)->ReadBlocks(blocks, 0, blocks.size(), &shard);
      secs += Now() - t0;
    }
    rates.push_back(static_cast<double>(rows) / std::max(1e-9, secs));
  }
  return Percentile(rates, 0.5);
}

// ------------------------------------------------------------ workloads

struct Run {
  Args args;
  Tracer* tracer = nullptr;
  World* world = nullptr;
  EndToEnd e2e;
  Layers layers;
  Checker checker;
  int64_t attempted = 0;
  int64_t failed = 0;
  int measure_span = -1;
  std::string trace_json;  // extra fields for the trace file
};

// paper-solo: one analyst runs the nine Table 3 queries round-robin
// through RunQuery(FastMatch), a fresh seed per repetition.
void PaperSolo(Run* run, int setup_span) {
  World& w = *run->world;
  std::vector<PreparedQuery> prepared;
  std::vector<OracleAnswer> answers;
  {
    const double t0 = Now();
    ScopedSpan span(run->tracer, "workload.prepare", setup_span);
    for (const Template& t : w.templates) {
      auto p = PrepareQuery(*t.ds, t.spec, Params(), t.index);
      if (!p.ok()) {
        std::fprintf(stderr, "perfbench: prepare %s: %s\n", t.spec.id.c_str(),
                     p.status().ToString().c_str());
        std::exit(2);
      }
      prepared.push_back(std::move(p).value());
    }
    w.prepare_s = Now() - t0;
  }
  run->tracer->End(setup_span);
  run->e2e.setup_s = Now();
  BuildOracle(&w);
  for (size_t i = 0; i < prepared.size(); ++i) {
    answers.push_back(Rank(w.templates[i].oracle, prepared[i].bound.target,
                           kSigma, prepared[i].bound.params.k));
  }

  std::vector<double> blocks_read, blocks_skipped, markers, rows_read;
  // Latency of every measured query; query j ran template j % 9.
  std::vector<double> per_template;
  double read_sum = 0, skipped_sum = 0;
  CoreTally core;
  uint64_t rep = 0;
  auto round = [&](bool measured) {
    for (size_t i = 0; i < prepared.size(); ++i) {
      BoundQuery q = prepared[i].bound;
      q.params.seed = Mix(run->args.seed, 1000 + rep);
      const double t0 = Now();
      const int span = run->tracer->Begin(
          "engine.run_query", measured ? run->measure_span : -1);
      auto out = RunQuery(q, Approach::kFastMatch);
      run->tracer->End(span);
      const double dt = Now() - t0;
      const Status st = out.ok() ? Status::OK() : out.status();
      const bool ok = run->checker.Answer(
          st, out.ok() ? &out->match : nullptr, w.templates[i].oracle,
          answers[i], w.templates[i].spec.id.c_str());
      if (!measured) continue;
      per_template.push_back(dt);
      ++run->attempted;
      run->e2e.busy_s += dt;
      if (!ok) {
        ++run->failed;
        continue;
      }
      ++run->e2e.answered;
      run->e2e.latencies.push_back(dt);
      const EngineStats& es = out->stats.engine;
      blocks_read.push_back(static_cast<double>(es.blocks_read));
      blocks_skipped.push_back(static_cast<double>(es.blocks_skipped));
      markers.push_back(static_cast<double>(es.marker_batches));
      rows_read.push_back(static_cast<double>(es.rows_read));
      read_sum += static_cast<double>(es.blocks_read);
      skipped_sum += static_cast<double>(es.blocks_skipped);
      core.Add(out->match.diag);
    }
    ++rep;
  };

  round(false);  // warm-up, discarded
  run->measure_span = run->tracer->Begin("measure");
  const double start = Now();
  while (Now() - start < run->args.seconds) round(true);
  run->tracer->End(run->measure_span);

  run->layers["engine.blocks_read_per_query"] = Mean(blocks_read);
  run->layers["engine.rows_read_per_query"] = Mean(rows_read);
  run->layers["engine.blocks_skipped_per_query"] = Mean(blocks_skipped);
  run->layers["engine.skip_ratio"] =
      skipped_sum / std::max(1.0, read_sum + skipped_sum);
  run->layers["engine.marker_batches_per_query"] = Mean(markers);
  core.Report(&run->layers);

  if (run->tracer->enabled()) {
    // Reference figures: each template's FastMatch median over the
    // measured queries, and the exhaustive Scan approach (the paper's
    // speedup denominator), median of three runs.
    std::string ref;
    for (size_t i = 0; i < prepared.size(); ++i) {
      std::vector<double> fast, scan;
      for (size_t j = i; j < per_template.size(); j += prepared.size()) {
        fast.push_back(per_template[j]);
      }
      ScopedSpan span(run->tracer, "probe.scan");
      for (int r = 0; r < 3; ++r) {
        const double t0 = Now();
        auto out = RunQuery(prepared[i].bound, Approach::kScan);
        scan.push_back(Now() - t0);
        run->checker.Answer(out.ok() ? Status::OK() : out.status(),
                            out.ok() ? &out->match : nullptr,
                            w.templates[i].oracle, answers[i], "scan");
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"fastmatch_p50_s\": %.6g, \"scan_s\": %.6g}",
                    i ? ", " : "", w.templates[i].spec.id.c_str(),
                    Percentile(fast, 0.5), Percentile(scan, 0.5));
      ref += buf;
    }
    run->trace_json = "\"reference\": {" + ref + "}";
  }
}

// Bit-for-bit equality of two batch outcomes.
bool SameItems(const std::vector<BatchItem>& a,
               const std::vector<BatchItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const MatchResult& x = a[i].match;
    const MatchResult& y = b[i].match;
    if (a[i].status.code() != b[i].status.code() || x.topk != y.topk ||
        x.topk_distances != y.topk_distances || x.distances != y.distances ||
        x.error_bars != y.error_bars || x.pruned != y.pruned ||
        x.exact != y.exact ||
        x.counts.num_candidates() != y.counts.num_candidates()) {
      return false;
    }
    for (int c = 0; c < x.counts.num_candidates(); ++c) {
      const auto rx = x.counts.Row(c);
      const auto ry = y.counts.Row(c);
      if (!std::equal(rx.begin(), rx.end(), ry.begin(), ry.end())) return false;
    }
  }
  return true;
}

// dashboard-b8: for each template one BatchExecutor batch of eight
// distinct-target queries on nproc threads, one batch at a time. Each
// template has kBatchVariants such batches (different targets), used
// in turn across repetitions.
void DashboardB8(Run* run, int setup_span) {
  World& w = *run->world;
  // batches[i * kBatchVariants + v]: variant v of template i.
  std::vector<std::vector<BoundQuery>> batches;
  {
    const double t0 = Now();
    ScopedSpan span(run->tracer, "workload.prepare", setup_span);
    for (size_t i = 0; i < w.templates.size(); ++i) {
      const Template& t = w.templates[i];
      TrafficOptions topt;
      topt.num_queries = kBatchQueries * kBatchVariants;
      topt.params = Params();
      topt.params.k = t.spec.k;
      topt.seed = Mix(run->args.seed, 2000 + i);
      auto b = MakeQueryBatch(t.ds->store, t.index, t.z_attr, {t.x_attr}, topt);
      if (!b.ok()) {
        std::fprintf(stderr, "perfbench: batch %s: %s\n", t.spec.id.c_str(),
                     b.status().ToString().c_str());
        std::exit(2);
      }
      for (int v = 0; v < kBatchVariants; ++v) {
        batches.emplace_back(b->begin() + v * kBatchQueries,
                             b->begin() + (v + 1) * kBatchQueries);
      }
    }
    w.prepare_s = Now() - t0;
  }
  run->tracer->End(setup_span);
  run->e2e.setup_s = Now();
  BuildOracle(&w);
  std::vector<std::vector<OracleAnswer>> answers(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const BoundQuery& q : batches[b]) {
      answers[b].push_back(Rank(w.templates[b / kBatchVariants].oracle,
                                q.target, kSigma, q.params.k));
    }
  }

  const int threads = EngineThreads();
  std::vector<double> create_s, step_s, chunks, rows_read, block_scans,
      blocks_read, blocks_skipped;
  double read_sum = 0, skipped_sum = 0;
  CoreTally core;
  // Runs one batch; returns its items and wall seconds.
  auto run_batch = [&](size_t i, int nthreads, uint64_t seed, int parent,
                       bool record, double* secs) {
    BatchOptions opt;
    opt.num_threads = nthreads;
    opt.seed = seed;
    const double t0 = Now();
    const int bspan = run->tracer->Begin("engine.batch", parent);
    int span = run->tracer->Begin("engine.create", bspan);
    auto ex = BatchExecutor::Create(batches[i], opt);
    run->tracer->End(span);
    const double t_created = Now();
    std::vector<BatchItem> items;
    if (!ex.ok()) {
      run->tracer->End(bspan);
      *secs = Now() - t0;
      for (size_t q = 0; q < batches[i].size(); ++q) {
        items.push_back(BatchItem{ex.status(), {}, 0});
      }
      return items;
    }
    span = run->tracer->Begin("engine.start", bspan);
    (*ex)->Start();
    run->tracer->End(span);
    for (;;) {
      span = run->tracer->Begin("engine.step", bspan);
      const bool more = (*ex)->Step();
      run->tracer->End(span);
      if (!more) break;
    }
    const double t_stepped = Now();
    span = run->tracer->Begin("engine.take_items", bspan);
    items = (*ex)->TakeItems();
    run->tracer->End(span);
    run->tracer->End(bspan);
    *secs = Now() - t0;
    if (record) {
      const BatchStats& bs = (*ex)->stats();
      const double nq = static_cast<double>(items.size());
      create_s.push_back(t_created - t0);
      step_s.push_back(t_stepped - t_created);
      chunks.push_back(static_cast<double>(bs.chunks));
      rows_read.push_back(static_cast<double>(bs.rows_read) / nq);
      block_scans.push_back(static_cast<double>(bs.block_scans) / nq);
      blocks_read.push_back(static_cast<double>(bs.blocks_read) / nq);
      blocks_skipped.push_back(static_cast<double>(bs.blocks_skipped) / nq);
      read_sum += static_cast<double>(bs.blocks_read);
      skipped_sum += static_cast<double>(bs.blocks_skipped);
    }
    return items;
  };

  uint64_t rep = 0;
  auto round = [&](bool measured) {
    for (size_t i = 0; i < w.templates.size(); ++i) {
      const size_t b = i * kBatchVariants + rep % kBatchVariants;
      double secs = 0;
      auto items = run_batch(b, threads, Mix(run->args.seed, 3000 + rep),
                             measured ? run->measure_span : -1, measured,
                             &secs);
      if (measured) run->e2e.busy_s += secs;
      for (size_t q = 0; q < items.size(); ++q) {
        const bool ok = run->checker.Answer(
            items[q].status, &items[q].match, w.templates[i].oracle,
            answers[b][q], w.templates[i].spec.id.c_str());
        if (!measured) continue;
        ++run->attempted;
        if (!ok) {
          ++run->failed;
          continue;
        }
        ++run->e2e.answered;
        run->e2e.latencies.push_back(items[q].wall_seconds);
        core.Add(items[q].match.diag);
      }
    }
    ++rep;
  };

  round(false);  // warm-up, discarded
  run->measure_span = run->tracer->Begin("measure");
  const double start = Now();
  while (Now() - start < run->args.seconds) round(true);
  run->tracer->End(run->measure_span);

  run->layers["engine.create_s"] = Mean(create_s);
  run->layers["engine.step_s"] = Mean(step_s);
  run->layers["engine.chunks_per_batch"] = Mean(chunks);
  run->layers["engine.rows_read_per_query"] = Mean(rows_read);
  run->layers["engine.block_scans_per_query"] = Mean(block_scans);
  run->layers["engine.blocks_read_per_query"] = Mean(blocks_read);
  run->layers["engine.blocks_skipped_per_query"] = Mean(blocks_skipped);
  run->layers["engine.skip_ratio"] =
      skipped_sum / std::max(1.0, read_sum + skipped_sum);
  core.Report(&run->layers);

  if (run->tracer->enabled()) {
    // The same batches at 1 thread and at nproc threads: the results
    // must be bit-for-bit identical, and their time ratio is the
    // worker pool's speedup.
    double t1 = 0, tn = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < w.templates.size(); ++i) {
        const size_t b = i * kBatchVariants + pass;
        const uint64_t seed = Mix(run->args.seed, 4000 + pass);
        double s1 = 0, sn = 0;
        ScopedSpan span(run->tracer, "probe.threads");
        auto one = run_batch(b, 1, seed, span.id(), false, &s1);
        auto many = run_batch(b, threads, seed, span.id(), false, &sn);
        t1 += s1;
        tn += sn;
        if (!SameItems(one, many)) {
          run->checker.Fail(w.templates[i].spec.id +
                            ": batch differs between 1 and " +
                            std::to_string(threads) + " threads");
        }
      }
    }
    run->layers["engine.thread_speedup"] = t1 / std::max(1e-9, tn);
  }
}

// Equality of a final ProgressUpdate and the delivered result.
bool FinalMatches(const ProgressUpdate& u, const MatchResult& m) {
  return u.final_update && u.topk == m.topk &&
         u.topk_distances == m.topk_distances && u.distances == m.distances &&
         u.error_bars == m.error_bars && u.exact == m.exact;
}

// service-closed8: one generator thread keeps eight queries outstanding
// on one QueryScheduler (stage-1 cache on, progress tracked), waiting
// FIFO and resubmitting from a nine-template traffic stream. Every
// round ends with one join probe on a second scheduler.
void ServiceClosed8(Run* run, int setup_span) {
  World& w = *run->world;
  constexpr int kRound = 36;  // queries per round
  // The stream holds a run's arrivals at up to this rate (several times
  // the rate in README.md), so no query repeats within a run; a run
  // that would need more fails instead of wrapping around.
  constexpr int kMaxQueriesPerSecond = 250;
  const size_t stream_len =
      kRound * (2 + static_cast<size_t>(std::ceil(
                        run->args.seconds * kMaxQueriesPerSecond / kRound)));
  std::vector<Arrival> stream;
  std::vector<size_t> template_of;  // stream index -> template
  // The join probe's two queries on taxi-q1: fixed inputs, the same in
  // every run whatever the seed.
  size_t probe_template = 0;
  std::vector<BoundQuery> probe;
  {
    const double t0 = Now();
    ScopedSpan span(run->tracer, "workload.prepare", setup_span);
    std::vector<StoreTraffic> traffic;
    for (const Template& t : w.templates) {
      StoreTraffic st;
      st.store = t.ds->store;
      st.index = t.index;
      st.z_attr = t.z_attr;
      st.x_attrs = {t.x_attr};
      traffic.push_back(st);
    }
    TrafficStreamOptions topt;
    topt.num_queries = static_cast<int>(stream_len);
    topt.params = Params();
    topt.seed = Mix(run->args.seed, 5000);
    auto s = MakeTrafficStream(traffic, topt);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: stream: %s\n",
                   s.status().ToString().c_str());
      std::exit(2);
    }
    stream = std::move(s).value();
    while (w.templates[probe_template].spec.id != "taxi-q1") ++probe_template;
    const Template& pt = w.templates[probe_template];
    TrafficOptions popt;
    popt.num_queries = 2;
    popt.params = Params();
    popt.params.k = pt.spec.k;
    popt.seed = kDataSeed;
    auto b = MakeQueryBatch(pt.ds->store, pt.index, pt.z_attr, {pt.x_attr},
                            popt);
    if (!b.ok()) {
      std::fprintf(stderr, "perfbench: join probe: %s\n",
                   b.status().ToString().c_str());
      std::exit(2);
    }
    probe = std::move(b).value();
    w.prepare_s = Now() - t0;
  }
  run->tracer->End(setup_span);
  run->e2e.setup_s = Now();
  BuildOracle(&w);
  std::vector<OracleAnswer> answers;
  for (const Arrival& a : stream) {
    size_t ti = 0;
    while (ti < w.templates.size() &&
           !(w.templates[ti].ds->store == a.query.store &&
             w.templates[ti].z_attr == a.query.z_attr &&
             std::vector<int>{w.templates[ti].x_attr} == a.query.x_attrs)) {
      ++ti;
    }
    if (ti == w.templates.size()) {
      std::fprintf(stderr, "perfbench: stream query matches no template\n");
      std::exit(2);
    }
    template_of.push_back(ti);
    answers.push_back(Rank(w.templates[ti].oracle, a.query.target, kSigma,
                           a.query.params.k));
  }
  const OracleCounts& probe_oracle = w.templates[probe_template].oracle;
  std::vector<OracleAnswer> probe_answers;
  for (const BoundQuery& q : probe) {
    probe_answers.push_back(Rank(probe_oracle, q.target, kSigma, q.params.k));
  }

  SchedulerOptions sopt;
  sopt.batch.num_threads = EngineThreads();
  sopt.batch.seed = Mix(run->args.seed, 6000);
  sopt.stage1_cache = true;
  // Mid-flight joins are off for the traffic: a joined query inherits
  // exhaustion over its own scan suffix and then reports sampled
  // counts as exact, which fails the oracle on a timing-dependent share
  // of queries. The join probe below runs that path in every round.
  sopt.allow_joins = false;
  QueryScheduler scheduler(sopt);

  // The join probe: on a scheduler with the default options, the first
  // query opens a scan; its first progress callback holds the scan at
  // that chunk boundary until the second query is queued, so the second
  // joins at the same boundary in every probe. With fixed inputs the
  // outcome is the same every time, which the run checks bit for bit.
  SchedulerOptions probe_opt;
  probe_opt.batch.num_threads = EngineThreads();
  probe_opt.batch.seed = kDataSeed;
  QueryScheduler probe_scheduler(probe_opt);
  std::vector<double> probe_s;
  std::vector<BatchItem> probe_first;  // the first probe's joiner
  // Runs one probe; returns how many of its two queries failed.
  auto join_probe = [&](bool measured) {
    ScopedSpan span(run->tracer, "service.join_probe",
                    measured ? run->measure_span : -1);
    struct Gate {
      std::atomic<bool> first{true};
      std::promise<void> opened;
      std::shared_future<void> queued;
    };
    auto gate = std::make_shared<Gate>();
    std::promise<void> queued;
    gate->queued = queued.get_future().share();
    std::future<void> opened = gate->opened.get_future();
    SubmitOptions so;
    so.on_progress = [gate](const ProgressUpdate&) {
      if (gate->first.exchange(false)) {
        gate->opened.set_value();
        gate->queued.wait();
      }
    };
    auto ha = probe_scheduler.Submit(probe[0], std::move(so));
    if (!ha.ok()) {
      queued.set_value();
      run->checker.Fail("join probe: Submit refused: " +
                        ha.status().ToString());
      return 2;
    }
    if (opened.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      run->checker.Fail("join probe: the opening query reported no progress");
    }
    auto hb = probe_scheduler.Submit(probe[1], SubmitOptions());
    queued.set_value();
    const SchedulerItem a = ha->Get();
    int failed = run->checker.Answer(a.status, &a.match, probe_oracle,
                                     probe_answers[0], "join probe opener")
                     ? 0
                     : 1;
    if (!hb.ok()) {
      run->checker.Fail("join probe: Submit refused: " +
                        hb.status().ToString());
      return failed + 1;
    }
    const SchedulerItem b = hb->Get();
    if (!b.joined_midflight) {
      run->checker.Fail("join probe: the second query did not join");
    }
    const std::string why = run->checker.Probe(b.status, b.match,
                                               probe_oracle, probe_answers[1]);
    std::vector<BatchItem> joiner{BatchItem{b.status, b.match, 0}};
    if (probe_first.empty()) {
      probe_first = joiner;
      run->checker.Note("join probe: joined answer" +
                        (why.empty() ? std::string(" passes the oracle")
                                     : ":" + why));
    } else if (!SameItems(probe_first, joiner)) {
      run->checker.Fail("join probe: the joined answer differs between "
                        "probes");
    }
    if (measured) probe_s.push_back(b.total_seconds);
    return failed + (why.empty() ? 0 : 1);
  };

  struct Outstanding {
    QueryHandle handle;
    size_t index = 0;
    double submitted = 0;
    bool measured = false;
    std::shared_ptr<std::atomic<double>> first_progress;
  };
  std::deque<Outstanding> inflight;
  int64_t submitted = 0, delivered = 0;
  size_t next = 0;
  bool measuring = false, stop = false;
  double start = 0;
  std::vector<double> submit_s, queue_s, exec_s, first_s;
  CoreTally core;
  SchedulerStats before;
  int64_t round_left = kRound;  // warm-up is the first round

  auto submit = [&]() {
    if (next == stream.size()) {
      run->checker.Fail("the traffic stream of " +
                        std::to_string(stream.size()) +
                        " arrivals ran out; the run was faster than " +
                        std::to_string(kMaxQueriesPerSecond) + " queries/s");
      stop = true;
      return;
    }
    Outstanding o;
    o.index = next++;
    o.measured = measuring;
    SubmitOptions so;
    so.track_progress = true;
    if (run->tracer->enabled()) {
      auto first = std::make_shared<std::atomic<double>>(-1.0);
      o.first_progress = first;
      so.on_progress = [first](const ProgressUpdate&) {
        double none = -1.0;
        first->compare_exchange_strong(none, Now());
      };
    }
    o.submitted = Now();
    const int span = run->tracer->Begin(
        "service.submit", measuring ? run->measure_span : -1);
    auto h = scheduler.Submit(stream[o.index].query, std::move(so));
    run->tracer->End(span);
    if (measuring) submit_s.push_back(Now() - o.submitted);
    --round_left;
    if (!h.ok()) {
      // A refused query counts as failed; the loop then runs with one
      // query fewer outstanding.
      run->checker.Fail("Submit refused: " + h.status().ToString());
      run->attempted += measuring;
      run->failed += measuring;
      return;
    }
    ++submitted;
    o.handle = std::move(h).value();
    inflight.push_back(std::move(o));
  };

  for (int i = 0; i < kOutstanding; ++i) submit();
  while (!inflight.empty()) {
    Outstanding o = std::move(inflight.front());
    inflight.pop_front();
    SchedulerItem item = o.handle.Get();
    ++delivered;
    const size_t ti = template_of[o.index];
    const bool ok = run->checker.Answer(item.status, &item.match,
                                        w.templates[ti].oracle,
                                        answers[o.index],
                                        w.templates[ti].spec.id.c_str());
    if (item.status.ok()) {
      auto last = o.handle.Progress();
      if (!last.has_value() || !FinalMatches(*last, item.match)) {
        run->checker.Fail(w.templates[ti].spec.id +
                          ": final ProgressUpdate differs from the result");
      }
    }
    if (o.measured) {
      ++run->attempted;
      if (!ok) {
        ++run->failed;
      } else {
        ++run->e2e.answered;
        run->e2e.latencies.push_back(item.total_seconds);
        queue_s.push_back(item.queue_seconds);
        exec_s.push_back(item.total_seconds - item.queue_seconds);
        core.Add(item.match.diag);
        const int qspan =
            run->tracer->Add("service.query", o.submitted,
                             o.submitted + item.total_seconds,
                             run->measure_span);
        run->tracer->Add("service.queue", o.submitted,
                         o.submitted + item.queue_seconds, qspan);
        run->tracer->Add("service.exec", o.submitted + item.queue_seconds,
                         o.submitted + item.total_seconds, qspan);
        if (o.first_progress != nullptr && o.first_progress->load() >= 0) {
          first_s.push_back(o.first_progress->load() - o.submitted);
        }
      }
    }
    if (stop) continue;
    if (round_left == 0) {
      // A round's last query is submitted: its join probe.
      const int probe_failed = join_probe(measuring);
      if (measuring) {
        run->attempted += 2;
        run->failed += probe_failed;
      }
      if (!measuring) {
        // Warm-up round submitted: what is submitted from here on is
        // measured.
        measuring = true;
        run->measure_span = run->tracer->Begin("measure");
        start = Now();
        before = scheduler.stats();
      } else if (Now() - start >= run->args.seconds) {
        stop = true;
        continue;
      }
      round_left = kRound;
    }
    submit();
  }
  const double elapsed = Now() - start;
  run->tracer->End(run->measure_span);
  scheduler.Shutdown();
  probe_scheduler.Shutdown();
  const SchedulerStats after = scheduler.stats();
  run->e2e.busy_s = elapsed;

  if (delivered != submitted || after.submitted != submitted ||
      after.completed != submitted) {
    run->checker.Fail("delivered " + std::to_string(delivered) +
                      ", submitted " + std::to_string(submitted) +
                      ", scheduler submitted " +
                      std::to_string(after.submitted) + ", completed " +
                      std::to_string(after.completed));
  }
  auto diff = [&](int64_t SchedulerStats::*f) {
    return static_cast<double>(after.*f - before.*f);
  };
  const double completed = std::max(1.0, diff(&SchedulerStats::completed));
  const double batches = std::max(1.0, diff(&SchedulerStats::batches_launched));
  run->layers["service.submit_s"] = Mean(submit_s);
  run->layers["service.queue_wait_s"] = Mean(queue_s);
  run->layers["service.exec_s"] = Mean(exec_s);
  run->layers["service.timeout_flush_ratio"] =
      diff(&SchedulerStats::timeout_flushes) / batches;
  run->layers["service.first_progress_s"] = Mean(first_s);
  run->layers["service.queries_per_batch"] = completed / batches;
  run->layers["service.stage1_hit_ratio"] =
      diff(&SchedulerStats::stage1_hits) /
      std::max(1.0, diff(&SchedulerStats::stage1_lookups));
  run->layers["service.blocks_read_per_query"] =
      diff(&SchedulerStats::batch_blocks_read) / completed;
  run->layers["service.join_probe_s"] = Mean(probe_s);
  core.Report(&run->layers);
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper-solo|dashboard-b8|"
                 "service-closed8> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  // tail_p: the highest percentile that leaves at least ten samples
  // beyond it at the run lengths and rates in README.md.
  struct Workload {
    const char* name;
    void (*fn)(Run*, int);
    double tail_p;
    Rows rows;
  };
  static constexpr Workload kWorkloads[] = {
      {"paper-solo", PaperSolo, 0.97, {24000000, 24000000, 16000000}},
      {"dashboard-b8", DashboardB8, 0.99, {24000000, 24000000, 16000000}},
      {"service-closed8", ServiceClosed8, 0.98, {8000000, 8000000, 8000000}},
  };
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const double tail_p = wl->tail_p;

  Tracer tracer(args.trace);
  Run run;
  run.args = args;
  run.tracer = &tracer;
  run.e2e.tail_p = tail_p;
  const int setup_span = tracer.Begin("setup");
  World world = BuildWorld(wl->rows, &tracer, setup_span);
  run.world = &world;
  // The workload finishes set-up (query preparation) and closes the
  // setup span, stamps setup_s, builds its oracle, runs a discarded
  // warm-up round and then the measured phase.
  const double steal0 = StealSeconds(), wall0 = Now();
  wl->fn(&run, setup_span);
  const double steal_share =
      (StealSeconds() - steal0) /
      ((Now() - wall0) * std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  run.checker.CheckViolationRate();

  Report report;
  report.correct = run.checker.property_ok;
  report.attempted = run.attempted;
  report.failed = run.failed;
  for (const std::string& n : run.checker.notes) {
    std::fprintf(stderr, "perfbench: %s\n", n.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu answered=%lld failed=%lld "
               "checked=%lld violations=%lld exact_mismatches=%lld "
               "exact_topk=%lld setup=%.2fs steal=%.1f%%\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<long long>(run.e2e.answered),
               static_cast<long long>(run.failed),
               static_cast<long long>(run.checker.checked),
               static_cast<long long>(run.checker.violations),
               static_cast<long long>(run.checker.exact_mismatches),
               static_cast<long long>(run.checker.topk_equal),
               run.e2e.setup_s, 100 * steal_share);
  if (run.e2e.latencies.size() * (1 - tail_p) < 10) {
    std::fprintf(stderr,
                 "perfbench: warning: fewer than ten samples beyond p%g\n",
                 tail_p * 100);
  }

  Report e2e;
  AddEndToEnd(run.e2e, &e2e);
  if (!args.trace) {
    report.metrics = e2e.metrics;
    report.Print();
    return 0;
  }

  run.layers["storage.generate_s"] = world.generate_s;
  run.layers["index.build_s"] = world.index_s;
  run.layers["workload.prepare_s"] = world.prepare_s;
  run.layers["engine.kernel_rows_per_s"] =
      KernelRowsPerSecond(world, &tracer, -1);
  for (const auto& [name, unit] : LayerNames()) {
    auto it = run.layers.find(name);
    report.Set(name, it == run.layers.end() ? 0.0 : it->second, unit);
  }

  mkdir(".bench_build", 0755);
  mkdir(".bench_build/traces", 0755);
  const std::string path = ".bench_build/traces/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  const std::string extra =
      "\"workload\": \"" + args.workload + "\", \"seed\": " +
      std::to_string(args.seed) + ", \"tail_percentile\": " +
      std::to_string(tail_p) + ", \"steal_share\": " +
      std::to_string(steal_share) + ",\n\"end_to_end\": " + e2e.MetricsJson() +
      ",\n\"per_layer\": " + report.MetricsJson() +
      (run.trace_json.empty() ? "" : ",\n" + run.trace_json);
  if (!tracer.WriteJson(path, extra)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  }
  report.Print();
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
