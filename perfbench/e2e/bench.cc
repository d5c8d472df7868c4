#include "e2e/bench.h"

#include <cpuid.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "actionlog/log_io.h"
#include "common/memory.h"
#include "core/cd_model.h"
#include "datagen/cascade_generator.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "serve/gain_kernel.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/shard_manifest.h"
#include "shard/shard_writer.h"

extern char** environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;

// ------------------------------------------------------------ statistics

Quantile TailQuantile(std::vector<double>* samples, double pct) {
  Quantile q;
  q.samples = samples->size();
  if (samples->empty()) return q;
  std::sort(samples->begin(), samples->end());
  const std::size_t n = samples->size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  // No percentile has 10 samples beyond it in 10 or fewer: the median.
  rank = std::min(rank, n > 10 ? n - 10 : (n + 1) / 2);
  rank = std::clamp<std::size_t>(rank, 1, n);
  q.value = (*samples)[rank - 1];
  q.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return q;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Quantile BlockQuantile(const std::vector<double>& samples, double pct) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  // As many blocks as keep 10 samples beyond the percentile in each.
  const double beyond = static_cast<double>(samples.size()) * (1.0 - pct / 100.0);
  const std::size_t blocks = std::clamp<std::size_t>(
      static_cast<std::size_t>(beyond / 10.0), 1, kBlocks);
  std::vector<double> values;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> block(
        samples.begin() + static_cast<std::ptrdiff_t>(b * samples.size() / blocks),
        samples.begin() +
            static_cast<std::ptrdiff_t>((b + 1) * samples.size() / blocks));
    const Quantile q = TailQuantile(&block, pct);
    values.push_back(q.value);
    out.pct = q.pct;
  }
  out.value = Median(values);
  out.blocks = blocks;
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double Corrupt(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof bits);
  return value;
}

// ---------------------------------------------------------- result sheet

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples,
                 const std::string& note) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit, samples, note};
}

void Report::SetQuantile(const std::string& name, const Quantile& q,
                         double scale, const std::string& unit,
                         double wanted_pct) {
  char buf[128];
  if (q.pct + 1e-9 < wanted_pct) {
    std::snprintf(buf, sizeof buf,
                  "p%.2f: fewer than 10 samples beyond p%g", q.pct,
                  wanted_pct);
  } else if (q.blocks > 1) {
    std::snprintf(buf, sizeof buf, "median of %zu blocks' p%g", q.blocks,
                  wanted_pct);
  } else {
    std::snprintf(buf, sizeof buf, "p%g", wanted_pct);
  }
  Set(name, q.value * scale, unit, q.samples, buf);
}

void Report::Echo(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  echo_.emplace_back(key, value);
}

void Report::Echo(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  Echo(key, std::string(buf));
}

void Report::Count(std::uint64_t attempted, std::uint64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  failures_.push_back(why);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const Options& options) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double error_rate =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("workload %s seed %" PRIu64 " trace %d\n",
              options.workload.c_str(), options.seed, options.trace ? 1 : 0);
  for (const auto& [key, value] : echo_) {
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-34s %14.6g %-6s (%" PRIu64 " samples)%s%s\n",
                name.c_str(), m.value, m.unit.c_str(), m.samples,
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  std::printf("  %-34s %14.6g %-6s (%" PRIu64 " ops, %" PRIu64 " failed)\n",
              "error_rate", error_rate, "ratio", attempted_, failed_);
  for (const std::string& f : failures_) {
    std::printf("  FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"workload\":" + JsonString(options.workload) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"trace\":" + (options.trace ? "1" : "0") +
                     ",\"correct\":" +
                     (failures_.empty() && failed_ == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) +
                     ",\"error_rate\":" + JsonNumber(error_rate) +
                     ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    json += (i ? "," : "") + JsonString(failures_[i]);
  }
  json += "],\"echo\":{";
  for (std::size_t i = 0; i < echo_.size(); ++i) {
    json += (i ? "," : "") + JsonString(echo_[i].first) + ":" +
            JsonString(echo_[i].second);
  }
  json += "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    json += (first ? "" : ",") + JsonString(name) + ":{\"value\":" +
            JsonNumber(m.value) + ",\"unit\":" + JsonString(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) +
            ",\"note\":" + JsonString(m.note) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------------- spans

namespace {

struct ThreadSpans {
  int tid = 0;
  std::vector<Spans::Span> spans;
  std::vector<std::size_t> stack;
};

struct SpanRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSpans>> threads;
  std::atomic<bool> enabled{false};
};

SpanRegistry& Registry() {
  static SpanRegistry* registry = new SpanRegistry();
  return *registry;
}

ThreadSpans& Local() {
  thread_local ThreadSpans* local = [] {
    SpanRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadSpans>());
    reg.threads.back()->tid = static_cast<int>(reg.threads.size());
    reg.threads.back()->spans.reserve(1 << 16);
    return reg.threads.back().get();
  }();
  return *local;
}

}  // namespace

void Spans::Enable(bool on) { Registry().enabled = on; }
bool Spans::enabled() { return Registry().enabled; }

std::size_t Spans::Open(const char* name, std::uint64_t group) {
  ThreadSpans& local = Local();
  Span span;
  span.name = name;
  span.group = group;
  if (!local.stack.empty()) {
    span.parent = static_cast<std::int64_t>(local.stack.back());
    if (group == 0) span.group = local.spans[local.stack.back()].group;
  }
  span.start_ns = NowNs();
  local.spans.push_back(span);
  local.stack.push_back(local.spans.size() - 1);
  return local.spans.size() - 1;
}

void Spans::Close(std::size_t index) {
  ThreadSpans& local = Local();
  local.spans[index].end_ns = NowNs();
  if (!local.stack.empty() && local.stack.back() == index) {
    local.stack.pop_back();
  }
}

std::map<std::string, Spans::Totals> Spans::Aggregate() {
  SpanRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::map<std::string, Totals> out;
  for (const auto& thread : reg.threads) {
    std::vector<double> child_ns(thread->spans.size(), 0.0);
    for (const Span& s : thread->spans) {
      if (s.end_ns == 0 || s.parent < 0) continue;
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
    for (std::size_t i = 0; i < thread->spans.size(); ++i) {
      const Span& s = thread->spans[i];
      if (s.end_ns == 0) continue;
      Totals& t = out[s.name];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      t.count += 1;
      t.total_ns += d;
      t.self_ns += d - child_ns[i];
    }
  }
  return out;
}

Status Spans::WriteChromeTrace(const std::string& path) {
  SpanRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::uint64_t origin = ~0ULL;
  for (const auto& thread : reg.threads) {
    for (const Span& s : thread->spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  std::size_t written = 0;
  for (const auto& thread : reg.threads) {
    for (std::size_t i = 0; i < thread->spans.size(); ++i) {
      const Span& s = thread->spans[i];
      if (s.end_ns == 0) continue;
      if (++written > kMaxTraceEvents) break;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%lld,\"interaction\":%" PRIu64 "}}",
                   first ? "" : ",", s.name, thread->tid,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   static_cast<long long>(s.parent), s.group);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot write " + path);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t group)
    : recording_(Spans::enabled()) {
  if (recording_) index_ = Spans::Open(name, group);
  start_ns_ = NowNs();
}

std::uint64_t ScopedSpan::End() {
  if (open_) {
    duration_ns_ = NowNs() - start_ns_;
    if (recording_) Spans::Close(index_);
    open_ = false;
  }
  return duration_ns_;
}

// ---------------------------------------------------------- fingerprint

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

}  // namespace

void EchoFingerprint(const Options& options, Report* report) {
  report->Echo("fingerprint.nproc",
               std::to_string(std::thread::hardware_concurrency()));
  report->Echo("fingerprint.cpu_model", CpuModel());
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  report->Echo("fingerprint.l3_bytes", std::to_string(l3 > 0 ? l3 : 0));
  report->Echo("fingerprint.kernel_backend",
               influmax::GainKernelBackendName(
                   influmax::ActiveGainKernelBackend()));
  report->Echo("fingerprint.build_type", PERFBENCH_BUILD_TYPE);
  report->Echo("fingerprint.obs_off", influmax::kObsEnabled ? "0" : "1");
  report->Echo("commit", options.commit);
}

double PeakRssMb() {
  return static_cast<double>(influmax::PeakRssBytes()) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- inputs

std::string GraphPath(const Options& o) { return o.work_dir + "/graph.bin"; }
std::string LogPath(const Options& o) { return o.work_dir + "/log.bin"; }
std::string IngestBasePath(const Options& o) {
  return o.work_dir + "/ingest-base.log.bin";
}
std::string IngestStepPath(const Options& o, int step) {
  return o.work_dir + "/ingest-step" + std::to_string(step) + ".log.bin";
}
std::string GenerationDir(const Options& o) { return o.work_dir + "/gen"; }
std::string MonoPath(const Options& o) { return o.work_dir + "/mono.snap"; }

namespace {

/// The first `keep_fraction` of every trace (at least one tuple) of the
/// first `keep_actions` actions: an append-only prefix of `full`.
Result<ActionLog> PrefixLog(const ActionLog& full, double keep_fraction,
                            influmax::ActionId keep_actions) {
  influmax::ActionLogBuilder builder(full.num_users());
  for (influmax::ActionId a = 0; a < keep_actions; ++a) {
    const auto trace = full.ActionTrace(a);
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(trace.size()) *
                                    keep_fraction));
    for (std::size_t i = 0; i < keep && i < trace.size(); ++i) {
      builder.Add(trace[i].user, full.OriginalActionId(a), trace[i].time);
    }
  }
  return builder.Build();
}

}  // namespace

Status GenerateInputs(const Options& options) {
  auto data = influmax::BuildPresetDataset(
      influmax::FlixsterLargePreset(options.scale), options.data_seed);
  if (!data.ok()) return data.status();
  Status st = influmax::WriteGraphBinary(data->graph, GraphPath(options));
  if (!st.ok()) return st;
  st = influmax::WriteActionLogBinary(data->log, LogPath(options));
  if (!st.ok()) return st;
  if (options.workload != "ingest") return Status::OK();

  // Base: 60% of every trace, the last 10% of actions missing. Step s of
  // 4 keeps 60% + 10% * s of every trace and brings back a quarter of the
  // missing actions, so step 4 is the full log.
  const influmax::ActionId actions = data->log.num_actions();
  const influmax::ActionId missing = actions / 10;
  for (int step = 0; step <= kIngestSteps; ++step) {
    const double keep = 0.6 + 0.1 * step;
    const influmax::ActionId keep_actions =
        actions - missing * (kIngestSteps - step) / kIngestSteps;
    auto log = step == kIngestSteps
                   ? Result<ActionLog>(data->log)
                   : PrefixLog(data->log, keep, keep_actions);
    if (!log.ok()) return log.status();
    st = influmax::WriteActionLogBinary(
        *log, step == 0 ? IngestBasePath(options)
                        : IngestStepPath(options, step));
    if (!st.ok()) return st;
  }
  return Status::OK();
}

std::vector<NodeId> ActiveUsers(const ActionLog& log) {
  std::vector<NodeId> users;
  for (NodeId u = 0; u < log.num_users(); ++u) {
    if (log.ActionsPerformedBy(u) > 0) users.push_back(u);
  }
  return users;
}

Result<Credit> LearnCredit(const Graph& graph, const ActionLog& log) {
  auto params = influmax::LearnTimeParams(graph, log);
  if (!params.ok()) return params.status();
  Credit credit;
  credit.params =
      std::make_unique<influmax::InfluenceTimeParams>(std::move(params).value());
  credit.model =
      std::make_unique<influmax::TimeDecayDirectCredit>(*credit.params);
  return credit;
}

// ---------------------------------------------------------------- build

const std::vector<std::string>& BuildStageNames() {
  static const std::vector<std::string> names = {
      "graph.read",  "actionlog.read", "probability.learn",
      "core.scan",   "serve.freeze",   "serve.write",
      "serve.open",  "shard.split",    "shard.open"};
  return names;
}

Result<BuildTimes> RunBuild(const std::string& graph_path,
                            const std::string& log_path,
                            const std::string& gen_dir,
                            const std::string& mono_path,
                            std::uint64_t group) {
  std::error_code ec;
  fs::remove_all(gen_dir, ec);
  fs::remove(mono_path, ec);
  fs::create_directories(gen_dir, ec);
  if (ec) return Status::IoError("cannot create " + gen_dir);

  BuildTimes out;
  auto stage = [&out](const char* name, ScopedSpan& span) {
    out.stage_s[name] = static_cast<double>(span.End()) * 1e-9;
  };

  ScopedSpan root("build", group);
  ScopedSpan s_graph("graph.read");
  auto graph = influmax::ReadGraphBinary(graph_path);
  stage("graph.read", s_graph);
  if (!graph.ok()) return graph.status();

  ScopedSpan s_log("actionlog.read");
  auto log = influmax::ReadActionLogBinary(log_path);
  stage("actionlog.read", s_log);
  if (!log.ok()) return log.status();

  ScopedSpan s_learn("probability.learn");
  auto credit = LearnCredit(*graph, *log);
  stage("probability.learn", s_learn);
  if (!credit.ok()) return credit.status();

  influmax::CdConfig config;
  config.truncation_threshold = kLambda;
  ScopedSpan s_scan("core.scan");
  auto built = influmax::CreditDistributionModel::Build(*graph, *log,
                                                        *credit->model, config);
  stage("core.scan", s_scan);
  if (!built.ok()) return built.status();
  auto model = std::make_unique<influmax::CreditDistributionModel>(
      std::move(built).value());
  out.scan_hwm_mb = PeakRssMb();
  out.entries = model->credit_entries();
  out.store_mb =
      static_cast<double>(model->ApproxMemoryBytes()) / (1024.0 * 1024.0);

  {
    ScopedSpan s_freeze("serve.freeze");
    influmax::SnapshotData data = influmax::BuildSnapshotData(
        model->store(), *graph, *log, kLambda, model->committed_seeds());
    stage("serve.freeze", s_freeze);
    out.freeze_hwm_mb = PeakRssMb();
    // The store is released here, then the frozen image after the write;
    // neither is a public call, so both land in the residual.
    model.reset();

    ScopedSpan s_write("serve.write");
    Status st = influmax::WriteSnapshotFile(data, mono_path);
    stage("serve.write", s_write);
    if (!st.ok()) return st;
  }

  ScopedSpan s_open("serve.open");
  auto view = influmax::CreditSnapshotView::Open(mono_path);
  stage("serve.open", s_open);
  if (!view.ok()) return view.status();

  ScopedSpan s_split("shard.split");
  influmax::ShardManifest manifest;
  Status st = influmax::ShardedSnapshotWriter(gen_dir, kShards)
                  .WriteFromView(*view, /*generation=*/1, &manifest);
  if (st.ok()) {
    st = influmax::WriteCurrentManifestName(gen_dir,
                                            influmax::ManifestFileName(1));
  }
  stage("shard.split", s_split);
  if (!st.ok()) return st;

  ScopedSpan s_shard_open("shard.open");
  auto sharded =
      influmax::OpenShardedSnapshot(gen_dir + "/" + influmax::ManifestFileName(1));
  stage("shard.open", s_shard_open);
  if (!sharded.ok()) return sharded.status();
  out.total_s = static_cast<double>(root.End()) * 1e-9;

  out.nodes = graph->num_nodes();
  out.edges = graph->num_edges();
  out.tuples = log->num_tuples();
  out.actions = log->num_actions();
  return out;
}

std::string BuildReportPath(const Options& o) {
  return o.work_dir + "/build";
}

const BuildTimes& MedianBuild(const std::vector<BuildTimes>& builds) {
  std::vector<std::size_t> order(builds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return builds[a].total_s < builds[b].total_s;
  });
  return builds[order[(order.size() - 1) / 2]];
}

Status RunBuildMode(const Options& options) {
  Spans::Enable(options.trace);
  const std::string log = options.workload == "ingest" ? IngestBasePath(options)
                                                       : LogPath(options);
  std::vector<BuildTimes> builds;
  for (int i = 0; i < std::max(1, options.builds); ++i) {
    auto build = RunBuild(GraphPath(options), log, GenerationDir(options),
                          MonoPath(options), static_cast<std::uint64_t>(i + 1));
    if (!build.ok()) return build.status();
    builds.push_back(*build);
  }
  Spans::Enable(false);
  BuildTimes median = MedianBuild(builds);
  median.peak_rss_mb = PeakRssMb();
  for (const BuildTimes& b : builds) median.totals.push_back(b.total_s);
  const std::string path = options.report_path.empty()
                               ? BuildReportPath(options)
                               : options.report_path;
  if (options.trace) {
    Status st = Spans::WriteChromeTrace(path + "-trace.json");
    if (!st.ok()) return st;
  }
  return SaveBuildTimes(median, path);
}

Status SaveBuildTimes(const BuildTimes& b, const std::string& path) {
  std::ofstream out(path);
  out.precision(17);
  out << "total_s " << b.total_s << "\n";
  for (const auto& [stage, s] : b.stage_s) out << "stage " << stage << " " << s << "\n";
  out << "entries " << b.entries << "\nstore_mb " << b.store_mb
      << "\nscan_hwm_mb " << b.scan_hwm_mb << "\nfreeze_hwm_mb "
      << b.freeze_hwm_mb << "\npeak_rss_mb " << b.peak_rss_mb << "\nnodes "
      << b.nodes << "\nedges " << b.edges << "\ntuples " << b.tuples
      << "\nactions " << b.actions << "\ntotals " << b.totals.size();
  for (double t : b.totals) out << " " << t;
  out << "\n";
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + path);
}

Result<BuildTimes> LoadBuildTimes(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  BuildTimes b;
  std::string key;
  while (in >> key) {
    if (key == "stage") {
      std::string stage;
      double s = 0.0;
      in >> stage >> s;
      b.stage_s[stage] = s;
    } else if (key == "total_s") {
      in >> b.total_s;
    } else if (key == "entries") {
      in >> b.entries;
    } else if (key == "store_mb") {
      in >> b.store_mb;
    } else if (key == "scan_hwm_mb") {
      in >> b.scan_hwm_mb;
    } else if (key == "freeze_hwm_mb") {
      in >> b.freeze_hwm_mb;
    } else if (key == "peak_rss_mb") {
      in >> b.peak_rss_mb;
    } else if (key == "totals") {
      std::size_t n = 0;
      in >> n;
      b.totals.resize(n);
      for (double& t : b.totals) in >> t;
    } else if (key == "nodes") {
      in >> b.nodes;
    } else if (key == "edges") {
      in >> b.edges;
    } else if (key == "tuples") {
      in >> b.tuples;
    } else if (key == "actions") {
      in >> b.actions;
    } else {
      return Status::Corruption("unknown key '" + key + "' in " + path);
    }
  }
  return b;
}

Result<BuildTimes> SpawnBuild(const Options& options, bool traced, int builds,
                              const std::string& report) {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return Status::Internal("cannot find this program");
  self[n] = '\0';
  std::vector<std::string> args = {
      self,
      "--mode=build",
      "--workload=" + options.workload,
      "--seed=" + std::to_string(options.seed),
      "--data_seed=" + std::to_string(options.data_seed),
      "--scale=" + std::to_string(options.scale),
      "--work=" + options.work_dir,
      std::string("--trace=") + (traced ? "1" : "0"),
      "--builds=" + std::to_string(builds),
      "--report=" + report};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, self, nullptr, nullptr, argv.data(), environ) != 0) {
    return Status::Internal("cannot start a build process");
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal("build process failed");
  }
  return LoadBuildTimes(report);
}

Status SetServingBuildSeconds(const Options& options, const BuildTimes& early,
                              Report* report) {
  std::vector<double> totals = early.totals;
  if (options.builds > 0) {
    auto late = SpawnBuild(options, /*traced=*/false, options.builds,
                           BuildReportPath(options) + "-late");
    if (!late.ok()) return late.status();
    totals.insert(totals.end(), late->totals.begin(), late->totals.end());
  }
  report->Set("build_s", Median(totals), "s", totals.size(),
              "median over the builds before and after the run");
  return Status::OK();
}

void EchoShape(const BuildTimes& b, double disk_mb, Report* report) {
  report->Echo("shape.nodes", std::to_string(b.nodes));
  report->Echo("shape.edges", std::to_string(b.edges));
  report->Echo("shape.tuples", std::to_string(b.tuples));
  report->Echo("shape.actions", std::to_string(b.actions));
  report->Echo("shape.entries", std::to_string(b.entries));
  report->Echo("shape.generation_mb", disk_mb);
}

void ProbeGainAttribution(influmax::ShardRouter& router,
                          const std::vector<NodeId>& nodes, Report* report) {
  std::vector<double> router_ns;
  std::vector<double> terms_ns;
  std::vector<double> router_gain(nodes.size());
  std::uint64_t mismatches = 0;
  auto router_pass = [&] {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::uint64_t t0 = NowNs();
      router_gain[i] = router.MarginalGain(nodes[i]);
      router_ns.push_back(static_cast<double>(NowNs() - t0));
    }
  };
  auto terms_pass = [&] {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::uint64_t t0 = NowNs();
      double acc = 0.0;
      for (std::size_t s = 0; s < router.num_shards(); ++s) {
        acc = router.shard_engine(s).AccumulateGainTerms(nodes[i], acc);
      }
      terms_ns.push_back(static_cast<double>(NowNs() - t0));
      // Seeds and inactive users short-circuit in the router only.
      if (router_gain[i] != 0.0 && !SameBits(router_gain[i], acc)) {
        ++mismatches;
      }
    }
  };
  router_pass();
  terms_pass();
  terms_pass();
  router_pass();
  const double terms_us = Median(terms_ns) * 1e-3;
  report->Count(2 * nodes.size(), mismatches);
  report->Set("serve.gain_terms_us", terms_us, "us", terms_ns.size());
  report->Set("shard.router_overhead_us",
              Median(router_ns) * 1e-3 - terms_us, "us", router_ns.size());
}

Result<double> GenerationDiskMb(const std::string& gen_dir) {
  auto name = influmax::ReadCurrentManifestName(gen_dir);
  if (!name.ok()) return name.status();
  auto manifest = influmax::ReadShardManifest(gen_dir + "/" + *name);
  if (!manifest.ok()) return manifest.status();
  std::error_code ec;
  std::uint64_t bytes = fs::file_size(gen_dir + "/" + *name, ec);
  for (const std::string& file : manifest->shard_files) {
    bytes += fs::file_size(gen_dir + "/" + file, ec);
  }
  if (ec) return Status::IoError("cannot stat generation files");
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void ReportBuildLayers(const BuildTimes& build, Report* report) {
  double attributed = 0.0;
  for (const std::string& stage : BuildStageNames()) {
    const double s = build.stage_s.count(stage) ? build.stage_s.at(stage) : 0.0;
    attributed += s;
  }
  auto stage_s = [&build](const char* name) {
    return build.stage_s.count(name) ? build.stage_s.at(name) : 0.0;
  };
  report->Set("graph.read_s", stage_s("graph.read"), "s", 1);
  report->Set("actionlog.read_s", stage_s("actionlog.read"), "s", 1);
  report->Set("probability.learn_s", stage_s("probability.learn"), "s", 1);
  report->Set("core.scan_s", stage_s("core.scan"), "s", 1);
  report->Set("serve.freeze_s", stage_s("serve.freeze"), "s", 1);
  report->Set("serve.write_s", stage_s("serve.write"), "s", 1);
  report->Set("serve.open_s", stage_s("serve.open"), "s", 1);
  report->Set("shard.split_s", stage_s("shard.split"), "s", 1);
  report->Set("shard.open_s", stage_s("shard.open"), "s", 1);
  report->Set("build.unattributed_s", build.total_s - attributed, "s", 1);
  report->Set("core.entries", static_cast<double>(build.entries), "count", 1);
  report->Set("core.store_mb", build.store_mb, "MB", 1);
  report->Set("core.scan_hwm_mb", build.scan_hwm_mb, "MB", 1);
  report->Set("serve.freeze_hwm_mb", build.freeze_hwm_mb, "MB", 1);
  std::printf("build attribution: %.4f s = %.4f s in %zu stages + %.4f s "
              "unattributed\n",
              build.total_s, attributed, BuildStageNames().size(),
              build.total_s - attributed);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"graph.read_s", "s"},
      {"actionlog.read_s", "s"},
      {"probability.learn_s", "s"},
      {"core.scan_s", "s"},
      {"core.entries", "count"},
      {"core.store_mb", "MB"},
      {"core.scan_hwm_mb", "MB"},
      {"serve.freeze_s", "s"},
      {"serve.freeze_hwm_mb", "MB"},
      {"serve.write_s", "s"},
      {"serve.open_s", "s"},
      {"shard.split_s", "s"},
      {"shard.open_s", "s"},
      {"build.unattributed_s", "s"},
      {"serve.gain_terms_us", "us"},
      {"shard.router_overhead_us", "us"},
      {"serve.commit_shard_us", "us"},
      {"serve.reset_us", "us"},
      {"core.celf_evals_per_topk", "count"},
      {"core.celf_evals_per_pick", "count"},
      {"serve.session_mb", "MB"},
      {"query_local.unattributed_us", "us"},
      {"net.gain_overhead_us", "us"},
      {"net.rpcs_per_gain", "count"},
      {"net.rpc_errors", "count"},
      {"net.failovers", "count"},
      {"net.reconnects", "count"},
      {"loadgen.late_p50_us", "us"},
      {"loadgen.late_p99_us", "us"},
      {"shard.ingest_replayed_tuples", "count"},
      {"shard.ingest_rescanned_actions", "count"},
      {"shard.refresh_us", "us"},
      {"shard.retired_generations", "count"},
      {"shard.swaps", "count"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void FillUnexercisedLayers(Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (!report->has(name)) {
      report->Set(name, 0.0, unit, 0, "layer not exercised by this workload");
    }
  }
}

}  // namespace perfbench
