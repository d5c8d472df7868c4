// bench_e2e: the end-to-end benchmark program (perfbench/README.md).
//
//   bench_e2e --mode=generate --workload=W --seed=N --work=DIR
//   bench_e2e --mode=build    --workload=W --seed=N --work=DIR [--trace=1]
//             [--builds=K] [--report=FILE]
//   bench_e2e --mode=run      --workload=W --seed=N --work=DIR --seconds=S
//             [--trace=1] [--builds=K] [--corrupt_reference=1] [--commit=SHA]
//
// `generate` writes the seeded inputs; `build` builds the generation a
// serving workload serves (its own process, so the serving run's peak RSS
// is its own); `run` measures. perfbench/run.py chains the three.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "e2e/bench.h"

namespace {

int Fail(const perfbench::Status& st) {
  std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string seed = "1";
  std::string data_seed = "0";
  bool trace = false;
  bool corrupt = false;
  influmax::FlagParser flags;
  flags.AddString("mode", &options.mode, "generate | build | run");
  flags.AddString("workload", &options.workload,
                  "build | query_local | query_remote | ingest");
  flags.AddString("seed", &seed, "workload seed (op mix)");
  flags.AddString("data_seed", &data_seed,
                  "dataset seed (0 = the preset's own seed)");
  flags.AddDouble("seconds", &options.seconds, "measured seconds");
  flags.AddBool("trace", &trace, "traced run (per-layer metrics)");
  flags.AddString("work", &options.work_dir, "work directory");
  flags.AddDouble("scale", &options.scale, "flixster_large scale");
  flags.AddBool("corrupt_reference", &corrupt,
                "self-test: corrupt one reference answer");
  flags.AddString("commit", &options.commit, "commit id for the fingerprint");
  flags.AddInt("builds", &options.builds,
               "build mode: builds (median kept); run mode: builds of the "
               "served generation after the run");
  flags.AddString("report", &options.report_path, "build mode: report file");
  perfbench::Status st = flags.Parse(argc, argv);
  if (!st.ok()) return Fail(st);
  options.seed = std::strtoull(seed.c_str(), nullptr, 10);
  options.data_seed = std::strtoull(data_seed.c_str(), nullptr, 10);
  options.trace = trace;
  options.corrupt_reference = corrupt;
  if (options.seed == 0) {
    return Fail(perfbench::Status::InvalidArgument("--seed must be >= 1"));
  }
  if (options.work_dir.empty()) {
    return Fail(perfbench::Status::InvalidArgument("--work is required"));
  }
  const std::string& w = options.workload;
  if (w != "build" && w != "query_local" && w != "query_remote" &&
      w != "ingest") {
    return Fail(perfbench::Status::InvalidArgument("unknown workload '" + w +
                                                   "'"));
  }

  if (options.mode == "generate") {
    st = perfbench::GenerateInputs(options);
    return st.ok() ? 0 : Fail(st);
  }
  if (options.mode == "build") {
    st = perfbench::RunBuildMode(options);
    return st.ok() ? 0 : Fail(st);
  }
  if (options.mode != "run") {
    return Fail(perfbench::Status::InvalidArgument("unknown mode '" +
                                                   options.mode + "'"));
  }

  perfbench::Report report;
  perfbench::EchoFingerprint(options, &report);
  report.Echo("seed", std::to_string(options.seed));
  report.Echo("dataset", "flixster_large scale=" +
                             std::to_string(options.scale) + " data_seed=" +
                             std::to_string(options.data_seed));
  int rc = 0;
  if (w == "build") {
    rc = perfbench::RunBuildWorkload(options, &report);
  } else if (w == "query_local") {
    rc = perfbench::RunQueryLocalWorkload(options, &report);
  } else if (w == "query_remote") {
    rc = perfbench::RunQueryRemoteWorkload(options, &report);
  } else {
    rc = perfbench::RunIngestWorkload(options, &report);
  }
  if (options.trace) {
    perfbench::FillUnexercisedLayers(&report);
    st = perfbench::Spans::WriteChromeTrace(options.work_dir + "/trace.json");
    if (!st.ok()) report.Fail(st.ToString());
  }
  report.Print(options);
  return rc != 0 || !report.correct() ? 1 : 0;
}
