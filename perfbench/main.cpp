//===- perfbench/main.cpp - The repo benchmark ----------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// perfbench --workload <name> --seed N --seconds S --trace 0|1
///           [--build-dir DIR]
///
/// perfbench --oracle WORKSPACE OUTDIR JOBS
///
/// Sets the workload up five times (setup_s is the median), then runs
/// its steps for S seconds, and never fewer than the workload's
/// deterministic window. Every built program's output is checked
/// against the reference interpreter. With --trace 0 it prints the
/// end-to-end metrics; with --trace 1 it traces every other step and
/// prints the per-layer metrics. The last line of standard output is
/// one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// The second form is the oracle process the first one starts
/// (Oracle.h).
///
/// Runs of the same workload, seed, trace mode and binary must agree
/// exactly on the window's counts; each run stores them under
/// DIR/records and exits 4 when an earlier record disagrees.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracle.h"

#include "support/Hashing.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr unsigned SetupRepeats = 5;
/// Hard stop for the step loop, so a run always ends in time.
constexpr double MaxLoopSeconds = 120;

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear interpolation between order statistics.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = P / 100 * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// The highest percentile of the ladder with at least ten samples
/// beyond it, for N samples. Called with the window's step count, which
/// every run reaches, so a workload's tail is the same percentile in
/// every run.
double tailPercentile(size_t N) {
  for (size_t PerMille : {999, 990, 900, 750})
    if (N * (1000 - PerMille) / 1000 >= 10)
      return static_cast<double>(PerMille) / 10;
  return 50;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
         jsonNumber(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
         "\"}";
  std::printf("%s}}\n", J.c_str());
}

void printMetric(const Metric &M) {
  std::printf("  %-28s %14.4f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

using Samples = std::vector<const BuildSample *>;

/// Wall times of the primary (or no-op) builds; \p Traced is -1 for all
/// builds, 0 for untraced and 1 for traced ones.
std::vector<double> walls(const RunResult &R, bool Primary, int Traced) {
  std::vector<double> V;
  for (const BuildSample &B : R.Builds)
    if (B.Primary == Primary && (Traced < 0 || B.Traced == (Traced == 1)))
      V.push_back(B.WallMs);
  return V;
}

/// Builds of the deterministic window (two per step).
Samples window(const RunResult &R, bool TracedOnly) {
  Samples V;
  const size_t N = std::min<size_t>(R.Builds.size(), 2 * R.WindowSteps);
  for (size_t I = 0; I != N; ++I)
    if (!TracedOnly || R.Builds[I].Traced)
      V.push_back(&R.Builds[I]);
  return V;
}

/// The tails of the primary and no-op build times. Printed, but not
/// part of the result: on a shared virtual machine their spread across
/// runs exceeds 0.25, the largest bound BENCHMARK.json allows (README.md).
std::vector<Metric> tails(const RunResult &R) {
  const double P = tailPercentile(R.WindowSteps);
  return {{"build_tail_ms", percentile(walls(R, true, -1), P), "ms"},
          {"noop_tail_ms", percentile(walls(R, false, -1), P), "ms"}};
}

std::vector<Metric> endToEnd(const RunResult &R) {
  const std::vector<double> Build = walls(R, true, -1), Noop = walls(R, false, -1);
  // Program cost and code size are normalised by their project (the
  // stateless compiler's program cost, the source size), so that seeds
  // compare; the window makes both repeat exactly for a seed.
  // A failed build has no program; it is left out of both sums.
  const Samples W = window(R, false);
  double Cost = 0, Base = 0;
  for (const BuildSample *B : W) {
    if (B->Failed)
      continue;
    Cost += static_cast<double>(B->ProgramCost);
    Base += static_cast<double>(B->BaselineCost);
  }
  const BuildSample &Last = *W.back();
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return {
      {"setup_s", percentile(R.SetupSeconds, 50), "s"},
      {"build_p50_ms", percentile(Build, 50), "ms"},
      {"noop_p50_ms", percentile(Noop, 50), "ms"},
      {"program_cost", Base > 0 ? Cost / Base : 0, "x_stateless"},
      {"code_bytes",
       Last.SourceBytes ? double(Last.ObjectBytes) / double(Last.SourceBytes)
                        : 0,
       "bytes/src_byte"},
      {"peak_rss_mb", static_cast<double>(U.ru_maxrss) / 1024, "MB"},
  };
}

template <typename F> double meanOf(const Samples &V, F Field) {
  double Sum = 0;
  for (const BuildSample *B : V)
    Sum += static_cast<double>(Field(*B));
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double phasesMs(const BuildSample &B) {
  return B.ScanMs + B.CompileMs + B.LinkMs + B.StateIOMs;
}

/// The build total minus the four BuildStats phases.
double darkMs(const BuildSample &B) { return B.TotalMs - phasesMs(B); }

/// Per-layer metrics over the traced builds. Counts come from the
/// window's traced builds only, so they repeat exactly for a seed.
std::vector<Metric> perLayer(const RunResult &R, size_t Attempted,
                             size_t Failed) {
  Samples T;
  for (const BuildSample &B : R.Builds)
    if (B.Traced)
      T.push_back(&B);
  const Samples TW = window(R, true);
  // Filesystem totals per traced build, with the work done once for all
  // of them (R.SharedFs) spread evenly.
  auto FsMean = [&](uint64_t FsCounters::*Field, double Scale) {
    return (static_cast<double>(R.SharedFs.*Field) / std::max<size_t>(1, T.size()) +
            meanOf(T, [&](const BuildSample &B) { return B.Fs.*Field; })) *
           Scale;
  };
  using B = const BuildSample &;
  const double Total = meanOf(T, [](B S) { return S.TotalMs; });
  auto Share = [&](double Ms) { return Total > 0 ? 100 * Ms / Total : 0; };
  const double Run = meanOf(TW, [](B S) { return S.PassesRun; });
  const double Skipped = meanOf(TW, [](B S) { return S.PassesSkipped; });
  const double Untraced = percentile(walls(R, true, 0), 50);
  const double Traced = percentile(walls(R, true, 1), 50);

  return {
      {"build.total_ms", Total, "ms"},
      {"build.scan_ms", meanOf(T, [](B S) { return S.ScanMs; }), "ms"},
      {"build.compile_ms", meanOf(T, [](B S) { return S.CompileMs; }), "ms"},
      {"build.link_ms", meanOf(T, [](B S) { return S.LinkMs; }), "ms"},
      {"build.stateio_ms", meanOf(T, [](B S) { return S.StateIOMs; }), "ms"},
      {"build.unattributed_ms", meanOf(T, darkMs), "ms"},
      {"build.files_compiled", meanOf(TW, [](B S) { return S.FilesCompiled; }),
       "count"},
      {"build.interface_scans",
       meanOf(TW, [](B S) { return S.InterfaceScans; }), "count"},
      {"build.scan_cache_hits", meanOf(TW, [](B S) { return S.ScanCacheHits; }),
       "count"},
      {"build.objects_parsed", meanOf(TW, [](B S) { return S.ObjectsParsed; }),
       "count"},
      {"build.history_append_ms",
       meanOf(T, [](B S) { return S.HistoryAppendMs; }), "ms"},
      {"driver.frontend_ms", meanOf(T, [](B S) { return S.FrontendMs; }), "ms"},
      {"pass.middle_ms", meanOf(T, [](B S) { return S.MiddleMs; }), "ms"},
      {"pass.passes_run", Run, "count"},
      {"pass.passes_skipped", Skipped, "count"},
      {"codegen.backend_ms", meanOf(T, [](B S) { return S.BackendMs; }), "ms"},
      {"state.skip_ratio", Run + Skipped > 0 ? Skipped / (Run + Skipped) : 0,
       "ratio"},
      {"state.bookkeeping_ms", meanOf(T, [](B S) { return S.BookkeepingMs; }),
       "ms"},
      {"state.db_bytes", meanOf(TW, [](B S) { return S.StateDBBytes; }),
       "bytes"},
      {"support.fs.ms", FsMean(&FsCounters::Ns, 1e-6), "ms"},
      {"support.fs.sync_n", meanOf(TW, [](B S) { return S.Fs.SyncN; }),
       "count"},
      {"support.fs.write_kb", FsMean(&FsCounters::WriteBytes, 1 / 1024.0),
       "KB"},
      {"support.fs.list_n", meanOf(TW, [](B S) { return S.Fs.ListN; }),
       "count"},
      {"support.fs.list_ms", FsMean(&FsCounters::ListNs, 1e-6), "ms"},
      {"support.fs.obj_read_n", meanOf(TW, [](B S) { return S.Fs.ObjReadN; }),
       "count"},
      {"support.fs.obj_read_kb",
       meanOf(TW, [](B S) { return S.Fs.ObjReadBytes / 1024.0; }), "KB"},
      {"support.fs.obj_store_ms", FsMean(&FsCounters::ObjStoreNs, 1e-6), "ms"},
      {"support.fs.persist_ms", FsMean(&FsCounters::PersistNs, 1e-6), "ms"},
      {"support.fs.lock_ms", FsMean(&FsCounters::LockNs, 1e-6), "ms"},
      {"daemon.roundtrip_ms", meanOf(T, [](B S) { return S.RoundTripMs; }),
       "ms"},
      {"daemon.ipc_ms", meanOf(T, [](B S) { return S.IpcMs; }), "ms"},
      {"vm.run_ms", meanOf(T, [](B S) { return S.VmRunMs; }), "ms"},
      {"share.scan_pct", Share(meanOf(T, [](B S) { return S.ScanMs; })), "%"},
      {"share.compile_pct", Share(meanOf(T, [](B S) { return S.CompileMs; })),
       "%"},
      {"share.link_pct", Share(meanOf(T, [](B S) { return S.LinkMs; })), "%"},
      {"share.stateio_pct", Share(meanOf(T, [](B S) { return S.StateIOMs; })),
       "%"},
      {"share.unattributed_pct", Share(meanOf(T, darkMs)), "%"},
      {"trace_overhead_pct", Untraced > 0 ? 100 * (Traced / Untraced - 1) : 0,
       "%"},
      {"fail_ratio", Attempted ? double(Failed) / double(Attempted) : 0,
       "ratio"},
  };
}

/// Sample count and median build time per kind of edit, as text.
void printEditMix(const RunResult &R) {
  std::map<std::string, std::vector<double>> ByEdit;
  for (const BuildSample &B : R.Builds)
    ByEdit[B.Edit].push_back(B.WallMs);
  std::printf("builds by edit:");
  for (const auto &[Edit, Ms] : ByEdit)
    std::printf(" %s n=%zu p50=%.2fms;", Edit.c_str(), Ms.size(),
                percentile(Ms, 50));
  std::printf("\n");
}

/// Prints the mean layer split of the traced builds per kind, and checks
/// the accounting: the phases are disjoint parts of the build, so the
/// dark time left over is never negative (beyond timer rounding), and
/// phases + unattributed = total holds for every build. Returns an
/// error text when it does not.
std::string printLayerTable(const RunResult &R) {
  std::string Error;
  for (bool Primary : {true, false}) {
    Samples V;
    for (const BuildSample &B : R.Builds)
      if (B.Traced && B.Primary == Primary)
        V.push_back(&B);
    for (const BuildSample *B : V)
      if (darkMs(*B) < -0.01 || B->DriverTotalMs > B->TotalMs + 0.01)
        Error = "BuildStats phases exceed the build total";
    using B = const BuildSample &;
    const double Total = meanOf(V, [](B S) { return S.TotalMs; });
    if (V.empty() || Total <= 0)
      continue;
    std::printf("layer split, %s builds (%zu traced), mean total %.3f ms:\n",
                Primary ? "primary" : "no-op", V.size(), Total);
    const std::pair<const char *, double> Rows[] = {
        {"scan", meanOf(V, [](B S) { return S.ScanMs; })},
        {"compile", meanOf(V, [](B S) { return S.CompileMs; })},
        {"link", meanOf(V, [](B S) { return S.LinkMs; })},
        {"stateio", meanOf(V, [](B S) { return S.StateIOMs; })},
        {"unattributed", meanOf(V, darkMs)},
        {"- inside TotalUs",
         meanOf(V, [](B S) { return S.DriverTotalMs - phasesMs(S); })},
        {"- after TotalUs",
         meanOf(V, [](B S) { return S.TotalMs - S.DriverTotalMs; })}};
    for (const auto &[Name, Ms] : Rows)
      std::printf("  %-18s %10.3f ms %6.1f%%\n", Name, Ms, 100 * Ms / Total);
  }
  return Error;
}

//===----------------------------------------------------------------------===//
// Determinism record
//===----------------------------------------------------------------------===//

uint64_t fileHash(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return sc::hashString(SS.str());
}

/// Compares this run's exact counts with an earlier run of the same
/// workload, seed, trace mode and binary, then stores them. Returns the
/// names of the counts that differ.
std::vector<std::string> checkRecord(const std::string &Dir,
                                     const std::string &Key,
                                     const std::map<std::string, uint64_t> &Exact,
                                     const std::string &Provenance) {
  fs::create_directories(Dir);
  const std::string Path = Dir + "/" + Key + ".txt";
  std::vector<std::string> Diffs;
  std::ifstream In(Path);
  std::map<std::string, uint64_t> Old;
  std::string Name;
  uint64_t Value = 0;
  while (In >> Name >> Value)
    Old[Name] = Value;
  for (const auto &[K, V] : Exact)
    if (Old.count(K) && Old[K] != V)
      Diffs.push_back(K + " " + std::to_string(Old[K]) + " -> " +
                      std::to_string(V));
  if (Old.empty()) {
    const std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
    std::ofstream Out(Tmp);
    for (const auto &[K, V] : Exact)
      Out << K << " " << V << "\n";
    Out << "# " << Provenance << "\n";
    Out.close();
    fs::rename(Tmp, Path);
  }
  return Diffs;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<edit-cli|storm-daemon> --seed N --seconds S "
               "--trace 0|1 [--build-dir DIR]\n",
               Why);
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 5 && std::strcmp(argv[1], "--oracle") == 0)
    return serveOracle(argv[2], argv[3],
                       static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)));
  // A write to a pipe whose reader has gone fails instead of killing.
  std::signal(SIGPIPE, SIG_IGN);
  RunOptions O;
  O.Exe = argv[0];
  std::string BuildDir = ".bench_build";
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    const std::string V = argv[++I];
    char *End = nullptr;
    const unsigned long long N = std::strtoull(V.c_str(), &End, 10);
    const bool Numeric = !V.empty() && *End == '\0';
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--build-dir")
      BuildDir = V;
    else if (A == "--seed" && Numeric)
      O.Seed = N, HaveSeed = true;
    else if (A == "--seconds" && Numeric && N >= 1 && N <= 600)
      O.Seconds = static_cast<unsigned>(N);
    else if (A == "--trace" && Numeric && N <= 1)
      O.Trace = N == 1;
    else
      return usage(("bad argument " + A + " " + V).c_str());
  }
  if (!HaveSeed || std::find(workloadNames().begin(), workloadNames().end(),
                             O.Workload) == workloadNames().end())
    return usage("--workload and --seed are required");
  const unsigned HardwareThreads =
      std::max(1u, std::thread::hardware_concurrency());
  O.Jobs = HardwareThreads;
  const std::string WorkDir =
      BuildDir + "/runs/" + O.Workload + "-" + std::to_string(::getpid());

  RunResult R;
  try {
    std::unique_ptr<Workload> W;
    for (unsigned K = 0; K != SetupRepeats; ++K) {
      W.reset();
      fs::remove_all(WorkDir);
      W = makeWorkload(O);
      const Clock::time_point T0 = Clock::now();
      W->setup(WorkDir);
      R.SetupSeconds.push_back(msSince(T0) / 1000);
    }
    R.Profile = W->profile();
    R.WindowSteps = W->windowSteps();
    const Clock::time_point Start = Clock::now();
    for (unsigned I = 0;; ++I) {
      const double Elapsed = msSince(Start) / 1000;
      if ((I >= R.WindowSteps && Elapsed >= O.Seconds) ||
          Elapsed >= MaxLoopSeconds)
        break;
      W->step(O.Trace && I % 2 == 1, R);
      R.Steps = I + 1;
    }
    if (O.Trace)
      R.SharedFs = W->sharedFs();
    W.reset();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    fs::remove_all(WorkDir);
    return 2;
  }
  fs::remove_all(WorkDir);
  if (R.Steps < R.WindowSteps) {
    std::fprintf(stderr, "perfbench: only %u of %u window steps ran\n", R.Steps,
                 R.WindowSteps);
    return 2;
  }

  const size_t Attempted = R.Builds.size();
  const size_t Failed = R.Failures.size();

  // Provenance and the exact counts that must repeat for this seed.
  std::map<std::string, uint64_t> Exact;
  for (const BuildSample *B : window(R, false)) {
    Exact["build.files_compiled"] += B->FilesCompiled;
    Exact["pass.passes_run"] += B->PassesRun;
    Exact["pass.passes_skipped"] += B->PassesSkipped;
    Exact["program_cost"] += B->ProgramCost;
    if (B->Traced)
      Exact["support.fs.sync_n"] += B->Fs.SyncN;
  }
  Exact["code_bytes"] = R.Builds[2 * R.WindowSteps - 1].ObjectBytes;
  char Prov[256];
  std::snprintf(Prov, sizeof(Prov),
                "workload=%s profile=%s seed=%llu trace=%d hardware_threads=%u "
                "jobs=%u window_steps=%u steps=%u",
                O.Workload.c_str(), R.Profile.c_str(),
                static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0,
                HardwareThreads, O.Jobs, R.WindowSteps, R.Steps);
  std::printf("perfbench: %s\n", Prov);
  char Key[160];
  std::snprintf(Key, sizeof(Key), "%s-seed%llu-trace%d-%016llx",
                O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                O.Trace ? 1 : 0,
                static_cast<unsigned long long>(fileHash(argv[0])));
  const std::vector<std::string> Diffs =
      checkRecord(BuildDir + "/records", Key, Exact, Prov);

  for (const std::string &F : R.Failures)
    std::printf("FAIL %s\n", F.c_str());
  std::string AccountingError;
  std::vector<Metric> Metrics;
  if (O.Trace) {
    Metrics = perLayer(R, Attempted, Failed);
    AccountingError = printLayerTable(R);
    std::printf("layer accounting: %s\n",
                AccountingError.empty() ? "phases + unattributed = total"
                                        : AccountingError.c_str());
  } else {
    Metrics = endToEnd(R);
    printEditMix(R);
    const std::vector<double> Build = walls(R, true, -1),
                              Noop = walls(R, false, -1);
    std::printf("build samples %zu, no-op samples %zu, fail_ratio %zu/%zu, "
                "tails at p%g (not in the result):\n",
                walls(R, true, -1).size(), walls(R, false, -1).size(), Failed,
                Attempted, tailPercentile(R.WindowSteps));
    for (const Metric &M : tails(R))
      printMetric(M);
  }
  for (const Metric &M : Metrics)
    printMetric(M);
  if (!Diffs.empty()) {
    for (const std::string &D : Diffs)
      std::fprintf(stderr, "perfbench: not deterministic: %s\n", D.c_str());
    return 4;
  }
  std::fflush(stdout);
  printResult(Failed == 0 && AccountingError.empty(), Attempted, Failed,
              Metrics);
  return 0;
}
