//===- perfbench/Bench.h - Shared types of the repo benchmark ---*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a workload reports back to the benchmark's main loop. Every
/// number here is measured from outside the program: wall clocks around
/// calls into BuildDriver / BuildDaemon / DaemonClient / VM /
/// BuildHistory, the BuildStats those calls return, and the counters of
/// the timing filesystem decorator (TimedFileSystem.h).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "TimedFileSystem.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Command-line configuration of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 10;
  bool Trace = false;
  unsigned Jobs = 1;        ///< -j of every build (= hardware threads).
  std::string Exe;          ///< This binary, which also runs the oracle.
};

/// One build as the benchmark saw it. Layer fields are filled only for
/// traced builds.
struct BuildSample {
  bool Primary = true;  ///< The workload's primary build (else: no-op).
  const char *Edit = ""; ///< What changed before the build (static text).
  bool Traced = false;
  bool Failed = false;  ///< Failed, or its output did not match.
  double WallMs = 0;    ///< What the user waits for (see README.md).

  // From the returned (or daemon-reported) BuildStats.
  double ScanMs = 0, CompileMs = 0, LinkMs = 0, StateIOMs = 0;
  double FrontendMs = 0, MiddleMs = 0, BackendMs = 0, BookkeepingMs = 0;
  uint64_t FilesCompiled = 0, InterfaceScans = 0, ScanCacheHits = 0;
  uint64_t ObjectsParsed = 0, PassesRun = 0, PassesSkipped = 0;
  uint64_t StateDBBytes = 0, ObjectBytes = 0;
  uint64_t ProgramCost = 0; ///< VM cost of `main` of the built program.
  uint64_t BaselineCost = 0; ///< Same, built by the stateless compiler.
  uint64_t SourceBytes = 0; ///< Size of the sources that were built.
  double DriverTotalMs = 0; ///< BuildStats::TotalUs: the driver's own total.

  // Traced only.
  FsCounters Fs;            ///< Filesystem calls made by this build.
  double TotalMs = 0;       ///< Build total that the phases split up.
  double HistoryAppendMs = 0;
  double VmRunMs = 0;
  double RoundTripMs = 0, IpcMs = 0; ///< Daemon builds only.
};

/// Everything one workload produced in one run.
struct RunResult {
  std::string Profile;
  std::vector<double> SetupSeconds;
  std::vector<BuildSample> Builds;
  /// Filesystem work done once for all builds (a resident daemon's
  /// start); the per-layer means share it out over the traced builds.
  FsCounters SharedFs;
  unsigned Steps = 0;
  unsigned WindowSteps = 0;  ///< Fixed-length deterministic prefix.
  std::vector<std::string> Failures; ///< One line per failed build.
};

/// One workload: set up (timed as setup_s), then steps until the
/// caller's deadline. Steps are seed-deterministic in order and content.
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *profile() const = 0;
  /// Steps in the deterministic window: every run makes at least these,
  /// whatever --seconds, so counts repeat and the tail percentile is
  /// the same in every run.
  virtual unsigned windowSteps() const = 0;
  /// Generates the project, runs the untimed warm-up, and starts any
  /// service, inside \p Dir.
  virtual void setup(const std::string &Dir) = 0;
  /// Runs the next step: appends its builds to \p R.Builds.
  virtual void step(bool Traced, RunResult &R) = 0;
  /// Filesystem work done once for all builds (a resident daemon's
  /// start), recorded in traced runs.
  virtual FsCounters sharedFs() const { return {}; }
};

std::unique_ptr<Workload> makeWorkload(const RunOptions &O);

/// The workload names, as `--workload` accepts them.
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
