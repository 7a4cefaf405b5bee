//===- perfbench/Workloads.cpp - The benchmark workloads ------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// edit-cli and storm-daemon (README.md says why each was chosen). Both
/// are closed loops with one client, HeuristicSkip and -j = hardware
/// threads, over a RealFileSystem workspace that a seeded ProjectModel
/// renders into. The program sees only those files.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracle.h"

#include "build_sys/BuildSystem.h"
#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "build_sys/History.h"
#include "support/Metrics.h"
#include "support/RNG.h"
#include "support/Trace.h"
#include "workload/Scenario.h"
#include "workload/Workload.h"

#include <stdexcept>
#include <thread>

using namespace perfbench;
using namespace sc;

namespace {

const std::string OutDir = "out";
const std::string LedgerPath = OutDir + "/history.jsonl";
constexpr unsigned LedgerLimit = 512; // BuildOptions::HistoryLimit default.

/// examples/scenarios/refactor-storm.scen, embedded at build time.
const char *const StormScenarioText =
#include "refactor-storm.scen.inc"
    ;

/// What one `scbuild` process configures (tools/scbuild.cpp defaults).
BuildOptions cliOptions(unsigned Jobs) {
  BuildOptions O;
  O.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  O.Compiler.RecordDecisions = true;
  O.Jobs = Jobs;
  O.OutDir = OutDir;
  O.HistoryLimit = LedgerLimit;
  return O;
}

void fillFromStats(BuildSample &B, const BuildStats &S) {
  B.ScanMs = S.ScanUs / 1000;
  B.CompileMs = S.CompileUs / 1000;
  B.LinkMs = S.LinkUs / 1000;
  B.StateIOMs = S.StateIOUs / 1000;
  B.FrontendMs = S.CompilePhases.FrontendUs / 1000;
  B.MiddleMs = S.CompilePhases.MiddleUs / 1000;
  B.BackendMs = S.CompilePhases.BackendUs / 1000;
  B.BookkeepingMs = S.CompilePhases.StateUs / 1000;
  B.FilesCompiled = S.FilesCompiled;
  B.InterfaceScans = S.InterfaceScans;
  B.ScanCacheHits = S.ScanCacheHits;
  B.ObjectsParsed = S.ObjectsParsed;
  B.PassesRun = S.Skip.PassesRun;
  B.PassesSkipped = S.Skip.PassesSkipped;
  B.StateDBBytes = S.StateDBBytes;
  B.ObjectBytes = S.ObjectBytes;
  B.DriverTotalMs = S.TotalUs / 1000;
}

/// Records the outcome of one build's output check, and the reference
/// figures its metrics are taken relative to.
void check(BuildSample &B, RunResult &R, const Reference &Ref,
           const std::string &What, const std::string &Mismatch) {
  B.BaselineCost = Ref.BaselineCost;
  B.SourceBytes = Ref.SourceBytes;
  const std::string &Bad = Mismatch.empty() ? Ref.BaselineError : Mismatch;
  B.Failed = !Bad.empty();
  if (B.Failed)
    R.Failures.push_back(What + ": " + Bad);
}

/// Times one BuildHistory::append on a copy of the workspace's ledger
/// (the copy lives outside the workspace, so the build never sees it).
double timeHistoryAppend(VirtualFileSystem &Ws, const std::string &CopyDir) {
  std::optional<std::string> Bytes = Ws.readFile(LedgerPath);
  RealFileSystem Copy(CopyDir);
  Copy.writeFile("history.jsonl", Bytes ? *Bytes : std::string());
  HistoryLoadResult L = BuildHistory::load(Copy, "history.jsonl");
  HistoryRecord R = L.Records.empty() ? HistoryRecord() : L.Records.back();
  R.BuildId = 0;
  const Clock::time_point T0 = Clock::now();
  BuildHistory::append(Copy, "history.jsonl", R, LedgerLimit);
  return msSince(T0);
}

/// Rewrites the ledger as LedgerLimit records, cycling through the
/// existing ones after the first (the cold build's, which is far larger
/// than a steady-state record), so timing starts at the retention limit.
void fillLedger(VirtualFileSystem &FS) {
  HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
  if (L.Records.size() < 2)
    throw std::runtime_error("setup: too few history records to replicate");
  std::string Content;
  for (unsigned Id = 1; Id <= LedgerLimit; ++Id) {
    HistoryRecord R = L.Records[1 + (Id - 1) % (L.Records.size() - 1)];
    R.BuildId = Id;
    Content += BuildHistory::serializeRecord(R) + "\n";
  }
  FS.writeFile(LedgerPath, Content);
}

/// One `scbuild --run` process, in-process: telemetry sinks and a fresh
/// driver are created, the build runs, everything is torn down. The VM
/// run of the result is timed apart and left out of WallMs.
struct CliOutcome {
  BuildStats Stats;
  double WallMs = 0;
  ExecResult Run;
  double VmMs = 0;
};

CliOutcome runCli(VirtualFileSystem &FS, const BuildOptions &Base) {
  CliOutcome R;
  const Clock::time_point T0 = Clock::now();
  Clock::time_point T1;
  double BuildMs = 0;
  {
    TraceRecorder Trace;
    MetricsRegistry Metrics;
    BuildOptions O = Base;
    O.Compiler.Trace = &Trace;
    O.Compiler.Metrics = &Metrics;
    BuildDriver D(FS, O);
    R.Stats = D.build();
    BuildMs = msSince(T0);
    if (R.Stats.Success && D.program()) {
      const Clock::time_point V0 = Clock::now();
      R.Run = VM(*D.program()).run();
      R.VmMs = msSince(V0);
    }
    T1 = Clock::now();
  }
  R.WallMs = BuildMs + msSince(T1);
  return R;
}

/// Shared by the workloads: the workspace, its timing filesystem, the
/// project model, the oracle, and in-process (`scbuild`) builds.
class ProjectWorkload : public Workload {
public:
  ProjectWorkload(const RunOptions &O, const char *Profile)
      : Opts(O), ProfileName(Profile), Options(cliOptions(O.Jobs)) {}

  const char *profile() const override { return ProfileName; }

protected:
  void createProject(const std::string &Dir) {
    const std::string Ws = Dir + "/ws";
    LedgerCopyDir = Dir + "/ledger";
    FS = std::make_unique<TimedFileSystem>(Ws, OutDir);
    Model = ProjectModel::generate(profileByName(ProfileName), Opts.Seed);
    Model.renderAll(*FS);
    Check = std::make_unique<Oracle>(Opts.Exe, Ws, OutDir, Opts.Jobs);
  }

  /// One fresh-driver build, checked against \p Ref; traced builds also
  /// get filesystem counters, a ledger-append probe, and the VM time.
  void cliBuild(RunResult &R, bool Primary, bool Traced,
                const Reference &Ref, const char *What) {
    const FsCounters Before = FS->snapshot();
    FS->setRecording(Traced);
    CliOutcome C = runCli(*FS, Options);
    FS->setRecording(false);
    BuildSample B;
    B.Primary = Primary;
    B.Edit = What;
    B.Traced = Traced;
    B.WallMs = C.WallMs;
    fillFromStats(B, C.Stats);
    B.ProgramCost = C.Run.Cost;
    check(B, R, Ref, What,
          C.Stats.Success ? compareRuns(Ref.Run, C.Run)
                          : "build failed: " + C.Stats.ErrorText);
    if (Traced) {
      B.Fs = FS->snapshot() - Before;
      B.TotalMs = C.WallMs;
      B.VmRunMs = C.VmMs;
      B.HistoryAppendMs = timeHistoryAppend(*FS, LedgerCopyDir);
    }
    R.Builds.push_back(B);
  }

  RunOptions Opts;
  const char *ProfileName;
  BuildOptions Options;
  std::string LedgerCopyDir;
  std::unique_ptr<TimedFileSystem> FS;
  ProjectModel Model;
  std::unique_ptr<Oracle> Check;
};

//===----------------------------------------------------------------------===//
// edit-cli
//===----------------------------------------------------------------------===//

/// edit-cli: per step one ProjectModel commit (1-3 small edits), an
/// edit build and a no-op build, each by a fresh driver like one
/// `scbuild` process; the ledger starts at its retention limit.
class EditCli : public ProjectWorkload {
  static constexpr unsigned WarmSteps = 2;

public:
  explicit EditCli(const RunOptions &O)
      : ProjectWorkload(O, "json_lib"), Rand(O.Seed * 0x9E3779B97F4A7C15ull + 1) {}

  unsigned windowSteps() const override { return 200; }

  void setup(const std::string &Dir) override {
    createProject(Dir);
    RunResult Warm;
    cliBuild(Warm, true, false, Check->observe(), "cold build");
    for (unsigned I = 0; I != WarmSteps; ++I)
      step(false, Warm);
    fillLedger(*FS);
    if (!Warm.Failures.empty())
      throw std::runtime_error(Warm.Failures.front());
  }

  void step(bool Traced, RunResult &R) override {
    Model.applyCommit(Rand, *FS);
    const Reference Ref = Check->observe();
    cliBuild(R, true, Traced, Ref, "edit build");
    cliBuild(R, false, Traced, Ref, "no-op build");
  }

private:
  RNG Rand;
};

//===----------------------------------------------------------------------===//
// storm-daemon
//===----------------------------------------------------------------------===//

/// A BuildDaemon serving from a thread of this process, with the
/// telemetry sinks scbuildd attaches. Stopped and joined on destruction.
class DaemonThread {
public:
  DaemonThread(RealFileSystem &FS, unsigned Jobs) {
    DaemonConfig C;
    C.Build = cliOptions(Jobs);
    C.Build.Compiler.Metrics = &Metrics;
    C.Build.Compiler.Trace = &Trace;
    C.Quiet = true;
    Daemon = std::make_unique<BuildDaemon>(FS, std::move(C));
    std::string Err;
    if (!Daemon->start(&Err))
      throw std::runtime_error("daemon start failed: " + Err);
    Server = std::thread([this] { Daemon->serve(); });
  }
  ~DaemonThread() {
    Daemon->requestStop();
    Server.join();
  }
  DaemonThread(const DaemonThread &) = delete;
  DaemonThread &operator=(const DaemonThread &) = delete;

  BuildDaemon &daemon() { return *Daemon; }

private:
  MetricsRegistry Metrics;
  TraceRecorder Trace;
  std::unique_ptr<BuildDaemon> Daemon;
  std::thread Server;
};

/// One client request over the daemon socket.
struct Reply {
  int Code = DaemonClient::TransportError;
  std::string Out, Err;
  double Ms = 0;
};

Reply request(BuildDaemon &D, const DaemonRequest &Req) {
  Reply R;
  std::string Err;
  const Clock::time_point T0 = Clock::now();
  DaemonClient C = DaemonClient::connect(D.socketPath());
  if (C.connected())
    R.Code = C.roundTrip(
        Req, [&](const std::string &T) { R.Out += T; },
        [&](const std::string &T) { R.Err += T; }, nullptr, &Err);
  R.Ms = msSince(T0);
  if (R.Code < 0)
    R.Err += (R.Code == DaemonClient::BusyRejected ? "busy" : "transport: ") +
             Err;
  return R;
}

DaemonRequest buildRequest(unsigned Jobs) {
  DaemonRequest Req;
  Req.Verb = "build";
  Req.Run = true;
  Req.Mode = static_cast<int>(StatefulConfig::Mode::HeuristicSkip);
  Req.Jobs = Jobs;
  return Req;
}

/// The `build.total_us` gauge of the daemon's `metrics` verb, in ms;
/// negative when unavailable.
double daemonBuildTotalMs(BuildDaemon &D) {
  DaemonRequest Req;
  Req.Verb = "metrics";
  Reply M = request(D, Req);
  const std::string Want =
      MetricsTextExporter::exportedName("build.total_us", false);
  for (const auto &[Name, Value] : MetricsTextExporter::parse(M.Out))
    if (Name == Want)
      return Value / 1000;
  return -1;
}

/// storm-daemon: an http_server project served by a resident
/// BuildDaemon, fed the edit stream of refactor-storm.scen. Its `warmup`
/// phase runs in-process during setup, one build per iteration as
/// ScenarioRunner builds. The steps then cycle through the nodes of its
/// other phases in the file's order, each phase `repeat` times, one node
/// per step (a node with count=N gives N steps); `choice:` picks a child
/// by its weights. Each step is that edit, a `build` request with
/// Run=true, and a no-op request.
class StormDaemon : public ProjectWorkload {
public:
  explicit StormDaemon(const RunOptions &O)
      : ProjectWorkload(O, "http_server"),
        Rand(O.Seed * 0xD1B54A32D192ED03ull + 7) {
    std::string Err;
    if (!ScenarioParser::parse(StormScenarioText, Storm, Err))
      throw std::runtime_error("refactor-storm.scen: " + Err);
    for (const ScenarioPhase &Ph : Storm.Phases)
      for (unsigned I = 0; Ph.Name != "warmup" && I != Ph.Repeat; ++I)
        for (const ScenarioNode &N : Ph.Nodes)
          for (unsigned K = 0; K != N.Count; ++K) {
            Cycle.push_back(N);
            Cycle.back().Count = 1;
          }
    if (Cycle.empty())
      throw std::runtime_error("refactor-storm.scen: no steps");
  }

  unsigned windowSteps() const override { return 100; }

  void setup(const std::string &Dir) override {
    createProject(Dir);
    // The cold build and the warm-up phase in-process, as scbuild would
    // before the daemon was started; then the ledger is filled.
    RunResult Warm;
    cliBuild(Warm, true, false, Check->observe(), "cold build");
    for (const ScenarioPhase &Ph : Storm.Phases)
      for (unsigned I = 0; Ph.Name == "warmup" && I != Ph.Repeat; ++I) {
        for (const ScenarioNode &N : Ph.Nodes)
          applyNode(N);
        cliBuild(Warm, true, false, Check->observe(), "warm-up");
      }
    if (!Warm.Failures.empty())
      throw std::runtime_error(Warm.Failures.front());
    fillLedger(*FS);
    // The daemon takes the build lock once, at start, for all its
    // builds; traced runs record that and share it out per build.
    const FsCounters Before = FS->snapshot();
    FS->setRecording(Opts.Trace);
    Daemon = std::make_unique<DaemonThread>(*FS, Opts.Jobs);
    FS->setRecording(false);
    StartFs = FS->snapshot() - Before;
    Reply First = request(Daemon->daemon(), buildRequest(Opts.Jobs));
    const std::string Bad =
        First.Code < 0
            ? First.Err
            : compareReply(Check->observe().Run, First.Out, First.Code);
    if (!Bad.empty())
      throw std::runtime_error("setup daemon warm-up: " + Bad);
  }

  FsCounters sharedFs() const override { return StartFs; }

  void step(bool Traced, RunResult &R) override {
    const char *Edit = applyNode(Cycle[NextNode++ % Cycle.size()]);
    const Reference Ref = Check->observe();
    daemonBuild(R, true, Traced, Ref, Edit);
    daemonBuild(R, false, Traced, Ref, "no-op");
  }

private:
  /// Applies \p N (all its count) the way ScenarioRunner::runNode,
  /// which is private, does, and returns the name of the node that ran
  /// (a choice's pick). Only the node kinds refactor-storm.scen uses
  /// are handled.
  const char *applyNode(const ScenarioNode &N) {
    using K = ScenarioNode::Kind;
    const char *Applied = scenarioNodeName(N.K);
    for (unsigned Rep = 0; Rep != N.Count; ++Rep) {
      switch (N.K) {
      case K::Choice: {
        uint64_t Total = 0;
        for (unsigned W : N.Weights)
          Total += W;
        uint64_t Roll = Rand.nextBelow(Total);
        size_t Pick = 0;
        while (Pick + 1 < N.Weights.size() && Roll >= N.Weights[Pick])
          Roll -= N.Weights[Pick++];
        Applied = applyNode(N.Children[Pick]);
        break;
      }
      case K::BodyTweak: {
        static const EditKind BodyKinds[] = {
            EditKind::ConstTweak, EditKind::CondFlip, EditKind::StmtInsert,
            EditKind::StmtDelete, EditKind::BodyRewrite};
        Model.applyEdit(BodyKinds[Rand.nextBelow(5)], Rand, *FS);
        break;
      }
      case K::Commit:
        Model.applyCommit(Rand, *FS);
        break;
      case K::ImportAdd:
        Model.addImportEdge(Rand, *FS);
        break;
      case K::ImportChange:
        Model.applyEdit(EditKind::ImportChange, Rand, *FS);
        break;
      case K::AddFile:
        Model.applyEdit(EditKind::AddFile, Rand, *FS);
        break;
      case K::DeleteFile:
        Model.applyEdit(EditKind::DeleteFile, Rand, *FS);
        break;
      case K::HotHeader:
        Model.hotHeaderChurn(Rand, *FS);
        break;
      case K::BranchSwitch:
        Model.branchSwitch(N.Percent, Rand, *FS);
        break;
      default:
        throw std::runtime_error(std::string("refactor-storm.scen: node '") +
                                 Applied + "' is not supported");
      }
    }
    return Applied;
  }

  void daemonBuild(RunResult &R, bool Primary, bool Traced,
                   const Reference &Ref, const char *What) {
    BuildDaemon &D = Daemon->daemon();
    const FsCounters Before = FS->snapshot();
    FS->setRecording(Traced);
    Reply Rep = request(D, buildRequest(Opts.Jobs));
    FS->setRecording(false);
    BuildSample B;
    B.Primary = Primary;
    B.Edit = What;
    B.Traced = Traced;
    B.WallMs = Rep.Ms;
    const std::string Label = std::string("daemon ") + What + " build";
    if (Rep.Code < 0) {
      check(B, R, Ref, Label, Rep.Err);
      R.Builds.push_back(B);
      return;
    }
    const BuildStats S = D.lastBuildStats();
    fillFromStats(B, S);
    // The reply is the daemon's own run; the objects it left on disk are
    // relinked and run by the oracle for the cost model and a second
    // check.
    const LinkedRun Linked = Check->runLinkedObjects();
    B.ProgramCost = Linked.Run.Cost;
    std::string Bad = S.Success ? compareReply(Ref.Run, Rep.Out, Rep.Code)
                                : "build failed: " + S.ErrorText;
    if (Bad.empty())
      Bad = compareRuns(Ref.Run, Linked.Run);
    check(B, R, Ref, Label, Bad);
    if (Traced) {
      B.Fs = FS->snapshot() - Before;
      B.TotalMs = B.DriverTotalMs;
      B.RoundTripMs = Rep.Ms;
      const double TotalMs = daemonBuildTotalMs(D);
      B.IpcMs = Rep.Ms - (TotalMs < 0 ? B.TotalMs : TotalMs);
      B.VmRunMs = Linked.VmMs;
      B.HistoryAppendMs = timeHistoryAppend(*FS, LedgerCopyDir);
    }
    R.Builds.push_back(B);
  }

  RNG Rand;
  Scenario Storm;
  std::vector<ScenarioNode> Cycle; ///< The steps' nodes, in order.
  size_t NextNode = 0;
  FsCounters StartFs;
  /// A member of the derived class, so it stops before the base's FS.
  std::unique_ptr<DaemonThread> Daemon;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"edit-cli", "storm-daemon"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const RunOptions &O) {
  if (O.Workload == "edit-cli")
    return std::make_unique<EditCli>(O);
  if (O.Workload == "storm-daemon")
    return std::make_unique<StormDaemon>(O);
  return nullptr;
}
