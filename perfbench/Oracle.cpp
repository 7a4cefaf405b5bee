//===- perfbench/Oracle.cpp - Independent output reference ---------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "build_sys/BuildSystem.h"
#include "codegen/ObjectFile.h"
#include "driver/Compiler.h"
#include "driver/IRGen.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/FileSystem.h"
#include "vm/IRInterpreter.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

extern char **environ;

using namespace sc;
using namespace perfbench;

namespace {

ExecResult trapped(std::string Why) {
  ExecResult R;
  R.Trapped = true;
  R.TrapReason = std::move(Why);
  return R;
}

Reference unbuildable(std::string Why) {
  Reference R;
  R.Run = trapped("reference: " + std::move(Why));
  return R;
}

/// The project's source files: `.mc` files outside the build directory.
std::vector<std::string> sourcePaths(VirtualFileSystem &FS,
                                     const std::string &OutDir) {
  std::vector<std::string> Paths;
  const std::string Prefix = OutDir + "/";
  for (const std::string &P : FS.listFiles())
    if (P.size() > 3 && P.compare(P.size() - 3, 3, ".mc") == 0 &&
        P.compare(0, Prefix.size(), Prefix) != 0)
      Paths.push_back(P);
  return Paths;
}

std::string renderValues(const std::vector<int64_t> &V) {
  std::string S = "[";
  for (size_t I = 0; I != V.size() && I != 8; ++I) {
    if (I)
      S += ',';
    S += std::to_string(V[I]);
  }
  S += V.size() > 8 ? ",...]" : "]";
  return S;
}

//===----------------------------------------------------------------------===//
// The oracle process
//===----------------------------------------------------------------------===//

/// Computes References. Holds a resident stateless BuildDriver over an
/// in-memory mirror of the sources, so each call compiles only what
/// changed since the last one.
class ReferenceBuilder {
public:
  ReferenceBuilder(unsigned Jobs, std::string OutDir)
      : OutDir(std::move(OutDir)) {
    BuildOptions O;
    O.Compiler.Stateful.SkipMode = StatefulConfig::Mode::Stateless;
    O.Jobs = Jobs;
    O.HistoryLimit = 0;
    Baseline = std::make_unique<BuildDriver>(Mirror, O);
  }

  Reference observe(VirtualFileSystem &FS);
  LinkedRun runLinkedObjects(VirtualFileSystem &FS);

private:
  const std::string OutDir;
  InMemoryFileSystem Mirror;
  std::unique_ptr<BuildDriver> Baseline;
};

Reference ReferenceBuilder::observe(VirtualFileSystem &FS) {
  Reference Ref;
  std::map<std::string, std::string> Sources;
  std::map<std::string, ModuleInterface> Interfaces;
  std::map<std::string, std::vector<std::string>> Imports;
  for (const std::string &Path : sourcePaths(FS, OutDir)) {
    std::optional<std::string> Text = FS.readFile(Path);
    if (!Text)
      return unbuildable("cannot read " + Path);
    auto Scanned = Compiler::scanInterface(*Text);
    if (!Scanned)
      return unbuildable("cannot scan " + Path);
    Interfaces[Path] = Scanned->first;
    Imports[Path] = Scanned->second;
    Ref.SourceBytes += Text->size();
    Sources[Path] = std::move(*Text);
  }
  std::vector<std::unique_ptr<Module>> Owned;
  for (const auto &[Path, Source] : Sources) {
    DiagnosticEngine Diags;
    Parser P(Source, Diags);
    auto AST = P.parseModule();
    ModuleInterface Imported;
    for (const std::string &Dep : Imports[Path]) {
      auto It = Interfaces.find(Dep);
      if (It == Interfaces.end())
        return unbuildable(Path + " imports missing " + Dep);
      Imported.insert(Imported.end(), It->second.begin(), It->second.end());
    }
    analyzeModule(*AST, Imported, Diags);
    if (Diags.hasErrors())
      return unbuildable(Diags.render(Path));
    ModuleInterface All = Imported;
    All.insert(All.end(), Interfaces[Path].begin(), Interfaces[Path].end());
    Owned.push_back(generateIR(*AST, Path, All));
  }
  std::vector<const Module *> Modules;
  for (const auto &M : Owned)
    Modules.push_back(M.get());
  Ref.Run = interpretIR(Modules, "main", {});

  // Mirror the sources (the baseline's OutDir is its own, in memory).
  const std::string Prefix = Baseline->options().OutDir + "/";
  for (const std::string &P : Mirror.listFiles())
    if (P.compare(0, Prefix.size(), Prefix) != 0 && !Sources.count(P))
      Mirror.removeFile(P);
  for (const auto &[Path, Source] : Sources)
    if (Mirror.readFile(Path) != Source)
      Mirror.writeFile(Path, Source);
  BuildStats S = Baseline->build();
  if (!S.Success || !Baseline->program()) {
    Ref.BaselineError = "stateless build failed: " + S.ErrorText;
    return Ref;
  }
  ExecResult Base = VM(*Baseline->program()).run();
  Ref.BaselineCost = Base.Cost;
  std::string Bad = compareRuns(Ref.Run, Base);
  if (!Bad.empty())
    Ref.BaselineError = "stateless build: " + Bad;
  return Ref;
}

LinkedRun ReferenceBuilder::runLinkedObjects(VirtualFileSystem &FS) {
  LinkedRun R;
  std::vector<MModule> Objects;
  for (const std::string &Path : sourcePaths(FS, OutDir)) {
    std::optional<std::string> Bytes = FS.readFile(OutDir + "/" + Path + ".o");
    std::optional<MModule> Obj = Bytes ? readObject(*Bytes) : std::nullopt;
    if (!Obj) {
      R.Run = trapped("no valid object for " + Path);
      return R;
    }
    Objects.push_back(std::move(*Obj));
  }
  std::vector<const MModule *> Set;
  for (const MModule &M : Objects)
    Set.push_back(&M);
  LinkResult Linked = linkObjects(Set);
  if (!Linked.succeeded()) {
    R.Run = trapped("link failed: " +
                    (Linked.Errors.empty() ? "" : Linked.Errors.front()));
    return R;
  }
  const auto T0 = std::chrono::steady_clock::now();
  R.Run = VM(*Linked.Program).run();
  R.VmMs = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
               .count();
  return R;
}

//===----------------------------------------------------------------------===//
// Wire format between the two processes: a decimal payload length and a
// newline, then the payload, a space-separated sequence of numbers and
// length-prefixed strings (`<size>:<bytes>`).
//===----------------------------------------------------------------------===//

void putStr(std::ostream &S, const std::string &V) {
  S << V.size() << ':' << V << ' ';
}

std::string getStr(std::istream &S) {
  size_t N = 0;
  S >> N;
  if (S.get() != ':')
    S.setstate(std::ios::failbit);
  std::string V(N, '\0');
  S.read(V.data(), static_cast<std::streamsize>(N));
  return V;
}

void putRun(std::ostream &S, const ExecResult &R) {
  S << R.Trapped << ' ';
  putStr(S, R.TrapReason);
  S << R.ReturnValue.has_value() << ' ' << R.ReturnValue.value_or(0) << ' '
    << R.DynamicInsts << ' ' << R.Cost << ' ' << R.Output.size();
  for (int64_t V : R.Output)
    S << ' ' << V;
  S << ' ';
}

ExecResult getRun(std::istream &S) {
  ExecResult R;
  S >> R.Trapped;
  R.TrapReason = getStr(S);
  bool HasReturn = false;
  int64_t Return = 0;
  size_t N = 0;
  S >> HasReturn >> Return >> R.DynamicInsts >> R.Cost >> N;
  if (HasReturn)
    R.ReturnValue = Return;
  for (size_t I = 0; I != N && S; ++I)
    S >> R.Output.emplace_back();
  return R;
}

} // namespace

int perfbench::serveOracle(const std::string &Workspace,
                           const std::string &OutDir, unsigned Jobs) {
  // Replies go to the original standard output; anything else the
  // libraries print lands on standard error.
  std::FILE *Reply = ::fdopen(::dup(STDOUT_FILENO), "w");
  if (!Reply || ::dup2(STDERR_FILENO, STDOUT_FILENO) < 0)
    return 1;
  RealFileSystem FS(Workspace);
  ReferenceBuilder Builder(Jobs, OutDir);
  char Line[32];
  while (std::fgets(Line, sizeof(Line), stdin)) {
    std::ostringstream S;
    S << std::setprecision(17);
    const std::string Verb = Line;
    if (Verb == "observe\n") {
      Reference Ref = Builder.observe(FS);
      putRun(S, Ref.Run);
      S << Ref.SourceBytes << ' ' << Ref.BaselineCost << ' ';
      putStr(S, Ref.BaselineError);
    } else if (Verb == "linked\n") {
      LinkedRun L = Builder.runLinkedObjects(FS);
      putRun(S, L.Run);
      S << L.VmMs << ' ';
    } else {
      return 1;
    }
    const std::string Payload = S.str();
    std::fprintf(Reply, "%zu\n", Payload.size());
    std::fwrite(Payload.data(), 1, Payload.size(), Reply);
    if (std::fflush(Reply) != 0)
      return 1;
  }
  return 0;
}

Oracle::Oracle(const std::string &Exe, const std::string &Workspace,
               const std::string &OutDir, unsigned Jobs) {
  int ToChild[2], FromChild[2];
  if (::pipe2(ToChild, O_CLOEXEC) != 0)
    throw std::runtime_error("oracle: pipe failed");
  if (::pipe2(FromChild, O_CLOEXEC) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    throw std::runtime_error("oracle: pipe failed");
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, ToChild[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&Actions, FromChild[1], STDOUT_FILENO);
  std::string Args[] = {Exe, "--oracle", Workspace, OutDir,
                        std::to_string(Jobs)};
  char *Argv[] = {Args[0].data(), Args[1].data(), Args[2].data(),
                  Args[3].data(), Args[4].data(), nullptr};
  const int Err =
      ::posix_spawn(&Child, Exe.c_str(), &Actions, nullptr, Argv, environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  if (Err != 0) {
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    Child = -1;
    throw std::runtime_error("oracle: cannot start " + Exe);
  }
  To = ::fdopen(ToChild[1], "w");
  From = ::fdopen(FromChild[0], "r");
}

Oracle::~Oracle() {
  if (To)
    std::fclose(To);
  if (From)
    std::fclose(From);
  if (Child > 0)
    ::waitpid(Child, nullptr, 0);
}

std::string Oracle::ask(const char *Verb) {
  size_t Size = 0;
  if (!To || !From || std::fprintf(To, "%s\n", Verb) < 0 ||
      std::fflush(To) != 0 || std::fscanf(From, "%zu", &Size) != 1 ||
      std::fgetc(From) != '\n')
    throw std::runtime_error("oracle process ended");
  std::string Payload(Size, '\0');
  if (std::fread(Payload.data(), 1, Size, From) != Size)
    throw std::runtime_error("oracle process ended");
  return Payload;
}

Reference Oracle::observe() {
  std::istringstream S(ask("observe"));
  Reference Ref;
  Ref.Run = getRun(S);
  S >> Ref.SourceBytes >> Ref.BaselineCost;
  Ref.BaselineError = getStr(S);
  if (!S)
    throw std::runtime_error("oracle: malformed reply");
  return Ref;
}

LinkedRun Oracle::runLinkedObjects() {
  std::istringstream S(ask("linked"));
  LinkedRun L;
  L.Run = getRun(S);
  S >> L.VmMs;
  if (!S)
    throw std::runtime_error("oracle: malformed reply");
  return L;
}

std::string perfbench::compareRuns(const ExecResult &Ref,
                                   const ExecResult &Got) {
  if (Ref.Trapped || Got.Trapped)
    return "trap: reference '" + Ref.TrapReason + "', program '" +
           Got.TrapReason + "'";
  if (Ref.Output != Got.Output)
    return "printed " + renderValues(Got.Output) + ", reference printed " +
           renderValues(Ref.Output);
  if (Ref.ReturnValue != Got.ReturnValue)
    return "returned " + std::to_string(Got.ReturnValue.value_or(0)) +
           ", reference returned " + std::to_string(Ref.ReturnValue.value_or(0));
  return "";
}

std::string perfbench::compareReply(const ExecResult &Ref,
                                    const std::string &OutText, int ExitCode) {
  ExecResult Got;
  std::istringstream In(OutText);
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line.compare(0, 8, "scbuild:") == 0)
      continue;
    try {
      size_t Used = 0;
      Got.Output.push_back(std::stoll(Line, &Used));
      if (Used != Line.size())
        return "unexpected output line '" + Line + "'";
    } catch (const std::exception &) {
      return "unexpected output line '" + Line + "'";
    }
  }
  // The exit code carries the return value's low byte (renderRunOutcome).
  Got.ReturnValue = Ref.ReturnValue ? (ExitCode & 0xff) : 0;
  ExecResult Want = Ref;
  Want.ReturnValue = Ref.ReturnValue ? (*Ref.ReturnValue & 0xff) : 0;
  return compareRuns(Want, Got);
}
