//===- perfbench/Oracle.h - Independent output reference --------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's output check. The reference behaviour of a project is
/// the IR interpreter run over *unoptimised* IR of every source file,
/// resolved the way the build system resolves imports — no pass, no
/// skip policy, no object file, no linker. A built program is correct
/// when its VM run prints the same values and returns the same value.
/// The stateless compiler's build of the same sources is checked the
/// same way and gives the cost that program_cost is relative to.
///
/// The references are computed in a child process (this binary run as
/// `perfbench --oracle <workspace> <outdir> <jobs>`), so that the
/// oracle's memory — a resident stateless BuildDriver over an in-memory
/// mirror of the sources, and the interpreter's IR modules — stays out
/// of the benchmark process's peak_rss_mb. The child reads the
/// workspace itself, when asked, while the benchmark waits.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "vm/VM.h"

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

/// What one project state should do, and what the stateless compiler
/// makes of it.
struct Reference {
  sc::ExecResult Run;       ///< The reference interpreter's run.
  uint64_t SourceBytes = 0; ///< Total size of the sources.
  /// VM cost of `main` built by the stateless compiler (no dormancy
  /// state, no skipping) at the same opt level: program_cost's base.
  uint64_t BaselineCost = 0;
  /// Non-empty when the stateless build failed or misbehaved.
  std::string BaselineError;
};

/// The program a build left on disk, relinked and run by the oracle.
struct LinkedRun {
  sc::ExecResult Run;
  double VmMs = 0; ///< Time of the VM::run call alone.
};

/// The benchmark's handle on the oracle process. Starting it spawns the
/// child; destroying it closes the child's input and waits for it.
/// Every call throws std::runtime_error when the child is gone.
class Oracle {
public:
  Oracle(const std::string &Exe, const std::string &Workspace,
         const std::string &OutDir, unsigned Jobs);
  ~Oracle();
  Oracle(const Oracle &) = delete;
  Oracle &operator=(const Oracle &) = delete;

  /// The reference for the workspace's `.mc` sources now (files under
  /// the out directory are ignored). A source that fails to compile
  /// gives a trapped run whose TrapReason names the error.
  Reference observe();

  /// Reads the objects `<OutDir>/<src>.o` of every source in the
  /// workspace, links them, and runs `main`: the program a daemon build
  /// left on disk. Trapped with a reason when an object is missing or
  /// fails to link.
  LinkedRun runLinkedObjects();

private:
  std::string ask(const char *Verb);

  pid_t Child = -1;
  std::FILE *To = nullptr, *From = nullptr;
};

/// The oracle process's main loop: answers requests on standard input
/// until it closes. Returns the process exit code.
int serveOracle(const std::string &Workspace, const std::string &OutDir,
                unsigned Jobs);

/// Empty when \p Got behaves like \p Ref, else one line saying how it
/// differs.
std::string compareRuns(const sc::ExecResult &Ref, const sc::ExecResult &Got);

/// Empty when a `--run` reply (the printed lines of the `out` frames and
/// the exit code) matches \p Ref, else one line saying how it differs.
/// Lines starting with "scbuild:" are the build summary, not output.
std::string compareReply(const sc::ExecResult &Ref, const std::string &OutText,
                         int ExitCode);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
