//===- perfbench/TimedFileSystem.h - Timing filesystem decorator -*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A RealFileSystem that times and counts every call the build system
/// makes through it, grouped by what the path is: objects
/// (`out/<tu>.o`), persisted build state (manifest, compiler state,
/// decision log, history ledger), the advisory lock, and everything
/// else. Atomic-write temps (`<dest>.tmp.<pid>.<n>`) count as their
/// destination.
///
/// It derives from RealFileSystem, and every override forwards to the
/// base implementation, so it can sit underneath both a BuildDriver
/// (which takes any VirtualFileSystem) and a BuildDaemon (which takes a
/// RealFileSystem). Recording is switched on only for traced builds;
/// when off, each call costs one atomic load on top of the real call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TIMEDFILESYSTEM_H
#define PERFBENCH_TIMEDFILESYSTEM_H

#include "support/FileSystem.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace perfbench {

/// Cumulative filesystem counters; subtract two snapshots for one build.
struct FsCounters {
  uint64_t Ns = 0;          ///< Time inside every call.
  uint64_t SyncN = 0;       ///< syncFile (fsync) calls.
  uint64_t WriteBytes = 0;  ///< Bytes passed to writeFile/createExclusive.
  uint64_t ListN = 0, ListNs = 0;         ///< listFiles (directory walks).
  uint64_t ObjReadN = 0, ObjReadBytes = 0; ///< Object files read.
  uint64_t ObjStoreNs = 0;  ///< Object write + sync + rename + remove.
  uint64_t PersistNs = 0;   ///< Any call on manifest/state/decisions/ledger.
  uint64_t LockNs = 0;      ///< Any call on the build lock.

  FsCounters operator-(const FsCounters &Base) const;
};

class TimedFileSystem : public sc::RealFileSystem {
public:
  TimedFileSystem(std::string Root, std::string OutDir);

  void setRecording(bool On) { Recording.store(On); }
  FsCounters snapshot() const;

  std::optional<std::string> readFile(const std::string &Path) override;
  bool writeFile(const std::string &Path, const std::string &Content) override;
  bool exists(const std::string &Path) override;
  bool removeFile(const std::string &Path) override;
  std::vector<std::string> listFiles() override;
  bool renameFile(const std::string &From, const std::string &To) override;
  bool syncFile(const std::string &Path) override;
  bool createExclusive(const std::string &Path,
                       const std::string &Content) override;

private:
  enum class Op { Read, Write, Sync, List, Other };
  enum class Kind { Object, Persist, Lock, Other };

  Kind classify(const std::string &Path) const;
  /// Runs \p Call and, when recording, adds its time to the counters of
  /// \p Path's kind. \p Bytes is read after the call.
  template <typename Fn>
  auto timed(Op O, const std::string &Path, const uint64_t &Bytes, Fn Call)
      -> decltype(Call());

  std::string OutPrefix; ///< "<OutDir>/".
  std::atomic<bool> Recording{false};
  mutable std::mutex Mu;
  FsCounters Totals; ///< Guarded by Mu.
};

} // namespace perfbench

#endif // PERFBENCH_TIMEDFILESYSTEM_H
