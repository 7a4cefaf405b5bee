//===- perfbench/TimedFileSystem.cpp - Timing filesystem decorator -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TimedFileSystem.h"

#include "support/AtomicFile.h"

#include <chrono>

using namespace perfbench;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

} // namespace

FsCounters FsCounters::operator-(const FsCounters &B) const {
  FsCounters D;
  D.Ns = Ns - B.Ns;
  D.SyncN = SyncN - B.SyncN;
  D.WriteBytes = WriteBytes - B.WriteBytes;
  D.ListN = ListN - B.ListN;
  D.ListNs = ListNs - B.ListNs;
  D.ObjReadN = ObjReadN - B.ObjReadN;
  D.ObjReadBytes = ObjReadBytes - B.ObjReadBytes;
  D.ObjStoreNs = ObjStoreNs - B.ObjStoreNs;
  D.PersistNs = PersistNs - B.PersistNs;
  D.LockNs = LockNs - B.LockNs;
  return D;
}

TimedFileSystem::TimedFileSystem(std::string Root, std::string OutDir)
    : RealFileSystem(std::move(Root)), OutPrefix(std::move(OutDir) + "/") {}

FsCounters TimedFileSystem::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  return Totals;
}

TimedFileSystem::Kind TimedFileSystem::classify(const std::string &Path) const {
  if (Path.compare(0, OutPrefix.size(), OutPrefix) != 0)
    return Kind::Other;
  std::string Dest = Path;
  if (sc::isAtomicTempPath(Dest))
    Dest.resize(Dest.rfind(".tmp"));
  const std::string Name = Dest.substr(OutPrefix.size());
  if (endsWith(Name, ".o"))
    return Kind::Object;
  if (Name.compare(0, 5, ".lock") == 0)
    return Kind::Lock;
  if (Name == "manifest.bin" || Name == "state.db" || Name == "decisions.bin" ||
      Name == "history.jsonl")
    return Kind::Persist;
  return Kind::Other;
}

template <typename Fn>
auto TimedFileSystem::timed(Op O, const std::string &Path,
                            const uint64_t &Bytes, Fn Call) -> decltype(Call()) {
  if (!Recording.load())
    return Call();
  const uint64_t T0 = nowNs();
  auto Result = Call();
  const uint64_t Ns = nowNs() - T0;
  const Kind K = O == Op::List ? Kind::Other : classify(Path);
  std::lock_guard<std::mutex> L(Mu);
  Totals.Ns += Ns;
  if (O == Op::Read && K == Kind::Object) {
    ++Totals.ObjReadN;
    Totals.ObjReadBytes += Bytes;
  } else if (O == Op::Write) {
    Totals.WriteBytes += Bytes;
  } else if (O == Op::Sync) {
    ++Totals.SyncN;
  } else if (O == Op::List) {
    ++Totals.ListN;
    Totals.ListNs += Ns;
  }
  // Reads of objects are dirty-check and link work, not the store.
  if (K == Kind::Object && O != Op::Read)
    Totals.ObjStoreNs += Ns;
  else if (K == Kind::Persist)
    Totals.PersistNs += Ns;
  else if (K == Kind::Lock)
    Totals.LockNs += Ns;
  return Result;
}

std::optional<std::string> TimedFileSystem::readFile(const std::string &Path) {
  uint64_t Bytes = 0;
  return timed(Op::Read, Path, Bytes, [&] {
    std::optional<std::string> R = RealFileSystem::readFile(Path);
    Bytes = R ? R->size() : 0;
    return R;
  });
}

bool TimedFileSystem::writeFile(const std::string &Path,
                                const std::string &Content) {
  return timed(Op::Write, Path, Content.size(),
               [&] { return RealFileSystem::writeFile(Path, Content); });
}

bool TimedFileSystem::exists(const std::string &Path) {
  return timed(Op::Other, Path, 0,
               [&] { return RealFileSystem::exists(Path); });
}

bool TimedFileSystem::removeFile(const std::string &Path) {
  return timed(Op::Other, Path, 0,
               [&] { return RealFileSystem::removeFile(Path); });
}

std::vector<std::string> TimedFileSystem::listFiles() {
  return timed(Op::List, std::string(), 0,
               [&] { return RealFileSystem::listFiles(); });
}

bool TimedFileSystem::renameFile(const std::string &From,
                                 const std::string &To) {
  return timed(Op::Other, To, 0,
               [&] { return RealFileSystem::renameFile(From, To); });
}

bool TimedFileSystem::syncFile(const std::string &Path) {
  return timed(Op::Sync, Path, 0,
               [&] { return RealFileSystem::syncFile(Path); });
}

bool TimedFileSystem::createExclusive(const std::string &Path,
                                      const std::string &Content) {
  return timed(Op::Write, Path, Content.size(), [&] {
    return RealFileSystem::createExclusive(Path, Content);
  });
}
