// Crash-safe sweep journal: an append-only, per-record checksummed JSONL
// log of finished points, one file per (journal dir, experiment).
//
// Write path: every record is `J1 <fnv1a64-hex> <point-json>\n`, appended
// and flushed as each point finishes, so at any instant the file holds
// every completed point except possibly a torn tail from a crash mid-
// append.  Read path (--resume): records are verified line by line against
// their checksum and the current engine version; torn or corrupt lines are
// skipped and counted, never trusted — a SIGKILL at any byte offset loses
// at most the record being written.
//
// Because every simulation is a pure function of its canonical point, a
// resumed sweep that replays journaled records and re-runs the remainder
// emits byte-identical JSON/CSV to an uninterrupted run — the invariant
// the crash/resume CI smoke diffs for.
//
// On clean completion the journal is compacted: the final result set is
// rewritten through a temp file + atomic rename (the same discipline as
// the memo cache), so repeated journaled runs never grow the file and a
// later --resume replays instantly.
#pragma once

#include <cstddef>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "driver/result.hpp"

namespace hm::driver {

class SweepJournal {
 public:
  /// Opens (creating the directory if needed) dir/<experiment>.jsonl for
  /// appending.  An empty @p dir disables the journal; an unusable
  /// directory disables it too (journaling is belt-and-braces, never the
  /// reason a sweep cannot run).
  SweepJournal(const std::string& dir, const std::string& experiment);
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  bool enabled() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Append one finished point (ok or quarantined), checksummed and
  /// flushed.  Thread-safe; best-effort (an ENOSPC append is dropped — the
  /// point simply re-runs on resume).
  void append(const PointResult& r);

  /// Replace the journal with exactly @p results via temp-file + atomic
  /// rename: the post-sweep compaction.
  void compact(const std::vector<PointResult>& results);

  /// Load every intact record from dir/<experiment>.jsonl.  Torn, corrupt
  /// or stale-engine lines are counted into @p skipped (if non-null) and
  /// dropped.  Later records win over earlier ones for the same canonical
  /// point (an interrupted run may have re-appended after a resume).
  static std::vector<PointResult> load(const std::string& dir,
                                       const std::string& experiment,
                                       std::size_t* skipped = nullptr);

  /// One serialized record line (exposed for tests).
  static std::string record_line(const PointResult& r);

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace hm::driver
