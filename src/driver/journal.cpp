#include "driver/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "common/atomic_file.hpp"
#include "common/hash.hpp"

namespace hm::driver {

namespace {

constexpr char kMagic[] = "J1 ";  // record format tag + space

std::string journal_path(const std::string& dir, const std::string& experiment) {
  return dir + "/" + experiment + ".jsonl";
}

}  // namespace

SweepJournal::SweepJournal(const std::string& dir, const std::string& experiment) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  path_ = journal_path(dir, experiment);
  file_ = std::fopen(path_.c_str(), "a");
}

SweepJournal::~SweepJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string SweepJournal::record_line(const PointResult& r) {
  const std::string payload = point_json(r);
  char head[24];
  std::snprintf(head, sizeof(head), "J1 %016" PRIx64 " ", fnv1a64(payload));
  return head + payload + "\n";
}

void SweepJournal::append(const PointResult& r) {
  if (!enabled()) return;
  const std::string line = record_line(r);
  const std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

void SweepJournal::compact(const std::vector<PointResult>& results) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fclose(file_);
  file_ = nullptr;
  std::string text;
  for (const PointResult& r : results) text += record_line(r);
  // Whatever the outcome, appends resume on the (old or compacted) file.
  write_file_atomic(path_, path_ + ".tmp", text);
  file_ = std::fopen(path_.c_str(), "a");
}

std::vector<PointResult> SweepJournal::load(const std::string& dir,
                                            const std::string& experiment,
                                            std::size_t* skipped) {
  std::vector<PointResult> out;
  std::size_t bad = 0;
  if (!dir.empty()) {
    std::ifstream in(journal_path(dir, experiment));
    std::string line;
    // Records are keyed by canonical identity; keep the LAST intact record
    // per canonical (re-appends from an interrupted resume supersede) at
    // the position of its first appearance.
    std::unordered_map<std::string, std::size_t> slot;
    while (in && std::getline(in, line)) {
      // getline strips '\n'; a torn tail shows up as a line that fails the
      // magic/checksum below, never as silent truncation.
      bool intact = false;
      if (line.size() > 20 && line.compare(0, 3, kMagic) == 0 && line[19] == ' ') {
        const std::string_view payload = std::string_view(line).substr(20);
        char* end = nullptr;
        const std::uint64_t want = std::strtoull(line.c_str() + 3, &end, 16);
        if (end == line.c_str() + 19 && fnv1a64(payload) == want) {
          // point_from_json also rejects stale engine versions — a journal
          // from an older engine replays nothing rather than wrong bytes.
          if (std::optional<PointResult> r = point_from_json(payload)) {
            intact = true;
            const auto [it, fresh] = slot.try_emplace(r->point.canonical(), out.size());
            if (fresh)
              out.push_back(std::move(*r));
            else
              out[it->second] = std::move(*r);
          }
        }
      }
      if (!intact) ++bad;
    }
  }
  if (skipped != nullptr) *skipped = bad;
  return out;
}

}  // namespace hm::driver
