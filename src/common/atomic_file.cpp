#include "common/atomic_file.hpp"

#include <cstdio>
#include <filesystem>

namespace hm {

WriteStage write_file_atomic(const std::string& path, const std::string& tmp,
                             std::string_view content, std::error_code* rename_error) {
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return WriteStage::Open;
  const bool wrote = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return WriteStage::Write;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    if (rename_error != nullptr) *rename_error = ec;
    return WriteStage::Rename;
  }
  return WriteStage::Ok;
}

}  // namespace hm
