// Whole-file replacement through a temp file and a rename: a crash mid-write
// leaves the previous file (or none), never a torn one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace hm {

/// Where write_file_atomic stopped (Ok on success); callers word their own
/// warnings from it.
enum class WriteStage : std::uint8_t { Ok, Open, Write, Rename };

/// Write @p content to @p tmp, then rename @p tmp over @p path.  On failure
/// @p tmp is removed and @p path is untouched; @p rename_error, when given,
/// receives the cause of a failed rename.  No fsync: the rename is atomic
/// against a crash of the process, not of the host.
WriteStage write_file_atomic(const std::string& path, const std::string& tmp,
                             std::string_view content,
                             std::error_code* rename_error = nullptr);

}  // namespace hm
