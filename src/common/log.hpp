// Warning channel.  HM_WARN always writes one "[WARN] ..." line to stderr.
// Thread-safe: line writes are mutex-serialized — the sweep scheduler warns
// from worker threads, so lines from concurrent points must not interleave
// mid-line.
#pragma once

#include <sstream>
#include <string>

namespace hm {

/// Write "[WARN] <msg>\n" to stderr as one line.
void log_warn(const std::string& msg);

}  // namespace hm

#define HM_WARN(expr)                    \
  do {                                   \
    std::ostringstream hm_log_oss__;     \
    hm_log_oss__ << expr;                \
    ::hm::log_warn(hm_log_oss__.str());  \
  } while (0)
