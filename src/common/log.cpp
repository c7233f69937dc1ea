#include "common/log.hpp"

#include <cstdio>
#include <mutex>

namespace hm {
namespace {
std::mutex g_write_mu;
}  // namespace

void log_warn(const std::string& msg) {
  // One fprintf would usually be atomic enough, but POSIX only guarantees
  // that for unbuffered streams; serialize explicitly so concurrent worker
  // threads never interleave mid-line.
  std::lock_guard<std::mutex> lk(g_write_mu);
  std::fprintf(stderr, "[WARN] %s\n", msg.c_str());
}

}  // namespace hm
