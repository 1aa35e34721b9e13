#include "common/atomic_file.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace mobcache {

namespace fs = std::filesystem;

namespace {

bool write_checked(const std::string& path, const std::string& bytes,
                   bool sync) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
            std::fflush(f) == 0;
#if !defined(_WIN32)
  if (sync) ok = ok && ::fsync(::fileno(f)) == 0;
#endif
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool write_file(const std::string& path, const std::string& bytes) {
  return write_checked(path, bytes, /*sync=*/false);
}

bool write_file_synced(const std::string& path, const std::string& bytes) {
  return write_checked(path, bytes, /*sync=*/true);
}

void atomic_publish(const std::string& final_path, const std::string& bytes,
                    const std::string& tmp_token) {
  const fs::path target(final_path);
  const std::string tmp_path =
      (target.parent_path() / (".tmp-" + tmp_token)).string();
  if (!write_file_synced(tmp_path, bytes)) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    throw std::runtime_error("atomic publish: cannot write '" + tmp_path +
                             "'");
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    throw std::runtime_error("atomic publish: cannot publish '" + final_path +
                             "'");
  }
}

}  // namespace mobcache
