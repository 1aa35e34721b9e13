#include "trace/trace_io.hpp"

#include <array>
#include <cstring>
#include <fstream>

namespace mobcache {
namespace {

struct RawRecord {
  std::uint64_t addr;
  std::uint64_t reserved;
  std::uint8_t type;
  std::uint8_t mode;
  std::uint16_t thread;
  std::uint32_t pad;
};
static_assert(sizeof(RawRecord) == 24);

template <typename T>
void put(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get(std::ifstream& f, T& v) {
  f.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(f);
}

TraceReadResult fail(TraceIoStatus s, std::string detail) {
  TraceReadResult r;
  r.status = s;
  r.detail = std::move(detail);
  return r;
}

/// File size via seek, so the record count can be validated before any
/// allocation happens.
std::uint64_t stream_size(std::ifstream& f) {
  const auto here = f.tellg();
  f.seekg(0, std::ios::end);
  const auto end = f.tellg();
  f.seekg(here);
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

}  // namespace

const char* to_string(TraceIoStatus s) {
  switch (s) {
    case TraceIoStatus::Ok: return "ok";
    case TraceIoStatus::FileNotFound: return "file-not-found";
    case TraceIoStatus::BadMagic: return "bad-magic";
    case TraceIoStatus::CorruptHeader: return "corrupt-header";
    case TraceIoStatus::TruncatedRecords: return "truncated-records";
    case TraceIoStatus::BadRecord: return "bad-record";
    case TraceIoStatus::InconsistentModes: return "inconsistent-modes";
  }
  return "?";
}

bool write_trace(const Trace& trace, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  put(f, kTraceMagic);
  const auto name_len = static_cast<std::uint32_t>(trace.name().size());
  put(f, name_len);
  f.write(trace.name().data(), name_len);
  const std::uint64_t count = trace.size();
  put(f, count);
  for (const Access& a : trace.accesses()) {
    RawRecord r{};
    r.addr = a.addr;
    r.reserved = 0;
    r.type = static_cast<std::uint8_t>(a.type);
    r.mode = static_cast<std::uint8_t>(a.mode);
    r.thread = a.thread;
    r.pad = 0;
    f.write(reinterpret_cast<const char*>(&r), sizeof r);
  }
  // Tested after the close: the buffered tail is written only then.
  f.close();
  return static_cast<bool>(f);
}

TraceReadResult read_trace_detailed(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return fail(TraceIoStatus::FileNotFound, "cannot open " + path);
  const std::uint64_t file_size = stream_size(f);

  std::uint64_t magic = 0;
  if (!get(f, magic)) {
    return fail(TraceIoStatus::CorruptHeader,
                "file too small for magic (" + std::to_string(file_size) +
                    " bytes)");
  }
  if (magic != kTraceMagic)
    return fail(TraceIoStatus::BadMagic, "not a .mct trace: " + path);

  std::uint32_t name_len = 0;
  if (!get(f, name_len))
    return fail(TraceIoStatus::CorruptHeader, "truncated name length");
  if (name_len > (1u << 20)) {
    return fail(TraceIoStatus::CorruptHeader,
                "implausible name length " + std::to_string(name_len));
  }
  std::string name(name_len, '\0');
  f.read(name.data(), name_len);
  if (!f) return fail(TraceIoStatus::CorruptHeader, "truncated name bytes");
  std::uint64_t count = 0;
  if (!get(f, count))
    return fail(TraceIoStatus::CorruptHeader, "truncated record count");

  // Validate the promised record section against the actual file size
  // before reserving anything: a flipped bit in `count` must produce a
  // diagnostic, not an allocation of `count * 32` bytes.
  const std::uint64_t header = 8 + 4 + name_len + 8;
  const std::uint64_t avail = file_size > header ? file_size - header : 0;
  if (count > avail / sizeof(RawRecord)) {
    return fail(TraceIoStatus::TruncatedRecords,
                "header promises " + std::to_string(count) +
                    " records but the file holds only " +
                    std::to_string(avail / sizeof(RawRecord)));
  }

  Trace trace(std::move(name));
  trace.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RawRecord r{};
    if (!get(f, r)) {
      return fail(TraceIoStatus::TruncatedRecords,
                  "record " + std::to_string(i) + " of " +
                      std::to_string(count) + " truncated");
    }
    if (r.type > 2 || r.mode > 1) {
      return fail(TraceIoStatus::BadRecord,
                  "record " + std::to_string(i) + " has type=" +
                      std::to_string(r.type) + " mode=" +
                      std::to_string(r.mode));
    }
    Access a;
    a.addr = r.addr;
    a.type = static_cast<AccessType>(r.type);
    a.mode = static_cast<Mode>(r.mode);
    a.thread = r.thread;
    trace.push(a);
  }
  if (!trace.modes_consistent_with_addresses()) {
    return fail(TraceIoStatus::InconsistentModes,
                "record modes contradict their address halves");
  }
  TraceReadResult ok;
  ok.trace = std::move(trace);
  return ok;
}

}  // namespace mobcache
