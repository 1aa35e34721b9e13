#include "trace/trace_compress.hpp"

#include <fstream>

#include "trace/trace_io.hpp"

namespace mobcache {
namespace {

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

bool get_varint(const std::string& in, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  int shift = 0;
  while (pos < in.size() && shift < 64) {
    const auto byte = static_cast<unsigned char>(in[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

TraceReadResult fail(TraceIoStatus s, std::string detail) {
  TraceReadResult r;
  r.status = s;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

bool write_trace_compressed(const Trace& trace, const std::string& path) {
  std::string body;
  body.reserve(trace.size() * 3);

  Addr prev_addr[kModeCount] = {0, kKernelSpaceBase};
  std::uint16_t prev_thread = 0;
  for (const Access& a : trace.accesses()) {
    const int m = static_cast<int>(a.mode);
    const bool thread_changed = a.thread != prev_thread;
    const auto meta = static_cast<unsigned char>(
        (static_cast<unsigned>(a.type) & 0x3) |
        (static_cast<unsigned>(a.mode) << 2) |
        (static_cast<unsigned>(thread_changed) << 3));
    body += static_cast<char>(meta);
    put_varint(body, zigzag(static_cast<std::int64_t>(a.addr) -
                            static_cast<std::int64_t>(prev_addr[m])));
    if (thread_changed) {
      put_varint(body, a.thread);
      prev_thread = a.thread;
    }
    prev_addr[m] = a.addr;
  }

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(reinterpret_cast<const char*>(&kTraceMagicZ), sizeof kTraceMagicZ);
  const auto name_len = static_cast<std::uint32_t>(trace.name().size());
  f.write(reinterpret_cast<const char*>(&name_len), sizeof name_len);
  f.write(trace.name().data(), name_len);
  const std::uint64_t count = trace.size();
  f.write(reinterpret_cast<const char*>(&count), sizeof count);
  const std::uint64_t body_len = body.size();
  f.write(reinterpret_cast<const char*>(&body_len), sizeof body_len);
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  // Tested after the close: the buffered tail is written only then.
  f.close();
  return static_cast<bool>(f);
}

TraceReadResult read_trace_compressed_detailed(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return fail(TraceIoStatus::FileNotFound, "cannot open " + path);
  std::uint64_t magic = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!f)
    return fail(TraceIoStatus::CorruptHeader, "file too small for magic");
  if (magic != kTraceMagicZ)
    return fail(TraceIoStatus::BadMagic, "not a .mctz trace: " + path);
  std::uint32_t name_len = 0;
  f.read(reinterpret_cast<char*>(&name_len), sizeof name_len);
  if (!f)
    return fail(TraceIoStatus::CorruptHeader, "truncated name length");
  if (name_len > (1u << 20)) {
    return fail(TraceIoStatus::CorruptHeader,
                "implausible name length " + std::to_string(name_len));
  }
  std::string name(name_len, '\0');
  f.read(name.data(), name_len);
  std::uint64_t count = 0;
  std::uint64_t body_len = 0;
  f.read(reinterpret_cast<char*>(&count), sizeof count);
  f.read(reinterpret_cast<char*>(&body_len), sizeof body_len);
  if (!f)
    return fail(TraceIoStatus::CorruptHeader, "truncated counts");
  if (body_len > (1ull << 33)) {
    return fail(TraceIoStatus::CorruptHeader,
                "implausible body length " + std::to_string(body_len));
  }
  // Each record costs at least 2 body bytes (meta + 1-byte varint), so a
  // count the body cannot possibly hold is rejected before reserving.
  if (count > body_len) {
    return fail(TraceIoStatus::TruncatedRecords,
                "header promises " + std::to_string(count) +
                    " records but the body holds only " +
                    std::to_string(body_len) + " bytes");
  }
  std::string body(body_len, '\0');
  f.read(body.data(), static_cast<std::streamsize>(body_len));
  if (!f) {
    return fail(TraceIoStatus::TruncatedRecords,
                "body truncated: expected " + std::to_string(body_len) +
                    " bytes");
  }

  Trace trace(std::move(name));
  trace.reserve(count);
  Addr prev_addr[kModeCount] = {0, kKernelSpaceBase};
  std::uint16_t prev_thread = 0;
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (pos >= body.size()) {
      return fail(TraceIoStatus::TruncatedRecords,
                  "record " + std::to_string(i) + " of " +
                      std::to_string(count) + " truncated");
    }
    const auto meta = static_cast<unsigned char>(body[pos++]);
    if ((meta & 0x3) > 2) {
      return fail(TraceIoStatus::BadRecord,
                  "record " + std::to_string(i) + " has bad type bits");
    }
    Access a;
    a.type = static_cast<AccessType>(meta & 0x3);
    a.mode = static_cast<Mode>((meta >> 2) & 0x1);
    std::uint64_t zz = 0;
    if (!get_varint(body, pos, zz)) {
      return fail(TraceIoStatus::TruncatedRecords,
                  "record " + std::to_string(i) + " address varint cut off");
    }
    const int m = static_cast<int>(a.mode);
    a.addr = static_cast<Addr>(static_cast<std::int64_t>(prev_addr[m]) +
                               unzigzag(zz));
    prev_addr[m] = a.addr;
    if (meta & 0x8) {
      std::uint64_t t = 0;
      if (!get_varint(body, pos, t)) {
        return fail(TraceIoStatus::TruncatedRecords,
                    "record " + std::to_string(i) + " thread varint cut off");
      }
      if (t > 0xffff) {
        return fail(TraceIoStatus::BadRecord,
                    "record " + std::to_string(i) + " thread id " +
                        std::to_string(t) + " out of range");
      }
      prev_thread = static_cast<std::uint16_t>(t);
    }
    a.thread = prev_thread;
    trace.push(a);
  }
  if (pos != body.size()) {
    return fail(TraceIoStatus::BadRecord,
                std::to_string(body.size() - pos) +
                    " trailing bytes after the last record");
  }
  if (!trace.modes_consistent_with_addresses()) {
    return fail(TraceIoStatus::InconsistentModes,
                "record modes contradict their address halves");
  }
  TraceReadResult ok;
  ok.trace = std::move(trace);
  return ok;
}

TraceReadResult read_trace_any_detailed(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    TraceReadResult r;
    r.status = TraceIoStatus::FileNotFound;
    r.detail = "cannot open " + path;
    return r;
  }
  std::uint64_t magic = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!f) {
    TraceReadResult r;
    r.status = TraceIoStatus::CorruptHeader;
    r.detail = "file too small for magic: " + path;
    return r;
  }
  f.close();
  if (magic == kTraceMagicZ) return read_trace_compressed_detailed(path);
  if (magic == kTraceMagic) return read_trace_detailed(path);
  TraceReadResult r;
  r.status = TraceIoStatus::BadMagic;
  r.detail = "magic matches neither .mct nor .mctz: " + path;
  return r;
}

}  // namespace mobcache
