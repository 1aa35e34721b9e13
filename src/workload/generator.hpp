#pragma once
/// \file generator.hpp
/// Turns an AppSpec into a concrete interleaved user/kernel access trace.

#include <cstdint>
#include <memory>

#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"
#include "workload/app_model.hpp"

namespace mobcache {

struct GeneratorConfig {
  /// Total records to emit (user + kernel combined).
  std::uint64_t target_accesses = 2'000'000;
  std::uint64_t seed = 1;
};

/// Streaming app-trace generator: the phase machine of generate_trace() as a
/// resumable state machine emitting small chunks of about 4 Ki records
/// (generator.cpp says why), so an app trace never has to exist fully in
/// memory and a scenario's per-app sources generate only the records the
/// session reads. Deterministic in (spec, cfg.seed); generate_trace() is
/// exactly materialize() over this stream, so the chunked and batch record
/// sequences are identical by construction (tests/test_trace_stream.cpp
/// pins it).
class AppTraceStream final : public TraceStream {
 public:
  AppTraceStream(const AppSpec& spec, const GeneratorConfig& cfg);
  ~AppTraceStream() override;

  const std::string& name() const override;
  std::span<const Access> next_chunk() override;
  void reset() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Generates the trace for one app. Deterministic in (spec, cfg.seed).
/// The result satisfies Trace::modes_consistent_with_addresses().
Trace generate_trace(const AppSpec& spec, const GeneratorConfig& cfg);

}  // namespace mobcache
