#include "workload/generator.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace mobcache {
namespace {

/// User-space address plan: one text slice and one data arena per phase, so
/// phases have disjoint footprints (as different activity in a real app
/// does) while revisits to a phase re-touch the same lines.
constexpr Addr kUserTextBase = 0x0000'0000'0040'0000ull;
constexpr Addr kUserDataBase = 0x0000'7000'0000'0000ull;
constexpr std::uint64_t kPhaseTextSlice = 1ull << 20;
constexpr std::uint64_t kPhaseDataSlice = 1ull << 32;

/// Records per chunk. A scenario reads its per-app sources a slice at a
/// time and stops part-way through each (a fleet session consumes about
/// total/napps of a source's records), so small chunks mean a session
/// generates only what it reads; a 64 Ki-record chunk would generate a
/// ~60 k-record session's whole source target at once and hold up to a
/// 1 MiB buffer per app. generate_trace() appends the same records in more,
/// smaller pieces at no measurable cost. A chunk ends only between two
/// iterations of the phase loop, so the record sequence does not depend on
/// this size.
constexpr std::size_t kChunkRecords = 4096;

/// Runtime cursor state for one phase.
struct PhaseState {
  explicit PhaseState(const PhaseSpec& p)
      : code(p.hot_code_lines, p.code_zipf_alpha),
        ws_lines(std::max<std::uint64_t>(1, p.ws_bytes / kLineSize)) {
    if (p.pattern == AccessPattern::ZipfReuse)
      data_zipf.emplace(ws_lines, p.data_zipf_alpha);
  }

  ZipfSampler code;
  std::optional<ZipfSampler> data_zipf;  ///< ZipfReuse phases only
  std::uint64_t ws_lines;
  std::uint64_t stream_cursor = 0;
  std::uint64_t stride_cursor = 0;
  std::uint64_t chase_cursor = 1;
};

Addr phase_text_base(std::size_t phase) {
  return kUserTextBase + phase * kPhaseTextSlice;
}
Addr phase_data_base(std::size_t phase) {
  return kUserDataBase + phase * kPhaseDataSlice;
}

}  // namespace

/// The whole generate_trace() loop, suspended between chunks. `emitted` plus
/// the in-flight chunk size plays the role the growing buffer's size played
/// in the batch formulation, so every "have we hit the target yet" decision
/// — and therefore every Rng draw — lands on the same record boundaries.
struct AppTraceStream::Impl {
  AppSpec spec;
  GeneratorConfig cfg;
  Rng rng{0};
  KernelModel kernel;
  std::vector<PhaseState> states;
  std::size_t phase_idx = 0;
  std::uint64_t phase_remaining = 0;
  std::uint64_t user_accesses = 0;
  std::uint64_t next_tick = 0;
  double ifetch_debt = 0.0;
  std::uint64_t emitted = 0;  ///< records handed out in earlier chunks
  bool finished = false;
  ChunkBuffer chunk;

  Impl(const AppSpec& s, const GeneratorConfig& c) : spec(s), cfg(c) {
    restart();
  }

  void restart() {
    rng = Rng(cfg.seed * 0x9e37'79b9'7f4a'7c15ull +
              static_cast<int>(spec.id));
    kernel = KernelModel();
    states.clear();
    for (const PhaseSpec& p : spec.phases) states.emplace_back(p);
    phase_idx = 0;
    phase_remaining = 0;
    user_accesses = 0;
    next_tick = spec.sched_tick_interval;
    ifetch_debt = 0.0;
    emitted = 0;
    finished = false;
  }

  Addr next_data_addr(const PhaseSpec& p, PhaseState& st) {
    const Addr base = phase_data_base(phase_idx);
    std::uint64_t line = 0;
    switch (p.pattern) {
      case AccessPattern::ZipfReuse:
        line = st.data_zipf->sample(rng);
        break;
      case AccessPattern::Stream:
        line = st.stream_cursor++ % st.ws_lines;
        break;
      case AccessPattern::Stride: {
        line = st.stride_cursor % st.ws_lines;
        st.stride_cursor += p.stride_lines;
        if (st.stride_cursor >= st.ws_lines &&
            st.stride_cursor % st.ws_lines < p.stride_lines) {
          ++st.stride_cursor;  // phase-shift each sweep to cover all lines
        }
        break;
      }
      case AccessPattern::PointerChase:
        st.chase_cursor =
            st.chase_cursor * 2862933555777941757ull + 3037000493ull;
        line = st.chase_cursor % st.ws_lines;
        break;
    }
    return base + line * kLineSize;
  }

  /// Fills `out` with at least kChunkRecords records (or everything
  /// remaining). The loop body is the batch generator's, with the running
  /// buffer size replaced by emitted + out.size().
  void fill(std::vector<Access>& out) {
    auto total = [&] { return emitted + out.size(); };
    auto emit_user = [&](Addr addr, AccessType type) {
      Access a;
      a.addr = addr;
      a.type = type;
      a.mode = Mode::User;
      a.thread = 0;
      out.push_back(a);
      ++user_accesses;
    };

    while (total() < cfg.target_accesses && out.size() < kChunkRecords) {
      if (phase_remaining == 0) {
        // Enter next phase.
        if (!spec.transitions.empty()) {
          phase_idx = rng.weighted(spec.transitions[phase_idx]);
        } else {
          phase_idx = rng.below(spec.phases.size());
        }
        const PhaseSpec& p = spec.phases[phase_idx];
        phase_remaining =
            rng.geometric(1.0 / static_cast<double>(p.mean_phase_len));
      }
      const PhaseSpec& p = spec.phases[phase_idx];
      PhaseState& st = states[phase_idx];

      // One user-mode chunk.
      const std::uint64_t burst =
          std::min<std::uint64_t>(phase_remaining, rng.range(128, 512));
      for (std::uint64_t i = 0;
           i < burst && total() < cfg.target_accesses; ++i) {
        ifetch_debt += p.ifetch_per_data;
        while (ifetch_debt >= 1.0) {
          emit_user(phase_text_base(phase_idx) +
                        st.code.sample(rng) * kLineSize,
                    AccessType::InstFetch);
          ifetch_debt -= 1.0;
        }
        emit_user(next_data_addr(p, st), rng.chance(p.store_fraction)
                                             ? AccessType::Write
                                             : AccessType::Read);
      }
      phase_remaining -= std::min(burst, phase_remaining);

      // Periodic timer interrupt.
      while (user_accesses >= next_tick) {
        kernel.emit_episode(KernelService::SchedTick, /*thread=*/1, out, rng);
        next_tick += spec.sched_tick_interval;
      }

      // Phase-driven kernel services.
      for (const ServiceRate& sr : p.services) {
        if (sr.per_kilo_user <= 0.0) continue;
        const double expected =
            sr.per_kilo_user * static_cast<double>(burst) / 1000.0;
        std::uint64_t episodes = static_cast<std::uint64_t>(expected);
        if (rng.chance(expected - static_cast<double>(episodes))) ++episodes;
        const bool irq_context = sr.service == KernelService::InputEvent ||
                                 sr.service == KernelService::AudioDma ||
                                 sr.service == KernelService::FrameFlip;
        for (std::uint64_t e = 0;
             e < episodes && total() < cfg.target_accesses; ++e) {
          kernel.emit_episode(sr.service, irq_context ? 1 : 0, out, rng);
        }
      }
    }
    if (total() >= cfg.target_accesses) finished = true;
    emitted += out.size();
  }
};

AppTraceStream::AppTraceStream(const AppSpec& spec, const GeneratorConfig& cfg)
    : impl_(std::make_unique<Impl>(spec, cfg)) {}

AppTraceStream::~AppTraceStream() = default;

const std::string& AppTraceStream::name() const { return impl_->spec.name; }

std::span<const Access> AppTraceStream::next_chunk() {
  if (impl_->finished) return {};
  std::vector<Access>& out = impl_->chunk.refill();
  impl_->fill(out);
  if (out.empty()) return {};
  return impl_->chunk.publish();
}

void AppTraceStream::reset() { impl_->restart(); }

Trace generate_trace(const AppSpec& spec, const GeneratorConfig& cfg) {
  AppTraceStream stream(spec, cfg);
  return materialize(stream, cfg.target_accesses);
}

}  // namespace mobcache
