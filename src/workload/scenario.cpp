#include "workload/scenario.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "workload/generator.hpp"
#include "workload/kernel_model.hpp"

namespace mobcache {

namespace {

std::string scenario_name(const ScenarioConfig& cfg) {
  std::string name = "mix";
  for (AppId id : cfg.apps) {
    name += "-";
    name += app_name(id);
  }
  return name;
}

/// Forward-only reader over one app's source stream. Exhaustion restarts the
/// stream, which replays the identical record sequence — the streaming
/// equivalent of the materialized path's `cursor % src.size()` wrap-around.
struct AppSource {
  std::unique_ptr<AppTraceStream> stream;
  std::span<const Access> cur;

  Access next() {
    if (cur.empty()) {
      cur = stream->next_chunk();
      if (cur.empty()) {
        stream->reset();
        cur = stream->next_chunk();
      }
    }
    const Access a = cur.front();
    cur = cur.subspan(1);
    return a;
  }
};

}  // namespace

/// The generate_scenario() loop suspended between chunks. A chunk boundary
/// can land mid-slice, so the remaining slice length is part of the state;
/// every Rng draw happens at the same point of the record sequence as in the
/// batch formulation.
struct ScenarioStream::Impl {
  ScenarioConfig cfg;
  std::string name;
  std::vector<AppSource> sources;
  Rng rng{0};
  KernelModel switcher;
  std::size_t foreground = 0;
  std::uint64_t slice_remaining = 0;
  bool in_slice = false;
  std::uint64_t emitted = 0;
  bool finished = false;
  ChunkBuffer chunk;

  explicit Impl(const ScenarioConfig& c) : cfg(c), name(scenario_name(c)) {
    restart();
  }

  void restart() {
    rng = Rng(cfg.seed ^ 0xabcdef12345ull);
    switcher = KernelModel();
    foreground = 0;
    slice_remaining = 0;
    in_slice = false;
    emitted = 0;
    finished = cfg.apps.empty() || cfg.total_accesses == 0;
    sources.clear();
    if (finished) return;
    // Per-app source streams. Each app gets enough records that a restart
    // (which replays its sequence verbatim) is rare but harmless: phase
    // machines repeat anyway. Sources generate on demand, so the target
    // bounds the wrap-around, not the work.
    const std::uint64_t per_app =
        cfg.total_accesses / cfg.apps.size() + cfg.slice_mean + 4096;
    sources.reserve(cfg.apps.size());
    for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
      GeneratorConfig gc;
      gc.target_accesses = per_app;
      gc.seed = cfg.seed + i * 1000003;
      AppSource src;
      src.stream =
          std::make_unique<AppTraceStream>(make_app(cfg.apps[i]), gc);
      sources.push_back(std::move(src));
    }
  }

  void fill(std::vector<Access>& out) {
    auto total = [&] { return emitted + out.size(); };
    while (out.size() < kStreamChunkRecords) {
      if (!in_slice) {
        if (total() >= cfg.total_accesses) {
          finished = true;
          break;
        }
        // Context switch into the next foreground app: the scheduler picks
        // the task, binder delivers the focus event, and a few pages fault
        // back in.
        switcher.emit_episode(KernelService::SchedTick, 1, out, rng);
        switcher.emit_episode(KernelService::BinderIpc, 0, out, rng);
        if (rng.chance(0.5))
          switcher.emit_episode(KernelService::PageFault, 0, out, rng);
        slice_remaining =
            rng.geometric(1.0 / static_cast<double>(cfg.slice_mean));
        in_slice = true;
      }

      const Addr slot = kAppSlotStride * foreground;
      const auto tbase = static_cast<std::uint16_t>(foreground * 4);
      while (slice_remaining > 0 && total() < cfg.total_accesses &&
             out.size() < kStreamChunkRecords) {
        Access a = sources[foreground].next();
        if (a.mode == Mode::User) {
          a.addr += slot;  // processes have disjoint user address spaces
          a.thread = static_cast<std::uint16_t>(a.thread + tbase);
        }
        out.push_back(a);
        --slice_remaining;
      }
      if (total() >= cfg.total_accesses) {
        // The batch loop would truncate the slice here and exit on its next
        // while check; nothing after this point is observable.
        finished = true;
        break;
      }
      if (slice_remaining == 0) {
        foreground = (foreground + 1) % cfg.apps.size();
        in_slice = false;
      }
    }
    emitted += out.size();
  }
};

ScenarioStream::ScenarioStream(const ScenarioConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

ScenarioStream::~ScenarioStream() = default;

const std::string& ScenarioStream::name() const { return impl_->name; }

std::span<const Access> ScenarioStream::next_chunk() {
  if (impl_->finished) return {};
  std::vector<Access>& out = impl_->chunk.refill();
  impl_->fill(out);
  if (out.empty()) return {};
  return impl_->chunk.publish();
}

void ScenarioStream::reset() { impl_->restart(); }

Trace generate_scenario(const ScenarioConfig& cfg) {
  ScenarioStream stream(cfg);
  return materialize(stream, cfg.apps.empty() ? 0 : cfg.total_accesses);
}

PopulationModel PopulationModel::default_mix(
    std::uint64_t mean_session_accesses) {
  PopulationModel m;
  const std::uint64_t mean = std::max<std::uint64_t>(1, mean_session_accesses);
  // Three tiers: entry devices are common and short-session, flagships rarer
  // with long sessions and snappier app switching. Slice length scales with
  // the session so every tier sees a comparable number of app switches.
  m.devices = {
      {"entry", 0.35, std::max<std::uint64_t>(1, mean / 2),
       std::max<std::uint64_t>(1, mean / 40)},
      {"mid", 0.45, mean, std::max<std::uint64_t>(1, mean / 20)},
      {"flagship", 0.20, mean * 2, std::max<std::uint64_t>(1, mean / 16)},
  };
  // Popularity per AppId, in enum order (app_model.hpp): messaging, browser
  // and social dominate foreground time; the compute controls are rare.
  m.app_weights = {
      3.0,  // Launcher
      6.0,  // Browser
      4.0,  // Game
      5.0,  // VideoPlayer
      3.0,  // AudioPlayer
      3.0,  // Email
      2.5,  // Maps
      6.0,  // Social
      0.5,  // ComputeFft
      0.5,  // ComputeMatmul
      2.0,  // Camera
      7.0,  // Messenger
  };
  m.min_apps = 1;
  m.max_apps = 4;
  return m;
}

ScenarioConfig sample_session(const PopulationModel& model,
                              std::uint64_t seed) {
  if (model.devices.empty()) {
    throw ConfigError("PopulationModel has no device classes");
  }
  // A distinct stream from both the generator's (seed * golden-ratio + app)
  // and the scenario's (seed ^ 0xabcdef12345) seeding, so sampling draws
  // never correlate with the session's own record stream.
  Rng rng(seed * 0xd1b5'4a32'd192'ed03ull + 0x9e37'79b9ull);

  std::vector<double> dw;
  dw.reserve(model.devices.size());
  for (const DeviceClassSpec& d : model.devices) dw.push_back(d.weight);
  const DeviceClassSpec& dev = model.devices[rng.weighted(dw)];

  std::vector<double> w(model.app_weights);
  w.resize(static_cast<std::size_t>(kAppCount), 1.0);
  std::size_t drawable = 0;
  for (double x : w)
    if (x > 0.0) ++drawable;
  if (drawable == 0) throw ConfigError("PopulationModel has no drawable apps");

  const std::uint32_t lo = std::max<std::uint32_t>(1, model.min_apps);
  const std::uint32_t hi = std::max<std::uint32_t>(lo, model.max_apps);
  std::uint64_t napps = rng.range(lo, hi);
  if (napps > drawable) napps = drawable;

  ScenarioConfig sc;
  sc.apps.reserve(napps);
  for (std::uint64_t i = 0; i < napps; ++i) {
    const std::size_t idx = rng.weighted(w);
    sc.apps.push_back(static_cast<AppId>(idx));
    w[idx] = 0.0;  // without replacement: a session's apps are distinct
  }
  sc.total_accesses = dev.session_accesses;
  sc.slice_mean = std::max<std::uint64_t>(1, dev.slice_mean);
  sc.seed = seed;
  return sc;
}

}  // namespace mobcache
