#pragma once
/// \file partition_autosizer.hpp
/// Offline static-partition design-space search.
///
/// The paper picks its static (user, kernel) segment sizes by sweeping the
/// design space against a workload suite. This component automates that
/// step: it scores a geometry grid under a chosen technology against the
/// shared 2 MB baseline and returns the cheapest configuration whose
/// execution time stays within a budget of it — i.e. it *derives* the
/// SchemeParams defaults instead of hand-tuning them (used by experiment
/// E15 and the partition_explorer example).
///
/// The grid is one ExperimentRunner::run_designs call: the baseline plus
/// one DesignSpec per candidate, so every candidate replays each trace's
/// one L1 pass on the runner's workers and every result is checked finite
/// before it is scored.

#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace mobcache {

/// One candidate geometry (sizes must satisfy power-of-two set counts;
/// candidates() only generates legal ones).
struct PartitionCandidate {
  std::uint64_t user_bytes = 0;
  std::uint32_t user_assoc = 0;
  std::uint64_t kernel_bytes = 0;
  std::uint32_t kernel_assoc = 0;

  std::uint64_t total_bytes() const { return user_bytes + kernel_bytes; }
  /// "1024K/8 + 256K/8": user then kernel segment, KiB/ways.
  std::string label() const;
};

/// Search result for one candidate.
struct CandidateScore {
  PartitionCandidate candidate;
  double norm_cache_energy = 0.0;  ///< geomean vs the baseline
  double norm_exec_time = 0.0;
  double avg_miss_rate = 0.0;
  bool feasible = false;  ///< meets the time budget
};

struct AutosizerConfig {
  /// Allowed slowdown vs the shared 2 MB SRAM baseline (paper: ~2%).
  double max_slowdown = 1.05;
  /// Segment technology of the scored designs. STT-RAM segments take the
  /// paper's retention pairing: Mid for user, Lo for kernel.
  TechKind tech = TechKind::Sram;
};

class PartitionAutosizer {
 public:
  explicit PartitionAutosizer(AutosizerConfig cfg) : cfg_(cfg) {}

  /// The default geometry grid: user segments 256 KB–1.5 MB, kernel
  /// segments 128 KB–512 KB, all with legal power-of-two set counts.
  static std::vector<PartitionCandidate> candidates();

  /// The static-partition design of `c` as a runner grid point. It carries
  /// no design_hash, so a result store on the runner does not memoize it.
  DesignSpec design(const PartitionCandidate& c) const;

  /// Scores every candidate over the runner's traces in one grid with
  /// scheme_design(SchemeKind::BaselineSram), normalized per trace against
  /// it (ExperimentRunner::normalize). Results are sorted by total size,
  /// then energy.
  std::vector<CandidateScore> score_all(
      const ExperimentRunner& runner,
      const std::vector<PartitionCandidate>& grid = candidates()) const;

  /// The cheapest-energy feasible score; falls back to the lowest-slowdown
  /// score when none meets the budget. Throws std::invalid_argument when
  /// `scores` is empty.
  static CandidateScore best(const std::vector<CandidateScore>& scores);

 private:
  AutosizerConfig cfg_;
};

}  // namespace mobcache
