#include "exp/partition_autosizer.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobcache {

std::string PartitionCandidate::label() const {
  return std::to_string(user_bytes >> 10) + "K/" + std::to_string(user_assoc) +
         " + " + std::to_string(kernel_bytes >> 10) + "K/" +
         std::to_string(kernel_assoc);
}

std::vector<PartitionCandidate> PartitionAutosizer::candidates() {
  // Sizes paired with associativities that keep the set count a power of
  // two at 64 B lines (size / (64·assoc) ∈ 2^k).
  struct Leg {
    std::uint64_t kb;
    std::uint32_t assoc;
  };
  const std::vector<Leg> user_legs = {{256, 8},  {384, 12}, {512, 8},
                                      {768, 12}, {1024, 8}, {1536, 12}};
  const std::vector<Leg> kernel_legs = {{128, 8}, {192, 12}, {256, 8},
                                        {384, 12}, {512, 8}};
  std::vector<PartitionCandidate> out;
  out.reserve(user_legs.size() * kernel_legs.size());
  for (const Leg& u : user_legs) {
    for (const Leg& k : kernel_legs) {
      out.push_back({u.kb << 10, u.assoc, k.kb << 10, k.assoc});
    }
  }
  return out;
}

DesignSpec PartitionAutosizer::design(const PartitionCandidate& c) const {
  DesignSpec d;
  d.name = "SP " + c.label();
  d.build = [c, tech = cfg_.tech] {
    StaticPartitionConfig pc;
    if (tech == TechKind::Sram) {
      pc.user = sram_segment(c.user_bytes, c.user_assoc);
      pc.kernel = sram_segment(c.kernel_bytes, c.kernel_assoc);
    } else {
      pc.user = sttram_segment(c.user_bytes, c.user_assoc, RetentionClass::Mid);
      pc.kernel =
          sttram_segment(c.kernel_bytes, c.kernel_assoc, RetentionClass::Lo);
    }
    return std::make_unique<StaticPartitionedL2>(pc);
  };
  return d;
}

std::vector<CandidateScore> PartitionAutosizer::score_all(
    const ExperimentRunner& runner,
    const std::vector<PartitionCandidate>& grid) const {
  // Spec 0 is the baseline; spec i + 1 is grid[i].
  std::vector<DesignSpec> specs;
  specs.reserve(1 + grid.size());
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  for (const PartitionCandidate& c : grid) specs.push_back(design(c));
  std::vector<SchemeSuiteResult> results = runner.run_designs(specs);
  ExperimentRunner::normalize(results);

  std::vector<CandidateScore> scores;
  scores.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SchemeSuiteResult& r = results[i + 1];
    scores.push_back({grid[i], r.norm_cache_energy, r.norm_exec_time,
                      r.avg_miss_rate, r.norm_exec_time <= cfg_.max_slowdown});
  }
  std::sort(scores.begin(), scores.end(),
            [](const CandidateScore& a, const CandidateScore& b) {
              if (a.candidate.total_bytes() != b.candidate.total_bytes())
                return a.candidate.total_bytes() < b.candidate.total_bytes();
              return a.norm_cache_energy < b.norm_cache_energy;
            });
  return scores;
}

CandidateScore PartitionAutosizer::best(
    const std::vector<CandidateScore>& scores) {
  if (scores.empty())
    throw std::invalid_argument("PartitionAutosizer::best: no scores");
  const CandidateScore* best = nullptr;
  for (const CandidateScore& s : scores) {
    if (!s.feasible) continue;
    if (best == nullptr || s.norm_cache_energy < best->norm_cache_energy)
      best = &s;
  }
  if (best == nullptr) {
    // Nothing meets the budget: return the least-bad slowdown.
    for (const CandidateScore& s : scores) {
      if (best == nullptr || s.norm_exec_time < best->norm_exec_time)
        best = &s;
    }
  }
  return *best;
}

}  // namespace mobcache
