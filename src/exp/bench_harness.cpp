#include "exp/bench_harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/cancel.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "exp/parallel.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

namespace mobcache {

namespace {

/// The value of the last `--name=VALUE` in args; nullopt when absent.
std::optional<std::string> last_value(const std::vector<std::string>& args,
                                      const char* name) {
  const std::string flag = std::string(name) + "=";
  std::optional<std::string> v;
  for (const std::string& a : args)
    if (a.compare(0, flag.size(), flag) == 0) v = a.substr(flag.size());
  return v;
}

}  // namespace

std::optional<std::string> flag_value(const std::string& arg,
                                      const char* flag, const char* what) {
  const std::size_t len = std::strlen(flag);
  if (arg.compare(0, len, flag) != 0) return std::nullopt;
  if (arg.size() == len)
    throw EnvError(std::string(flag, len - 1) + " needs " + what);
  return arg.substr(len);
}

std::uint64_t bench_flag_u64(const std::vector<std::string>& args,
                             const char* name, std::uint64_t fallback,
                             std::uint64_t min, std::uint64_t max) {
  const std::optional<std::string> v = last_value(args, name);
  return v ? parse_u64(name, *v, min, max) : fallback;
}

double bench_flag_double(const std::vector<std::string>& args,
                         const char* name, double fallback) {
  const std::optional<std::string> v = last_value(args, name);
  return v ? parse_double(name, *v) : fallback;
}

SweepFlags parse_sweep_flags(int argc, char** argv) {
  SweepFlags f;
  std::uint64_t jobs = 0;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (auto v = flag_value(a, "--jobs=", "a count")) {
      // The range MOBCACHE_JOBS accepts; 0 keeps its meaning of "auto".
      jobs = parse_u64("--jobs", *v, 0, 65536);
    } else if (auto d = flag_value(a, "--store-dir=", "a path")) {
      f.store_dir = std::move(*d);
    } else if (auto ms = flag_value(a, "--point-deadline-ms=",
                                    "a deadline")) {
      f.point_deadline_ms = parse_u64("--point-deadline-ms", *ms);
    } else if (a == "--resume") {
      resume = true;
    } else if (a == "--keep-going") {
      f.keep_going = true;
    } else if (a == "--retry-failed") {
      f.retry_failed = true;
    } else {
      f.rest.push_back(std::move(a));
    }
  }
  f.jobs = effective_jobs(static_cast<unsigned>(jobs));
  if (f.store_dir.empty()) {
    if (auto env = env_string("MOBCACHE_RESULT_STORE")) {
      f.store_dir = std::move(*env);
    } else if (resume) {
      f.store_dir = results_path("result_store");
    }
  }
  return f;
}

std::unique_ptr<ResultStore> SweepFlags::open_store() const {
  if (store_dir.empty()) return nullptr;
  auto store = std::make_unique<ResultStore>(store_dir);
  store->set_retry_failed(retry_failed);
  return store;
}

std::vector<std::size_t> SweepFlags::fail_points(std::size_t points) const {
  std::vector<std::size_t> out;
  for (const std::string& a : rest) {
    if (a.rfind("--fail-points=", 0) != 0) continue;
    const std::string list = a.substr(14);
    for (std::size_t start = 0;;) {
      const std::size_t comma = list.find(',', start);
      out.push_back(static_cast<std::size_t>(
          parse_u64("--fail-points", list.substr(start, comma - start), 0,
                    points - 1)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return out;
}

void chaos_maybe_fail(const std::vector<std::size_t>& fail_points,
                      std::size_t index) {
  for (std::size_t p : fail_points) {
    if (p != index) continue;
    NumericError err("injected chaos fault");
    err.with_point(index);
    throw err;
  }
}

int guarded_main(const char* tool, bool install_signals, int argc, char** argv,
                 const std::function<int(int, char**)>& real_main) {
  if (install_signals) install_cancellation_handlers();
  try {
    return real_main(argc, argv);
  } catch (const SimError& e) {
    if (e.kind() == SimErrorKind::Cancelled) {
      std::fprintf(stderr, "%s: interrupted: %s\n", tool, e.what());
    } else {
      std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    }
    return exit_code_for(e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return exit_code_for(e);
  }
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

void write_json_results(const JsonWriter& w, const std::string& filename) {
  const std::string path = results_path(filename);
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (!write_file(path, w.str() + "\n"))
    throw std::runtime_error("cannot write '" + path + "'");
}

BenchReport::BenchReport(std::string name, unsigned jobs)
    : name_(std::move(name)),
      jobs_(jobs),
      start_(std::chrono::steady_clock::now()) {}

void BenchReport::add_result(const std::string& key, double value) {
  results_.emplace_back(key, value);
}

void BenchReport::add_run_fact(const std::string& key, double value) {
  run_facts_.emplace_back(key, value);
}

void BenchReport::add_point_failure(const PointFailure& f, std::string point) {
  ManifestEntry e;
  e.point = std::move(point);
  e.error_type = f.error_type;
  e.message = f.message;
  e.quarantined = f.quarantined;
  failures_.push_back(std::move(e));
}

double BenchReport::wall_ms() const {
  const auto dt = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double, std::milli>(dt).count();
}

void BenchReport::write() {
  const double ms = wall_ms();
  JsonWriter w;
  w.begin_object();
  w.key("bench").value(name_);
  w.key("schema_version").value(std::uint64_t{1});
  w.key("jobs").value(static_cast<std::uint64_t>(jobs_));
  w.key("points").value(points_);
  w.key("wall_ms").value(ms);
  w.key("points_per_sec")
      .value(ms > 0.0 ? static_cast<double>(points_) * 1e3 / ms : 0.0);
  // A failed getrusage probe reports 0 — omit the key entirely rather than
  // publish a bogus measurement (check_bench.py treats absence as
  // "unmeasured" and skips the RSS checks with a warning).
  if (const std::uint64_t rss = peak_rss_bytes(); rss > 0)
    w.key("peak_rss_bytes").value(rss);
  for (const auto& [key, value] : run_facts_) w.key(key).value(value);
  w.key("result_store");
  w.begin_object();
  ResultStoreStats::visit(
      [&](FieldName n, std::uint64_t v) { w.key(n.name).value(v); }, "",
      store_stats_);
  w.end_object();
  // Failure manifest + sweep counters. Green runs report an empty array and
  // failed = 0 — check_bench.py's validate asserts exactly that unless told
  // --allow-failures.
  std::uint64_t quarantined = 0;
  for (const ManifestEntry& e : failures_)
    if (e.quarantined) ++quarantined;
  const std::uint64_t failed =
      static_cast<std::uint64_t>(failures_.size());
  w.key("sweep");
  w.begin_object();
  w.key("completed").value(points_ > failed ? points_ - failed : 0);
  w.key("failed").value(failed);
  w.key("quarantined").value(quarantined);
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const ManifestEntry& e : failures_) {
    w.begin_object();
    w.key("point").value(e.point);
    w.key("error_type").value(e.error_type);
    w.key("message").value(e.message);
    w.key("quarantined").value(e.quarantined);
    w.end_object();
  }
  w.end_array();
  w.key("results");
  w.begin_object();
  for (const auto& [key, value] : results_) w.key(key).value(value);
  w.end_object();
  w.end_object();

  const std::string filename = "BENCH_" + name_ + ".json";
  write_json_results(w, filename);
  std::printf("[bench] %s (jobs=%u, %.0f ms, %.2f points/s)\n",
              results_path(filename).c_str(), jobs_, ms,
              ms > 0.0 ? static_cast<double>(points_) * 1e3 / ms : 0.0);
}

ExperimentContext::ExperimentContext(std::string name, SweepFlags f)
    : flags(std::move(f)),
      store(flags.open_store()),
      report(std::move(name), flags.jobs) {}

void ExperimentContext::configure(ExperimentRunner& runner) const {
  runner.jobs = flags.jobs;
  runner.result_store = store.get();
  runner.sim_options.point_deadline_ms = flags.point_deadline_ms;
}

int run_experiment(const char* name, int argc, char** argv,
                   int (*body)(ExperimentContext&)) {
  const std::string tool = std::string("bench_") + name;
  return guarded_main(tool.c_str(), /*install_signals=*/true, argc, argv,
                      [&](int ac, char** av) {
    ExperimentContext ctx(name, parse_sweep_flags(ac, av));
    const int code = body(ctx);
    if (ctx.store) ctx.report.set_store_stats(ctx.store->stats());
    ctx.report.write();
    return code;
  });
}

}  // namespace mobcache
