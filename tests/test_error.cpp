#include "common/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/env.hpp"
#include "core/scheme.hpp"
#include "exp/runner.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

template <typename E>
std::exception_ptr capture(const E& e) {
  // Templated to preserve the dynamic type — taking const std::exception&
  // here would slice every SimError down to its base.
  return std::make_exception_ptr(e);
}

TEST(SimErrorTaxonomy, KindNamesAreStable) {
  // These strings are persisted in poison records and failure manifests;
  // renaming one silently orphans every stored failure.
  EXPECT_STREQ(to_string(SimErrorKind::Trace), "trace");
  EXPECT_STREQ(to_string(SimErrorKind::Config), "config");
  EXPECT_STREQ(to_string(SimErrorKind::Numeric), "numeric");
  EXPECT_STREQ(to_string(SimErrorKind::Deadline), "deadline");
  EXPECT_STREQ(to_string(SimErrorKind::Cancelled), "cancelled");
  EXPECT_STREQ(to_string(SimErrorKind::Internal), "internal");
}

TEST(SimErrorTaxonomy, WhatRendersKindMessageAndContext) {
  NumericError e("lane is NaN");
  e.with_point(7).with_scheme("dpstt").with_workload("browser");
  const std::string what = e.what();
  EXPECT_EQ(what, "[numeric] lane is NaN (point 7, scheme=dpstt, "
                  "workload=browser)");
  EXPECT_EQ(e.message(), "lane is NaN");
  ASSERT_TRUE(e.point_index().has_value());
  EXPECT_EQ(*e.point_index(), 7u);
}

TEST(SimErrorTaxonomy, WhatWithoutContextIsJustKindAndMessage) {
  TraceError e("cannot read trace");
  EXPECT_STREQ(e.what(), "[trace] cannot read trace");
}

TEST(SimErrorTaxonomy, ExitCodesFollowTheDocumentedTable) {
  EXPECT_EQ(exit_code_for(TraceError("x")), kExitTraceError);
  EXPECT_EQ(exit_code_for(ConfigError("x")), kExitUsage);
  EXPECT_EQ(exit_code_for(EnvError("x")), kExitUsage);
  EXPECT_EQ(exit_code_for(NumericError("x")), kExitNumericError);
  EXPECT_EQ(exit_code_for(DeadlineExceeded("x")), kExitDeadline);
  EXPECT_EQ(exit_code_for(CancelledError("x")), kExitInterrupted);
  EXPECT_EQ(exit_code_for(SimError(SimErrorKind::Internal, "x")),
            kExitInternal);
  EXPECT_EQ(exit_code_for(std::runtime_error("x")), kExitInternal);
}

TEST(SimErrorTaxonomy, ErrorTypeOfClassifiesInFlightExceptions) {
  EXPECT_EQ(error_type_of(capture(NumericError("n"))), "numeric");
  EXPECT_EQ(error_type_of(capture(DeadlineExceeded("d"))), "deadline");
  EXPECT_EQ(error_type_of(capture(std::runtime_error("r"))), "exception");
}

TEST(SimErrorTaxonomy, ErrorMessageOfStripsSimErrorDecoration) {
  NumericError e("bad lane");
  e.with_point(3);
  // The kind and point travel in structured fields (PointFailure, poison
  // records) — the message must not duplicate them.
  EXPECT_EQ(error_message_of(capture(e)), "bad lane");
  EXPECT_EQ(error_message_of(capture(std::runtime_error("plain"))), "plain");
}

TEST(SimErrorTaxonomy, IsCancellationOnlyForCancelledErrors) {
  EXPECT_TRUE(is_cancellation(capture(CancelledError("stop"))));
  EXPECT_FALSE(is_cancellation(capture(DeadlineExceeded("slow"))));
  EXPECT_FALSE(is_cancellation(capture(std::runtime_error("boom"))));
}

TEST(CancelTokenTest, CheckThrowsOnlyAfterRequestAndResetRearms) {
  CancelToken tok;
  EXPECT_NO_THROW(tok.check());
  tok.request_cancel(15);
  EXPECT_TRUE(tok.cancel_requested());
  EXPECT_EQ(tok.signal(), 15);
  EXPECT_THROW(tok.check(), CancelledError);
  tok.reset();
  EXPECT_FALSE(tok.cancel_requested());
  EXPECT_NO_THROW(tok.check());
}

TEST(CancelTokenTest, PreCancelledTokenAbortsSimulateWithContext) {
  const Trace trace = generate_app_trace(AppId::Launcher, 200'000, 42);
  CancelToken tok;
  tok.request_cancel();
  SimOptions opts;
  opts.cancel = &tok;
  try {
    simulate(trace, build_scheme(SchemeKind::BaselineSram), opts);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    // The polling site attaches the point's identity before rethrowing.
    EXPECT_FALSE(e.workload().empty());
    EXPECT_FALSE(e.scheme().empty());
  }
}

TEST(CancelTokenTest, ImpossibleDeadlineFailsPointAsDeadlineExceeded) {
  // A 200k-record simulation cannot finish within the poll stride fast
  // enough to beat an already-expired deadline: the first boundary check
  // must raise DeadlineExceeded (kind Deadline -> exit code 4), not hang.
  const Trace trace = generate_app_trace(AppId::Launcher, 200'000, 42);
  CancelToken tok;  // never cancelled; isolates the deadline path
  SimOptions opts;
  opts.cancel = &tok;
  opts.point_deadline_ms = 1;
  try {
    simulate(trace, build_scheme(SchemeKind::BaselineSram), opts);
    // Tolerated: a machine fast enough to simulate 200k records in under
    // the deadline simply completes; the throwing path is covered by the
    // pre-cancelled test above.
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(exit_code_for(e), kExitDeadline);
    EXPECT_FALSE(e.workload().empty());
  }
}

TEST(ValidateSimResultFinite, AcceptsRealResultsRejectsNaNLanes) {
  const Trace trace = generate_app_trace(AppId::Launcher, 50'000, 42);
  SimResult r = simulate(trace, build_scheme(SchemeKind::BaselineSram));
  EXPECT_NO_THROW(validate_sim_result_finite(r));

  SimResult bad = r;
  bad.l2_energy.refresh_nj = std::nan("");
  try {
    validate_sim_result_finite(bad);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.scheme(), bad.scheme);
    EXPECT_EQ(e.workload(), bad.workload);
    EXPECT_NE(std::string(e.what()).find("refresh"), std::string::npos);
  }

  SimResult inf = r;
  inf.cpi = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_sim_result_finite(inf), NumericError);
}

TEST(ValidateSimResultFinite, EveryDoubleLaneIsChecked) {
  // The record's nine double fields, under their record names.
  auto lanes = [](SimResult& r) {
    return std::vector<std::pair<std::string, double*>>{
        {"cpi", &r.cpi},
        {"e.leakage_nj", &r.l2_energy.leakage_nj},
        {"e.read_nj", &r.l2_energy.read_nj},
        {"e.write_nj", &r.l2_energy.write_nj},
        {"e.refresh_nj", &r.l2_energy.refresh_nj},
        {"e.dram_nj", &r.l2_energy.dram_nj},
        {"e.ecc_nj", &r.l2_energy.ecc_nj},
        {"l1_energy_nj", &r.l1_energy_nj},
        {"l2_avg_enabled_bytes", &r.l2_avg_enabled_bytes}};
  };
  for (std::size_t i = 0; i < 9; ++i) {
    SimResult bad;
    const auto lane = lanes(bad).at(i);
    *lane.second = std::nan("");
    try {
      validate_sim_result_finite(bad);
      ADD_FAILURE() << lane.first << " was not checked";
    } catch (const NumericError& e) {
      EXPECT_NE(std::string(e.what()).find("lane " + lane.first + " is"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace mobcache
