// gtest predicates over the StructureAuditor (DESIGN.md §12): success when
// the audit is clean, otherwise a failure carrying the rendered report.
//
//   EXPECT_TRUE(AuditsClean(store));
//   ASSERT_TRUE(AuditsClean(sim.suspension())) << "op " << op;
#pragma once

#include <gtest/gtest.h>

#include "analysis/structure_auditor.hpp"

namespace dreamsim {

inline ::testing::AssertionResult AuditsClean(
    const analysis::AuditReport& report) {
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.Render();
}

inline ::testing::AssertionResult AuditsClean(
    const resource::ResourceStore& store) {
  return AuditsClean(analysis::StructureAuditor::AuditStore(store));
}

inline ::testing::AssertionResult AuditsClean(
    const resource::SuspensionQueue& queue) {
  return AuditsClean(analysis::StructureAuditor::AuditSuspensionQueue(queue));
}

}  // namespace dreamsim
