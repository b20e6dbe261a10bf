// Tests for sim/event_log and its simulator integration.
#include "sim/event_log.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sched/bml_scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace bml {
namespace {

TEST(EventLog, RecordsAndCounts) {
  EventLog log;
  log.record(5, EventKind::kReconfigurationStart, "1xparavance");
  log.record(6, EventKind::kQosViolation, "12.5");
  log.record(7, EventKind::kQosViolation, "3.0");
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.count(EventKind::kQosViolation), 2u);
  EXPECT_EQ(log.count(EventKind::kBootComplete), 0u);
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.events().front().time, 5);
}

TEST(EventLog, KeepsEveryEventInOrder) {
  EventLog log;
  for (int i = 0; i < 5; ++i)
    log.record(i, EventKind::kBootComplete, std::to_string(i));
  EXPECT_EQ(log.total(), 5u);
  ASSERT_EQ(log.events().size(), 5u);
  EXPECT_EQ(log.events().front().detail, "0");
  EXPECT_EQ(log.events().back().detail, "4");
}

TEST(EventLog, CsvFormat) {
  EventLog log;
  log.record(1, EventKind::kReconfigurationComplete, "199 s");
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find("time,kind,detail"), std::string::npos);
  EXPECT_NE(csv.find("1,reconfiguration-complete,199 s"), std::string::npos);
}

TEST(EventLog, SimulatorIntegrationRecordsReconfigurations) {
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  SimulatorOptions options;
  options.record_timeline = true;
  const Simulator simulator(design->candidates(), options);
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  const LoadTrace trace = step_trace({{5.0, 600.0}, {600.0, 600.0}});
  const SimulationResult r = simulator.run(scheduler, trace);

  EXPECT_EQ(r.events.count(EventKind::kReconfigurationStart),
            static_cast<std::size_t>(r.reconfigurations));
  EXPECT_EQ(r.events.count(EventKind::kReconfigurationComplete),
            static_cast<std::size_t>(r.reconfigurations));
  EXPECT_EQ(r.events.count(EventKind::kQosViolation), 0u);
  EXPECT_GT(r.events.count(EventKind::kBootComplete), 0u);
  // The reconfiguration-start event carries the target combination.
  bool found_target = false;
  for (const SimEvent& e : r.events.events())
    if (e.kind == EventKind::kReconfigurationStart &&
        e.detail.find("paravance") != std::string::npos)
      found_target = true;
  EXPECT_TRUE(found_target);
}

TEST(EventLog, DisabledByDefault) {
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const Simulator simulator(design->candidates());
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult r =
      simulator.run(scheduler, constant_trace(100.0, 100.0));
  EXPECT_EQ(r.events.total(), 0u);
}

TEST(EventKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(EventKind::kQosViolation), "qos-violation");
  EXPECT_STREQ(to_string(EventKind::kShutdownComplete), "shutdown-complete");
}

}  // namespace
}  // namespace bml
