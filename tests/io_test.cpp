// Tests for the rendering / table / CSV helpers.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "dvq/dvq_scheduler.hpp"
#include "dvq/yield.hpp"
#include "io/csv.hpp"
#include "io/export.hpp"
#include "io/json.hpp"
#include "io/render.hpp"
#include "io/table.hpp"
#include "obs/trace.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

TEST(Render, SlotScheduleShowsPlacementsAndWindows) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule sched = schedule_sfq(sys);
  const std::string out = render_slot_schedule(sys, sched);
  // One row per task, named.
  for (const Task& t : sys.tasks()) {
    EXPECT_NE(out.find(t.name() + " |"), std::string::npos) << out;
  }
  // Processor digits appear.
  EXPECT_NE(out.find('0'), std::string::npos);
  EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(Render, DvqTimelineMarksEarlyYields) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
  RenderOptions opts;
  opts.chars_per_slot = 8;
  const std::string out = render_dvq_schedule(sc.system, sched, opts);
  EXPECT_NE(out.find("P0"), std::string::npos);
  EXPECT_NE(out.find("P1"), std::string::npos);
  EXPECT_NE(out.find(')'), std::string::npos);  // early-yield marker
  EXPECT_NE(out.find("A1"), std::string::npos);
}

TEST(Render, DescribeSubtasksListsParameters) {
  const std::string out = describe_subtasks(fig1_periodic());
  EXPECT_NE(out.find("theta"), std::string::npos);
  EXPECT_NE(out.find("grpD"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "12345"});
  const std::string out = t.str();
  std::istringstream is(out);
  std::string line1, sep, line3, line4;
  std::getline(is, line1);
  std::getline(is, sep);
  std::getline(is, line3);
  std::getline(is, line4);
  EXPECT_EQ(line3.size(), line4.size());
  EXPECT_NE(sep.find("---"), std::string::npos);
}

TEST(Table, RowWidthChecked) {
  TextTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), ContractViolation);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(std::int64_t{42}), "42");
  EXPECT_EQ(cell(1.5, 2), "1.50");
  EXPECT_EQ(cell_ratio(1, 2, 3), "0.500");
  EXPECT_THROW((void)cell_ratio(1, 0), ContractViolation);
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  CsvWriter w;
  w.header({"x", "y"});
  w.row({"1", "2"});
  w.row({"3", "4,5"});
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,\"4,5\"\n");
}

TEST(Csv, RowWidthChecked) {
  CsvWriter w;
  w.header({"x", "y"});
  EXPECT_THROW(w.row({"1"}), ContractViolation);
}

// Golden bytes of the three exporters on a two-task system whose first
// task name needs RFC-4180 quoting and whose GIS indices skip (index !=
// seq + 1, theta > 0).  Two heavy tasks on one processor overload it, so
// both schedules carry a late subtask.
TaskSystem quoted_name_system() {
  std::vector<Task> tasks;
  tasks.push_back(Task::gis("a,\"b\"", Weight(2, 3), {{1}, {2}, {4, 1}}));
  tasks.push_back(Task::periodic("plain", Weight(2, 3), 3));
  return TaskSystem(std::move(tasks), 1);
}

std::string csv_text(const CsvWriter& w) {
  std::ostringstream os;
  w.write(os);
  return os.str();
}

TEST(CsvExport, TaskSystemGoldenBytes) {
  EXPECT_EQ(csv_text(export_task_system(quoted_name_system())),
            "task,name,weight,index,theta,release,deadline,eligible,bbit,"
            "group_deadline\n"
            "0,\"a,\"\"b\"\"\",2/3,1,0,0,2,0,1,3\n"
            "0,\"a,\"\"b\"\"\",2/3,2,0,1,3,1,0,3\n"
            "0,\"a,\"\"b\"\"\",2/3,4,1,5,7,5,0,7\n"
            "1,plain,2/3,1,0,0,2,0,1,3\n"
            "1,plain,2/3,2,0,1,3,1,0,3\n");
}

TEST(CsvExport, SlotScheduleGoldenBytes) {
  const TaskSystem sys = quoted_name_system();
  EXPECT_EQ(csv_text(export_slot_schedule(sys, schedule_sfq(sys))),
            "task,name,index,slot,proc,deadline,tardiness_slots\n"
            "0,\"a,\"\"b\"\"\",1,0,0,2,0\n"
            "0,\"a,\"\"b\"\"\",2,2,0,3,0\n"
            "0,\"a,\"\"b\"\"\",4,5,0,7,0\n"
            "1,plain,1,1,0,2,0\n"
            "1,plain,2,3,0,3,1\n");
}

TEST(CsvExport, DvqScheduleGoldenBytes) {
  const TaskSystem sys = quoted_name_system();
  const FixedYield yields(Time::ticks(kTicksPerSlot / 16));
  EXPECT_EQ(csv_text(export_dvq_schedule(sys, schedule_dvq(sys, yields))),
            "task,name,index,start_ticks,cost_ticks,proc,deadline,"
            "tardiness_ticks\n"
            "0,\"a,\"\"b\"\"\",1,0,983040,0,2,0\n"
            "0,\"a,\"\"b\"\"\",2,1966080,983040,0,3,0\n"
            "0,\"a,\"\"b\"\"\",4,5242880,983040,0,7,0\n"
            "1,plain,1,983040,983040,0,2,0\n"
            "1,plain,2,2949120,983040,0,3,786432\n");
}

TEST(Csv, HeaderlessRowsAndEmptyWriter) {
  EXPECT_EQ(csv_text(CsvWriter{}), "");
  CsvWriter w;
  w.row({"a"});
  w.row({"b,c", "", "d"});  // no header: widths are not checked
  EXPECT_EQ(csv_text(w), "a\n\"b,c\",,d\n");
  EXPECT_EQ(w.rows(), 2u);
}

TEST(ChromeTrace, SlotScheduleEventsMatchPlacements) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule sched = schedule_sfq(sys);
  const JsonValue doc = parse_json(export_chrome_trace(sys, sched));
  const JsonValue& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is(JsonValue::Kind::kArray));

  std::int64_t placed = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      if (sched.placement(SubtaskRef{k, s}).scheduled()) ++placed;
    }
  }
  std::int64_t complete = 0;
  for (const JsonValue& e : evs.array) {
    ASSERT_EQ(e.at("ph").string, "X");
    ++complete;
  }
  EXPECT_EQ(complete, placed);
}

TEST(ChromeTrace, TidIsThePlacementProcessor) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
  const JsonValue doc = parse_json(export_chrome_trace(sc.system, sched));

  // Index expected (name, tid) pairs from the schedule itself.
  std::map<std::string, int> proc_of;
  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    const Task& task = sc.system.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const DvqPlacement& p = sched.placement(SubtaskRef{k, s});
      if (!p.placed) continue;
      proc_of[task.name() + "_" + std::to_string(task.subtask(s).index)] =
          p.proc;
    }
  }
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const auto it = proc_of.find(e.at("name").string);
    ASSERT_NE(it, proc_of.end()) << e.at("name").string;
    EXPECT_EQ(e.at("tid").integer, it->second);
  }
}

TEST(ChromeTrace, CapturedTraceBecomesInstantEvents) {
  const TaskSystem sys = fig6_system();
  RingBufferSink sink(1 << 16);
  SfqOptions opts;
  opts.trace = &sink;
  const SlotSchedule sched = schedule_sfq(sys, opts);

  const std::vector<TraceEvent> events = sink.snapshot();
  const JsonValue doc =
      parse_json(export_chrome_trace(sys, sched, events));
  std::int64_t instants = 0, compares = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string != "i") continue;
    ++instants;
    if (e.at("name").string == "compare") ++compares;
  }
  EXPECT_GT(instants, 0);
  // kCompare events are deliberately excluded from the timeline.
  EXPECT_EQ(compares, 0);
  // Both overloads agree on the complete events.
  const JsonValue plain = parse_json(export_chrome_trace(sys, sched));
  std::int64_t complete = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "X") ++complete;
  }
  EXPECT_EQ(complete,
            static_cast<std::int64_t>(plain.at("traceEvents").array.size()));
}

TEST(ChromeTrace, DropCountBecomesTruncationMetadata) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule sched = schedule_sfq(sys, SfqOptions{});

  // No drops: no truncation marker, no otherData.
  const std::string clean =
      export_chrome_trace(sys, sched, ChromeTraceExtras{});
  EXPECT_EQ(clean.find("trace truncated"), std::string::npos);
  EXPECT_EQ(clean.find("otherData"), std::string::npos);

  // Drops rename the schedule process and record the exact count under
  // otherData, so a truncated timeline is visibly truncated.
  const std::string truncated = export_chrome_trace(
      sys, sched, ChromeTraceExtras{.events_dropped = 37});
  EXPECT_NE(truncated.find("trace truncated: 37 events dropped"),
            std::string::npos);
  const JsonValue doc = parse_json(truncated);
  const JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* dropped = other->find("trace_events_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->integer, 37);
}

// Hostile nesting is rejected with a diagnostic instead of recursing
// until the stack overflows (a 200,000-deep "[" used to segfault).
TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kMaxJsonDepth - 1)));
  EXPECT_NO_THROW((void)parse_json(nested(kMaxJsonDepth)));
  EXPECT_THROW((void)parse_json(nested(kMaxJsonDepth + 1)),
               ContractViolation);
  EXPECT_THROW((void)parse_json(std::string(200000, '[')), ContractViolation);
  // Objects count toward the same bound.
  std::string objs;
  for (int i = 0; i <= kMaxJsonDepth; ++i) objs += R"({"a":)";
  objs += "1" + std::string(static_cast<std::size_t>(kMaxJsonDepth) + 1, '}');
  EXPECT_THROW((void)parse_json(objs), ContractViolation);
}

}  // namespace
}  // namespace pfair
