// Flight-recorder contract: recordings are byte-identical across runs, a
// cancel raised mid-validate ends the recording with a terminal `cancelled`
// event (and no dangling spans), and `explain` renders deterministically
// from the parsed events.
#include "obs/record.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/scenarios.hpp"
#include "obs/trace.hpp"
#include "repair/engine.hpp"

namespace acr::obs {
namespace {

std::string recordFigure2Repair(bool brute_force = false, int top_k_lines = 3) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  repair::RepairOptions options;
  options.seed = 23;
  options.brute_force = brute_force;
  options.top_k_lines = top_k_lines;
  FlightRecorder recorder;
  options.recorder = &recorder;
  const auto result =
      repair::AcrEngine(scenario.intents, options).repair(scenario.network());
  EXPECT_TRUE(result.success);
  return recorder.text();
}

TEST(Recorder, ByteIdenticalAcrossRuns) {
  const std::string first = recordFigure2Repair();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, recordFigure2Repair());
}

TEST(Recorder, CapturesSmtQueriesOnWideBruteForce) {
  // top_k 8 reaches the narrow-override-list template on Figure 2's
  // catch-all prefix list, whose model comes from the SMT solver.
  const std::string text =
      recordFigure2Repair(/*brute_force=*/true, /*top_k_lines=*/8);
  EXPECT_NE(text.find("\"event\":\"smt\""), std::string::npos);
  EXPECT_NE(text.find("\"sat\":true"), std::string::npos);
}

TEST(Recorder, EventsCarryMonotonicSeq) {
  FlightRecorder recorder;
  recorder.baseline(3, 12);
  recorder.crossover(2, 1);
  ASSERT_EQ(recorder.lines().size(), 2u);
  EXPECT_NE(recorder.lines()[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(recorder.lines()[1].find("\"seq\":1"), std::string::npos);
}

// record() is virtual precisely for this: a hook that raises the job's
// cancel flag the moment the first verdict lands, driving the engine down
// the mid-validate cancellation path.
class CancelAfterFirstVerdict final : public FlightRecorder {
 public:
  explicit CancelAfterFirstVerdict(std::atomic<bool>* flag) : flag_(flag) {}

  void record(util::Json event) override {
    const util::Json* kind = event.find("event");
    if (kind != nullptr && kind->kind() == util::Json::Kind::kString &&
        kind->asString() == "verdict") {
      flag_->store(true, std::memory_order_relaxed);
    }
    FlightRecorder::record(std::move(event));
  }

 private:
  std::atomic<bool>* flag_;
};

TEST(Recorder, CancelMidValidateEndsWithCancelledEvent) {
  // Trace too: after the cancelled repair returns, no span may dangle.
  Tracer::global().clear();
  Tracer::global().setEnabled(true);
  const acr::Scenario scenario = acr::figure2Scenario(true);
  std::atomic<bool> cancel{false};
  repair::RepairOptions options;
  options.seed = 23;
  options.cancel = &cancel;
  CancelAfterFirstVerdict recorder(&cancel);
  options.recorder = &recorder;
  const auto result =
      repair::AcrEngine(scenario.intents, options).repair(scenario.network());
  Tracer::global().setEnabled(false);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.termination, repair::Termination::kCancelled);
  ASSERT_FALSE(recorder.lines().empty());
  const std::string& last = recorder.lines().back();
  EXPECT_NE(last.find("\"event\":\"end\""), std::string::npos);
  EXPECT_NE(last.find("\"termination\":\"cancelled\""), std::string::npos);
  EXPECT_EQ(Tracer::global().openSpans(), 0);
  Tracer::global().clear();
}

TEST(Recorder, ParseAndExplainRoundTrip) {
  const std::string text = recordFigure2Repair();
  std::vector<util::Json> events;
  ASSERT_TRUE(parseRecording(text, &events));
  ASSERT_FALSE(events.empty());
  const std::string tree = renderExplainTree(events);
  EXPECT_NE(tree.find("baseline:"), std::string::npos);
  EXPECT_NE(tree.find("localize (iteration 1)"), std::string::npos);
  EXPECT_NE(tree.find("ACCEPT"), std::string::npos);
  EXPECT_NE(tree.find("end: repaired"), std::string::npos);
  // Rendering is a pure function of the events.
  EXPECT_EQ(tree, renderExplainTree(events));
}

TEST(Recorder, ParseRejectsMalformedLine) {
  std::vector<util::Json> events;
  EXPECT_FALSE(parseRecording("{\"event\":\"begin\"}\nnot json\n", &events));
  EXPECT_EQ(events.size(), 1u);
}

TEST(Recorder, SaveWritesJsonl) {
  FlightRecorder recorder;
  recorder.baseline(1, 2);
  const std::string path = ::testing::TempDir() + "acr_recorder_test.jsonl";
  ASSERT_TRUE(recorder.save(path));
  std::vector<util::Json> events;
  std::string text = recorder.text();
  ASSERT_TRUE(parseRecording(text, &events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("event")->asString(), "baseline");
}

}  // namespace
}  // namespace acr::obs
