// Repair flight recorder: a structured JSONL log of one repair's full
// decision tree — suspect ranking, template instantiations, SMT queries,
// verifier verdicts (including which delta-sim fallback rule fired) and the
// final accept/reject chain.
//
// Determinism contract: recordings contain no wall-clock timestamps and are
// rendered with sorted object keys (util::Json), so two repairs of the same
// scenario with the same options produce byte-identical files at any worker
// count. The engine upholds its side by emitting verdict events only from
// the ordered validation scan, never from fan-out workers.
//
// record() is virtual so tests can hook event emission (e.g. raise a cancel
// flag after the first verdict to exercise mid-validate cancellation).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace acr::obs {

class FlightRecorder {
 public:
  FlightRecorder() = default;
  virtual ~FlightRecorder() = default;

  // --- typed events, in rough lifecycle order -----------------------------

  struct Suspect {
    std::string device;
    int line = 0;
    double score = 0.0;
  };

  void beginRepair(const std::string& scenario_name,
                   std::uint64_t scenario_hash, std::uint64_t scenario_bytes,
                   util::Json options);
  void baseline(int failed_tests, int total_tests);
  void localize(int iteration, const std::vector<Suspect>& ranked);
  void templateFired(const std::string& tmpl, const std::string& device,
                     int line, int proposals);
  /// Per-variable detail of an annotated (symbolic-layer) query. `value` is
  /// the model assignment rendering (empty when unsat); `changed` marks
  /// assignments that differ from the variable's original concrete value —
  /// exactly the lines a symbolic ConfigChange will touch.
  struct SmtVar {
    std::string name;
    std::string kind;  // "prefix-set" | "int"
    std::string device;
    int line = 0;
    std::string original;
    int constraints = 0;
    std::string value;
    bool changed = false;
  };

  /// `vars` is empty for plain single-variable template queries; annotated
  /// symbolic queries emit a `vars` array plus a `model_delta` object of the
  /// changed assignments.
  void smtQuery(int variables, const std::vector<std::string>& constraints,
                bool sat,
                const std::vector<std::pair<std::string, std::string>>& model,
                const std::string& conflict,
                const std::vector<SmtVar>& vars = {});
  /// `node` is the candidate's delta-tree node path ("anchor[/base
  /// devices]/leaf devices"); empty (omitted from the event) when the
  /// full-verify oracle scored it (use_incremental off).
  void verdict(int iteration, int candidate, const std::string& tmpl,
               const std::string& description, double fitness, bool accepted,
               const std::string& sim, int tests_reverified, int tests_skipped,
               const std::string& node = {});
  void crossover(int pairs, int produced);
  void end(const std::string& termination, int iterations, int validations,
           int final_failed, const std::vector<std::string>& changes);

  // --- raw access ---------------------------------------------------------

  // Appends one event line. Adds the "seq" field. Virtual for test hooks;
  // overrides must call the base to keep the recording intact.
  virtual void record(util::Json event);

  [[nodiscard]] const std::vector<std::string>& lines() const { return lines_; }
  [[nodiscard]] std::string text() const;
  bool save(const std::string& path) const;

 private:
  std::vector<std::string> lines_;
  int seq_ = 0;
};

// Thread-local recorder binding: the engine installs its recorder so deep
// call sites (smt::Solver) can record without parameter plumbing. Fan-out
// worker threads never inherit the binding — that is what keeps recordings
// deterministic under parallel validation.
FlightRecorder* currentRecorder();

class RecorderScope {
 public:
  explicit RecorderScope(FlightRecorder* recorder);
  ~RecorderScope();
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

 private:
  FlightRecorder* saved_;
};

// --- explain --------------------------------------------------------------

// Parses a JSONL recording; returns false (and a partial list) on the first
// malformed line.
bool parseRecording(const std::string& text, std::vector<util::Json>* events);

// Renders the decision tree for `acrctl explain`: pure function of the
// parsed events, so two renders of one recording are byte-identical.
std::string renderExplainTree(const std::vector<util::Json>& events);

}  // namespace acr::obs
