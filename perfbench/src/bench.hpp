/// \file bench.hpp
/// \brief Shared pieces of the qrc benchmark: the metric schema and result
///        line, statistics, the fixed model set-up, corpus generation and the
///        untimed output check.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "ir/circuit.hpp"
#include "verify/equivalence.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve_mixed only: measure the saturation rate instead of a run.
  bool saturation = false;
};

// -------------------------------------------------------- statistics ---

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank 25th percentile.
[[nodiscard]] double lower_quartile(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// The highest percentile of `samples` that still has at least ten samples
/// beyond it: the value of rank n-11 (0-based) in ascending order.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - 10) / n
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> samples);

/// FNV-1a 64-bit digest as 16 hex digits.
[[nodiscard]] std::string digest_hex(const std::string& text);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------- report ---

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics of the untraced run, in print order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_schema();
/// Per-layer metrics of the traced run, in print order.
[[nodiscard]] const std::vector<MetricDef>& per_layer_schema();
/// Prefix of an action's per-layer rows ("passes.SabreSwap").
[[nodiscard]] std::string pass_metric(const std::string& action_name);

/// Metrics of one run against a fixed schema. Every schema entry is
/// printed; one the workload does not exercise prints as 0 and is marked
/// n/a in the table.
class Report {
 public:
  explicit Report(const std::vector<MetricDef>& schema);
  /// \throws std::logic_error for a name outside the schema.
  void set(const std::string& name, double value);
  void note(std::string line) { notes_.push_back(std::move(line)); }
  /// Prints the notes and the metric table, then the JSON result line as
  /// the last line of stdout.
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  struct Entry {
    MetricDef def;
    double value = 0.0;
    bool set = false;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

// ------------------------------------------------------------- set-up ---

/// The model every workload compiles with. Training budget, seeds, corpus
/// and num_envs = 1 are fixed here as part of the workload definition, so
/// every run serves the same model and the run seed only changes the
/// circuits that are compiled.
struct ModelSpec {
  int train_steps = 4096;
  std::uint64_t train_seed = 1;
  int corpus_min_qubits = 2;
  int corpus_max_qubits = 20;
  int corpus_count = 200;
  std::uint64_t corpus_seed = 7;
};

struct Setup {
  std::shared_ptr<const qrc::core::Predictor> model;
  double generate_s = 0.0;       ///< bench_suite: training corpus
  double train_s = 0.0;          ///< Predictor::train
  double env_steps_per_s = 0.0;  ///< training env steps / update wall time
  std::string digest;            ///< digest of the Predictor::save text
};

/// `repeats` set-ups (training corpus generation and training on one
/// thread), reported by their medians. `after` (optional) does
/// the rest of a workload's set-up once the model exists (serve_mixed
/// starts its service there) and returns the seconds it took.
struct SetupRuns {
  Setup last;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double train_s = 0.0;
  double env_steps_per_s = 0.0;
  bool deterministic = true;  ///< every repeat trained the same model
};
[[nodiscard]] SetupRuns run_setups(
    const ModelSpec& spec, int repeats,
    const std::function<double(const Setup&)>& after = {});
void set_setup_layers(Report& report, const SetupRuns& runs);
/// "model digest <hex>", the line the determinism test compares.
[[nodiscard]] std::string model_note(const SetupRuns& runs);

// ------------------------------------------------------- output check ---

/// Untimed check of one compiled result, plus its quality figures.
struct Checked {
  bool ok = false;       ///< native, mapped, and not refuted
  bool decided = false;  ///< the verdict is not `unknown`
  qrc::verify::VerifyResult verdict;
  double verify_ms = 0.0;  ///< time of the core::verify_compilation call
  double fidelity = 0.0;   ///< expected fidelity on the chosen device
  bool beats_baselines = false;
  std::string failure;  ///< why `ok` is false
};

/// Checks `result` (compiled from `input`): it is native on its device,
/// respects the device topology, and core::verify_compilation (the
/// reference, independent of the passes) does not refute it. Then scores
/// its expected fidelity against both baseline flows on the same device.
[[nodiscard]] Checked check_output(const qrc::ir::Circuit& input,
                                   const qrc::core::CompilationResult& result,
                                   const qrc::verify::VerifyOptions& options);

struct Quality {
  double mean_fidelity = 0.0;
  double beats_share = 0.0;
  double decided_share = 0.0;
};
[[nodiscard]] Quality summarize(const std::vector<Checked>& checks);
void set_quality(Report& report, const Quality& quality);
/// verify.<tier>.* and verify.unknown_share from the checks' verdicts.
void set_verify_layers(Report& report, const std::vector<Checked>& checks);

// ---------------------------------------------------------- workloads ---

/// greedy_compile. Returns the exit code.
int run_closed_loop(const Options& options);
/// serve_mixed. Returns the exit code.
int run_serve_mixed(const Options& options);

}  // namespace perfbench
