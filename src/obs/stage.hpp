/// \file stage.hpp
/// \brief The one instrumentation seam: `obs::Stage` names a section of
///        the compile pipeline once, and that name is both its trace span
///        and the `kernel` label of its `qrc_profile_*` hardware-counter
///        series.
///
/// A stage records a span whenever a trace context is ambient on the
/// thread (see trace_position()); its parent is the innermost open stage
/// on the thread, else the context's ambient parent.
/// rl::WorkerPool::parallel_for hands the caller's position to its
/// workers, so stages opened inside a parallel body nest under the
/// caller's stage whichever thread runs the index.
///
/// While perf_enabled() is on, a stage also reads the calling thread's
/// `perf_event_open` group (cycles, instructions, cache refs/misses,
/// branches/misses) on entry and exit and accumulates the delta into
/// process-global per-stage totals. Availability is probed once per
/// process: containers and locked-down runners (perf_event_paranoid,
/// seccomp) commonly refuse the syscall, in which case counting degrades
/// to a clean no-op and `qrc_profile_perf_available` reports 0.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/trace.hpp"

namespace qrc::obs {

class MetricsRegistry;

/// The instrumented stages of the pipeline.
enum class StageId : std::uint8_t {
  kGreedyRollout = 0,    ///< Predictor: the batched greedy rollout
  kPolicyForward = 1,    ///< rollout: batched policy MLP forward
  kEnvStep = 2,          ///< rollout: stepping the chosen passes
  kVerifyGate = 3,       ///< Predictor: post-compile equivalence checks
  kSearchLookahead = 4,  ///< Predictor: one circuit's planning search
  kLeafEval = 5,         ///< search: batched policy/value leaf evaluation
  kSearchExpand = 6,     ///< beam search: frontier expansion stepping
  kTableauSweep = 7,     ///< Clifford block tableau sweeps of one pass call
  kVerifyClifford = 8,   ///< verify tier 1: Clifford/Pauli flow
  kVerifyMiter = 9,      ///< verify tier 2: alternating miter/basis sweep
  kVerifyStimuli = 10,   ///< verify tiers 3-4: dense or sparse stimuli
  kCount = 11,
};

[[nodiscard]] std::string_view stage_name(StageId id);

/// Hardware-counter switch (default off — a stage skips counting until a
/// surface opts in via --profile / --profile-hz).
[[nodiscard]] bool perf_enabled();
void set_perf_enabled(bool on);

/// True once the first stage successfully opened an event group; false
/// after the probe failed (EPERM/ENOSYS/...). Unknown until first use.
[[nodiscard]] bool perf_available();

/// Cumulative per-stage counter totals since process start (or reset).
/// Inclusive of nested stages, and only of the thread that opened each
/// stage (pool workers' share of a parallel body is not summed in).
struct StageTotals {
  std::uint64_t scopes = 0;  ///< completed counted stages
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_misses = 0;
};

[[nodiscard]] StageTotals stage_totals(StageId id);

/// Zeroes all per-stage totals (tests).
void reset_stage_totals();

/// RAII stage: a span on the ambient trace (if any) plus a counter
/// section (if perf_enabled()). With neither, it costs one TLS load and
/// two predicted branches.
class Stage {
 public:
  explicit Stage(StageId id);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  StageId id_;
  TraceContext* ctx_ = nullptr;
  int span_ = TraceContext::kDropped;
  int outer_span_ = TraceContext::kNoParent;
  bool counting_ = false;
  std::uint64_t begin_[6] = {};
};

/// Publishes `qrc_profile_*` families into `registry` from the current
/// totals: raw gauges per stage (cycles, instructions, cache/branch
/// misses, scopes), derived FloatGauges (ipc, cache_miss_rate,
/// branch_miss_rate), and `qrc_profile_perf_available`. Called at scrape
/// time so the registry always reflects the latest totals.
void publish_perf_metrics(MetricsRegistry& registry);

}  // namespace qrc::obs
