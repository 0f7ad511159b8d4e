#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "core/actions.hpp"
#include "reward/reward.hpp"

namespace perfbench {

using namespace qrc;

// -------------------------------------------------------- statistics ---

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lower_quartile(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 4];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

Tail tail_of(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // With fewer than 11 samples no percentile has ten beyond it; the
  // maximum is the best that can be reported.
  const std::size_t rank = n > 10 ? n - 11 : n - 1;
  tail.value = samples[rank];
  tail.percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                                 static_cast<double>(n)
                           : 100.0;
  return tail;
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(h));
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- report ---

const std::vector<MetricDef>& end_to_end_schema() {
  static const std::vector<MetricDef> schema = {
      {"setup_s", "s"},
      {"throughput_per_s", "ops/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"ok_share", "ratio"},
      {"peak_rss_mb", "MiB"},
      {"mean_fidelity", "ratio"},
      {"beats_baselines_share", "ratio"},
      {"decided_share", "ratio"},
      {"slo_share", "ratio"},
  };
  return schema;
}

namespace {

/// Metric-name form of an action name ("Collect2qBlocks+ConsolidateBlocks"
/// -> "Collect2qBlocks_ConsolidateBlocks").
std::string metric_safe(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    if (!keep) {
      c = '_';
    }
  }
  return out;
}

std::vector<MetricDef> build_per_layer_schema() {
  std::vector<MetricDef> s = {
      {"bench_suite.generate_s", "s"},
      {"rl.train_s", "s"},
      {"rl.train.env_steps_per_s", "1/s"},
      {"core.compile_ms", "ms"},
      {"core.attributed_ms", "ms"},
      {"core.unattributed_ms", "ms"},
      {"core.unattributed_share", "ratio"},
      {"core.steps", "count"},
      {"core.fallback_share", "ratio"},
      {"passes.ms", "ms"},
      {"passes.calls", "count"},
      {"passes.noop_share", "ratio"},
  };
  // Platform and device selections only set a field; every other action
  // runs a pass and gets its own rows.
  const auto& registry = core::ActionRegistry::instance();
  for (int a = 0; a < registry.size(); ++a) {
    const auto type = registry.at(a).type();
    if (type == core::ActionType::kPlatformSelection ||
        type == core::ActionType::kDeviceSelection) {
      continue;
    }
    const std::string base = "passes." + metric_safe(registry.at(a).name());
    s.push_back({base + ".ms", "ms"});
    s.push_back({base + ".calls", "count"});
  }
  const std::vector<MetricDef> rest = {
      {"features.observe_us", "us"},
      {"features.observe_calls", "count"},
      {"reward.compute_us", "us"},
      {"reward.compute_calls", "count"},
      {"rl.forward_us", "us"},
      {"rl.forward_calls", "count"},
      {"verify.clifford_tableau.ms", "ms"},
      {"verify.clifford_tableau.calls", "count"},
      {"verify.clifford_tableau.qubits_sum", "count"},
      {"verify.alternating_miter.ms", "ms"},
      {"verify.alternating_miter.calls", "count"},
      {"verify.alternating_miter.qubits_sum", "count"},
      {"verify.random_stimuli.ms", "ms"},
      {"verify.random_stimuli.calls", "count"},
      {"verify.random_stimuli.qubits_sum", "count"},
      {"verify.unknown_share", "ratio"},
      {"search.ms", "ms"},
      {"search.nodes", "count"},
      {"search.improved_share", "ratio"},
      {"service.cache_hit_share", "ratio"},
      {"service.batch_size_mean", "count"},
      {"service.shed", "count"},
      {"service.latency_ms_p50", "ms"},
      {"net.overhead_ms_p50", "ms"},
      {"net.error_frames", "count"},
      {"ir.qasm_parse_us", "us"},
      {"loadgen.late_ms_p99", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  s.insert(s.end(), rest.begin(), rest.end());
  return s;
}

}  // namespace

const std::vector<MetricDef>& per_layer_schema() {
  static const std::vector<MetricDef> schema = build_per_layer_schema();
  return schema;
}

std::string pass_metric(const std::string& action_name) {
  return "passes." + metric_safe(action_name);
}

Report::Report(const std::vector<MetricDef>& schema) {
  for (const MetricDef& def : schema) {
    entries_.push_back({def, 0.0, false});
  }
}

void Report::set(const std::string& name, double value) {
  for (Entry& e : entries_) {
    if (e.def.name == name) {
      e.value = std::isfinite(value) ? value : 0.0;
      e.set = true;
      return;
    }
  }
  throw std::logic_error("metric outside the schema: " + name);
}

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const std::string& line : notes_) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Entry& e : entries_) {
    if (e.set) {
      std::printf("  %-46s %16.6f %s\n", e.def.name.c_str(), e.value,
                  e.def.unit.c_str());
    } else {
      std::printf("  %-46s %16s %s\n", e.def.name.c_str(), "n/a",
                  e.def.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", e.value);
    json += (first ? "\"" : ", \"") + e.def.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + e.def.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- set-up ---

namespace {

Setup run_setup(const ModelSpec& spec) {
  Setup setup;
  const auto t0 = Clock::now();
  const std::vector<ir::Circuit> corpus =
      bench::benchmark_suite(spec.corpus_min_qubits, spec.corpus_max_qubits,
                             spec.corpus_count, spec.corpus_seed);
  const auto t1 = Clock::now();

  core::PredictorConfig config;
  config.reward = reward::RewardKind::kFidelity;
  config.seed = spec.train_seed;
  config.ppo.total_timesteps = spec.train_steps;
  config.num_envs = 1;
  config.rollout_workers = 1;
  auto model = std::make_shared<core::Predictor>(config);
  const std::vector<rl::PpoUpdateStats> stats = model->train(corpus);
  const auto t2 = Clock::now();

  setup.generate_s = ms_between(t0, t1) / 1000.0;
  setup.train_s = ms_between(t1, t2) / 1000.0;
  std::int64_t update_us = 0;
  for (const auto& s : stats) {
    update_us += s.update_duration_us;
  }
  if (!stats.empty() && update_us > 0) {
    setup.env_steps_per_s = static_cast<double>(stats.back().timesteps) /
                            (static_cast<double>(update_us) / 1e6);
  }
  std::ostringstream saved;
  model->save(saved);
  setup.digest = digest_hex(saved.str());
  setup.model = std::move(model);
  return setup;
}

}  // namespace

SetupRuns run_setups(const ModelSpec& spec, int repeats,
                     const std::function<double(const Setup&)>& after) {
  SetupRuns runs;
  std::vector<double> total, generate, train, steps;
  for (int i = 0; i < repeats; ++i) {
    Setup setup = run_setup(spec);
    const double extra = after ? after(setup) : 0.0;
    total.push_back(setup.generate_s + setup.train_s + extra);
    generate.push_back(setup.generate_s);
    train.push_back(setup.train_s);
    steps.push_back(setup.env_steps_per_s);
    if (i > 0 && setup.digest != runs.last.digest) {
      runs.deterministic = false;
    }
    runs.last = std::move(setup);
  }
  runs.setup_s = median(total);
  runs.generate_s = median(generate);
  runs.train_s = median(train);
  runs.env_steps_per_s = median(steps);
  return runs;
}

std::string model_note(const SetupRuns& runs) {
  return "model digest " + runs.last.digest +
         (runs.deterministic ? "" : " (NOT repeatable)");
}

void set_setup_layers(Report& report, const SetupRuns& runs) {
  report.set("bench_suite.generate_s", runs.generate_s);
  report.set("rl.train_s", runs.train_s);
  report.set("rl.train.env_steps_per_s", runs.env_steps_per_s);
}

// ------------------------------------------------------- output check ---

Checked check_output(const ir::Circuit& input,
                     const core::CompilationResult& result,
                     const verify::VerifyOptions& options) {
  Checked out;
  if (result.device == nullptr) {
    out.failure = "no device chosen";
    return out;
  }
  const device::Device& dev = *result.device;
  const bool native = dev.circuit_is_native(result.circuit);
  const bool mapped = dev.circuit_respects_topology(result.circuit);
  const auto t0 = Clock::now();
  out.verdict = core::verify_compilation(input, result, options);
  out.verify_ms = ms_between(t0, Clock::now());
  out.decided = out.verdict.verdict != verify::Verdict::kUnknown;
  const bool refuted = out.verdict.verdict == verify::Verdict::kNotEquivalent;
  out.ok = native && mapped && !refuted;
  if (!native) {
    out.failure = "not native on " + dev.name();
  } else if (!mapped) {
    out.failure = "violates the topology of " + dev.name();
  } else if (refuted) {
    out.failure = "not equivalent: " + out.verdict.detail;
  }

  const auto fidelity = [&](const ir::Circuit& c) {
    return reward::compute_reward(reward::RewardKind::kFidelity, c, dev);
  };
  out.fidelity = fidelity(result.circuit);
  const double qiskit =
      fidelity(baselines::compile_qiskit_o3_like(input, dev).circuit);
  const double tket =
      fidelity(baselines::compile_tket_o2_like(input, dev).circuit);
  out.beats_baselines = out.fidelity >= qiskit && out.fidelity >= tket;
  return out;
}

Quality summarize(const std::vector<Checked>& checks) {
  Quality q;
  if (checks.empty()) {
    return q;
  }
  double fidelity = 0.0;
  std::size_t beats = 0;
  std::size_t decided = 0;
  for (const Checked& c : checks) {
    fidelity += c.fidelity;
    beats += c.beats_baselines ? 1 : 0;
    decided += c.decided ? 1 : 0;
  }
  const auto n = static_cast<double>(checks.size());
  q.mean_fidelity = fidelity / n;
  q.beats_share = static_cast<double>(beats) / n;
  q.decided_share = static_cast<double>(decided) / n;
  return q;
}

void set_quality(Report& report, const Quality& quality) {
  report.set("mean_fidelity", quality.mean_fidelity);
  report.set("beats_baselines_share", quality.beats_share);
  report.set("decided_share", quality.decided_share);
}

void set_verify_layers(Report& report, const std::vector<Checked>& checks) {
  std::size_t unknown = 0;
  for (const auto method :
       {verify::Method::kCliffordTableau, verify::Method::kAlternatingMiter,
        verify::Method::kRandomStimuli}) {
    double ms = 0.0;
    double calls = 0.0;
    double qubits = 0.0;
    for (const Checked& c : checks) {
      if (c.verdict.method == method) {
        ms += c.verify_ms;
        calls += 1.0;
        qubits += c.verdict.checked_qubits;
      }
    }
    const std::string base =
        "verify." + std::string(verify::method_name(method));
    report.set(base + ".ms", ms);
    report.set(base + ".calls", calls);
    report.set(base + ".qubits_sum", qubits);
  }
  for (const Checked& c : checks) {
    unknown += c.decided ? 0 : 1;
  }
  report.set("verify.unknown_share",
             checks.empty() ? 0.0
                            : static_cast<double>(unknown) /
                                  static_cast<double>(checks.size()));
}

}  // namespace perfbench
