// compsyn benchmark: one workload, one seed, one run.
//
//   perfbench_main --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--start-ns <monotonic ns>] [--trace-out <file>]
//                  [--reference <file>]
//   perfbench_main --workload <name> --seed <n> --setup-only 1 --start-ns <ns>
//   perfbench_main --make-reference <file> --seeds a-b
//
// Builds the workload's inputs from the seed, repeats whole rounds of the
// workload's library calls until --seconds have passed, checks every output
// with the benchmark's own computations (checks.hpp) and prints one JSON
// object as the last line of stdout. --trace 0 prints every end-to-end
// metric (the same on every workload); --trace 1 records spans around every
// library call, turns on the program's own spans and counters, replays the
// core and atpg layers, and prints every per-layer metric. See README.md for
// the workloads.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "checks.hpp"
#include "core/comparison.hpp"
#include "core/comparison_unit.hpp"
#include "core/cones.hpp"
#include "core/resynth.hpp"
#include "delay/robust.hpp"
#include "exec/exec.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "sat/cec.hpp"
#include "util/rng.hpp"

using namespace compsyn;
using perfbench::fnv1a;
using perfbench::own_equivalence;
using perfbench::own_gate_count;
using perfbench::own_path_count;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// The benchmark's own tracer: spans around library calls, kept in memory and
// written at exit. Inert unless enabled.

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, std::string name) : t_(t) {
      if (!t_->enabled_) return;
      index_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back({std::move(name), now_ns(), 0,
                            t_->stack_.empty() ? -1 : t_->stack_.back()});
      t_->stack_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      t_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
      t_->stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  Scope scope(std::string name) { return Scope(this, std::move(name)); }
  std::size_t mark() const { return spans_.size(); }

  /// Summed duration (s) and count of spans named `name` since `from`.
  std::pair<double, std::uint64_t> total(const std::string& name, std::size_t from = 0) const {
    double s = 0;
    std::uint64_t n = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        s += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
        ++n;
      }
    }
    return {s, n};
  }
  /// Summed duration (s) of top-level spans since `from`.
  double top_level(std::size_t from) const {
    double s = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) continue;
      s += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
    return s;
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0;
  std::string unit;
  bool integer = false;
};

class Result {
 public:
  void metric(const std::string& name, double v, const std::string& unit) {
    metrics_.push_back({name, {v, unit, false}});
  }
  void count(const std::string& name, std::uint64_t v, const std::string& unit = "count") {
    metrics_.push_back({name, {static_cast<double>(v), unit, true}});
  }
  void fail_check(const std::string& what) {
    if (problems_.size() < 20) problems_.push_back(what);
    correct_ = false;
  }
  bool correct() const { return correct_; }
  /// Adds `name` with value 0 unless already reported: a layer a workload
  /// does not run reads as zero work there.
  void zero_unless_reported(const std::string& name, const std::string& unit) {
    for (const auto& m : metrics_) {
      if (m.first == name) return;
    }
    metrics_.push_back({name, {0.0, unit, unit != "s" && unit != "ratio"}});
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print() const {
    for (const auto& p : problems_) std::cerr << "check failed: " << p << "\n";
    std::ostringstream os;
    os << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, m] = metrics_[i];
      char buf[64];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      if (m.integer) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
      }
      os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << buf << ", \"unit\": \""
         << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  bool correct_ = true;
  std::vector<std::string> problems_;
  std::vector<std::pair<std::string, Metric>> metrics_;
};

/// Peak resident set of this process image (VmHWM). Not getrusage: on Linux
/// its ru_maxrss keeps the high-water mark of the forked launcher from
/// before exec, so it would read the launcher's size.
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return 0.0;
}

// Every per-layer metric of the traced run (README.md: which end-to-end
// metric each should move, on which workload), with its unit. A workload
// reports 0 for a layer it does not exercise.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"core.resynthesize.s", "s"},
    {"core.resynthesize.calls", "count"},
    {"core.resynth.passes", "count"},
    {"core.resynth.replacements", "count"},
    {"core.resynth.replacements.proc2", "count"},
    {"core.resynth.replacements.proc3", "count"},
    {"core.resynth.cones_considered", "count"},
    {"core.resynth.comparison_cones", "count"},
    {"core.resynth.cones_per_replacement", "ratio"},
    {"core.enumerate_cones.s", "s"},
    {"core.enumerate_cones.calls", "count"},
    {"core.cones.count", "count"},
    {"core.cone_function.s", "s"},
    {"core.identify_comparison.s", "s"},
    {"core.identify_comparison.calls", "count"},
    {"core.identify_comparison.comparison", "count"},
    {"core.identify.hit_ratio", "ratio"},
    {"core.build_comparison_unit.s", "s"},
    {"core.build_comparison_unit.calls", "count"},
    {"identify.exact.attempts", "count"},
    {"identify.exact.hits", "count"},
    {"identify.npn.canonicalizations", "count"},
    {"identify.npn.orbit_hits", "count"},
    {"identify.npn.negative_reuses", "count"},
    {"identify.npn.transform_reuses", "count"},
    {"identify.npn.positive_fallbacks", "count"},
    {"identify.npn.confirm_rejects", "count"},
    {"identify.npn.exact_searches", "count"},
    {"paths.count.s", "s"},
    {"paths.count.calls", "count"},
    {"atpg.remove_redundancies.s", "s"},
    {"atpg.rr.faults_checked", "count"},
    {"atpg.rr.aborted", "count"},
    {"atpg.rr.aborted_unresolved", "count"},
    {"atpg.rr.removed", "count"},
    {"atpg.rr.removed_per_check", "ratio"},
    {"atpg.rr.discarded_calls", "count"},
    {"atpg.calls", "count"},
    {"atpg.backtracks", "count"},
    {"atpg.run_podem_all.s", "s"},
    {"atpg.run_podem_all.faults", "count"},
    {"atpg.run_podem_all.aborted", "count"},
    {"atpg.run_podem_all.backtracks", "count"},
    {"sat.check_equivalent_sat.s", "s"},
    {"sat.check_equivalent_sat.calls", "count"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.cec.calls", "count"},
    {"sat.cec.proofs", "count"},
    {"faults.random_saf_experiment.s", "s"},
    {"faults.random_saf_experiment.patterns", "count"},
    {"faults.random_saf_experiment.remaining", "count"},
    {"fsim.events", "count"},
    {"delay.random_robust_pdf.s", "s"},
    {"delay.random_robust_pdf.pairs", "count"},
    {"delay.random_robust_pdf.detected", "count"},
    {"delay.random_robust_pdf.total_faults", "count"},
    {"bench_io.write_bench.s", "s"},
    {"bench_io.read_bench.s", "s"},
    {"bench_io.bytes", "bytes"},
    {"exec.regions", "count"},
    {"exec.chunks", "count"},
    {"trace.unattributed.s", "s"},
    {"trace.overhead", "ratio"},
    {"trace.rounds", "count"},
};

// ---------------------------------------------------------------------------
// Inputs

/// One circuit of a workload. A seeded input is scrambled by the run seed
/// (checks.hpp), and its experiments draw their patterns from the run seed;
/// a fixed input is the same in every run: unscrambled, or scrambled once by
/// `fixed_scramble` when nonzero.
struct InputSpec {
  std::string name;
  std::function<Netlist()> make;
  bool seeded = true;
  std::uint64_t fixed_scramble = 0;
};

Netlist suite(const std::string& name) { return make_benchmark(name); }

Netlist synthetic(const std::string& name, unsigned gates, unsigned inputs, unsigned outputs,
                  std::uint64_t gen_seed, double redundant_term_chance) {
  SyntheticOptions o;
  o.gates = gates;
  o.inputs = inputs;
  o.outputs = outputs;
  o.seed = gen_seed;
  o.redundant_term_chance = redundant_term_chance;
  Netlist nl = make_synthetic(o);
  nl.set_name(name);
  return nl;
}

/// The circuits of each workload (README.md lists them with their sizes).
std::vector<InputSpec> workload_inputs(const std::string& w) {
  if (w == "resynth" || w == "resynth_parallel") {
    return {
        {"alu4", [] { return suite("alu4"); }},
        {"mult6", [] { return suite("mult6"); }},
        {"syn150", [] { return suite("syn150"); }},
    };
  }
  if (w == "redundancy") {
    // Fixed inputs: the unresolved aborts counted as failures must repeat
    // exactly whatever the seed, and PODEM's verdicts depend on node order.
    return {
        {"rr120x14", [] { return synthetic("rr120x14", 120, 14, 6, 7301, 0.5); }, false},
        {"rr400a", [] { return synthetic("rr400a", 400, 49, 21, 7302, 0.15); }, false},
        {"rr400b", [] { return synthetic("rr400b", 400, 49, 21, 7305, 0.15); }, false},
        {"rr700", [] { return synthetic("rr700", 700, 64, 31, 7305, 0.15); }, false},
        {"rr1000", [] { return synthetic("rr1000", 1000, 64, 40, 7305, 0.15); }, false},
    };
  }
  if (w == "testability") {
    // The inputs small enough for the exhaustive checks are fixed; see the
    // FOUND note on the fault simulator in README.md.
    return {
        {"alu4", [] { return suite("alu4"); }, false},
        {"tb120x12", [] { return synthetic("tb120x12", 120, 12, 6, 7401, 0.3); }, false, 1000004},
        {"tb300", [] { return synthetic("tb300", 300, 32, 16, 7402, 0.15); }},
        {"syn600", [] { return suite("syn600"); }},
    };
  }
  return {};
}

struct Input {
  std::string name;
  bool seeded = true;
  Netlist generated;  // as generated (and scrambled)
  Netlist nl;         // read back from its .bench text: what the calls get
};

struct SetupStats {
  double write_s = 0, read_s = 0;
  std::uint64_t bytes = 0;
};

std::vector<Input> make_inputs(const std::string& w, std::uint64_t seed, SetupStats& st) {
  std::vector<Input> out;
  std::uint64_t k = 0;
  for (const auto& spec : workload_inputs(w)) {
    Netlist g = spec.make();
    if (spec.seeded) g = perfbench::scramble(g, seed * 1000003ull + k);
    else if (spec.fixed_scramble) g = perfbench::scramble(g, spec.fixed_scramble);
    std::string text;
    {
      const auto t0 = now_ns();
      auto sc = g_tracer.scope("bench_io.write_bench");
      text = write_bench_string(g);
      st.write_s += seconds_since(t0);
    }
    st.bytes += text.size();
    const auto t0 = now_ns();
    auto sc = g_tracer.scope("bench_io.read_bench");
    Netlist nl = read_bench_string(text, spec.name);
    st.read_s += seconds_since(t0);
    out.push_back({spec.name, spec.seeded, std::move(g), std::move(nl)});
    ++k;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Program counters and spans (read only in the traced run)

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> m;
  for (const auto& c : Counters::counters()) m[c.name] = c.value;
  return m;
}

std::map<std::string, std::pair<double, std::uint64_t>> span_snapshot() {
  std::map<std::string, std::pair<double, std::uint64_t>> m;
  for (const auto& s : Trace::snapshot()) {
    m[s.label] = {static_cast<double>(s.total_ns) * 1e-9, s.count};
  }
  return m;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& a,
                    const std::map<std::string, std::uint64_t>& b, const std::string& k) {
  const auto ia = a.find(k);
  const auto ib = b.find(k);
  return (ib == b.end() ? 0 : ib->second) - (ia == a.end() ? 0 : ia->second);
}

// ---------------------------------------------------------------------------
// Flows: resynthesize -> remove_redundancies -> check_equivalent_sat

struct FlowOutcome {
  double rs_s = 0, rr_s = 0, sat_s = 0;
  ResynthStats rs;
  RedundancyRemovalStats rr;
  EquivalenceResult eq;
  Netlist after_resynth;
  Netlist out;
  std::uint64_t hash = 0;
  double total() const { return rs_s + rr_s + sat_s; }
};

FlowOutcome run_flow(const Netlist& input, ResynthObjective obj, unsigned jobs) {
  FlowOutcome f;
  f.out = input;
  // Cold identification memos: the calling thread's is cleared, and at more
  // than one worker a fresh pool brings fresh worker threads (and memos).
  clear_exact_identification_memo();
  std::optional<ExecPool> pool;
  std::optional<ExecPoolBind> bind;
  if (jobs > 1) {
    pool.emplace(jobs);
    bind.emplace(*pool);
  }
  // Procedure 3 may trade gates for paths (procedure3() in core/resynth.cpp).
  ResynthOptions ro;
  ro.objective = obj;
  ro.allow_gate_increase = obj != ResynthObjective::Gates;
  auto flow = g_tracer.scope(obj == ResynthObjective::Gates ? "flow.proc2" : "flow.proc3");
  {
    auto sc = g_tracer.scope("core.resynthesize");
    const auto t0 = now_ns();
    f.rs = resynthesize(f.out, ro);
    f.rs_s = seconds_since(t0);
  }
  f.after_resynth = f.out;
  {
    auto sc = g_tracer.scope("atpg.remove_redundancies");
    const auto t0 = now_ns();
    f.rr = remove_redundancies(f.out);
    f.rr_s = seconds_since(t0);
  }
  {
    auto sc = g_tracer.scope("sat.check_equivalent_sat");
    const auto t0 = now_ns();
    f.eq = check_equivalent_sat(input, f.out);
    f.sat_s = seconds_since(t0);
  }
  return f;
}

void report(Result& r, const std::string& tag, const std::vector<std::string>& problems) {
  for (const auto& p : problems) r.fail_check(tag + ": " + p);
}

void check_flow(const Input& in, const FlowOutcome& f, ResynthObjective obj, Result& r) {
  perfbench::FlowReport rep;
  rep.procedure2 = obj == ResynthObjective::Gates;
  rep.input = &in.nl;
  rep.after_resynth = &f.after_resynth;
  rep.out = &f.out;
  rep.gates_after = f.rs.gates_after;
  rep.paths_after = f.rs.paths_after;
  rep.out_paths = count_paths_clamped(f.out).total;
  rep.sat_proven = f.eq.proven;
  rep.sat_equivalent = f.eq.equivalent;
  report(r, in.name + (rep.procedure2 ? "/proc2" : "/proc3"), perfbench::check_flow(rep));
}

// ---------------------------------------------------------------------------
// Reference file for resynth_parallel: "<seed> <input> <proc> <fnv1a hex>"
// lines of the one-worker flow outputs.

using RefKey = std::tuple<std::uint64_t, std::string, int>;

std::map<RefKey, std::uint64_t> read_reference(const std::string& path) {
  std::map<RefKey, std::uint64_t> m;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t seed = 0;
    std::string name, hex;
    int proc = 0;
    if (ls >> seed >> name >> proc >> hex) m[{seed, name, proc}] = std::stoull(hex, nullptr, 16);
  }
  return m;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t start_ns = 0;
  bool setup_only = false;
  std::string trace_out;
  std::string reference;
};

/// resynth_parallel's worker count. Two, not nproc: on a shared 4-vCPU host
/// a slowed vCPU stalls every flow at four workers, which spread the flow
/// times from run to run by up to 31% (README.md, "Workloads").
constexpr unsigned kParallelJobs = 2;

// ---------------------------------------------------------------------------
// Per-layer replays (traced run only, outside every end-to-end timing)

void replay_core(const std::vector<Input>& inputs, Result& r) {
  ResynthOptions defaults;
  ConeOptions co;
  co.max_leaves = defaults.k;
  co.max_cones = defaults.max_cones;
  co.expand_slack = defaults.cone_slack;
  clear_exact_identification_memo();
  double enum_s = 0, fn_s = 0, id_s = 0, unit_s = 0;
  std::uint64_t roots = 0, cones = 0, id_calls = 0, comparison = 0, units = 0;
  for (const auto& in : inputs) {
    Netlist scratch = in.nl;
    for (NodeId g : in.nl.topo_order()) {
      const GateType t = in.nl.node(g).type;
      if (t == GateType::Input || t == GateType::Const0 || t == GateType::Const1) continue;
      std::vector<Cone> cs;
      {
        auto sc = g_tracer.scope("replay.core.enumerate_cones");
        const auto t0 = now_ns();
        cs = enumerate_cones(in.nl, g, co);
        enum_s += seconds_since(t0);
      }
      ++roots;
      cones += cs.size();
      std::vector<TruthTable> fns;
      fns.reserve(cs.size());
      {
        auto sc = g_tracer.scope("replay.core.cone_function");
        const auto t0 = now_ns();
        for (const auto& c : cs) fns.push_back(cone_function(in.nl, c));
        fn_s += seconds_since(t0);
      }
      std::vector<std::vector<ComparisonSpec>> specs(fns.size());
      {
        auto sc = g_tracer.scope("replay.core.identify_comparison");
        const auto t0 = now_ns();
        for (std::size_t i = 0; i < fns.size(); ++i) specs[i] = identify_comparison(fns[i]);
        id_s += seconds_since(t0);
      }
      id_calls += fns.size();
      auto sc = g_tracer.scope("replay.core.build_comparison_unit");
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].empty()) continue;
        ++comparison;
        const auto t0 = now_ns();
        build_comparison_unit(scratch, specs[i].front(), cs[i].leaves);
        unit_s += seconds_since(t0);
        ++units;
      }
    }
  }
  r.metric("core.enumerate_cones.s", enum_s, "s");
  r.count("core.enumerate_cones.calls", roots);
  r.count("core.cones.count", cones);
  r.metric("core.cone_function.s", fn_s, "s");
  r.metric("core.identify_comparison.s", id_s, "s");
  r.count("core.identify_comparison.calls", id_calls);
  r.count("core.identify_comparison.comparison", comparison);
  r.metric("core.identify.hit_ratio", id_calls ? double(comparison) / double(id_calls) : 0.0,
           "ratio");
  r.metric("core.build_comparison_unit.s", unit_s, "s");
  r.count("core.build_comparison_unit.calls", units);
}

void replay_atpg(const std::vector<Input>& inputs, Result& r) {
  const auto c0 = counter_snapshot();
  double s = 0;
  std::uint64_t aborted = 0, faults = 0;
  for (const auto& in : inputs) {
    const auto fl = enumerate_faults(in.nl, true);
    auto sc = g_tracer.scope("replay.atpg.run_podem_all");
    const auto t0 = now_ns();
    const AtpgSummary sum = run_podem_all(in.nl, fl);
    s += seconds_since(t0);
    aborted += sum.aborted;
    faults += sum.total;
  }
  const auto c1 = counter_snapshot();
  r.metric("atpg.run_podem_all.s", s, "s");
  r.count("atpg.run_podem_all.faults", faults);
  r.count("atpg.run_podem_all.aborted", aborted);
  r.count("atpg.run_podem_all.backtracks", delta(c0, c1, "atpg.backtracks"));
}

// ---------------------------------------------------------------------------
// Workloads. Each runs whole rounds of identical calls within `seconds`;
// round 1's outputs are checked, later rounds must reproduce them.

struct RunCtx {
  Options opt;
  std::vector<Input> inputs;
  Result result;
  std::size_t traced_from = 0;
  std::uint64_t traced_rounds = 0;
  double untraced_wall = 0;
  std::vector<double> walls;  // wall time of every round
  std::map<std::string, std::uint64_t> c0;  // program counters before the traced rounds
  std::map<std::string, std::pair<double, std::uint64_t>> s0;
  NpnIdentifyStats npn0;  // process-wide NPN memo tallies before them
};

/// Runs round(i) for i = 0, 1, ... while another round, judged by the last
/// one, still ends within `seconds`; always at least once. `reserve_rounds`
/// keeps that many more rounds' time free for work after the timed rounds.
/// Runs therefore end on time whatever the host's speed, which keeps the
/// whole benchmark within its time limit. In the traced run, round 0 runs
/// untraced (for the overhead ratio) and the later ones traced, so at least
/// two rounds run then.
template <typename Fn>
void run_rounds(RunCtx& ctx, Fn&& round, double reserve_rounds = 0) {
  const bool trace = ctx.opt.trace;
  const auto start = now_ns();
  for (std::size_t i = 0;
       i == 0 || (trace && i < 2) ||
       seconds_since(start) + ctx.walls.back() * (1 + reserve_rounds) <= ctx.opt.seconds;
       ++i) {
    const bool traced = trace && i > 0;
    if (traced && ctx.traced_rounds == 0) {
      ctx.traced_from = g_tracer.mark();
      g_tracer.set_enabled(true);
      obs_set_enabled(true);
    }
    const auto t0 = now_ns();
    round(i);
    ctx.walls.push_back(seconds_since(t0));
    if (trace && i == 0) ctx.untraced_wall = ctx.walls.back();
    if (traced) ++ctx.traced_rounds;
  }
}

void report_trace_common(RunCtx& ctx) {
  Result& r = ctx.result;
  const double n = ctx.traced_rounds ? double(ctx.traced_rounds) : 1.0;
  std::vector<double> traced(ctx.walls.begin() + 1, ctx.walls.end());
  const double traced_wall = median(traced);
  double top = g_tracer.top_level(ctx.traced_from);
  double sum_walls = 0;
  for (double w : traced) sum_walls += w;
  r.metric("trace.unattributed.s", std::max(0.0, (sum_walls - top) / n), "s");
  r.metric("trace.overhead", ctx.untraced_wall > 0 ? traced_wall / ctx.untraced_wall : 0.0,
           "ratio");
  r.count("trace.rounds", ctx.traced_rounds);
}

/// Byte identity of the multi-worker flow outputs with one-worker outputs.
/// When the reference file holds this seed and every output matches it, the
/// recorded one-worker outputs stand in; otherwise the one-worker flows run
/// here (outside every timing) and decide, and a reference that disagrees
/// with them is reported stale on stderr.
void check_against_one_worker(RunCtx& ctx, const std::vector<FlowOutcome>& first2,
                              const std::vector<FlowOutcome>& first3, unsigned jobs) {
  Result& r = ctx.result;
  const auto& inputs = ctx.inputs;
  const auto ref = read_reference(ctx.opt.reference);
  bool all_match = true;
  for (std::size_t i = 0; i < inputs.size() && all_match; ++i) {
    for (int proc = 2; proc <= 3; ++proc) {
      const auto it = ref.find({ctx.opt.seed, inputs[i].name, proc});
      const FlowOutcome& par = proc == 2 ? first2[i] : first3[i];
      if (it == ref.end() || it->second != par.hash) all_match = false;
    }
  }
  if (all_match) return;
  std::uint64_t stale = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (int proc = 2; proc <= 3; ++proc) {
      const auto obj = proc == 2 ? ResynthObjective::Gates : ResynthObjective::Paths;
      const std::string one = write_bench_string(run_flow(inputs[i].nl, obj, 1).out);
      const FlowOutcome& par = proc == 2 ? first2[i] : first3[i];
      report(r, inputs[i].name + "/proc" + std::to_string(proc) + " at " + std::to_string(jobs) +
                    " workers",
             perfbench::check_identical(write_bench_string(par.out), one));
      const auto it = ref.find({ctx.opt.seed, inputs[i].name, proc});
      if (it != ref.end() && it->second != fnv1a(one)) ++stale;
    }
  }
  if (stale) {
    std::cerr << "warning: " << stale << " one-worker flow output(s) differ from "
              << ctx.opt.reference
              << " (the program's results changed; regenerate it, see README.md)\n";
  }
}

void run_resynth(RunCtx& ctx, unsigned jobs) {
  Result& r = ctx.result;
  const auto& inputs = ctx.inputs;
  const std::size_t n = inputs.size();
  // Per input: flow times per round, round-1 outcomes, later-round hashes.
  std::vector<std::vector<double>> t2(n), t3(n);
  std::vector<FlowOutcome> first2(n), first3(n);
  bool stable = true;
  // At more than one worker the identity check runs the one-worker flows
  // after the timed rounds unless the reference file holds this seed; about
  // one round's time is kept free for them.
  double reserve = 0;
  if (jobs > 1 && !read_reference(ctx.opt.reference).count({ctx.opt.seed, inputs[0].name, 2})) {
    reserve = 1;
  }
  run_rounds(ctx, [&](std::size_t round) {
    if (ctx.opt.trace && round == 1) {
      ctx.c0 = counter_snapshot();
      ctx.s0 = span_snapshot();
      ctx.npn0 = npn_identify_stats();
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (int proc = 2; proc <= 3; ++proc) {
        const auto obj = proc == 2 ? ResynthObjective::Gates : ResynthObjective::Paths;
        FlowOutcome f = run_flow(inputs[i].nl, obj, jobs);
        std::fprintf(stderr, "round %zu %s proc%d: resynth %.3f rr %.3f sat %.3f\n", round,
                     inputs[i].name.c_str(), proc, f.rs_s, f.rr_s, f.sat_s);
        (proc == 2 ? t2 : t3)[i].push_back(f.total());
        ++r.attempted;
        if (!(f.eq.proven && f.eq.equivalent)) ++r.failed;
        f.hash = fnv1a(write_bench_string(f.out));
        auto& first = proc == 2 ? first2[i] : first3[i];
        if (round == 0) {
          first = std::move(f);
        } else if (f.hash != first.hash) {
          stable = false;
        }
      }
    }
  }, reserve);
  const double rss = peak_rss_mb();
  const auto c1 = counter_snapshot();
  const auto s1 = span_snapshot();
  const NpnIdentifyStats npn1 = npn_identify_stats();

  if (!stable) r.fail_check("a later round's flow output differs from round 1");
  std::uint64_t gates_out = 0, paths_out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    check_flow(inputs[i], first2[i], ResynthObjective::Gates, r);
    check_flow(inputs[i], first3[i], ResynthObjective::Paths, r);
    gates_out += own_gate_count(first2[i].out);
    paths_out += own_path_count(first3[i].out);
  }

  if (jobs > 1) check_against_one_worker(ctx, first2, first3, jobs);

  if (!ctx.opt.trace) {
    double p2 = 0, p3 = 0;
    for (std::size_t i = 0; i < n; ++i) {
      p2 += median(t2[i]);
      p3 += median(t3[i]);
    }
    r.metric("step1_s", p2, "s");
    r.metric("step2_s", p3, "s");
    r.count("gates_out", gates_out, "gates");
    r.count("paths_out", paths_out, "paths");
    r.metric("peak_rss_mb", rss, "MB");
    return;
  }

  const double rounds = double(ctx.traced_rounds);
  const auto per_round = [&](const std::string& name) {
    return g_tracer.total(name, ctx.traced_from);
  };
  auto [rs_s, rs_n] = per_round("core.resynthesize");
  auto [rr_s, rr_n] = per_round("atpg.remove_redundancies");
  auto [sat_s, sat_n] = per_round("sat.check_equivalent_sat");
  r.metric("core.resynthesize.s", rs_s / rounds, "s");
  r.count("core.resynthesize.calls", rs_n / ctx.traced_rounds);
  ResynthStats tot;
  RedundancyRemovalStats rrt;
  for (std::size_t i = 0; i < n; ++i) {
    for (const FlowOutcome* f : {&first2[i], &first3[i]}) {
      tot.passes += f->rs.passes;
      tot.replacements += f->rs.replacements;
      tot.cones_considered += f->rs.cones_considered;
      tot.comparison_cones += f->rs.comparison_cones;
      rrt.faults_checked += f->rr.faults_checked;
      rrt.aborted += f->rr.aborted;
      rrt.aborted_unresolved += f->rr.aborted_unresolved;
      rrt.removed += f->rr.removed;
    }
  }
  r.count("core.resynth.passes", tot.passes);
  r.count("core.resynth.replacements", tot.replacements);
  std::uint64_t rep2 = 0, rep3 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rep2 += first2[i].rs.replacements;
    rep3 += first3[i].rs.replacements;
  }
  r.count("core.resynth.replacements.proc2", rep2);
  r.count("core.resynth.replacements.proc3", rep3);
  r.count("core.resynth.cones_considered", tot.cones_considered);
  r.count("core.resynth.comparison_cones", tot.comparison_cones);
  r.metric("core.resynth.cones_per_replacement",
           tot.replacements ? double(tot.cones_considered) / double(tot.replacements) : 0.0,
           "ratio");
  r.metric("atpg.remove_redundancies.s", rr_s / rounds, "s");
  r.count("atpg.rr.faults_checked", rrt.faults_checked);
  r.count("atpg.rr.aborted", rrt.aborted);
  r.count("atpg.rr.aborted_unresolved", rrt.aborted_unresolved);
  r.count("atpg.rr.removed", rrt.removed);
  r.metric("atpg.rr.removed_per_check",
           rrt.faults_checked ? double(rrt.removed) / double(rrt.faults_checked) : 0.0, "ratio");
  r.metric("sat.check_equivalent_sat.s", sat_s / rounds, "s");
  r.count("sat.check_equivalent_sat.calls", sat_n / ctx.traced_rounds);
  const auto ps = [&](const std::string& k) {
    const auto a = ctx.s0.count(k) ? ctx.s0.at(k) : std::pair<double, std::uint64_t>{0, 0};
    const auto b = s1.count(k) ? s1.at(k) : std::pair<double, std::uint64_t>{0, 0};
    return std::pair<double, std::uint64_t>{b.first - a.first, b.second - a.second};
  };
  r.metric("paths.count.s", ps("paths.count").first / rounds, "s");
  r.count("paths.count.calls", ps("paths.count").second / ctx.traced_rounds);
  for (const char* k :
       {"identify.exact.attempts", "identify.exact.hits", "atpg.calls", "atpg.backtracks",
        "sat.solves", "sat.conflicts", "sat.cec.calls", "sat.cec.proofs", "exec.regions",
        "exec.chunks"}) {
    r.count(k, delta(ctx.c0, c1, k) / ctx.traced_rounds);
  }
  // The identify.npn.* program counters are not tallied inside exec regions,
  // where all of resynthesis runs; the process-wide snapshot is complete.
  const auto npn = [&](std::uint64_t NpnIdentifyStats::*f) {
    return (npn1.*f - ctx.npn0.*f) / ctx.traced_rounds;
  };
  r.count("identify.npn.canonicalizations", npn(&NpnIdentifyStats::canonicalizations));
  r.count("identify.npn.orbit_hits", npn(&NpnIdentifyStats::orbit_hits));
  r.count("identify.npn.negative_reuses", npn(&NpnIdentifyStats::negative_reuses));
  r.count("identify.npn.transform_reuses", npn(&NpnIdentifyStats::transform_reuses));
  r.count("identify.npn.positive_fallbacks", npn(&NpnIdentifyStats::positive_fallbacks));
  r.count("identify.npn.confirm_rejects", npn(&NpnIdentifyStats::confirm_rejects));
  r.count("identify.npn.exact_searches", npn(&NpnIdentifyStats::exact_searches));
  report_trace_common(ctx);
  replay_core(inputs, r);
}

/// The removal outputs proven equivalent by SAT, timed as the redundancy
/// workload's second step: inputs of at most this many nodes (rr120x14,
/// rr400a, rr400b; about 0.6 s a round). The proofs on rr700 and rr1000
/// take 2-2.5 s each and would leave too few rounds in a run.
constexpr std::size_t kMaxSatProofNodes = 600;

void run_redundancy(RunCtx& ctx) {
  Result& r = ctx.result;
  const auto& inputs = ctx.inputs;
  const std::size_t n = inputs.size();
  std::vector<std::vector<double>> times(n), sat_times(n);
  std::vector<Netlist> first_out(n);
  std::vector<RedundancyRemovalStats> first_stats(n);
  std::vector<std::uint64_t> first_hash(n);
  bool stable = true;
  run_rounds(ctx, [&](std::size_t round) {
    if (ctx.opt.trace && round == 1) ctx.c0 = counter_snapshot();
    for (std::size_t i = 0; i < n; ++i) {
      Netlist nl = inputs[i].nl;
      RedundancyRemovalStats st;
      {
        auto sc = g_tracer.scope("atpg.remove_redundancies");
        const auto t0 = now_ns();
        st = remove_redundancies(nl);
        times[i].push_back(seconds_since(t0));
      }
      double sat_t = 0;
      if (inputs[i].nl.size() <= kMaxSatProofNodes) {
        EquivalenceResult eq;
        {
          auto sc = g_tracer.scope("sat.check_equivalent_sat");
          const auto t0 = now_ns();
          eq = check_equivalent_sat(inputs[i].nl, nl);
          sat_t = seconds_since(t0);
        }
        sat_times[i].push_back(sat_t);
        if (!(eq.proven && eq.equivalent)) {
          r.fail_check(inputs[i].name + ": SAT did not prove the removal output equivalent");
        }
      }
      std::fprintf(stderr, "round %zu %s: rr %.3f checked %llu unresolved %llu sat %.3f\n",
                   round, inputs[i].name.c_str(), times[i].back(),
                   static_cast<unsigned long long>(st.faults_checked),
                   static_cast<unsigned long long>(st.aborted_unresolved), sat_t);
      r.attempted += st.faults_checked;
      r.failed += st.aborted_unresolved;
      const std::uint64_t h = fnv1a(write_bench_string(nl));
      if (round == 0) {
        first_out[i] = std::move(nl);
        first_stats[i] = st;
        first_hash[i] = h;
      } else if (h != first_hash[i]) {
        stable = false;
      }
    }
  });
  const double rss = peak_rss_mb();
  const auto c1 = counter_snapshot();

  if (!stable) r.fail_check("a later round's removal output differs from round 1");
  std::uint64_t gates_out = 0, paths_out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    perfbench::RemovalReport rep;
    rep.input = &inputs[i].nl;
    rep.out = &first_out[i];
    rep.aborted_unresolved = first_stats[i].aborted_unresolved;
    if (first_out[i].inputs().size() <= perfbench::kMaxExhaustiveFaultInputs) {
      rep.out_faults = enumerate_faults(first_out[i], true);
    }
    report(r, inputs[i].name, perfbench::check_removal(rep));
    gates_out += own_gate_count(first_out[i]);
    paths_out += own_path_count(first_out[i]);
  }

  if (!ctx.opt.trace) {
    double rr_s = 0, sat_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rr_s += median(times[i]);
      if (!sat_times[i].empty()) sat_s += median(sat_times[i]);
    }
    r.metric("step1_s", rr_s, "s");
    r.metric("step2_s", sat_s, "s");
    r.count("gates_out", gates_out, "gates");
    r.count("paths_out", paths_out, "paths");
    r.metric("peak_rss_mb", rss, "MB");
    return;
  }
  RedundancyRemovalStats t;
  for (const auto& st : first_stats) {
    t.faults_checked += st.faults_checked;
    t.aborted += st.aborted;
    t.aborted_unresolved += st.aborted_unresolved;
    t.removed += st.removed;
  }
  const double rounds = double(ctx.traced_rounds);
  r.metric("atpg.remove_redundancies.s",
           g_tracer.total("atpg.remove_redundancies", ctx.traced_from).first / rounds, "s");
  r.count("atpg.rr.faults_checked", t.faults_checked);
  r.count("atpg.rr.aborted", t.aborted);
  r.count("atpg.rr.aborted_unresolved", t.aborted_unresolved);
  r.count("atpg.rr.removed", t.removed);
  r.metric("atpg.rr.removed_per_check",
           t.faults_checked ? double(t.removed) / double(t.faults_checked) : 0.0, "ratio");
  const std::uint64_t calls = delta(ctx.c0, c1, "atpg.calls") / ctx.traced_rounds;
  r.count("atpg.calls", calls);
  r.count("atpg.backtracks", delta(ctx.c0, c1, "atpg.backtracks") / ctx.traced_rounds);
  r.count("atpg.rr.discarded_calls", calls > t.faults_checked ? calls - t.faults_checked : 0);
  r.count("fsim.events", delta(ctx.c0, c1, "fsim.events") / ctx.traced_rounds);
  const auto [sat_s, sat_n] = g_tracer.total("sat.check_equivalent_sat", ctx.traced_from);
  r.metric("sat.check_equivalent_sat.s", sat_s / rounds, "s");
  r.count("sat.check_equivalent_sat.calls", sat_n / ctx.traced_rounds);
  for (const char* k : {"sat.solves", "sat.conflicts", "sat.cec.calls", "sat.cec.proofs"}) {
    r.count(k, delta(ctx.c0, c1, k) / ctx.traced_rounds);
  }
  report_trace_common(ctx);
  replay_atpg(inputs, r);
}

// count_robustly_testable is exhaustive over vector pairs (4^inputs per path
// without a single-input-change test): 0.06 s on alu4 (10 inputs), more than
// 100 s on tb120x12 (12 inputs). The check runs where it stays cheap.
constexpr std::size_t kMaxPdfExhaustiveInputs = 10;

/// False stuck-at detections the fault simulator is known to make on a fixed
/// testability input (README.md, "Failed operations"). Any other excess, or
/// a larger one, makes the run incorrect.
std::uint64_t known_saf_excess(const std::string& input) {
  return input == "tb120x12" ? 3 : 0;
}

void run_testability(RunCtx& ctx) {
  Result& r = ctx.result;
  const auto& inputs = ctx.inputs;
  const std::size_t n = inputs.size();
  // Fixed work per input: patterns and pairs never depend on coverage (the
  // PDF stop window equals the pair count).
  const std::uint64_t kPatterns = 1ull << 22;
  const std::uint64_t kPairs = 50000;
  std::vector<std::vector<double>> saf_times(n), pdf_times(n);
  std::vector<SafExperimentResult> first_saf(n);
  std::vector<PdfExperimentResult> first_pdf(n);
  bool stable = true;
  double saf_s_total = 0, pdf_s_total = 0;
  run_rounds(ctx, [&](std::size_t round) {
    if (ctx.opt.trace && round == 1) ctx.c0 = counter_snapshot();
    double saf_s = 0, pdf_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t pattern_seed = inputs[i].seeded ? ctx.opt.seed : 0;
      Rng rng(pattern_seed * 7919ull + i);
      double saf_t = 0, pdf_t = 0;
      SafExperimentResult saf;
      {
        auto sc = g_tracer.scope("faults.random_saf_experiment");
        const auto t0 = now_ns();
        saf = random_saf_experiment(inputs[i].nl, rng, kPatterns);
        saf_t = seconds_since(t0);
        saf_s += saf_t;
      }
      Rng rng2(pattern_seed * 104729ull + i);
      PdfExperimentResult pdf;
      {
        auto sc = g_tracer.scope("delay.random_robust_pdf");
        const auto t0 = now_ns();
        pdf = random_robust_pdf(inputs[i].nl, rng2, kPairs, kPairs);
        pdf_t = seconds_since(t0);
        pdf_s += pdf_t;
      }
      std::fprintf(stderr, "round %zu %s: saf %.3f remaining %zu pdf %.3f detected %llu\n",
                   round, inputs[i].name.c_str(), saf_t, saf.remaining, pdf_t,
                   static_cast<unsigned long long>(pdf.detected));
      r.attempted += 2;
      saf_times[i].push_back(saf_t);
      pdf_times[i].push_back(pdf_t);
      if (round == 0) {
        first_saf[i] = saf;
        first_pdf[i] = pdf;
      } else if (saf.remaining != first_saf[i].remaining ||
                 saf.patterns_applied != first_saf[i].patterns_applied ||
                 pdf.detected != first_pdf[i].detected ||
                 pdf.pairs_applied != first_pdf[i].pairs_applied) {
        stable = false;
      }
    }
    if (round > 0 || !ctx.opt.trace) {
      saf_s_total += saf_s;
      pdf_s_total += pdf_s;
    }
  });
  const double rss = peak_rss_mb();
  const auto c1 = counter_snapshot();

  if (!stable) r.fail_check("a later round's experiment result differs from round 1");
  std::uint64_t patterns = 0, remaining = 0, pairs = 0, detected = 0, total_pdf = 0;
  std::uint64_t gates = 0, paths = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Netlist& nl = inputs[i].nl;
    const std::string& tag = inputs[i].name;
    const auto& saf = first_saf[i];
    const auto& pdf = first_pdf[i];
    patterns += saf.patterns_applied;
    remaining += saf.remaining;
    pairs += pdf.pairs_applied;
    detected += pdf.detected;
    total_pdf += pdf.total_faults;
    gates += own_gate_count(nl);
    paths += own_path_count(nl);
    perfbench::SafReport sr;
    sr.nl = &nl;
    sr.max_patterns = kPatterns;
    sr.patterns_applied = saf.patterns_applied;
    sr.total_faults = saf.total_faults;
    sr.remaining = saf.remaining;
    if (nl.inputs().size() <= perfbench::kMaxExhaustiveFaultInputs) {
      sr.faults = enumerate_faults(nl, true);
    }
    sr.known_excess = known_saf_excess(tag);
    report(r, tag + "/saf", perfbench::check_saf(sr));
    const std::uint64_t excess = perfbench::saf_excess_detections(sr);
    if (excess > 0 && excess <= sr.known_excess) {
      // The fault simulator's known false detections (README.md, "Failed
      // operations"): the experiment counts as failed in every round.
      std::cerr << tag << ": stuck-at experiment reports " << excess
                << " more detected faults than are detectable\n";
      r.failed += ctx.walls.size();
    }
    perfbench::PdfReport pr;
    pr.nl = &nl;
    pr.max_pairs = kPairs;
    pr.pairs_applied = pdf.pairs_applied;
    pr.total_faults = pdf.total_faults;
    pr.detected = pdf.detected;
    if (nl.inputs().size() <= kMaxPdfExhaustiveInputs) {
      pr.robustly_testable = count_robustly_testable(nl).testable;
      pr.has_robustly_testable = true;
    }
    report(r, tag + "/pdf", perfbench::check_pdf(pr));
  }

  if (!ctx.opt.trace) {
    double saf_s = 0, pdf_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      saf_s += median(saf_times[i]);
      pdf_s += median(pdf_times[i]);
    }
    // The experiments leave the circuits as they are: gates_out and
    // paths_out are the sizes of the circuits tested.
    r.metric("step1_s", saf_s, "s");
    r.metric("step2_s", pdf_s, "s");
    r.count("gates_out", gates, "gates");
    r.count("paths_out", paths, "paths");
    r.metric("peak_rss_mb", rss, "MB");
    return;
  }
  const double rounds = double(ctx.traced_rounds);
  r.metric("faults.random_saf_experiment.s", saf_s_total / rounds, "s");
  r.count("faults.random_saf_experiment.patterns", patterns);
  r.count("faults.random_saf_experiment.remaining", remaining);
  r.count("fsim.events", delta(ctx.c0, c1, "fsim.events") / ctx.traced_rounds);
  r.metric("delay.random_robust_pdf.s", pdf_s_total / rounds, "s");
  r.count("delay.random_robust_pdf.pairs", pairs);
  r.count("delay.random_robust_pdf.detected", detected);
  r.count("delay.random_robust_pdf.total_faults", total_pdf);
  report_trace_common(ctx);
}

int make_reference(const std::string& path, std::uint64_t lo, std::uint64_t hi) {
  std::ofstream os(path);
  os << "# One-worker resynth flow outputs: seed input procedure fnv1a64(write_bench_string)\n"
        "# Regenerate: python3 perfbench/run.py --make-reference "
     << lo << "-" << hi << "\n";
  for (std::uint64_t seed = lo; seed <= hi; ++seed) {
    SetupStats st;
    const auto inputs = make_inputs("resynth_parallel", seed, st);
    for (const auto& in : inputs) {
      for (int proc = 2; proc <= 3; ++proc) {
        const auto obj = proc == 2 ? ResynthObjective::Gates : ResynthObjective::Paths;
        const FlowOutcome f = run_flow(in.nl, obj, 1);
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(fnv1a(write_bench_string(f.out))));
        os << seed << " " << in.name << " " << proc << " " << hex << "\n";
      }
    }
    std::cerr << "reference: seed " << seed << " done\n";
  }
  return os ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t main_ns = now_ns();
  Options opt;
  std::string make_ref;
  std::string ref_seeds = "1-10";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--start-ns") opt.start_ns = std::stoull(v);
    else if (k == "--setup-only") opt.setup_only = v == "1";
    else if (k == "--trace-out") opt.trace_out = v;
    else if (k == "--reference") opt.reference = v;
    else if (k == "--make-reference") make_ref = v;
    else if (k == "--seeds") ref_seeds = v;
    else {
      std::cerr << "unknown argument " << k << "\n";
      return 2;
    }
  }
  if (!make_ref.empty()) {
    const auto dash = ref_seeds.find('-');
    return make_reference(make_ref, std::stoull(ref_seeds.substr(0, dash)),
                          std::stoull(ref_seeds.substr(dash + 1)));
  }
  if (workload_inputs(opt.workload).empty()) {
    std::cerr << "unknown workload '" << opt.workload
              << "' (resynth, resynth_parallel, redundancy, testability)\n";
    return 2;
  }
  // Set-up is timed from the process's start when the launcher passes it.
  const std::uint64_t start = opt.start_ns && opt.start_ns <= main_ns ? opt.start_ns : main_ns;

  RunCtx ctx;
  ctx.opt = opt;
  g_tracer.set_enabled(opt.trace);
  SetupStats st;
  ctx.inputs = make_inputs(opt.workload, opt.seed, st);
  const double setup_s = seconds_since(start);
  g_tracer.set_enabled(false);
  if (opt.setup_only) {
    std::printf("%.9f\n", setup_s);
    return 0;
  }

  Result& r = ctx.result;
  for (const auto& in : ctx.inputs) {
    const std::string diff = own_equivalence(in.generated, in.nl, 0x5EEDull);
    if (!diff.empty()) r.fail_check(in.name + ": .bench round trip: " + diff);
  }
  // One cold set-up; the launcher reports the median of this one and others
  // timed in fresh processes around the run (README.md, "setup_s").
  if (!opt.trace) r.metric("setup_s", setup_s, "s");

  if (opt.workload == "resynth") run_resynth(ctx, 1);
  else if (opt.workload == "resynth_parallel") run_resynth(ctx, kParallelJobs);
  else if (opt.workload == "redundancy") run_redundancy(ctx);
  else run_testability(ctx);

  if (opt.trace) {
    r.metric("bench_io.write_bench.s", st.write_s, "s");
    r.metric("bench_io.read_bench.s", st.read_s, "s");
    r.count("bench_io.bytes", st.bytes, "bytes");
    for (const auto& [name, unit] : kPerLayer) r.zero_unless_reported(name, unit);
    if (!opt.trace_out.empty() && !g_tracer.write(opt.trace_out)) {
      std::cerr << "warning: could not write " << opt.trace_out << "\n";
    }
  }
  r.print();
  return r.correct() ? 0 : 1;
}
