// Self-test of the benchmark's output checks: every check passes on the
// program's real outputs and fails on a deliberately wrong one (a mutated
// netlist, a wrong gate or path total, a wrong detected count, a differing
// multi-worker output). Exits 0 when every case behaves, 1 otherwise.
//
//   perfbench_selftest      (run.py --selftest builds and runs it)
#include <iostream>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "checks.hpp"
#include "core/resynth.hpp"
#include "delay/robust.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "paths/paths.hpp"
#include "sat/cec.hpp"
#include "util/rng.hpp"

using namespace compsyn;
using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

void expect_pass(const std::vector<std::string>& problems, const std::string& what) {
  for (const auto& p : problems) std::cout << "     unexpected: " << p << "\n";
  expect(problems.empty(), what + " passes on the program's output");
}

void expect_caught(const std::vector<std::string>& problems, const std::string& what) {
  expect(!problems.empty(), what + " is reported incorrect");
}

/// The first live two-input-or-wider gate feeding an output cone, turned
/// into its dual (And <-> Or, Nand <-> Nor), so the function changes.
Netlist mutate_gate(const Netlist& nl) {
  Netlist m = nl;
  std::string err;
  for (NodeId v : own_topo_order(nl, &err)) {
    const Node& nd = nl.node(v);
    GateType t = nd.type;
    if (nd.fanins.size() < 2) continue;
    if (t == GateType::And) t = GateType::Or;
    else if (t == GateType::Or) t = GateType::And;
    else if (t == GateType::Nand) t = GateType::Nor;
    else if (t == GateType::Nor) t = GateType::Nand;
    else continue;
    m.redefine(v, t, nd.fanins);
    return m;
  }
  return m;
}

void flow_cases(const Netlist& input, bool procedure2) {
  const std::string name = input.name() + (procedure2 ? "/proc2" : "/proc3");
  Netlist nl = input;
  ResynthOptions ro;
  ro.objective = procedure2 ? ResynthObjective::Gates : ResynthObjective::Paths;
  ro.allow_gate_increase = !procedure2;
  const ResynthStats rs = resynthesize(nl, ro);
  const Netlist after = nl;
  remove_redundancies(nl);
  const EquivalenceResult eq = check_equivalent_sat(input, nl);

  FlowReport f;
  f.procedure2 = procedure2;
  f.input = &input;
  f.after_resynth = &after;
  f.out = &nl;
  f.gates_after = rs.gates_after;
  f.paths_after = rs.paths_after;
  f.out_paths = count_paths(nl).total;
  f.sat_proven = eq.proven;
  f.sat_equivalent = eq.equivalent;
  expect_pass(check_flow(f), name + " flow");

  const Netlist mutated = mutate_gate(nl);
  FlowReport m = f;
  m.out = &mutated;
  m.out_paths = count_paths(mutated).total;
  expect_caught(check_flow(m), name + " mutated output netlist");

  m = f;
  m.gates_after = f.gates_after + 1;
  expect_caught(check_flow(m), name + " wrong gates_after");
  m = f;
  m.paths_after = f.paths_after - 1;
  expect_caught(check_flow(m), name + " wrong paths_after");
  m = f;
  m.out_paths = f.out_paths + 7;
  expect_caught(check_flow(m), name + " wrong count_paths total");
  m = f;
  m.sat_equivalent = false;
  expect_caught(check_flow(m), name + " SAT refutation");

  // A result larger than the input breaks the procedure's guarantee.
  m = f;
  Netlist grown = input;
  // Duplicate an output's gate behind an And of the copy with itself: same
  // function, more gates and twice the paths through that output.
  for (NodeId po : input.outputs()) {
    const Node nd = grown.node(po);
    if (nd.fanins.size() < 2) continue;
    const NodeId copy = grown.add_gate(nd.type, nd.fanins);
    const NodeId both = grown.add_gate(GateType::And, {copy, copy});
    grown.redefine(po, GateType::Buf, {both});
    break;
  }
  m.out = &grown;
  m.out_paths = own_path_count(grown);
  expect_caught(check_flow(m), name + std::string(procedure2 ? " gate" : " path") +
                                   " increase over the input");
}

}  // namespace

int main() {
  // Flow checks on a structured and a synthetic circuit.
  flow_cases(make_benchmark("alu4"), true);
  flow_cases(make_benchmark("alu4"), false);
  SyntheticOptions so;
  so.gates = 80;
  so.inputs = 12;
  so.outputs = 6;
  so.seed = 99;
  so.redundant_term_chance = 0.5;
  Netlist syn = make_synthetic(so);
  syn.set_name("syn80");
  flow_cases(syn, true);

  // Own evaluator against the program's simulator-free paths.
  expect(own_equivalence(syn, scramble(syn, 3), 1).size() > 0,
         "scrambled input/output order is not positionally equivalent");
  expect(own_equivalence(syn, read_bench_string(write_bench_string(syn)), 1).empty(),
         ".bench round trip is equivalent");
  expect(own_gate_count(syn) == syn.equivalent_gate_count(), "own gate count equals the program's");
  expect(own_path_count(syn) == count_paths(syn).total, "own path count equals the program's");

  // Redundancy removal: too few unresolved faults for what is left.
  {
    Netlist out = syn;
    const RedundancyRemovalStats st = remove_redundancies(out);
    RemovalReport r;
    r.input = &syn;
    r.out = &out;
    r.aborted_unresolved = st.aborted_unresolved;
    r.out_faults = enumerate_faults(out, true);
    expect_pass(check_removal(r), "redundancy removal");
    RemovalReport m = r;
    m.out = &syn;  // the raw input still has its redundant faults
    m.out_faults = enumerate_faults(syn, true);
    expect_caught(check_removal(m), "redundant faults left with none unresolved");
    const Netlist mutated = mutate_gate(out);
    m = r;
    m.out = &mutated;
    m.out_faults = enumerate_faults(mutated, true);
    expect_caught(check_removal(m), "mutated removal output");
  }

  // Stuck-at experiment: detected count beyond what is detectable.
  {
    Rng rng(5);
    const SafExperimentResult saf = random_saf_experiment(syn, rng, 1 << 12);
    SafReport r;
    r.nl = &syn;
    r.faults = enumerate_faults(syn, true);
    r.max_patterns = 1 << 12;
    r.patterns_applied = saf.patterns_applied;
    r.total_faults = saf.total_faults;
    r.remaining = saf.remaining;
    expect_pass(check_saf(r), "stuck-at experiment");
    expect(saf_excess_detections(r) == 0, "stuck-at experiment has no excess detections");
    SafReport m = r;
    m.remaining = 0;
    const std::uint64_t excess = saf_excess_detections(m);
    expect(excess > 0, "SAF wrong detected count is reported as an excess");
    expect_caught(check_saf(m), "SAF wrong detected count");
    m.known_excess = excess - 1;
    expect_caught(check_saf(m), "SAF excess above the known one");
    m.known_excess = excess;
    expect(check_saf(m).empty(), "SAF excess within the known one is left to the failed count");
    m = r;
    m.patterns_applied = r.max_patterns / 2;
    expect_caught(check_saf(m), "SAF early stop");
  }

  // Robust PDF experiment: wrong fault total and detected count.
  {
    const Netlist alu = make_benchmark("alu4");
    Rng rng(6);
    const PdfExperimentResult pdf = random_robust_pdf(alu, rng, 2000, 2000);
    PdfReport r;
    r.nl = &alu;
    r.max_pairs = 2000;
    r.pairs_applied = pdf.pairs_applied;
    r.total_faults = pdf.total_faults;
    r.detected = pdf.detected;
    r.robustly_testable = count_robustly_testable(alu).testable;
    r.has_robustly_testable = true;
    expect_pass(check_pdf(r), "robust PDF experiment");
    PdfReport m = r;
    m.detected = r.robustly_testable + 1;
    expect_caught(check_pdf(m), "PDF wrong detected count");
    m = r;
    m.total_faults = r.total_faults + 2;
    expect_caught(check_pdf(m), "PDF wrong fault total");
  }

  // Multi-worker byte identity.
  expect_pass(check_identical("a = AND(b, c)\n", "a = AND(b, c)\n"), "identical outputs");
  expect_caught(check_identical("a = AND(b, c)\n", "a = AND(c, b)\n"), "differing outputs");

  std::cout << (g_failures ? "selftest FAILED" : "selftest passed") << " (" << g_failures
            << " failure(s))\n";
  return g_failures ? 1 : 0;
}
