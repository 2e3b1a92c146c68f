// The benchmark's own computations: input scrambling, a netlist evaluator,
// the equivalent-gate count, the path-count dynamic programme and a serial
// stuck-at fault simulator. None of them calls the program's simulator,
// metrics or path counter; they read only Node types, fanins and the
// input/output lists, so they can judge the program's outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

using compsyn::Netlist;
using compsyn::NodeId;
using compsyn::StuckFault;

/// An isomorphic copy of `nl` with a seeded random topological node order,
/// shuffled fanin lists (every gate type here is commutative), shuffled
/// primary-input and primary-output order, and the original node names.
/// Only live nodes are copied.
Netlist scramble(const Netlist& nl, std::uint64_t seed);

/// FNV-1a 64 of a byte string.
std::uint64_t fnv1a(const std::string& bytes);

/// Live nodes reachable from the outputs, fanins first, found by the
/// benchmark's own depth-first search. Empty plus `error` set on a cycle or
/// a fanin id out of range.
std::vector<NodeId> own_topo_order(const Netlist& nl, std::string* error);

/// Equivalent 2-input gates of the logic reachable from the outputs: a
/// k-input And/Nand/Or/Nor/Xor/Xnor adds k-1; inputs, constants, Buf and
/// Not add 0.
std::uint64_t own_gate_count(const Netlist& nl);

/// Paths from primary inputs to primary outputs (inputs carry 1, a gate the
/// sum over its fanin list, constants 0). Saturates at 2^63.
std::uint64_t own_path_count(const Netlist& nl);

/// One 64-pattern word per node in `order` (indexed by NodeId), with an
/// optional stuck-at fault injected: a stem fault forces the node's value,
/// a branch fault forces what gate `fault->node` reads on pin `fault->pin`.
void own_simulate(const Netlist& nl, const std::vector<NodeId>& order,
                  const std::vector<std::uint64_t>& pi_words,
                  std::vector<std::uint64_t>& values,
                  const StuckFault* fault = nullptr);

/// Compares the primary outputs of `a` and `b` (same input and output
/// counts, matched by position) with the own evaluator: every input
/// combination when there are at most `exhaustive_limit` inputs, otherwise
/// `random_words` seeded 64-pattern words. Empty string when equal, else a
/// description of the first difference.
std::string own_equivalence(const Netlist& a, const Netlist& b,
                            std::uint64_t seed, unsigned random_words = 64,
                            unsigned exhaustive_limit = 16);

/// Serial exhaustive fault simulation: for every fault of the list, true if
/// some input combination makes an output differ from the fault-free
/// circuit. Requires nl.inputs().size() <= kMaxExhaustiveFaultInputs.
inline constexpr unsigned kMaxExhaustiveFaultInputs = 16;
std::vector<bool> exhaustive_detectable(const Netlist& nl,
                                        const std::vector<StuckFault>& faults);

// ---------------------------------------------------------------------------
// Output checks. Each takes what the program returned and gives back one
// line per violated property (empty: the output checks out).

/// One resynthesize -> remove_redundancies -> check_equivalent_sat flow.
struct FlowReport {
  bool procedure2 = true;          // false: Procedure 3
  const Netlist* input = nullptr;
  const Netlist* after_resynth = nullptr;
  const Netlist* out = nullptr;    // after redundancy removal
  std::uint64_t gates_after = 0;   // ResynthStats::gates_after
  std::uint64_t paths_after = 0;   // ResynthStats::paths_after
  std::uint64_t out_paths = 0;     // count_paths(*out).total
  bool sat_proven = false;
  bool sat_equivalent = false;
};
std::vector<std::string> check_flow(const FlowReport& f);

/// One remove_redundancies call on its own.
struct RemovalReport {
  const Netlist* input = nullptr;
  const Netlist* out = nullptr;
  std::uint64_t aborted_unresolved = 0;
  std::vector<StuckFault> out_faults;  // enumerate_faults(*out, true)
};
std::vector<std::string> check_removal(const RemovalReport& r);

/// One random_saf_experiment.
struct SafReport {
  const Netlist* nl = nullptr;
  std::vector<StuckFault> faults;  // enumerate_faults(*nl, true)
  std::uint64_t max_patterns = 0;
  std::uint64_t patterns_applied = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t remaining = 0;
  /// Excess detections (see saf_excess_detections) known to come from a
  /// fault of the program on this input: up to this many, the benchmark
  /// counts the experiment as a failed operation; more is an incorrect output.
  std::uint64_t known_excess = 0;
};
/// Includes an excess of detections above `known_excess`.
std::vector<std::string> check_saf(const SafReport& r);
/// How many more faults the experiment reports detected than the serial
/// exhaustive simulation finds detectable (0 when within, or when the
/// circuit has too many inputs to tell).
std::uint64_t saf_excess_detections(const SafReport& r);

/// One random_robust_pdf run with stop_window == max_pairs.
struct PdfReport {
  const Netlist* nl = nullptr;
  std::uint64_t max_pairs = 0;
  std::uint64_t pairs_applied = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t detected = 0;
  /// count_robustly_testable(*nl).testable when nl has <= 12 inputs.
  std::uint64_t robustly_testable = 0;
  bool has_robustly_testable = false;
};
std::vector<std::string> check_pdf(const PdfReport& r);

/// Byte identity of a multi-worker output with the one-worker output.
std::vector<std::string> check_identical(const std::string& multi_worker,
                                         const std::string& one_worker);

}  // namespace perfbench
