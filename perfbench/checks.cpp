#include "checks.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace perfbench {

using compsyn::GateType;
using compsyn::kNoNode;
using compsyn::Node;
using compsyn::Rng;

Netlist scramble(const Netlist& nl, std::uint64_t seed) {
  Rng rng(seed ^ 0x5c2a3b1d9e8f7061ull);
  const std::size_t n = nl.size();
  // Kahn's algorithm over live nodes, picking a random ready node each step.
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<NodeId>> users(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (nl.is_dead(v)) continue;
    for (NodeId f : nl.node(v).fanins) {
      ++pending[v];
      users[f].push_back(v);
    }
    if (pending[v] == 0 && nl.node(v).type != GateType::Input) ready.push_back(v);
  }
  Netlist out(nl.name());
  std::vector<NodeId> map(n, kNoNode);
  std::vector<NodeId> pis = nl.inputs();
  rng.shuffle(pis);
  auto release = [&](NodeId v) {
    for (NodeId u : users[v]) {
      if (--pending[u] == 0) ready.push_back(u);
    }
  };
  for (NodeId pi : pis) {
    map[pi] = out.add_input(nl.node(pi).name);
    release(pi);
  }
  while (!ready.empty()) {
    const std::size_t k = static_cast<std::size_t>(rng.below(ready.size()));
    const NodeId v = ready[k];
    ready[k] = ready.back();
    ready.pop_back();
    const Node& nd = nl.node(v);
    if (nd.type == GateType::Const0 || nd.type == GateType::Const1) {
      map[v] = out.add_const(nd.type == GateType::Const1, nd.name);
    } else {
      std::vector<NodeId> fanins;
      for (NodeId f : nd.fanins) fanins.push_back(map[f]);
      rng.shuffle(fanins);
      map[v] = out.add_gate(nd.type, std::move(fanins), nd.name);
    }
    release(v);
  }
  std::vector<NodeId> pos = nl.outputs();
  rng.shuffle(pos);
  for (NodeId po : pos) out.mark_output(map[po]);
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<NodeId> own_topo_order(const Netlist& nl, std::string* error) {
  const std::size_t n = nl.size();
  // 0 = unvisited, 1 = on the stack, 2 = emitted.
  std::vector<std::uint8_t> state(n, 0);
  std::vector<NodeId> order;
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId root : nl.outputs()) {
    if (root >= n) {
      if (error) *error = "output id out of range";
      return {};
    }
    if (state[root] == 2) continue;
    stack.push_back({root, 0});
    state[root] = 1;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& fanins = nl.node(v).fanins;
      if (next < fanins.size()) {
        const NodeId f = fanins[next++];
        if (f >= n) {
          if (error) *error = "fanin id out of range";
          return {};
        }
        if (state[f] == 1) {
          if (error) *error = "combinational cycle";
          return {};
        }
        if (state[f] == 0) {
          state[f] = 1;
          stack.push_back({f, 0});
        }
      } else {
        state[v] = 2;
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::uint64_t own_gate_count(const Netlist& nl) {
  std::uint64_t total = 0;
  for (NodeId v : own_topo_order(nl, nullptr)) {
    const Node& nd = nl.node(v);
    switch (nd.type) {
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor:
      case GateType::Xor:
      case GateType::Xnor:
        if (!nd.fanins.empty()) total += nd.fanins.size() - 1;
        break;
      default:
        break;
    }
  }
  return total;
}

std::uint64_t own_path_count(const Netlist& nl) {
  constexpr unsigned __int128 kCap = static_cast<unsigned __int128>(1) << 63;
  std::vector<unsigned __int128> np(nl.size(), 0);
  for (NodeId v : own_topo_order(nl, nullptr)) {
    const Node& nd = nl.node(v);
    if (nd.type == GateType::Input) {
      np[v] = 1;
    } else {
      unsigned __int128 s = 0;
      for (NodeId f : nd.fanins) s = std::min(kCap, s + np[f]);
      np[v] = s;
    }
  }
  unsigned __int128 total = 0;
  for (NodeId po : nl.outputs()) total = std::min(kCap, total + np[po]);
  return static_cast<std::uint64_t>(total);
}

namespace {

std::uint64_t eval(GateType t, const std::uint64_t* in, std::size_t k) {
  std::uint64_t acc = 0;
  switch (t) {
    case GateType::Const0:
      return 0;
    case GateType::Const1:
      return ~0ull;
    case GateType::Buf:
      return in[0];
    case GateType::Not:
      return ~in[0];
    case GateType::And:
    case GateType::Nand:
      acc = ~0ull;
      for (std::size_t i = 0; i < k; ++i) acc &= in[i];
      return t == GateType::And ? acc : ~acc;
    case GateType::Or:
    case GateType::Nor:
      for (std::size_t i = 0; i < k; ++i) acc |= in[i];
      return t == GateType::Or ? acc : ~acc;
    case GateType::Xor:
    case GateType::Xnor:
      for (std::size_t i = 0; i < k; ++i) acc ^= in[i];
      return t == GateType::Xor ? acc : ~acc;
    case GateType::Input:
      break;
  }
  return 0;
}

/// Input word i of an exhaustive sweep: block `w` of 64 consecutive input
/// combinations, combination index = 64 * w + bit.
std::vector<std::uint64_t> exhaustive_words(std::size_t inputs, std::uint64_t w) {
  static constexpr std::uint64_t kLow[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  std::vector<std::uint64_t> words(inputs);
  for (std::size_t i = 0; i < inputs; ++i) {
    words[i] = i < 6 ? kLow[i] : (((w >> (i - 6)) & 1) ? ~0ull : 0ull);
  }
  return words;
}

/// Mask of the valid patterns in exhaustive block `w`.
std::uint64_t exhaustive_mask(std::size_t inputs) {
  return inputs >= 6 ? ~0ull : ((1ull << (1u << inputs)) - 1);
}

}  // namespace

void own_simulate(const Netlist& nl, const std::vector<NodeId>& order,
                  const std::vector<std::uint64_t>& pi_words,
                  std::vector<std::uint64_t>& values, const StuckFault* fault) {
  values.assign(nl.size(), 0);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) values[nl.inputs()[i]] = pi_words[i];
  std::vector<std::uint64_t> in;
  for (NodeId v : order) {
    const Node& nd = nl.node(v);
    if (nd.type != GateType::Input) {
      in.resize(nd.fanins.size());
      for (std::size_t p = 0; p < nd.fanins.size(); ++p) in[p] = values[nd.fanins[p]];
      if (fault && !fault->is_stem() && fault->node == v) {
        in[static_cast<std::size_t>(fault->pin)] = fault->value ? ~0ull : 0ull;
      }
      values[v] = eval(nd.type, in.data(), in.size());
    }
    if (fault && fault->is_stem() && fault->node == v) values[v] = fault->value ? ~0ull : 0ull;
  }
}

std::string own_equivalence(const Netlist& a, const Netlist& b, std::uint64_t seed,
                            unsigned random_words, unsigned exhaustive_limit) {
  if (a.inputs().size() != b.inputs().size()) return "input counts differ";
  if (a.outputs().size() != b.outputs().size()) return "output counts differ";
  std::string err;
  const auto oa = own_topo_order(a, &err);
  if (!err.empty()) return "first netlist: " + err;
  const auto ob = own_topo_order(b, &err);
  if (!err.empty()) return "second netlist: " + err;
  const std::size_t ni = a.inputs().size();
  const bool exhaustive = ni <= exhaustive_limit;
  const std::uint64_t blocks = exhaustive ? (ni <= 6 ? 1 : 1ull << (ni - 6)) : random_words;
  const std::uint64_t mask = exhaustive ? exhaustive_mask(ni) : ~0ull;
  Rng rng(seed);
  std::vector<std::uint64_t> va, vb;
  for (std::uint64_t w = 0; w < blocks; ++w) {
    std::vector<std::uint64_t> words;
    if (exhaustive) {
      words = exhaustive_words(ni, w);
    } else {
      words.resize(ni);
      for (auto& x : words) x = rng.next();
    }
    own_simulate(a, oa, words, va);
    own_simulate(b, ob, words, vb);
    for (std::size_t k = 0; k < a.outputs().size(); ++k) {
      if ((va[a.outputs()[k]] ^ vb[b.outputs()[k]]) & mask) {
        return "output " + std::to_string(k) + " differs in pattern block " + std::to_string(w);
      }
    }
  }
  return {};
}

std::vector<bool> exhaustive_detectable(const Netlist& nl,
                                        const std::vector<StuckFault>& faults) {
  const std::size_t ni = nl.inputs().size();
  std::vector<bool> detectable(faults.size(), false);
  if (ni > kMaxExhaustiveFaultInputs) return detectable;
  const auto order = own_topo_order(nl, nullptr);
  const std::uint64_t blocks = ni <= 6 ? 1 : 1ull << (ni - 6);
  const std::uint64_t mask = exhaustive_mask(ni);
  std::vector<std::uint64_t> good, bad;
  std::size_t open = faults.size();
  for (std::uint64_t w = 0; w < blocks && open > 0; ++w) {
    const auto words = exhaustive_words(ni, w);
    own_simulate(nl, order, words, good);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (detectable[f]) continue;
      own_simulate(nl, order, words, bad, &faults[f]);
      for (NodeId po : nl.outputs()) {
        if ((good[po] ^ bad[po]) & mask) {
          detectable[f] = true;
          --open;
          break;
        }
      }
    }
  }
  return detectable;
}

}  // namespace perfbench

namespace perfbench {

std::vector<std::string> check_flow(const FlowReport& f) {
  std::vector<std::string> bad;
  if (f.sat_proven && !f.sat_equivalent) bad.push_back("SAT refuted equivalence");
  const std::string diff = own_equivalence(*f.input, *f.out, 0xC0FFEEull);
  if (!diff.empty()) bad.push_back("own evaluator: " + diff);
  if (own_gate_count(*f.after_resynth) != f.gates_after) {
    bad.push_back("gates_after differs from the own gate count");
  }
  if (own_path_count(*f.after_resynth) != f.paths_after) {
    bad.push_back("paths_after differs from the own path count");
  }
  if (own_path_count(*f.out) != f.out_paths) {
    bad.push_back("count_paths differs from the own path count");
  }
  if (f.procedure2 && own_gate_count(*f.out) > own_gate_count(*f.input)) {
    bad.push_back("Procedure 2 raised the gate count");
  }
  if (!f.procedure2 && own_path_count(*f.out) > own_path_count(*f.input)) {
    bad.push_back("Procedure 3 raised the path count");
  }
  return bad;
}

std::vector<std::string> check_removal(const RemovalReport& r) {
  std::vector<std::string> bad;
  const std::string diff = own_equivalence(*r.input, *r.out, 0xBADC0DEull);
  if (!diff.empty()) bad.push_back("own evaluator: " + diff);
  if (own_gate_count(*r.out) > own_gate_count(*r.input)) {
    bad.push_back("removal raised the gate count");
  }
  if (r.out->inputs().size() <= kMaxExhaustiveFaultInputs) {
    const auto det = exhaustive_detectable(*r.out, r.out_faults);
    const auto undetectable =
        static_cast<std::uint64_t>(std::count(det.begin(), det.end(), false));
    if (undetectable > r.aborted_unresolved) {
      bad.push_back(std::to_string(undetectable) + " undetectable faults left, more than the " +
                    std::to_string(r.aborted_unresolved) + " left unresolved");
    }
  }
  return bad;
}

std::vector<std::string> check_saf(const SafReport& r) {
  std::vector<std::string> bad;
  if (r.remaining > r.total_faults) bad.push_back("more faults remaining than in total");
  if (r.patterns_applied > r.max_patterns ||
      (r.remaining > 0 && r.patterns_applied != r.max_patterns)) {
    bad.push_back("stopped early with faults remaining");
  }
  if (r.nl->inputs().size() <= kMaxExhaustiveFaultInputs &&
      r.faults.size() != r.total_faults) {
    bad.push_back("fault total differs from the fault list");
  }
  const std::uint64_t excess = saf_excess_detections(r);
  if (excess > r.known_excess) {
    bad.push_back(std::to_string(excess) + " more faults detected than are detectable (" +
                  std::to_string(r.known_excess) + " known)");
  }
  return bad;
}

std::uint64_t saf_excess_detections(const SafReport& r) {
  if (r.nl->inputs().size() > kMaxExhaustiveFaultInputs || r.remaining > r.total_faults) return 0;
  const auto det = exhaustive_detectable(*r.nl, r.faults);
  const auto detectable = static_cast<std::uint64_t>(std::count(det.begin(), det.end(), true));
  const std::uint64_t detected = r.total_faults - r.remaining;
  return detected > detectable ? detected - detectable : 0;
}

std::vector<std::string> check_pdf(const PdfReport& r) {
  std::vector<std::string> bad;
  if (r.total_faults != 2 * own_path_count(*r.nl)) {
    bad.push_back("total_faults is not twice the own path count");
  }
  if (r.detected > r.total_faults) bad.push_back("more faults detected than in total");
  if (r.pairs_applied > r.max_pairs ||
      (r.detected < r.total_faults && r.pairs_applied != r.max_pairs)) {
    bad.push_back("stopped before the fixed pair count");
  }
  if (r.has_robustly_testable && r.detected > r.robustly_testable) {
    bad.push_back("detected count exceeds count_robustly_testable");
  }
  return bad;
}

std::vector<std::string> check_identical(const std::string& multi_worker,
                                         const std::string& one_worker) {
  if (multi_worker == one_worker) return {};
  return {"multi-worker output differs from the one-worker output"};
}

}  // namespace perfbench
