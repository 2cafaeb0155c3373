#pragma once

// Shape classification for the reduce kernels (the poplibs pattern: pick a
// template-specialized kernel at CONNECTION time — here, when a block picks
// up a root or a donated node — not per element).
//
// The per-node reduction fixpoint is the hottest loop of every solver, yet
// one generic path used to serve every instance shape: 32-bit degree
// snapshots for graphs whose maximum degree fits a byte, and a full
// three-rule round loop when the fixpoint mask proves two rules are
// permanently dead. classify() computes a cheap KernelTag capturing
//
//   (a) degree width — the maintained maximum-degree BOUND (monotone:
//       degrees only ever decrease) tells whether every degree fits
//       u8/u16/u32, so the sweep kernels can run on narrow snapshots (4x
//       less snapshot traffic for u8);
//   (b) live rules   — which candidate-driven rules can still fire: a rule
//       whose fixpoint bit is set and whose dirty log holds no candidate is
//       skipped without re-probing.
//
// Validity across a descent: the tag is classified when a block ADOPTS a
// node (worklist removal, steal, stack pop, root). Every state the block
// visits afterwards descends from that node, and watermark rollbacks only
// restore degrees the adopted node already had — so the width class never
// widens mid-descent and the tag stays sound without per-node
// reclassification. reduce() re-classifies on the one cheap signal that
// invalidates the log-derived part (dirty-log overflow).
//
// CONTRACT — the tag is execution policy. Every specialization must produce
// BIT-IDENTICAL state transitions to the generic kernels (same covers, same
// tree node counts); the randomized differential and exhaustive oracle
// suites enforce this. Like branch_state, the dispatch knob therefore stays
// OUT of the result-cache key (service/graph_hash.cpp).

#include <cstdint>
#include <optional>
#include <string>

#include "vc/degree_array.hpp"

namespace gvc::vc {

/// Fixpoint-mask / live-rule bits, shared between the incremental engine
/// (DegreeArray::reduce_fixpoint_mask) and the classifier.
inline constexpr std::uint8_t kRuleBitDegreeOne = 1;
inline constexpr std::uint8_t kRuleBitDegreeTwo = 2;

/// Narrowest unsigned type every CURRENT degree fits (classified from the
/// monotone maximum-degree bound, so the class never widens within a
/// descent).
enum class DegreeWidth : std::uint8_t { kU8, kU16, kU32 };

struct KernelTag {
  DegreeWidth width = DegreeWidth::kU32;
  /// Rules that may still fire. Bit set => the rule must be probed; bit
  /// clear => its fixpoint is established AND the dirty log (complete, no
  /// overflow) holds no candidate at its trigger, so it cannot fire before
  /// some new mutation re-dirties a vertex.
  std::uint8_t live_rules = kRuleBitDegreeOne | kRuleBitDegreeTwo;
};

/// O(1) except for one walk of the (capped) dirty log: width from the
/// maximum-degree bound, live rules from the fixpoint mask refined by the
/// log contents.
KernelTag classify(const DegreeArray& da);

/// The dispatch knob: kAuto classifies and routes reduce() through the
/// shape-specialized kernels; kGeneric pins the one-size-fits-all path
/// (the opt-out, and the baseline the benches compare against).
enum class KernelDispatch : std::uint8_t { kGeneric, kAuto };

const char* kernel_dispatch_name(KernelDispatch d);
std::optional<KernelDispatch> try_parse_kernel_dispatch(
    const std::string& name);

}  // namespace gvc::vc
