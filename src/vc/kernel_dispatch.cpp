#include "vc/kernel_dispatch.hpp"

#include "util/strings.hpp"

namespace gvc::vc {

KernelTag classify(const DegreeArray& da) {
  KernelTag tag;

  // (a) Degree width from the maintained bound. The bound is monotone over
  // a node's lifetime and every descendant of it (degrees only decrease and
  // rollbacks stop at the adoption watermark), so a width classified at
  // adoption holds for the whole descent.
  const std::int32_t bound = da.max_degree_bound();
  if (bound <= 255)
    tag.width = DegreeWidth::kU8;
  else if (bound <= 65535)
    tag.width = DegreeWidth::kU16;
  else
    tag.width = DegreeWidth::kU32;

  // (b) Live rules. A rule is dead only when its fixpoint is established
  // (mask bit set) AND the complete dirty log holds no candidate at its
  // trigger. Without tracking, or after an overflow, everything is live.
  if (da.tracking() && !da.dirty_overflowed()) {
    const std::uint8_t mask = da.reduce_fixpoint_mask();
    bool log_deg1 = false, log_deg2 = false;
    for (Vertex v : da.dirty()) {
      const std::int32_t d = da.raw()[static_cast<std::size_t>(v)];
      log_deg1 |= d == 1;
      log_deg2 |= d == 2;
    }
    if ((mask & kRuleBitDegreeOne) && !log_deg1)
      tag.live_rules &= static_cast<std::uint8_t>(~kRuleBitDegreeOne);
    if ((mask & kRuleBitDegreeTwo) && !log_deg2)
      tag.live_rules &= static_cast<std::uint8_t>(~kRuleBitDegreeTwo);
  }
  return tag;
}

const char* kernel_dispatch_name(KernelDispatch d) {
  switch (d) {
    case KernelDispatch::kGeneric: return "generic";
    case KernelDispatch::kAuto:    return "auto";
  }
  return "?";
}

std::optional<KernelDispatch> try_parse_kernel_dispatch(
    const std::string& name) {
  const std::string n = util::to_lower(name);
  if (n == "auto") return KernelDispatch::kAuto;
  if (n == "generic" || n == "off") return KernelDispatch::kGeneric;
  return std::nullopt;
}

}  // namespace gvc::vc
