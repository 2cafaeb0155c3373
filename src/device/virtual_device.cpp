#include "device/virtual_device.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace gvc::device {

std::uint64_t LaunchStats::total_nodes() const {
  std::uint64_t sum = 0;
  for (const auto& b : blocks) sum += b.nodes_visited;
  return sum;
}

std::vector<double> LaunchStats::nodes_per_sm() const {
  std::vector<double> per_sm(static_cast<std::size_t>(num_sms), 0.0);
  for (const auto& b : blocks)
    per_sm[static_cast<std::size_t>(b.sm_id)] +=
        static_cast<double>(b.nodes_visited);
  return per_sm;
}

std::vector<double> LaunchStats::load_per_sm_normalized() const {
  auto per_sm = nodes_per_sm();
  double sum = 0;
  for (double x : per_sm) sum += x;
  double mean = num_sms > 0 ? sum / num_sms : 0.0;
  if (mean > 0)
    for (double& x : per_sm) x /= mean;
  return per_sm;
}

double LaunchStats::makespan_seconds() const {
  std::vector<double> busy(static_cast<std::size_t>(num_sms), 0.0);
  for (const auto& b : blocks)
    busy[static_cast<std::size_t>(b.sm_id)] +=
        static_cast<double>(b.cpu_ns) * 1e-9;
  double m = 0;
  for (double x : busy) m = std::max(m, x);
  return m;
}

double LaunchStats::cpu_imbalance() const {
  double max = 0.0, sum = 0.0;
  for (const auto& b : blocks) {
    max = std::max(max, static_cast<double>(b.cpu_ns));
    sum += static_cast<double>(b.cpu_ns);
  }
  return sum > 0.0 ? max * static_cast<double>(blocks.size()) / sum : 1.0;
}

util::ActivityAccumulator LaunchStats::merged_activities() const {
  util::ActivityAccumulator acc;
  for (const auto& b : blocks) acc.merge(b.activities);
  return acc;
}

std::vector<double> LaunchStats::mean_activity_fractions() const {
  std::vector<double> fractions(util::kNumActivities, 0.0);
  int counted = 0;
  for (const auto& b : blocks) {
    std::uint64_t total = b.activities.total_ns();
    if (total == 0) continue;
    ++counted;
    for (int a = 0; a < util::kNumActivities; ++a)
      fractions[static_cast<std::size_t>(a)] +=
          static_cast<double>(b.activities.ns(static_cast<util::Activity>(a))) /
          static_cast<double>(total);
  }
  if (counted > 0)
    for (double& f : fractions) f /= counted;
  return fractions;
}

VirtualDevice::VirtualDevice(DeviceSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

LaunchStats VirtualDevice::launch(
    int grid_size, bool cooperative,
    const std::function<void(BlockContext&)>& body, int resident) const {
  GVC_CHECK(grid_size > 0);
  LaunchStats stats;
  stats.num_sms = spec_.num_sms;
  stats.blocks.resize(static_cast<std::size_t>(grid_size));

  util::WallTimer timer;

  auto run_block = [&](int block_id, int sm_id, int slot_id) {
    BlockContext ctx(block_id, sm_id, slot_id);
    // The wall window encloses every activity charge of the block; settle()
    // scales the sampled node charges within it.
    const std::uint64_t wall_start = util::now_ns();
    std::uint64_t start = util::thread_cpu_ns();
    body(ctx);
    ctx.mutable_stats().cpu_ns = util::thread_cpu_ns() - start;
    ctx.mutable_stats().activities =
        ctx.activities().settle(wall_start, util::now_ns());
    stats.blocks[static_cast<std::size_t>(block_id)] = ctx.mutable_stats();
  };

  if (cooperative) {
    // Persistent grid: every block resident simultaneously, assigned to SMs
    // round-robin (how a full-occupancy persistent launch lands on HW).
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(grid_size));
    for (int b = 0; b < grid_size; ++b)
      threads.emplace_back(run_block, b, b % spec_.num_sms, b);
    for (auto& t : threads) t.join();
  } else {
    // Pooled: `resident` slots drain the grid in block-id order. A slot is
    // pinned to an SM; each block it runs inherits that SM, matching the
    // free-slot dispatch of the hardware scheduler.
    if (resident <= 0)
      resident = static_cast<int>(std::min<std::int64_t>(
          spec_.max_resident_blocks(), grid_size));
    resident = std::min(resident, grid_size);
    std::atomic<int> next{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(resident));
    for (int slot = 0; slot < resident; ++slot) {
      threads.emplace_back([&, slot] {
        for (;;) {
          int b = next.fetch_add(1, std::memory_order_relaxed);
          if (b >= grid_size) return;
          run_block(b, slot % spec_.num_sms, slot);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  stats.wall_seconds = timer.seconds();
  return stats;
}

}  // namespace gvc::device
