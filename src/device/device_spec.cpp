#include "device/device_spec.hpp"

#include "util/check.hpp"

namespace gvc::device {

const char* DeviceSpec::invalid_reason() const {
  if (num_sms <= 0) return "device needs num_sms > 0";
  if (max_threads_per_block <= 0)
    return "device needs max_threads_per_block > 0";
  if (max_threads_per_sm < max_threads_per_block)
    return "device needs max_threads_per_sm >= max_threads_per_block";
  if (max_blocks_per_sm <= 0) return "device needs max_blocks_per_sm > 0";
  if (shared_mem_per_sm_bytes <= 0) return "device needs shared_mem_per_sm > 0";
  if (shared_mem_per_block_bytes <= 0)
    return "device needs shared_mem_per_block > 0";
  if (shared_mem_per_block_bytes > shared_mem_per_sm_bytes)
    return "device needs shared_mem_per_block <= shared_mem_per_sm";
  if (global_mem_bytes <= 0) return "device needs global_mem_bytes > 0";
  return nullptr;
}

void DeviceSpec::validate() const {
  const char* why = invalid_reason();
  GVC_CHECK_MSG(why == nullptr, why);
}

DeviceSpec DeviceSpec::v100() {
  DeviceSpec d;
  d.name = "Volta V100 (virtual)";
  d.num_sms = 80;
  d.max_threads_per_block = 1024;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 32;
  d.shared_mem_per_sm_bytes = 96 * 1024;
  d.shared_mem_per_block_bytes = 96 * 1024;
  // 32 GiB card; budget 24 GiB for stacks after graph/worklist reserve.
  d.global_mem_bytes = 24LL * 1024 * 1024 * 1024;
  d.validate();
  return d;
}

DeviceSpec DeviceSpec::a100() {
  DeviceSpec d;
  d.name = "Ampere A100 (virtual)";
  d.num_sms = 108;
  d.max_threads_per_block = 1024;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 32;
  d.shared_mem_per_sm_bytes = 164 * 1024;
  d.shared_mem_per_block_bytes = 164 * 1024;
  d.global_mem_bytes = 32LL * 1024 * 1024 * 1024;
  d.validate();
  return d;
}

DeviceSpec DeviceSpec::laptop() {
  DeviceSpec d;
  d.name = "Laptop-class (virtual)";
  d.num_sms = 8;
  d.max_threads_per_block = 1024;
  d.max_threads_per_sm = 1536;
  d.max_blocks_per_sm = 16;
  d.shared_mem_per_sm_bytes = 64 * 1024;
  d.shared_mem_per_block_bytes = 48 * 1024;
  d.global_mem_bytes = 2LL * 1024 * 1024 * 1024;
  d.validate();
  return d;
}

DeviceSpec DeviceSpec::host_scaled() {
  DeviceSpec d;
  d.name = "V100/5 host-scaled (virtual)";
  d.num_sms = 16;
  d.max_threads_per_block = 1024;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 2;
  d.shared_mem_per_sm_bytes = 96 * 1024;
  d.shared_mem_per_block_bytes = 96 * 1024;
  d.global_mem_bytes = 1LL * 1024 * 1024 * 1024;
  d.validate();
  return d;
}

}  // namespace gvc::device
