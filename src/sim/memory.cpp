#include "sim/memory.h"

#include <algorithm>

namespace eric::sim {

uint8_t* Memory::RefillTlb(uint64_t page_index) const {
  const auto it = pages_.find(page_index);
  if (it == pages_.end()) return nullptr;  // misses are never cached
  // Node-based map: a page's vector, and so its data, never moves.
  uint8_t* data = const_cast<uint8_t*>(it->second.data());
  tlb_[page_index % kTlbEntries] = {page_index, data};
  return data;
}

uint8_t* Memory::TouchPage(uint64_t page_index) {
  Page& page = pages_[page_index];
  if (page.empty()) page.resize(kPageBytes, 0);
  tlb_[page_index % kTlbEntries] = {page_index, page.data()};
  return page.data();
}

uint64_t Memory::ReadStraddling(uint64_t addr, int size) const {
  uint64_t value = 0;
  for (int i = 0; i < size; ++i) {
    value |= static_cast<uint64_t>(ReadByte(addr + i)) << (8 * i);
  }
  return value;
}

void Memory::WriteStraddling(uint64_t addr, uint64_t value, int size) {
  for (int i = 0; i < size; ++i) {
    WriteByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
  }
}

void Memory::WriteBlock(uint64_t addr, std::span<const uint8_t> bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const uint64_t a = addr + done;
    uint8_t* page = TouchPage(a / kPageBytes);
    const size_t offset = a % kPageBytes;
    const size_t take = std::min(kPageBytes - offset, bytes.size() - done);
    std::memcpy(page + offset, bytes.data() + done, take);
    done += take;
  }
}

std::vector<uint8_t> Memory::ReadBlock(uint64_t addr, size_t size) const {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) out[i] = ReadByte(addr + i);
  return out;
}

}  // namespace eric::sim
