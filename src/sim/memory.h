// Sparse physical memory for the SoC model.
//
// Backed by 4 KiB pages allocated on first touch, so a 2 GiB address space
// costs only what the workload touches. All accesses are little-endian,
// matching RISC-V.
//
// The simulator keeps three host-side shortcuts on its hot path. They buy
// host speed only: every I-cache/D-cache access and every ExecStats count
// comes out exactly as if each instruction were fetched and decoded on its
// own, so modelled timing is unchanged (tests/sim_test.cpp pins every
// counter of every kernel; tests/sim_diff_test.cpp compares whole runs
// with a one-instruction-per-step reference interpreter and its own
// stamp-LRU cache).
//   * Page TLB (here): a small direct-mapped table from page index to page
//     data, in front of the page map. Only resident pages are entered, so
//     a read of an unmapped page is never remembered, and pages are never
//     freed, so an entry cannot dangle. Accesses inside one page are a
//     single word-wide copy; only page-straddling ones go byte by byte.
//   * Block cache (Cpu): the straight-line run from a pc inside the loaded
//     image up to its next jal/jalr/branch, decoded once into entries of
//     pre-extracted operands. Its static work (instruction count, base
//     CPI, same-line fetch hits) is charged once per block entry. A store,
//     AMO or SC that writes into cached code drops every block and ends
//     the running block, so the next instruction is decoded from the
//     bytes as written; code outside the image is decoded every time.
//   * MRU-ordered sets (Cache): each set lists its lines most recent
//     first, so a hit on the line the set touched last is one compare and
//     no write. A fetch on the previous instruction's line is such a hit
//     and is only counted (Cache::RepeatLastHit), never looked up.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

namespace eric::sim {

static_assert(std::endian::native == std::endian::little,
              "word-wide accesses copy host words as little-endian");

/// Byte-addressed sparse memory. Not thread-safe, even for const reads:
/// a read may refill the page TLB.
class Memory {
 public:
  static constexpr size_t kPageBytes = 4096;

  Memory() = default;
  // The TLB points into this object's own pages.
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  uint8_t ReadByte(uint64_t addr) const {
    return static_cast<uint8_t>(Read(addr, 1));
  }
  void WriteByte(uint64_t addr, uint8_t value) { Write(addr, value, 1); }

  /// Little-endian multi-byte accessors. `size` in {1,2,4,8}.
  uint64_t Read(uint64_t addr, int size) const {
    const size_t offset = addr % kPageBytes;
    if (offset + static_cast<size_t>(size) > kPageBytes) {
      return ReadStraddling(addr, size);
    }
    const uint8_t* page = PageData(addr / kPageBytes);
    return page == nullptr ? 0 : Load(page + offset, size);
  }
  void Write(uint64_t addr, uint64_t value, int size) {
    const size_t offset = addr % kPageBytes;
    if (offset + static_cast<size_t>(size) > kPageBytes) {
      WriteStraddling(addr, value, size);
      return;
    }
    uint8_t* page = PageData(addr / kPageBytes);
    if (page == nullptr) page = TouchPage(addr / kPageBytes);
    Store(page + offset, value, size);
  }

  /// Bulk copy-in (program loading).
  void WriteBlock(uint64_t addr, std::span<const uint8_t> bytes);

  /// Bulk copy-out (result extraction in tests).
  std::vector<uint8_t> ReadBlock(uint64_t addr, size_t size) const;

  /// Number of resident pages (footprint metric).
  size_t ResidentPages() const { return pages_.size(); }

  /// Calls `fn(page_base, bytes)` for every resident page in address
  /// order (tests digest whole memories with it).
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    std::vector<uint64_t> indices;
    indices.reserve(pages_.size());
    for (const auto& [index, page] : pages_) indices.push_back(index);
    std::sort(indices.begin(), indices.end());
    for (uint64_t index : indices) {
      fn(index * kPageBytes, std::span<const uint8_t>(pages_.at(index)));
    }
  }

 private:
  using Page = std::vector<uint8_t>;

  struct TlbEntry {
    uint64_t page_index = ~uint64_t{0};  // no page has this index
    uint8_t* data = nullptr;
  };
  static constexpr size_t kTlbEntries = 16;

  template <typename T>
  static uint64_t LoadAs(const uint8_t* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  template <typename T>
  static void StoreAs(uint8_t* p, uint64_t value) {
    const T v = static_cast<T>(value);
    std::memcpy(p, &v, sizeof v);
  }
  static uint64_t Load(const uint8_t* p, int size) {
    switch (size) {
      case 1: return *p;
      case 2: return LoadAs<uint16_t>(p);
      case 4: return LoadAs<uint32_t>(p);
      default: return LoadAs<uint64_t>(p);
    }
  }
  static void Store(uint8_t* p, uint64_t value, int size) {
    switch (size) {
      case 1: *p = static_cast<uint8_t>(value); break;
      case 2: StoreAs<uint16_t>(p, value); break;
      case 4: StoreAs<uint32_t>(p, value); break;
      default: StoreAs<uint64_t>(p, value); break;
    }
  }

  /// Data of a resident page, or nullptr if the page is unmapped.
  uint8_t* PageData(uint64_t page_index) const {
    const TlbEntry& entry = tlb_[page_index % kTlbEntries];
    if (entry.page_index == page_index) return entry.data;
    return RefillTlb(page_index);
  }
  uint8_t* RefillTlb(uint64_t page_index) const;
  /// Allocates the page if needed; returns its data.
  uint8_t* TouchPage(uint64_t page_index);

  uint64_t ReadStraddling(uint64_t addr, int size) const;
  void WriteStraddling(uint64_t addr, uint64_t value, int size);

  std::unordered_map<uint64_t, Page> pages_;
  // mutable: a const read of a resident page may refill its entry.
  mutable std::array<TlbEntry, kTlbEntries> tlb_{};
};

}  // namespace eric::sim
