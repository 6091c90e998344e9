#include "gpfs/alloc.hpp"

namespace mgfs::gpfs {

AllocationMap::AllocationMap(std::vector<std::uint64_t> blocks_per_nsd) {
  MGFS_ASSERT(!blocks_per_nsd.empty(), "allocation map with no NSDs");
  nsds_.reserve(blocks_per_nsd.size());
  for (std::uint64_t cap : blocks_per_nsd) {
    PerNsd p;
    p.capacity = cap;
    const std::uint64_t words = p.words();
    p.pages.resize((words + kPageWords - 1) / kPageWords);
    // Bits of the final word past capacity can never be allocated: mark
    // them used up front so every clear bit in the map is a real block
    // and the scan never has to special-case the tail.
    if (cap % 64 != 0) {
      p.word_for_write(words - 1) = ~0ULL << (cap % 64);
    }
    // Every word starts with at least one free bit (words only exist to
    // cover capacity), so all summary bits covering real words are set.
    p.summary.assign((words + 63) / 64, ~0ULL);
    if (!p.summary.empty() && words % 64 != 0) {
      p.summary.back() = (1ULL << (words % 64)) - 1;
    }
    nsds_.push_back(std::move(p));
  }
}

std::uint64_t AllocationMap::PerNsd::word(std::uint64_t w) const {
  const auto& page = pages[w / kPageWords];
  return page ? page[w % kPageWords] : 0;
}

std::uint64_t& AllocationMap::PerNsd::word_for_write(std::uint64_t w) {
  auto& page = pages[w / kPageWords];
  if (!page) page = std::make_unique<std::uint64_t[]>(kPageWords);
  return page[w % kPageWords];
}

std::uint64_t AllocationMap::capacity_blocks(std::uint32_t nsd) const {
  MGFS_ASSERT(nsd < nsds_.size(), "bad nsd index");
  return nsds_[nsd].capacity;
}

std::uint64_t AllocationMap::free_blocks(std::uint32_t nsd) const {
  MGFS_ASSERT(nsd < nsds_.size(), "bad nsd index");
  return nsds_[nsd].capacity - nsds_[nsd].used;
}

std::uint64_t AllocationMap::total_free() const {
  std::uint64_t t = 0;
  for (const auto& p : nsds_) t += p.capacity - p.used;
  return t;
}

std::uint64_t AllocationMap::total_capacity() const {
  std::uint64_t t = 0;
  for (const auto& p : nsds_) t += p.capacity;
  return t;
}

Result<std::uint64_t> AllocationMap::take_free_bit(PerNsd& p) {
  if (p.used == p.capacity) return err(Errc::no_space, "nsd full");
  // Two probes instead of a scan: the summary narrows to the first
  // bitmap word at/after the rotor with a free bit (cyclically), then
  // ctz picks the lowest free bit of that word. The resulting block
  // sequence is exactly what the old per-word next-fit scan produced —
  // same word granularity, same lowest-bit-first order — so seeded
  // runs allocate identically.
  const std::uint64_t words = p.words();
  const std::uint64_t groups = p.summary.size();
  const std::uint64_t start_word = p.rotor / 64;
  const std::uint64_t start_group = start_word / 64;
  std::uint64_t word = words;
  for (std::uint64_t scanned = 0; scanned <= groups; ++scanned) {
    const std::uint64_t g = (start_group + scanned) % groups;
    std::uint64_t avail = p.summary[g];
    if (scanned == 0) avail &= ~0ULL << (start_word % 64);
    if (avail != 0) {
      word = g * 64 + static_cast<std::uint64_t>(__builtin_ctzll(avail));
      break;
    }
  }
  MGFS_ASSERT(word < words, "summary lost a free word");
  std::uint64_t& bits = p.word_for_write(word);
  const std::uint64_t free_mask = ~bits;
  MGFS_ASSERT(free_mask != 0, "summary bit set on a full word");
  const int bit = __builtin_ctzll(free_mask);
  const std::uint64_t block = word * 64 + static_cast<std::uint64_t>(bit);
  MGFS_ASSERT(block < p.capacity, "tail bit escaped pre-marking");
  bits |= (1ULL << bit);
  if (bits == ~0ULL) {
    p.summary[word / 64] &= ~(1ULL << (word % 64));
  }
  ++p.used;
  p.rotor = block + 1 < p.capacity ? block + 1 : 0;
  return block;
}

Result<BlockAddr> AllocationMap::allocate_on(std::uint32_t nsd) {
  MGFS_ASSERT(nsd < nsds_.size(), "bad nsd index");
  auto b = take_free_bit(nsds_[nsd]);
  if (!b.ok()) return b.error();
  return BlockAddr{nsd, *b};
}

Result<std::vector<BlockAddr>> AllocationMap::allocate_striped(
    std::uint32_t first_nsd, std::size_t n) {
  MGFS_ASSERT(first_nsd < nsds_.size(), "bad nsd index");
  if (total_free() < n) {
    return err(Errc::no_space, "file system full");
  }
  std::vector<BlockAddr> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto preferred =
        static_cast<std::uint32_t>((first_nsd + i) % nsds_.size());
    auto b = allocate_on(preferred);
    if (!b.ok()) {
      // Preferred NSD full: fall back to the next NSD with space.
      for (std::size_t k = 1; k < nsds_.size() && !b.ok(); ++k) {
        const auto alt =
            static_cast<std::uint32_t>((preferred + k) % nsds_.size());
        b = allocate_on(alt);
      }
    }
    if (!b.ok()) {
      for (const BlockAddr& a : out) {
        (void)free_block(a);  // roll back: all-or-nothing
      }
      return err(Errc::no_space, "file system full");
    }
    out.push_back(*b);
  }
  return out;
}

Status AllocationMap::free_block(BlockAddr addr) {
  if (addr.nsd >= nsds_.size()) {
    return Status(Errc::invalid_argument, "bad nsd");
  }
  PerNsd& p = nsds_[addr.nsd];
  if (addr.block >= p.capacity) {
    return Status(Errc::invalid_argument, "block beyond nsd capacity");
  }
  const std::uint64_t word = addr.block / 64;
  const std::uint64_t mask = 1ULL << (addr.block % 64);
  if (!(p.word(word) & mask)) {
    return Status(Errc::invalid_argument, "double free");
  }
  p.word_for_write(word) &= ~mask;
  p.summary[word / 64] |= 1ULL << (word % 64);
  --p.used;
  return Status{};
}

bool AllocationMap::is_allocated(BlockAddr addr) const {
  if (addr.nsd >= nsds_.size()) return false;
  const PerNsd& p = nsds_[addr.nsd];
  if (addr.block >= p.capacity) return false;
  return (p.word(addr.block / 64) >> (addr.block % 64)) & 1;
}

std::uint64_t AllocationMap::allocated_blocks() const {
  std::uint64_t total = 0;
  for (const PerNsd& p : nsds_) {
    std::uint64_t set = 0;
    for (const auto& page : p.pages) {
      if (!page) continue;
      for (std::uint64_t i = 0; i < kPageWords; ++i) {
        set += static_cast<std::uint64_t>(__builtin_popcountll(page[i]));
      }
    }
    if (p.capacity % 64 != 0) set -= 64 - p.capacity % 64;  // tail bits
    MGFS_ASSERT(set == p.used, "allocation bitmap disagrees with its count");
    total += set;
  }
  return total;
}

std::size_t AllocationMap::resident_pages() const {
  std::size_t n = 0;
  for (const PerNsd& p : nsds_) {
    for (const auto& page : p.pages) n += page != nullptr;
  }
  return n;
}

}  // namespace mgfs::gpfs
