#include "storage/raid.hpp"

#include <algorithm>
#include <utility>

#include "common/fanin.hpp"

namespace mgfs::storage {

RaidSet::RaidSet(sim::Simulator& sim, std::vector<Disk*> members,
                 RaidConfig cfg)
    : sim_(sim), members_(std::move(members)), cfg_(cfg) {
  MGFS_ASSERT(cfg_.data_disks >= 2, "RAID-5 needs >= 2 data disks");
  MGFS_ASSERT(members_.size() == cfg_.data_disks + 1,
              "member count must be data_disks + 1");
  MGFS_ASSERT(cfg_.stripe_unit > 0, "zero stripe unit");
  Bytes min_cap = members_.front()->spec().capacity;
  for (const Disk* d : members_) {
    min_cap = std::min(min_cap, d->spec().capacity);
  }
  member_capacity_ = min_cap - (min_cap % cfg_.stripe_unit);
  capacity_ = member_capacity_ * cfg_.data_disks;
}

std::size_t RaidSet::parity_member(std::uint64_t stripe) const {
  // Left-symmetric: parity walks backwards from the last member.
  const std::size_t n = members_.size();
  return (n - 1) - static_cast<std::size_t>(stripe % n);
}

std::size_t RaidSet::data_member(std::uint64_t stripe, std::size_t col) const {
  MGFS_ASSERT(col < cfg_.data_disks, "bad data column");
  const std::size_t p = parity_member(stripe);
  // Data columns occupy the non-parity members in order, wrapping past p
  // (left-symmetric layout: column c maps to (p + 1 + c) mod n).
  return (p + 1 + col) % members_.size();
}

std::size_t RaidSet::failed_members() const {
  std::size_t n = 0;
  for (const Disk* d : members_) {
    if (d->failed()) ++n;
  }
  return n;
}

std::vector<RaidSet::DiskOp> RaidSet::plan(Bytes offset, Bytes len,
                                           bool write) const {
  std::vector<DiskOp> ops;
  if (failed()) return ops;
  const Bytes unit = cfg_.stripe_unit;
  const Bytes stripe_data = unit * cfg_.data_disks;
  const bool deg = degraded();

  Bytes pos = offset;
  const Bytes end = offset + len;
  while (pos < end) {
    const std::uint64_t stripe = pos / stripe_data;
    const Bytes in_stripe = pos % stripe_data;
    const Bytes stripe_end = std::min<Bytes>(end, (stripe + 1) * stripe_data);
    const Bytes span = stripe_end - pos;  // bytes of this stripe touched
    const std::size_t pmem = parity_member(stripe);
    const Bytes unit_base = stripe * unit;  // member-local offset of stripe

    const bool full_stripe = (in_stripe == 0 && span == stripe_data);

    // Which data columns does [pos, stripe_end) touch, and how much of each?
    Bytes cpos = in_stripe;
    const Bytes cend = in_stripe + span;
    while (cpos < cend) {
      const auto col = static_cast<std::size_t>(cpos / unit);
      const Bytes col_off = cpos % unit;
      const Bytes chunk = std::min(unit - col_off, cend - cpos);
      const std::size_t mem = data_member(stripe, col);
      const Bytes disk_off = unit_base + col_off;

      if (!write) {
        if (members_[mem]->failed()) {
          // Reconstruct: read the matching extent of every survivor.
          for (std::size_t m = 0; m < members_.size(); ++m) {
            if (m == mem) continue;
            ops.push_back({m, disk_off, chunk, false});
          }
        } else {
          ops.push_back({mem, disk_off, chunk, false});
        }
      } else {
        if (!full_stripe && !members_[mem]->failed()) {
          // Read-modify-write: read the old data first (the old parity
          // is read once per stripe, below).
          ops.push_back({mem, disk_off, chunk, false});
        }
        if (!members_[mem]->failed()) {
          ops.push_back({mem, disk_off, chunk, true});
        }
        (void)deg;  // degraded writes simply skip the lost member
      }
      cpos += chunk;
    }

    if (write && !members_[pmem]->failed()) {
      // One parity update per touched stripe, spanning the touched
      // extent; a partial stripe reads that old parity extent once.
      const Bytes poff = (in_stripe % unit == 0 && span >= unit)
                             ? 0
                             : (in_stripe % unit);
      const Bytes pfrom = unit_base + poff;
      const Bytes plen = std::min<Bytes>({unit - poff, span, unit});
      if (!full_stripe) ops.push_back({pmem, pfrom, plen, false});
      ops.push_back({pmem, pfrom, plen, true});
    }
    pos = stripe_end;
  }
  return ops;
}

void RaidSet::io(Bytes offset, Bytes len, bool write, IoCallback done) {
  MGFS_ASSERT(static_cast<bool>(done), "raid io without completion");
  if (len == 0 || offset + len > capacity_) {
    sim_.defer([done = std::move(done)] {
      done(Status(Errc::invalid_argument, "raid io out of range"));
    });
    return;
  }
  if (failed()) {
    sim_.defer([done = std::move(done)] {
      done(Status(Errc::io_error, "raid set lost two members"));
    });
    return;
  }
  auto ops = plan(offset, len, write);
  MGFS_ASSERT(!ops.empty(), "plan produced no ops for valid request");

  FanIn fan(ops.size(), std::move(done));
  for (const DiskOp& op : ops) {
    members_[op.member]->io(op.offset, op.len, op.write, fan);
  }
}

void RaidSet::rebuild(std::size_t member, sim::Callback on_done, Bytes chunk) {
  MGFS_ASSERT(member < members_.size(), "bad member index");
  MGFS_ASSERT(!members_[member]->failed(),
              "replace() the disk before rebuilding onto it");
  MGFS_ASSERT(!rebuilding_, "rebuild already in progress");
  rebuilding_ = true;
  auto done = std::make_shared<sim::Callback>(std::move(on_done));
  rebuild_chunk(member, 0, chunk, std::move(done));
}

void RaidSet::rebuild_chunk(std::size_t member, Bytes offset, Bytes chunk,
                            std::shared_ptr<sim::Callback> on_done) {
  if (offset >= member_capacity_) {
    rebuilding_ = false;
    if (*on_done) (*on_done)();
    return;
  }
  const Bytes len = std::min(chunk, member_capacity_ - offset);

  // Survivor reads done -> write the reconstructed extent to the target.
  FanIn survivors(members_.size() - 1, [this, member, offset, len, chunk,
                                        on_done] {
    members_[member]->io(offset, len, true,
                         [this, member, offset, len, chunk,
                          on_done](const Status& st) {
                           (void)st;  // a failed rebuild target just stalls;
                                      // callers watch rebuilding()
                           rebuild_chunk(member, offset + len, chunk, on_done);
                         });
  });
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (m != member) members_[m]->io(offset, len, false, survivors);
  }
}

}  // namespace mgfs::storage
