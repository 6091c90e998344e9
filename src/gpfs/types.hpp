// Shared vocabulary types of the MGFS parallel file system.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace mgfs::gpfs {

using InodeNum = std::uint64_t;
inline constexpr InodeNum kRootIno = 1;

/// Who is acting. Identity on the grid is the DN (paper §6: files belong
/// to the person, not to one site's UID for them); uid/gid are the
/// *local* account the DN resolved to through the site's grid-mapfile.
struct Principal {
  std::string dn;          // grid identity, e.g. "/C=US/O=NPACI/CN=alice"
  std::uint32_t uid = 0;   // site-local uid (display/compat only)
  std::uint32_t gid = 0;
  bool is_admin = false;   // site administrator (root-equivalent)
};

/// A half-open range of file blocks, [lo, hi).
struct BlockRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Where a file-system block lives: which NSD, which block slot on it.
struct BlockAddr {
  std::uint32_t nsd = 0;
  std::uint64_t block = 0;

  /// Ordered by (nsd, block), so a sorted run of addresses groups
  /// copies that share a block.
  friend auto operator<=>(const BlockAddr&, const BlockAddr&) = default;
};

/// Replication ceiling. GPFS caps metadata/data replicas at 2 in the
/// 2.3 era and 3 later; 3 copies already covers "home SAN + two grid
/// sites", so the placement array is fixed-size rather than heap-backed.
inline constexpr std::uint32_t kMaxReplicas = 3;

/// All copies of one logical file block; `copies == 0` is a hole and an
/// unreplicated block is a one-copy placement. `addr[0]` is the primary
/// (the striping-rule placement); further copies live on NSDs in
/// *different* failure domains (Nsd::site — a cluster/site in the DEISA
/// multi-site configuration). Bit i of `divergent` set means copy i
/// missed a committed write (its NSD was unreachable when the writer
/// propagated) and must not serve reads until reconciled.
struct BlockPlacement {
  std::uint8_t copies = 0;
  std::uint8_t divergent = 0;  // bitmask over addr[0..copies)
  std::array<BlockAddr, kMaxReplicas> addr{};

  void add(BlockAddr a) {
    addr[copies] = a;
    ++copies;
  }
  bool is_divergent(std::uint8_t i) const {
    return (divergent & (std::uint8_t{1} << i)) != 0;
  }
  std::uint8_t clean_copies() const {
    std::uint8_t n = 0;
    for (std::uint8_t i = 0; i < copies; ++i) {
      if (!is_divergent(i)) ++n;
    }
    return n;
  }
  /// Index of the copy at `a`, or `copies` when no copy lives there.
  std::uint8_t find(BlockAddr a) const {
    std::uint8_t i = 0;
    while (i < copies && !(addr[i] == a)) ++i;
    return i;
  }
  /// Drop copy `i`, compacting the address array and divergence mask.
  void remove(std::uint8_t i) {
    const auto below = static_cast<std::uint8_t>((1u << i) - 1);
    divergent = static_cast<std::uint8_t>((divergent & below) |
                                          ((divergent >> 1) & ~below));
    for (std::uint8_t j = i; j + 1 < copies; ++j) addr[j] = addr[j + 1];
    --copies;
  }
  static BlockPlacement single(BlockAddr a) {
    BlockPlacement p;
    p.add(a);
    return p;
  }

  friend bool operator==(const BlockPlacement&, const BlockPlacement&) =
      default;
};

enum class FileType { regular, directory };

/// Effective access a mount session has to a file system. Local mounts
/// are read_write; imported mounts are capped by the exporting cluster's
/// mmauth grant (the GPFS 2.3 PTF 2 per-filesystem control of §6.2).
enum class AccessMode { none, read_only, read_write };

/// Permission classes: owner (DN match) and other. Two three-bit groups,
/// owner high: 0644-style constants use the familiar octal spelling.
struct Mode {
  // bits: owner r=040 w=020 x=010, other r=04 w=02 x=01
  std::uint16_t bits = 064;  // rw-r--

  bool owner_can_read() const { return bits & 040; }
  bool owner_can_write() const { return bits & 020; }
  bool other_can_read() const { return bits & 04; }
  bool other_can_write() const { return bits & 02; }

  friend bool operator==(const Mode&, const Mode&) = default;
};

struct FsConfig {
  std::string name = "gpfs0";   // device name, e.g. "gpfs-wan"
  Bytes block_size = 1 * MiB;   // striping unit across NSDs
  /// Disk-lease membership (DESIGN.md §6). Renewal keeps a mounted
  /// client's lease valid for `lease_duration` seconds; a node whose
  /// lease lapsed may be expelled once another `lease_recovery_wait`
  /// passes without a renewal. Defaults are deliberately generous so
  /// short simulations never expel an idle-but-healthy client.
  double lease_duration = 60.0;
  double lease_recovery_wait = 30.0;
  /// Metadata shards (token domains). 1 = the historic single-manager
  /// plane; N > 1 hashes inodes into N domains, each with its own
  /// TokenManager, journal slice, manager node and epoch. Shard 0 is
  /// the lease home: disk leases stay global (one heartbeat covers all
  /// shards) and are rebuilt only when shard 0 fails over.
  std::uint32_t meta_shards = 1;
  /// CPU seconds a shard's manager spends per metadata op (token
  /// grants, opens, allocations...). 0 disables the charge entirely —
  /// the historic behaviour, byte-identical event order. Non-zero
  /// serializes ops through the owning shard's CPU, which is what the
  /// shard_sweep bench measures scaling against.
  double meta_cpu_per_op = 0.0;
  /// Metanode auto-delegation: after this many consecutive token
  /// acquires on one inode by a single client, migrate the inode's
  /// token/journal authority to the shard whose manager is nearest
  /// that client (GPFS metanode election). 0 = off.
  std::uint32_t auto_delegate_ops = 0;
};

/// Flags for Client::open.
struct OpenFlags {
  bool read = true;
  bool write = false;
  bool create = false;
  bool truncate = false;
  /// Data copies for the file if this open creates it (mmchattr -r at
  /// birth). 0 or 1 = unreplicated; ignored when the file already
  /// exists. FileSystem::set_replication (mmchattr -r) changes it later.
  std::uint8_t replicas = 0;

  static OpenFlags ro() { return {true, false, false, false}; }
  static OpenFlags rw() { return {true, true, false, false}; }
  static OpenFlags create_rw() { return {true, true, true, false}; }
  static OpenFlags create_replicated(std::uint8_t copies) {
    return {true, true, true, false, copies};
  }
};

}  // namespace mgfs::gpfs
