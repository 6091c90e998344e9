// Hierarchical namespace and inodes.
//
// A real (in-memory) file-system metadata store: directory tree, inode
// table, permission checks against grid principals, and the one record
// of where every copy of every file block lives. It lives on the
// file-system manager node; clients reach it via RPC (filesystem.hpp
// glues the two). File *contents* are not stored — only block placement
// — per DESIGN.md's "real metadata, modeled data" rule.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

struct Inode {
  InodeNum ino = 0;
  FileType type = FileType::regular;
  std::string owner_dn;
  Mode mode;
  Bytes size = 0;
  double mtime = 0;
  std::uint32_t nlink = 1;
  /// Data copies kept for this file (mmchattr -r). 1 = unreplicated.
  /// Only tells allocation how many copies to produce; the copies
  /// themselves are read through Namespace::placement.
  std::uint8_t replication = 1;
  /// Primary copy (copy 0) of each block; nullopt = hole (never
  /// written). Dense, because every file has one; further copies of
  /// replicated blocks live in the Namespace's sparse replica table.
  std::vector<std::optional<BlockAddr>> blocks;
  /// Directory entries (only for type == directory).
  std::map<std::string, InodeNum> entries;
};

struct StatInfo {
  InodeNum ino;
  FileType type;
  std::string owner_dn;
  Mode mode;
  Bytes size;
  double mtime;
  std::uint32_t nlink;
};

/// The metadata store. All paths are absolute ("/a/b/c"); components may
/// not contain '/' or be "." / "..".
class Namespace {
 public:
  explicit Namespace(Bytes block_size);

  Bytes block_size() const { return block_size_; }

  // --- lookup ----------------------------------------------------------
  Result<InodeNum> resolve(std::string_view path) const;
  Result<StatInfo> stat(std::string_view path) const;
  Result<StatInfo> stat(InodeNum ino) const;
  Result<std::vector<std::string>> readdir(std::string_view path,
                                           const Principal& who) const;
  bool exists(std::string_view path) const;

  // --- mutation --------------------------------------------------------
  /// Create a regular file numbered with the next free inode number
  /// congruent to `residue` mod `modulus`; the numbers skipped to reach
  /// it stay unused. The default numbers consecutively.
  Result<InodeNum> create(std::string_view path, const Principal& who,
                          Mode mode, double now, std::uint32_t modulus = 1,
                          std::uint32_t residue = 0);
  Result<InodeNum> mkdir(std::string_view path, const Principal& who,
                         Mode mode, double now);
  /// Unlink a file; returns every copy of every block it held so the
  /// caller can free them in the allocation map.
  Result<std::vector<BlockAddr>> unlink(std::string_view path,
                                        const Principal& who);
  Status rmdir(std::string_view path, const Principal& who);
  Status rename(std::string_view from, std::string_view to,
                const Principal& who);
  Status chmod(std::string_view path, const Principal& who, Mode mode);
  Status chown(std::string_view path, const Principal& who,
               const std::string& new_owner_dn);
  /// Shrink (or logically extend) a file; returns every copy of the
  /// blocks cut loose.
  Result<std::vector<BlockAddr>> truncate(std::string_view path,
                                          const Principal& who, Bytes size);

  // --- data-path metadata ----------------------------------------------
  /// Access checks used by open().
  Status check_read(InodeNum ino, const Principal& who) const;
  Status check_write(InodeNum ino, const Principal& who) const;

  /// Every copy of block `bi`: one for an unreplicated block, none for a
  /// hole, a slot past the end of the map or a stale inode.
  BlockPlacement placement(InodeNum ino, std::uint64_t bi) const;
  /// Install a freshly allocated single-copy block at block index `bi`.
  Status set_block(InodeNum ino, std::uint64_t bi, BlockAddr addr);
  /// Overwrite every copy of block `bi`: `p.addr[0]` becomes the primary,
  /// the rest and the divergence mask go to the replica table (a single
  /// copy carries no mask), and `copies == 0` turns the slot into a hole.
  /// The caller frees whatever addresses it drops.
  Status set_placement(InodeNum ino, std::uint64_t bi,
                       const BlockPlacement& p);
  /// Every (inode, block) holding more than one copy, in ascending order.
  std::vector<std::pair<InodeNum, std::uint64_t>> replicated_blocks() const;
  /// Grow size after a write reaching `new_size` (never shrinks).
  Status extend_size(InodeNum ino, Bytes new_size, double now);
  /// Set the file's data-copy count (mmchattr -r). Applies to blocks
  /// allocated from now on; existing copies are re-protected by
  /// restripe/reconcile, not here.
  Status set_replication(InodeNum ino, std::uint8_t copies) {
    auto it = inodes_.find(ino);
    if (it == inodes_.end()) return Status(Errc::not_found, "no such inode");
    if (copies < 1 || copies > kMaxReplicas) {
      return Status(Errc::invalid_argument, "replication out of range");
    }
    it->second.replication = copies;
    return Status{};
  }

  const Inode* inode(InodeNum ino) const;  // nullptr if absent (for tests)
  std::size_t inode_count() const { return inodes_.size(); }
  /// All live inode numbers, sorted (fsck-style scans).
  std::vector<InodeNum> inode_list() const;

 private:
  struct Walk {
    InodeNum parent;
    std::string leaf;
  };

  Inode& get(InodeNum ino);
  const Inode& get(InodeNum ino) const;
  Result<Walk> walk_to_parent(std::string_view path) const;
  /// create and mkdir: a new `type` inode under `path`'s parent,
  /// numbered as create documents.
  Result<InodeNum> add_entry(std::string_view path, const Principal& who,
                             Mode mode, double now, FileType type,
                             std::uint32_t modulus, std::uint32_t residue);
  static bool may_read(const Inode& n, const Principal& who);
  static bool may_write(const Inode& n, const Principal& who);
  BlockPlacement placement_of(const Inode& n, std::uint64_t bi) const;
  /// Remove the replica-table entries of `ino` from block `first` on,
  /// appending their copies to `out`.
  void drop_replicas(InodeNum ino, std::uint64_t first,
                     std::vector<BlockAddr>& out);

  /// Copies 1.. of a replicated block and the divergence mask over all
  /// of its copies; copy 0 is the inode's `blocks` slot.
  struct ReplicaTail {
    std::uint8_t copies = 0;  // including the primary
    std::uint8_t divergent = 0;
    std::array<BlockAddr, kMaxReplicas - 1> addr{};
  };
  using BlockKey = std::pair<InodeNum, std::uint64_t>;

  Bytes block_size_;
  InodeNum next_ino_ = kRootIno;
  std::unordered_map<InodeNum, Inode> inodes_;
  /// Sparse: only blocks with more than one copy have an entry. Ordered,
  /// so admin walks (reconcile, evacuate) visit blocks in a fixed order.
  std::map<BlockKey, ReplicaTail> replicas_;
};

/// Split an absolute path into components; invalid_argument on bad paths.
Result<std::vector<std::string>> split_path(std::string_view path);

}  // namespace mgfs::gpfs
