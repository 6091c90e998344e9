// Per-client metadata write-ahead journal (GPFS recovery logs).
//
// GPFS gives every node a private recovery log; metadata updates are
// logged there *before* the in-place mutation, so when a node dies the
// file-system manager can replay (undo) its uncommitted updates and
// bring metadata back to a consistent state without a full fsck.
//
// We journal the one multi-step metadata mutation a client drives
// incrementally: block allocation. `op_allocate` installs every copy of
// a block ahead of the data landing on disk (allocate-ahead), and a
// client that dies before fsync leaves those installs dangling — the
// block map references storage that holds no committed data. Each copy
// is logged (an alloc record for the primary, a replica record for each
// further copy) before `Namespace::set_placement` installs the block;
// fsync (`op_extend_size`) is the commit point that retires records up
// to the committed size. On expel, the surviving manager walks the dead
// client's uncommitted tail newest-first and undoes each install.
//
// Create / unlink / truncate execute atomically inside one manager op,
// so they need no undo — `note_sync_op` only counts them, matching how
// GPFS logs but never needs to undo single-op transactions.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gpfs/token.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

enum class JournalOp { alloc, create, unlink, truncate, replica };

struct JournalRecord {
  std::uint64_t lsn = 0;  // log sequence number, monotonic per journal
  ClientId client = 0;
  JournalOp op = JournalOp::alloc;
  InodeNum ino = 0;
  std::uint64_t block = 0;  // block index within the inode
  BlockAddr addr;           // where the allocate placed it
};

class MetaJournal {
 public:
  /// WAL rule: call before Namespace::set_placement for the same install.
  /// Undoing it punches a hole, freeing every copy still attached.
  std::uint64_t log_alloc(ClientId c, InodeNum ino, std::uint64_t bi,
                          BlockAddr addr);

  /// A further copy of (ino, bi) was placed at `addr`, ahead of the
  /// writer propagating data to it. Same commit points as allocs
  /// (fsync / shared-block reference); on expel-replay the copy is
  /// dropped from the block's placement and its block freed — a crashed
  /// writer's partially-propagated copies are undone, never left as
  /// silent stale replicas.
  std::uint64_t log_replica(ClientId c, InodeNum ino, std::uint64_t bi,
                            BlockAddr addr);

  /// Count a single-op (atomic) metadata mutation; nothing to undo.
  void note_sync_op(ClientId c, JournalOp op, InodeNum ino);

  /// fsync commit point: retire `c`'s alloc records for `ino` whose
  /// block index is below `blocks` (the committed block count).
  void commit_allocs(ClientId c, InodeNum ino, std::uint64_t blocks);

  /// A block changed hands (another writer re-allocated or now
  /// references it): retire every record for (ino, bi) not owned by
  /// `except` so replay never frees a block a survivor references.
  void commit_block(InodeNum ino, std::uint64_t bi, ClientId except);

  /// The inode's block list was torn down at the namespace level
  /// (unlink / truncate freed the blocks): pending undos are moot.
  void forget_inode(InodeNum ino);

  /// Remove and return `c`'s uncommitted records, newest first — the
  /// undo order for replay.
  std::vector<JournalRecord> take_uncommitted(ClientId c);

  /// Drop a client's records without replay (clean unmount).
  void drop_client(ClientId c);

  /// Clients with at least one uncommitted record, sorted — the manager
  /// takeover uses this to find journal tails whose owners never
  /// reasserted membership.
  std::vector<ClientId> clients_with_uncommitted() const;

  std::size_t uncommitted_count(ClientId c) const;
  /// Any live record for `ino`? Metanode delegation refuses to move an
  /// inode whose journal tail is non-empty — records must stay in the
  /// slice that will replay them.
  bool has_uncommitted(InodeNum ino) const;
  std::size_t uncommitted_total() const { return live_; }
  std::uint64_t records_logged() const { return logged_; }

 private:
  // Uncommitted records live in an append-only slab (lsn order) with
  // tombstones; three posting lists index it so the hot retire paths —
  // commit_block on every shared-block reference, commit_allocs on
  // every fsync — touch only the records they retire instead of
  // scanning the whole journal (O(total uncommitted) per call grows
  // quadratic at 1000-client scale). Dead slots are reclaimed by
  // rebuilding slab + indexes once live records fall below half the
  // slab, so the amortized cost per logged record stays O(1).
  struct Slot {
    JournalRecord rec;
    bool live = false;
  };

  std::uint64_t log_record(ClientId c, JournalOp op, InodeNum ino,
                           std::uint64_t bi, BlockAddr addr);
  void kill(std::uint32_t idx);
  void maybe_compact();
  void compact();

  std::uint64_t next_lsn_ = 1;
  std::uint64_t logged_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slab_;  // uncommitted allocs, lsn order, tombstoned
  // Values are slab indexes in lsn order; entries whose slot died via
  // another index are pruned lazily when the list is next walked.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_block_;
  std::unordered_map<ClientId, std::vector<std::uint32_t>> by_client_;
  std::unordered_map<InodeNum, std::vector<std::uint32_t>> by_inode_;
};

}  // namespace mgfs::gpfs
