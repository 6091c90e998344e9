// Per-client metadata write-ahead journal (GPFS recovery logs).
//
// GPFS gives every node a private recovery log; metadata updates are
// logged there *before* the in-place mutation, so when a node dies the
// file-system manager can replay (undo) its uncommitted updates and
// bring metadata back to a consistent state without a full fsck.
//
// We journal the one multi-step metadata mutation a client drives
// incrementally: block allocation. A write grant (`op_write_grant`)
// installs every copy of each block of the write's batch ahead of the
// data landing on disk (allocate-ahead), and a client that dies before
// committing leaves those installs dangling — the block map references
// storage that holds no committed data. Each
// copy is logged (an alloc record for the primary, a replica record for
// each further copy) before `Namespace::set_placement` installs the
// block. The commit point is `op_extend_size`, which a client sends on
// an fsync or close; it frees the committer's allocations it has not
// written since its last commit (below), and retires its other records
// up to the committed size. On expel, the surviving manager walks the
// dead client's uncommitted tail newest-first and undoes each install.
// A write grant that references a block another client placed retires
// that client's records for it (`commit_block`); a client writes a
// block only under an rw token whose grant referenced it, so no expel
// frees a block a survivor wrote. Each record carries the id of the
// newest grant of its client that referenced its block, 0 once that
// client's rw token over the block broke: the block-free rule of
// DESIGN.md §6.
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
  std::uint64_t grant = 0;  // newest referencing grant; 0 = never freed
};

class MetaJournal {
 public:
  /// WAL rule: call before Namespace::set_placement for the same install.
  /// Undoing it punches a hole, freeing every copy still attached.
  std::uint64_t log_alloc(ClientId c, InodeNum ino, std::uint64_t bi,
                          BlockAddr addr, std::uint64_t grant = 0);

  /// A further copy of (ino, bi) was placed at `addr`, ahead of the
  /// writer propagating data to it. Same commit points as allocs
  /// (fsync / shared-block reference); on expel-replay the copy is
  /// dropped from the block's placement and its block freed — a crashed
  /// writer's partially-propagated copies are undone, never left as
  /// silent stale replicas.
  std::uint64_t log_replica(ClientId c, InodeNum ino, std::uint64_t bi,
                            BlockAddr addr, std::uint64_t grant = 0);

  /// Count a single-op (atomic) metadata mutation; nothing to undo.
  void note_sync_op(ClientId c, JournalOp op, InodeNum ino);

  /// Commit point (op_extend_size) of `c`'s writes to `ino`, naming
  /// `grant`, the newest grant `c` had installed: remove and return,
  /// newest first, the records to undo — those outside `written` (the
  /// blocks `c` wrote since its last commit) with a nonzero id no newer
  /// than `grant` — and retire the rest whose block index is below
  /// `blocks` (the committed block count).
  std::vector<JournalRecord> commit_allocs(ClientId c, InodeNum ino,
                                           std::uint64_t blocks,
                                           BlockRange written = {},
                                           std::uint64_t grant = 0);

  /// `except`'s grant `grant` references (ino, bi): retire every record
  /// for it not owned by `except`, so replay never frees a block a
  /// survivor references, and stamp `except`'s own records that a
  /// commit may still free with `grant`.
  void commit_block(InodeNum ino, std::uint64_t bi, ClientId except,
                    std::uint64_t grant = 0);

  /// `c`'s rw token over `blocks` of `ino` broke: no commit frees its
  /// records there any more.
  void pin(ClientId c, InodeNum ino, BlockRange blocks);
  /// This slice's tokens died with its manager: pin every record.
  void pin_all();
  /// May a commit of a client other than `c` still free (ino, bi)?
  bool freeable_by_other(InodeNum ino, std::uint64_t bi, ClientId c) const;

  /// The inode's block list was torn down at the namespace level
  /// (unlink / truncate freed the blocks): pending undos are moot.
  void forget_inode(InodeNum ino);

  /// Remove and return `c`'s uncommitted records, newest first — the
  /// undo order for replay.
  std::vector<JournalRecord> take_uncommitted(ClientId c);

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
                           std::uint64_t bi, BlockAddr addr,
                           std::uint64_t grant);
  void kill(std::uint32_t idx);
  /// Kill the live records of `index[key]` that `pred` selects, pruning
  /// them (and entries retired via another index) from the list. `pred`
  /// may update the records it keeps.
  template <typename Index, typename Pred>
  void kill_where(Index& index, const typename Index::key_type& key,
                  Pred pred);
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
