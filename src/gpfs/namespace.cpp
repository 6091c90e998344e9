#include "gpfs/namespace.hpp"

#include <algorithm>

namespace mgfs::gpfs {

Result<std::vector<std::string>> split_path(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    return err(Errc::invalid_argument, "path must be absolute");
  }
  std::vector<std::string> parts;
  std::size_t i = 1;
  while (i < path.size()) {
    std::size_t j = path.find('/', i);
    if (j == std::string_view::npos) j = path.size();
    if (j == i) {
      return err(Errc::invalid_argument, "empty path component");
    }
    std::string_view comp = path.substr(i, j - i);
    if (comp == "." || comp == "..") {
      return err(Errc::invalid_argument, "'.' and '..' are not supported");
    }
    parts.emplace_back(comp);
    i = j + 1;
  }
  return parts;
}

Namespace::Namespace(Bytes block_size) : block_size_(block_size) {
  MGFS_ASSERT(block_size > 0, "zero block size");
  Inode root;
  root.ino = next_ino_++;
  root.type = FileType::directory;
  root.owner_dn = "";
  root.mode.bits = 077;  // world-writable root by default
  root.nlink = 2;
  inodes_.emplace(root.ino, std::move(root));
}

Inode& Namespace::get(InodeNum ino) {
  auto it = inodes_.find(ino);
  MGFS_ASSERT(it != inodes_.end(), "dangling inode reference");
  return it->second;
}

const Inode& Namespace::get(InodeNum ino) const {
  auto it = inodes_.find(ino);
  MGFS_ASSERT(it != inodes_.end(), "dangling inode reference");
  return it->second;
}

bool Namespace::may_read(const Inode& n, const Principal& who) {
  if (who.is_admin) return true;
  return (n.owner_dn == who.dn) ? n.mode.owner_can_read()
                                : n.mode.other_can_read();
}

bool Namespace::may_write(const Inode& n, const Principal& who) {
  if (who.is_admin) return true;
  return (n.owner_dn == who.dn) ? n.mode.owner_can_write()
                                : n.mode.other_can_write();
}

Result<InodeNum> Namespace::resolve(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) return parts.error();
  InodeNum cur = kRootIno;
  for (const std::string& comp : *parts) {
    const Inode& n = get(cur);
    if (n.type != FileType::directory) {
      return err(Errc::not_a_directory, comp);
    }
    auto it = n.entries.find(comp);
    if (it == n.entries.end()) {
      return err(Errc::not_found, std::string(path));
    }
    cur = it->second;
  }
  return cur;
}

Result<Namespace::Walk> Namespace::walk_to_parent(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) return parts.error();
  if (parts->empty()) {
    return err(Errc::invalid_argument, "operation on root");
  }
  InodeNum cur = kRootIno;
  for (std::size_t i = 0; i + 1 < parts->size(); ++i) {
    const Inode& n = get(cur);
    if (n.type != FileType::directory) {
      return err(Errc::not_a_directory, (*parts)[i]);
    }
    auto it = n.entries.find((*parts)[i]);
    if (it == n.entries.end()) {
      return err(Errc::not_found, (*parts)[i]);
    }
    cur = it->second;
  }
  if (get(cur).type != FileType::directory) {
    return err(Errc::not_a_directory, parts->back());
  }
  return Walk{cur, parts->back()};
}

bool Namespace::exists(std::string_view path) const {
  return resolve(path).ok();
}

Result<StatInfo> Namespace::stat(InodeNum ino) const {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return err(Errc::not_found, "stale inode");
  const Inode& n = it->second;
  return StatInfo{n.ino, n.type, n.owner_dn, n.mode,
                  n.size, n.mtime, n.nlink};
}

Result<StatInfo> Namespace::stat(std::string_view path) const {
  auto ino = resolve(path);
  if (!ino.ok()) return ino.error();
  return stat(*ino);
}

Result<std::vector<std::string>> Namespace::readdir(
    std::string_view path, const Principal& who) const {
  auto ino = resolve(path);
  if (!ino.ok()) return ino.error();
  const Inode& n = get(*ino);
  if (n.type != FileType::directory) {
    return err(Errc::not_a_directory, std::string(path));
  }
  if (!may_read(n, who)) {
    return err(Errc::permission_denied, std::string(path));
  }
  std::vector<std::string> names;
  names.reserve(n.entries.size());
  for (const auto& [name, child] : n.entries) {
    (void)child;
    names.push_back(name);
  }
  return names;
}

Result<InodeNum> Namespace::create(std::string_view path,
                                   const Principal& who, Mode mode,
                                   double now, std::uint32_t modulus,
                                   std::uint32_t residue) {
  MGFS_ASSERT(residue < modulus, "inode residue out of range");
  return add_entry(path, who, mode, now, FileType::regular, modulus, residue);
}

Result<InodeNum> Namespace::mkdir(std::string_view path, const Principal& who,
                                  Mode mode, double now) {
  return add_entry(path, who, mode, now, FileType::directory, 1, 0);
}

Result<InodeNum> Namespace::add_entry(std::string_view path,
                                      const Principal& who, Mode mode,
                                      double now, FileType type,
                                      std::uint32_t modulus,
                                      std::uint32_t residue) {
  auto w = walk_to_parent(path);
  if (!w.ok()) return w.error();
  Inode& parent = get(w->parent);
  if (!may_write(parent, who)) {
    return err(Errc::permission_denied, "parent of " + std::string(path));
  }
  if (parent.entries.count(w->leaf)) {
    return err(Errc::exists, std::string(path));
  }
  next_ino_ += 1 + (residue + modulus - (next_ino_ + 1) % modulus) % modulus;
  Inode n;
  n.ino = next_ino_;
  n.type = type;
  n.owner_dn = who.dn;
  n.mode = mode;
  n.mtime = now;
  if (type == FileType::directory) {
    n.nlink = 2;
    ++parent.nlink;
  }
  parent.entries[w->leaf] = n.ino;
  inodes_.emplace(next_ino_, std::move(n));
  return next_ino_;
}

Result<std::vector<BlockAddr>> Namespace::unlink(std::string_view path,
                                                 const Principal& who) {
  auto w = walk_to_parent(path);
  if (!w.ok()) return w.error();
  Inode& parent = get(w->parent);
  auto it = parent.entries.find(w->leaf);
  if (it == parent.entries.end()) {
    return err(Errc::not_found, std::string(path));
  }
  Inode& victim = get(it->second);
  if (victim.type == FileType::directory) {
    return err(Errc::is_a_directory, std::string(path));
  }
  if (!may_write(parent, who)) {
    return err(Errc::permission_denied, std::string(path));
  }
  std::vector<BlockAddr> freed;
  for (const auto& b : victim.blocks) {
    if (b.has_value()) freed.push_back(*b);
  }
  drop_replicas(it->second, 0, freed);
  inodes_.erase(it->second);
  parent.entries.erase(it);
  return freed;
}

Status Namespace::rmdir(std::string_view path, const Principal& who) {
  auto w = walk_to_parent(path);
  if (!w.ok()) return w.error();
  Inode& parent = get(w->parent);
  auto it = parent.entries.find(w->leaf);
  if (it == parent.entries.end()) {
    return Status(Errc::not_found, std::string(path));
  }
  Inode& victim = get(it->second);
  if (victim.type != FileType::directory) {
    return Status(Errc::not_a_directory, std::string(path));
  }
  if (!victim.entries.empty()) {
    return Status(Errc::not_empty, std::string(path));
  }
  if (!may_write(parent, who)) {
    return Status(Errc::permission_denied, std::string(path));
  }
  inodes_.erase(it->second);
  parent.entries.erase(it);
  --parent.nlink;
  return Status{};
}

Status Namespace::rename(std::string_view from, std::string_view to,
                         const Principal& who) {
  auto wf = walk_to_parent(from);
  if (!wf.ok()) return wf.error();
  auto wt = walk_to_parent(to);
  if (!wt.ok()) return wt.error();
  Inode& pf = get(wf->parent);
  Inode& pt = get(wt->parent);
  auto it = pf.entries.find(wf->leaf);
  if (it == pf.entries.end()) return Status(Errc::not_found, std::string(from));
  if (!may_write(pf, who) || !may_write(pt, who)) {
    return Status(Errc::permission_denied, std::string(from));
  }
  if (pt.entries.count(wt->leaf)) {
    return Status(Errc::exists, std::string(to));
  }
  const InodeNum moved = it->second;
  pf.entries.erase(it);
  pt.entries[wt->leaf] = moved;
  if (get(moved).type == FileType::directory && wf->parent != wt->parent) {
    --pf.nlink;
    ++pt.nlink;
  }
  return Status{};
}

Status Namespace::chmod(std::string_view path, const Principal& who,
                        Mode mode) {
  auto ino = resolve(path);
  if (!ino.ok()) return ino.error();
  Inode& n = get(*ino);
  if (!who.is_admin && n.owner_dn != who.dn) {
    return Status(Errc::permission_denied, std::string(path));
  }
  n.mode = mode;
  return Status{};
}

Status Namespace::chown(std::string_view path, const Principal& who,
                        const std::string& new_owner_dn) {
  auto ino = resolve(path);
  if (!ino.ok()) return ino.error();
  if (!who.is_admin) {
    return Status(Errc::permission_denied, "chown is admin-only");
  }
  get(*ino).owner_dn = new_owner_dn;
  return Status{};
}

Result<std::vector<BlockAddr>> Namespace::truncate(std::string_view path,
                                                   const Principal& who,
                                                   Bytes size) {
  auto ino = resolve(path);
  if (!ino.ok()) return ino.error();
  Inode& n = get(*ino);
  if (n.type != FileType::regular) {
    return err(Errc::is_a_directory, std::string(path));
  }
  if (!may_write(n, who)) {
    return err(Errc::permission_denied, std::string(path));
  }
  std::vector<BlockAddr> freed;
  const std::uint64_t keep = ceil_div(size, block_size_);
  while (n.blocks.size() > keep) {
    if (n.blocks.back().has_value()) freed.push_back(*n.blocks.back());
    n.blocks.pop_back();
  }
  drop_replicas(*ino, keep, freed);
  n.size = size;
  return freed;
}

Status Namespace::check_read(InodeNum ino, const Principal& who) const {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return Status(Errc::not_found, "stale inode");
  if (!may_read(it->second, who)) {
    return Status(Errc::permission_denied, "read");
  }
  return Status{};
}

Status Namespace::check_write(InodeNum ino, const Principal& who) const {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return Status(Errc::not_found, "stale inode");
  if (!may_write(it->second, who)) {
    return Status(Errc::permission_denied, "write");
  }
  return Status{};
}

BlockPlacement Namespace::placement_of(const Inode& n,
                                      std::uint64_t bi) const {
  if (bi >= n.blocks.size() || !n.blocks[bi].has_value()) return {};
  BlockPlacement p = BlockPlacement::single(*n.blocks[bi]);
  if (replicas_.empty()) return p;
  auto it = replicas_.find(BlockKey{n.ino, bi});
  if (it == replicas_.end()) return p;
  const ReplicaTail& t = it->second;
  for (std::uint8_t c = 1; c < t.copies; ++c) p.add(t.addr[c - 1]);
  p.divergent = t.divergent;
  return p;
}

BlockPlacement Namespace::placement(InodeNum ino, std::uint64_t bi) const {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return {};
  return placement_of(it->second, bi);
}

Status Namespace::set_block(InodeNum ino, std::uint64_t bi, BlockAddr addr) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return Status(Errc::not_found, "stale inode");
  Inode& n = it->second;
  if (n.blocks.size() <= bi) n.blocks.resize(bi + 1);
  if (n.blocks[bi].has_value()) {
    return Status(Errc::exists, "block already placed");
  }
  n.blocks[bi] = addr;
  return Status{};
}

Status Namespace::set_placement(InodeNum ino, std::uint64_t bi,
                                const BlockPlacement& p) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return Status(Errc::not_found, "stale inode");
  Inode& n = it->second;
  if (p.copies == 0) {
    if (bi < n.blocks.size()) n.blocks[bi] = std::nullopt;
  } else {
    if (n.blocks.size() <= bi) n.blocks.resize(bi + 1);
    n.blocks[bi] = p.addr[0];
  }
  if (p.copies <= 1) {
    if (!replicas_.empty()) replicas_.erase(BlockKey{ino, bi});
    return Status{};
  }
  ReplicaTail& t = replicas_[BlockKey{ino, bi}];
  t.copies = p.copies;
  t.divergent = p.divergent;
  for (std::uint8_t c = 1; c < p.copies; ++c) t.addr[c - 1] = p.addr[c];
  return Status{};
}

std::vector<std::pair<InodeNum, std::uint64_t>> Namespace::replicated_blocks()
    const {
  std::vector<BlockKey> out;
  out.reserve(replicas_.size());
  for (const auto& entry : replicas_) out.push_back(entry.first);
  return out;
}

void Namespace::drop_replicas(InodeNum ino, std::uint64_t first,
                              std::vector<BlockAddr>& out) {
  auto it = replicas_.lower_bound(BlockKey{ino, first});
  while (it != replicas_.end() && it->first.first == ino) {
    for (std::uint8_t c = 1; c < it->second.copies; ++c) {
      out.push_back(it->second.addr[c - 1]);
    }
    it = replicas_.erase(it);
  }
}

Status Namespace::extend_size(InodeNum ino, Bytes new_size, double now) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return Status(Errc::not_found, "stale inode");
  Inode& n = it->second;
  n.size = std::max(n.size, new_size);
  n.mtime = now;
  return Status{};
}

const Inode* Namespace::inode(InodeNum ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

std::vector<InodeNum> Namespace::inode_list() const {
  std::vector<InodeNum> out;
  out.reserve(inodes_.size());
  for (const auto& [ino, n] : inodes_) out.push_back(ino);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mgfs::gpfs
