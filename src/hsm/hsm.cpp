#include "hsm/hsm.hpp"

#include <algorithm>
#include <memory>

#include "common/log.hpp"

namespace mgfs::hsm {

HsmManager::HsmManager(sim::Simulator& sim, gridftp::FileStore& cache,
                       TapeLibrary& tape, HsmConfig cfg)
    : sim_(sim), cache_(cache), tape_(tape), cfg_(cfg) {
  MGFS_ASSERT(cfg_.low_watermark < cfg_.high_watermark &&
                  cfg_.high_watermark <= 1.0,
              "bad water marks");
  MGFS_ASSERT(cfg_.archive_piece > 0, "zero archive piece");
}

double HsmManager::fill_fraction() const {
  return static_cast<double>(cache_.used()) /
         static_cast<double>(cache_.capacity());
}

std::size_t HsmManager::piece_count(const Entry& e) const {
  return static_cast<std::size_t>(ceil_div(e.size, cfg_.archive_piece));
}

Bytes HsmManager::piece_len(const Entry& e, std::size_t idx) const {
  const Bytes start = static_cast<Bytes>(idx) * cfg_.archive_piece;
  return std::min(cfg_.archive_piece, e.size - start);
}

Status HsmManager::ingest(const std::string& name, Bytes size) {
  if (files_.count(name)) return Status(Errc::exists, name);
  auto ext = cache_.add(name, size);
  if (!ext.ok()) return ext.error();
  Entry e;
  e.size = size;
  e.resident = true;
  e.last_access = sim_.now();
  files_[name] = std::move(e);
  return Status{};
}

bool HsmManager::resident(const std::string& name) const {
  auto it = files_.find(name);
  return it != files_.end() && it->second.resident;
}

bool HsmManager::archived(const std::string& name) const {
  auto it = files_.find(name);
  return it != files_.end() && !it->second.pieces.empty();
}

void HsmManager::archive_pieces(const std::string& name, std::size_t idx,
                                std::function<void(const Status&)> done) {
  Entry& e = files_.at(name);
  if (idx >= piece_count(e)) {
    done(Status{});
    return;
  }
  const Bytes len = piece_len(e, idx);
  tape_.append(len, [this, name, idx, len,
                     done = std::move(done)](Result<TapeAddr> addr) mutable {
    if (!addr.ok()) {
      done(addr.error());
      return;
    }
    Entry& e2 = files_.at(name);
    e2.pieces.push_back(*addr);
    if (mirror_ != nullptr) {
      mirror_->append(len, [this, name, idx,
                            done = std::move(done)](Result<TapeAddr> m)
                          mutable {
        if (!m.ok()) {
          done(m.error());
          return;
        }
        files_.at(name).mirror_pieces.push_back(*m);
        archive_pieces(name, idx + 1, std::move(done));
      });
    } else {
      archive_pieces(name, idx + 1, std::move(done));
    }
  });
}

void HsmManager::archive(const std::string& name,
                         std::function<void(const Status&)> done) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    sim_.defer([done = std::move(done), name] {
      done(Status(Errc::not_found, name));
    });
    return;
  }
  if (!it->second.pieces.empty()) {
    sim_.defer([done = std::move(done)] { done(Status{}); });  // idempotent
    return;
  }
  archive_pieces(name, 0, std::move(done));
}

void HsmManager::recall_pieces(const std::string& name, std::size_t idx,
                               double t0,
                               std::function<void(const Status&)> done) {
  Entry& e = files_.at(name);
  if (idx >= piece_count(e)) {
    e.resident = true;
    ++recalls_;
    recall_latency_.add(sim_.now() - t0);
    done(Status{});
    return;
  }
  const Bytes len = piece_len(e, idx);
  const TapeAddr addr = e.pieces[idx];
  tape_.read(addr, len, [this, name, idx, len, t0,
                         done = std::move(done)](const Status& st) mutable {
    if (st.ok()) {
      recall_pieces(name, idx + 1, t0, std::move(done));
      return;
    }
    // Primary media problem: the copyright-library path — read the
    // remote second copy instead.
    Entry& e2 = files_.at(name);
    if (mirror_ == nullptr || idx >= e2.mirror_pieces.size()) {
      done(st);
      return;
    }
    ++mirror_recalls_;
    mirror_->read(e2.mirror_pieces[idx], len,
                  [this, name, idx, t0,
                   done = std::move(done)](const Status& st2) mutable {
                    if (!st2.ok()) {
                      done(st2);
                      return;
                    }
                    recall_pieces(name, idx + 1, t0, std::move(done));
                  });
  });
}

void HsmManager::ensure_online(const std::string& name,
                               std::function<void(const Status&)> done) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    sim_.defer([done = std::move(done), name] {
      done(Status(Errc::not_found, name));
    });
    return;
  }
  it->second.last_access = sim_.now();
  if (it->second.resident) {
    sim_.defer([done = std::move(done)] { done(Status{}); });
    return;
  }
  if (it->second.pieces.empty()) {
    sim_.defer([done = std::move(done), name] {
      done(Status(Errc::io_error, name + " purged but never archived"));
    });
    return;
  }
  // Re-reserve disk space, then stream back.
  auto ext = cache_.add(name, it->second.size);
  if (!ext.ok()) {
    sim_.defer([done = std::move(done), e = ext.error()] { done(e); });
    return;
  }
  recall_pieces(name, 0, sim_.now(), std::move(done));
}

const std::string* HsmManager::pick_lru_resident() const {
  const std::string* best = nullptr;
  double best_t = 0;
  for (const auto& [name, e] : files_) {
    if (!e.resident) continue;
    if (best == nullptr || e.last_access < best_t) {
      best = &name;
      best_t = e.last_access;
    }
  }
  return best;
}

void HsmManager::run_policy(std::function<void(const Status&)> done) {
  if (fill_fraction() <= cfg_.high_watermark) {
    sim_.defer([done = std::move(done)] { done(Status{}); });
    return;
  }
  // Archive-then-purge LRU files until at or below the low water mark.
  auto finish = std::make_shared<std::function<void(const Status&)>>(
      std::move(done));
  // The step holds itself weakly and each archive in flight holds it
  // strongly, so it lives exactly as long as the policy run.
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, finish, weak = std::weak_ptr(step)] {
    if (fill_fraction() <= cfg_.low_watermark) {
      (*finish)(Status{});
      return;
    }
    const std::string* victim = pick_lru_resident();
    if (victim == nullptr) {
      (*finish)(Status(Errc::no_space, "nothing left to purge"));
      return;
    }
    const std::string name = *victim;
    archive(name, [this, name, finish, self = weak.lock()](const Status& st) {
      if (!st.ok()) {
        (*finish)(st);
        return;
      }
      Entry& e = files_.at(name);
      MGFS_ASSERT(cache_.remove(name).ok(), "purge of unknown extent");
      e.resident = false;
      ++migrations_;
      MGFS_INFO("hsm", "migrated " << name << " to tape, fill now "
                                   << fill_fraction());
      (*self)();
    });
  };
  (*step)();
}

}  // namespace mgfs::hsm
