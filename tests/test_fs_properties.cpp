// Property tests over the metadata layer: randomized namespace churn
// checked against a reference model, and allocation-leak invariants
// through full create/write/truncate/unlink cycles.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

// --------------------------------------------------------------------------
// Randomized namespace churn vs. a trivial reference model.
// --------------------------------------------------------------------------

class NamespaceChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NamespaceChurn, MatchesReferenceModel) {
  Namespace ns(1 * MiB);
  // Reference: path -> is_directory. Root always exists.
  std::map<std::string, bool> model = {{"/", true}};
  Rng rng(GetParam());
  const Principal root{"/CN=root", 0, 0, true};

  auto random_existing_dir = [&]() -> std::string {
    std::vector<std::string> dirs;
    for (const auto& [p, is_dir] : model) {
      if (is_dir) dirs.push_back(p);
    }
    return dirs[rng.below(dirs.size())];
  };
  auto join = [](const std::string& dir, const std::string& leaf) {
    return dir == "/" ? "/" + leaf : dir + "/" + leaf;
  };
  // "f12", built by appending: GCC 12 reports a false -Wrestrict on the
  // inlined prepend of `"f" + std::to_string(12)`.
  auto name = [](char kind, std::uint64_t n) {
    std::string s(1, kind);
    s += std::to_string(n);
    return s;
  };

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.below(5));
    if (op == 0) {  // create file
      const std::string p =
          join(random_existing_dir(), name('f', rng.below(40)));
      auto r = ns.create(p, root, Mode{066}, 0.0);
      if (model.count(p)) {
        EXPECT_EQ(r.code(), Errc::exists) << p;
      } else {
        ASSERT_TRUE(r.ok()) << p << ": " << r.error().to_string();
        model[p] = false;
      }
    } else if (op == 1) {  // mkdir
      const std::string p =
          join(random_existing_dir(), name('d', rng.below(10)));
      auto r = ns.mkdir(p, root, Mode{077}, 0.0);
      if (model.count(p)) {
        EXPECT_EQ(r.code(), Errc::exists) << p;
      } else {
        ASSERT_TRUE(r.ok()) << p;
        model[p] = true;
      }
    } else if (op == 2) {  // unlink a random model file
      std::vector<std::string> files;
      for (const auto& [p, is_dir] : model) {
        if (!is_dir) files.push_back(p);
      }
      if (files.empty()) continue;
      const std::string p = files[rng.below(files.size())];
      ASSERT_TRUE(ns.unlink(p, root).ok()) << p;
      model.erase(p);
    } else if (op == 3) {  // rmdir (must match emptiness semantics)
      std::vector<std::string> dirs;
      for (const auto& [p, is_dir] : model) {
        if (is_dir && p != "/") dirs.push_back(p);
      }
      if (dirs.empty()) continue;
      const std::string p = dirs[rng.below(dirs.size())];
      const std::string prefix = p + "/";
      bool empty = true;
      for (const auto& [q, d] : model) {
        (void)d;
        if (q.rfind(prefix, 0) == 0) empty = false;
      }
      auto st = ns.rmdir(p, root);
      if (empty) {
        ASSERT_TRUE(st.ok()) << p;
        model.erase(p);
      } else {
        EXPECT_EQ(st.code(), Errc::not_empty) << p;
      }
    } else {  // lookup consistency check on a random known path
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      auto st = ns.stat(it->first);
      ASSERT_TRUE(st.ok()) << it->first;
      EXPECT_EQ(st->type == FileType::directory, it->second) << it->first;
    }
  }

  // Final sweep: model and namespace agree everywhere.
  for (const auto& [p, is_dir] : model) {
    auto st = ns.stat(p);
    ASSERT_TRUE(st.ok()) << p;
    EXPECT_EQ(st->type == FileType::directory, is_dir) << p;
  }
  // inode_count == model size (root included).
  EXPECT_EQ(ns.inode_count(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamespaceChurn,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// --------------------------------------------------------------------------
// Allocation conservation through full file lifecycles.
// --------------------------------------------------------------------------

class AllocConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocConservation, NoLeaksThroughChurn) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  Rng rng(GetParam());
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  std::map<std::string, Bytes> live;  // path -> size

  for (int round = 0; round < 25; ++round) {
    if (live.size() < 4 && rng.chance(0.7)) {
      const std::string path = "/churn" + std::to_string(rng.below(8));
      if (live.count(path)) continue;
      const Bytes size = (1 + rng.below(6)) * MiB + rng.below(1000);
      auto fh = mc.open(c, path, kAlice, OpenFlags::create_rw());
      ASSERT_TRUE(fh.ok());
      ASSERT_TRUE(mc.write(c, *fh, 0, size).ok());
      ASSERT_TRUE(mc.close(c, *fh).ok());
      live[path] = size;
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      std::optional<Status> st;
      c->unlink(it->first, kAlice, [&](Status s) { st = s; });
      mc.sim.run();
      ASSERT_TRUE(st.has_value() && st->ok()) << it->first;
      live.erase(it);
    }
    // Invariant: used blocks == sum over live files of ceil(size/bs).
    std::uint64_t expected_used = 0;
    for (const auto& [p, sz] : live) {
      (void)p;
      expected_used += ceil_div(sz, mc.fs->block_size());
    }
    ASSERT_EQ(mc.fs->alloc().total_free(), free0 - expected_used)
        << "round " << round;
  }
  // Unlink everything: back to a pristine map.
  for (const auto& [p, sz] : live) {
    (void)sz;
    std::optional<Status> st;
    c->unlink(p, kAlice, [&](Status s) { st = s; });
    mc.sim.run();
    ASSERT_TRUE(st.has_value() && st->ok());
  }
  EXPECT_EQ(mc.fs->alloc().total_free(), free0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocConservation,
                         ::testing::Values(3, 17, 5555));

TEST(FsProperties, TruncateReleasesExactly) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/t", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 10 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  const std::uint64_t used_before =
      mc.fs->alloc().total_capacity() - mc.fs->alloc().total_free();
  EXPECT_EQ(used_before, 10u);
  auto freed = mc.fs->ns().truncate("/t", kAlice, 3 * MiB + 1);
  ASSERT_TRUE(freed.ok());
  for (const BlockAddr& b : *freed) {
    ASSERT_TRUE(mc.fs->alloc().free_block(b).ok());
  }
  EXPECT_EQ(mc.fs->alloc().total_capacity() - mc.fs->alloc().total_free(),
            4u);  // ceil(3 MiB + 1 / 1 MiB)
}

TEST(FsProperties, OpenTruncateReclaimsSpace) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/t2", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  const std::uint64_t free_after_write = mc.fs->alloc().total_free();
  OpenFlags trunc = OpenFlags::rw();
  trunc.truncate = true;
  auto fh2 = mc.open(c, "/t2", kAlice, trunc);
  ASSERT_TRUE(fh2.ok());
  EXPECT_EQ(mc.fs->alloc().total_free(), free_after_write + 8);
  EXPECT_EQ(c->known_size(*fh2), 0u);
}

}  // namespace
}  // namespace mgfs::gpfs
