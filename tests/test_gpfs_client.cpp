#include <gtest/gtest.h>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::kBob;
using testutil::manager_rpcs;
using testutil::MiniCluster;

TEST(GpfsClient, CreateWriteFsyncStat) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/data.bin", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok()) << fh.error().to_string();
  auto w = mc.write(c, *fh, 0, 10 * MiB);
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  EXPECT_EQ(*w, 10 * MiB);
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  auto st = mc.stat(c, "/data.bin");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 10 * MiB);
  EXPECT_EQ(st->owner_dn, "/CN=alice");
  // All dirty data reached the NSDs.
  EXPECT_EQ(c->pool().dirty_bytes(), 0u);
  EXPECT_EQ(c->bytes_written_remote(), 10 * MiB);
}

TEST(GpfsClient, ReadBackHitsCacheSecondTime) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  // First read: pages are still cached from the write.
  const Bytes before = c->bytes_read_remote();
  auto r = mc.read(c, *fh, 0, 4 * MiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4 * MiB);
  EXPECT_EQ(c->bytes_read_remote(), before);  // pure cache hits
}

TEST(GpfsClient, SecondClientReadsWhatFirstWrote) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/shared", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(a, *fa, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.fsync(a, *fa).ok());

  auto fb = mc.open(b, "/shared", kBob, OpenFlags::ro());
  ASSERT_TRUE(fb.ok()) << fb.error().to_string();
  auto r = mc.read(b, *fb, 0, 8 * MiB);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, 8 * MiB);
  EXPECT_EQ(b->bytes_read_remote(), 8 * MiB);
  // B's read conflicted with A's whole-file rw token -> revocation.
  EXPECT_GT(mc.fs->revocations(), 0u);
}

TEST(GpfsClient, RevokeFlushesWritersDirtyPages) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(a, *fa, 0, 4 * MiB).ok());
  // No fsync: A holds dirty pages under an rw token.
  auto fb = mc.open(b, "/f", kBob, OpenFlags::ro());
  ASSERT_TRUE(fb.ok());
  // Note: A's in-flight write-behind may still be running; the revoke
  // must wait for dirty data to land before B reads.
  auto r = mc.read(b, *fb, 0, mc.fs->ns().stat("/f")->size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(a->pool().dirty_bytes(), 0u);
}

TEST(GpfsClient, EofSemantics) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1000).ok());
  auto r = mc.read(c, *fh, 0, 5000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1000u);  // clamped at EOF
  auto r2 = mc.read(c, *fh, 5000, 100);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 0u);  // past EOF
}

TEST(GpfsClient, HoleReadCostsNoNetwork) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/sparse", kAlice, OpenFlags::create_rw());
  // Write 1 MiB at a 64 MiB offset: blocks 0..63 are holes.
  ASSERT_TRUE(mc.write(c, *fh, 64 * MiB, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  const Bytes before = c->bytes_read_remote();
  auto r = mc.read(c, *fh, 0, 16 * MiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 16 * MiB);
  EXPECT_EQ(c->bytes_read_remote(), before);  // holes are free
}

TEST(GpfsClient, StripingSpreadsBlocksAcrossNsds) {
  MiniCluster mc(6, 4);
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/big", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 32 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  const Inode* ino = mc.fs->ns().inode(*mc.fs->ns().resolve("/big"));
  ASSERT_NE(ino, nullptr);
  std::vector<int> per_nsd(4, 0);
  for (const auto& b : ino->blocks) {
    ASSERT_TRUE(b.has_value());
    ++per_nsd[b->nsd];
  }
  for (int n : per_nsd) EXPECT_EQ(n, 8);  // 32 blocks over 4 NSDs
}

TEST(GpfsClient, UnlinkReturnsSpace) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  auto fh = mc.open(c, "/tmp", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(mc.fs->alloc().total_free(), free0 - 8);
  std::optional<Status> st;
  c->unlink("/tmp", kAlice, [&](Status s) { st = s; });
  mc.sim.run();
  ASSERT_TRUE(st.has_value() && st->ok());
  EXPECT_EQ(mc.fs->alloc().total_free(), free0);
}

TEST(GpfsClient, PermissionDeniedForOtherPrincipal) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/secret", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  // Make it owner-only.
  std::optional<Status> st;
  // chmod via direct namespace (admin path is tested in test_namespace).
  ASSERT_TRUE(mc.fs->ns().chmod("/secret", kAlice, Mode{060}).ok());
  auto fb = mc.open(c, "/secret", kBob, OpenFlags::ro());
  ASSERT_FALSE(fb.ok());
  EXPECT_EQ(fb.code(), Errc::permission_denied);
  (void)st;
}

TEST(GpfsClient, ReadaheadPrefetchesSequentialStream) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/seq", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 32 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  // The 32 MiB write-behind stream over 4 NSDs must have merged dirty
  // blocks bound for the same NSD into multi-block wire requests.
  EXPECT_GT(c->blocks_coalesced(), 0u);
  EXPECT_GT(c->coalesced_requests(), 0u);

  // Unmount the writer so its cached whole-file token releases and the
  // fresh reader is granted a whole-file ro token (prefetch coverage).
  mc.cluster->unmount(c);

  // Fresh client so the cache is cold.
  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/seq", kAlice, OpenFlags::ro());
  const InodeNum ino = *mc.fs->ns().resolve("/seq");

  // First sequential read ramps up cautiously: exactly kReadaheadMin
  // blocks land ahead of the demand window, no more.
  ASSERT_TRUE(mc.read(r, *fr, 0, 2 * MiB).ok());  // blocks 0,1 (+RA)
  int cached_ahead = 0;
  for (std::uint64_t b = 2; b < 12; ++b) {
    if (r->pool().contains({ino, b})) ++cached_ahead;
  }
  EXPECT_EQ(cached_ahead, static_cast<int>(Client::kReadaheadMin));
  EXPECT_GT(r->readahead_issued(), 0u);

  // Confirmed sequential hits double the window toward the cap; after a
  // few more reads the prefetch horizon runs well past the demand point.
  for (Bytes off = 2 * MiB; off < 10 * MiB; off += 2 * MiB) {
    ASSERT_TRUE(mc.read(r, *fr, off, 2 * MiB).ok());
  }
  int deep_ahead = 0;
  for (std::uint64_t b = 10; b < 32; ++b) {
    if (r->pool().contains({ino, b})) ++deep_ahead;
  }
  EXPECT_GE(deep_ahead, 16);

  // Batched acquisition paid off: the widened ro token absorbed the
  // follow-up reads without further manager RPCs, and grown readahead
  // windows coalesced same-NSD fills into multi-block requests.
  EXPECT_GT(r->meta_rpcs_saved(), 0u);
  EXPECT_GT(r->blocks_coalesced(), 0u);

  // The new counters are exported through mmpmon.
  const std::string mm = r->mmpmon();
  EXPECT_NE(mm.find("_ra_"), std::string::npos);
  EXPECT_NE(mm.find("_coal_"), std::string::npos);
  EXPECT_NE(mm.find("_mrpc_"), std::string::npos);
}

// A 48 MiB file written by a client that then unmounts, and a first
// reader `c` that takes the whole-file ro token. Later readers share the
// inode with `c`, so they are granted what they ask for, not the
// first-holder whole-file widening.
// Requests served by the two NSD servers: every RPC that is not one is
// a manager RPC.
std::uint64_t nsd_requests(MiniCluster& mc) {
  return mc.cluster->server_on(mc.site.hosts[0])->requests_served() +
         mc.cluster->server_on(mc.site.hosts[1])->requests_served();
}

struct SharedReadFile {
  MiniCluster mc;
  InodeNum ino = 0;
  Client* c = nullptr;

  SharedReadFile() {
    Client* a = mc.mount_on(2);
    auto fa = mc.open(a, "/sky", kAlice, OpenFlags::create_rw());
    EXPECT_TRUE(mc.write(a, *fa, 0, 48 * MiB).ok());
    EXPECT_TRUE(mc.close(a, *fa).ok());
    mc.cluster->unmount(a);
    ino = *mc.fs->ns().resolve("/sky");
    c = mc.mount_on(3);
    auto fc = mc.open(c, "/sky", kBob, OpenFlags::ro());
    EXPECT_TRUE(mc.read(c, *fc, 0, 64 * KiB).ok());
  }

  std::uint64_t nsd_requests() { return gpfs::nsd_requests(mc); }

  std::vector<Holding> holdings_of(const Client* who) {
    std::vector<Holding> out;
    for (const Holding& h : mc.fs->shard_tokens(0).holdings(ino)) {
      if (h.client == who->id()) out.push_back(h);
    }
    return out;
  }
};

TEST(GpfsClient, UnalignedReadCachesWholeBlock) {
  SharedReadFile f;
  Client* b = f.mc.mount_on(4);
  auto fb = f.mc.open(b, "/sky", kBob, OpenFlags::ro());
  ASSERT_TRUE(fb.ok());
  // A cold cutout inside block 3: no readahead, but the ro grant covers
  // the whole block, so the fetched block stays in the pagepool.
  ASSERT_TRUE(f.mc.read(b, *fb, 3 * MiB + 128 * KiB, 128 * KiB).ok());
  EXPECT_TRUE(b->pool().contains({f.ino, 3}));
  const std::uint64_t nsd = f.nsd_requests();
  const std::uint64_t rpcs = f.mc.cluster->rpc().calls();
  // Another cutout of the same block is served from the cache.
  ASSERT_TRUE(f.mc.read(b, *fb, 3 * MiB + 512 * KiB, 128 * KiB).ok());
  EXPECT_EQ(f.nsd_requests(), nsd);
  EXPECT_EQ(f.mc.cluster->rpc().calls(), rpcs);
}

TEST(GpfsClient, SeekingReaderHoldsWholeFileReadToken) {
  SharedReadFile f;
  Client* b = f.mc.mount_on(4);
  auto fb = f.mc.open(b, "/sky", kBob, OpenFlags::ro());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(f.mc.read(b, *fb, 5 * MiB, 256 * KiB).ok());   // cold
  ASSERT_TRUE(f.mc.read(b, *fb, 20 * MiB, 256 * KiB).ok());  // seek
  const std::vector<Holding> hs = f.holdings_of(b);
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0].mode, LockMode::ro);
  EXPECT_EQ(hs[0].range, (TokenRange{0, kWholeFile}));
  // A read far away fetches its block but asks the manager nothing:
  // every RPC it sends is an NSD request.
  const std::uint64_t nsd = f.nsd_requests();
  const std::uint64_t rpcs = f.mc.cluster->rpc().calls();
  const std::uint64_t grants = f.mc.fs->tokens_granted();
  ASSERT_TRUE(f.mc.read(b, *fb, 40 * MiB, 256 * KiB).ok());
  EXPECT_GT(f.nsd_requests(), nsd);
  EXPECT_EQ(f.mc.cluster->rpc().calls() - rpcs, f.nsd_requests() - nsd);
  EXPECT_EQ(f.mc.fs->tokens_granted(), grants);
}

TEST(GpfsClient, SeekWideningStopsAtWriterRange) {
  SharedReadFile f;
  Client* w = f.mc.mount_on(5);
  auto fw = f.mc.open(w, "/sky", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fw.ok());
  ASSERT_TRUE(f.mc.write(w, *fw, 32 * MiB, 1 * MiB).ok());
  const std::vector<Holding> wrote = f.holdings_of(w);
  ASSERT_EQ(wrote.size(), 1u);
  ASSERT_EQ(wrote[0].mode, LockMode::rw);
  const TokenRange wr = wrote[0].range;
  ASSERT_GT(wr.lo, 10 * MiB);

  Client* b = f.mc.mount_on(4);
  auto fb = f.mc.open(b, "/sky", kBob, OpenFlags::ro());
  ASSERT_TRUE(fb.ok());
  const std::uint64_t revocations = f.mc.fs->revocations();
  ASSERT_TRUE(f.mc.read(b, *fb, 5 * MiB, 256 * KiB).ok());   // cold
  ASSERT_TRUE(f.mc.read(b, *fb, 10 * MiB, 256 * KiB).ok());  // seek
  // The whole-file ask is clipped at the writer's range, and the writer
  // keeps all of it.
  const std::vector<Holding> hs = f.holdings_of(b);
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0].range, (TokenRange{0, wr.lo}));
  EXPECT_EQ(f.mc.fs->revocations(), revocations);
  const std::vector<Holding> after = f.holdings_of(w);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].range, wr);
}

Result<Bytes> refresh_size(MiniCluster& mc, Client* c, Fh fh) {
  std::optional<Result<Bytes>> out;
  c->refresh_size(fh, [&](Result<Bytes> r) { out = std::move(r); });
  mc.sim.run();
  return out.value_or(Result<Bytes>(Errc::timed_out, "no completion"));
}

TEST(GpfsClient, RandomReaderFetchesMapOnce) {
  // 64 KiB blocks: the 20 MiB file spans five 64-entry map chunks.
  constexpr Bytes kBs = 64 * KiB;
  MiniCluster mc(6, 4, kBs);
  Client* a = mc.mount_on(2);
  auto fa = mc.open(a, "/sky", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(a, *fa, 0, 320 * kBs).ok());
  ASSERT_TRUE(mc.close(a, *fa).ok());
  mc.cluster->unmount(a);

  Client* b = mc.mount_on(3);
  auto fb = mc.open(b, "/sky", kBob, OpenFlags::ro());
  ASSERT_TRUE(fb.ok());
  // Cold read, the sole client: a whole-file ro grant and map chunk 0.
  ASSERT_TRUE(mc.read(b, *fb, 10 * kBs, 16 * KiB).ok());
  const std::uint64_t before = manager_rpcs(mc);
  const std::uint64_t grants = mc.fs->tokens_granted();
  // Every read below is a seek after a seek: a random reader. Its first
  // miss maps the rest of the file in one RPC; the reads that follow
  // land in four other chunks and ask the manager nothing.
  for (std::uint64_t blk : {100u, 200u, 300u, 30u, 150u, 260u}) {
    ASSERT_TRUE(mc.read(b, *fb, blk * kBs, 16 * KiB).ok()) << blk;
  }
  EXPECT_EQ(mc.fs->tokens_granted(), grants);
  EXPECT_EQ(manager_rpcs(mc) - before, 1u);
  EXPECT_EQ(b->bytes_read_remote(), 7 * kBs);
}

TEST(GpfsClient, RandomReaderMapsOnlyItsTokenRanges) {
  // The writer, sole client at first, holds rw over the whole file,
  // which has a hole at blocks [150, 160). The random reader's tokens
  // are clipped to the bytes it reads, so its block-map fetches must not
  // record that hole: the writer fills it without revoking the reader.
  constexpr Bytes kBs = 64 * KiB;
  MiniCluster mc(6, 4, kBs);
  Client* w = mc.mount_on(2);
  auto fw = mc.open(w, "/sparse", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fw, 0, 150 * kBs).ok());
  ASSERT_TRUE(mc.write(w, *fw, 160 * kBs, 140 * kBs).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());

  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/sparse", kBob, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(mc.read(r, *fr, 2 * kBs, kBs).ok());    // cold
  ASSERT_TRUE(mc.read(r, *fr, 250 * kBs, kBs).ok());  // random
  ASSERT_TRUE(mc.read(r, *fr, 120 * kBs, kBs).ok());  // random
  // Nor did those random misses map the data blocks between them: a
  // read of block 200 sends its token ask, the revoke of the writer's
  // block, and then the map fetch.
  const std::uint64_t rpcs = manager_rpcs(mc);
  ASSERT_TRUE(mc.read(r, *fr, 200 * kBs, kBs).ok());
  EXPECT_EQ(manager_rpcs(mc) - rpcs, 3u);

  const std::uint64_t revocations = mc.fs->revocations();
  ASSERT_TRUE(mc.write(w, *fw, 155 * kBs, kBs).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());
  EXPECT_EQ(mc.fs->revocations(), revocations);  // the reader kept its tokens

  const Bytes fetched = r->bytes_read_remote();
  ASSERT_TRUE(mc.read(r, *fr, 155 * kBs, kBs).ok());
  EXPECT_EQ(r->bytes_read_remote() - fetched, kBs);
}

TEST(GpfsClient, RevokeDuringRandomMapFetchRetakesToken) {
  // A random reader's run fetch carries a hole at block 155; a writer's
  // revoke of that block reaches the reader while the fetch is out, so
  // the hole is not cached. The read must not return the block as
  // zeros without a token over it: it takes the token again.
  constexpr Bytes kBs = 64 * KiB;
  MiniCluster mc(6, 4, kBs);
  Client* a = mc.mount_on(2);
  auto fa = mc.open(a, "/sparse", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(a, *fa, 0, 150 * kBs).ok());
  ASSERT_TRUE(mc.write(a, *fa, 160 * kBs, 140 * kBs).ok());
  ASSERT_TRUE(mc.close(a, *fa).ok());
  mc.cluster->unmount(a);
  const InodeNum ino = *mc.fs->ns().resolve("/sparse");

  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/sparse", kBob, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  // Cold, the sole client: a whole-file ro grant and map chunk 0.
  ASSERT_TRUE(mc.read(r, *fr, 10 * kBs, kBs).ok());
  Client* w = mc.mount_on(4);
  auto fw = mc.open(w, "/sparse", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fw.ok());

  // The writer's acquire makes the manager revoke the reader's token
  // over block 155; with that revoke on the wire, the reader seeks to
  // block 155, a random miss that fetches the map of blocks [64, 300).
  const std::uint64_t revocations = mc.fs->revocations();
  std::optional<Result<Bytes>> wrote;
  w->write(*fw, 155 * kBs, kBs, [&](Result<Bytes> res) { wrote = res; });
  while (mc.fs->revocations() == revocations && mc.sim.step()) {
  }
  ASSERT_GT(mc.fs->revocations(), revocations);
  std::optional<Result<Bytes>> got;
  bool covered_at_done = false;
  r->read(*fr, 155 * kBs, kBs, [&](Result<Bytes> res) {
    got = res;
    for (const Holding& h : mc.fs->shard_tokens(0).holdings(ino)) {
      if (h.client == r->id() &&
          h.range.contains(TokenRange{155 * kBs, 156 * kBs})) {
        covered_at_done = true;
      }
    }
  });
  mc.sim.run();
  ASSERT_TRUE(wrote.has_value() && wrote->ok());
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(**got, kBs);
  EXPECT_TRUE(covered_at_done);
}

TEST(GpfsClient, TailReaderSeesAppendedBlocks) {
  // Fig. 5 polling: a reader follows a file another node appends to.
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fw = mc.open(w, "/tail", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fw, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());

  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/tail", kBob, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(mc.read(r, *fr, 0, 4 * MiB).ok());

  ASSERT_TRUE(mc.write(w, *fw, 4 * MiB, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());
  auto size = refresh_size(mc, r, *fr);
  ASSERT_TRUE(size.ok());
  ASSERT_EQ(*size, 8 * MiB);
  const Bytes fetched = r->bytes_read_remote();
  auto got = mc.read(r, *fr, 4 * MiB, 4 * MiB);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 4 * MiB);
  // The appended blocks were holes when the reader first mapped the
  // file, outside any token it held; they must be fetched, not read as
  // cached holes.
  EXPECT_EQ(r->bytes_read_remote() - fetched, 4 * MiB);
}

TEST(GpfsClient, HoleFilledOutsideReaderTokenIsFetched) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fw = mc.open(w, "/holes", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fw, 3 * MiB, 1 * MiB).ok());  // blocks 0-2: holes
  ASSERT_TRUE(mc.fsync(w, *fw).ok());

  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/holes", kBob, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(mc.read(r, *fr, 3 * MiB, 1 * MiB).ok());  // cold, block 3

  ASSERT_TRUE(mc.write(w, *fw, 2 * MiB, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());
  const Bytes fetched = r->bytes_read_remote();
  ASSERT_TRUE(mc.read(r, *fr, 2 * MiB, 1 * MiB).ok());
  EXPECT_EQ(r->bytes_read_remote() - fetched, 1 * MiB);
}

TEST(GpfsClient, WriteBehindCoalescesDirtyFifoRuns) {
  // 4 NSDs, 1 MiB blocks: a 32 MiB streaming write dirties 8 blocks per
  // NSD. The flush pump must pull same-NSD blocks out of the dirty FIFO
  // (where they sit interleaved by the stripe) and send multi-block wire
  // requests instead of 32 singles.
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/wb", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 32 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  EXPECT_EQ(c->pool().dirty_bytes(), 0u);
  EXPECT_EQ(c->bytes_written_remote(), 32 * MiB);
  // Every coalesced request carried >1 block, and enough of the stream
  // was coalesced that the wire request count dropped well below the
  // block count.
  EXPECT_GT(c->coalesced_requests(), 0u);
  EXPECT_GT(c->blocks_coalesced(), c->coalesced_requests());
  EXPECT_EQ(c->coalesced_splits(), 0u);  // no faults, no splits
  // Server-side request tally: 32 blocks must have arrived in far fewer
  // wire requests (perfect coalescing at 8 blocks/run would give 4).
  std::uint64_t requests = 0;
  for (int h = 0; h < 2; ++h) {
    requests += mc.cluster->server_on(mc.site.hosts[h])->requests_served();
  }
  EXPECT_LT(requests, 16u);
}

TEST(GpfsClient, WriteBehindStallsAtDirtyCap) {
  MiniCluster mc(6, 4, 1 * MiB);
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/burst", kAlice, OpenFlags::create_rw());
  // A burst of twice the write-behind cap cannot be absorbed instantly:
  // the writer must stall on write-behind, so completion time reflects
  // NSD throughput (4 devices x 200 MB/s = 800 MB/s floor, plus the GbE
  // client link cap of ~118 MB/s, which dominates).
  // Timed at the write's own completion: draining the simulator also
  // waits out write-behind, stalled or not.
  const Bytes burst = 2 * Client::kMaxDirty;
  const double t0 = mc.sim.now();
  std::optional<Result<Bytes>> w;
  double accepted_at = 0;
  c->write(*fh, 0, burst, [&](Result<Bytes> r) {
    w = std::move(r);
    accepted_at = mc.sim.now();
  });
  mc.sim.run();
  ASSERT_TRUE(w.has_value() && w->ok());
  // >= (burst - cap) at the GbE line rate, 125 MB/s
  EXPECT_GT(accepted_at - t0,
            static_cast<double>(burst - Client::kMaxDirty) / 125e6);
}

TEST(GpfsClient, WriteToPageInFlightIsFlushed) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/inflight", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const Bytes before = c->bytes_written_remote();
  // The first write's flush leaves at once; the second write re-dirties
  // the same block while that flush is still on the wire.
  std::optional<Result<Bytes>> second;
  c->write(*fh, 0, 4 * KiB, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    c->write(*fh, 4 * KiB, 4 * KiB,
             [&](Result<Bytes> r2) { second = std::move(r2); });
  });
  mc.sim.run();
  ASSERT_TRUE(second.has_value() && second->ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  // Both versions of the block reach the NSD: the second is not lost.
  EXPECT_EQ(c->bytes_written_remote() - before, 2 * MiB);
  EXPECT_EQ(c->pool().dirty_bytes(), 0u);
}

TEST(GpfsClient, NsdFailoverToBackupServer) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());

  // Kill NSD server 0 (primary for NSDs 0 and 2); the manager lives on
  // host 1 and keeps serving tokens/metadata.
  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/f", kAlice, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  mc.net.set_node_up(mc.site.hosts[0], false);
  auto rd = mc.read(r, *fr, 0, 8 * MiB);
  ASSERT_TRUE(rd.ok()) << rd.error().to_string();
  EXPECT_EQ(*rd, 8 * MiB);
  EXPECT_GT(r->nsd_failovers(), 0u);
}

TEST(GpfsClient, ReadFailsWhenBothServersDown) {
  MiniCluster mc;
  Client* r = mc.mount_on(3);
  Client* w = mc.mount_on(2);
  auto fw = mc.open(w, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fw, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.close(w, *fw).ok());
  auto fr = mc.open(r, "/f", kAlice, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  mc.net.set_node_up(mc.site.hosts[0], false);
  mc.net.set_node_up(mc.site.hosts[1], false);
  auto rd = mc.read(r, *fr, 0, 4 * MiB);
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.code(), Errc::unavailable);
}

TEST(GpfsClient, RefreshSizeSeesAppendingWriter) {
  // The Fig. 5 usage pattern: a visualization host polls a growing file.
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  Client* r = mc.mount_on(3);
  auto fw = mc.open(w, "/enzo.out", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fw, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());

  auto fr = mc.open(r, "/enzo.out", kBob, OpenFlags::ro());
  EXPECT_EQ(r->known_size(*fr), 4 * MiB);

  ASSERT_TRUE(mc.write(w, *fw, 4 * MiB, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());
  EXPECT_EQ(r->known_size(*fr), 4 * MiB);  // stale until refresh
  std::optional<Result<Bytes>> sz;
  r->refresh_size(*fr, [&](Result<Bytes> s) { sz = std::move(s); });
  mc.sim.run();
  ASSERT_TRUE(sz.has_value() && sz->ok());
  EXPECT_EQ(r->known_size(*fr), 8 * MiB);
}

TEST(GpfsClient, WriteToRoHandleRejected) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  auto ro = mc.open(c, "/f", kAlice, OpenFlags::ro());
  auto w = mc.write(c, *ro, 0, 1 * MiB);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.code(), Errc::permission_denied);
}

TEST(GpfsClient, UnalignedWritePaysReadModifyWrite) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());

  Client* c2 = mc.mount_on(3);
  auto f2 = mc.open(c2, "/f", kAlice, OpenFlags::rw());
  const Bytes reads_before = c2->bytes_read_remote();
  // 100 KiB write in the middle of block 1: block must be fetched first.
  ASSERT_TRUE(mc.write(c2, *f2, 1 * MiB + 300, 100 * KiB).ok());
  EXPECT_GT(c2->bytes_read_remote(), reads_before);
}

TEST(GpfsClient, ManyFilesManyClients) {
  MiniCluster mc(6, 4);
  std::vector<Client*> clients = {mc.mount_on(2), mc.mount_on(3),
                                  mc.mount_on(4), mc.mount_on(5)};
  for (std::size_t i = 0; i < clients.size(); ++i) {
    auto fh = mc.open(clients[i], "/file" + std::to_string(i), kAlice,
                      OpenFlags::create_rw());
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(mc.write(clients[i], *fh, 0, 4 * MiB).ok());
    ASSERT_TRUE(mc.close(clients[i], *fh).ok());
  }
  // Everyone reads everyone's file.
  for (Client* c : clients) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      auto fh = mc.open(c, "/file" + std::to_string(i), kBob,
                        OpenFlags::ro());
      ASSERT_TRUE(fh.ok());
      auto r = mc.read(c, *fh, 0, 4 * MiB);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, 4 * MiB);
    }
  }
}

TEST(GpfsClient, UnmountReleasesTokens) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_GT(mc.fs->shard_tokens(0).total_holdings(), 0u);
  mc.cluster->unmount(c);
  EXPECT_EQ(mc.fs->shard_tokens(0).total_holdings(), 0u);
  EXPECT_FALSE(c->mounted());
}

}  // namespace
}  // namespace mgfs::gpfs
