// Empirical autotuner + TuningCache gates:
//   * cache serialize/deserialize round-trips every field;
//   * a stale hardware fingerprint (or schema) invalidates the whole cache;
//   * a warm cache makes a second InferenceSession compile skip every
//     measurement run and pick geometrically identical kernels;
//   * a tuned session stays bit-exact vs forward_reference on mini_resnet;
//   * perf_model::ranked_tiles fronts the heuristic's own pick, so a tuned
//     plan can always degrade to exactly the heuristic plan.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/autotune.hpp"
#include "src/core/perf_model.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/model.hpp"
#include "src/nn/session.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn {
namespace {

using core::AutotuneOptions;
using core::StageKey;
using core::TunedKernel;
using core::TuningCache;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

StageKey sample_key(std::int64_t n) {
  StageKey key;
  key.kind = "mm";
  key.m = 128;
  key.n = n;
  key.k = 512;
  key.p = 1;
  key.q = 2;
  key.ecase = core::EmulationCase::kCaseIII;
  key.has_relu = true;
  key.qbits = 2;
  return key;
}

TunedKernel sample_kernel() {
  TunedKernel c;
  c.tile.bm = 32;
  c.tile.bn = 128;
  c.micro.strip_words = 16;
  c.micro.staging = core::microkernel::MicroConfig::Staging::kRowMajor;
  c.micro.sparse_staging = core::microkernel::MicroConfig::Sparse::kOn;
  c.measured_ms = 1.25;
  c.measured = true;
  return c;
}

TEST(StageKey, SeqBucketKeysDistinctCanonicals) {
  // Two plan-family members can lower to identical GEMM dims (batch *
  // bucket collisions); the bucket itself must still split the cache key.
  StageKey a = sample_key(256);
  StageKey b = a;
  b.seq = 128;
  EXPECT_NE(a.canonical(), b.canonical());
  StageKey c = b;
  c.seq = 256;
  EXPECT_NE(b.canonical(), c.canonical());

  TuningCache cache;
  TunedKernel winner_b = sample_kernel();
  TunedKernel winner_c = sample_kernel();
  winner_c.tile.bm = 64;
  cache.insert(b, winner_b);
  cache.insert(c, winner_c);
  ASSERT_EQ(cache.size(), 2u);
  TunedKernel got;
  ASSERT_TRUE(cache.lookup(b, &got));
  EXPECT_TRUE(got.same_config(winner_b));
  ASSERT_TRUE(cache.lookup(c, &got));
  EXPECT_TRUE(got.same_config(winner_c));
  EXPECT_FALSE(cache.lookup(a, &got));  // seq 0 was never inserted

  // And the serialized form round-trips the bucket.
  TuningCache loaded;
  ASSERT_TRUE(loaded.deserialize(cache.serialize()));
  ASSERT_TRUE(loaded.lookup(c, &got));
  EXPECT_TRUE(got.same_config(winner_c));
}

// --- TuningCache ------------------------------------------------------------

TEST(TuningCache, SerializeRoundTrip) {
  TuningCache cache;
  const TunedKernel a = sample_kernel();
  TunedKernel b;  // defaults (heuristic-shaped entry)
  b.tile.bm = 64;
  b.tile.bn = 64;
  b.measured = true;
  b.measured_ms = 0.5;
  cache.insert(sample_key(8), a);
  cache.insert(sample_key(16), b);
  ASSERT_EQ(cache.size(), 2u);

  TuningCache loaded;
  ASSERT_TRUE(loaded.deserialize(cache.serialize()));
  ASSERT_EQ(loaded.size(), 2u);

  TunedKernel got;
  ASSERT_TRUE(loaded.lookup(sample_key(8), &got));
  EXPECT_TRUE(got.same_config(a));
  EXPECT_TRUE(got.measured);
  EXPECT_DOUBLE_EQ(got.measured_ms, 1.25);
  ASSERT_TRUE(loaded.lookup(sample_key(16), &got));
  EXPECT_TRUE(got.same_config(b));
  EXPECT_FALSE(loaded.lookup(sample_key(32), &got));
}

TEST(TuningCache, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "apnn_tuning_cache_test";
  TuningCache cache;
  cache.insert(sample_key(8), sample_kernel());
  ASSERT_TRUE(cache.save_file(path));

  TuningCache loaded;
  ASSERT_TRUE(loaded.load_file(path));
  EXPECT_EQ(loaded.size(), 1u);
  TunedKernel got;
  EXPECT_TRUE(loaded.lookup(sample_key(8), &got));
  std::remove(path.c_str());

  TuningCache missing;
  EXPECT_FALSE(missing.load_file(path));
  EXPECT_EQ(missing.size(), 0u);
}

TEST(TuningCache, StaleFingerprintInvalidates) {
  TuningCache cache;
  cache.insert(sample_key(8), sample_kernel());
  std::string text = cache.serialize();

  // Rewrite the fingerprint line to a foreign machine shape.
  const std::string fp = TuningCache::hardware_fingerprint();
  const auto pos = text.find(fp);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, fp.size(), "v1:neon:t64");

  TuningCache stale;
  EXPECT_FALSE(stale.deserialize(text));
  EXPECT_EQ(stale.size(), 0u);

  // Inspection mode loads it anyway and reports the foreign fingerprint.
  TuningCache inspect;
  EXPECT_TRUE(inspect.deserialize(text, /*any_fingerprint=*/true));
  EXPECT_EQ(inspect.size(), 1u);
  EXPECT_EQ(inspect.fingerprint(), "v1:neon:t64");
}

TEST(TuningCache, SliceWidthKeysFingerprint) {
  // A cache keyed to a per-replica slice width carries t<slice> and refuses
  // measurements recorded at a different width: slice-tuned winners must
  // not replay on the global pool or vice versa.
  const unsigned slice = ThreadPool::global().size() + 3;  // != global width
  const std::string global_fp = TuningCache::hardware_fingerprint();
  const std::string slice_fp = TuningCache::hardware_fingerprint(slice);
  EXPECT_NE(slice_fp, global_fp);
  EXPECT_NE(slice_fp.find(":t" + std::to_string(slice)), std::string::npos);

  TuningCache at_slice(slice);
  EXPECT_EQ(at_slice.fingerprint(), slice_fp);
  at_slice.insert(sample_key(8), sample_kernel());

  TuningCache at_global;
  EXPECT_FALSE(at_global.deserialize(at_slice.serialize()));
  EXPECT_EQ(at_global.size(), 0u);

  TuningCache at_same_slice(slice);
  EXPECT_TRUE(at_same_slice.deserialize(at_slice.serialize()));
  EXPECT_EQ(at_same_slice.size(), 1u);
}

TEST(TuningCache, MalformedInputRejected) {
  TuningCache cache;
  EXPECT_FALSE(cache.deserialize("not-a-cache 1\nfingerprint x\n"));
  EXPECT_FALSE(cache.deserialize(""));
  // Wrong schema version (the current schema is 5: entries lost the
  // combine fast-path column).
  std::string text = TuningCache().serialize();
  const auto pos = text.find(" 5\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, " 999\n");
  EXPECT_FALSE(cache.deserialize(text));
}

TEST(TuningCache, SparseStagingRoundTrips) {
  // A sparse_staging winner survives serialize/load bit-for-bit, and the
  // knob participates in config identity (same_config).
  TuningCache cache;
  TunedKernel on = sample_kernel();  // kOn
  TunedKernel off = sample_kernel();
  off.micro.sparse_staging = core::microkernel::MicroConfig::Sparse::kOff;
  ASSERT_FALSE(on.same_config(off));
  cache.insert(sample_key(8), on);
  cache.insert(sample_key(16), off);

  TuningCache loaded;
  ASSERT_TRUE(loaded.deserialize(cache.serialize()));
  TunedKernel got;
  ASSERT_TRUE(loaded.lookup(sample_key(8), &got));
  EXPECT_EQ(got.micro.sparse_staging,
            core::microkernel::MicroConfig::Sparse::kOn);
  EXPECT_TRUE(got.same_config(on));
  ASSERT_TRUE(loaded.lookup(sample_key(16), &got));
  EXPECT_EQ(got.micro.sparse_staging,
            core::microkernel::MicroConfig::Sparse::kOff);
  EXPECT_TRUE(got.same_config(off));

  // An out-of-range sparse_staging value is rejected as corruption, not
  // clamped: entry fields are "… strip staging sparse measured ms" and
  // both sample entries end "<sparse> 1 1.25".
  std::string text = cache.serialize();
  const auto tail = text.find(" 1 1.25");
  ASSERT_NE(tail, std::string::npos);
  text.replace(tail - 1, 1, "9");
  TuningCache corrupt;
  EXPECT_FALSE(corrupt.deserialize(text));
  EXPECT_EQ(corrupt.size(), 0u);
}

TEST(TuningCache, V2SchemaWholesaleInvalidated) {
  // A pre-sparsity v2 cache (no sparse_staging column, v2 fingerprint) must
  // be dropped wholesale by the v3 schema bump: its winners were measured
  // on a kernel dispatch that no longer exists, and v3's kAuto default
  // changes what the default config runs.
  const unsigned width = ThreadPool::global().size() + 1;
  const std::string v2 =
      "apnn-tuning-cache 2\n"
      "fingerprint v2:" +
      std::string(core::microkernel::kSimdFlavor) + ":t" +
      std::to_string(width) +
      "\n"
      "entry mm|m128|n8|k512|p1|q2|caseIII|bn0|relu1|qb2|pw1 "
      "32 128 128 8 4 16 1 0 1 1.25\n";
  // A v4 cache still carries the combine fast-path column the v5 schema
  // dropped; its entries would misread, so it is dropped whole too.
  const std::string v4 =
      "apnn-tuning-cache 4\n"
      "fingerprint v4:" +
      std::string(core::microkernel::kSimdFlavor) + ":t" +
      std::to_string(width) +
      "\n"
      "entry mm|m128|n8|k512|p1|q2|caseIII|bn0|relu1|qb2|pw1|sq0 "
      "32 128 128 8 4 16 1 1 0 1 1.25\n";
  for (const std::string& text : {v2, v4}) {
    TuningCache stale;
    EXPECT_FALSE(stale.deserialize(text));
    EXPECT_EQ(stale.size(), 0u);
    // Even inspection mode (any fingerprint) refuses a foreign schema.
    EXPECT_FALSE(stale.deserialize(text, /*any_fingerprint=*/true));
    EXPECT_EQ(stale.size(), 0u);
  }
}

// --- candidate pruner -------------------------------------------------------

TEST(RankedTiles, HeuristicPickLeads) {
  for (const auto& [m, n, k, p, q] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t, int, int>{
            64, 512, 512, 1, 2},
        {128, 2048, 576, 1, 2},
        {10, 8, 1024, 1, 2},
        {1024, 1024, 1024, 1, 1}}) {
    const core::TileConfig want = core::clamp_tile_rows(
        core::autotune_tile(m, n, k, p, q, dev()).tile, m, p);
    const std::vector<core::TileConfig> tiles =
        core::ranked_tiles(m, n, k, p, q, dev(), 4);
    ASSERT_FALSE(tiles.empty());
    EXPECT_LE(tiles.size(), 4u);
    EXPECT_EQ(tiles.front().bm, want.bm);
    EXPECT_EQ(tiles.front().bn, want.bn);
    // No duplicate geometries survive pruning.
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      for (std::size_t j = i + 1; j < tiles.size(); ++j) {
        EXPECT_FALSE(tiles[i].bm == tiles[j].bm &&
                     tiles[i].bn == tiles[j].bn);
      }
    }
  }
}

// --- session integration ----------------------------------------------------

nn::ApnnNetwork tuned_net(const nn::ModelSpec& m, std::uint64_t seed,
                          Tensor<std::int32_t>* input, std::int64_t batch) {
  nn::ApnnNetwork net = nn::ApnnNetwork::random(m, 1, 2, seed);
  Rng rng(seed + 1);
  input->reset_shape({batch, m.input.h, m.input.w, m.input.c});
  input->randomize(rng, 0, 255);
  net.calibrate(*input);
  return net;
}

AutotuneOptions fast_tuner() {
  AutotuneOptions t;
  t.reps = 1;  // keep the suite quick; determinism comes from the cache
  t.max_tile_candidates = 2;
  return t;
}

TEST(SessionAutotune, WarmCacheSkipsMeasurementAndIsDeterministic) {
  const nn::ModelSpec m = nn::mini_resnet(3, 8, 5);
  const std::int64_t batch = 4;
  Tensor<std::int32_t> input;
  nn::ApnnNetwork net = tuned_net(m, 401, &input, batch);

  TuningCache cache;
  nn::SessionOptions opts;
  opts.autotune = true;
  opts.cache = &cache;
  opts.tune_batch = batch;
  opts.tuner = fast_tuner();

  nn::InferenceSession first(net, dev(), opts);
  EXPECT_GT(first.tuning_measurements(), 0);
  EXPECT_GT(cache.size(), 0u);
  const std::vector<TunedKernel> kern_a = first.stage_kernels(batch);

  // Second compile against the warm cache: zero measurement runs, identical
  // kernel geometry for every step.
  nn::InferenceSession second(net, dev(), opts);
  EXPECT_EQ(second.tuning_measurements(), 0);
  const std::vector<TunedKernel> kern_b = second.stage_kernels(batch);
  EXPECT_EQ(second.tuning_measurements(), 0);

  ASSERT_EQ(kern_a.size(), kern_b.size());
  for (std::size_t i = 0; i < kern_a.size(); ++i) {
    EXPECT_TRUE(kern_a[i].same_config(kern_b[i])) << "step " << i;
  }

  // The warm path also survives a serialize -> deserialize round trip (what
  // the CLI/server cold start does with the cache file).
  TuningCache reloaded;
  ASSERT_TRUE(reloaded.deserialize(cache.serialize()));
  nn::SessionOptions ropts = opts;
  ropts.cache = &reloaded;
  nn::InferenceSession third(net, dev(), ropts);
  EXPECT_EQ(third.tuning_measurements(), 0);
}

TEST(SessionAutotune, TunedSessionBitExact) {
  const nn::ModelSpec m = nn::mini_resnet(3, 8, 5);
  const std::int64_t batch = 3;
  Tensor<std::int32_t> input;
  nn::ApnnNetwork net = tuned_net(m, 402, &input, batch);
  const Tensor<std::int32_t> ref = net.forward_reference(input);

  TuningCache cache;
  nn::SessionOptions opts;
  opts.autotune = true;
  opts.cache = &cache;
  opts.tune_batch = batch;
  opts.tuner = fast_tuner();
  nn::InferenceSession session(net, dev(), opts);

  Tensor<std::int32_t> logits;
  session.run(input, &logits);
  EXPECT_TRUE(logits == ref);
  // Repeat runs (steady state, tuned kernels) stay exact.
  session.run(input, &logits);
  EXPECT_TRUE(logits == ref);

  // A lazily tuned batch size (not the eager tune_batch) is exact too.
  Rng rng(4021);
  Tensor<std::int32_t> one({1, m.input.h, m.input.w, m.input.c});
  one.randomize(rng, 0, 255);
  const Tensor<std::int32_t> ref_one = net.forward_reference(one);
  session.run(one, &logits);
  EXPECT_TRUE(logits == ref_one);
}

TEST(SessionAutotune, PrivateCacheWarmWithinSession) {
  const nn::ModelSpec m = nn::mini_resnet(3, 8, 4);
  const std::int64_t batch = 2;
  Tensor<std::int32_t> input;
  nn::ApnnNetwork net = tuned_net(m, 403, &input, batch);

  nn::SessionOptions opts;
  opts.autotune = true;  // no external cache: session-private
  opts.tuner = fast_tuner();
  nn::InferenceSession session(net, dev(), opts);
  EXPECT_EQ(session.tuning_measurements(), 0);  // lazy: nothing tuned yet

  Tensor<std::int32_t> logits;
  session.run(input, &logits);
  const std::int64_t after_first = session.tuning_measurements();
  EXPECT_GT(after_first, 0);
  // Same batch again: resolved state is cached, no re-measurement.
  session.run(input, &logits);
  EXPECT_EQ(session.tuning_measurements(), after_first);
}

}  // namespace
}  // namespace apnn
