// InferenceSession gates:
//   * session forward bit-exact vs forward_reference (residual dataflow,
//     standalone-quantize path, multi-bit, binary, varying batch);
//   * steady-state memory discipline: the slab footprint settles at its
//     high-water mark and a steady-state run() makes no heap allocation.
// The serving front-end (replicated InferenceServer) is gated separately in
// tests/test_server.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "src/nn/apnn_network.hpp"
#include "src/nn/model.hpp"
#include "src/nn/session.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/tcsim/device_spec.hpp"

// --- global allocation counter ----------------------------------------------
// Counts every operator-new in the binary. The steady-state tests pin that a
// run() performs no allocation at all once the slab, the scratch arenas and
// the kernels' grow-only driver storage have reached their high-water marks,
// at any pool width. That does not depend on worker timing: parallel_for
// references its body without copying it, its loop state lives in the
// caller's frame, the caller outlives every helper it queued, and no worker
// does first-touch setup inside a run. Overriding new/delete is per-binary,
// so this affects only test_session.
namespace {
std::atomic<std::int64_t> g_allocs{0};
}

// noinline: if GCC inlines both sides of the pair it "sees" a new
// expression freed by free() and raises -Wmismatched-new-delete (a false
// positive for a counting allocator that is malloc/free on both sides).
#if defined(__GNUC__)
#define APNN_TEST_NOINLINE __attribute__((noinline))
#else
#define APNN_TEST_NOINLINE
#endif

APNN_TEST_NOINLINE void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
APNN_TEST_NOINLINE void* operator new[](std::size_t sz) {
  return ::operator new(sz);
}
APNN_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
APNN_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
APNN_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
APNN_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace apnn::nn {
namespace {

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

Tensor<std::int32_t> random_input(std::int64_t b, const ModelSpec& m,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Tensor<std::int32_t> in({b, m.input.h, m.input.w, m.input.c});
  in.randomize(rng, 0, 255);
  return in;
}

// --- bit-exactness ----------------------------------------------------------

TEST(Session, MatchesReferenceMiniResNet) {
  // Residual dataflow: packed + dense residual adds, standalone ReLU and
  // quantize after the adds, final average pool, linear head.
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 301);
  const auto input = random_input(2, m, 302);
  net.calibrate(input);
  InferenceSession session(net, dev());
  const auto ref = net.forward_reference(input);
  EXPECT_EQ(session.run(input), ref);
  EXPECT_EQ(session.run(input), ref);  // slab reuse changes nothing
}

TEST(Session, MatchesReferenceMiniResNetMultiBit) {
  const ModelSpec m = mini_resnet(3, 8, 4);
  ApnnNetwork net = ApnnNetwork::random(m, 2, 3, 303);
  const auto input = random_input(2, m, 304);
  net.calibrate(input);
  InferenceSession session(net, dev());
  EXPECT_EQ(session.run(input), net.forward_reference(input));
}

// mini_cnn with its head replaced by fc1 -> BN -> ReLU -> quantize -> fc2:
// fc1's quantizing epilogue carries a BN, so the packed linear output must
// code the BN result after its int32 truncation, as forward_reference does.
ModelSpec mini_cnn_bn_head() {
  ModelSpec m = mini_cnn(4, 8, 5);
  m.layers.resize(m.layers.size() - 2);  // drop fc + softmax
  auto add = [&m](LayerKind kind, const char* name) -> LayerSpec& {
    LayerSpec l;
    l.kind = kind;
    l.name = name;
    m.layers.push_back(l);
    return m.layers.back();
  };
  add(LayerKind::kLinear, "fc1").out_features = 24;
  add(LayerKind::kBatchNorm, "fc1.bn");
  add(LayerKind::kReLU, "fc1.relu");
  add(LayerKind::kQuantize, "fc1.quant");
  add(LayerKind::kLinear, "fc2").out_features = 5;
  return m;
}

TEST(Session, MatchesReferenceVggLite) {
  // Conv stack with fully fused tails, then the two-linear head: fc1's
  // quantized feature planes feed fc2 without any dense round trip. The
  // BN head runs the same dataflow with a BN in fc1's quantizing epilogue.
  for (const ModelSpec& m : {vgg_lite(16, 6), mini_cnn_bn_head()}) {
    for (const std::uint64_t seed : {305u, 1u, 2u}) {
      ApnnNetwork net = ApnnNetwork::random(m, 1, 2, seed);
      const auto input = random_input(4, m, seed + 1);
      net.calibrate(input);
      InferenceSession session(net, dev());
      EXPECT_EQ(session.run(input), net.forward_reference(input))
          << m.name << " seed " << seed;
    }
  }
}

TEST(Session, MatchesReferenceBinaryVggLite) {
  // ±1 activations: the linear stage consumes packed codes through the
  // word-granular gather with kSignedPM1 encoding.
  const ModelSpec m = vgg_lite(16, 5);
  ApnnNetwork net = ApnnNetwork::random_binary(m, 307);
  const auto input = random_input(1, m, 308);
  net.calibrate(input);
  InferenceSession session(net, dev());
  EXPECT_EQ(session.run(input), net.forward_reference(input));
}

TEST(Session, VaryingBatchReusesPlan) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 309);
  net.calibrate(random_input(2, m, 310));
  InferenceSession session(net, dev());
  for (std::int64_t b : {1, 3, 2, 3}) {
    const auto input = random_input(b, m, 311 + static_cast<unsigned>(b));
    EXPECT_EQ(session.run(input), net.forward_reference(input))
        << "batch " << b;
  }
}

TEST(Session, CollectsProfilesLikeForward) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 312);
  const auto input = random_input(1, m, 313);
  net.calibrate(input);
  InferenceSession session(net, dev());
  tcsim::SequenceProfile prof;
  Tensor<std::int32_t> logits;
  session.run(input, &logits, &prof);
  // decompose + 2 convs + 1 linear at least, with real MMA counters.
  EXPECT_GE(prof.kernels.size(), 4u);
  EXPECT_GT(prof.total_counters().bmma_b1, 0);
}

Tensor<std::int32_t> random_tokens(std::int64_t b, std::int64_t seq,
                                   std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  Tensor<std::int32_t> in({b, seq, 1, d_model});
  in.randomize(rng, 0, 255);
  return in;
}

TEST(Session, LivenessSharesSlots) {
  // Exact plan shapes: the slot count sets the slab's footprint, so a
  // lowering change that adds a step or a live buffer shows up here.
  // Liveness-based reuse keeps the slab far smaller than one slot per step.
  const struct {
    ModelSpec spec;
    std::size_t steps, slots;
  } cases[] = {{mini_resnet(3, 8, 5), 15, 3}, {vgg_lite(16, 6), 8, 3}};
  for (const auto& c : cases) {
    ApnnNetwork net = ApnnNetwork::random(c.spec, 1, 2, 314);
    net.calibrate(random_input(1, c.spec, 315));
    InferenceSession session(net, dev());
    EXPECT_EQ(session.step_count(), c.steps) << c.spec.name;
    EXPECT_EQ(session.slot_count(), c.slots) << c.spec.name;
  }
  // Every bucket plan of the attention family has the same shape; the
  // default plan is the one serving the calibration length.
  for (const std::int64_t seq : tiny_transformer().seq_buckets) {
    ModelSpec m = tiny_transformer();
    m.input.h = seq;
    ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 316);
    net.calibrate(random_tokens(1, seq, m.input.c, 317));
    InferenceSession session(net, dev());
    EXPECT_EQ(session.step_count(), 20u) << "seq " << seq;
    EXPECT_EQ(session.slot_count(), 8u) << "seq " << seq;
  }
}

TEST(Session, DecodesPackedConvAndFeaturePlanes) {
  // conv -> BN -> ReLU -> quantize fuses into the conv tail, so the global
  // pool must decode packed conv planes; fc1's fused ReLU -> quantize emits
  // feature planes, so the standalone ReLU must decode those. No zoo model
  // takes either decode path.
  ModelSpec m;
  m.name = "decode-paths";
  m.input = {4, 8, 8};
  auto add = [&m](LayerKind kind, const char* name) -> LayerSpec& {
    LayerSpec l;
    l.kind = kind;
    l.name = name;
    m.layers.push_back(l);
    return m.layers.back();
  };
  add(LayerKind::kConv, "conv").conv = {8, 3, 1, 1};
  add(LayerKind::kBatchNorm, "bn");
  add(LayerKind::kReLU, "relu");
  add(LayerKind::kQuantize, "quant");
  add(LayerKind::kPool, "gap").pool = {core::PoolSpec::Kind::kAvg, 0};
  add(LayerKind::kLinear, "fc1").out_features = 16;
  add(LayerKind::kReLU, "fc1.relu");
  add(LayerKind::kQuantize, "fc1.quant");
  add(LayerKind::kReLU, "relu2");
  add(LayerKind::kLinear, "fc2").out_features = 5;

  for (const int wbits : {1, 2}) {
    ApnnNetwork net = ApnnNetwork::random(m, wbits, 2, 318);
    net.calibrate(random_input(3, m, 319));
    InferenceSession session(net, dev());
    // pack, conv, decode, pool, fc1, decode, relu, fc2
    EXPECT_EQ(session.step_count(), 8u);
    EXPECT_EQ(session.slot_count(), 3u);
    for (const std::int64_t b : {1, 3}) {
      const auto input = random_input(b, m, 320 + static_cast<unsigned>(b));
      EXPECT_EQ(session.run(input), net.forward_reference(input))
          << "w" << wbits << "a2 batch " << b;
    }
  }
}

TEST(Session, RequiresCalibration) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 316);
  EXPECT_THROW(InferenceSession(net, dev()), apnn::Error);
}

// --- standalone BatchNorm is a hard error -----------------------------------

TEST(Session, StandaloneBatchNormHardErrors) {
  // A BN separated from its conv (here by the quantize: tails fuse at most
  // BN -> ReLU -> pool -> quantize, quantize last) has no parameters to
  // apply; it must fail loudly instead of silently acting as identity.
  ModelSpec m;
  m.name = "bn-after-quant";
  m.input = {4, 8, 8};
  LayerSpec conv;
  conv.kind = LayerKind::kConv;
  conv.name = "conv";
  conv.conv = {8, 3, 1, 1};
  m.layers.push_back(conv);
  LayerSpec q;
  q.kind = LayerKind::kQuantize;
  q.name = "conv.quant";
  m.layers.push_back(q);
  LayerSpec bn;
  bn.kind = LayerKind::kBatchNorm;
  bn.name = "stray.bn";
  m.layers.push_back(bn);
  LayerSpec fc;
  fc.kind = LayerKind::kLinear;
  fc.name = "fc";
  fc.out_features = 3;
  m.layers.push_back(fc);

  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 317);
  const auto input = random_input(1, m, 318);
  // The reference walker (calibration) refuses the spec outright.
  EXPECT_THROW(net.calibrate(input), apnn::Error);
}

// --- steady-state memory discipline -----------------------------------------

TEST(Session, SteadyStateFootprintAndAllocationsStable) {
  // The w1a2 mini_resnet runs Case-III convs and a linear head; the binary
  // vgg_lite adds padded Case-II convs, whose border-correction table is
  // rebuilt every run.
  const ModelSpec rm = mini_resnet(3, 8, 5);
  const ModelSpec vm = vgg_lite(16, 5);
  ApnnNetwork nets[] = {ApnnNetwork::random(rm, 1, 2, 320),
                        ApnnNetwork::random_binary(vm, 322)};
  for (ApnnNetwork& net : nets) {
    const auto input = random_input(4, net.spec(), 321);
    net.calibrate(input);
    InferenceSession session(net, dev());
    Tensor<std::int32_t> logits;

    // Warm up: slab buffers, scratch arenas, and worker threads reach their
    // high-water marks.
    for (int i = 0; i < 3; ++i) session.run(input, &logits);

    const std::size_t settled_capacity = session.slab().capacity_bytes();
    const std::size_t settled_high_water = session.slab().high_water_bytes();
    EXPECT_GT(settled_capacity, 0u);
    EXPECT_EQ(settled_capacity, settled_high_water);

    auto allocs_of_one_run = [&] {
      const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
      session.run(input, &logits);
      return g_allocs.load(std::memory_order_relaxed) - before;
    };
    const std::int64_t run_a = allocs_of_one_run();
    const std::int64_t run_b = allocs_of_one_run();

    // The slab stopped growing: the pass runs entirely out of recycled slots
    // (every kernel writes into caller-provided storage) and allocates
    // nothing at all.
    EXPECT_EQ(session.slab().capacity_bytes(), settled_capacity);
    EXPECT_EQ(session.slab().high_water_bytes(), settled_high_water);
    EXPECT_EQ(run_a, 0) << net.spec().name;
    EXPECT_EQ(run_b, 0) << net.spec().name;
  }
}

TEST(Session, SlabGrowsOnlyForLargerBatches) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 322);
  net.calibrate(random_input(1, m, 323));
  InferenceSession session(net, dev());
  Tensor<std::int32_t> logits;

  session.run(random_input(4, m, 324), &logits);
  session.run(random_input(4, m, 325), &logits);
  const std::size_t cap4 = session.slab().capacity_bytes();
  // Smaller batches live inside the batch-4 footprint.
  session.run(random_input(2, m, 326), &logits);
  session.run(random_input(1, m, 327), &logits);
  EXPECT_EQ(session.slab().capacity_bytes(), cap4);
  // A larger batch may grow it — once.
  session.run(random_input(6, m, 328), &logits);
  const std::size_t cap6 = session.slab().capacity_bytes();
  EXPECT_GE(cap6, cap4);
  session.run(random_input(6, m, 329), &logits);
  EXPECT_EQ(session.slab().capacity_bytes(), cap6);
}

TEST(Session, AlternatingSeenBatchesStayAllocationFlat) {
  // The serving pattern: micro-batch sizes vary run to run. Batch-resolved
  // state (geometries, tiles) is cached per size, so alternating between
  // already-seen sizes must not re-run autotune or grow anything.
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 350);
  net.calibrate(random_input(1, m, 351));
  InferenceSession session(net, dev());
  Tensor<std::int32_t> logits;
  const auto in4 = random_input(4, m, 352);
  const auto in2 = random_input(2, m, 353);
  for (int i = 0; i < 2; ++i) {  // warm both sizes
    session.run(in4, &logits);
    session.run(in2, &logits);
  }
  const std::size_t cap = session.slab().capacity_bytes();
  auto allocs_of = [&](const Tensor<std::int32_t>& in) {
    const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
    session.run(in, &logits);
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  EXPECT_EQ(allocs_of(in4), 0);
  EXPECT_EQ(allocs_of(in2), 0);
  EXPECT_EQ(allocs_of(in4), 0);  // alternation changed nothing
  EXPECT_EQ(allocs_of(in2), 0);
  EXPECT_EQ(session.slab().capacity_bytes(), cap);
}

TEST(Session, ExplicitPoolWidthsStayAllocationFlat) {
  // The steady-state checks above run on the global pool, which has no
  // workers on a 1-core host. Explicit 2- and 4-wide pools exercise the
  // multi-worker parallel_for path on any host: the slab settles at its
  // high-water mark, a run allocates nothing, results stay bit-exact (conv
  // plans and every bucket of the attention plan family), and a warmed
  // parallel_for allocates nothing at all, whatever its body captures.
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 354);
  const auto input = random_input(4, m, 355);
  net.calibrate(input);
  const Tensor<std::int32_t> expected = net.forward_reference(input);

  const ModelSpec tm = tiny_transformer();
  ApnnNetwork tnet = ApnnNetwork::random(tm, 2, 2, 356);
  tnet.calibrate(random_tokens(2, tm.input.h, tm.input.c, 357));
  std::vector<Tensor<std::int32_t>> tokens, token_refs;
  for (const std::int64_t seq : tm.seq_buckets) {
    tokens.push_back(random_tokens(2, seq, tm.input.c,
                                   358 + static_cast<unsigned>(seq)));
    token_refs.push_back(tnet.forward_reference(tokens.back()));
  }

  for (const unsigned width : {2u, 4u}) {
    ThreadPool pool(width);
    SessionOptions opts;
    opts.pool = &pool;
    InferenceSession session(net, dev(), opts);
    Tensor<std::int32_t> logits;
    for (int i = 0; i < 3; ++i) session.run(input, &logits);
    EXPECT_EQ(logits, expected) << "width " << width;

    const std::size_t settled_capacity = session.slab().capacity_bytes();
    EXPECT_GT(settled_capacity, 0u);
    EXPECT_EQ(settled_capacity, session.slab().high_water_bytes())
        << "width " << width;
    auto allocs_of_one_run = [&] {
      const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
      session.run(input, &logits);
      return g_allocs.load(std::memory_order_relaxed) - before;
    };
    EXPECT_EQ(allocs_of_one_run(), 0) << "width " << width;
    EXPECT_EQ(allocs_of_one_run(), 0) << "width " << width;
    EXPECT_EQ(session.slab().capacity_bytes(), settled_capacity);

    InferenceSession tsession(tnet, dev(), opts);
    for (int warm = 0; warm < 2; ++warm) {
      for (const auto& in : tokens) tsession.run(in, &logits);
    }
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      for (int rep = 0; rep < 2; ++rep) {
        const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
        tsession.run(tokens[i], &logits);
        EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0)
            << "width " << width << " seq " << tm.seq_buckets[i];
        EXPECT_EQ(logits, token_refs[i])
            << "width " << width << " seq " << tm.seq_buckets[i];
      }
    }

    std::atomic<std::int64_t> sum{0};
    const std::function<void(std::int64_t)> body = [&](std::int64_t i) {
      sum += i;
    };
    pool.parallel_for(0, 64, body);  // warm
    std::int64_t before = g_allocs.load(std::memory_order_relaxed);
    pool.parallel_for(0, 64, body);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0)
        << "width " << width;
    EXPECT_EQ(sum.load(), 2 * (63 * 64 / 2));

    // A lambda whose captures overflow std::function's small buffer, passed
    // as-is: the body is referenced, never copied to the heap.
    std::int64_t seen_first = 0, seen_last = 0;
    const auto wide = [&sum, &seen_first, &seen_last, width](std::int64_t i) {
      sum += i;
      if (i == 0) seen_first = width;
      if (i == 63) seen_last = width;
    };
    static_assert(sizeof(wide) > 16, "must not fit a small-buffer function");
    before = g_allocs.load(std::memory_order_relaxed);
    pool.parallel_for(0, 64, wide);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0)
        << "width " << width;
    EXPECT_EQ(seen_first + seen_last, 2 * width);
    EXPECT_EQ(sum.load(), 3 * (63 * 64 / 2));
  }
}


// --- compiled attention: dynamic-shape plan families ------------------------

TEST(Session, AttentionMatchesReferenceEveryBucketAndScheme) {
  // The compiled attention plan family must be bit-exact against the dense
  // integer reference for every sequence bucket under every w/a scheme the
  // bit-GEMM lowering distinguishes (±1 weights, multi-bit weights, wider
  // activations).
  const ModelSpec m = tiny_transformer();
  const struct { int w, a; } schemes[] = {{1, 2}, {2, 2}, {1, 3}};
  for (const auto& sc : schemes) {
    ApnnNetwork net = ApnnNetwork::random(m, sc.w, sc.a, 401);
    net.calibrate(random_tokens(2, m.input.h, m.input.c, 402));
    InferenceSession session(net, dev());
    EXPECT_EQ(session.plan_count(), m.seq_buckets.size());
    for (const std::int64_t seq : m.seq_buckets) {
      const auto input = random_tokens(1, seq, m.input.c,
                                       403 + static_cast<unsigned>(seq));
      EXPECT_EQ(session.run(input), net.forward_reference(input))
          << "w" << sc.w << "a" << sc.a << " seq " << seq;
    }
    // Batched run through one bucket as well.
    const auto batched = random_tokens(3, m.seq_buckets.front(), m.input.c,
                                       404);
    EXPECT_EQ(session.run(batched), net.forward_reference(batched))
        << "w" << sc.w << "a" << sc.a << " batched";
  }
}

TEST(Session, AttentionPadsOffBucketLengthsUp) {
  // A request whose token count is not itself a bucket runs on the smallest
  // covering bucket with a zero-padded tail — bit-exact vs the reference on
  // the same padded input.
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 405);
  net.calibrate(random_tokens(2, m.input.h, m.input.c, 406));
  InferenceSession session(net, dev());
  for (const std::int64_t seq : {std::int64_t{1}, std::int64_t{20},
                                 std::int64_t{100}, std::int64_t{300}}) {
    const auto input = random_tokens(1, seq, m.input.c,
                                     407 + static_cast<unsigned>(seq));
    std::int64_t bucket = m.seq_buckets.back();
    for (const std::int64_t b : m.seq_buckets) {
      if (b >= seq) {
        bucket = b;
        break;
      }
    }
    Tensor<std::int32_t> padded({1, bucket, 1, m.input.c});
    padded.fill(0);
    for (std::int64_t i = 0; i < input.numel(); ++i) padded[i] = input[i];
    EXPECT_EQ(session.run(input), net.forward_reference(padded))
        << "seq " << seq << " bucket " << bucket;
  }
}

TEST(Session, AttentionSteadyStateAcrossBucketsStaysFlat) {
  // One plan family serving mixed sequence lengths: after a warm pass over
  // every bucket, further traffic (any bucket order, padded lengths
  // included) must not grow the slab and must allocate nothing — serving
  // mixed lengths grows nothing in steady state.
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 410);
  net.calibrate(random_tokens(2, m.input.h, m.input.c, 411));
  InferenceSession session(net, dev());
  Tensor<std::int32_t> logits;
  std::vector<Tensor<std::int32_t>> inputs;
  for (const std::int64_t seq : m.seq_buckets) {
    inputs.push_back(random_tokens(1, seq, m.input.c,
                                   412 + static_cast<unsigned>(seq)));
  }
  inputs.push_back(random_tokens(1, 50, m.input.c, 413));  // pads to 64
  for (int warm = 0; warm < 2; ++warm) {
    for (const auto& in : inputs) session.run(in, &logits);
  }
  const std::size_t cap = session.slab().capacity_bytes();
  EXPECT_EQ(cap, session.slab().high_water_bytes());
  auto allocs_of = [&](const Tensor<std::int32_t>& in) {
    const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
    session.run(in, &logits);
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  for (const auto& in : inputs) {
    EXPECT_EQ(allocs_of(in), 0);
    EXPECT_EQ(allocs_of(in), 0);
  }
  EXPECT_EQ(session.slab().capacity_bytes(), cap);
  EXPECT_EQ(session.slab().high_water_bytes(), cap);
}

TEST(Session, BucketedValidateSampleRejectsBadShapes) {
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 420);
  net.calibrate(random_tokens(1, m.input.h, m.input.c, 421));
  InferenceSession session(net, dev());
  // Longer than the largest bucket: no plan can serve it.
  EXPECT_THROW(session.run(random_tokens(
                   1, m.seq_buckets.back() + 1, m.input.c, 422)),
               Error);
  // Wrong feature width.
  EXPECT_THROW(session.run(Tensor<std::int32_t>({1, 32, 1, m.input.c + 1})),
               Error);
}

}  // namespace
}  // namespace apnn::nn

