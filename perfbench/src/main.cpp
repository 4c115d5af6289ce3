// apnn_bench: the repository's end-to-end benchmark driver.
//
//   apnn_bench gen      --workload W --models DIR
//   apnn_bench run      --workload W --seed S --seconds T --trace 0|1
//                       --models DIR --out DIR
//   apnn_bench selftest --out DIR
//
// `gen` writes the workload's serialized models (random weights plus
// calibration, standing in for training) unless they are already cached.
// `run` loads them through nn::load_network / gw::ModelRegistry, serves them
// and prints diagnostics ("# ..." lines) followed by one JSON result line.
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) record spans around calls into every layer and report the
// per-layer metrics, writing the spans and per-stage rows to a trace file.
// Every run checks its outputs against computations made apart from the
// code under test (see checks.hpp).
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "probe.hpp"
#include "src/common/rng.hpp"
#include "src/nn/gateway.hpp"
#include "src/nn/registry.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"
#include "walker.hpp"

namespace perfbench {
namespace {

// Model weights are fixed by this seed; only the inputs follow --seed.
constexpr std::uint64_t kModelSeed = 20211114;
// Time-based warm-up before any timed window (the first forwards of a
// process are several times slower than later ones).
constexpr double kWarmupSeconds = 3.0;
constexpr int kClientsPerModel = 2;
// Steal sampling period: 50 ms is 20 scheduler ticks on 4 CPUs, so one
// stolen tick shows as 5%.
constexpr double kSliceMs = 50.0;

struct ModelDef {
  const char* id;
  nn::ModelSpec (*spec)();
  int wbits;
  int abits;
};

const ModelDef kResNet18{"resnet18", [] { return nn::resnet18(); }, 1, 2};
const ModelDef kVgg{"vgg_variant", [] { return nn::vgg_variant(); }, 2, 2};
const ModelDef kMiniResNet{
    "mini_resnet", [] { return nn::mini_resnet(3, 32, 10); }, 1, 2};
const ModelDef kTransformer{
    "tiny_transformer", [] { return nn::tiny_transformer(); }, 2, 2};

// Every workload has one conv model. Its untraced run either calls an
// InferenceSession back to back (batch 1, one caller) or serves the conv
// model beside kTransformer through the gateway. A traced run exercises
// both paths, so every per-layer metric exists on every workload.
struct Workload {
  const char* name;
  const ModelDef* conv;
  bool gateway;
  int images;  ///< distinct conv inputs per run
};
const Workload kWorkloads[] = {
    {"resnet18_w1a2_b1", &kResNet18, false, 2},
    {"vgg_w2a2_b1", &kVgg, false, 1},
    {"gateway_conv_attn", &kMiniResNet, true, 8},
};

struct Args {
  std::string cmd, workload, models = ".", out = ".";
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
};

std::string model_path(const ModelDef& d, const std::string& dir) {
  return dir + "/" + d.id + "_w" + std::to_string(d.wbits) + "a" +
         std::to_string(d.abits) + "_m" + std::to_string(kModelSeed) +
         ".apnn";
}

double file_mib(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0
             ? static_cast<double>(st.st_size) / (1024.0 * 1024.0)
             : 0.0;
}

Tensor<std::int32_t> random_codes(apnn::Rng& rng,
                                  std::vector<std::int64_t> shape) {
  Tensor<std::int32_t> t(std::move(shape));
  t.randomize(rng, 0, 255);
  return t;
}

// Conv inputs: `n` seeded {1, H, W, C} images.
std::vector<Tensor<std::int32_t>> conv_inputs(const nn::ModelSpec& spec,
                                              int n, std::uint64_t seed) {
  apnn::Rng rng(seed);
  std::vector<Tensor<std::int32_t>> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(random_codes(rng, {1, spec.input.h, spec.input.w,
                                   spec.input.c}));
  }
  return v;
}

// Token inputs: two samples per bucket for the four smallest buckets, each
// of a seeded length inside its bucket, so every run has the same make-up
// and each request pads up to a known bucket.
std::vector<Tensor<std::int32_t>> token_inputs(const nn::ModelSpec& spec,
                                               std::uint64_t seed) {
  apnn::Rng rng(seed ^ 0x5eedULL);
  std::vector<Tensor<std::int32_t>> v;
  std::int64_t lo = 1;
  for (std::size_t b = 0; b < 4 && b < spec.seq_buckets.size(); ++b) {
    const std::int64_t hi = spec.seq_buckets[b];
    for (int i = 0; i < 2; ++i) {
      const std::int64_t len = rng.uniform_int(lo, hi);
      v.push_back(random_codes(rng, {1, len, 1, spec.input.c}));
    }
    lo = hi + 1;
  }
  return v;
}

int generate(const ModelDef& d, const std::string& dir) {
  const std::string path = model_path(d, dir);
  if (file_mib(path) > 0.0) return 0;
  const nn::ModelSpec spec = d.spec();
  nn::ApnnNetwork net =
      nn::ApnnNetwork::random(spec, d.wbits, d.abits, kModelSeed);
  apnn::Rng rng(kModelSeed + 1);
  net.calibrate(
      random_codes(rng, {1, spec.input.h, spec.input.w, spec.input.c}));
  const std::string tmp = path + ".tmp";
  if (!nn::save_network(net, tmp) || std::rename(tmp.c_str(), path.c_str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "generated %s (%.1f MiB)\n", path.c_str(),
               file_mib(path));
  return 0;
}

// One run's state and its result line.
class Run {
 public:
  Run(const Args& args, const Workload& wl, double t_start)
      : args(args), wl(wl), t_start(t_start), trace(args.trace) {}

  const Args& args;
  const Workload& wl;
  const apnn::tcsim::DeviceSpec& dev = apnn::tcsim::rtx3090();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double t_start;  ///< main() entry: the cold set-up starts here
  const CpuTicks setup_ticks = read_cpu_ticks();
  Trace trace;
  std::int64_t attempted = 0, failed = 0;

  /// Ends the cold set-up at the first checked result: returns its length
  /// in seconds and prints it with the steal share seen meanwhile.
  double end_setup() const {
    const double s = (now_ms() - t_start) / 1e3;
    std::printf("# set-up %.4f s, steal %.1f%%\n", s,
                100.0 * steal_share(setup_ticks, read_cpu_ticks()));
    return s;
  }

  void metric(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void check(const std::string& what, std::int64_t bad) {
    std::printf("# check %-40s %s (%lld mismatched)\n", what.c_str(),
                bad == 0 ? "ok" : "FAILED", static_cast<long long>(bad));
    if (bad != 0) correct_ = false;
  }
  void print_result() const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name, metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Calls `op` back to back for `seconds` under a steal sampler.
QuietSummary timed_window(double seconds, const std::function<void()>& op,
                          std::vector<Op>* ops) {
  StealSampler sampler(kSliceMs);
  const double end = now_ms() + seconds * 1e3;
  for (double t = now_ms(); t < end;) {
    op();
    const double t1 = now_ms();
    ops->push_back({t, t1});
    t = t1;
  }
  return summarize(*ops, sampler.stop());
}

void print_window(const std::string& what, const QuietSummary& q) {
  std::printf("# window %s: %zu ops, all-op p50 %.3f ms, steal %.1f%%; "
              "quiet slices (steal <= %.1f%%) %.0f%% of it, %.2f ops/s; "
              "%zu least exposed ops, p10/p50/p90 %.3f/%.3f/%.3f ms\n",
              what.c_str(), q.all_lat_ms.size(), median(q.all_lat_ms),
              100.0 * q.steal, 100.0 * q.threshold, 100.0 * q.quiet_share,
              q.per_s, q.lat_ms.size(), quantile(q.lat_ms, 0.1),
              median(q.lat_ms), quantile(q.lat_ms, 0.9));
}

// Median wall time (ms) of `reps` calls of `fn`, each inside a span.
double median_ms(Trace& trace, const char* span, int reps,
                 const std::function<void()>& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t id = trace.begin(span);
    fn();
    v.push_back(trace.end(id));
  }
  return median(v);
}

// --- session path -----------------------------------------------------------

struct SessionResult {
  std::unique_ptr<nn::ApnnNetwork> net;  ///< kept for the gateway goldens
};

SessionResult session_phase(Run& run) {
  const ModelDef& def = *run.wl.conv;
  const bool primary = !run.wl.gateway;
  const bool traced = run.trace.enabled();
  const std::string path = model_path(def, run.args.models);
  Trace& tr = run.trace;

  const double t_load = now_ms();
  const std::int64_t load_span = tr.begin("model.load_network");
  auto net = std::make_unique<nn::ApnnNetwork>(nn::load_network(path));
  tr.end(load_span);
  const double load_s = (now_ms() - t_load) / 1e3;

  apnn::ThreadPool pool(run.nproc);
  nn::SessionOptions so;
  so.pool = &pool;
  nn::InferenceSession session(*net, run.dev, so);

  const std::vector<Tensor<std::int32_t>> images =
      conv_inputs(net->spec(), run.wl.images, run.args.seed);
  const std::size_t k_images = images.size();
  std::vector<Tensor<std::int32_t>> first(k_images);
  Tensor<std::int32_t> logits;
  std::int64_t drift = 0, next = 0;
  auto forward = [&]() {
    const std::size_t k = static_cast<std::size_t>(next++) % k_images;
    const double t = now_ms();
    session.run(images[k], &logits);
    const double ms = now_ms() - t;
    if (first[k].numel() == 0) {
      first[k] = logits;
    } else {
      drift += mismatches(logits, first[k]);
    }
    return ms;
  };

  const std::int64_t first_span = tr.begin("session.first_run");
  const double first_run_ms = forward();
  tr.end(first_span);
  const double setup_s = primary ? run.end_setup() : 0.0;

  const double tw = now_ms();
  std::int64_t warm_iters = 0;
  while (now_ms() - tw < kWarmupSeconds * 1e3 ||
         warm_iters < static_cast<std::int64_t>(k_images)) {
    forward();
    ++warm_iters;
  }
  std::printf("# session %s: pool width %u, nproc %u, warm-up %.2f s / %lld "
              "forwards\n",
              def.id, run.nproc, run.nproc, (now_ms() - tw) / 1e3,
              static_cast<long long>(warm_iters));

  const double window_s = traced ? run.args.seconds / 2 : run.args.seconds;
  std::vector<Op> ops;
  const QuietSummary w = timed_window(window_s, [&] { forward(); }, &ops);
  const double rss = peak_rss_mib();
  print_window("untraced", w);
  if (primary) run.attempted += static_cast<std::int64_t>(ops.size());

  if (!traced) {
    run.metric("setup_s", setup_s, "s");
    run.metric("cpu_ms_per_item", w.cpu_ms_per_op, "ms");
    run.metric("peak_rss_mib", rss, "MiB");
  }

  std::vector<StageInput> inputs;
  const Tensor<std::int32_t> walked =
      walk_network(*net, images[0], run.dev, &pool, &inputs);

  if (traced) {
    // The same loop with a span and an allocation count around each run.
    std::vector<double> allocs;
    std::vector<Op> traced_ops;
    const QuietSummary wt = timed_window(
        window_s,
        [&] {
          const std::int64_t a0 = alloc_count();
          const std::int64_t id = tr.begin("session.run");
          forward();
          tr.end(id);
          allocs.push_back(static_cast<double>(alloc_count() - a0));
        },
        &traced_ops);
    print_window("traced", wt);
    if (primary) {
      run.attempted += static_cast<std::int64_t>(traced_ops.size());
      run.metric("latency_p50_ms", median(w.lat_ms), "ms");
      run.metric("throughput_per_s", w.per_s, "1/s");
      run.metric("client.latency_p90_ms", quantile(w.lat_ms, 0.9), "ms");
      run.metric("trace.overhead_ms", median(wt.lat_ms) - median(w.lat_ms),
                 "ms");
    }
    const double run_ms = median(wt.lat_ms);

    const double pack_ms = median_ms(tr, "layout.pack_activations", 20, [&] {
      (void)layout::pack_activations(images[0], layout::DenseLayout::kNHWC,
                                     8);
    });
    std::vector<std::int64_t> sink(run.nproc, 0);
    const std::function<void(std::int64_t)> touch = [&](std::int64_t i) {
      ++sink[static_cast<std::size_t>(i)];
    };
    const auto dispatch = [&] { pool.parallel_for(0, run.nproc, touch, 1); };
    for (int i = 0; i < 100; ++i) dispatch();
    const double dispatch_us =
        1e3 * median_ms(tr, "parallel.parallel_for", 2000, dispatch);

    // Replay every stage alone; at least 3 rounds and about a second.
    std::vector<std::vector<double>> stage_ms(inputs.size());
    std::vector<StageOutput> outs(inputs.size());
    const double tr0 = now_ms();
    for (int rep = 0; rep < 3 || now_ms() - tr0 < 1000.0; ++rep) {
      for (std::size_t s = 0; s < inputs.size(); ++s) {
        const std::int64_t id = tr.begin(inputs[s].conv ? "core.apconv"
                                                        : "core.apmm");
        replay_stage(*net, inputs[s], run.dev, &pool, false, &outs[s]);
        stage_ms[s].push_back(tr.end(id));
      }
    }
    double stem_ms = 0, body_ms = 0, head_ms = 0, stem_ops = 0, body_ops = 0;
    std::string rows = "[";
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      const double ms = median(stage_ms[s]);
      const double ops = inputs[s].bit_ops(*net);
      if (s == 0) {
        stem_ms += ms;
        stem_ops += ops;
      } else if (inputs[s].conv) {
        body_ms += ms;
        body_ops += ops;
      } else {
        head_ms += ms;
      }
      const nn::ApnnStage& st = net->stages()[inputs[s].stage];
      char row[256];
      std::snprintf(row, sizeof row,
                    "%s{\"layer\": \"%s\", \"kind\": \"%s\", \"p\": %d, "
                    "\"q\": %d, \"ms\": %.4f, \"gops\": %.2f}",
                    s == 0 ? "" : ", ",
                    net->spec().layers[st.layer_index].name.c_str(),
                    inputs[s].conv ? "conv" : "linear", st.weights.bits(),
                    st.in_bits, ms, ops / ms / 1e6);
      rows += row;
    }
    tr.note("stages", rows + "]");
    const double kernels_ms = stem_ms + body_ms + head_ms;
    std::printf("# stages: stem %.3f ms, body %.3f ms, head %.3f ms, "
                "session.run %.3f ms\n",
                stem_ms, body_ms, head_ms, run_ms);

    run.metric("core.stem.ms", stem_ms, "ms");
    run.metric("core.stem.gops", stem_ops / stem_ms / 1e6, "GOPS");
    run.metric("core.body.ms", body_ms, "ms");
    run.metric("core.body.gops", body_ops / body_ms / 1e6, "GOPS");
    run.metric("core.head.ms", head_ms, "ms");
    run.metric("core.kernels.ms", kernels_ms, "ms");
    run.metric("layout.pack_input.ms", pack_ms, "ms");
    run.metric("parallel.dispatch_us", dispatch_us, "us");
    run.metric("session.run.ms", run_ms, "ms");
    run.metric("session.glue.ms", run_ms - kernels_ms, "ms");
    run.metric("session.first_run.ms", first_run_ms, "ms");
    run.metric("session.allocs_per_run", median(allocs), "count");
    run.metric("session.slab_mib",
               static_cast<double>(session.slab().capacity_bytes()) /
                   (1024.0 * 1024.0),
               "MiB");
    run.metric("model.load_s", load_s, "s");
    run.metric("model.file_mib", file_mib(path), "MiB");
  }

  // Checks, after every figure above was taken.
  run.check("session outputs repeat per input", drift);
  for (std::size_t k = 0; k < k_images; ++k) {
    run.check("session == forward_reference, input " + std::to_string(k),
              mismatches(first[k], net->forward_reference(images[k])));
  }
  run.check("stage walk == session", mismatches(walked, first[0]));
  // The stem and the last 3x3 body conv, replayed raw, against a naive
  // direct convolution over the stage's logical weights.
  std::size_t body = 0;
  for (std::size_t s = 1; s < inputs.size(); ++s) {
    if (inputs[s].conv && inputs[s].g.kernel == 3) body = s;
  }
  for (const std::size_t s : {std::size_t{0}, body}) {
    const StageInput& in = inputs[s];
    const nn::ApnnStage& st = net->stages()[in.stage];
    StageOutput raw;
    replay_stage(*net, in, run.dev, &pool, true, &raw);
    const Tensor<std::int32_t> x =
        s == 0 ? images[0]
               : logical_values(in.x, st.in_enc == core::Encoding::kSignedPM1);
    run.check("raw apconv == naive conv, " +
                  net->spec().layers[st.layer_index].name,
              mismatches(raw.y, naive_conv(x, st.weights_logical, in.g)));
  }
  return {std::move(net)};
}

// --- gateway path -----------------------------------------------------------

struct ClientLog {
  std::vector<Op> ops[3];  ///< by phase: warm-up, untraced, traced
  std::int64_t completed = 0;
  std::int64_t window_failed = 0;
  std::int64_t drift = 0;
  std::map<std::size_t, Tensor<std::int32_t>> first;  ///< by sample index
};

void gateway_phase(Run& run, const nn::ApnnNetwork* conv_net) {
  const bool primary = run.wl.gateway;
  const bool traced = run.trace.enabled();
  Trace& tr = run.trace;
  const ModelDef* defs[2] = {run.wl.conv, &kTransformer};

  const double t_load = now_ms();
  nn::gw::ModelRegistry registry(run.dev, 2, run.nproc);
  for (const ModelDef* d : defs) {
    nn::gw::ModelConfig cfg;
    cfg.id = d->id;
    cfg.path = model_path(*d, run.args.models);
    const std::int64_t id = tr.begin("registry.load");
    registry.load(cfg);
    tr.end(id);
  }
  const double registry_load_s = (now_ms() - t_load) / 1e3;
  nn::gw::GatewayOptions gopts;
  gopts.allow_admin = false;
  nn::gw::Gateway gateway(registry, gopts);
  const int port = gateway.port();

  std::vector<Tensor<std::int32_t>> samples[2] = {
      conv_inputs(defs[0]->spec(), run.wl.images, run.args.seed + 1),
      token_inputs(defs[1]->spec(), run.args.seed)};

  nn::wire::Client admin(port);
  Tensor<std::int32_t> first_reply = admin.infer(defs[0]->id, samples[0][0]);
  const double setup_s = primary ? run.end_setup() : 0.0;
  // Served counts are compared from here on; the server counts a request
  // before it responds, so the first one is already in `before`.
  std::int64_t before[2];
  const std::string stats_before = admin.stats();
  for (int m = 0; m < 2; ++m) {
    before[m] = requests_total(stats_before, defs[m]->id);
  }

  // Closed loop: kClientsPerModel connections per model, each sending its
  // next request when the previous one returns. A request belongs to the
  // phase in which it was sent.
  std::atomic<int> phase{0};  // 0 warm-up, 1 untraced, 2 traced, 3 stop
  ClientLog logs[2][kClientsPerModel];
  std::vector<std::thread> clients;
  for (int m = 0; m < 2; ++m) {
    for (int c = 0; c < kClientsPerModel; ++c) {
      clients.emplace_back([&, m, c] {
        ClientLog& log = logs[m][c];
        const auto& mine = samples[m];
        nn::wire::Client client(port);
        for (std::size_t i = static_cast<std::size_t>(c);; ++i) {
          const int ph = phase.load();
          if (ph == 3) break;
          const std::size_t k = i % mine.size();
          const std::int64_t id = ph == 2 ? tr.begin("wire.Client.infer") : 0;
          const double t = now_ms();
          try {
            Tensor<std::int32_t> y =
                client.infer(defs[m]->id, mine[k], 0, m == 1);
            log.ops[ph].push_back({t, now_ms()});
            tr.end(id);
            ++log.completed;
            auto it = log.first.find(k);
            if (it == log.first.end()) {
              log.first.emplace(k, std::move(y));
            } else {
              log.drift += mismatches(y, it->second);
            }
          } catch (const std::exception& e) {
            tr.end(id);
            if (ph != 0) ++log.window_failed;
            std::fprintf(stderr, "request failed: %s\n", e.what());
          }
        }
      });
    }
  }

  const auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(kWarmupSeconds);
  const double window_s = traced ? run.args.seconds / 2 : run.args.seconds;
  const auto stats0 = registry.stats();
  std::vector<StealSampler::Slice> slices[3];
  for (int ph = 1; ph <= (traced ? 2 : 1); ++ph) {
    StealSampler sampler(kSliceMs);
    phase = ph;
    sleep_s(window_s);
    slices[ph] = sampler.stop();
  }
  const auto stats2 = registry.stats();
  const double rss = peak_rss_mib();
  phase = 3;
  for (auto& t : clients) t.join();

  // Requests sent inside a window, all models together and per model.
  std::vector<Op> ops[3], model_ops[2];
  std::int64_t window_failed = 0, completed[2] = {0, 0};
  for (int m = 0; m < 2; ++m) {
    for (const ClientLog& log : logs[m]) {
      for (int ph = 0; ph < 3; ++ph) {
        ops[ph].insert(ops[ph].end(), log.ops[ph].begin(), log.ops[ph].end());
      }
      model_ops[m].insert(model_ops[m].end(), log.ops[1].begin(),
                          log.ops[1].end());
      window_failed += log.window_failed;
      completed[m] += log.completed;
    }
  }
  std::printf("# gateway: %d models x %d connections, registry hw_threads "
              "%u, nproc %u, warm-up %.2f s / %zu requests\n",
              2, kClientsPerModel, run.nproc, run.nproc, kWarmupSeconds,
              ops[0].size());
  const QuietSummary w = summarize(ops[1], slices[1]);
  print_window("gateway untraced", w);

  double d_req = 0, d_batches = 0, d_lat = 0, d_batch_ms = 0;
  for (std::size_t m = 0; m < stats2.size(); ++m) {
    d_req += static_cast<double>(stats2[m].stats.requests -
                                 stats0[m].stats.requests);
    d_batches += static_cast<double>(stats2[m].stats.batches -
                                     stats0[m].stats.batches);
    d_lat += stats2[m].stats.total_latency_ms - stats0[m].stats.total_latency_ms;
    d_batch_ms +=
        stats2[m].stats.total_batch_ms - stats0[m].stats.total_batch_ms;
  }

  if (primary) {
    run.attempted += static_cast<std::int64_t>(ops[1].size() + ops[2].size()) +
                     window_failed;
    run.failed += window_failed;
    if (!traced) {
      run.metric("setup_s", setup_s, "s");
      run.metric("cpu_ms_per_item", w.cpu_ms_per_op, "ms");
      run.metric("peak_rss_mib", rss, "MiB");
    } else {
      const QuietSummary wt = summarize(ops[2], slices[2]);
      print_window("gateway traced", wt);
      run.metric("latency_p50_ms", median(w.lat_ms), "ms");
      run.metric("throughput_per_s", w.per_s, "1/s");
      run.metric("client.latency_p90_ms", quantile(w.lat_ms, 0.9), "ms");
      run.metric("trace.overhead_ms", median(wt.lat_ms) - median(w.lat_ms),
                 "ms");
    }
  }

  if (traced) {
    std::vector<double> pings;
    for (int i = 0; i < 550; ++i) {
      const std::int64_t id = tr.begin("wire.Client.ping");
      admin.ping();
      const double ms = tr.end(id);
      if (i >= 50) pings.push_back(ms);
    }
    // Client-side mean over every window request against the servers'
    // mean over the same interval.
    std::vector<double> window_lat = w.all_lat_ms;
    for (const Op& op : ops[2]) window_lat.push_back(op.t1_ms - op.t0_ms);
    run.metric("registry.load_s", registry_load_s, "s");
    run.metric("server.mean_batch", d_req / d_batches, "req/batch");
    run.metric("server.batch_ms", d_batch_ms / d_batches, "ms");
    run.metric("server.latency_ms", d_lat / d_req, "ms");
    run.metric("gateway.ping_us", 1e3 * median(pings), "us");
    run.metric("gateway.overhead_ms", mean(window_lat) - d_lat / d_req, "ms");
    run.metric("gateway.conv.p50_ms",
               median(summarize(model_ops[0], slices[1]).lat_ms), "ms");
    run.metric("gateway.attn.p50_ms",
               median(summarize(model_ops[1], slices[1]).lat_ms), "ms");
  }

  // Checks: served counts against /stats, then every distinct response
  // against a batch-1 session run of its sample.
  const std::string stats_text = admin.stats();
  for (int m = 0; m < 2; ++m) {
    const std::int64_t served = requests_total(stats_text, defs[m]->id);
    run.check(std::string("client count == /stats delta, ") + defs[m]->id,
              completed[m] - (served - before[m]));
  }
  std::unique_ptr<nn::ApnnNetwork> loaded;
  for (int m = 0; m < 2; ++m) {
    const nn::ApnnNetwork* net = m == 0 ? conv_net : nullptr;
    if (net == nullptr) {
      loaded = std::make_unique<nn::ApnnNetwork>(
          nn::load_network(model_path(*defs[m], run.args.models)));
      net = loaded.get();
    }
    apnn::ThreadPool pool(run.nproc);
    nn::SessionOptions so;
    so.pool = &pool;
    nn::InferenceSession session(*net, run.dev, so);
    std::int64_t bad = 0, drift = 0;
    for (const ClientLog& log : logs[m]) drift += log.drift;
    for (std::size_t k = 0; k < samples[m].size(); ++k) {
      const Tensor<std::int32_t> logits = session.run(samples[m][k]);
      const Tensor<std::int32_t> want = logits.reshaped({logits.numel()});
      if (m == 0 && k == 0) bad += mismatches(first_reply, want);
      for (const ClientLog& log : logs[m]) {
        const auto it = log.first.find(k);
        if (it != log.first.end()) bad += mismatches(it->second, want);
      }
    }
    run.check(std::string("gateway responses repeat, ") + defs[m]->id, drift);
    run.check(std::string("gateway == batch-1 session, ") + defs[m]->id, bad);
  }
}

int run_benchmark(const Args& args, const Workload& wl, double t_start) {
  Run run(args, wl, t_start);
  SessionResult session;
  if (!wl.gateway || args.trace) session = session_phase(run);
  if (wl.gateway || args.trace) gateway_phase(run, session.net.get());
  if (args.trace) {
    const std::string path = args.out + "/trace_" + wl.name + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (!run.trace.write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# trace written to %s\n", path.c_str());
  }
  std::printf("# operations attempted %lld, failed %lld\n",
              static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed));
  run.print_result();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: apnn_bench gen --workload W --models DIR\n"
               "       apnn_bench run --workload W --seed S --seconds T "
               "--trace 0|1 --models DIR --out DIR\n"
               "       apnn_bench selftest --out DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double t_start = now_ms();
  if (argc < 2) return usage();
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--models") a.models = v;
    else if (k == "--out") a.out = v;
    else return usage();
  }
  try {
    if (a.cmd == "selftest") return selftest(a.out) == 0 ? 0 : 1;
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads) {
      if (a.workload == w.name) wl = &w;
    }
    if (wl == nullptr) return usage();
    if (a.cmd == "gen") {
      return generate(*wl->conv, a.models) | generate(kTransformer, a.models);
    }
    if (a.cmd == "run" && a.seconds > 0) return run_benchmark(a, *wl, t_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apnn_bench: %s\n", e.what());
    return 1;
  }
  return usage();
}
