#include "checks.hpp"

#include <cstdio>
#include <thread>

#include "src/common/rng.hpp"
#include "src/nn/gateway.hpp"
#include "src/nn/registry.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"
#include "walker.hpp"

namespace perfbench {

std::int64_t mismatches(const Tensor<std::int32_t>& got,
                        const Tensor<std::int32_t>& want) {
  if (got.shape() != want.shape()) {
    return std::max<std::int64_t>({got.numel(), want.numel(), 1});
  }
  std::int64_t bad = 0;
  for (std::int64_t i = 0; i < got.numel(); ++i) bad += got[i] != want[i];
  return bad;
}

Tensor<std::int32_t> logical_values(const apnn::layout::PackedActivations& x,
                                    bool pm1) {
  Tensor<std::int32_t> out({x.n, x.h, x.w, x.c});
  const std::int64_t rows = x.spatial_rows();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < x.c; ++c) {
      std::int32_t code = 0;
      for (int t = 0; t < x.bits; ++t) {
        code |= static_cast<std::int32_t>(
                    x.planes[static_cast<std::size_t>(t)].get(r, c))
                << t;
      }
      out[r * x.c + c] = pm1 ? 2 * code - 1 : code;
    }
  }
  return out;
}

Tensor<std::int32_t> naive_conv(const Tensor<std::int32_t>& x,
                                const Tensor<std::int32_t>& w,
                                const apnn::layout::ConvGeometry& g) {
  const std::int64_t n = x.dim(0), h = x.dim(1), wd = x.dim(2), c = x.dim(3);
  const std::int64_t oh = (h + 2 * g.pad - g.kernel) / g.stride + 1;
  const std::int64_t ow = (wd + 2 * g.pad - g.kernel) / g.stride + 1;
  const std::int64_t co_n = w.dim(0), k = g.kernel;
  APNN_CHECK(w.dim(1) == k * k * c) << "weight/input channel mismatch";
  Tensor<std::int32_t> y({n, oh, ow, co_n});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox)
        for (std::int64_t co = 0; co < co_n; ++co) {
          std::int32_t acc = 0;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t iy = oy * g.stride - g.pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t ix = ox * g.stride - g.pad + kx;
              if (ix < 0 || ix >= wd) continue;
              const std::int32_t* xp = &x[((b * h + iy) * wd + ix) * c];
              const std::int32_t* wp = &w[co * k * k * c + (ky * k + kx) * c];
              for (std::int64_t ci = 0; ci < c; ++ci) acc += xp[ci] * wp[ci];
            }
          }
          y[((b * oh + oy) * ow + ox) * co_n + co] = acc;
        }
  return y;
}

std::int64_t requests_total(const std::string& prometheus,
                            const std::string& model) {
  const std::string key =
      "apnn_model_requests_total{model=\"" + model + "\"} ";
  const std::size_t at = prometheus.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(prometheus.c_str() + at + key.size(), nullptr, 10);
}

namespace {

// One comparison shown both ways: 0 mismatches on clean data, some on a
// corrupted copy.
int expect(const char* what, std::int64_t clean, std::int64_t corrupted) {
  const bool ok = clean == 0 && corrupted > 0;
  std::printf("selftest %-36s clean %lld, corrupted %lld: %s\n", what,
              static_cast<long long>(clean),
              static_cast<long long>(corrupted), ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

Tensor<std::int32_t> corrupt(Tensor<std::int32_t> t, std::int64_t at) {
  t[at % t.numel()] += 1;
  return t;
}

}  // namespace

int selftest(const std::string& scratch_dir) {
  const auto& dev = apnn::tcsim::rtx3090();
  const nn::ModelSpec spec = nn::mini_resnet(3, 16, 10);
  nn::ApnnNetwork net = nn::ApnnNetwork::random(spec, 1, 2, 7);
  apnn::Rng rng(8);
  Tensor<std::int32_t> image({1, 16, 16, 3});
  image.randomize(rng, 0, 255);
  net.calibrate(image);
  int failures = 0;

  // Session logits against the dense integer reference.
  nn::InferenceSession session(net, dev);
  const Tensor<std::int32_t> logits = session.run(image);
  const Tensor<std::int32_t> ref = net.forward_reference(image);
  failures += expect("session == forward_reference", mismatches(logits, ref),
                     mismatches(corrupt(logits, 3), ref));

  // Raw stem and body replays against the naive convolution; the corrupted
  // side is once the kernel output and once a logical weight.
  std::vector<StageInput> inputs;
  const Tensor<std::int32_t> walked =
      walk_network(net, image, dev, nullptr, &inputs);
  failures += expect("stage walk == session", mismatches(walked, logits),
                     mismatches(corrupt(walked, 1), logits));
  for (const std::size_t s : {std::size_t{0}, std::size_t{1}}) {
    const nn::ApnnStage& st = net.stages()[inputs[s].stage];
    StageOutput raw;
    replay_stage(net, inputs[s], dev, nullptr, true, &raw);
    const Tensor<std::int32_t> x =
        s == 0 ? image : logical_values(inputs[s].x, false);
    const Tensor<std::int32_t> want =
        naive_conv(x, st.weights_logical, inputs[s].g);
    const char* name = s == 0 ? "raw stem == naive conv (output)"
                              : "raw body == naive conv (output)";
    failures += expect(name, mismatches(raw.y, want),
                       mismatches(corrupt(raw.y, 17), want));
    // Negate the weight that meets the busiest input channel at the centre
    // tap of output channel 0, so the change must reach the output.
    std::int64_t busiest = 0, best = -1;
    for (std::int64_t ci = 0; ci < x.dim(3); ++ci) {
      std::int64_t sum = 0;
      for (std::int64_t i = ci; i < x.numel(); i += x.dim(3)) sum += x[i];
      if (sum > best) best = sum, busiest = ci;
    }
    const std::int64_t k = inputs[s].g.kernel;
    Tensor<std::int32_t> w = st.weights_logical;
    w[((k / 2) * k + k / 2) * x.dim(3) + busiest] *= -1;
    failures += expect(s == 0 ? "raw stem == naive conv (weights)"
                              : "raw body == naive conv (weights)",
                       0, mismatches(raw.y, naive_conv(x, w, inputs[s].g)));
  }

  // Gateway responses and the /stats request counter.
  const std::string path = scratch_dir + "/selftest_mini_resnet.apnn";
  if (!nn::save_network(net, path)) {
    std::printf("selftest cannot write %s\n", path.c_str());
    return 1;
  }
  {
    nn::gw::ModelRegistry registry(dev, 1,
                                   std::thread::hardware_concurrency());
    nn::gw::ModelConfig cfg;
    cfg.id = "mini";
    cfg.path = path;
    registry.load(cfg);
    nn::gw::Gateway gateway(registry, {});
    nn::wire::Client client(gateway.port());
    const std::int64_t before = requests_total(client.stats(), "mini");
    Tensor<std::int32_t> reply;
    const std::int64_t sent = 3;
    for (int i = 0; i < sent; ++i) reply = client.infer("mini", image);
    const std::int64_t served =
        requests_total(client.stats(), "mini") - before;
    const Tensor<std::int32_t> want = logits.reshaped({logits.numel()});
    failures += expect("gateway == batch-1 session", mismatches(reply, want),
                       mismatches(corrupt(reply, 0), want));
    failures += expect("client count == /stats delta", sent - served,
                       (sent + 1) - served);
  }
  std::remove(path.c_str());
  std::printf("selftest: %s\n", failures == 0 ? "every check can fail" :
                                                "FAILED");
  return failures;
}

}  // namespace perfbench
