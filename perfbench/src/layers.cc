// `perfbench layers`: the traced run's per-layer replay. It regenerates the
// workload's inputs from the same seed and calls each layer's public
// functions directly, recording a span around every call (in memory,
// written out at the end). Self time per layer is read off the spans.
// It also measures this machine's ceilings: STREAM-style triad bandwidth
// and the peak GFLOP/s of kernels::MatMulAdd on a cache-resident shape,
// which turn the scoring kernel's rate into a roofline fraction.
//
// A layer the workload does not run reports 0.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "causal/dense.h"
#include "causal/matrix_exp.h"
#include "common.h"
#include "common/thread_pool.h"
#include "core/causer_model.h"
#include "core/trainer.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/session_store.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"

namespace perfbench {

using namespace causer;
namespace wire = serve::wire;
namespace kernels = tensor::kernels;

namespace {

volatile float g_sink = 0;

/// Best-of-`reps` GB/s of a[i] = b[i] + s * c[i] over the shared pool
/// (3 arrays of `n` floats; STREAM counts 3 * n * 4 bytes per pass).
double StreamGbps(long n, int reps) {
  std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    DefaultPool().ParallelFor(0, static_cast<int>(n / 4096), [&](int lo,
                                                                 int hi) {
      for (long i = lo * 4096L; i < hi * 4096L; ++i) a[i] = b[i] + 0.5f * c[i];
    });
    best = std::min(best, SecondsSince(t0));
  }
  g_sink = g_sink + a[n / 2];
  return 3.0 * n * sizeof(float) / best / 1e9;
}

/// Best-of GFLOP/s of MatMulAdd on an L2-resident square shape.
double PeakGflops(int dim, int reps) {
  std::vector<float> a(dim * dim, 0.5f), b(dim * dim, 0.25f), c(dim * dim);
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::fill(c.begin(), c.end(), 0.0f);
    const Clock::time_point t0 = Clock::now();
    kernels::MatMulAdd(a.data(), b.data(), c.data(), dim, dim, dim, false,
                       false);
    best = std::min(best, SecondsSince(t0));
  }
  g_sink = g_sink + c[0];
  return 2.0 * dim * dim * dim / best / 1e9;
}

struct Replayed {
  int user = 0;
  std::vector<data::Step> bootstrap;
  data::Step append;
};

/// The first `n` fixed-phase requests of the workload's traffic, with the
/// bootstrap windows a generator would send (every request assumed kOk).
std::vector<Replayed> ReplayStream(const WorkloadSpec& spec, bool toy,
                                   uint64_t seed, long n) {
  const Traffic traffic(spec, NumItems(spec, toy), seed);
  struct U {
    std::vector<int> window;
    long pos = 0;
  };
  std::unordered_map<int, U> users;
  std::vector<Replayed> out;
  for (long i = 0; i < n; ++i) {
    Replayed r;
    r.user = traffic.UserAt(i, 0);
    U& u = users[r.user];
    if (u.pos == 0 && u.window.empty()) {
      for (int t = -kWindow; t < 0; ++t) {
        u.window.push_back(traffic.ItemAt(r.user, t));
      }
    }
    for (int item : u.window) r.bootstrap.push_back(StepOf(item));
    const int item = traffic.ItemAt(r.user, u.pos++);
    r.append = StepOf(item);
    u.window.push_back(item);
    if (static_cast<int>(u.window.size()) > kWindow) {
      u.window.erase(u.window.begin());
    }
    out.push_back(std::move(r));
  }
  return out;
}

double MeanSelfUs(const Spans& spans, const char* name) {
  const Spans::Stat s = spans.Get(name);
  return s.calls ? 1e6 * s.self_s / s.calls : 0.0;
}

}  // namespace

int CmdLayers(const Flags& flags) {
  const bool toy = flags.GetBool("toy", false);
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload"), toy);
  const std::string dir = flags.GetString("fixtures");
  const std::string out_path = flags.GetString("out");
  if (spec == nullptr || dir.empty() || out_path.empty()) {
    std::fprintf(stderr, "perfbench layers: bad arguments\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  SetDefaultThreads(kThreads);
  Spans spans;
  Json out;

  // -- machine ceilings ----------------------------------------------------
  const double stream_gbps = StreamGbps(toy ? (1L << 20) : (1L << 23), 5);
  const double peak_gflops = PeakGflops(128, toy ? 5 : 40);
  out.Num("machine.stream_gbps", stream_gbps)
      .Num("machine.peak_gflops", peak_gflops);

  double decode_us = 0, encode_us = 0, acquire_us = 0, bytes_per_session = 0;
  double core_advance = 0, core_score = 0, gru_advance = 0, gru_rep = 0;
  double topk_us = 0, topk_gflops = 0, topk_gbps = 0, topk_roofline = 0;
  double topkq_us = 0, quantize_us = 0, matrix_exp_us = 0;

  if (spec->serve) {
    std::shared_ptr<models::SequentialRecommender> model =
        LoadModel(*spec, toy, dir, 0);
    if (model == nullptr) {
      std::fprintf(stderr, "perfbench layers: missing fixtures\n");
      return 1;
    }
    const long n = toy ? 200 : 2000;
    const std::vector<Replayed> stream = ReplayStream(*spec, toy, seed, n);

    // serve.protocol: decode the workload's request frames, encode
    // top-k response frames.
    std::vector<std::vector<uint8_t>> payloads;
    for (size_t i = 0; i < stream.size(); ++i) {
      wire::RequestFrame frame;
      frame.request_id = static_cast<uint32_t>(i + 1);
      frame.user = stream[i].user;
      frame.append = {stream[i].append.items[0]};
      for (const data::Step& s : stream[i].bootstrap) {
        frame.bootstrap.push_back({s.items[0]});
      }
      payloads.emplace_back();
      wire::EncodeRequest(frame, &payloads.back());
    }
    for (size_t i = 0; i < payloads.size(); ++i) {
      wire::RequestFrame decoded;
      const int id = spans.Begin("serve.protocol.decode", -1, i + 1);
      wire::DecodeRequest(payloads[i], &decoded);
      spans.End(id);
    }
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < payloads.size(); ++i) {
      wire::ResponseFrame resp;
      resp.request_id = static_cast<uint32_t>(i + 1);
      resp.model_version = 1;
      for (int j = 0; j < kTopK; ++j) {
        resp.items.push_back((j * 977 + static_cast<int>(i)) %
                             NumItems(*spec, toy));
        resp.scores.push_back(1.0f / (j + 1));
      }
      const int id = spans.Begin("serve.protocol.encode", -1, i + 1);
      wire::EncodeResponse(resp, &buf);
      spans.End(id);
    }
    decode_us = MeanSelfUs(spans, "serve.protocol.decode");
    encode_us = MeanSelfUs(spans, "serve.protocol.encode");

    // serve.session_store + the model's advance / score calls, per request
    // on the workload's user stream and session cap.
    const bool causer = spec->model == ModelKind::kCauser;
    const int dim = causer ? 0 : spec->gru_dim;
    std::vector<float> rep(std::max(1, dim));
    {
      serve::SessionStore store(spec->max_sessions);
      for (size_t i = 0; i < stream.size(); ++i) {
        const int req = spans.Begin("replay.request", -1, i + 1);
        const int acq = spans.Begin("serve.session_store.acquire", req, i + 1);
        serve::SessionStore::Handle h =
            store.Acquire(stream[i].user, &stream[i].bootstrap, model, 1);
        spans.End(acq);
        const int adv = spans.Begin(causer ? "core.advance" : "models.advance",
                                    req, i + 1);
        model->AdvanceState(*h, stream[i].append);
        spans.End(adv);
        if (causer) {
          const int sc = spans.Begin("core.score", req, i + 1);
          std::vector<float> scores = model->ScoreFromState(*h);
          spans.End(sc);
          g_sink = g_sink + scores[0];
        } else {
          const int sc = spans.Begin("models.state_rep", req, i + 1);
          model->StateRep(*h, rep.data());
          spans.End(sc);
        }
        spans.End(req);
      }
    }
    acquire_us = MeanSelfUs(spans, "serve.session_store.acquire");
    core_advance = MeanSelfUs(spans, "core.advance");
    core_score = MeanSelfUs(spans, "core.score");
    gru_advance = MeanSelfUs(spans, "models.advance");
    gru_rep = MeanSelfUs(spans, "models.state_rep");

    // Bytes per cached session: heap growth over N fresh sessions.
    {
      const int sessions = toy ? 50 : 1000;
      serve::SessionStore store(0);
      const size_t before = HeapBytes();
      for (int i = 0; i < sessions; ++i) {
        const Replayed& r = stream[i % stream.size()];
        store.Acquire((1 << 29) + i, &r.bootstrap, model, 1);
      }
      const size_t after = HeapBytes();
      bytes_per_session =
          after > before ? static_cast<double>(after - before) / sessions : 0;
    }

    // tensor.kernels / tensor.quant at the workload's scoring shape: a
    // micro-batch of `rows` representations against the whole catalog.
    if (!causer) {
      const int rows = 8;
      const int items = NumItems(*spec, toy);
      const nn::Tensor* table = model->OutputItemTable();
      std::vector<float> reps(static_cast<size_t>(rows) * dim);
      {
        serve::SessionStore store(0);
        for (int r = 0; r < rows; ++r) {
          serve::SessionStore::Handle h = store.Acquire(
              stream[r].user, &stream[r].bootstrap, model, 1);
          model->StateRep(*h, reps.data() + static_cast<size_t>(r) * dim);
        }
      }
      const int reps_n = toy ? 3 : 20;
      if (!spec->quantize_int8) {
        std::vector<kernels::TopKEntry> top(rows * kTopK);
        for (int r = 0; r < reps_n; ++r) {
          const int id = spans.Begin("tensor.kernels.topk", -1, r);
          kernels::MatMulTopK(reps.data(), table->data().data(), rows, dim,
                              items, kTopK, top.data());
          spans.End(id);
        }
        topk_us = MeanSelfUs(spans, "tensor.kernels.topk");
        const double flops = 2.0 * rows * dim * items;
        // Bytes computed from tensor sizes: the item table, the reps and
        // the selected entries.
        const double bytes = 4.0 * items * dim + 4.0 * rows * dim +
                             8.0 * rows * kTopK;
        topk_gflops = flops / (topk_us * 1e-6) / 1e9;
        topk_gbps = bytes / (topk_us * 1e-6) / 1e9;
        const double ceiling =
            std::min(peak_gflops, flops / bytes * stream_gbps);
        topk_roofline = topk_gflops / ceiling;
      } else {
        tensor::QuantizedMatrix qtable;
        for (int r = 0; r < (toy ? 2 : 3); ++r) {
          const int id = spans.Begin("tensor.quant.quantize", -1, r);
          tensor::QuantizeRows(table->data().data(), items, dim, &qtable);
          spans.End(id);
        }
        quantize_us = MeanSelfUs(spans, "tensor.quant.quantize");
        tensor::QuantizedMatrix qreps;
        tensor::QuantizeRows(reps.data(), rows, dim, &qreps);
        const int k = std::min(items, serve::ServingConfig{}.rerank_k);
        std::vector<kernels::TopKEntry> top(static_cast<size_t>(rows) * k);
        for (int r = 0; r < reps_n; ++r) {
          const int id = spans.Begin("tensor.quant.topkq", -1, r);
          kernels::MatMulTopKQSharded(qreps.data.data(), qreps.scales.data(),
                                      qtable.data.data(), qtable.scales.data(),
                                      rows, dim, items, k, spec->score_shards,
                                      top.data());
          spans.End(id);
        }
        topkq_us = MeanSelfUs(spans, "tensor.quant.topkq");
      }
    }
  }
  if (spec->model == ModelKind::kCauser) {
    // causal: the matrix exponential inside the NOTEARS graph update, at
    // the Causer model's K.
    const int k = core::DefaultCauserConfig(CauserDataset(toy),
                                            core::Backbone::kGru, 7)
                      .num_clusters;
    causal::Dense w(k, k);
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        if (i != j) w(i, j) = 0.05 * ((Mix(seed + i * k + j) % 200) / 100.0);
      }
    }
    for (int r = 0; r < (toy ? 20 : 400); ++r) {
      const int id = spans.Begin("causal.matrix_exp", -1, r);
      causal::Dense e = causal::MatrixExponential(w);
      spans.End(id);
      g_sink = g_sink + static_cast<float>(e(0, 0));
    }
    matrix_exp_us = MeanSelfUs(spans, "causal.matrix_exp");
  }

  out.Num("serve.protocol.decode_us", decode_us)
      .Num("serve.protocol.encode_us", encode_us)
      .Num("serve.session_store.acquire_us", acquire_us)
      .Num("serve.session_store.bytes_per_session", bytes_per_session)
      .Num("core.advance_us", core_advance)
      .Num("core.score_us", core_score)
      .Num("models.advance_us", gru_advance)
      .Num("models.state_rep_us", gru_rep)
      .Num("tensor.kernels.topk_us", topk_us)
      .Num("tensor.kernels.topk_gflops", topk_gflops)
      .Num("tensor.kernels.topk_gbps", topk_gbps)
      .Num("tensor.kernels.topk_roofline", topk_roofline)
      .Num("tensor.quant.topkq_us", topkq_us)
      .Num("tensor.quant.quantize_us", quantize_us)
      .Num("causal.matrix_exp_us", matrix_exp_us)
      .Int("spans", static_cast<long long>(spans.size()))
      .Raw("provenance", ProvenanceJson());
  if (!WriteFile(out_path, out.Done())) return 1;
  const std::string spans_path = flags.GetString("spans-out");
  if (!spans_path.empty()) WriteFile(spans_path, spans.ToJson());
  return 0;
}

}  // namespace perfbench
