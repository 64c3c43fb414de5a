#include "probes.h"

#include <array>

#include "crypto/mac.h"
#include "math/bernoulli.h"
#include "math/rng.h"
#include "net/frame.h"
#include "quorum/bitset.h"
#include "quorum/mask_batch.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"

namespace perfbench {

namespace {

// Keeps a computed value observable so the timed loop is not folded away.
volatile std::uint64_t g_sink = 0;

}  // namespace

void probe_quorum(const pqs::quorum::QuorumSystem& system, std::uint64_t seed,
                  Report& report) {
  pqs::math::Rng rng(seed ^ 0x71a3c0ffee01ULL);
  pqs::quorum::QuorumBitset mask(system.universe_size());
  std::uint64_t calls = 0;
  const double draw = time_batches(
      "quorum.draw_ns", 256, 400,
      [&](std::uint64_t) {
        system.sample_mask(mask, rng);
        g_sink = g_sink + mask.word_data()[0];
      },
      &calls);
  report.layer("quorum.draw_ns", draw, "ns", calls);

  constexpr std::size_t kMasks = 16;
  pqs::quorum::MaskBatch batch(system.universe_size(), kMasks);
  calls = 0;
  const double per_call = time_batches(
      "quorum.sample_masks_ns", 16, 400,
      [&](std::uint64_t) {
        system.sample_masks(batch.masks(), kMasks, rng);
        g_sink = g_sink + batch.words()[0];
      },
      &calls);
  report.layer("quorum.sample_masks_ns", per_call / kMasks, "ns",
               calls * kMasks);
}

void probe_crypto(std::uint64_t seed, Report& report) {
  const auto signer = pqs::crypto::Signer::from_seed(seed | 1);
  const pqs::crypto::Verifier verifier(signer.key());
  std::vector<pqs::crypto::SignedRecord> records(4096);
  std::uint64_t calls = 0;
  const double sign = time_batches(
      "crypto.sign_ns", 256, 400,
      [&](std::uint64_t i) {
        records[i % records.size()] = signer.sign(
            i & 1023, static_cast<std::int64_t>(i), i + 1, 1);
      },
      &calls);
  report.layer("crypto.sign_ns", sign, "ns", calls);
  calls = 0;
  const double verify = time_batches(
      "crypto.verify_ns", 256, 400,
      [&](std::uint64_t i) {
        g_sink = g_sink + (verifier.verify(records[i % records.size()]) ? 1 : 0);
      },
      &calls);
  report.layer("crypto.verify_ns", verify, "ns", calls);
}

void probe_simd(std::uint32_t n, std::uint32_t b, double dead_p,
                std::uint64_t seed, Report& report) {
  // The estimators' shapes: 16-mask MaskBatch chunks of n-bit masks; the
  // masking estimator judges 8 (read, write) pairs per chunk with a
  // 2-mask stride, the load estimator tallies 16 masks with a 1-mask
  // stride, and the failure estimator fills one n-bit alive mask a trial.
  const pqs::simd::Kernels& kern = pqs::simd::active();
  pqs::quorum::MaskBatch batch(n, 16);
  const std::size_t w = batch.words_per_mask();
  pqs::math::Rng rng(seed ^ 0x51d0ULL);
  for (std::size_t i = 0; i < 16 * w; ++i) batch.words()[i] = rng.next();
  for (std::size_t m = 0; m < 16; ++m) batch.mask(m).mask_padding();
  std::array<std::uint32_t, 16> out{};
  std::vector<std::uint64_t> hist(64 * w, 0);
  std::vector<std::uint64_t> alive(w, 0);
  const pqs::math::BernoulliBlockSampler dead(dead_p);
  const pqs::simd::BernoulliSpec spec = dead.spec(/*invert=*/true);

  std::uint64_t calls = 0;
  double t = time_batches(
      "simd.batch_and_popcount_ns", 1024, 200,
      [&](std::uint64_t) {
        kern.batch_and_popcount_from(batch.words(), batch.words() + w, 2 * w, 8,
                                     w, b, out.data());
      },
      &calls);
  report.layer("simd.batch_and_popcount_ns", t, "ns", calls);
  calls = 0;
  t = time_batches(
      "simd.batch_popcount_prefix_ns", 1024, 200,
      [&](std::uint64_t) {
        kern.batch_popcount_prefix(batch.words(), 2 * w, 8, b, out.data());
      },
      &calls);
  report.layer("simd.batch_popcount_prefix_ns", t, "ns", calls);
  calls = 0;
  t = time_batches(
      "simd.column_accumulate_ns", 1024, 200,
      [&](std::uint64_t) {
        kern.batch_column_accumulate(batch.words(), w, 16, w, hist.data());
      },
      &calls);
  report.layer("simd.column_accumulate_ns", t, "ns", calls);
  calls = 0;
  t = time_batches(
      "simd.bernoulli_fill_ns", 1024, 200,
      [&](std::uint64_t i) { kern.bernoulli_fill(alive.data(), w, spec, i); },
      &calls);
  report.layer("simd.bernoulli_fill_ns", t, "ns", calls);
  g_sink = g_sink + out[0] + hist[0] + alive[0];
}

void probe_stats_record(const std::vector<std::uint64_t>& values,
                        Report& report) {
  if (values.empty()) return;
  pqs::stats::LatencyHistogram histogram;
  std::uint64_t calls = 0;
  const double t = time_batches(
      "stats.record_ns", 1024, 400,
      [&](std::uint64_t i) { histogram.record(values[i % values.size()]); },
      &calls);
  g_sink = g_sink + histogram.count();
  report.layer("stats.record_ns", t, "ns", calls);
}

void probe_workload_next(const pqs::workload::OpenLoopSpec& spec,
                         std::uint64_t seed, Report& report) {
  pqs::workload::OpenLoopGenerator gen(spec, seed ^ 0x9e7ULL);
  pqs::workload::Operation op;
  std::uint64_t calls = 0;
  const double t = time_batches(
      "workload.next_ns", 1024, 400,
      [&](std::uint64_t) {
        gen.next(op);
        g_sink = g_sink + op.key;
      },
      &calls);
  report.layer("workload.next_ns", t, "ns", calls);
}

void probe_frame_codec(const std::vector<pqs::workload::Operation>& ops,
                       Report& report) {
  if (ops.empty()) return;
  constexpr std::uint32_t kBatch = 512;
  std::vector<unsigned char> wire(kBatch * pqs::net::kFrameBytes);
  const auto frame_of = [&](std::uint64_t i) {
    const auto& op = ops[i % ops.size()];
    pqs::net::Frame f;
    f.op = op.is_read ? pqs::net::Op::kGet : pqs::net::Op::kPut;
    f.request_id = i + 1;
    f.key = op.key;
    f.value = op.value;
    return f;
  };
  std::uint64_t calls = 0;
  const double encode = time_batches(
      "net.frame.encode_ns", kBatch, 400,
      [&](std::uint64_t i) {
        pqs::net::encode_frame(frame_of(i),
                               wire.data() + (i % kBatch) * pqs::net::kFrameBytes);
      },
      &calls);
  report.layer("net.frame.encode_ns", encode, "ns", calls);

  // Decode: feed one batch of encoded frames per span, then parse them.
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    pqs::net::encode_frame(frame_of(i), wire.data() + i * pqs::net::kFrameBytes);
  }
  pqs::net::FrameDecoder decoder(wire.size());
  pqs::net::Frame frame;
  std::vector<double> per_call;
  for (std::uint32_t b = 0; b < 400; ++b) {
    const std::uint64_t t0 = now_ns();
    decoder.feed(wire.data(), wire.size());
    std::uint32_t parsed = 0;
    while (decoder.next(frame) == pqs::net::FrameDecoder::Result::kFrame) {
      ++parsed;
      g_sink = g_sink + frame.key;
    }
    const std::uint64_t t1 = now_ns();
    if (parsed != kBatch) throw std::runtime_error("frame decode lost frames");
    if (Tracer::active() != nullptr) {
      Tracer::active()->record("net.frame.decode_ns", -1, b, kBatch, t0, t1);
    }
    per_call.push_back(static_cast<double>(t1 - t0) / kBatch);
  }
  report.layer("net.frame.decode_ns", percentile(per_call, 50.0), "ns",
               400ULL * kBatch);
}

}  // namespace perfbench
