#include "trace/generator.hpp"

#include <stdexcept>
#include <utility>

#include "common/bitmap.hpp"
#include "trace/io.hpp"

namespace planaria::trace {

namespace {

// Paces episodes so that `records` entries spread across `horizon` cycles:
// after an episode of n records the clock advances to keep the long-run rate,
// with jitter so arrivals do not beat against DRAM refresh periods.
class Pacer {
 public:
  Pacer(const Pacing& pacing, Rng& rng)
      : pacing_(pacing), rng_(rng),
        mean_gap_(pacing.records == 0
                      ? 1.0
                      : static_cast<double>(pacing.horizon) /
                            static_cast<double>(pacing.records)) {}

  Cycle now() const { return now_; }

  /// Advances past one record inside a burst.
  void step_intra() { now_ += pacing_.intra_gap; }

  /// Advances the idle gap that follows an episode of `n` records. With
  /// burstiness b, a fraction b of gaps collapse to ~0 (records pile into a
  /// frame-style burst) and the remainder stretch by 1/(1-b), preserving the
  /// long-run rate while creating the queue spikes where speculative traffic
  /// actually hurts.
  void episode_gap(std::uint64_t n) {
    if (pacing_.burstiness > 0.0 && rng_.chance(pacing_.burstiness)) {
      now_ += 2;
      return;
    }
    const double stretch =
        pacing_.burstiness > 0.0 ? 1.0 / (1.0 - pacing_.burstiness) : 1.0;
    const double target = mean_gap_ * static_cast<double>(n) * stretch;
    const double jitter =
        1.0 + pacing_.gap_jitter * (2.0 * rng_.next_double() - 1.0);
    double idle = target * jitter -
                  static_cast<double>(n) * static_cast<double>(pacing_.intra_gap);
    if (idle < 1.0) idle = 1.0;
    now_ += static_cast<Cycle>(idle);
  }

 private:
  const Pacing& pacing_;
  Rng& rng_;
  double mean_gap_;
  Cycle now_ = 0;
};

AccessType pick_type(Rng& rng, double write_fraction) {
  return rng.chance(write_fraction) ? AccessType::kWrite : AccessType::kRead;
}

/// Random footprint bitmap with `bits` set blocks out of 64. Footprints are
/// *chunky* — a few contiguous runs of blocks rather than uniform scatter —
/// matching how structures larger than one cache line lay out in a page.
/// The run structure is what gives offset/delta prefetchers (BOP, SPP) their
/// partial credit at the SC level; a snapshot prefetcher is indifferent to it.
PageBitmap random_footprint(Rng& rng, int bits) {
  PageBitmap bm;
  int set = 0;  // bm.popcount(), kept incrementally
  while (set < bits) {
    const int start = static_cast<int>(rng.next_below(kBlocksPerPage));
    const int run = static_cast<int>(rng.next_range(1, 4));
    for (int i = start; i < start + run && i < kBlocksPerPage; ++i) {
      if (set >= bits) break;
      if (!bm.test(i)) {
        bm.set(i);
        ++set;
      }
    }
  }
  return bm;
}

/// One in-progress page visit: the snapshot's blocks in (shuffled) emission
/// order.
struct Visit {
  PageNumber page = 0;
  int blocks[kBlocksPerPage] = {};
  int count = 0;
  int next = 0;

  bool done() const { return next >= count; }
};

Visit make_visit(PageNumber pn, const PageBitmap& footprint, Rng& rng,
                 double order_entropy = 0.45) {
  Visit v;
  v.page = pn;
  // Emission order: the footprint's maximal runs of consecutive blocks are
  // kept in ascending order internally but the *runs* are shuffled. This is
  // the paper's Observation 1: the overall order is non-deterministic (delta
  // sequences are unpredictable across runs), yet short sequential bursts
  // survive — which is why BOP/SPP retain partial accuracy at the SC.
  int runs[kBlocksPerPage][2];  // [start index in v.blocks, length]
  int run_count = 0;
  int prev = -2;
  footprint.for_each_set([&](int b) {
    if (b != prev + 1) {
      runs[run_count][0] = v.count;
      runs[run_count][1] = 0;
      ++run_count;
    }
    v.blocks[v.count++] = b;
    ++runs[run_count - 1][1];
    prev = b;
  });
  // Shuffle run order, then flatten.
  int order[kBlocksPerPage];
  for (int i = 0; i < run_count; ++i) order[i] = i;
  for (int i = run_count - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[i], order[j]);
  }
  int flat[kBlocksPerPage];
  int n = 0;
  for (int r = 0; r < run_count; ++r) {
    const int start = runs[order[r]][0];
    const int len = runs[order[r]][1];
    for (int k = 0; k < len; ++k) flat[n++] = v.blocks[start + k];
  }
  // Degrade sequentiality: each transposition breaks up to two adjacencies.
  // order_entropy ~0.45 leaves roughly half the sequential pairs intact,
  // which is the regime where delta prefetchers get partial (not full)
  // credit — the paper's SPP lands at a 10.8% AMAT gain, far from SLP's.
  const int swaps = static_cast<int>(n * order_entropy);
  for (int t = 0; t < swaps && n > 1; ++t) {
    const auto i = rng.next_below(static_cast<std::uint64_t>(n));
    const auto j = rng.next_below(static_cast<std::uint64_t>(n));
    std::swap(flat[i], flat[j]);
  }
  for (int i = 0; i < n; ++i) v.blocks[i] = flat[i];
  return v;
}

/// Emits `budget` records by interleaving up to kConcurrentVisits snapshot
/// visits, the way a multi-core SoC's traffic actually reaches the memory
/// bus: the aggregate record rate matches the pacing budget while each
/// individual page's visit stretches over concurrency x mean-gap cycles —
/// the latency-hiding window a snapshot prefetcher exploits.
template <typename NextVisit>
void interleave_visits(std::uint64_t budget, DeviceId device,
                       double write_fraction, Rng& rng, Pacer& pacer,
                       std::vector<TraceRecord>& out, NextVisit&& next_visit) {
  constexpr int kConcurrentVisits = 8;
  Visit active[kConcurrentVisits];
  for (auto& v : active) v = next_visit();
  const std::uint64_t target = out.size() + budget;
  while (out.size() < target) {
    auto& v = active[rng.next_below(kConcurrentVisits)];
    if (v.done()) {
      v = next_visit();
      continue;
    }
    out.push_back(TraceRecord{addr::compose(v.page, v.blocks[v.next++]),
                              pacer.now(), pick_type(rng, write_fraction),
                              device});
    pacer.episode_gap(1);
  }
}

}  // namespace

std::vector<TraceRecord> generate_footprint(const FootprintParams& params,
                                            const Pacing& pacing, Rng& rng) {
  if (params.hot_pages <= 0 || params.footprint_min < 1 ||
      params.footprint_max > kBlocksPerPage ||
      params.footprint_min > params.footprint_max) {
    throw std::invalid_argument("generate_footprint: bad params");
  }
  struct HotPage {
    PageNumber pn;
    PageBitmap footprint;
  };
  std::vector<HotPage> pages;
  pages.reserve(static_cast<std::size_t>(params.hot_pages));
  for (int i = 0; i < params.hot_pages; ++i) {
    // Related structures are allocated near each other: a fraction of pages
    // are "twins" of an earlier page — close in address space with a nearly
    // identical footprint. Twin distance is skewed toward small gaps (cubic
    // in a uniform variate), which produces Fig. 5's rising learnable-
    // neighbor curve; the rest are independent scattered pages.
    if (i > 0 && rng.chance(params.twin_fraction)) {
      const HotPage& base =
          pages[rng.next_below(static_cast<std::uint64_t>(i))];
      const double u = rng.next_double();
      const auto dist = static_cast<PageNumber>(
          1 + (params.twin_max_distance - 1) * u * u * u);
      const PageNumber pn =
          rng.chance(0.5) ? base.pn + dist
                          : (base.pn > dist ? base.pn - dist : base.pn + dist);
      PageBitmap fp = base.footprint;
      for (int f = 0; f < params.twin_flip_bits; ++f) {
        const int bit = static_cast<int>(rng.next_below(kBlocksPerPage));
        if (fp.test(bit) && fp.popcount() > params.footprint_min) {
          fp.clear(bit);
        } else {
          fp.set(bit);
        }
      }
      pages.push_back(HotPage{pn, fp});
      continue;
    }
    const PageNumber pn =
        params.base_page + rng.next_below(params.page_span);
    const int bits = static_cast<int>(
        rng.next_range(params.footprint_min, params.footprint_max));
    pages.push_back(HotPage{pn, random_footprint(rng, bits)});
  }

  std::vector<TraceRecord> out;
  out.reserve(pacing.records);
  Pacer pacer(pacing, rng);
  const ZipfSampler popularity(pages.size(), params.zipf_s);
  interleave_visits(pacing.records, params.device, params.write_fraction, rng,
                    pacer, out, [&] {
    auto& page = pages[popularity(rng)];
    // Program-phase drift: occasionally move one block of the snapshot. The
    // constituent stays >90% identical visit-to-visit, matching Fig. 4.
    if (rng.chance(params.mutate_p)) {
      const int victim = page.footprint.first_set();
      if (victim >= 0 && page.footprint.popcount() > params.footprint_min) {
        page.footprint.clear(victim);
      }
      page.footprint.set(static_cast<int>(rng.next_below(kBlocksPerPage)));
    }
    return make_visit(page.pn, page.footprint, rng, params.order_entropy);
  });
  return out;
}

std::vector<TraceRecord> generate_neighbor(const NeighborParams& params,
                                           const Pacing& pacing, Rng& rng) {
  if (params.clusters <= 0 || params.cluster_span <= 0 ||
      params.base_footprint < 1 || params.base_footprint > kBlocksPerPage ||
      params.perturb_bits < 0) {
    throw std::invalid_argument("generate_neighbor: bad params");
  }
  struct Cluster {
    PageNumber origin;
    PageBitmap base;
    std::vector<int> visited;  ///< offsets already seen, in first-visit order
    std::vector<std::uint8_t> seen;  ///< seen[offset] <=> offset in visited
  };
  std::vector<Cluster> clusters;
  clusters.reserve(static_cast<std::size_t>(params.clusters));
  for (int c = 0; c < params.clusters; ++c) {
    clusters.push_back(
        Cluster{params.base_page + static_cast<PageNumber>(c) * params.cluster_stride,
                random_footprint(rng, params.base_footprint),
                {},
                std::vector<std::uint8_t>(
                    static_cast<std::size_t>(params.cluster_span), 0)});
  }

  // Per-page perturbation must be *stable* (the same page always deviates
  // from the cluster base in the same bits), so derive it from a hash of the
  // page number rather than fresh randomness.
  const auto perturbed = [&](const Cluster& cl, int offset) {
    PageBitmap bm = cl.base;
    std::uint64_t h = (cl.origin + static_cast<std::uint64_t>(offset)) *
                      0x9E3779B97F4A7C15ull;
    for (int i = 0; i < params.perturb_bits; ++i) {
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ull;
      const int bit = static_cast<int>(h % kBlocksPerPage);
      if (bm.test(bit)) {
        bm.clear(bit);
      } else {
        bm.set(bit);
      }
    }
    if (bm.empty()) bm.set(0);
    return bm;
  };

  std::vector<TraceRecord> out;
  out.reserve(pacing.records);
  Pacer pacer(pacing, rng);
  std::size_t current = 0;
  int stay_left = 0;
  interleave_visits(pacing.records, params.device, params.write_fraction, rng,
                    pacer, out, [&] {
    if (stay_left == 0) {
      current = rng.next_below(clusters.size());
      stay_left = params.cluster_stay;
    }
    --stay_left;
    Cluster& cl = clusters[current];
    int offset;
    const bool explore = cl.visited.empty() ||
                         (cl.visited.size() <
                              static_cast<std::size_t>(params.cluster_span) &&
                          rng.chance(params.new_page_rate));
    if (explore) {
      offset = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(params.cluster_span)));
      if (cl.seen[static_cast<std::size_t>(offset)] == 0) {
        cl.seen[static_cast<std::size_t>(offset)] = 1;
        cl.visited.push_back(offset);
      }
    } else {
      offset = cl.visited[rng.next_below(cl.visited.size())];
    }
    return make_visit(cl.origin + static_cast<PageNumber>(offset),
                      perturbed(cl, offset), rng);
  });
  return out;
}

std::vector<TraceRecord> generate_stream(const StreamParams& params,
                                         const Pacing& pacing, Rng& rng) {
  if (params.streams <= 0 || params.run_min < 1 ||
      params.run_min > params.run_max || params.block_stride == 0) {
    throw std::invalid_argument("generate_stream: bad params");
  }
  std::vector<Address> cursors;
  cursors.reserve(static_cast<std::size_t>(params.streams));
  for (int s = 0; s < params.streams; ++s) {
    cursors.push_back(
        (params.base_page + static_cast<PageNumber>(s) * params.stream_stride)
        << kPageShift);
  }

  std::vector<TraceRecord> out;
  out.reserve(pacing.records);
  Pacer pacer(pacing, rng);
  while (out.size() < pacing.records) {
    auto& cursor = cursors[rng.next_below(cursors.size())];
    const int run =
        static_cast<int>(rng.next_range(params.run_min, params.run_max));
    const std::size_t before = out.size();
    for (int i = 0; i < run && out.size() < pacing.records; ++i) {
      out.push_back(TraceRecord{cursor, pacer.now(),
                                pick_type(rng, params.write_fraction),
                                params.device});
      cursor += static_cast<Address>(params.block_stride) * kBlockBytes;
      pacer.step_intra();
    }
    pacer.episode_gap(out.size() - before);
  }
  return out;
}

std::vector<TraceRecord> generate_irregular(const IrregularParams& params,
                                            const Pacing& pacing, Rng& rng) {
  if (params.page_span == 0 || params.blocks_min < 1 ||
      params.blocks_min > params.blocks_max ||
      params.blocks_max > kBlocksPerPage) {
    throw std::invalid_argument("generate_irregular: bad params");
  }
  std::vector<TraceRecord> out;
  out.reserve(pacing.records);
  Pacer pacer(pacing, rng);
  while (out.size() < pacing.records) {
    // A pointer-chase dereference drags a handful of scattered lines of one
    // page through the SC, then moves on and never returns.
    const PageNumber pn = params.base_page + rng.next_below(params.page_span);
    const int blocks = static_cast<int>(
        rng.next_range(params.blocks_min, params.blocks_max));
    PageBitmap touched;
    for (int i = 0; i < blocks && out.size() < pacing.records; ++i) {
      int block;
      do {
        block = static_cast<int>(rng.next_below(kBlocksPerPage));
      } while (touched.test(block));
      touched.set(block);
      out.push_back(TraceRecord{addr::compose(pn, block), pacer.now(),
                                pick_type(rng, params.write_fraction),
                                params.device});
      pacer.episode_gap(1);
    }
  }
  return out;
}

std::vector<TraceRecord> generate_app_trace(const AppProfile& app,
                                            std::uint64_t records) {
  if (records == 0) throw std::invalid_argument("generate_app_trace: 0 records");
  const double wsum = app.weight_footprint + app.weight_neighbor +
                      app.weight_stream + app.weight_irregular;
  if (wsum <= 0.0) throw std::invalid_argument("generate_app_trace: weights");

  const Cycle horizon = records * app.mean_gap;
  // Per-component record budgets, floored by weight; the last armed
  // component absorbs the floors' remainder so the trace holds exactly
  // `records` records.
  enum { kFootprint, kNeighbor, kStream, kIrregular, kComponents };
  const double weights[kComponents] = {app.weight_footprint,
                                       app.weight_neighbor, app.weight_stream,
                                       app.weight_irregular};
  std::uint64_t budgets[kComponents] = {};
  std::uint64_t assigned = 0;
  int last = -1;
  for (int c = 0; c < kComponents; ++c) {
    if (weights[c] <= 0.0) continue;
    budgets[c] = static_cast<std::uint64_t>(static_cast<double>(records) *
                                            weights[c] / wsum);
    assigned += budgets[c];
    last = c;
  }
  budgets[last] += records - assigned;

  Rng rng_fp(app.seed * 4 + 1);
  Rng rng_nb(app.seed * 4 + 2);
  Rng rng_st(app.seed * 4 + 3);
  Rng rng_ir(app.seed * 4 + 4);

  // Footprint/neighbor visits are emitted through the visit interleaver: the
  // per-record pacing is entirely in episode_gap(1), so their intra_gap is 0.
  // Streams arrive denser (DMA-style bursts).
  std::vector<std::vector<TraceRecord>> streams;
  const double b = app.burstiness;
  if (app.weight_footprint > 0.0) {
    streams.push_back(generate_footprint(
        app.footprint, Pacing{budgets[kFootprint], horizon, 0, 0.5, b},
        rng_fp));
  }
  if (app.weight_neighbor > 0.0) {
    streams.push_back(generate_neighbor(
        app.neighbor, Pacing{budgets[kNeighbor], horizon, 0, 0.5, b}, rng_nb));
  }
  if (app.weight_stream > 0.0) {
    streams.push_back(generate_stream(
        app.stream, Pacing{budgets[kStream], horizon, 6, 0.5, b}, rng_st));
  }
  if (app.weight_irregular > 0.0) {
    streams.push_back(generate_irregular(
        app.irregular, Pacing{budgets[kIrregular], horizon, 8, 0.5, b},
        rng_ir));
  }
  return merge_sorted(streams);
}

std::vector<std::vector<TraceRecord>> generate_app_traces(
    const std::vector<AppProfile>& apps, std::uint64_t records,
    common::ThreadPool* pool) {
  std::vector<std::vector<TraceRecord>> out(apps.size());
  const auto generate = [&](std::size_t i) {
    out[i] = generate_app_trace(apps[i], records);
  };
  if (pool != nullptr && pool->size() > 1 && apps.size() > 1) {
    pool->parallel_for(apps.size(), generate);
  } else {
    for (std::size_t i = 0; i < apps.size(); ++i) generate(i);
  }
  return out;
}

}  // namespace planaria::trace
