#include "partition/overlay.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "geom/boolean_ops.h"
#include "geom/predicates.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/overlay_prepared.h"
#include "sparse/coo_builder.h"

namespace geoalign::partition {

namespace {

// Metric catalog: docs/observability.md §overlay.
obs::Counter& CandidatePairs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("overlay.candidate_pairs");
  return c;
}
obs::Counter& PairsPruned() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("overlay.pairs_pruned");
  return c;
}
obs::Counter& FastPathContainHits() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "overlay.fastpath_contain_hits");
  return c;
}
obs::Counter& FastPathConvexHits() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "overlay.fastpath_convex_hits");
  return c;
}
obs::Counter& HotPathAllocs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("overlay.hot_path_allocs");
  return c;
}

bool CellLess(const IntersectionCell& a, const IntersectionCell& b) {
  return a.source != b.source ? a.source < b.source : a.target < b.target;
}

}  // namespace

sparse::CsrMatrix OverlayResult::MeasureDm() const {
  sparse::CooBuilder builder(num_source, num_target);
  for (const IntersectionCell& c : cells) {
    builder.Add(c.source, c.target, c.measure);
  }
  return builder.Build();
}

double OverlayResult::TotalMeasure() const {
  double acc = 0.0;
  for (const IntersectionCell& c : cells) acc += c.measure;
  return acc;
}

Result<OverlayResult> OverlayIntervals(const IntervalPartition& source,
                                       const IntervalPartition& target,
                                       double tol) {
  const std::vector<double>& sb = source.breaks();
  const std::vector<double>& tb = target.breaks();
  if (std::fabs(sb.front() - tb.front()) > tol ||
      std::fabs(sb.back() - tb.back()) > tol) {
    return Status::InvalidArgument(
        "OverlayIntervals: partitions span different universes");
  }
  OverlayResult out;
  out.num_source = static_cast<uint32_t>(source.NumUnits());
  out.num_target = static_cast<uint32_t>(target.NumUnits());

  // Merge sweep over both breakpoint lists.
  size_t i = 0;
  size_t j = 0;
  double lo = sb.front();
  while (i < source.NumUnits() && j < target.NumUnits()) {
    double hi = std::min(sb[i + 1], tb[j + 1]);
    double width = hi - lo;
    if (width > 0.0) {
      out.cells.push_back({static_cast<uint32_t>(i),
                           static_cast<uint32_t>(j), width});
    }
    // Advance whichever unit ends at hi (both, when aligned).
    if (sb[i + 1] <= hi + tol && std::fabs(sb[i + 1] - hi) <= tol) ++i;
    if (j < target.NumUnits() && std::fabs(tb[j + 1] - hi) <= tol) ++j;
    lo = hi;
  }
  std::sort(out.cells.begin(), out.cells.end(),
            [](const IntersectionCell& a, const IntersectionCell& b) {
              return a.source != b.source ? a.source < b.source
                                          : a.target < b.target;
            });
  return out;
}

Result<OverlayResult> OverlayBoxes(const BoxPartition& source,
                                   const BoxPartition& target, double tol) {
  if (source.Dimension() != target.Dimension()) {
    return Status::InvalidArgument("OverlayBoxes: dimension mismatch");
  }
  size_t dim = source.Dimension();
  // Per-axis 1-D overlays; the n-D overlay is their product.
  std::vector<OverlayResult> axis_overlays;
  axis_overlays.reserve(dim);
  for (size_t d = 0; d < dim; ++d) {
    GEOALIGN_ASSIGN_OR_RETURN(
        OverlayResult ov, OverlayIntervals(source.axis(d), target.axis(d),
                                           tol));
    axis_overlays.push_back(std::move(ov));
  }

  OverlayResult out;
  out.num_source = static_cast<uint32_t>(source.NumUnits());
  out.num_target = static_cast<uint32_t>(target.NumUnits());

  // Cartesian product of the per-axis intersection cells.
  std::vector<size_t> pick(dim, 0);
  std::vector<size_t> src_idx(dim);
  std::vector<size_t> tgt_idx(dim);
  for (;;) {
    double measure = 1.0;
    for (size_t d = 0; d < dim; ++d) {
      const IntersectionCell& c = axis_overlays[d].cells[pick[d]];
      measure *= c.measure;
      src_idx[d] = c.source;
      tgt_idx[d] = c.target;
    }
    out.cells.push_back(
        {static_cast<uint32_t>(source.LinearIndex(src_idx)),
         static_cast<uint32_t>(target.LinearIndex(tgt_idx)), measure});
    // Odometer increment.
    size_t d = dim;
    while (d-- > 0) {
      if (++pick[d] < axis_overlays[d].cells.size()) break;
      pick[d] = 0;
      if (d == 0) {
        std::sort(out.cells.begin(), out.cells.end(),
                  [](const IntersectionCell& a, const IntersectionCell& b) {
                    return a.source != b.source ? a.source < b.source
                                                : a.target < b.target;
                  });
        return out;
      }
    }
  }
}

Result<OverlayResult> OverlayPolygons(const PolygonPartition& source,
                                      const PolygonPartition& target,
                                      const OverlayOptions& options) {
  GEOALIGN_TRACE_SPAN("overlay.polygons");
  OverlayResult out;
  out.num_source = static_cast<uint32_t>(source.NumUnits());
  out.num_target = static_cast<uint32_t>(target.NumUnits());

  std::unique_ptr<common::ThreadPool> pool =
      common::MakePoolOrNull(common::ResolveThreadCount(options.threads));
  const bool outer_inline = pool == nullptr;

  // Slot 0 serves the inline path; workers map to wi + 1 (batch.cc
  // idiom), so no two concurrently-running chunks share a scratch.
  OverlayWorkspace local_ws;
  OverlayWorkspace& ws = options.workspace ? *options.workspace : local_ws;

  // Cold section: cache each layer's signed fans, per-triangle bboxes,
  // areas, and convexity flags once — the legacy path re-derived all
  // of this for every candidate pair. A warm caller-owned workspace
  // re-overlaying the same partitions serves these from its cache and
  // skips the Build entirely. Allocation is fine here.
  {
    GEOALIGN_TRACE_SPAN("overlay.prepare");
    ws.Prepare(ws.Prepared(0, source), ws.Prepared(1, target),
               (pool ? pool->size() : 0) + 1);
  }
  // Cache hits: the block above built both layers.
  const PreparedOverlayLayer& prep_s = ws.Prepared(0, source);
  const PreparedOverlayLayer& prep_t = ws.Prepared(1, target);
  const uint64_t allocs_before = ws.alloc_events();

  // Candidate generation: one simultaneous descent of both R-trees
  // into the reused pair buffer. Emission order is a pure function of
  // the two tree structures — never of the thread count — and the set
  // of emitted pairs is exactly the bbox-intersecting pairs the legacy
  // per-target queries produced.
  std::vector<std::pair<uint32_t, uint32_t>>& pairs = ws.pair_buffer();
  if (!ws.pairs_cached()) {
    GEOALIGN_TRACE_SPAN("overlay.join");
    const size_t pairs_cap_before = pairs.capacity();
    source.rtree().DualTreeJoin(target.rtree(), &pairs);
    if (pairs.capacity() != pairs_cap_before) ws.CountGrowth(1);
    ws.MarkPairsCached();
  }
  CandidatePairs().Add(pairs.size());

  // Each chunk of the pair list clips into its own reused cell list;
  // every pair is computed wholly inside one chunk, so cell values are
  // independent of the chunking, and the final unique-key sort makes
  // the emission order irrelevant: bit-identical at any thread count.
  constexpr size_t kPairGrain = 64;
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(pairs.size(), kPairGrain);
  struct ChunkStats {
    uint32_t pruned = 0;
    uint32_t contain_hits = 0;
    uint32_t convex_hits = 0;
    uint32_t growths = 0;
  };
  std::array<ChunkStats, common::kMaxChunks> stats;
  auto clip_chunk = [&](size_t ci) {
    size_t wi = common::ThreadPool::CurrentWorkerIndex();
    geom::FanScratch& scratch = ws.slot(
        outer_inline || wi == common::ThreadPool::kNoWorkerIndex ? 0 : wi + 1);
    ChunkStats& st = stats[ci];
    std::vector<IntersectionCell>& cells = ws.cell_chunks()[ci];
    const size_t cells_cap_before = cells.capacity();
    cells.clear();
    // GEOALIGN_HOT_LOOP_BEGIN (overlay pair loop: fans, bboxes, and
    // areas come cached from the prepared layers; rings come Reserved
    // from the workspace scratch)
    for (size_t k = chunks[ci].begin; k < chunks[ci].end; ++k) {
      const uint32_t i = pairs[k].first;
      const uint32_t j = pairs[k].second;
      double inter;
      if (options.fast_paths && prep_s.unit(i).convex &&
          prep_t.unit(j).convex) {
        // Hole-free convex pair: one Sutherland–Hodgman pass over the
        // outer rings replaces the fan double loop. The ring with fewer
        // edges serves as the clip ring — fewer half-plane passes, and
        // intersection area is symmetric. Containment needs no separate
        // check here: clipping a contained subject returns it exactly.
        const geom::Ring& ra = source.unit(i).outer();
        const geom::Ring& rb = target.unit(j).outer();
        inter = rb.size() <= ra.size()
                    ? geom::ConvexIntersectionAreaWith(ra, rb, &scratch.clip)
                    : geom::ConvexIntersectionAreaWith(rb, ra, &scratch.clip);
        ++st.convex_hits;
      } else if (options.fast_paths &&
                 geom::PolygonContainsBBox(source.unit(i),
                                           target.unit(j).Bounds())) {
        // target ⊂ its bbox ⊂ source, so the intersection is the whole
        // target polygon. Exact (no clipping arithmetic at all), and it
        // skips the fan double loop the non-convex pair would pay.
        inter = prep_t.unit(j).area;
        ++st.contain_hits;
      } else if (options.fast_paths &&
                 geom::PolygonContainsBBox(target.unit(j),
                                           source.unit(i).Bounds())) {
        inter = prep_s.unit(i).area;
        ++st.contain_hits;
      } else {
        inter = geom::IntersectionAreaPrepared(
            prep_s.fan(i), prep_s.fan_boxes(i), prep_s.fan_size(i),
            prep_t.fan(j), prep_t.fan_boxes(j), prep_t.fan_size(j), &scratch);
      }
      if (inter > options.min_area) {
        // Growth is detected by the capacity snapshot below and lands
        // in overlay.hot_path_allocs; a warmed workspace never grows.
        cells.push_back({i, j, inter});  // NOLINT(geoalign-hot-alloc)
      } else {
        ++st.pruned;
      }
    }
    // GEOALIGN_HOT_LOOP_END
    if (cells.capacity() != cells_cap_before) ++st.growths;
  };
  {
    GEOALIGN_TRACE_SPAN("overlay.clip");
    common::ParallelForChunks(pool.get(), chunks.size(), clip_chunk);
  }

  // The rest of the call: concatenate the chunk cell lists, sort, and
  // flush the counters.
  GEOALIGN_TRACE_SPAN("overlay.sort");
  uint64_t pruned = 0;
  uint64_t contain_hits = 0;
  uint64_t convex_hits = 0;
  uint64_t growths = 0;
  size_t total_cells = 0;
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    total_cells += ws.cell_chunks()[ci].size();
  }
  out.cells.reserve(total_cells);
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const std::vector<IntersectionCell>& cells = ws.cell_chunks()[ci];
    out.cells.insert(out.cells.end(), cells.begin(), cells.end());
    pruned += stats[ci].pruned;
    contain_hits += stats[ci].contain_hits;
    convex_hits += stats[ci].convex_hits;
    growths += stats[ci].growths;
  }
  std::sort(out.cells.begin(), out.cells.end(), CellLess);
  ws.CountGrowth(growths);
  PairsPruned().Add(pruned);
  FastPathContainHits().Add(contain_hits);
  FastPathConvexHits().Add(convex_hits);
  HotPathAllocs().Add(ws.alloc_events() - allocs_before);
  return out;
}

Result<OverlayResult> OverlayPolygons(const PolygonPartition& source,
                                      const PolygonPartition& target,
                                      double min_area, size_t threads) {
  OverlayOptions options;
  options.min_area = min_area;
  options.threads = threads;
  return OverlayPolygons(source, target, options);
}

Result<OverlayResult> OverlayPolygonsReference(const PolygonPartition& source,
                                               const PolygonPartition& target,
                                               double min_area,
                                               size_t threads) {
  OverlayResult out;
  out.num_source = static_cast<uint32_t>(source.NumUnits());
  out.num_target = static_cast<uint32_t>(target.NumUnits());

  // Each chunk of target units gathers its candidate pairs through the
  // (read-only) source R-tree and clips them into a private cell list;
  // chunk-order concatenation reproduces the sequential j-loop order,
  // and the final (source, target) sort has unique keys, so any thread
  // count produces the identical overlay.
  constexpr size_t kTargetGrain = 16;
  std::unique_ptr<common::ThreadPool> pool =
      common::MakePoolOrNull(common::ResolveThreadCount(threads));
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(target.NumUnits(), kTargetGrain);
  std::vector<std::vector<IntersectionCell>> chunk_cells(chunks.size());
  common::ParallelForChunks(pool.get(), chunks.size(), [&](size_t ci) {
    std::vector<IntersectionCell>& cells = chunk_cells[ci];
    for (size_t j = chunks[ci].begin; j < chunks[ci].end; ++j) {
      const geom::Polygon& tp = target.unit(j);
      for (uint32_t i : source.CandidatesInBox(tp.Bounds())) {
        double inter = geom::IntersectionArea(source.unit(i), tp);
        if (inter > min_area) {
          cells.push_back({i, static_cast<uint32_t>(j), inter});
        }
      }
    }
  });
  for (std::vector<IntersectionCell>& cells : chunk_cells) {
    out.cells.insert(out.cells.end(), cells.begin(), cells.end());
  }
  std::sort(out.cells.begin(), out.cells.end(), CellLess);
  return out;
}

Result<OverlayResult> OverlayCells(const CellPartition& source,
                                   const CellPartition& target) {
  if (source.atoms() != target.atoms()) {
    return Status::InvalidArgument(
        "OverlayCells: partitions must share one atom space");
  }
  size_t num_atoms = source.NumAtoms();
  OverlayResult out;
  out.num_source = static_cast<uint32_t>(source.NumUnits());
  out.num_target = static_cast<uint32_t>(target.NumUnits());

  // Group atoms by (source label, target label) via a hash of the
  // packed pair, then emit sorted cells.
  std::unordered_map<uint64_t, uint32_t> cell_of_pair;
  out.atom_to_cell.resize(num_atoms);
  const linalg::Vector& measures = source.atoms()->measures;
  for (size_t a = 0; a < num_atoms; ++a) {
    uint64_t key = (static_cast<uint64_t>(source.LabelOf(a)) << 32) |
                   target.LabelOf(a);
    auto [it, inserted] =
        cell_of_pair.try_emplace(key, static_cast<uint32_t>(out.cells.size()));
    if (inserted) {
      out.cells.push_back({source.LabelOf(a), target.LabelOf(a), 0.0});
    }
    out.cells[it->second].measure += measures[a];
    out.atom_to_cell[a] = it->second;
  }

  // Sort cells by (source, target) and remap atom_to_cell.
  std::vector<uint32_t> order(out.cells.size());
  for (uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    const IntersectionCell& a = out.cells[x];
    const IntersectionCell& b = out.cells[y];
    return a.source != b.source ? a.source < b.source : a.target < b.target;
  });
  std::vector<uint32_t> rank(order.size());
  for (uint32_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos;
  std::vector<IntersectionCell> sorted_cells(out.cells.size());
  for (uint32_t k = 0; k < out.cells.size(); ++k) {
    sorted_cells[rank[k]] = out.cells[k];
  }
  out.cells = std::move(sorted_cells);
  for (uint32_t& c : out.atom_to_cell) c = rank[c];
  return out;
}

}  // namespace geoalign::partition
