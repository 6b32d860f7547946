#include "partition/overlay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "geom/boolean_ops.h"
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
bool CellLess(const IntersectionCell& a, const IntersectionCell& b) {
  return a.source != b.source ? a.source < b.source : a.target < b.target;
}

}  // namespace

sparse::CsrMatrix OverlayResult::MeasureDm() const {
  GEOALIGN_TRACE_SPAN("dm.measure");
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

  // Cold section: cache each layer's signed fans and per-triangle
  // bboxes once — the legacy path re-derived them for every candidate
  // pair. Allocation is fine here.
  PreparedOverlayLayer prep_s;
  PreparedOverlayLayer prep_t;
  {
    GEOALIGN_TRACE_SPAN("overlay.prepare");
    prep_s = PreparedOverlayLayer::Build(source);
    prep_t = PreparedOverlayLayer::Build(target);
  }

  // Candidate generation: one simultaneous descent of both R-trees.
  // Emission order is a pure function of the two tree structures —
  // never of the thread count — and the set of emitted pairs is
  // exactly the bbox-intersecting pairs the legacy per-target queries
  // produced.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  {
    GEOALIGN_TRACE_SPAN("overlay.join");
    source.rtree().DualTreeJoin(target.rtree(), &pairs);
  }
  CandidatePairs().Add(pairs.size());

  // Each chunk of the pair list clips into its own cell list; every
  // pair is computed wholly inside one chunk, so cell values are
  // independent of the chunking, and the final unique-key sort makes
  // the emission order irrelevant: bit-identical at any thread count.
  constexpr size_t kPairGrain = 64;
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(pairs.size(), kPairGrain);
  std::vector<std::vector<IntersectionCell>> chunk_cells(chunks.size());
  // One scratch per worker slot. ParallelForChunks runs every chunk on
  // a pool worker when it has a pool and more than one chunk, else all
  // chunks inline on the calling thread — which may be a worker of some
  // outer pool, so only a pooled run may key the slot off the index.
  const bool pooled = pool != nullptr && chunks.size() > 1;
  std::vector<geom::FanScratch> scratch(pooled ? pool->size() : 1);
  for (geom::FanScratch& s : scratch) s.Reserve(8);  // triangle × triangle
  auto clip_chunk = [&](size_t ci) {
    geom::FanScratch& fs =
        scratch[pooled ? common::ThreadPool::CurrentWorkerIndex() : 0];
    std::vector<IntersectionCell>& cells = chunk_cells[ci];
    cells.reserve(chunks[ci].end - chunks[ci].begin);
    // GEOALIGN_HOT_LOOP_BEGIN (overlay pair loop: fans and bboxes come
    // cached from the prepared layers, rings from the Reserved scratch)
    for (size_t k = chunks[ci].begin; k < chunks[ci].end; ++k) {
      const uint32_t i = pairs[k].first;
      const uint32_t j = pairs[k].second;
      double inter = geom::IntersectionAreaPrepared(
          prep_s.fan(i), prep_s.fan_boxes(i), prep_s.fan_size(i),
          prep_t.fan(j), prep_t.fan_boxes(j), prep_t.fan_size(j), &fs);
      if (inter > options.min_area) {
        // Reserved above to the chunk's pair count: never grows.
        cells.push_back({i, j, inter});  // NOLINT(geoalign-hot-alloc)
      }
    }
    // GEOALIGN_HOT_LOOP_END
  };
  {
    GEOALIGN_TRACE_SPAN("overlay.clip");
    common::ParallelForChunks(pool.get(), chunks.size(), clip_chunk);
  }

  // The rest of the call: concatenate the chunk cell lists and sort.
  // Every candidate pair either became a cell or was pruned.
  GEOALIGN_TRACE_SPAN("overlay.sort");
  size_t total_cells = 0;
  for (const std::vector<IntersectionCell>& cells : chunk_cells) {
    total_cells += cells.size();
  }
  out.cells.reserve(total_cells);
  for (const std::vector<IntersectionCell>& cells : chunk_cells) {
    out.cells.insert(out.cells.end(), cells.begin(), cells.end());
  }
  std::sort(out.cells.begin(), out.cells.end(), CellLess);
  PairsPruned().Add(pairs.size() - total_cells);
  return out;
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
