#include "partition/overlay.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/float_eq.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "geom/boolean_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/overlay_prepared.h"

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
  // The cells are sorted by (source, target) with unique keys, so they
  // are already the CSR entries in order. Each value is 0.0 + measure
  // and exact zeros are dropped: CooBuilder's rule, bit for bit.
  // FromCsrArrays checks the order again, so a producer that breaks it
  // fails loudly in release builds too.
  std::vector<size_t> row_ptr(num_source + 1, 0);
  std::vector<size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(cells.size());
  values.reserve(cells.size());
  for (size_t k = 0; k < cells.size(); ++k) {
    const IntersectionCell& c = cells[k];
    GEOALIGN_DCHECK(c.source < num_source && c.target < num_target);
    GEOALIGN_DCHECK(k == 0 || CellLess(cells[k - 1], c));
    const double value = 0.0 + c.measure;
    if (ExactlyZero(value)) continue;
    col_idx.push_back(c.target);
    values.push_back(value);
    ++row_ptr[c.source + 1];
  }
  for (size_t r = 0; r < num_source; ++r) row_ptr[r + 1] += row_ptr[r];
  return std::move(sparse::CsrMatrix::FromCsrArrays(
                       num_source, num_target, std::move(row_ptr),
                       std::move(col_idx), std::move(values)))
      .ValueOrDie();
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
  const size_t threads = options.threads;

  // Cold section: cache the target layer's signed fans and per-triangle
  // bboxes once; every candidate pair clips against them.
  PreparedOverlayLayer prep_t;
  {
    GEOALIGN_TRACE_SPAN("overlay.prepare");
    prep_t = PreparedOverlayLayer::Build(target);
  }

  // Candidate pass, one chunk of source units per task: each unit
  // queries the target grid with its bounds (the closed-box test),
  // which returns its hits ascending. Chunk order is source order, so
  // the concatenated list is sorted by (source, target) with unique
  // keys whatever the thread count.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  {
    GEOALIGN_TRACE_SPAN("overlay.join");
    constexpr size_t kSourceGrain = 256;
    std::vector<common::ChunkRange> chunks =
        common::DeterministicChunks(source.NumUnits(), kSourceGrain);
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> chunk_pairs(
        chunks.size());
    common::ParallelFor(threads, chunks.size(), [&](size_t ci, size_t) {
      // Built in locals and moved out once, so concurrent chunks never
      // write neighboring list headers.
      std::vector<std::pair<uint32_t, uint32_t>> local;
      std::vector<uint32_t> hits;
      for (size_t i = chunks[ci].begin; i < chunks[ci].end; ++i) {
        target.CandidatesInBox(source.unit(i).Bounds(), &hits);
        for (uint32_t j : hits) local.emplace_back(static_cast<uint32_t>(i), j);
      }
      chunk_pairs[ci] = std::move(local);
    });
    size_t total = 0;
    for (const auto& list : chunk_pairs) total += list.size();
    pairs.reserve(total);
    for (const auto& list : chunk_pairs) {
      pairs.insert(pairs.end(), list.begin(), list.end());
    }
  }
  CandidatePairs().Add(pairs.size());

  // Clip pass, one chunk of the pair list per task: chunking by pairs
  // keeps a coarse source layer parallel. Each cell is computed wholly
  // inside one chunk and the chunk lists concatenate in pair order, so
  // the cells come out sorted and bit-identical at any thread count.
  constexpr size_t kPairGrain = 64;
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(pairs.size(), kPairGrain);
  std::vector<std::vector<IntersectionCell>> chunk_cells(chunks.size());
  auto clip_chunk = [&](size_t ci, size_t) {
    const size_t begin = chunks[ci].begin;
    const size_t end = chunks[ci].end;
    // Chunk-local buffers, reused across the chunk's source units; the
    // cells are moved out once at the end, so workers share no written
    // cache line while they clip. The chunk's sources are one id range
    // (pairs are sorted) and a fan has at most VertexCount triangles,
    // so the fan buffers are sized for the chunk's largest unit here.
    size_t max_tris = 0;
    for (uint32_t i = pairs[begin].first; i <= pairs[end - 1].first; ++i) {
      max_tris = std::max(max_tris, source.unit(i).VertexCount());
    }
    std::vector<geom::SignedTriangle> fan;
    std::vector<geom::BBox> fan_boxes;
    fan.reserve(max_tris);
    fan_boxes.reserve(max_tris);
    std::vector<IntersectionCell> cells;
    cells.reserve(end - begin);
    uint32_t fan_unit = 0;
    // GEOALIGN_HOT_LOOP_BEGIN (overlay pair loop: the source fan is
    // recomputed into the reserved buffers only when the source
    // changes, target fans come cached from the prepared layer)
    for (size_t k = begin; k < end; ++k) {
      const uint32_t i = pairs[k].first;
      const uint32_t j = pairs[k].second;
      if (k == begin || i != fan_unit) {
        fan.clear();
        fan_boxes.clear();
        geom::SignedFan(source.unit(i), &fan);
        geom::FanBBoxes(fan, &fan_boxes);
        fan_unit = i;
      }
      double inter = geom::IntersectionAreaPrepared(
          fan.data(), fan_boxes.data(), fan.size(), prep_t.fan(j),
          prep_t.fan_boxes(j), prep_t.fan_size(j));
      if (inter > options.min_area) {
        // Reserved above to the chunk's pair count: never grows.
        cells.push_back({i, j, inter});  // NOLINT(geoalign-hot-alloc)
      }
    }
    // GEOALIGN_HOT_LOOP_END
    chunk_cells[ci] = std::move(cells);
  };
  {
    GEOALIGN_TRACE_SPAN("overlay.clip");
    common::ParallelFor(threads, chunks.size(), clip_chunk);
  }

  size_t total_cells = 0;
  for (const std::vector<IntersectionCell>& cells : chunk_cells) {
    total_cells += cells.size();
  }
  out.cells.reserve(total_cells);
  for (const std::vector<IntersectionCell>& cells : chunk_cells) {
    out.cells.insert(out.cells.end(), cells.begin(), cells.end());
  }
  // Every candidate pair either became a cell or was pruned.
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
  // (read-only) source grid and clips them into a private cell list;
  // chunk-order concatenation reproduces the sequential j-loop order,
  // and the final (source, target) sort has unique keys, so any thread
  // count produces the identical overlay.
  constexpr size_t kTargetGrain = 16;
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(target.NumUnits(), kTargetGrain);
  std::vector<std::vector<IntersectionCell>> chunk_cells(chunks.size());
  common::ParallelFor(threads, chunks.size(), [&](size_t ci, size_t) {
    std::vector<IntersectionCell>& cells = chunk_cells[ci];
    std::vector<uint32_t> hits;
    for (size_t j = chunks[ci].begin; j < chunks[ci].end; ++j) {
      const geom::Polygon& tp = target.unit(j);
      source.CandidatesInBox(tp.Bounds(), &hits);
      for (uint32_t i : hits) {
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
