#include "synth/dataset_suite.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "partition/disaggregation.h"
#include "common/float_eq.h"

namespace geoalign::synth {

namespace {

// Distance from p to segment [a, b].
double SegmentDistance(const geom::Point& p, const geom::Point& a,
                       const geom::Point& b) {
  geom::Point ab = b - a;
  double len2 = Dot(ab, ab);
  if (ExactlyZero(len2)) return Distance(p, a);
  double t = std::clamp(Dot(p - a, ab) / len2, 0.0, 1.0);
  return Distance(p, {a.x + t * ab.x, a.y + t * ab.y});
}

// Rescales a non-negative field to mean 1 (no-op for an all-zero
// field), so mixture weights are comparable across surfaces.
void NormalizeToMeanOne(linalg::Vector* field) {
  double mean = linalg::Mean(*field);
  if (mean > 0.0) {
    for (double& v : *field) v /= mean;
  }
}

// Gaussian-mixture surface over the geography's own city list, with
// sigmas shrunk by `sigma_shrink` and only the `per_state` heaviest
// components per state (1 keeps just the metro). Result has mean 1.
linalg::Vector CitySurface(const SyntheticGeography& geo, double sigma_shrink,
                           size_t per_state, double base) {
  size_t cities_per_state = geo.params().cities_per_state;
  per_state = std::min(per_state, cities_per_state);
  const std::vector<GaussianCluster>& cities = geo.cities();
  size_t num_atoms = geo.atom_centers().size();
  linalg::Vector out(num_atoms, 0.0);
  for (size_t a = 0; a < num_atoms; ++a) {
    const geom::Point& p = geo.atom_centers()[a];
    size_t s = geo.atom_states()[a];
    size_t begin = s * cities_per_state;
    double acc = base;
    // Cities are generated metro-first per state.
    for (size_t c = 0; c < per_state; ++c) {
      const GaussianCluster& city = cities[begin + c];
      double sigma = city.sigma * sigma_shrink;
      double d2 = geom::DistanceSquared(p, city.center);
      acc += city.weight * std::exp(-d2 / (2.0 * sigma * sigma));
    }
    out[a] = acc;
  }
  NormalizeToMeanOne(&out);
  return out;
}

// A dataset-specific Gaussian-mixture surface with its own random
// centers (per state), independent of the population surface.
linalg::Vector OwnSurface(const SyntheticGeography& geo, size_t per_state,
                          double sigma_frac, double base, Rng& rng) {
  size_t num_states = geo.NumStates();
  std::vector<GaussianCluster> centers;
  centers.reserve(num_states * per_state);
  for (size_t s = 0; s < num_states; ++s) {
    const geom::BBox& tile = geo.state_bounds(s);
    for (size_t c = 0; c < per_state; ++c) {
      GaussianCluster g;
      g.center = {rng.Uniform(tile.min_x, tile.max_x),
                  rng.Uniform(tile.min_y, tile.max_y)};
      g.sigma = geo.params().state_size * sigma_frac *
                rng.Uniform(0.6, 1.6);
      g.weight = rng.Uniform(0.4, 2.0);
      centers.push_back(g);
    }
  }
  size_t num_atoms = geo.atom_centers().size();
  linalg::Vector out(num_atoms, base);
  for (size_t a = 0; a < num_atoms; ++a) {
    const geom::Point& p = geo.atom_centers()[a];
    size_t s = geo.atom_states()[a];
    for (size_t c = 0; c < per_state; ++c) {
      const GaussianCluster& g = centers[s * per_state + c];
      double d2 = geom::DistanceSquared(p, g.center);
      out[a] += g.weight * std::exp(-d2 / (2.0 * g.sigma * g.sigma));
    }
  }
  NormalizeToMeanOne(&out);
  return out;
}

// "Accidents" corridor intensity: roads connect each state's metro
// (first city) to its towns; intensity decays with distance to the
// nearest road. Mean 1.
linalg::Vector CorridorSurface(const SyntheticGeography& geo) {
  size_t cities_per_state = geo.params().cities_per_state;
  const std::vector<GaussianCluster>& cities = geo.cities();
  size_t num_atoms = geo.atom_centers().size();
  linalg::Vector out(num_atoms, 0.0);
  double width = geo.params().state_size * 0.025;
  for (size_t a = 0; a < num_atoms; ++a) {
    size_t s = geo.atom_states()[a];
    size_t base = s * cities_per_state;
    const geom::Point metro = cities[base].center;
    double best = Distance(geo.atom_centers()[a], metro);
    for (size_t c = 1; c < cities_per_state; ++c) {
      best = std::min(best, SegmentDistance(geo.atom_centers()[a], metro,
                                            cities[base + c].center));
    }
    out[a] = 0.04 + std::exp(-best * best / (2.0 * width * width));
  }
  NormalizeToMeanOne(&out);
  return out;
}

// The shared surfaces every layer mixes from.
struct Surfaces {
  linalg::Vector pop;       ///< broad population surface (cities + rural)
  linalg::Vector urban;     ///< concentrated metro-core surface
  linalg::Vector corridor;  ///< road corridors
  linalg::Vector hab;       ///< habitability: rural settlement density
  linalg::Vector rural;     ///< wasteland: low habitability, far from cities
  linalg::Vector area;      ///< atom measures (mean 1)
};

// Business-district surface: one compact core per state, offset from
// the metro's residential center (real CBDs do not coincide with the
// population centroid), plus a faint secondary core at the first town.
linalg::Vector UrbanCoreSurface(const SyntheticGeography& geo) {
  size_t cities_per_state = geo.params().cities_per_state;
  const std::vector<GaussianCluster>& cities = geo.cities();
  size_t num_atoms = geo.atom_centers().size();
  linalg::Vector out(num_atoms, 0.0);
  for (size_t a = 0; a < num_atoms; ++a) {
    const geom::Point& p = geo.atom_centers()[a];
    size_t s = geo.atom_states()[a];
    const GaussianCluster& metro = cities[s * cities_per_state];
    // Deterministic per-state offset direction (golden-angle spiral).
    double ang = 2.399963229728653 * static_cast<double>(s + 1);
    geom::Point cbd{metro.center.x + 0.9 * metro.sigma * std::cos(ang),
                    metro.center.y + 0.9 * metro.sigma * std::sin(ang)};
    double core_sigma = 0.45 * metro.sigma;
    double acc = 0.001;
    acc += metro.weight * std::exp(-geom::DistanceSquared(p, cbd) /
                                   (2.0 * core_sigma * core_sigma));
    if (cities_per_state > 1) {
      const GaussianCluster& town = cities[s * cities_per_state + 1];
      double ts = 0.5 * town.sigma;
      acc += 0.25 * town.weight *
             std::exp(-geom::DistanceSquared(p, town.center) / (2.0 * ts * ts));
    }
    out[a] = acc;
  }
  NormalizeToMeanOne(&out);
  return out;
}

// All surfaces have mean 1. `rng` drives the habitability field only,
// so it is shared by every layer of a suite.
Surfaces BuildSurfaces(const SyntheticGeography& geo, Rng& rng) {
  Surfaces s;
  linalg::Vector city = CitySurface(
      geo, /*sigma_shrink=*/1.0, geo.params().cities_per_state, /*base=*/0.0);
  s.urban = UrbanCoreSurface(geo);
  s.corridor = CorridorSurface(geo);

  // Habitability: rural settlement is granular — many small villages
  // over a low floor — so a giant rural unit's population sits in a
  // few spots rather than spreading smoothly. Without this, the rural
  // base would make population an (unrealistically) perfect proxy for
  // area.
  s.hab = OwnSurface(geo, /*per_state=*/40, /*sigma_frac=*/0.015,
                     /*base=*/0.02, rng);

  // Population: cities plus habitability-weighted rural base with a
  // ~15% rural mass share.
  constexpr double kRuralShare = 0.10;
  double base_coef = kRuralShare / (1.0 - kRuralShare);
  s.pop.resize(city.size());
  for (size_t a = 0; a < city.size(); ++a) {
    s.pop[a] = city[a] + base_coef * s.hab[a];
  }
  NormalizeToMeanOne(&s.pop);

  // Wasteland: far from cities AND low habitability.
  s.rural.resize(city.size());
  for (size_t a = 0; a < city.size(); ++a) {
    s.rural[a] = 1.0 / (0.05 + s.hab[a] + 3.0 * city[a]);
  }
  NormalizeToMeanOne(&s.rural);

  s.area = geo.atoms().measures;
  NormalizeToMeanOne(&s.area);
  return s;
}

/// Declarative recipe for one layer: a mixture of the shared surfaces
/// plus an optional private surface, dense (continuous with
/// multiplicative noise) or sparse (Poisson counts).
struct LayerSpec {
  const char* name;
  double w_pop = 0.0;
  double w_urban = 0.0;
  double w_corridor = 0.0;
  double w_hab = 0.0;
  double w_rural = 0.0;
  double w_area = 0.0;
  double w_own = 0.0;
  /// Private-surface shape (used when w_own > 0).
  size_t own_centers_per_state = 6;
  double own_sigma_frac = 0.05;
  /// Mean value per atom.
  double scale = 1.0;
  /// Dense layers: multiplicative noise level. Sparse: ignored.
  double noise = 0.08;
  /// Sparse counting layer (Poisson draws) vs dense continuous.
  bool poisson = false;
  /// Exact layer (no randomness at all), e.g. area.
  bool exact = false;
};

linalg::Vector RealizeLayer(const LayerSpec& spec, const Surfaces& s,
                            const SyntheticGeography& geo, Rng& rng) {
  size_t num_atoms = geo.atom_centers().size();
  linalg::Vector own;
  if (spec.w_own > 0.0) {
    own = OwnSurface(geo, spec.own_centers_per_state, spec.own_sigma_frac,
                     /*base=*/0.05, rng);
  }
  linalg::Vector out(num_atoms, 0.0);
  for (size_t a = 0; a < num_atoms; ++a) {
    double mix = spec.w_pop * s.pop[a] + spec.w_urban * s.urban[a] +
                 spec.w_corridor * s.corridor[a] + spec.w_hab * s.hab[a] +
                 spec.w_rural * s.rural[a] + spec.w_area * s.area[a];
    if (spec.w_own > 0.0) mix += spec.w_own * own[a];
    double mean = spec.scale * mix;
    if (spec.exact) {
      out[a] = mean;
    } else if (spec.poisson) {
      out[a] = static_cast<double>(rng.Poisson(mean));
    } else {
      out[a] = std::max(0.0, mean * (1.0 + spec.noise * rng.NextGaussian()));
    }
  }
  return out;
}

// Builds one Dataset from atom values.
Result<Dataset> Materialize(std::string name, linalg::Vector atom_values,
                            const SyntheticGeography& geo,
                            const partition::OverlayResult& overlay) {
  Dataset d;
  d.name = std::move(name);
  d.source = geo.zips().AggregateAtomValues(atom_values);
  d.target = geo.counties().AggregateAtomValues(atom_values);
  GEOALIGN_ASSIGN_OR_RETURN(d.dm,
                            partition::DmFromAtomValues(overlay, atom_values));
  d.atom_values = std::move(atom_values);
  return d;
}

std::vector<LayerSpec> SuiteSpecs(SuiteKind kind) {
  // Weights encode which surfaces a layer follows at the intersection
  // level; they drive both the source-level correlation structure and
  // the intra-unit distribution mismatch that separates the methods
  // (see DESIGN.md §3).
  switch (kind) {
    case SuiteKind::kNewYorkState:
      return {
          {.name = "Attorney Registration", .w_pop = 0.20, .w_urban = 0.80,
           .scale = 30.0, .noise = 0.12},
          {.name = "DMV License Facilities", .w_pop = 0.55, .w_own = 0.45,
           .own_centers_per_state = 10, .own_sigma_frac = 0.06,
           .scale = 0.035, .poisson = true},
          {.name = "Food Service Inspections", .w_pop = 0.55,
           .w_urban = 0.45, .scale = 55.0, .noise = 0.10},
          {.name = "Liquor Licenses", .w_pop = 0.60, .w_urban = 0.40,
           .scale = 28.0, .noise = 0.12},
          {.name = "New York State Restaurants", .w_pop = 0.50,
           .w_urban = 0.50, .scale = 0.12, .poisson = true},
          {.name = "Population", .w_pop = 1.0, .scale = 1700.0,
           .noise = 0.04},
          {.name = "USPS Business Address", .w_pop = 0.25, .w_urban = 0.75,
           .scale = 130.0, .noise = 0.08},
          {.name = "USPS Residential Address", .w_pop = 0.97, .w_own = 0.03,
           .own_centers_per_state = 8, .scale = 640.0, .noise = 0.05},
      };
    case SuiteKind::kUnitedStates:
      return {
          {.name = "Accidents", .w_pop = 0.25, .w_corridor = 0.75,
           .scale = 12.0, .noise = 0.15},
          {.name = "Area (Sq. Miles)", .w_area = 1.0, .scale = 1.0,
           .exact = true},
          {.name = "Cemeteries", .w_pop = 0.25, .w_hab = 0.45,
           .w_own = 0.30, .own_centers_per_state = 12,
           .own_sigma_frac = 0.08, .scale = 0.05, .poisson = true},
          {.name = "Population", .w_pop = 1.0, .scale = 1700.0,
           .noise = 0.04},
          {.name = "Public Buildings", .w_pop = 0.45, .w_urban = 0.25,
           .w_own = 0.30, .own_centers_per_state = 8, .scale = 0.30,
           .poisson = true},
          {.name = "Shopping Centers", .w_pop = 0.30, .w_urban = 0.70,
           .scale = 0.22, .poisson = true},
          {.name = "Starbucks", .w_pop = 0.10, .w_urban = 0.90,
           .scale = 0.12, .poisson = true},
          {.name = "USA Uninhabited Places", .w_rural = 0.85, .w_own = 0.15,
           .own_centers_per_state = 10, .own_sigma_frac = 0.10,
           .scale = 0.18, .poisson = true},
          {.name = "USPS Business Address", .w_pop = 0.25, .w_urban = 0.75,
           .scale = 130.0, .noise = 0.08},
          {.name = "USPS Residential Address", .w_pop = 0.97, .w_own = 0.03,
           .own_centers_per_state = 8, .scale = 640.0, .noise = 0.05},
      };
  }
  return {};
}

}  // namespace

linalg::Vector PopulationIntensity(const SyntheticGeography& geo) {
  return CitySurface(geo, /*sigma_shrink=*/1.0,
                     geo.params().cities_per_state, /*base=*/0.004);
}

std::vector<std::string> SuiteDatasetNames(SuiteKind kind) {
  std::vector<std::string> names;
  for (const LayerSpec& spec : SuiteSpecs(kind)) {
    names.emplace_back(spec.name);
  }
  return names;
}

Result<std::vector<Dataset>> GenerateDatasets(
    const SyntheticGeography& geo, const partition::OverlayResult& overlay,
    SuiteKind kind, uint64_t seed) {
  Rng rng(seed);
  Rng surface_rng = rng.Fork();
  Surfaces surfaces = BuildSurfaces(geo, surface_rng);
  std::vector<Dataset> out;
  for (const LayerSpec& spec : SuiteSpecs(kind)) {
    // Each layer gets a forked stream so the list composition of one
    // suite never perturbs another layer's values.
    Rng layer_rng = rng.Fork();
    linalg::Vector values = RealizeLayer(spec, surfaces, geo, layer_rng);
    GEOALIGN_ASSIGN_OR_RETURN(
        Dataset d, Materialize(spec.name, std::move(values), geo, overlay));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace geoalign::synth
