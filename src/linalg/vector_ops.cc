#include "linalg/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/float_eq.h"

namespace geoalign::linalg {

double Dot(VectorView a, VectorView b) {
  GEOALIGN_CHECK(a.size() == b.size()) << "Dot: size mismatch";
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(VectorView a) { return std::sqrt(Dot(a, a)); }

double NormInf(VectorView a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

double Sum(VectorView a) {
  double acc = 0.0;
  for (double v : a) acc += v;
  return acc;
}

double Mean(VectorView a) {
  if (a.empty()) return 0.0;
  return Sum(a) / static_cast<double>(a.size());
}

double Max(VectorView a) {
  GEOALIGN_CHECK(!a.empty());
  return *std::max_element(a.begin(), a.end());
}

double Min(VectorView a) {
  GEOALIGN_CHECK(!a.empty());
  return *std::min_element(a.begin(), a.end());
}

void Axpy(double alpha, VectorView x, Vector& y) {
  GEOALIGN_CHECK(x.size() == y.size()) << "Axpy: size mismatch";
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(Vector& a, double s) {
  for (double& v : a) v *= s;
}

Vector Sub(VectorView a, VectorView b) {
  GEOALIGN_CHECK(a.size() == b.size()) << "Sub: size mismatch";
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector Add(VectorView a, VectorView b) {
  GEOALIGN_CHECK(a.size() == b.size()) << "Add: size mismatch";
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Result<Vector> NormalizeByMax(VectorView a, double* max) {
  if (a.empty()) return Status::InvalidArgument("NormalizeByMax: empty");
  double mx = 0.0;
  for (double v : a) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "NormalizeByMax: non-finite aggregate encountered");
    }
    if (v < 0.0) {
      return Status::InvalidArgument(
          "NormalizeByMax: negative aggregate encountered");
    }
    mx = std::max(mx, v);
  }
  if (ExactlyZero(mx)) {
    return Status::InvalidArgument("NormalizeByMax: all-zero vector");
  }
  if (max != nullptr) *max = mx;
  Vector out(a.begin(), a.end());
  Scale(out, 1.0 / mx);
  return out;
}

bool AllClose(VectorView a, VectorView b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

}  // namespace geoalign::linalg
