#ifndef GEOALIGN_LINALG_VECTOR_OPS_H_
#define GEOALIGN_LINALG_VECTOR_OPS_H_

#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace geoalign::linalg {

/// Dense column vector. Free functions below treat it as a mathematical
/// vector; plain std::vector keeps interop with the rest of the project
/// trivial.
using Vector = std::vector<double>;

/// Read-only vector argument: a borrowed view. `Vector` converts
/// implicitly, so owning call sites are unchanged; zero-copy callers
/// (the C ABI, Arrow buffers) pass raw pointer + length directly.
using VectorView = common::ConstSpan<double>;

/// Dot product; requires equal sizes.
double Dot(VectorView a, VectorView b);

/// Euclidean norm.
double Norm2(VectorView a);

/// Max-norm (largest absolute entry; 0 for empty).
double NormInf(VectorView a);

/// Sum of entries.
double Sum(VectorView a);

/// Arithmetic mean (0 for empty).
double Mean(VectorView a);

/// Largest entry; requires non-empty.
double Max(VectorView a);

/// Smallest entry; requires non-empty.
double Min(VectorView a);

/// y += alpha * x (sizes must match).
void Axpy(double alpha, VectorView x, Vector& y);

/// Multiplies every entry by s.
void Scale(Vector& a, double s);

/// a - b elementwise.
Vector Sub(VectorView a, VectorView b);

/// a + b elementwise.
Vector Add(VectorView a, VectorView b);

/// Divides by the maximum entry, the normalization GeoAlign applies to
/// reference/objective aggregate vectors (paper §3.4). Returns an error
/// if any entry is NaN, ±Inf or negative, or if all entries are zero.
/// When `max` is non-null it receives that maximum (Max(a), found by
/// the same pass that checks the entries).
Result<Vector> NormalizeByMax(VectorView a, double* max = nullptr);

/// True when every |a[i]-b[i]| <= tol.
bool AllClose(VectorView a, VectorView b, double tol);

}  // namespace geoalign::linalg

#endif  // GEOALIGN_LINALG_VECTOR_OPS_H_
