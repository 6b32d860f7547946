/* geoalign_c.h — stable C ABI for embedding the GeoAlign crosswalk
 * engine (docs/embedding.md).
 *
 * Design rules:
 *  - C99-clean: this header compiles under a plain C compiler; it
 *    includes only <stddef.h> and <stdint.h> and uses no C++
 *    constructs (enforced by the geoalign-capi-abi lint rule).
 *  - Opaque handles: a compiled plan is a `geoalign_plan*`; its layout
 *    is never exposed, so the library can evolve without breaking
 *    embedders. Bump GEOALIGN_ABI_VERSION on any breaking change and
 *    check geoalign_abi_version() at startup.
 *  - Zero-copy ingest: aggregate vectors and CSR matrices passed to
 *    geoalign_plan_compile are BORROWED — the library stores pointers,
 *    not copies, so the buffers must stay valid and unmodified until
 *    geoalign_plan_destroy. COO input is the exception: entries are
 *    converted (copied) during compile and may be freed right after.
 *  - Errors: functions return GEOALIGN_OK or an error code;
 *    geoalign_error_message() returns a thread-local description of
 *    this thread's most recent failure.
 */
#ifndef GEOALIGN_CAPI_GEOALIGN_C_H_
#define GEOALIGN_CAPI_GEOALIGN_C_H_

#include <stddef.h>
#include <stdint.h>

/* Bumped on every breaking change to this header's types or
 * semantics; compare against geoalign_abi_version() before use. */
#define GEOALIGN_ABI_VERSION 1

/* The library is built with -fvisibility=hidden; only symbols marked
 * with this macro are exported from libgeoalign_c. */
#if defined(_WIN32)
#define GEOALIGN_C_EXPORT __declspec(dllexport)
#else
#define GEOALIGN_C_EXPORT __attribute__((visibility("default")))
#endif

#ifdef __cplusplus
extern "C" {
#endif

/* Status codes returned by every fallible entry point: invalid
 * arguments (NULL pointers, wrong lengths, NaN, infinite or negative
 * values) map to GEOALIGN_ERR_INVALID_ARGUMENT, every other failure to
 * GEOALIGN_ERR_FAILED. */
#define GEOALIGN_OK 0
#define GEOALIGN_ERR_INVALID_ARGUMENT 1
#define GEOALIGN_ERR_FAILED 2

/* A compiled, immutable crosswalk plan (compile once, execute many).
 * Thread-safe for concurrent geoalign_plan_execute calls. */
typedef struct geoalign_plan geoalign_plan;

/* A borrowed CSR matrix: row_ptr has rows + 1 entries; col_idx and
 * values have row_ptr[rows] entries; column indices are strictly
 * increasing within each row. The arrays are NOT copied at compile —
 * they must outlive the plan. */
typedef struct geoalign_csr {
  size_t rows;
  size_t cols;
  const size_t* row_ptr;
  const size_t* col_idx;
  const double* values;
} geoalign_csr;

/* One COO triplet; duplicate (row, col) pairs are summed. */
typedef struct geoalign_coo_entry {
  size_t row;
  size_t col;
  double value;
} geoalign_coo_entry;

/* One reference attribute: its aggregate column on the source units
 * plus its disaggregation matrix, given as EITHER `csr` (borrowed,
 * zero-copy) OR `coo` (converted/copied at compile) — exactly one of
 * the two pointers must be non-NULL. `source_aggregates` has as many
 * entries as the matrix has rows and is borrowed until destroy. */
typedef struct geoalign_reference {
  const char* name;                /* NUL-terminated, copied at compile */
  const double* source_aggregates; /* num_source entries, borrowed */
  const geoalign_csr* csr;         /* borrowed zero-copy matrix, or NULL */
  const geoalign_coo_entry* coo;   /* COO entries, or NULL */
  size_t coo_count;                /* number of entries in `coo` */
  size_t coo_rows;                 /* matrix shape when `coo` is used */
  size_t coo_cols;
} geoalign_reference;

/* The ABI version this library was built with. */
GEOALIGN_C_EXPORT uint32_t geoalign_abi_version(void);

/* Compiles a plan from `num_references` reference attributes using the
 * default GeoAlign options (normalized scaling, simplex weight
 * solver). On success stores the new plan in *out_plan; free it with
 * geoalign_plan_destroy. Borrowed buffers (aggregates, CSR arrays)
 * must stay valid until then. Every reference gets the check every
 * C++ compile runs, with the same messages: shapes agree, aggregates
 * finite, >= 0 and not all zero, matrix entries finite and >= 0
 * (GEOALIGN_ERR_INVALID_ARGUMENT). Then, like the C++
 * CrosswalkInput::Validate, each matrix row must sum to its source
 * aggregate within 1e-6 relative tolerance (GEOALIGN_ERR_FAILED). */
GEOALIGN_C_EXPORT int geoalign_plan_compile(
    const geoalign_reference* references, size_t num_references,
    geoalign_plan** out_plan);

/* Executes the plan for one objective column (`objective_len` must
 * equal geoalign_plan_num_source_units; NaN, infinite or negative
 * entries and an all-zero column are refused with
 * GEOALIGN_ERR_INVALID_ARGUMENT and the C++ paths' message). Writes the
 * realigned target aggregates into out_target
 * (geoalign_plan_num_target_units entries) and, if out_weights is
 * non-NULL, the learned reference weights (num_references entries).
 * `objective` is borrowed for the duration of the call only.
 * Bit-identical to the C++ compile/execute path. */
GEOALIGN_C_EXPORT int geoalign_plan_execute(const geoalign_plan* plan,
                                            const double* objective,
                                            size_t objective_len,
                                            double* out_target,
                                            double* out_weights);

GEOALIGN_C_EXPORT size_t geoalign_plan_num_source_units(
    const geoalign_plan* plan);
GEOALIGN_C_EXPORT size_t geoalign_plan_num_target_units(
    const geoalign_plan* plan);
GEOALIGN_C_EXPORT size_t geoalign_plan_num_references(
    const geoalign_plan* plan);

/* Content fingerprint of the compiled reference set — identical to the
 * C++ plan fingerprint for the same bytes, whatever the ingest path. */
GEOALIGN_C_EXPORT uint64_t geoalign_plan_fingerprint(
    const geoalign_plan* plan);

/* Destroys a plan; NULL is a no-op. After this the buffers borrowed at
 * compile time may be freed. */
GEOALIGN_C_EXPORT void geoalign_plan_destroy(geoalign_plan* plan);

/* Description of this thread's most recent failure (empty string if
 * none). The pointer stays valid until the next failing call on the
 * same thread. */
GEOALIGN_C_EXPORT const char* geoalign_error_message(void);

/* Metrics exposition formats for geoalign_metrics_export. */
#define GEOALIGN_METRICS_FORMAT_PROMETHEUS 0 /* text exposition 0.0.4 */
#define GEOALIGN_METRICS_FORMAT_JSON 1
#define GEOALIGN_METRICS_FORMAT_TEXT 2 /* "name value" lines */

/* Serializes a snapshot of the library's metrics registry in the
 * requested format — byte-identical to what the C++ exporter and
 * `geoalign_cli --metrics-format=...` produce, so an embedder (or the
 * future geoalignd daemon) can serve a Prometheus scrape without
 * linking any C++. On success stores a NUL-terminated malloc'd buffer
 * in *out_data (and its length, excluding the NUL, in *out_len when
 * non-NULL); free it with geoalign_buffer_free. */
GEOALIGN_C_EXPORT int geoalign_metrics_export(int format, char** out_data,
                                              size_t* out_len);

/* Frees a buffer returned by geoalign_metrics_export; NULL is a
 * no-op. */
GEOALIGN_C_EXPORT void geoalign_buffer_free(char* data);

/* Dumps the always-on flight recorder (recent execute audit records,
 * in-flight request ids, last metrics snapshot) to `path` as JSONL —
 * the same dump the library writes on GEOALIGN_CHECK failure or from
 * its fatal-signal handler when GEOALIGN_FLIGHT_RECORDER is set. */
GEOALIGN_C_EXPORT int geoalign_flight_recorder_dump(const char* path);

#ifdef __cplusplus
}
#endif

#endif /* GEOALIGN_CAPI_GEOALIGN_C_H_ */
