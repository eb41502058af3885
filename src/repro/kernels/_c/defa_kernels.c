/* Compiled DEFA hot-path kernels (PR 7).
 *
 * C implementations of the four true hot loops of the sparse encoder —
 * the flat neighbour gather, the 4-neighbour bilinear weight combine, the
 * segment sum and the fused fake-quantize chain — fused into two entry
 * points.  Loaded via ctypes by repro/kernels/compiled_backend.py; there is
 * deliberately no Python C-API dependency so the library builds with any C
 * toolchain and degrades to COMPILED_AVAILABLE = False when none exists.
 *
 * Bit-identity contract (the "compiled" backend is gated at exactly 0.0
 * drift against "fused", see benchmarks/baselines/README.md):
 *
 * - The gather/combine order replicates the fused backend exactly:
 *   w = (weights * valid) * attn as float32, then a sequential float32
 *   accumulation over the four neighbours (numpy's einsum "kfc,kf->kc"
 *   order for a length-4 contraction).
 * - The segment sum replicates np.add.reduceat: each segment sums as
 *   `first row + pairwise_sum(rest)`, where pairwise_sum is numpy's
 *   8-way-unrolled pairwise algorithm (sequential below 8 rows, unrolled
 *   partial sums up to the 128-row block size, recursive halving above).
 * - Segments are split at the same 8 MiB chunk boundaries as both numpy
 *   backends (_SPARSE_CONTRIB_BUDGET_BYTES), flushing a partial sum into
 *   the output row at each boundary in chronological order.
 * - The fake-quantize chain is elementwise float64 divide -> rint ->
 *   clip -> rescale -> float32 store, the exact op sequence of the
 *   blocked numpy chain in repro.kernels.fused_ops._quantize_into.
 *
 * Must be compiled with FP contraction off (-ffp-contract=off) — a fused
 * multiply-add would change the rounding of the combine loop.
 */

#include <stdint.h>
#include <string.h>
#include <math.h>

/* Bumped whenever a signature below changes; the ctypes loader refuses a
 * stale library rather than calling it with a mismatched ABI. */
#define DEFA_KERNELS_ABI 1

int64_t
defa_kernels_abi(void)
{
    return DEFA_KERNELS_ABI;
}

/* numpy pairwise summation over the `n` contiguous (w,)-rows at `rows`,
 * written into `res`.  `r8` is 8*w scratch for the unrolled partial sums,
 * `stack` provides one w-sized scratch row per recursion level. */
static void
pairwise_rows(const float *rows, int64_t n, int64_t w,
              float *res, float *r8, float *stack)
{
    if (n < 8) {
        for (int64_t c = 0; c < w; ++c) res[c] = 0.0f;
        for (int64_t i = 0; i < n; ++i) {
            const float *a = rows + i * w;
            for (int64_t c = 0; c < w; ++c) res[c] += a[c];
        }
    }
    else if (n <= 128) {
        memcpy(r8, rows, (size_t)(8 * w) * sizeof(float));
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; ++j) {
                const float *a = rows + (i + j) * w;
                float *r = r8 + j * w;
                for (int64_t c = 0; c < w; ++c) r[c] += a[c];
            }
        }
        for (int64_t c = 0; c < w; ++c)
            res[c] = ((r8[c] + r8[w + c]) + (r8[2 * w + c] + r8[3 * w + c]))
                   + ((r8[4 * w + c] + r8[5 * w + c]) + (r8[6 * w + c] + r8[7 * w + c]));
        for (; i < n; ++i) {
            const float *a = rows + i * w;
            for (int64_t c = 0; c < w; ++c) res[c] += a[c];
        }
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        float *right = stack;
        pairwise_rows(rows, n2, w, res, r8, stack + w);
        pairwise_rows(rows + n2 * w, n - n2, w, right, r8, stack + w);
        for (int64_t c = 0; c < w; ++c) res[c] += right[c];
    }
}

/* Fused flat-neighbour gather + bilinear weight combine + segment sum over
 * a compacted sampling trace (CompactSamplingTrace layout):
 *
 *   value     (n_rows, d_h)  float32 value rows, n_rows = batch*n_in*n_h
 *   kept      (k,)           sorted flat point ids; seg = kept / points_per_seg
 *   flat_idx  (k, 4)         neighbour token ids, -1 for out of bounds
 *   weights   (k, 4)         bilinear weights (invalid entries not zeroed)
 *   valid     (k, 4)         in-bounds flags, one byte each
 *   attn      (k,)           attention probability per kept point
 *   contrib   (run_max, d_h) scratch for one segment-within-chunk run
 *   sums      (>=57, d_h)    scratch: res row + 8 unroll rows + 48 stack rows
 *   out       (batch*n_q*n_h, d_h)  caller-zeroed output, accumulated into
 */
void
defa_gather_combine_segsum(
    const float *restrict value,
    const int64_t *restrict kept,
    const int64_t *restrict flat_idx,
    const float *restrict weights,
    const uint8_t *restrict valid,
    const float *restrict attn,
    int64_t k, int64_t d_h,
    int64_t n_in, int64_t n_h, int64_t n_q,
    int64_t points_per_seg,
    int64_t batch,
    int64_t chunk,
    float *restrict contrib,
    float *restrict sums,
    float *restrict out)
{
    float *res = sums;
    float *r8 = sums + d_h;
    float *stack = sums + 9 * d_h;
    int64_t i = 0;
    while (i < k) {
        int64_t seg = kept[i] / points_per_seg;
        /* One run = the rows of this segment inside the current chunk; a
         * segment crossing a chunk boundary flushes one partial sum per
         * chunk, exactly like the chunked reduceat of the numpy backends. */
        int64_t chunk_end = (i / chunk + 1) * chunk;
        int64_t j = i + 1;
        while (j < k && j < chunk_end && kept[j] / points_per_seg == seg) ++j;
        int64_t n = j - i;
        int64_t head = seg % n_h;
        int64_t base = head;
        if (batch > 1) base += (seg / (n_q * n_h)) * n_in * n_h;
        for (int64_t r = 0; r < n; ++r) {
            int64_t p = i + r;
            const int64_t *fi = flat_idx + p * 4;
            const float *wr = weights + p * 4;
            const uint8_t *vr = valid + p * 4;
            float a = attn[p];
            float w0 = wr[0] * (float)vr[0]; w0 *= a;
            float w1 = wr[1] * (float)vr[1]; w1 *= a;
            float w2 = wr[2] * (float)vr[2]; w2 *= a;
            float w3 = wr[3] * (float)vr[3]; w3 *= a;
            /* clamp -1 (out of bounds) to 0: its weight is exactly 0 */
            const float *g0 = value + (base + (fi[0] > 0 ? fi[0] : 0) * n_h) * d_h;
            const float *g1 = value + (base + (fi[1] > 0 ? fi[1] : 0) * n_h) * d_h;
            const float *g2 = value + (base + (fi[2] > 0 ? fi[2] : 0) * n_h) * d_h;
            const float *g3 = value + (base + (fi[3] > 0 ? fi[3] : 0) * n_h) * d_h;
            float *cr = contrib + r * d_h;
            for (int64_t c = 0; c < d_h; ++c) {
                float t = w0 * g0[c];
                t += w1 * g1[c];
                t += w2 * g2[c];
                t += w3 * g3[c];
                cr[c] = t;
            }
        }
        float *o = out + seg * d_h;
        if (n == 1) {
            for (int64_t c = 0; c < d_h; ++c) o[c] += contrib[c];
        } else {
            /* np.add.reduceat: first row + pairwise sum of the rest */
            pairwise_rows(contrib + d_h, n - 1, d_h, res, r8, stack);
            for (int64_t c = 0; c < d_h; ++c) o[c] += contrib[c] + res[c];
        }
        i = j;
    }
}

/* Fused fake-quantize chain: out = clip(rint(x / scale), qmin, qmax) * scale
 * computed in float64 and stored as float32 — one pass instead of the four
 * full-array passes (plus a float64 scratch) of the numpy in-place chain.
 * `scales` holds one float64 scale per row of `row_size` elements
 * (n / row_size rows); a single dynamic scale is the row_size == n case. */
void
defa_fake_quantize(
    const float *restrict x,
    float *restrict out,
    int64_t n,
    const double *restrict scales,
    int64_t row_size,
    double qmin,
    double qmax)
{
    if (row_size <= 0) return;
    int64_t rows = n / row_size;
    for (int64_t r = 0; r < rows; ++r) {
        double s = scales[r];
        const float *xr = x + r * row_size;
        float *orow = out + r * row_size;
        for (int64_t c = 0; c < row_size; ++c) {
            double v = (double)xr[c] / s;
            v = rint(v);
            if (v < qmin) v = qmin;
            if (v > qmax) v = qmax;
            orow[c] = (float)(v * s);
        }
    }
}
