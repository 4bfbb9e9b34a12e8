/*
 * Native kernels for the SINGLE and DIAGONAL step classes.
 *
 * Each kernel is one in-place pass over a contiguous complex128 array
 * of 2**nbits amplitudes (interleaved real, imaginary doubles), with
 * the index-bit conventions of repro.statevector.gate_kernels.  The
 * library is built by repro.statevector.native with -ffp-contract=off,
 * so every product and sum below rounds exactly as written on every
 * host, whatever -march=native vectorises it into.
 *
 * Every product is added, never subtracted: a - b*c is written as
 * a + b*(-c), with -c a precomputed value (equal bit for bit, since
 * negation is exact).  GCC 12 otherwise vectorises the alternating
 * subtract/add of a complex product into vfmaddsub, fusing it even
 * under -ffp-contract=off.
 *
 * Every amplitude a kernel writes is (expression) + 0.0.  Without
 * -ffast-math the compiler keeps that add; it maps -0.0 to +0.0 and
 * leaves every other value unchanged, so no native kernel ever writes
 * a negative zero.  A step run on an all-zero slice therefore leaves
 * the same bytes as a step skipped on it.
 */

#include <stdint.h>
#include <string.h>

/* Bit j of a 64-bit mask. */
#define BIT(j) ((uint64_t)1 << (j))

/* Largest diagonal width the kernel accepts (MAX_FUSED_QUBITS). */
#define MAX_DIAG_TARGETS 10

/* A diagonal whose targets and controls are all at or above this bit
 * runs as one scale per run of 2**RUN_BITS or more amplitudes. */
#define RUN_BITS 3

/* Amplitudes per diagonal block: the low-bit table spans one block. */
#define BLOCK_BITS 6

/* Diagonal factor rows are reused over at least 2**ROW_BITS blocks. */
#define ROW_BITS 2

/* A single-qubit target below this bit pairs the halves of fixed-length
 * rows; controls below it are blended inside runs of at least
 * 2**BLEND_BITS amplitudes. */
#define BLEND_BITS 6

/* Insert a zero bit at every set bit of `mask`, lowest first, so the
 * free-bit counter `r` becomes an index whose masked bits are 0. */
static inline uint64_t spread(uint64_t r, uint64_t mask)
{
    while (mask) {
        uint64_t low = (mask & (~mask + 1)) - 1;
        r = ((r & ~low) << 1) | (r & low);
        mask &= mask - 1;
    }
    return r;
}

/* One complex amplitude as a (real, imaginary) vector, aligned like a
 * double (numpy promises no more). */
typedef double v2d __attribute__((vector_size(16), aligned(8), may_alias));

/* (r + i*1j) * x, as (r*xr - i*xi, r*xi + i*xr). */
static inline v2d cmul(double r, double i, v2d x)
{
    const v2d swapped = __builtin_shufflevector(x, x, 1, 0);
    return r * x + (v2d){-i, i} * swapped;
}

/* The 2x2 update of `len` (lo, hi) amplitude pairs, in place, written
 * on scalars so that long runs auto-vectorise across pairs. */
static inline void pair_run(double *restrict lo, double *restrict hi,
                            uint64_t len, const double *m)
{
    const double ar = m[0], ai = m[1], br = m[2], bi = m[3];
    const double cr = m[4], ci = m[5], dr = m[6], di = m[7];
    const double nai = -ai, nbi = -bi, nci = -ci, ndi = -di;
    for (uint64_t j = 0; j < len; j++) {
        const double xr = lo[2 * j], xi = lo[2 * j + 1];
        const double yr = hi[2 * j], yi = hi[2 * j + 1];
        lo[2 * j] = (ar * xr + nai * xi) + (br * yr + nbi * yi) + 0.0;
        lo[2 * j + 1] = (ar * xi + ai * xr) + (br * yi + bi * yr) + 0.0;
        hi[2 * j] = (cr * xr + nci * xi) + (dr * yr + ndi * yi) + 0.0;
        hi[2 * j + 1] = (cr * xi + ci * xr) + (dr * yi + di * yr) + 0.0;
    }
}

/* The same update, one amplitude per vector: faster on short runs and
 * where pair j is updated only if (j & blend) == blend (the others are
 * stored back unchanged, which keeps the loop free of branches).  The
 * arithmetic is pair_run's, term for term. */
static inline void pair_run_blend(double *restrict lo, double *restrict hi,
                                  uint64_t len, const double *m,
                                  uint64_t blend)
{
    v2d *restrict l = (v2d *)lo, *restrict h = (v2d *)hi;
    const v2d zero = {0.0, 0.0};
    for (uint64_t j = 0; j < len; j++) {
        const v2d x = l[j], y = h[j];
        const v2d nx = (cmul(m[0], m[1], x) + cmul(m[2], m[3], y)) + zero;
        const v2d ny = (cmul(m[4], m[5], x) + cmul(m[6], m[7], y)) + zero;
        const int on = (j & blend) == blend;
        l[j] = on ? nx : x;
        h[j] = on ? ny : y;
    }
}

/* SINGLE with a target below BLEND_BITS: rows of 2**(target+1)
 * amplitudes, each pairing its low half with its high half; controls
 * above the target select rows, controls below it are blended.  LEN
 * is a constant in each expansion, so the row update unrolls. */
#define LOW_TARGET_ROWS(LEN)                                             \
    if (above == 0 && blend == 0) {                                      \
        for (uint64_t r = 0; r < rows; r++)                              \
            pair_run(amps + 4 * (LEN) * r,                               \
                     amps + 4 * (LEN) * r + 2 * (LEN), (LEN), m);        \
    } else {                                                             \
        for (uint64_t r = 0; r < rows; r++) {                            \
            double *row = amps + 2 * ((spread(r, above) | above) << shift); \
            pair_run_blend(row, row + 2 * (LEN), (LEN), m, blend);       \
        }                                                                \
    }

/*
 * SINGLE: apply the 2x2 matrix m (row-major, 8 doubles) on bit
 * `target`, to the amplitudes whose `cmask` bits are all 1.
 *
 * For a target at or above BLEND_BITS, the pairs split into runs of
 * consecutive amplitudes below the lowest target or control bit at or
 * above BLEND_BITS; each run starts at the free-bit counter spread
 * over those bits, and controls below BLEND_BITS are blended inside
 * the run, so every run is long enough to vectorise.  Returns 0, or
 * -1 for arguments outside the array.
 */
int repro_single(double *amps, uint64_t nbits, uint64_t target,
                 uint64_t cmask, const double *m)
{
    if (nbits > 62 || target >= nbits || (cmask >> nbits) != 0
        || (cmask & BIT(target)))
        return -1;
    const uint64_t tbit = BIT(target);
    if (target < BLEND_BITS) {
        const unsigned shift = (unsigned)target + 1;
        const uint64_t blend = cmask & (tbit - 1), above = cmask >> shift;
        const uint64_t rows =
            BIT(nbits - shift - (unsigned)__builtin_popcountll(above));
        switch (target) {
        case 0: LOW_TARGET_ROWS(1) break;
        case 1: LOW_TARGET_ROWS(2) break;
        case 2: LOW_TARGET_ROWS(4) break;
        case 3: LOW_TARGET_ROWS(8) break;
        case 4: LOW_TARGET_ROWS(16) break;
        default: LOW_TARGET_ROWS(32) break;
        }
        return 0;
    }
    const uint64_t blend = cmask & (BIT(BLEND_BITS) - 1);
    const uint64_t special = (cmask & ~blend) | tbit;
    const unsigned low = (unsigned)__builtin_ctzll(special);
    const uint64_t run = BIT(low);
    const uint64_t runs =
        BIT(nbits - low - (unsigned)__builtin_popcountll(special));
    for (uint64_t r = 0; r < runs; r++) {
        const uint64_t base = spread(r << low, special) | (cmask & ~blend);
        double *lo = amps + 2 * base, *hi = amps + 2 * (base | tbit);
        if (blend)
            pair_run_blend(lo, hi, run, m, blend);
        else
            pair_run(lo, hi, run, m);
    }
    return 0;
}

/* x *= (fr + fi*1j) over `len` amplitudes, in place. */
static inline void scale_run(double *restrict a, uint64_t len, double fr,
                             double fi)
{
    const double nfi = -fi;
    for (uint64_t j = 0; j < len; j++) {
        const double xr = a[2 * j], xi = a[2 * j + 1];
        a[2 * j] = (xr * fr + xi * nfi) + 0.0;
        a[2 * j + 1] = (xr * fi + xi * fr) + 0.0;
    }
}

/* Whether the complex number at f is exactly 1. */
static inline int is_one(const double *f)
{
    return f[0] == 1.0 && f[1] == 0.0;
}

/* The diagonal index of amplitude i: bit q is bit t[q] of i. */
static inline uint64_t gather_bits(uint64_t i, const unsigned *t, uint64_t k)
{
    uint64_t idx = 0;
    for (uint64_t q = 0; q < k; q++)
        idx |= ((i >> t[q]) & 1) << q;
    return idx;
}

/* DIAGONAL whose lowest target or control bit is `low` >= RUN_BITS:
 * the factor is constant over runs of 2**low amplitudes. */
static void diag_runs(double *amps, uint64_t nbits, unsigned low,
                      const unsigned *t, uint64_t k, uint64_t cmask,
                      const double *d)
{
    const uint64_t runs = BIT(nbits - low);
    for (uint64_t r = 0; r < runs; r++) {
        const uint64_t base = r << low;
        if ((base & cmask) != cmask)
            continue;
        const double *f = d + 2 * gather_bits(base, t, k);
        if (!is_one(f))
            scale_run(amps + 2 * base, BIT(low), f[0], f[1]);
    }
}

/* DIAGONAL with a target or control bit below RUN_BITS: blocks of
 * 2**BLOCK_BITS amplitudes.  Bits below BLOCK_BITS vary inside a block
 * and come from a table built once per call; the others are constant
 * over it.  A block whose every entry is exactly 1 is skipped.  Where
 * the high bits change at most every 2**ROW_BITS blocks, a block is
 * multiplied by a factor row (1 where a low control bit is 0), rebuilt
 * when they change; otherwise each amplitude looks its factor up. */
static void diag_blocks(double *amps, uint64_t nbits, const unsigned *t,
                        uint64_t k, uint64_t cmask, const double *d)
{
    /* The negated imaginary parts, so every product is added. */
    double dn[BIT(MAX_DIAG_TARGETS)];
    for (uint64_t i = 0; i < BIT(k); i++)
        dn[i] = -d[2 * i + 1];
    const unsigned b = nbits < BLOCK_BITS ? (unsigned)nbits : BLOCK_BITS;
    const uint64_t block = BIT(b);
    const uint64_t clow = cmask & (block - 1), chigh = cmask & ~(block - 1);
    uint64_t high = 0; /* idx bits of the targets at or above bit b */
    unsigned hlow = 64; /* the lowest of those targets */
    for (unsigned q = 0; q < k; q++) {
        if (t[q] >= b) {
            high |= BIT(q);
            if (t[q] < hlow)
                hlow = t[q];
        }
    }

    /* Low table: the idx bits of the low targets, or -1 where a low
     * control bit is 0. */
    int32_t lidx[BIT(BLOCK_BITS)];
    for (uint64_t j = 0; j < block; j++) {
        int32_t l = -1;
        if ((j & clow) == clow) {
            l = 0;
            for (unsigned q = 0; q < k; q++)
                if (t[q] < b && ((j >> t[q]) & 1))
                    l |= (int32_t)BIT(q);
        }
        lidx[j] = l;
    }

    /* ones[h]: every entry whose high idx bits are h is exactly 1. */
    uint8_t ones[BIT(MAX_DIAG_TARGETS)];
    const uint64_t entries = BIT(k);
    memset(ones, 1, entries);
    for (uint64_t i = 0; i < entries; i++)
        if (!is_one(d + 2 * i))
            ones[i & high] = 0;

    const int rows = hlow >= b + ROW_BITS;
    double rr[BIT(BLOCK_BITS)], ri[BIT(BLOCK_BITS)], rn[BIT(BLOCK_BITS)];
    uint64_t row_h = ~(uint64_t)0;
    const uint64_t blocks = BIT(nbits - b);
    for (uint64_t blk = 0; blk < blocks; blk++) {
        const uint64_t base = blk << b;
        if ((base & chigh) != chigh)
            continue;
        uint64_t h = 0;
        for (unsigned q = 0; q < k; q++)
            if (t[q] >= b)
                h |= ((base >> t[q]) & 1) << q;
        if (ones[h])
            continue;
        double *restrict a = amps + 2 * base;
        if (!rows) {
            for (uint64_t j = 0; j < block; j++) {
                const int32_t l = lidx[j];
                if (l < 0)
                    continue;
                const uint64_t i = h | (uint64_t)l;
                const double xr = a[2 * j], xi = a[2 * j + 1];
                a[2 * j] = (xr * d[2 * i] + xi * dn[i]) + 0.0;
                a[2 * j + 1] = (xr * d[2 * i + 1] + xi * d[2 * i]) + 0.0;
            }
            continue;
        }
        if (h != row_h) {
            for (uint64_t j = 0; j < block; j++) {
                const int32_t l = lidx[j];
                const uint64_t i = h | (uint64_t)(l < 0 ? 0 : l);
                rr[j] = l < 0 ? 1.0 : d[2 * i];
                ri[j] = l < 0 ? 0.0 : d[2 * i + 1];
                rn[j] = l < 0 ? -0.0 : dn[i];
            }
            row_h = h;
        }
        for (uint64_t j = 0; j < block; j++) {
            const double xr = a[2 * j], xi = a[2 * j + 1];
            a[2 * j] = (xr * rr[j] + xi * rn[j]) + 0.0;
            a[2 * j + 1] = (xr * ri[j] + xi * rr[j]) + 0.0;
        }
    }
}

/*
 * DIAGONAL: multiply amplitude i by d[idx(i)], where bit q of idx is
 * bit `targets[q]` of i, for the amplitudes whose `cmask` bits are all
 * 1.  `packed` holds target q in bits 6q..6q+5.  Entries exactly 1
 * are skipped where a whole run or block has them (x * 1 is x, up to
 * the sign of a zero).  Returns 0, or -1 for arguments outside the
 * array or a table wider than MAX_DIAG_TARGETS.
 */
int repro_diagonal(double *amps, uint64_t nbits, uint64_t packed,
                   uint64_t k, uint64_t cmask, const double *d)
{
    unsigned t[MAX_DIAG_TARGETS];
    if (nbits > 62 || k > MAX_DIAG_TARGETS || (cmask >> nbits) != 0)
        return -1;
    uint64_t special = cmask;
    for (unsigned q = 0; q < k; q++) {
        t[q] = (unsigned)((packed >> (6 * q)) & 63);
        if (t[q] >= nbits || (special & BIT(t[q])))
            return -1;
        special |= BIT(t[q]);
    }
    const unsigned low =
        special ? (unsigned)__builtin_ctzll(special) : (unsigned)nbits;
    if (low >= RUN_BITS)
        diag_runs(amps, nbits, low, t, k, cmask, d);
    else
        diag_blocks(amps, nbits, t, k, cmask, d);
    return 0;
}
