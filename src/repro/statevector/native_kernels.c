/*
 * Native kernels for the SINGLE and DIAGONAL step classes, for runs of
 * them, for the two per-rank updates of distributed steps, and for the
 * same updates on both slices of a rank pair one process owns.
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

/* Whether a SINGLE on `target` under `cmask` fits 2**nbits amplitudes. */
static int single_ok(uint64_t nbits, uint64_t target, uint64_t cmask)
{
    return nbits <= 62 && target < nbits && (cmask >> nbits) == 0
           && !(cmask & BIT(target));
}

/* repro_single's pass, on checked arguments. */
static void single(double *amps, uint64_t nbits, uint64_t target,
                   uint64_t cmask, const double *m)
{
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
        return;
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
    if (!single_ok(nbits, target, cmask))
        return -1;
    single(amps, nbits, target, cmask, m);
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

/* repro_diagonal's pass, on checked, unpacked targets. */
static void diagonal(double *amps, uint64_t nbits, const unsigned *t,
                     uint64_t k, uint64_t cmask, const double *d)
{
    uint64_t special = cmask;
    for (unsigned q = 0; q < k; q++)
        special |= BIT(t[q]);
    const unsigned low =
        special ? (unsigned)__builtin_ctzll(special) : (unsigned)nbits;
    if (low >= RUN_BITS)
        diag_runs(amps, nbits, low, t, k, cmask, d);
    else
        diag_blocks(amps, nbits, t, k, cmask, d);
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
    diagonal(amps, nbits, t, k, cmask, d);
    return 0;
}

/* -- runs of local steps ------------------------------------------------ */

/* One op-table row: OP_WORDS words, in this order. */
enum { OP_KIND, OP_K, OP_CMASK, OP_RCMASK, OP_TARGETS, OP_COEFFS, OP_WORDS };

/* Op kinds (0 marks a step that is not a local SINGLE or DIAGONAL). */
enum { OP_SINGLE = 1, OP_DIAGONAL = 2 };

/* Whether row `op` can run here: its targets and coefficients lie
 * inside their arrays, its bits inside the slice (local) or the rank
 * index (rank bits are nbits .. nbits + rbits - 1), and a diagonal has
 * at most MAX_DIAG_TARGETS local targets. */
static int op_ok(const uint64_t *op, uint64_t nbits, uint64_t rbits,
                 const uint8_t *targets, uint64_t ntargets, uint64_t ncoeffs)
{
    const uint64_t k = op[OP_K], cmask = op[OP_CMASK], toff = op[OP_TARGETS];
    const uint64_t coff = op[OP_COEFFS];
    if ((op[OP_RCMASK] >> rbits) != 0 || toff > ntargets || k > ntargets - toff)
        return 0;
    if (op[OP_KIND] == OP_SINGLE)
        return k == 1 && single_ok(nbits, targets[toff], cmask)
               && coff <= ncoeffs && ncoeffs - coff >= 4;
    if (op[OP_KIND] != OP_DIAGONAL || k > 62 || (cmask >> nbits) != 0)
        return 0;
    uint64_t seen = cmask, local = 0;
    for (uint64_t q = 0; q < k; q++) {
        const uint64_t b = targets[toff + q];
        if (b >= nbits + rbits || (seen & BIT(b)))
            return 0;
        seen |= BIT(b);
        local += b < nbits;
    }
    return local <= MAX_DIAG_TARGETS && coff <= ncoeffs
           && ncoeffs - coff >= BIT(k);
}

/*
 * Rows lo .. hi-1 of an op table, in order, on the slice of rank
 * `rank`: the one call a rank makes for a run of local SINGLE and
 * DIAGONAL steps.  Row fields are indices into `targets` (bytes, one
 * per target, qubit numbers of the whole register) and into `coeffs`
 * (complex entries: a row-major 2x2 matrix, or a diagonal of 2**k
 * entries, first target least significant).
 *
 * A row runs only where every rank-control bit of `rank` is 1.  A
 * diagonal's rank-bit targets are constant over the slice, so its
 * table is first restricted to their values (entries are selected,
 * never computed), then applied over its local targets -- the operands
 * each step would pass on its own, so a run leaves the same bytes as
 * its steps one by one.  Returns 0, or -1 before touching `amps` if
 * any row of the run is out of bounds.
 */
int repro_run(double *amps, uint64_t nbits, uint64_t rbits, uint64_t rank,
              const uint64_t *ops, uint64_t lo, uint64_t hi,
              const uint8_t *targets, uint64_t ntargets,
              const double *coeffs, uint64_t ncoeffs)
{
    if (nbits > 62 || rbits > 62 - nbits || (rank >> rbits) != 0 || lo > hi)
        return -1;
    for (uint64_t i = lo; i < hi; i++)
        if (!op_ok(ops + OP_WORDS * i, nbits, rbits, targets, ntargets, ncoeffs))
            return -1;
    double reduced[2 * BIT(MAX_DIAG_TARGETS)];
    for (uint64_t i = lo; i < hi; i++) {
        const uint64_t *op = ops + OP_WORDS * i;
        const uint64_t rcmask = op[OP_RCMASK];
        if ((rank & rcmask) != rcmask)
            continue;
        const uint8_t *t = targets + op[OP_TARGETS];
        const double *c = coeffs + 2 * op[OP_COEFFS];
        if (op[OP_KIND] == OP_SINGLE) {
            single(amps, nbits, t[0], op[OP_CMASK], c);
            continue;
        }
        unsigned local[MAX_DIAG_TARGETS];
        unsigned free_at[MAX_DIAG_TARGETS];
        uint64_t kl = 0, base = 0;
        for (uint64_t q = 0; q < op[OP_K]; q++) {
            if (t[q] < nbits) {
                local[kl] = t[q];
                free_at[kl++] = (unsigned)q;
            } else {
                base |= ((rank >> (t[q] - nbits)) & 1) << q;
            }
        }
        const double *d = c;
        if (kl != op[OP_K]) {
            for (uint64_t a = 0; a < BIT(kl); a++) {
                uint64_t idx = base;
                for (uint64_t j = 0; j < kl; j++)
                    idx |= ((a >> j) & 1) << free_at[j];
                reduced[2 * a] = c[2 * idx];
                reduced[2 * a + 1] = c[2 * idx + 1];
            }
            d = reduced;
        }
        diagonal(amps, nbits, local, kl, op[OP_CMASK], d);
    }
    return 0;
}

/* -- the per-rank updates of distributed steps --------------------------- */

/* local = c0*local + c1*remote over `len` amplitudes, where pair j is
 * updated only if (j & blend) == blend; the others are stored back
 * unchanged.  Terms as in pair_run_blend. */
static inline void combine_run(double *restrict local,
                               const double *restrict remote, uint64_t len,
                               const double *c, uint64_t blend)
{
    if (!blend) {
        const double ar = c[0], ai = c[1], br = c[2], bi = c[3];
        const double nai = -ai, nbi = -bi;
        for (uint64_t j = 0; j < len; j++) {
            const double xr = local[2 * j], xi = local[2 * j + 1];
            const double yr = remote[2 * j], yi = remote[2 * j + 1];
            local[2 * j] = (ar * xr + nai * xi) + (br * yr + nbi * yi) + 0.0;
            local[2 * j + 1] = (ar * xi + ai * xr) + (br * yi + bi * yr) + 0.0;
        }
        return;
    }
    v2d *restrict l = (v2d *)local;
    const v2d *restrict r = (const v2d *)remote;
    const v2d zero = {0.0, 0.0};
    for (uint64_t j = 0; j < len; j++) {
        const v2d x = l[j];
        const v2d nx = (cmul(c[0], c[1], x) + cmul(c[2], c[3], r[j])) + zero;
        l[j] = (j & blend) == blend ? nx : x;
    }
}

/*
 * The combine of a single-qubit gate on a rank bit:
 * local[j] = c0*local[j] + c1*remote[j] for the j < len whose `cmask`
 * bits are all 1 (c holds c0 then c1, 4 doubles).  With a mask, len
 * must be a power of two above it.  One pass, no temporary.  Returns
 * 0, or -1 for a mask outside the arrays.
 */
int repro_combine(double *local, const double *remote, uint64_t len,
                  uint64_t cmask, const double *c)
{
    if (cmask && ((len & (len - 1)) != 0 || cmask >= len))
        return -1;
    const uint64_t blend = cmask & (BIT(BLEND_BITS) - 1);
    const uint64_t special = cmask & ~blend;
    if (!special) {
        combine_run(local, remote, len, c, blend);
        return 0;
    }
    const unsigned nbits = (unsigned)__builtin_ctzll(len);
    const unsigned low = (unsigned)__builtin_ctzll(special);
    const uint64_t runs =
        BIT(nbits - low - (unsigned)__builtin_popcountll(special));
    for (uint64_t r = 0; r < runs; r++) {
        const uint64_t base = spread(r << low, special) | special;
        combine_run(local + 2 * base, remote + 2 * base, BIT(low), c, blend);
    }
    return 0;
}

/* The row copies of repro_swap_halves for a constant row length W. */
#define SWAP_ROWS(W)                                                         for (uint64_t r = 0; r < rows; r++) {                                        v2d *dst = (v2d *)local + (2 * r + 1 - b) * (W);                         const v2d *src = (const v2d *)remote + (2 * r + b) * (W);                for (uint64_t j = 0; j < (W); j++)                                           dst[j] = src[j];                                                 }

/*
 * The distributed SWAP of local bit `bit` with a rank bit whose value
 * on this rank is `b`: the amplitudes whose local bit is 1 - b take the
 * partner's amplitudes at the flipped bit, one strided copy pass.
 * Returns 0, or -1 for a bit outside the arrays.
 */
int repro_swap_halves(double *local, const double *remote, uint64_t nbits,
                      uint64_t bit, uint64_t b)
{
    if (nbits > 62 || bit >= nbits || b > 1)
        return -1;
    const uint64_t rows = BIT(nbits - bit - 1), width = BIT(bit);
    switch (bit) {
    case 0: SWAP_ROWS(1) break;
    case 1: SWAP_ROWS(2) break;
    case 2: SWAP_ROWS(4) break;
    default:
        for (uint64_t r = 0; r < rows; r++)
            memcpy(local + 2 * (2 * r + 1 - b) * width,
                   remote + 2 * (2 * r + b) * width, 16 * width);
    }
    return 0;
}

/* -- rank pairs updated in place ---------------------------------------- */

/*
 * A single-qubit gate on a rank bit, on both slices of a rank pair at
 * once: (lo[j], hi[j]) = m * (lo[j], hi[j]) for the j < len whose
 * `cmask` bits are all 1 (m row-major, 8 doubles), where lo is the
 * slice whose rank has the target bit 0.  lo takes m00*lo + m01*hi,
 * as repro_combine on lo's rank does; hi takes m10*lo + m11*hi, the
 * two sums of repro_combine on hi's rank in the other order, which
 * IEEE addition does not see.  So one pass leaves the bytes of the two
 * combines, with no pair buffer.  With a mask, len must be a power of
 * two above it.  Returns 0, or -1 for a mask outside the arrays.
 */
int repro_pair(double *lo, double *hi, uint64_t len, uint64_t cmask,
               const double *m)
{
    if (cmask && ((len & (len - 1)) != 0 || cmask >= len))
        return -1;
    const uint64_t blend = cmask & (BIT(BLEND_BITS) - 1);
    const uint64_t special = cmask & ~blend;
    if (!special) {
        if (blend)
            pair_run_blend(lo, hi, len, m, blend);
        else
            pair_run(lo, hi, len, m);
        return 0;
    }
    const unsigned nbits = (unsigned)__builtin_ctzll(len);
    const unsigned low = (unsigned)__builtin_ctzll(special);
    const uint64_t runs =
        BIT(nbits - low - (unsigned)__builtin_popcountll(special));
    for (uint64_t r = 0; r < runs; r++) {
        const uint64_t base = spread(r << low, special) | special;
        if (blend)
            pair_run_blend(lo + 2 * base, hi + 2 * base, BIT(low), m, blend);
        else
            pair_run(lo + 2 * base, hi + 2 * base, BIT(low), m);
    }
    return 0;
}

/* Amplitudes per memcpy of a long swap_run (128 KiB). */
#define SWAP_CHUNK 8192

/* Trade `len` amplitudes of a and b: element by element in short runs,
 * through a stack buffer, a chunk of memcpys at a time, in long ones
 * (which then stream like the copies of repro_swap_halves). */
static inline void swap_run(v2d *restrict a, v2d *restrict b, uint64_t len)
{
    if (len < SWAP_CHUNK) {
        for (uint64_t j = 0; j < len; j++) {
            const v2d t = a[j];
            a[j] = b[j];
            b[j] = t;
        }
        return;
    }
    double tmp[2 * SWAP_CHUNK];
    for (uint64_t j = 0; j < len; j += SWAP_CHUNK) {
        const uint64_t bytes = 16 * (len - j < SWAP_CHUNK ? len - j : SWAP_CHUNK);
        memcpy(tmp, a + j, bytes);
        memcpy(a + j, b + j, bytes);
        memcpy(b + j, tmp, bytes);
    }
}

/* The row swaps of repro_swap_pair for a constant row length W. */
#define SWAP_PAIR_ROWS(W)                                                \
    for (uint64_t r = 0; r < rows; r++)                                  \
        swap_run((v2d *)lo + (2 * r + 1) * (W), (v2d *)hi + 2 * r * (W), (W));

/*
 * The distributed SWAP of local bit `bit` with a rank bit, on both
 * slices of a rank pair at once: lo's amplitudes whose local bit is 1
 * trade places with hi's whose local bit is 0 (lo's rank has the rank
 * bit 0).  The result is repro_swap_halves on each side, each reading
 * the other side's old slice; the other halves do not move.  Returns
 * 0, or -1 for a bit outside the arrays.
 */
int repro_swap_pair(double *lo, double *hi, uint64_t nbits, uint64_t bit)
{
    if (nbits > 62 || bit >= nbits)
        return -1;
    const uint64_t rows = BIT(nbits - bit - 1), width = BIT(bit);
    switch (bit) {
    case 0: SWAP_PAIR_ROWS(1) break;
    case 1: SWAP_PAIR_ROWS(2) break;
    case 2: SWAP_PAIR_ROWS(4) break;
    default: SWAP_PAIR_ROWS(width) break;
    }
    return 0;
}
