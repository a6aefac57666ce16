//! General matrix-matrix multiplication (the workhorse of the
//! outer-product algorithm in Section 3.1 of the paper).
//!
//! Four implementations are provided:
//! * [`matmul`] / [`gemm`] — packed-panel kernel with a register-tiled
//!   micro-kernel (below), used by the executor for the per-block
//!   rank-`r` updates;
//! * [`par_gemm`] — the same kernel with row panels fanned out over the
//!   `hetgrid-par` work-stealing pool;
//! * [`gemm_blocked`] — the previous cache-blocked `ikj` kernel, kept as
//!   the benchmark baseline;
//! * [`matmul_naive`] — triple loop reference used in tests.
//!
//! The packed kernel follows the classic GotoBLAS/BLIS decomposition:
//! `B` is copied one `KC x NC` panel at a time into contiguous
//! column-strips of width `nr`, `A` into contiguous row-strips of height
//! `mr` (with `alpha` folded in during the copy), and the micro-kernel
//! then streams both packed buffers through an `mr x nr` block of
//! accumulator registers with a fully unrolled FMA-friendly inner loop.
//! Packing costs `O(mk + kn)` per panel pass but makes every
//! micro-kernel read sequential and lets the same `A` strip stay in
//! registers across the whole `B` panel — the difference between the
//! memory-bound `ikj` loop and a compute-bound kernel.
//!
//! `select_kernel` picks the tile at runtime: 8x16 with AVX-512F, 4x8
//! with AVX2+FMA, a portable 4x4 otherwise. The two SIMD kernels agree
//! bit for bit: each element of `C` is one fused multiply-add chain,
//! started from zero, running in `k` order over the packed slab, and
//! added to `C` once per slab. The tile shape only changes which
//! elements share a register, never the operations applied to one
//! element. (The portable kernel rounds each product separately, so it
//! agrees with them to rounding, not bitwise.)

use crate::Matrix;

/// Cache-block edge used by [`gemm_blocked`]. 64 doubles = 512 B rows,
/// which keeps the three working panels inside L1/L2 for typical block
/// sizes.
const BLOCK: usize = 64;

/// Inner (`k`) extent of one packed panel pass: `KC * (mr + nr)` doubles
/// of packed data live in L1/L2 while a strip pair is being consumed.
const KC: usize = 256;
/// Rows of `A` packed per inner block.
const MC: usize = 128;
/// Columns of `B` packed per outer panel.
const NC: usize = 1024;

/// Signature shared by the micro-kernels: accumulate
/// `C[i0..i0+mr, j0..j0+nr] += A_strip * B_strip` over `kc` steps into
/// the row-major `c_rows` slice with leading dimension `n`.
type MicroKernelFn = fn(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
);

/// A micro-kernel and the tile it fills: `mr` rows of `A` per packed
/// strip by `nr` columns of `B`, with the runtime test for the CPU
/// features it needs.
#[derive(Clone, Copy)]
struct MicroKernel {
    mr: usize,
    nr: usize,
    run: MicroKernelFn,
    supported: fn() -> bool,
}

/// Every micro-kernel, widest tile first. `is_x86_feature_detected!`
/// caches, so a feature test is an atomic load after the first call.
const KERNELS: &[MicroKernel] = &[
    #[cfg(target_arch = "x86_64")]
    MicroKernel {
        mr: 8,
        nr: 16,
        run: micro_kernel_8x16_avx512,
        supported: || std::arch::is_x86_feature_detected!("avx512f"),
    },
    #[cfg(target_arch = "x86_64")]
    MicroKernel {
        mr: 4,
        nr: 8,
        run: micro_kernel_4x8_avx2,
        supported: || {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        },
    },
    MicroKernel {
        mr: 4,
        nr: 4,
        run: micro_kernel_4x4,
        supported: || true,
    },
];

/// The micro-kernels this host can run, widest tile first.
fn host_kernels() -> impl Iterator<Item = MicroKernel> {
    KERNELS.iter().copied().filter(|k| (k.supported)())
}

/// Picks the widest micro-kernel the host supports: 8x16 with AVX-512F,
/// else 4x8 with AVX2+FMA, else the portable unrolled 4x4.
fn select_kernel() -> MicroKernel {
    host_kernels()
        .next()
        .expect("the portable kernel runs everywhere")
}

/// `C <- alpha * A * B + beta * C` through the packed micro-kernel.
///
/// # Panics
/// Panics on dimension mismatch (`A` is `m x k`, `B` is `k x n`, `C` is
/// `m x n`).
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "gemm: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "gemm: C has wrong shape");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_rows_packed(select_kernel(), alpha, a, b, 0..m, c.as_mut_slice());
}

/// `C <- alpha * A * B + beta * C` with row panels of `C` split across
/// the shared thread pool. Workers compute disjoint row ranges, each
/// running the packed kernel on its own slice of `C`; on a single-thread
/// pool this degenerates to [`gemm`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn par_gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "par_gemm: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "par_gemm: C has wrong shape");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    let kernel = select_kernel();
    let pool = hetgrid_par::global();
    let threads = pool.threads();
    if threads == 1 || m < 2 * kernel.mr {
        gemm_rows_packed(kernel, alpha, a, b, 0..m, c.as_mut_slice());
        return;
    }

    // Split the rows of C into one contiguous chunk per worker, rounded
    // to the micro-tile height so no strip straddles two workers.
    let chunk = (m.div_ceil(threads)).next_multiple_of(kernel.mr);
    let mut jobs: Vec<(usize, &mut [f64])> = Vec::new();
    let mut rest = c.as_mut_slice();
    let mut row0 = 0;
    while row0 < m {
        let rows = chunk.min(m - row0);
        let (head, tail) = rest.split_at_mut(rows * n);
        jobs.push((row0, head));
        rest = tail;
        row0 += rows;
    }
    pool.scope(|s| {
        for (row0, c_rows) in jobs {
            let rows = c_rows.len() / n;
            s.spawn(move || {
                gemm_rows_packed(kernel, alpha, a, b, row0..row0 + rows, c_rows);
            });
        }
    });
}

#[inline]
fn scale(beta: f64, c: &mut [f64]) {
    if beta != 1.0 {
        for x in c {
            *x *= beta;
        }
    }
}

/// Packed-panel GEMM for rows `rows.start..rows.end` of the product;
/// `c_rows` is the corresponding row-major slice of `C` (beta already
/// applied), computed with `kernel`. Shared by [`gemm`] (whole matrix)
/// and [`par_gemm`] (per-worker row chunk).
fn gemm_rows_packed(
    kernel: MicroKernel,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    rows: std::ops::Range<usize>,
    c_rows: &mut [f64],
) {
    let k = a.cols();
    let n = b.cols();
    let m = rows.len();
    debug_assert_eq!(c_rows.len(), m * n);

    let MicroKernel {
        mr: mr_tile,
        nr: nr_tile,
        run,
        ..
    } = kernel;

    // Packed buffers, allocated once per call and reused across panels.
    let mut a_pack = vec![0.0f64; MC.min(m.next_multiple_of(mr_tile)) * KC.min(k)];
    let mut b_pack = vec![0.0f64; KC.min(k) * NC.min(n.next_multiple_of(nr_tile))];

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_strips = nc.div_ceil(nr_tile);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, jc, kc, nc, nr_tile, &mut b_pack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mc_strips = mc.div_ceil(mr_tile);
                pack_a(a, alpha, rows.start + ic, pc, mc, kc, mr_tile, &mut a_pack);
                for sj in 0..nc_strips {
                    let j0 = jc + sj * nr_tile;
                    let nr = nr_tile.min(n - j0);
                    let b_strip = &b_pack[sj * kc * nr_tile..(sj + 1) * kc * nr_tile];
                    for si in 0..mc_strips {
                        let i0 = ic + si * mr_tile;
                        let mr = mr_tile.min(m - i0);
                        let a_strip = &a_pack[si * kc * mr_tile..(si + 1) * kc * mr_tile];
                        run(kc, a_strip, b_strip, c_rows, i0, j0, n, mr, nr);
                    }
                }
            }
        }
    }
}

/// Packs `A[ic.., pc..]` (`mc x kc`) into row-strips of height `mr`:
/// strip `s` holds, for each `p`, the `mr` values of rows
/// `ic + s*mr .. ic + s*mr + mr` at column `pc + p`, contiguously.
/// Missing tail rows are zero-filled; `alpha` is folded in here so the
/// micro-kernel never multiplies by it.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &Matrix,
    alpha: f64,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f64],
) {
    let strips = mc.div_ceil(mr);
    for s in 0..strips {
        let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
        let row_base = ic + s * mr;
        let rows_here = mr.min(mc - s * mr);
        for r in 0..rows_here {
            let arow = &a.row(row_base + r)[pc..pc + kc];
            for (p, &v) in arow.iter().enumerate() {
                strip[p * mr + r] = alpha * v;
            }
        }
        if rows_here < mr {
            for p in 0..kc {
                strip[p * mr + rows_here..(p + 1) * mr].fill(0.0);
            }
        }
    }
}

/// Packs `B[pc.., jc..]` (`kc x nc`) into column-strips of width `nr`:
/// strip `s` holds, for each `p`, the `nr` values of row `pc + p` at
/// columns `jc + s*nr .. + nr`, contiguously. Tail columns zero-fill.
fn pack_b(b: &Matrix, pc: usize, jc: usize, kc: usize, nc: usize, nr: usize, buf: &mut [f64]) {
    let strips = nc.div_ceil(nr);
    for s in 0..strips {
        let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
        let col_base = jc + s * nr;
        let cols_here = nr.min(nc - s * nr);
        for p in 0..kc {
            let brow = b.row(pc + p);
            let dst = &mut strip[p * nr..p * nr + nr];
            dst[..cols_here].copy_from_slice(&brow[col_base..col_base + cols_here]);
            for d in dst.iter_mut().take(nr).skip(cols_here) {
                *d = 0.0;
            }
        }
    }
}

/// The 4x4 register-tiled micro-kernel: accumulates
/// `C[i0.., j0..] += A_strip * B_strip` over `kc` steps with all sixteen
/// accumulators held in locals and the inner step fully unrolled. The
/// packed strips are zero-padded, so the accumulation always runs the
/// full tile; only the `mr x nr` valid corner is written back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_4x4(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    let (mut c00, mut c01, mut c02, mut c03) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut c10, mut c11, mut c12, mut c13) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut c20, mut c21, mut c22, mut c23) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut c30, mut c31, mut c32, mut c33) = (0.0f64, 0.0, 0.0, 0.0);

    for (av, bv) in a_strip
        .chunks_exact(4)
        .zip(b_strip.chunks_exact(4))
        .take(kc)
    {
        let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
        let (b0, b1, b2, b3) = (bv[0], bv[1], bv[2], bv[3]);
        c00 += a0 * b0;
        c01 += a0 * b1;
        c02 += a0 * b2;
        c03 += a0 * b3;
        c10 += a1 * b0;
        c11 += a1 * b1;
        c12 += a1 * b2;
        c13 += a1 * b3;
        c20 += a2 * b0;
        c21 += a2 * b1;
        c22 += a2 * b2;
        c23 += a2 * b3;
        c30 += a3 * b0;
        c31 += a3 * b1;
        c32 += a3 * b2;
        c33 += a3 * b3;
    }

    let acc = [
        [c00, c01, c02, c03],
        [c10, c11, c12, c13],
        [c20, c21, c22, c23],
        [c30, c31, c32, c33],
    ];
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        let crow = &mut c_rows[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
        for (cv, &av) in crow.iter_mut().zip(acc_row) {
            *cv += av;
        }
    }
}

/// Safe front for the AVX2+FMA 4x8 micro-kernel. Only selected by
/// [`select_kernel`] after `is_x86_feature_detected!` confirms both
/// features, which makes the inner call sound.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_4x8_avx2(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    );
    unsafe { micro_kernel_4x8_fma(kc, a_strip, b_strip, c_rows, i0, j0, n, mr, nr) }
}

/// The 4x8 AVX2+FMA micro-kernel: eight 256-bit accumulators (four rows
/// x two vector halves of the 8-wide tile), one broadcast of each `A`
/// value and two `vfmadd` per row per `k` step. Eight independent
/// accumulator chains are enough to cover the FMA latency on the two
/// FMA ports of Haswell-and-later cores.
///
/// # Safety
/// Requires AVX2 and FMA at runtime; `a_strip`/`b_strip` must hold at
/// least `kc` packed steps (`4` resp. `8` doubles each).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_4x8_fma(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;

    debug_assert!(a_strip.len() >= kc * 4 && b_strip.len() >= kc * 8);
    let mut ap = a_strip.as_ptr();
    let mut bp = b_strip.as_ptr();

    let mut acc = [_mm256_setzero_pd(); 8];
    for _ in 0..kc {
        let b_lo = _mm256_loadu_pd(bp);
        let b_hi = _mm256_loadu_pd(bp.add(4));
        let a0 = _mm256_set1_pd(*ap);
        acc[0] = _mm256_fmadd_pd(a0, b_lo, acc[0]);
        acc[1] = _mm256_fmadd_pd(a0, b_hi, acc[1]);
        let a1 = _mm256_set1_pd(*ap.add(1));
        acc[2] = _mm256_fmadd_pd(a1, b_lo, acc[2]);
        acc[3] = _mm256_fmadd_pd(a1, b_hi, acc[3]);
        let a2 = _mm256_set1_pd(*ap.add(2));
        acc[4] = _mm256_fmadd_pd(a2, b_lo, acc[4]);
        acc[5] = _mm256_fmadd_pd(a2, b_hi, acc[5]);
        let a3 = _mm256_set1_pd(*ap.add(3));
        acc[6] = _mm256_fmadd_pd(a3, b_lo, acc[6]);
        acc[7] = _mm256_fmadd_pd(a3, b_hi, acc[7]);
        ap = ap.add(4);
        bp = bp.add(8);
    }

    if nr == 8 {
        // Full-width tile: add straight into C with vector loads/stores.
        for r in 0..mr {
            let cp = c_rows.as_mut_ptr().add((i0 + r) * n + j0);
            let lo = _mm256_add_pd(_mm256_loadu_pd(cp), acc[2 * r]);
            let hi = _mm256_add_pd(_mm256_loadu_pd(cp.add(4)), acc[2 * r + 1]);
            _mm256_storeu_pd(cp, lo);
            _mm256_storeu_pd(cp.add(4), hi);
        }
    } else {
        // Ragged edge: spill the tile to a stack buffer, add the valid
        // corner scalar-wise.
        let mut buf = [[0.0f64; 8]; 4];
        for r in 0..4 {
            _mm256_storeu_pd(buf[r].as_mut_ptr(), acc[2 * r]);
            _mm256_storeu_pd(buf[r].as_mut_ptr().add(4), acc[2 * r + 1]);
        }
        for (r, brow) in buf.iter().enumerate().take(mr) {
            let crow = &mut c_rows[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
            for (cv, &v) in crow.iter_mut().zip(&brow[..nr]) {
                *cv += v;
            }
        }
    }
}

/// Safe front for the AVX-512F 8x16 micro-kernel: checks, once per
/// tile, every condition the raw-pointer kernel relies on.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_8x16_avx512(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    assert!(std::arch::is_x86_feature_detected!("avx512f"));
    assert!(a_strip.len() >= kc * 8 && b_strip.len() >= kc * 16);
    assert!((1..=8).contains(&mr) && (1..=16).contains(&nr) && j0 + nr <= n);
    assert!(c_rows.len() >= (i0 + mr) * n);
    // SAFETY: the asserts above are the `# Safety` contract of the
    // kernel: the CPU has AVX-512F, both strips hold `kc` packed steps,
    // and rows `i0..i0 + mr`, columns `j0..j0 + nr` lie inside `c_rows`.
    unsafe { micro_kernel_8x16_fma(kc, a_strip, b_strip, c_rows, i0, j0, n, mr, nr) }
}

/// The 8x16 AVX-512F micro-kernel: sixteen 512-bit accumulators (eight
/// rows x two vector halves of the 16-wide tile), one broadcast of each
/// `A` value and two `vfmadd` per row per `k` step — twice the rows and
/// twice the width of the AVX2 tile, so each packed `B` load feeds
/// eight rows instead of four. Per element the arithmetic is the AVX2
/// kernel's exactly (see the module docs). Ragged tiles add into `C`
/// through lane masks instead of a stack spill.
///
/// # Safety
/// Requires AVX-512F at runtime; `a_strip`/`b_strip` must hold at
/// least `kc` packed steps (`8` resp. `16` doubles each); `1 <= mr <= 8`,
/// `1 <= nr <= 16`, and the `mr x nr` tile at `(i0, j0)` of the
/// row-major `c_rows` (row length `n`) must lie inside the slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_8x16_fma(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;

    let mut ap = a_strip.as_ptr();
    let mut bp = b_strip.as_ptr();

    let mut acc = [_mm512_setzero_pd(); 16];
    for _ in 0..kc {
        let b_lo = _mm512_loadu_pd(bp);
        let b_hi = _mm512_loadu_pd(bp.add(8));
        for r in 0..8 {
            let ar = _mm512_set1_pd(*ap.add(r));
            acc[2 * r] = _mm512_fmadd_pd(ar, b_lo, acc[2 * r]);
            acc[2 * r + 1] = _mm512_fmadd_pd(ar, b_hi, acc[2 * r + 1]);
        }
        ap = ap.add(8);
        bp = bp.add(16);
    }

    // Lane masks for the valid columns of each half; a full tile has
    // both all-ones. Masked-off lanes of C are neither read nor written.
    let mask = ((1u32 << nr) - 1) as u16;
    let (mask_lo, mask_hi): (__mmask8, __mmask8) = (mask as u8, (mask >> 8) as u8);
    for r in 0..mr {
        let cp = c_rows.as_mut_ptr().add((i0 + r) * n + j0);
        let lo = _mm512_add_pd(_mm512_maskz_loadu_pd(mask_lo, cp), acc[2 * r]);
        _mm512_mask_storeu_pd(cp, mask_lo, lo);
        if mask_hi != 0 {
            let hp = cp.add(8);
            let hi = _mm512_add_pd(_mm512_maskz_loadu_pd(mask_hi, hp), acc[2 * r + 1]);
            _mm512_mask_storeu_pd(hp, mask_hi, hi);
        }
    }
}

/// The previous cache-blocked, loop-reordered (`ikj`) kernel, kept as a
/// single-threaded baseline for the `solver_scaling` benchmark.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_blocked(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "gemm: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "gemm: C has wrong shape");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Blocked ikj loop: the innermost loop runs along contiguous rows of B
    // and C, so it vectorizes well and stays cache-friendly.
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for p0 in (0..k).step_by(BLOCK) {
            let p1 = (p0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    let arow = a.row(i);
                    for p in p0..p1 {
                        let aip = alpha * arow[p];
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = &b.row(p)[j0..j1];
                        let crow = &mut c.row_mut(i)[j0..j1];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aip * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Returns `A * B` using the blocked kernel.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c);
    c
}

/// Reference triple-loop `A * B`, used to validate [`matmul`].
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_naive: inner dimensions differ");
    Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
}

/// Matrix-vector product `A * x`.
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "matvec: dimension mismatch");
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x).map(|(av, xv)| av * xv).sum())
        .collect()
}

/// Rank-1 update `A <- A + alpha * u * v^T`.
///
/// # Panics
/// Panics if `u.len() != A.rows()` or `v.len() != A.cols()`.
pub fn ger(alpha: f64, u: &[f64], v: &[f64], a: &mut Matrix) {
    assert_eq!(u.len(), a.rows(), "ger: u length mismatch");
    assert_eq!(v.len(), a.cols(), "ger: v length mismatch");
    for (i, &ui) in u.iter().enumerate() {
        let s = alpha * ui;
        for (av, vv) in a.row_mut(i).iter_mut().zip(v) {
            *av += s * vv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill; keeps the tests hermetic.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 9, 23),
            (64, 65, 66),
            (130, 70, 129),
        ] {
            let a = arb(m, k, (m * 1000 + k) as u64);
            let b = arb(k, n, (k * 1000 + n) as u64);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.approx_eq(&slow, 1e-10 * k as f64),
                "mismatch at {}x{}x{}",
                m,
                k,
                n
            );
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = arb(8, 8, 7);
        assert!(matmul(&a, &Matrix::identity(8)).approx_eq(&a, 1e-14));
        assert!(matmul(&Matrix::identity(8), &a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = arb(4, 3, 1);
        let b = arb(3, 5, 2);
        let c0 = arb(4, 5, 3);
        let mut c = c0.clone();
        gemm(2.0, &a, &b, 0.5, &mut c);
        let expected = matmul_naive(&a, &b).scale(2.0).add(&c0.scale(0.5));
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn gemm_zero_alpha_only_scales_c() {
        let a = arb(2, 2, 4);
        let b = arb(2, 2, 5);
        let mut c = Matrix::filled(2, 2, 3.0);
        gemm(0.0, &a, &b, 2.0, &mut c);
        assert!(c.approx_eq(&Matrix::filled(2, 2, 6.0), 1e-14));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = arb(5, 4, 11);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let xm = Matrix::from_fn(4, 1, |i, _| x[i]);
        let y = matvec(&a, &x);
        let ym = matmul(&a, &xm);
        for i in 0..5 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(3, 2);
        ger(2.0, &[1.0, 2.0, 3.0], &[4.0, 5.0], &mut a);
        assert_eq!(a[(2, 1)], 30.0);
        assert_eq!(a[(0, 0)], 8.0);
    }

    /// `C0 + alpha * A * B` through one specific micro-kernel.
    fn gemm_with(kernel: MicroKernel, alpha: f64, a: &Matrix, b: &Matrix, c0: &Matrix) -> Matrix {
        let mut c = c0.clone();
        gemm_rows_packed(kernel, alpha, a, b, 0..a.rows(), c.as_mut_slice());
        c
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Ragged shapes: `m` and `n` off every tile multiple (4, 8, 16) and
    /// `k` past `KC`, so each C element spans two packed k-slabs.
    const RAGGED: [(usize, usize, usize); 4] =
        [(7, 300, 13), (19, 257, 37), (33, 513, 17), (130, 270, 45)];

    #[test]
    fn every_host_kernel_matches_naive_on_ragged_shapes() {
        for kernel in host_kernels() {
            let name = format!("{}x{}", kernel.mr, kernel.nr);
            for &(m, k, n) in &RAGGED {
                let a = arb(m, k, (m * 31 + k) as u64);
                let b = arb(k, n, (k * 31 + n) as u64);
                let c0 = arb(m, n, (m * 7 + n) as u64);
                let got = gemm_with(kernel, -0.5, &a, &b, &c0);
                let want = c0.add(&matmul_naive(&a, &b).scale(-0.5));
                assert!(
                    got.approx_eq(&want, 1e-12 * k as f64),
                    "{name} kernel diverges from naive at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn simd_kernels_agree_bit_for_bit() {
        let find = |tile| host_kernels().find(|k| (k.mr, k.nr) == tile);
        let (Some(avx2), Some(avx512)) = (find((4, 8)), find((8, 16))) else {
            return; // nothing to compare on this host
        };
        for &(m, k, n) in RAGGED.iter().chain(&[(48, 48, 48), (1, 1, 1)]) {
            let a = arb(m, k, (m + 3 * k) as u64);
            let b = arb(k, n, (k + 3 * n) as u64);
            let c0 = arb(m, n, (m + 5 * n) as u64);
            assert_eq!(
                bits(&gemm_with(avx2, 1.0, &a, &b, &c0)),
                bits(&gemm_with(avx512, 1.0, &a, &b, &c0)),
                "AVX2 and AVX-512 kernels differ at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn par_gemm_is_bit_identical_to_gemm() {
        for m in [33, 36, 100] {
            let (k, n) = (70, 29);
            let a = arb(m, k, m as u64);
            let b = arb(k, n, 99);
            let c0 = arb(m, n, 5);
            let mut serial = c0.clone();
            gemm(1.5, &a, &b, 0.5, &mut serial);
            let mut par = c0.clone();
            par_gemm(1.5, &a, &b, 0.5, &mut par);
            assert_eq!(bits(&par), bits(&serial), "par_gemm differs at m = {m}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_dims_panic() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }
}
