//! Property-based tests for the linear algebra substrate.

use hetgrid_linalg::cholesky::{cholesky, cholesky_blocked, cholesky_solve};
use hetgrid_linalg::gemm::{gemm, matmul, matmul_naive, matvec, par_gemm};
use hetgrid_linalg::lu::{lu_factor, lu_factor_blocked};
use hetgrid_linalg::qr::{qr, qr_blocked};
use hetgrid_linalg::{svd, top_singular_triple, Matrix};
use proptest::prelude::*;

/// Strategy: an `n x m` matrix with entries in [-5, 5].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a diagonally dominant square matrix (always nonsingular).
fn dominant_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data);
        for i in 0..n {
            m[(i, i)] += 2.0 * n as f64;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_reference(a in matrix_strategy(7, 5), b in matrix_strategy(5, 9)) {
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        prop_assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn packed_gemm_matches_naive_on_ragged_shapes(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        // Ragged dimensions exercise every edge path of the packed
        // micro-kernel (partial mr strips, partial nr tiles, k tails).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| next()).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| next()).collect());
        let c0 = Matrix::from_vec(m, n, (0..m * n).map(|_| next()).collect());

        let mut fast = c0.clone();
        gemm(alpha, &a, &b, beta, &mut fast);
        let mut par = c0.clone();
        par_gemm(alpha, &a, &b, beta, &mut par);

        let want = matmul_naive(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let w = alpha * want[(i, j)] + beta * c0[(i, j)];
                prop_assert!((fast[(i, j)] - w).abs() < 1e-9,
                    "gemm mismatch at ({}, {}): {} vs {}", i, j, fast[(i, j)], w);
                prop_assert!((par[(i, j)] - w).abs() < 1e-9,
                    "par_gemm mismatch at ({}, {}): {} vs {}", i, j, par[(i, j)], w);
            }
        }
    }

    #[test]
    fn gemm_distributes_over_addition(
        a in matrix_strategy(4, 6),
        b in matrix_strategy(6, 3),
        c in matrix_strategy(6, 3),
    ) {
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn gemm_associates(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 5),
        c in matrix_strategy(5, 2),
    ) {
        let lhs = matmul(&matmul(&a, &b), &c);
        let rhs = matmul(&a, &matmul(&b, &c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn transpose_of_product(a in matrix_strategy(4, 6), b in matrix_strategy(6, 3)) {
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn lu_reconstructs(a in dominant_strategy(8)) {
        let f = lu_factor(&a).unwrap();
        let pa = f.permute(&a);
        prop_assert!(pa.approx_eq(&matmul(&f.l(), &f.u()), 1e-8));
    }

    #[test]
    fn lu_blocked_equals_unblocked(a in dominant_strategy(9), b in 1usize..6) {
        let f0 = lu_factor(&a).unwrap();
        let f1 = lu_factor_blocked(&a, b).unwrap();
        prop_assert_eq!(f0.perm.clone(), f1.perm.clone());
        prop_assert!(f0.lu.approx_eq(&f1.lu, 1e-8));
    }

    #[test]
    fn lu_solve_roundtrip(a in dominant_strategy(6), x in prop::collection::vec(-3.0f64..3.0, 6)) {
        let b = matvec(&a, &x);
        let xs = lu_factor(&a).unwrap().solve_vec(&b);
        for i in 0..6 {
            prop_assert!((xs[i] - x[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn det_is_multiplicative(a in dominant_strategy(5), b in dominant_strategy(5)) {
        let da = lu_factor(&a).unwrap().det();
        let db = lu_factor(&b).unwrap().det();
        let dab = lu_factor(&matmul(&a, &b)).unwrap().det();
        prop_assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
    }

    #[test]
    fn qr_reconstructs_and_q_orthonormal(a in matrix_strategy(8, 5)) {
        let (q, r) = qr(&a);
        prop_assert!(matmul(&q, &r).approx_eq(&a, 1e-8));
        prop_assert!(matmul(&q.transpose(), &q).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn cholesky_reconstructs_spd(b in matrix_strategy(6, 6)) {
        // B^T B + n I is SPD.
        let mut a = matmul(&b.transpose(), &b);
        for i in 0..6 {
            a[(i, i)] += 12.0;
        }
        let l = cholesky(&a).unwrap();
        prop_assert!(matmul(&l, &l.transpose()).approx_eq(&a, 1e-8));
        // Blocked agrees.
        let lb = cholesky_blocked(&a, 2).unwrap();
        prop_assert!(l.approx_eq(&lb, 1e-8));
    }

    #[test]
    fn cholesky_solve_roundtrip(b in matrix_strategy(5, 5), x in prop::collection::vec(-2.0f64..2.0, 5)) {
        let mut a = matmul(&b.transpose(), &b);
        for i in 0..5 {
            a[(i, i)] += 10.0;
        }
        let rhs = matvec(&a, &x);
        let l = cholesky(&a).unwrap();
        let xs = cholesky_solve(&l, &rhs);
        for i in 0..5 {
            prop_assert!((xs[i] - x[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn blocked_qr_reconstructs(a in matrix_strategy(8, 5), b in 1usize..5) {
        let (q, r) = qr_blocked(&a, b);
        prop_assert!(matmul(&q, &r).approx_eq(&a, 1e-8));
        prop_assert!(matmul(&q.transpose(), &q).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn svd_reconstructs_and_values_sorted(a in matrix_strategy(7, 5)) {
        let d = svd(&a);
        prop_assert!(d.reconstruct().approx_eq(&a, 1e-8));
        for w in d.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10);
        }
        prop_assert!(d.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_frobenius_identity(a in matrix_strategy(6, 6)) {
        // |A|_F^2 == sum of squared singular values.
        let d = svd(&a);
        let fro2 = a.frobenius_norm().powi(2);
        let ssq: f64 = d.s.iter().map(|s| s * s).sum();
        prop_assert!((fro2 - ssq).abs() < 1e-8 * fro2.max(1.0));
    }

    #[test]
    fn top_triple_is_dominant(a in matrix_strategy(6, 4)) {
        // The power-iteration sigma matches the Jacobi sigma_max, and the
        // rank-1 residual is no better than Eckart-Young allows.
        let d = svd(&a);
        let (s, _, _) = top_singular_triple(&a);
        prop_assert!((s - d.s[0]).abs() <= 1e-6 * d.s[0].max(1e-12));
    }

    #[test]
    fn rank1_approx_error_is_tail_energy(a in matrix_strategy(5, 5)) {
        let d = svd(&a);
        let err = a.sub(&d.rank_k(1)).frobenius_norm().powi(2);
        let tail: f64 = d.s.iter().skip(1).map(|s| s * s).sum();
        prop_assert!((err - tail).abs() < 1e-7 * tail.max(1.0));
    }
}

/// Deterministic regression for the parallel row-split path: 130x70x129
/// has a row count that is not a multiple of any micro-kernel strip
/// height (4 or 8) and hits every cache-blocking edge case at once.
#[test]
fn par_gemm_matches_naive_130x70x129() {
    let (m, k, n) = (130, 70, 129);
    let mk = |len: usize, seed: u64| -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    };
    let a = Matrix::from_vec(m, k, mk(m * k, 0xDEAD));
    let b = Matrix::from_vec(k, n, mk(k * n, 0xBEEF));
    let c0 = Matrix::from_vec(m, n, mk(m * n, 0xF00D));

    let mut got = c0.clone();
    par_gemm(1.5, &a, &b, -0.5, &mut got);

    let want = matmul_naive(&a, &b);
    for i in 0..m {
        for j in 0..n {
            let w = 1.5 * want[(i, j)] - 0.5 * c0[(i, j)];
            assert!(
                (got[(i, j)] - w).abs() < 1e-9,
                "mismatch at ({i}, {j}): {} vs {w}",
                got[(i, j)]
            );
        }
    }
}
