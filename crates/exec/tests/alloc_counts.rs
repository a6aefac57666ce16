//! Deterministic allocation guard for block distribution.
//!
//! A counting global allocator tallies, per thread, every allocation
//! made while building a distributed matrix. Scattering or zero-filling
//! an `8 x 8`-block matrix of `r = 48` must allocate the blocks
//! themselves and little else: no temporary as large as the whole
//! `384 x 384` matrix, and total bytes within 10% of the blocks'
//! payload. Byte counts, unlike timings, are exact on any runner.

use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
use hetgrid_exec::DistributedMatrix;
use hetgrid_linalg::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(bytes, largest)` allocated on this thread while armed.
    static TALLY: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

// SAFETY: every allocation and release is forwarded unchanged to the
// system allocator; the tally only reads `layout.size()`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down has no TALLY left.
        let _ = TALLY.try_with(|t| {
            if let Some((bytes, largest)) = t.get() {
                t.set(Some((bytes + layout.size(), largest.max(layout.size()))));
            }
        });
        // SAFETY: the caller's `alloc` contract, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its value with the `(bytes, largest)`
/// allocation tally of the call (reallocations count as fresh
/// allocations of the new size).
fn tally<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    TALLY.with(|t| t.set(Some((0, 0))));
    let out = f();
    let (bytes, largest) = TALLY.with(|t| t.take()).expect("tally armed");
    (out, bytes, largest)
}

const NB: usize = 8;
const R: usize = 48;
const F64: usize = std::mem::size_of::<f64>();
/// Bytes of one whole `NB*R x NB*R` matrix — exactly the blocks'
/// payload, and the size of the temporary that must not come back.
const WHOLE: usize = NB * R * NB * R * F64;

fn dists() -> Vec<(&'static str, Box<dyn BlockDist>)> {
    let arr = hetgrid_core::Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let sol = hetgrid_core::exact::solve_arrangement(&arr);
    vec![
        ("cyclic", Box::new(BlockCyclic::new(2, 2))),
        (
            "panel",
            Box::new(PanelDist::from_allocation(
                &arr,
                &sol.alloc,
                4,
                4,
                PanelOrdering::Contiguous,
            )),
        ),
    ]
}

fn check(what: &str, dm: &DistributedMatrix, bytes: usize, largest: usize) {
    let blocks: usize = dm.stores.iter().map(|s| s.len()).sum();
    assert_eq!(blocks, NB * NB, "{what}: every block placed once");
    assert!(
        largest < WHOLE,
        "{what}: a {largest} B allocation — as large as the whole matrix"
    );
    assert!(
        bytes * 10 <= WHOLE * 11,
        "{what}: {bytes} B allocated for a {WHOLE} B block payload"
    );
}

#[test]
fn zeros_rect_allocates_only_the_blocks() {
    for (name, dist) in dists() {
        let (dm, bytes, largest) = tally(|| DistributedMatrix::zeros_rect(&*dist, NB, NB, R));
        check(&format!("zeros_rect/{name}"), &dm, bytes, largest);
        assert!(dm
            .stores
            .iter()
            .flat_map(|s| s.values())
            .all(|b| b.shape() == (R, R) && b.as_slice().iter().all(|&x| x == 0.0)));
    }
}

#[test]
fn scatter_rect_allocates_only_the_blocks() {
    let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i * NB * R + j) as f64);
    for (name, dist) in dists() {
        let (dm, bytes, largest) = tally(|| DistributedMatrix::scatter_rect(&m, &*dist, NB, NB, R));
        check(&format!("scatter_rect/{name}"), &dm, bytes, largest);
        assert!(
            dm.gather() == m,
            "scatter_rect/{name}: gather round trip differs"
        );
    }
}
