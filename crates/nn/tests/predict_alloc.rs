//! The zero-allocation contract of the batched inference paths: once a
//! `Scratch`/`Matrix` pair has served one call at the largest batch, every
//! later call on the single-thread path allocates nothing, at any batch
//! size, for the float, grid-quantized and fixed-point models, with and
//! without a per-row input edit, under scalar and vector dispatch. A
//! counting global allocator measures each call on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rumba_nn::{
    Activation, Matrix, MatrixView, Mlp, Normalizer, RowEdit, Scratch, SimdMode, TrainedModel,
    TILE_ROWS,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // During thread teardown the counter may be gone; nothing is measured
    // then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` whose const initializer never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Batch sizes on both sides of the tile boundary, largest last.
const SIZES: [usize; 6] = [1, 3, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 10 * TILE_ROWS + 5];

fn model(topo: &[usize]) -> TrainedModel {
    let mlp = Mlp::new(topo, Activation::Sigmoid, 11).expect("valid topology");
    let fit = |d: usize| {
        let rows: Vec<f64> = (0..8 * d).map(|k| ((k * 7919) % 101) as f64 / 10.0 - 5.0).collect();
        Normalizer::fit(rows.chunks(d), d, 0.0, 1.0)
    };
    TrainedModel::from_parts(mlp, fit(topo[0]), fit(topo[topo.len() - 1]))
}

/// One batched entry point under test: evaluates `inputs` into `out`.
type Path<'a> = Box<dyn Fn(MatrixView<'_>, &mut Scratch, &mut Matrix) + 'a>;

fn paths<'a>(model: &'a TrainedModel, edit: &'a RowEdit<'a>) -> Vec<(&'static str, Path<'a>)> {
    let fixed = model.prepare_fixed(12);
    vec![
        ("forward_batch", Box::new(|x, s, o| model.mlp().forward_batch(x, s, o).unwrap())),
        (
            "forward_batch_quantized",
            Box::new(|x, s, o| model.mlp().forward_batch_quantized(x, 8, s, o).unwrap()),
        ),
        ("predict_batch", Box::new(|x, s, o| model.predict_batch(x, s, o).unwrap())),
        (
            "predict_batch_quantized",
            Box::new(|x, s, o| model.predict_batch_quantized(x, 8, s, o).unwrap()),
        ),
        (
            "predict_batch_with edit",
            Box::new(|x, s, o| model.predict_batch_with(x, Some(8), Some(edit), s, o).unwrap()),
        ),
        ("fixed predict_batch", Box::new(move |x, s, o| fixed.predict_batch(x, s, o).unwrap())),
        (
            "fixed predict_batch_with edit",
            Box::new({
                let fixed = model.prepare_fixed(9);
                move |x, s, o| fixed.predict_batch_with(x, Some(edit), s, o).unwrap()
            }),
        ),
    ]
}

#[test]
fn steady_state_batches_allocate_nothing() {
    rumba_parallel::set_thread_override(Some(1));
    let edit = |row: usize, values: &mut [f64]| values[0] += row as f64 * 1e-3;
    // A hidden layer wider than the tile, and the jpeg shape.
    for topo in [&[5usize, 70, 3][..], &[64, 16, 64]] {
        let model = model(topo);
        let dim = topo[0];
        let largest = SIZES[SIZES.len() - 1];
        let flat: Vec<f64> = (0..largest * dim).map(|k| (k % 97) as f64 / 9.0 - 5.0).collect();
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            for (name, path) in paths(&model, &edit) {
                let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
                path(MatrixView::new(&flat, largest, dim), &mut scratch, &mut out);
                for n in SIZES {
                    let inputs = MatrixView::new(&flat[..n * dim], n, dim);
                    let count = allocations(|| path(inputs, &mut scratch, &mut out));
                    assert_eq!(out.rows(), n);
                    assert_eq!(
                        count, 0,
                        "{name} {topo:?} {mode:?}: {n} rows made {count} allocations"
                    );
                }
            }
        }
    }
    rumba_nn::set_simd_override(None);
    rumba_parallel::set_thread_override(None);
}
