//! A steady-state `invoke` through `handle_line` allocates its response
//! and nothing else: the line is read without a map, its session name is
//! borrowed, and its floats go into a buffer the runtime reuses. A
//! counting global allocator measures each call on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rumba_core::event_sim::QueueConfig;
use rumba_obs::json::JsonWriter;
use rumba_serve::config::open_line;
use rumba_serve::protocol::handle_line;
use rumba_serve::{ServeRuntime, SessionConfig};

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
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_steady_state_invoke_allocates_only_its_response() {
    let mut rt = ServeRuntime::new();
    let config = SessionConfig {
        kernel: "jpeg".to_owned(),
        queue: QueueConfig { input_capacity: 64, ..QueueConfig::default() },
        ..SessionConfig::default()
    };
    let (open, _) = handle_line(&mut rt, &open_line("tenant-0", &config));
    assert!(open[0].starts_with("{\"type\":\"ack\""), "{open:?}");
    let dim = rt.session("tenant-0").expect("open").input_dim();
    let lines: Vec<String> = (0..16)
        .map(|k| {
            let input: Vec<f64> = (0..dim).map(|i| (k * dim + i) as f64 * 0.01 - 0.5).collect();
            let mut w = JsonWriter::request();
            w.string("op", "invoke").string("session", "tenant-0").floats("input", &input);
            w.finish()
        })
        .collect();
    let drain = "{\"op\":\"drain\",\"session\":\"tenant-0\"}";
    // Two warm rounds size the request buffer and the session's queue.
    for _ in 0..2 {
        for line in &lines {
            handle_line(&mut rt, line);
        }
        handle_line(&mut rt, drain);
    }
    for line in &lines {
        let ((response, shutdown), n) = allocations(|| handle_line(&mut rt, line));
        assert!(!shutdown);
        assert!(response[0].starts_with("{\"type\":\"ack\",\"op\":\"invoke\""), "{response:?}");
        // One block for the ack's text, one for the vector holding it.
        assert_eq!(n, 2, "an invoke of {dim} floats made {n} allocations");
    }
    let (lines, _) = handle_line(&mut rt, drain);
    assert_eq!(lines.len(), 17, "every invoke was queued and drained");
}
