//! The allocation budget of the packet path: after warm-up, a frame
//! costs at most two heap allocations from the sender's `tcp_output` /
//! `udp_output` to the receiver's socket queue, and none of the
//! deferred hops in between spills its closure to a box — on the
//! paper's headline placement, on the plain shared-memory one and
//! through the UX server.
//!
//! A frame's bytes are written once, into a buffer taken from the frame
//! free list, and from there to the receiving sink the buffer is moved
//! and finally recycled (DESIGN.md "Frame ownership"). Before that was
//! true the same three runs cost about fifteen allocations per frame.
//! Every run also checks the received stream byte for byte, so the
//! budget cannot be met by dropping data.
//!
//! The allocator below counts per thread: the test harness runs each
//! test on its own thread and a simulation never leaves the thread that
//! built it, so concurrent tests do not see each other's allocations.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::{run_until, udp_echo_server};
use psd::core::{AppLib, Fd, FdEventFn};
use psd::netstack::{InetAddr, SockEvent};
use psd::server::Proto;
use psd::sim::{Platform, Rng, Sim, SimTime};
use psd::systems::{SystemConfig, TestBed};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counter is a
// const-initialized thread-local `Cell` without a destructor: touching
// it neither allocates nor registers anything.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, and
        // this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The three counters at one instant.
#[derive(Clone, Copy)]
struct Mark {
    allocs: u64,
    frames: u64,
    spilled: u64,
}

fn mark(bed: &TestBed) -> Mark {
    Mark {
        allocs: ALLOCS.get(),
        frames: bed.ether.borrow().stats().tx_frames,
        spilled: bed.sim.spilled(),
    }
}

/// Asserts the budget over the region between two marks.
fn assert_budget(what: &str, start: Mark, end: Mark, min_frames: u64) {
    let frames = end.frames - start.frames;
    let allocs = end.allocs - start.allocs;
    assert!(
        frames >= min_frames,
        "{what}: only {frames} frames measured"
    );
    let per_frame = allocs as f64 / frames as f64;
    println!("{what}: {allocs} allocations over {frames} frames = {per_frame:.3} per frame");
    assert!(
        per_frame <= 2.0,
        "{what}: {per_frame:.2} allocations per frame ({allocs} over {frames} frames)"
    );
    assert_eq!(
        end.spilled - start.spilled,
        0,
        "{what}: a per-packet closure outgrew SmallFn's inline storage"
    );
}

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// One-way bulk TCP in 8 KiB writes: `WARM` bytes of warm-up, then the
/// measured remainder of `TOTAL`.
fn bulk_tcp(config: SystemConfig, seed: u64) {
    const WARM: usize = 256 * 1024;
    const TOTAL: usize = 1024 * 1024;
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    let data = Rc::new(seeded_bytes(seed, TOTAL));
    let received: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::with_capacity(TOTAL)));

    let server_app = bed.hosts[1].spawn_app();
    let lfd = AppLib::socket(&server_app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&server_app, &mut bed.sim, lfd, 9).unwrap();
    AppLib::listen(&server_app, &mut bed.sim, lfd, 2).unwrap();
    let conn_handler: FdEventFn = {
        let app = server_app.clone();
        let received = received.clone();
        let mut buf = vec![0u8; 8192];
        Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
            if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
                while let Ok(n) = AppLib::recv(&app, sim, fd, &mut buf) {
                    if n == 0 {
                        break;
                    }
                    received.borrow_mut().extend_from_slice(&buf[..n]);
                }
            }
        }))
    };
    let listen_handler: FdEventFn = {
        let app = server_app.clone();
        Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
            if ev == SockEvent::Readable {
                while let Ok(conn) = AppLib::accept(&app, sim, fd) {
                    app.borrow_mut()
                        .set_event_handler(conn, conn_handler.clone());
                }
            }
        }))
    };
    server_app
        .borrow_mut()
        .set_event_handler(lfd, listen_handler);

    let client_app = bed.hosts[0].spawn_app();
    let cfd = AppLib::socket(&client_app, &mut bed.sim, Proto::Tcp);
    let send_handler: FdEventFn = {
        let app = client_app.clone();
        let data = data.clone();
        let mut sent = 0usize;
        Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
            if matches!(ev, SockEvent::Connected | SockEvent::Writable) {
                while sent < data.len() {
                    let end = (sent + 8192).min(data.len());
                    match AppLib::send(&app, sim, fd, &data[sent..end]) {
                        Ok(n) => sent += n,
                        Err(_) => break,
                    }
                }
            }
        }))
    };
    client_app.borrow_mut().set_event_handler(cfd, send_handler);
    let dst = InetAddr::new(bed.hosts[1].ip, 9);
    AppLib::connect(&client_app, &mut bed.sim, cfd, dst).unwrap();

    let what = config.label();
    assert!(
        run_until(&mut bed, SimTime::from_secs(30), || received.borrow().len()
            >= WARM),
        "{what}: warm-up stalled at {} bytes",
        received.borrow().len()
    );
    let start = mark(&bed);
    assert!(
        run_until(&mut bed, SimTime::from_secs(60), || received.borrow().len()
            >= TOTAL),
        "{what}: transfer stalled at {} bytes",
        received.borrow().len()
    );
    let end = mark(&bed);
    assert!(
        received.borrow().as_slice() == data.as_slice(),
        "{what}: received stream differs from the sent one"
    );
    assert_budget(what, start, end, 500);
}

#[test]
fn bulk_tcp_on_library_shm_ipf_stays_within_two_allocations_per_frame() {
    bulk_tcp(SystemConfig::LibraryShmIpf, 0xA110C);
}

#[test]
fn bulk_tcp_through_the_ux_server_stays_within_two_allocations_per_frame() {
    bulk_tcp(SystemConfig::UxServer, 0xA110D);
}

#[test]
fn udp_ping_pong_on_library_shm_stays_within_two_allocations_per_frame() {
    const WARM: usize = 200;
    const ROUNDS: usize = 1200;
    const SIZE: usize = 64;
    let config = SystemConfig::LibraryShm;
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, 0xA110E);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);

    // Round `k` carries bytes `k * SIZE ..` of one seeded stream; the
    // echoed replies must reassemble it exactly.
    let data = Rc::new(seeded_bytes(0xA110E, ROUNDS * SIZE));
    let echoed: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::with_capacity(ROUNDS * SIZE)));
    let client_app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd, 9000).unwrap();
    let dst = InetAddr::new(bed.hosts[1].ip, 53);
    AppLib::connect(&client_app, &mut bed.sim, fd, dst).unwrap();
    let handler: FdEventFn = {
        let app = client_app.clone();
        let data = data.clone();
        let echoed = echoed.clone();
        Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
            if ev == SockEvent::Readable {
                let mut buf = [0u8; 2 * SIZE];
                while let Ok((n, _)) = AppLib::recvfrom(&app, sim, fd, &mut buf) {
                    echoed.borrow_mut().extend_from_slice(&buf[..n]);
                    let next = echoed.borrow().len();
                    if next < data.len() {
                        AppLib::sendto(&app, sim, fd, &data[next..next + SIZE], None).unwrap();
                    }
                }
            }
        }))
    };
    client_app.borrow_mut().set_event_handler(fd, handler);
    bed.settle();
    AppLib::sendto(&client_app, &mut bed.sim, fd, &data[..SIZE], None).unwrap();

    let what = config.label();
    assert!(
        run_until(&mut bed, SimTime::from_secs(30), || {
            echoed.borrow().len() >= WARM * SIZE
        }),
        "{what}: warm-up stalled after {} bytes",
        echoed.borrow().len()
    );
    let start = mark(&bed);
    assert!(
        run_until(&mut bed, SimTime::from_secs(60), || {
            echoed.borrow().len() >= ROUNDS * SIZE
        }),
        "{what}: ping-pong stalled after {} bytes",
        echoed.borrow().len()
    );
    let end = mark(&bed);
    assert!(
        echoed.borrow().as_slice() == data.as_slice(),
        "{what}: echoed stream differs from the sent one"
    );
    // Two frames a round; the marks fall on 10 ms polling boundaries.
    assert_budget(what, start, end, 1500);
}
