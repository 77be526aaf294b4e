//! Heap allocations on the packet path and at spawn, as exact counts.
//!
//! An encoded packet is one shared buffer from `v_wire::encode_with` to
//! the last receiver (see "Hot-path engineering" in
//! `docs/ARCHITECTURE.md`), and the segment it carries is gathered into
//! it and read out of it in place, so a remote exchange allocates once
//! per packet whatever it carries and a broadcast fan-out once per
//! arrival event, not once per cache, per receiver or per copy;
//! and an address space holds only the runs of 512-byte pages its process
//! wrote, so a spawn asks for no bytes of it; and a scripted file client keeps
//! its script compiled, 12 bytes a step; and the clones of a block store
//! share their files' bytes until one of them writes. Wall-clock and
//! resident memory are too noisy to gate on in CI; these counts repeat
//! exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::loader::install_image;
use v_fs::{spawn_caching_client, spawn_file_server, BlockStore, CacheConfig, CacheMode};
use v_fs::{DiskModel, FileServerConfig, BLOCK_SIZE};
use v_kernel::{AddressSpace, Api, Cluster, ClusterConfig, CpuSpeed, HostId};
use v_kernel::{Message, Outcome, Pid, Program};
use v_sim::SimDuration;
use v_workloads::boot::{run_boot_storm, BootStormConfig};
use v_workloads::measure::{probe, RunReport};
use v_workloads::mover::{Grantor, MoveDir, Mover};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer};

thread_local! {
    /// Allocations made by this thread (the test harness runs tests on
    /// parallel threads, so a process-wide count would mix them).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked the allocator for (a `realloc` counts
    /// its growth).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed by this thread (wrapping: a
    /// block freed here may have been allocated on another thread).
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is thread-local
// counters with `const` initialisers and no destructor, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        LIVE.with(|n| n.set(n.get().wrapping_add(layout.size() as u64)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get().wrapping_sub(layout.size() as u64)));
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size.saturating_sub(layout.size()) as u64));
        LIVE.with(|n| {
            let grown = n.get().wrapping_add(new_size as u64);
            n.set(grown.wrapping_sub(layout.size() as u64));
        });
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` added to one of this thread's counters.
fn counted_during<T>(
    counter: &'static std::thread::LocalKey<Cell<u64>>,
    f: impl FnOnce() -> T,
) -> (u64, T) {
    let before = counter.with(Cell::get);
    let out = f();
    (counter.with(Cell::get).wrapping_sub(before), out)
}

struct Echo;

impl Program for Echo {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        if let Outcome::Receive { from, msg } = outcome {
            api.reply(msg, from).expect("sender awaits the reply");
        }
        api.receive();
    }
}

struct Client {
    server: Pid,
    left: u32,
}

impl Program for Client {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        if let Outcome::Send(result) = outcome {
            result.expect("exchange completes");
        }
        if self.left == 0 {
            api.exit();
            return;
        }
        self.left -= 1;
        api.send(Message::empty(), self.server);
    }
}

/// Allocations of a whole two-host run of `exchanges` remote 32-byte
/// Send-Receive-Reply exchanges.
fn exchange_run_allocations(exchanges: u32) -> u64 {
    let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let server = cl.spawn(HostId(0), "echo", Box::new(Echo));
    cl.run();
    cl.spawn(
        HostId(1),
        "client",
        Box::new(Client {
            server,
            left: exchanges,
        }),
    );
    let (n, ()) = counted_during(&ALLOCS, || cl.run());
    assert_eq!(cl.kernel_stats(HostId(1)).sends_remote, exchanges as u64);
    n
}

#[test]
fn remote_exchange_allocates_at_most_three_times() {
    // The difference of two run lengths cancels the one-off growth of
    // the event queue and the kernel tables.
    let extra = 1_000;
    let n = exchange_run_allocations(100 + extra) - exchange_run_allocations(100);
    let per_exchange = n as f64 / extra as f64;
    println!("allocations per remote 32-byte exchange: {per_exchange}");
    // One buffer per packet (Send, Reply); 6 when every cache and every
    // staging step copied.
    assert!(
        per_exchange <= 3.0,
        "{per_exchange} allocations per exchange"
    );
}

#[test]
fn a_steady_exchange_allocates_its_two_packets_and_nothing_else() {
    // Past the first second every retransmit timer's 200 ms and every
    // housekeeping timer's 1 s have come round: the event queue's slab,
    // its rings and its buckets have the capacity they will ever need,
    // and so have the kernel's tables. What is left is exact.
    let extra = 2_000;
    let n = exchange_run_allocations(1_000 + extra) - exchange_run_allocations(1_000);
    assert_eq!(n, 2 * extra as u64, "allocations over {extra} exchanges");
}

/// Allocations of a whole two-host run of `pages` remote 512-byte page
/// reads or writes (Table 6-1's exchange: `Send` — `ReceiveWithSegment` —
/// `ReplyWithSegment`).
fn page_run_allocations(op: PageOp, pages: u64) -> u64 {
    let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let report = probe(RunReport::default());
    let server = PageServer::new(PageMode::Segment, 512, 0x7E, report.clone());
    let server = cl.spawn(HostId(1), "pageserver", Box::new(server));
    cl.run();
    let client = PageClient::new(server, op, 512, pages, 0x7E, report.clone());
    cl.spawn(HostId(0), "pageclient", Box::new(client));
    let (n, ()) = counted_during(&ALLOCS, || cl.run());
    let report = report.borrow();
    assert!(report.clean() && report.iterations == pages, "{report:?}");
    n
}

#[test]
fn remote_page_read_and_write_allocate_twice_each() {
    let extra = 1_000;
    let per_page = |op| {
        let n = page_run_allocations(op, 100 + extra) - page_run_allocations(op, 100);
        n as f64 / extra as f64
    };
    let (read, write) = (per_page(PageOp::Read), per_page(PageOp::Write));
    println!("allocations per remote 512-byte page: read {read}, write {write}");
    // One buffer per packet, the Send's and the Reply's, and nothing
    // else: the segment is gathered from the sender's space straight into
    // its packet, and written from the packet straight into the
    // receiver's space (a write's alien keeps a handle on the Send it
    // arrived in). Both were 4.015 while the typed bodies held the
    // segment — read into a body `Vec`, copied into the packet, copied
    // out again by `decode` — and the write 6.015 before that, while
    // `pump` cloned the alien's copy. The 4 per thousand are not per
    // page: a 32-byte exchange, above, shows 18.
    assert!(read <= 2.02, "{read} allocations per page read");
    assert!(write <= 2.02, "{write} allocations per page write");
}

/// Allocations of a two-host run in which a mover pushes `moves`
/// back-to-back `size`-byte `MoveTo`s into the buffer a grantor lent it.
fn move_to_run_allocations(size: u32, moves: u64) -> u64 {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    // The grantor's Send waits out every move, and at the default 200 ms
    // its retransmissions each earn a reply-pending packet: a cost per
    // second of the run, not per chunk. Here it waits without them.
    cfg.protocol.retransmit_timeout = SimDuration::from_millis(3_600_000);
    let mut cl = Cluster::new(cfg);
    let report = probe(RunReport::default());
    let mover = Mover::new(moves, size, MoveDir::To, 0x5A, report.clone());
    let mover = cl.spawn(HostId(0), "mover", Box::new(mover));
    let grantor = Grantor {
        mover,
        size,
        pattern: 0x5A,
        dir: MoveDir::To,
        report: report.clone(),
    };
    cl.spawn(HostId(1), "grantor", Box::new(grantor));
    let (n, ()) = counted_during(&ALLOCS, || cl.run());
    let report = report.borrow();
    assert!(report.clean() && report.iterations == moves, "{report:?}");
    n
}

#[test]
fn a_16_kb_move_to_allocates_once_per_chunk() {
    // A 16 KB MoveTo is 32 chunks of 512 bytes and a 512-byte one is one
    // chunk; everything else a move costs (its acknowledgement, the
    // process's resume) they share, so the difference is 31 chunks a
    // move, and the differences of two run lengths cancel set-up. Both
    // runs are past the warm-up of the grantor's inbound table, which
    // keeps each completed deposit for `alien_keep` (2 s): 512-byte moves
    // complete fast enough that it grows for the first few hundred, and
    // two of its doublings fall between 50 and 150 of them.
    const CHUNK: u32 = 512;
    let (moves, extra) = (400, 100);
    let run =
        |size| move_to_run_allocations(size, moves + extra) - move_to_run_allocations(size, moves);
    let n = run(32 * CHUNK) - run(CHUNK);
    let chunks = 31 * extra;
    println!(
        "allocations per 512-byte chunk of a 16 KB MoveTo: {}",
        n as f64 / chunks as f64
    );
    // The chunk's packet, gathered from the mover's space and written
    // from the packet into the grantor's. It was 3: the chunk read into
    // a body `Vec`, the packet, and `decode`'s copy of its data.
    assert_eq!(n, chunks, "allocations over {chunks} chunks");
}

/// Allocations of a run in which one caching client of a file server
/// opens a file, reads its eight blocks (misses that fill the cache) and
/// then rereads them `hits` times over.
fn cached_reread_allocations(hits: usize) -> u64 {
    const BLOCKS: u32 = 8;
    let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let mut store = BlockStore::new();
    let data = vec![0x6C; BLOCKS as usize * BLOCK_SIZE];
    store.create_with("vol", &data).expect("fresh store");
    let cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(2)),
        cache_mode: CacheMode::WriteInvalidate,
        ..FileServerConfig::default()
    };
    let team = spawn_file_server(&mut cl, HostId(0), cfg, store);
    cl.run();
    let read = |i: usize| FsCall::ReadExpect {
        block: i as u32 % BLOCKS,
        count: BLOCK_SIZE as u32,
        expect: 0x6C,
    };
    let mut script = vec![FsCall::Open("vol".into())];
    script.extend((0..BLOCKS as usize + hits).map(read));
    let report = Rc::new(RefCell::new(FsClientReport::default()));
    let client = FsClient::new(team.server, script, report.clone());
    let client = spawn_caching_client(&mut cl, HostId(1), client, &CacheConfig::blocks(64));
    let (n, ()) = counted_during(&ALLOCS, || cl.run());
    let report = report.borrow();
    assert!(report.done && report.errors + report.integrity_errors == 0);
    assert_eq!(client.stats().hits, hits as u64, "{report:?}");
    n
}

#[test]
fn a_thousand_warm_cache_hits_allocate_nothing() {
    // A hit is one probe and one copy, cache to the client's buffer; it
    // was one `Vec` per hit while the block waited out the hit's CPU
    // charge in a snapshot of its own.
    // (The shorter run is long enough that the one-off growth of the
    // queue and the tables — five allocations — is behind both.)
    let n = cached_reread_allocations(1_100 + 1_000) - cached_reread_allocations(1_100);
    assert_eq!(n, 0, "allocations over 1,000 warm cache hits");
}

#[test]
fn a_scripted_client_holds_twelve_bytes_a_step() {
    // 10,000 block reads and 1,000 opens over two names, handed over as
    // a clone the way a harness that keeps its scripts hands them over.
    const READS: usize = 10_000;
    const OPENS: usize = 1_000;
    let names = ["readmostly", "shared"];
    let mut script = Vec::with_capacity(READS + OPENS);
    for i in 0..READS + OPENS {
        script.push(match i % 11 {
            0 => FsCall::Open(names[i / 11 % 2].to_string()),
            _ => FsCall::ReadExpect {
                block: i as u32 % 32,
                count: BLOCK_SIZE as u32,
                expect: 0xA5,
            },
        });
    }
    let server = Pid::from_raw(0x0001_0001).expect("a pid");
    let report = Rc::new(RefCell::new(FsClientReport::default()));
    let (live, client) = counted_during(&LIVE, || {
        FsClient::new(server, script.clone(), report.clone())
    });
    let steps = (READS + OPENS) as u64;
    println!("{live} live bytes held by a client of {steps} steps");
    // The compiled steps, 12 bytes each, and the two names once: 132,112
    // bytes. It was 360,000 while the client kept the script itself, 32
    // bytes a call plus a `String` per open.
    assert!(live <= 12 * steps + 256, "{live} live bytes");
    drop(client);
}

/// A root catalogue the way the boot storm builds one: `images` loadable
/// images of 8 KB (a header block and the image, 8,704 bytes a file).
fn root_catalogue(images: usize) -> BlockStore {
    let mut store = BlockStore::new();
    for i in 0..images {
        install_image(&mut store, &format!("bootimage.{i}"), 8192, 0xB7);
    }
    store
}

#[test]
fn a_replicated_roots_clone_copies_no_file_bytes() {
    let master = root_catalogue(15);
    let (bytes, replica) = counted_during(&BYTES, || master.clone());
    println!("{bytes} bytes requested cloning a root of 15 8 KB images");
    // The directory and the file table, 1,892 bytes; the files' bytes are
    // shared. It was 132,692, 15 copies of 8,704 bytes and the tables,
    // while a clone copied every file.
    assert!(bytes < (BLOCK_SIZE + 8192) as u64, "{bytes} bytes");
    assert_eq!(replica.file_count(), 15);
}

#[test]
fn a_write_to_a_file_no_other_store_shares_allocates_nothing() {
    let mut master = root_catalogue(1);
    let id = master.open("bootimage.0").expect("installed");
    let page = [0x3C; BLOCK_SIZE];
    let (n, ()) = counted_during(&ALLOCS, || master.write_block(id, 3, &page).unwrap());
    assert_eq!(n, 0, "allocations writing an unshared file");
    // A clone's first write copies the file it shares, once; the copy is
    // its own, so the next write allocates nothing again, and the master
    // keeps its bytes.
    let mut replica = master.clone();
    let (first, ()) = counted_during(&ALLOCS, || replica.write_block(id, 4, &page).unwrap());
    let (second, ()) = counted_during(&ALLOCS, || replica.write_block(id, 5, &page).unwrap());
    println!("allocations of a clone's writes to a shared file: {first}, then {second}");
    assert!(first > 0, "a shared file was written in place");
    assert_eq!(second, 0, "allocations writing a file already copied");
    assert_eq!(master.read_block(id, 4, 1).unwrap(), [0xB7]);
    assert_eq!(replica.read_block(id, 4, 1).unwrap(), [0x3C]);
}

#[test]
fn boot_storm_allocates_about_a_seventh_per_event() {
    let (n, report) = counted_during(&ALLOCS, || run_boot_storm(&BootStormConfig::new(256)));
    assert_eq!(report.loaded, 256);
    let per_event = n as f64 / report.events_dispatched as f64;
    println!(
        "{n} allocations over {} dispatched events: {per_event} per event",
        report.events_dispatched
    );
    // The whole call, set-up included: 19,575 allocations over 139,534
    // events (0.140), none of them per receiver — what is left is one
    // buffer per packet, one box per fan-out event, the runs of pages the
    // processes write (a loader's name and header share one page, and its
    // image is one run however many chunks it arrives in), and a few for
    // each segment's charge log as it grows. It was 19,831 (0.142) while
    // a space was a page table and each loader copied its image's name
    // to write it, 19,949 (0.143) while each shard's clone of the root
    // copied every file, 35,399 (0.254) while each image chunk was also read
    // into a typed body's `Vec` and copied out of the packet into
    // another, 35,746 (0.256) while an
    // event that held the runs either side of a sender kept the second
    // in a vector of its own, 36,784 (0.264) when this bound was set, and
    // 37,907 (0.272) while every fan-out event also copied its receivers'
    // addresses into a list of its own — one box fewer for each of the three segments a
    // broadcast is flooded to, now that an event names a range of the
    // transport's shared station list. Before that: 37,246 (0.267) until
    // a space became a page table and first-touch pages became
    // allocations, and 166,957 (1.197) when each broadcast receiver got
    // its own copy of the frame.
    assert!(per_event <= 0.143, "{per_event} allocations per event");
}

#[test]
fn a_spawn_requests_under_half_a_kilobyte_however_warm_the_heap() {
    // On a few hosts, so that the growth of each host's process table is
    // amortised and what is counted is what a process costs.
    const PROCESSES: usize = 1_000;
    const HOSTS: usize = 4;
    let spawn_round = || {
        let cfg = ClusterConfig::three_mb().with_hosts(HOSTS, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let (bytes, ()) = counted_during(&BYTES, || {
            for i in 0..PROCESSES {
                cl.spawn(HostId(i % HOSTS), "echo", Box::new(Echo));
            }
        });
        bytes
    };
    let first = spawn_round();
    println!(
        "{first} bytes requested spawning {PROCESSES} default-size processes: {} each",
        first / PROCESSES as u64
    );
    // A 256 KB space is an empty list of runs until its process writes,
    // so what is left is the process's other tables: 266 bytes. It was
    // 778 while the space was a 64-entry page table, and 262,144 zeroed
    // bytes before that, which the allocator hands over untouched only
    // until the first cluster is dropped.
    assert!(first < 512 * PROCESSES as u64, "{first} bytes");
    let second = spawn_round();
    assert!(
        second <= first,
        "{second} bytes after a drop, {first} fresh"
    );
}

#[test]
fn a_loaders_name_and_header_hold_one_page() {
    // A program loader's first two uses of its space (§6.3): the image's
    // name written out for the open, then the 512-byte header read back
    // into the same buffer.
    let name = b"bootimage.0.img.x";
    let (live, space) = counted_during(&LIVE, || {
        let mut space = AddressSpace::new(AddressSpace::DEFAULT_SIZE);
        space.write(0x200, name).expect("in the space");
        space
            .write(0x200, &[0x5E; BLOCK_SIZE])
            .expect("in the space");
        space
    });
    println!("{live} live bytes held by a space with a name and a header");
    // One 512-byte page and the list of runs (96 bytes). It was 4,608,
    // a 4 KB page and a 64-entry page table, while pages were 4 KB.
    assert!(live <= 1024, "{live} live bytes");
    assert_eq!(space.read(0x200, 2).expect("in the space"), [0x5E; 2]);
}
