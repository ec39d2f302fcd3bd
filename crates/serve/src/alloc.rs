//! A per-thread free-list cache in front of [`System`], for a server
//! process to install as its `#[global_allocator]`.
//!
//! Compiling a request builds and drops many short-lived trees
//! (placeholders, dictionary expressions, derived instances, converted
//! core), and nearly all of those allocations are small. [`ThreadCache`]
//! keeps each thread's freed small blocks on per-size free lists, so a
//! request's allocate/free churn is a thread-local pop or push instead
//! of a trip through the C allocator.
//!
//! The rules it keeps:
//!
//! - **Small requests.** A request of at most 1,032 bytes and
//!   alignment at most 16 is served from one of 64 classes of `24 + 16k`
//!   bytes. Each class size is the most one glibc chunk holds, so
//!   rounding a request up to its class never costs the C allocator more
//!   memory than the request alone would. Larger or more aligned
//!   requests go straight to [`System`].
//! - **Every small block is a [`System`] block** of its class size, with
//!   alignment 16. So any thread may free any block, and every miss or
//!   overflow simply goes to [`System`]: there are no locks, no shared
//!   state and no chunks.
//! - **Per-thread bounds.** For each class, a thread caches at most the
//!   most blocks of that class it has ever had out at once (its
//!   allocations minus its frees, never below zero), plus 16, and at
//!   most 1 MiB in all. Any other free goes to [`System`]. So blocks one
//!   thread allocates and another frees, such as a connection reader's
//!   request text freed by a worker, flow back to [`System`] instead of
//!   piling up in the freeing thread.
//! - **Thread exit.** A thread's cache returns every block to [`System`]
//!   when the thread exits. After that, the thread allocates and frees
//!   straight through [`System`] at the class layout. The cache's
//!   destructor is registered with the C runtime (on Linux/glibc,
//!   `__cxa_thread_atexit_impl`), which does not allocate through the
//!   global allocator, so a thread's first allocation cannot re-enter it.
//!
//! Library crates never install it. A binary opts in with a
//! `#[global_allocator] static GLOBAL: ThreadCache = ThreadCache;` item,
//! as the `run` example does.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::UnsafeCell;
use std::ptr;

/// Number of size classes.
const CLASSES: usize = 64;

/// Size of the smallest class, bytes: what glibc's smallest chunk holds.
const MIN_CLASS: usize = 24;

/// Step between class sizes, bytes: glibc's chunk granularity.
const STEP: usize = 16;

/// Alignment of every small block, and the most a small request may ask.
const ALIGN: usize = 16;

/// Largest request the cache serves, bytes: the top class's size.
const MAX_SMALL: usize = MIN_CLASS + STEP * (CLASSES - 1);

/// Blocks a class may cache beyond the most its thread ever had out.
const SLACK: usize = 16;

/// Most bytes one thread caches, over all classes.
const MAX_CACHED_BYTES: usize = 1 << 20;

/// The class serving `layout`, or `None` for a request that goes
/// straight to [`System`].
#[inline]
fn class_of(layout: Layout) -> Option<usize> {
    (layout.size() <= MAX_SMALL && layout.align() <= ALIGN)
        .then(|| layout.size().saturating_sub(MIN_CLASS).div_ceil(STEP))
}

#[inline]
fn class_size(k: usize) -> usize {
    MIN_CLASS + STEP * k
}

/// The layout every block of class `k` is allocated and freed with.
#[inline]
fn class_layout(k: usize) -> Layout {
    debug_assert!(k < CLASSES);
    // SAFETY: ALIGN is a power of two, and every caller passes a class
    // (k < CLASSES), whose size is at most MAX_SMALL: rounded up to
    // ALIGN, far below `isize::MAX`.
    unsafe { Layout::from_size_align_unchecked(class_size(k), ALIGN) }
}

/// One class's free list on one thread.
#[derive(Clone, Copy)]
struct Class {
    /// Top of the list; the first word of each block on it holds the
    /// next block's address (null at the bottom).
    head: *mut u8,
    /// Blocks on the list.
    len: usize,
    /// This thread's allocations of the class minus its frees, never
    /// below zero.
    out: usize,
    /// The most `out` has ever been.
    peak: usize,
}

/// One thread's free lists. Every block on a list is a live [`System`]
/// block of its class layout that nothing else uses.
struct Cache {
    classes: [Class; CLASSES],
    /// Bytes on all the lists.
    bytes: usize,
}

impl Cache {
    const fn new() -> Cache {
        const EMPTY: Class = Class {
            head: ptr::null_mut(),
            len: 0,
            out: 0,
            peak: 0,
        };
        Cache {
            classes: [EMPTY; CLASSES],
            bytes: 0,
        }
    }

    /// A block of class `k`: the top of its list, or a new [`System`]
    /// block. Null only if [`System`] is out of memory.
    #[inline]
    fn alloc(&mut self, k: usize) -> *mut u8 {
        let class = &mut self.classes[k];
        class.out += 1;
        class.peak = class.peak.max(class.out);
        let block = class.head;
        if block.is_null() {
            // SAFETY: a class layout has a nonzero size.
            return unsafe { System.alloc(class_layout(k)) };
        }
        // SAFETY: `block` is on the list, so its first word holds the
        // next block's address (see `Class::head`).
        class.head = unsafe { block.cast::<*mut u8>().read() };
        class.len -= 1;
        self.bytes -= class_size(k);
        block
    }

    /// Take back a block of class `k`: onto its list while the
    /// per-thread bounds allow, to [`System`] otherwise.
    ///
    /// # Safety
    ///
    /// `block` was allocated from [`System`] with `class_layout(k)`, is
    /// on no list, and nothing uses it any more.
    #[inline]
    unsafe fn dealloc(&mut self, k: usize, block: *mut u8) {
        let size = class_size(k);
        let class = &mut self.classes[k];
        class.out = class.out.saturating_sub(1);
        if class.len >= class.peak + SLACK || self.bytes + size > MAX_CACHED_BYTES {
            // SAFETY: the caller's guarantee.
            unsafe { System.dealloc(block, class_layout(k)) };
            return;
        }
        // SAFETY: the block is at least MIN_CLASS bytes and ALIGN-aligned,
        // so its first word can hold a pointer, and nothing else uses it.
        unsafe { block.cast::<*mut u8>().write(class.head) };
        class.head = block;
        class.len += 1;
        self.bytes += size;
    }

    /// Empty every list, handing each block to `free` with its layout.
    fn drain(&mut self, mut free: impl FnMut(*mut u8, Layout)) {
        for (k, class) in self.classes.iter_mut().enumerate() {
            while !class.head.is_null() {
                let block = class.head;
                // SAFETY: `block` is on the list (see `Class::head`).
                class.head = unsafe { block.cast::<*mut u8>().read() };
                free(block, class_layout(k));
            }
            class.len = 0;
        }
        self.bytes = 0;
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        // SAFETY: every block on a list is a System block of the layout
        // `drain` passes, and `drain` takes it off the list first.
        self.drain(|block, layout| unsafe { System.dealloc(block, layout) });
    }
}

thread_local! {
    static CACHE: UnsafeCell<Cache> = const { UnsafeCell::new(Cache::new()) };
}

/// Run `f` on this thread's cache; `None` once the thread has dropped
/// it (during thread exit).
///
/// # Safety
///
/// `f` must not reach `with_cache` again, directly or through the global
/// allocator.
#[inline]
unsafe fn with_cache<R>(f: impl FnOnce(&mut Cache) -> R) -> Option<R> {
    CACHE
        .try_with(|cache| {
            // SAFETY: the cache belongs to this thread, and by the
            // caller's guarantee no other reference to it is live while
            // `f` runs.
            f(unsafe { &mut *cache.get() })
        })
        .ok()
}

/// The allocator: small requests through the calling thread's cache,
/// every other request straight to [`System`]. See the module docs.
pub struct ThreadCache;

// SAFETY: a small request gets a System block of its class layout, whose
// size and alignment are at least the request's; any other request goes
// to System unchanged. `dealloc` and `realloc` find the same class from
// the layout the block was allocated with, so each block returns, once,
// to System or to one thread's list in the layout System gave it. The
// cache's methods call only System, never the global allocator, so
// `with_cache` is never re-entered.
unsafe impl GlobalAlloc for ThreadCache {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match class_of(layout) {
            // SAFETY: forwarded; the caller's layout has a nonzero size.
            None => unsafe { System.alloc(layout) },
            // SAFETY: `Cache::alloc` calls only System.
            Some(k) => unsafe { with_cache(|cache| cache.alloc(k)) }
                // SAFETY: a class layout has a nonzero size.
                .unwrap_or_else(|| unsafe { System.alloc(class_layout(k)) }),
        }
    }

    #[inline]
    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        match class_of(layout) {
            // SAFETY: forwarded; `block` came from System with `layout`.
            None => unsafe { System.dealloc(block, layout) },
            Some(k) => {
                // SAFETY: `block` came from `alloc` for a layout of class
                // `k`, so from System with `class_layout(k)`, and the
                // caller is done with it; `Cache::dealloc` calls only
                // System.
                let cached = unsafe { with_cache(|cache| cache.dealloc(k, block)) };
                if cached.is_none() {
                    // SAFETY: as above.
                    unsafe { System.dealloc(block, class_layout(k)) };
                }
            }
        }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if class_of(layout).is_none() {
            // SAFETY: forwarded; the caller's layout has a nonzero size.
            return unsafe { System.alloc_zeroed(layout) };
        }
        // SAFETY: as for `alloc`.
        let block = unsafe { self.alloc(layout) };
        if !block.is_null() {
            // SAFETY: the block holds at least `layout.size()` bytes.
            unsafe { ptr::write_bytes(block, 0, layout.size()) };
        }
        block
    }

    #[inline]
    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size` is nonzero and, rounded
        // up to `layout.align()`, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new_layout)) {
            // SAFETY: forwarded; `block` came from System with `layout`.
            (None, None) => unsafe { System.realloc(block, layout, new_size) },
            // The class's block already holds `new_size` bytes.
            (Some(old), Some(new)) if old == new => block,
            _ => {
                // SAFETY: `new_layout` has a nonzero size.
                let moved = unsafe { self.alloc(new_layout) };
                if !moved.is_null() {
                    // SAFETY: both blocks hold the smaller size, they are
                    // distinct live blocks, and `block` came from this
                    // allocator with `layout`.
                    unsafe {
                        ptr::copy_nonoverlapping(block, moved, layout.size().min(new_size));
                        self.dealloc(block, layout);
                    }
                }
                moved
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    /// This thread's lists as they stand.
    fn snapshot() -> ([Class; CLASSES], usize) {
        // SAFETY: the closure only copies the cache.
        unsafe { with_cache(|cache| (cache.classes, cache.bytes)) }
            .expect("the test thread's cache is alive")
    }

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).expect("a valid test layout")
    }

    /// Fill the block with a byte pattern derived from `seed`.
    fn fill(block: *mut u8, len: usize, seed: u8) {
        for i in 0..len {
            // SAFETY: the caller's block holds at least `len` bytes.
            unsafe { block.add(i).write(seed.wrapping_add(i as u8)) };
        }
    }

    fn holds_pattern(block: *const u8, len: usize, seed: u8) -> bool {
        // SAFETY: the caller's block holds at least `len` initialised bytes.
        (0..len).all(|i| unsafe { block.add(i).read() } == seed.wrapping_add(i as u8))
    }

    #[test]
    fn class_sizes_match_the_spec() {
        assert_eq!(MAX_SMALL, 1032);
        assert_eq!(class_of(layout(1, 1)), Some(0));
        assert_eq!(class_of(layout(24, 8)), Some(0));
        assert_eq!(class_of(layout(25, 8)), Some(1));
        assert_eq!(class_of(layout(40, 16)), Some(1));
        assert_eq!(class_of(layout(41, 16)), Some(2));
        assert_eq!(class_of(layout(1032, 16)), Some(CLASSES - 1));
        assert_eq!(class_of(layout(1033, 1)), None);
        assert_eq!(class_of(layout(16, 32)), None);
        for size in 1..=MAX_SMALL {
            let k = class_of(layout(size, 1)).expect("small");
            assert!(size <= class_size(k), "{size} fits class {k}");
            assert!(
                k == 0 || size > class_size(k - 1),
                "{size} is in its smallest class"
            );
        }
    }

    #[test]
    fn every_size_and_alignment_gets_a_writable_aligned_block() {
        let sizes = (1..=MAX_SMALL).chain([MAX_SMALL + 1, 4096]);
        let mut live = Vec::new();
        for size in sizes {
            for align in [1, 8, 16, 32] {
                let layout = layout(size, align);
                let (before, _) = snapshot();
                // SAFETY: a nonzero-size layout.
                let block = unsafe { ThreadCache.alloc(layout) };
                assert!(!block.is_null(), "{size}/{align}");
                assert_eq!(block as usize % align, 0, "{size}/{align} is aligned");
                fill(block, size, size as u8);
                let (after, _) = snapshot();
                let outs = |c: &[Class; CLASSES]| c.iter().map(|c| c.out).sum::<usize>();
                let cached = size <= MAX_SMALL && align <= ALIGN;
                assert_eq!(
                    outs(&after),
                    outs(&before) + usize::from(cached),
                    "{size}/{align}"
                );
                live.push((block, layout));
            }
        }
        for &(block, layout) in &live {
            assert!(holds_pattern(block, layout.size(), layout.size() as u8));
        }
        let distinct: BTreeSet<usize> = live.iter().map(|&(b, _)| b as usize).collect();
        assert_eq!(
            distinct.len(),
            live.len(),
            "live blocks never overlap in start"
        );
        for (block, layout) in live {
            // SAFETY: allocated above with this layout.
            unsafe { ThreadCache.dealloc(block, layout) };
        }
        let (classes, bytes) = snapshot();
        assert!(classes.iter().all(|c| c.out == 0));
        let listed: usize = (0..CLASSES).map(|k| classes[k].len * class_size(k)).sum();
        assert_eq!(bytes, listed);
    }

    #[test]
    fn realloc_keeps_the_block_within_a_class_and_the_contents_across() {
        let a = ThreadCache;
        // SAFETY: every call below passes a block this allocator returned
        // with the layout it was last given, and nonzero sizes.
        unsafe {
            let block = a.alloc(layout(25, 8));
            fill(block, 25, 7);
            assert_eq!(a.realloc(block, layout(25, 8), 40), block);
            assert!(holds_pattern(block, 25, 7));
            fill(block, 40, 7);
            assert_eq!(a.realloc(block, layout(40, 8), 30), block);
            // Across classes, and to, from and between large sizes.
            let (mut block, mut size, mut seed) = (block, 30, 7);
            for to in [41, 1032, 1033, 4096, 9000, 5000, 1033, 1032, 100, 24, 1] {
                block = a.realloc(block, layout(size, 8), to);
                assert!(holds_pattern(block, size.min(to), seed), "{size} -> {to}");
                seed += 1;
                fill(block, to, seed);
                size = to;
            }
            a.dealloc(block, layout(size, 8));
            // Over-aligned blocks stay with System, and keep their contents.
            let block = a.alloc(layout(64, 32));
            fill(block, 64, 3);
            let grown = a.realloc(block, layout(64, 32), 200);
            assert_eq!(grown as usize % 32, 0);
            assert!(holds_pattern(grown, 64, 3));
            a.dealloc(grown, layout(200, 32));
        }
    }

    #[test]
    fn alloc_zeroed_clears_a_recycled_block() {
        let a = ThreadCache;
        let l = layout(100, 8);
        // SAFETY: each block is freed once, with the layout it came with.
        unsafe {
            let block = a.alloc(l);
            fill(block, 100, 0xab);
            a.dealloc(block, l);
            let again = a.alloc_zeroed(l);
            assert_eq!(again, block, "the freed block is recycled");
            assert!((0..100).all(|i| again.add(i).read() == 0));
            a.dealloc(again, l);
            let large = a.alloc_zeroed(layout(4096, 8));
            assert!((0..4096).all(|i| large.add(i).read() == 0));
            a.dealloc(large, layout(4096, 8));
        }
    }

    #[test]
    fn a_thread_freeing_another_threads_blocks_caches_within_its_bounds() {
        const BLOCKS: usize = 10_000;
        let size_of = |i: usize| 1 + (i * 37) % MAX_SMALL;
        let (send, recv) = mpsc::channel::<usize>();
        let producer = std::thread::spawn(move || {
            for i in 0..BLOCKS {
                // SAFETY: a nonzero-size layout.
                let block = unsafe { ThreadCache.alloc(layout(size_of(i), 8)) };
                send.send(block as usize)
                    .expect("the consumer is listening");
            }
        });
        let consumer = std::thread::spawn(move || {
            let check = || {
                let (classes, bytes) = snapshot();
                assert!(bytes <= MAX_CACHED_BYTES, "{bytes} bytes cached");
                for (k, c) in classes.iter().enumerate() {
                    assert!(c.len <= c.peak + SLACK, "class {k}: {} > {}", c.len, c.peak);
                }
                classes
            };
            // The consumer's own peak: 5 blocks of class 2 out at once.
            let own = layout(50, 8);
            // SAFETY: each block is freed once, with its layout.
            let blocks: Vec<_> = (0..5).map(|_| unsafe { ThreadCache.alloc(own) }).collect();
            for block in blocks {
                // SAFETY: as above.
                unsafe { ThreadCache.dealloc(block, own) };
            }
            // The producer's blocks spread over every class, about 156
            // each, far under the byte cap: the per-class bound binds.
            for (i, block) in recv.iter().enumerate() {
                // SAFETY: the producer allocated it with this layout and
                // let go of it.
                unsafe { ThreadCache.dealloc(block as *mut u8, layout(size_of(i), 8)) };
                if i % 1000 == 0 {
                    check();
                }
            }
            let classes = check();
            for (k, c) in classes.iter().enumerate() {
                assert_eq!(
                    (c.peak, c.len),
                    if k == 2 { (5, 5 + SLACK) } else { (0, SLACK) }
                );
            }
            // Then 2,000 top-class blocks out at once, about twice the
            // byte cap: the byte cap binds.
            let top = layout(MAX_SMALL, 16);
            // SAFETY: each block is freed once, with its layout.
            let blocks: Vec<_> = (0..2000)
                .map(|_| unsafe { ThreadCache.alloc(top) })
                .collect();
            for block in blocks {
                // SAFETY: as above.
                unsafe { ThreadCache.dealloc(block, top) };
            }
            let (classes, bytes) = snapshot();
            assert!(bytes <= MAX_CACHED_BYTES && bytes + MAX_SMALL > MAX_CACHED_BYTES);
            assert!(classes[CLASSES - 1].len < 2000);
            check();
        });
        producer.join().expect("the producer finishes");
        consumer.join().expect("the consumer's checks hold");
    }

    #[test]
    fn dropping_a_cache_returns_every_block() {
        let mut cache = Cache::new();
        let blocks: Vec<_> = (0..CLASSES)
            .flat_map(|k| [k; 3])
            .map(|k| (k, cache.alloc(k)))
            .collect();
        for &(k, block) in &blocks {
            // SAFETY: allocated above from System with class_layout(k).
            unsafe { cache.dealloc(k, block) };
        }
        assert_eq!(
            cache.bytes,
            (0..CLASSES).map(|k| 3 * class_size(k)).sum::<usize>()
        );
        let given: BTreeSet<_> = blocks
            .iter()
            .map(|&(k, b)| (b as usize, class_size(k)))
            .collect();
        let mut returned = BTreeSet::new();
        cache.drain(|block, layout| {
            assert_eq!(layout.align(), ALIGN);
            assert!(
                returned.insert((block as usize, layout.size())),
                "returned once"
            );
        });
        assert_eq!(returned, given);
        assert_eq!(cache.bytes, 0);
        assert!(cache.classes.iter().all(|c| c.head.is_null() && c.len == 0));
        for (block, size) in returned {
            // SAFETY: drained blocks are System blocks of their class layout.
            unsafe { System.dealloc(block as *mut u8, layout(size, ALIGN)) };
        }
        // Refill, and let `Drop` hand the blocks to System.
        for k in 0..CLASSES {
            let block = cache.alloc(k);
            // SAFETY: as above.
            unsafe { cache.dealloc(k, block) };
        }
        drop(cache);
    }

    /// Set by [`AtExit`]'s destructor: whether the thread's cache was
    /// gone, and whether a small block still came and went.
    static CACHE_GONE_AT_EXIT: AtomicBool = AtomicBool::new(false);
    static ALLOCATED_AT_EXIT: AtomicBool = AtomicBool::new(false);

    struct AtExit;

    impl Drop for AtExit {
        fn drop(&mut self) {
            // SAFETY: the closure does nothing.
            let gone = unsafe { with_cache(|_| ()) }.is_none();
            CACHE_GONE_AT_EXIT.store(gone, Ordering::SeqCst);
            let l = layout(48, 8);
            // SAFETY: a nonzero-size layout; the block is freed once.
            let ok = unsafe {
                let block = ThreadCache.alloc(l);
                let ok = !block.is_null();
                if ok {
                    fill(block, 48, 1);
                    ThreadCache.dealloc(block, l);
                }
                ok
            };
            ALLOCATED_AT_EXIT.store(ok, Ordering::SeqCst);
        }
    }

    thread_local! {
        static AT_EXIT: AtExit = const { AtExit };
    }

    #[test]
    fn a_thread_past_its_cache_allocates_through_system() {
        // `join` waits for the thread's thread-local destructors too.
        std::thread::spawn(|| {
            // Thread-local destructors run in reverse order of first use,
            // so `AtExit` runs after the cache is dropped.
            AT_EXIT.with(|_| ());
            let l = layout(48, 8);
            // SAFETY: the block is freed once, with its layout.
            unsafe { ThreadCache.dealloc(ThreadCache.alloc(l), l) };
            assert_eq!(snapshot().0[2].len, 1, "the block is cached");
        })
        .join()
        .expect("the thread's checks hold");
        assert!(CACHE_GONE_AT_EXIT.load(Ordering::SeqCst));
        assert!(ALLOCATED_AT_EXIT.load(Ordering::SeqCst));
    }
}
