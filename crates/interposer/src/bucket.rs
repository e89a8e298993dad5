//! Monotone bucket (Dial-style) frontier for the router's A* loop.
//!
//! A* with a consistent heuristic pops keys in non-decreasing order, so
//! the frontier never spans more than one maximum-edge-cost worth of
//! key space at a time. [`BucketQueue`] exploits that: keys are
//! quantized into fixed-point *ticks* of [`TICK_UM`] µm, and a monotone
//! cursor walks the ticks in order. Only the cursor tick is kept
//! ordered, in one [`BinaryHeap`] under the exact `(f, node)` key. Every
//! later tick's entries wait unordered in a singly linked list threaded
//! through one append-only arena, found through a ring of `RING` slot
//! heads. When the cursor reaches a non-empty slot, its list is
//! heapified into the cursor heap, which is empty at that point. A push
//! therefore writes one arena record and one slot head, and the ring is
//! 64 KiB of heads instead of thousands of separately allocated heaps.
//!
//! # Exactness
//!
//! The pop order is **bit-for-bit identical** to a global
//! `BinaryHeap<FrontierItem>`, not merely equivalent-cost. The key
//! `(f, node)` is the whole item and [`f64::total_cmp`] equality is bit
//! equality, so equal keys are identical items: the popped sequence is a
//! function of the queued multiset alone, whatever order a list or a
//! heap happens to hold it in. Four invariants carry the argument:
//!
//! 1. *Quantization is monotone*: `f1 <= f2 ⇒ tick(f1) <= tick(f2)`, so
//!    no entry of a later tick is smaller than an entry of an earlier
//!    one.
//! 2. *The heap holds the cursor tick; the lists hold strictly later
//!    ticks*: a push at the cursor tick goes straight into the heap, and
//!    so does a late cheap push below the cursor (floating-point
//!    rounding can put a key an ulp below the last pop), which clamps to
//!    the cursor and is then smaller than anything else queued. A list
//!    moves into the heap only when the heap is empty and the cursor
//!    reaches the list's tick, so the heap's top is always the global
//!    minimum.
//! 3. *A slot holds one tick at a time*: list ticks lie in
//!    `(cursor, cursor + RING)`, so `t % RING` names one tick, and a slot
//!    drained at tick `t` can take tick `t + RING` later in the same
//!    search.
//! 4. *The overflow tier is a strict suffix*: entries beyond the ring
//!    horizon wait in `overflow`, and once anything overflows, every
//!    later push at or past the smallest overflowed tick overflows too
//!    (`overflow_min`). Ring ticks therefore stay strictly below every
//!    overflow tick, so draining the ring before rebasing onto the
//!    overflow minimum preserves the global order.
//!
//! The retained binary heap (`HeapFrontier`, compiled for tests only) is
//! the differential oracle: the proptests below drive both queues with
//! the same random bounded-cost push/pop schedules — tie storms and
//! slot reuse included — and demand identical pop sequences.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Quantization tick, µm of path cost per ring slot. `1/TICK_UM` must
/// be a power of two so the tick computation is exact (no rounding in
/// `f * TICK_INV`), keeping quantization a pure monotone function of
/// the key bits.
pub const TICK_UM: f64 = 0.5;
const TICK_INV: f64 = 1.0 / TICK_UM;
/// Ring capacity in ticks (8 192 µm of key span at [`TICK_UM`]). Wide
/// enough that congestion-priced edges rarely overflow; the overflow
/// tier keeps correctness when they do.
const RING: usize = 16_384;
/// End of a future-tick list (and the head of an empty slot).
const NIL: u32 = u32::MAX;

/// One frontier entry: the A* key `f` and the node index. Staleness is
/// the router's business (see `router::astar`), so no `g` rides along.
#[derive(Debug, Clone, Copy)]
pub struct FrontierItem {
    /// Priority key (`dist` + heuristic).
    pub f: f64,
    /// Flattened grid node index.
    pub node: u32,
}

const _: () = assert!(std::mem::size_of::<FrontierItem>() == 16);

impl PartialEq for FrontierItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FrontierItem {}

impl Ord for FrontierItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-order on f (so a max-BinaryHeap pops the smallest f),
        // larger node index first among exact f ties. The key is the
        // whole item, so two entries that compare equal are the same
        // bits and fully interchangeable.
        //
        // `total_cmp` keeps this a total order even for the NaN/-0.0
        // corners `Ord` must survive (see the HeapItem note this
        // ordering was lifted from).
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for FrontierItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The priority-queue interface the A* kernel is generic over. Both
/// implementations pop in the identical total order; only the constant
/// factors differ.
pub trait FrontierQueue {
    /// An empty queue. Allocation happens here; [`FrontierQueue::begin`]
    /// reuses it.
    fn new() -> Self;

    /// Empties the queue for a fresh search, keeping its allocations.
    fn begin(&mut self);

    /// Inserts an entry. Keys must be finite and non-negative.
    fn push(&mut self, item: FrontierItem);

    /// Removes and returns the minimum entry by `(f` [`f64::total_cmp`]`,
    /// node descending)`, exactly as `BinaryHeap<FrontierItem>` would.
    fn pop(&mut self) -> Option<FrontierItem>;

    /// Entries currently queued.
    fn len(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every queued entry exactly once, in unspecified order (the
    /// certificate fold over the unpopped frontier).
    fn for_each(&self, f: impl FnMut(&FrontierItem));
}

#[inline]
fn tick(f: f64) -> u64 {
    // `f * 2` is exact for finite f (power-of-two scale); the as-cast
    // floors, saturating NaN/negatives to 0 and +inf to u64::MAX —
    // callers promise finite non-negative keys, the saturation is just
    // the no-UB backstop.
    (f * TICK_INV) as u64
}

#[inline]
fn slot_of(t: u64) -> usize {
    (t % RING as u64) as usize
}

/// The monotone bucket queue: an exact heap for the cursor tick,
/// arena-threaded lists for the later ticks of the ring horizon, and an
/// overflow tier beyond it. See the module docs for the exactness
/// argument.
pub struct BucketQueue {
    /// The cursor tick's entries (and below-cursor pushes clamped to
    /// it), in exact key order.
    heap: BinaryHeap<FrontierItem>,
    /// Append-only list records: an entry and the arena index of the
    /// next record of its list (`NIL` ends it). Cleared by `begin`.
    arena: Vec<(FrontierItem, u32)>,
    /// `heads[t % RING]` is the newest arena record of tick `t`'s list,
    /// or `NIL`, for every tick `t` in `(cursor, cursor + RING)`. Every
    /// other slot is `NIL`.
    heads: Vec<u32>,
    /// Slots whose head is not `NIL`.
    listed_slots: usize,
    /// Absolute tick of the heap's entries; monotone within one search.
    cursor: u64,
    /// Entries whose tick was beyond the ring horizon at push time.
    overflow: Vec<FrontierItem>,
    /// Smallest tick in `overflow` (`u64::MAX` when empty). Ring
    /// admission stays strictly below it so the ring is always a
    /// prefix of the key order.
    overflow_min: u64,
    len: usize,
}

impl BucketQueue {
    /// The listed slots in tick order from the cursor.
    fn listed(&self) -> impl Iterator<Item = usize> + '_ {
        (1..RING as u64)
            .map(|d| slot_of(self.cursor + d))
            .filter(|&slot| self.heads[slot] != NIL)
            .take(self.listed_slots)
    }

    /// Queues `item` at tick `t`, which lies in `[cursor, cursor + RING)`.
    #[inline]
    fn ring_push(&mut self, t: u64, item: FrontierItem) {
        if t == self.cursor {
            self.heap.push(item);
            return;
        }
        let slot = slot_of(t);
        let head = self.heads[slot];
        self.listed_slots += usize::from(head == NIL);
        assert!(self.arena.len() < NIL as usize, "list arena index overflow");
        self.heads[slot] = self.arena.len() as u32;
        self.arena.push((item, head));
    }

    /// Moves the cursor to the next listed tick and heapifies that
    /// tick's list into the cursor heap. Called only when the heap is
    /// empty and some slot is listed.
    fn advance(&mut self) {
        debug_assert!(self.heap.is_empty() && self.listed_slots > 0);
        let mut next = loop {
            self.cursor += 1;
            let head = &mut self.heads[slot_of(self.cursor)];
            if *head != NIL {
                break std::mem::replace(head, NIL);
            }
        };
        self.listed_slots -= 1;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        while next != NIL {
            let (item, after) = self.arena[next as usize];
            entries.push(item);
            next = after;
        }
        self.heap = BinaryHeap::from(entries);
    }

    /// Moves every overflow entry inside the new horizon into the ring
    /// after advancing the cursor to the smallest overflowed tick.
    /// Called only when the ring is empty, so no ring entry can be
    /// overtaken.
    fn rebase(&mut self) {
        debug_assert!(self.heap.is_empty() && self.listed_slots == 0);
        debug_assert!(!self.overflow.is_empty());
        self.cursor = self.overflow_min.max(self.cursor);
        let mut i = 0;
        while i < self.overflow.len() {
            let t = tick(self.overflow[i].f).max(self.cursor);
            if t - self.cursor < RING as u64 {
                let item = self.overflow.swap_remove(i);
                self.ring_push(t, item);
            } else {
                i += 1;
            }
        }
        // Everything retained is at or beyond the horizon, so the new
        // minimum is again an upper bound for ring admission.
        self.overflow_min = self
            .overflow
            .iter()
            .map(|it| tick(it.f))
            .min()
            .unwrap_or(u64::MAX);
    }
}

impl FrontierQueue for BucketQueue {
    fn new() -> Self {
        BucketQueue {
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            heads: vec![NIL; RING],
            listed_slots: 0,
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    fn begin(&mut self) {
        // Only the ticks ahead of the cursor can still be listed, so
        // clearing them costs the frontier's leftover span, not the ring.
        let mut t = self.cursor;
        while self.listed_slots > 0 {
            t += 1;
            let head = &mut self.heads[slot_of(t)];
            if *head != NIL {
                *head = NIL;
                self.listed_slots -= 1;
            }
        }
        self.heap.clear();
        self.arena.clear();
        self.cursor = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, item: FrontierItem) {
        debug_assert!(
            item.f >= 0.0 && item.f.is_finite(),
            "frontier keys must be finite and non-negative, got {}",
            item.f
        );
        // A key an ulp below the cursor (floating-point slack on a
        // zero-slack edge) clamps to the cursor tick, whose heap
        // restores its priority exactly.
        let t = tick(item.f).max(self.cursor);
        if t - self.cursor >= RING as u64 || t >= self.overflow_min {
            self.overflow_min = self.overflow_min.min(t);
            self.overflow.push(item);
        } else {
            self.ring_push(t, item);
        }
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<FrontierItem> {
        loop {
            if let Some(item) = self.heap.pop() {
                self.len -= 1;
                return Some(item);
            }
            if self.listed_slots > 0 {
                self.advance();
            } else if !self.overflow.is_empty() {
                self.rebase();
            } else {
                return None;
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each(&self, mut f: impl FnMut(&FrontierItem)) {
        self.heap.iter().for_each(&mut f);
        for slot in self.listed() {
            let mut next = self.heads[slot];
            while next != NIL {
                let (item, after) = &self.arena[next as usize];
                f(item);
                next = *after;
            }
        }
        self.overflow.iter().for_each(f);
    }
}

/// The retained global binary heap, kept as the differential oracle for
/// tests. Pop order is the reference the bucket queue must reproduce
/// bit-for-bit.
#[cfg(test)]
pub struct HeapFrontier(BinaryHeap<FrontierItem>);

#[cfg(test)]
impl FrontierQueue for HeapFrontier {
    fn new() -> Self {
        HeapFrontier(BinaryHeap::new())
    }

    fn begin(&mut self) {
        self.0.clear();
    }

    fn push(&mut self, item: FrontierItem) {
        self.0.push(item);
    }

    fn pop(&mut self) -> Option<FrontierItem> {
        self.0.pop()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn for_each(&self, f: impl FnMut(&FrontierItem)) {
        self.0.iter().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(f: f64, node: u32) -> FrontierItem {
        FrontierItem { f, node }
    }

    fn assert_same_pop(b: &mut BucketQueue, h: &mut HeapFrontier) -> Option<FrontierItem> {
        let (x, y) = (b.pop(), h.pop());
        match (x, y) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    a.f.to_bits() == b.f.to_bits() && a.node == b.node,
                    "bucket popped ({}, {}), heap popped ({}, {})",
                    a.f,
                    a.node,
                    b.f,
                    b.node
                );
            }
            (a, b) => panic!("bucket popped {a:?}, heap popped {b:?}"),
        }
        x
    }

    /// Every queued entry as sorted `(f bits, node)` pairs, as
    /// `for_each` visits them.
    fn visited(q: &impl FrontierQueue) -> Vec<(u64, u32)> {
        let mut seen = Vec::new();
        q.for_each(|it| seen.push((it.f.to_bits(), it.node)));
        seen.sort_unstable();
        seen
    }

    #[test]
    fn pops_in_key_order_with_exact_tie_break() {
        let mut q = BucketQueue::new();
        q.begin();
        // A tie storm: many entries share f; larger node pops first.
        for node in [3, 9, 1, 7] {
            q.push(item(20.0, node));
        }
        q.push(item(19.5, 0));
        q.push(item(20.5, 100));
        let order: Vec<(f64, u32)> =
            std::iter::from_fn(|| q.pop().map(|i| (i.f, i.node))).collect();
        assert_eq!(
            order,
            vec![
                (19.5, 0),
                (20.0, 9),
                (20.0, 7),
                (20.0, 3),
                (20.0, 1),
                (20.5, 100)
            ]
        );
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn zero_length_degenerate_single_push() {
        // The coincident-endpoints net: one push at f = 0, popped
        // immediately, then empty.
        let mut q = BucketQueue::new();
        q.begin();
        q.push(item(0.0, 42));
        let popped = q.pop().unwrap();
        assert_eq!((popped.f, popped.node), (0.0, 42));
        assert!(q.pop().is_none());
    }

    #[test]
    fn below_cursor_push_clamps_and_pops_first() {
        let mut q = BucketQueue::new();
        let mut h = HeapFrontier::new();
        q.begin();
        h.begin();
        for it in [item(100.0, 1), item(105.0, 2)] {
            q.push(it);
            h.push(it);
        }
        // Pops 100, so the cursor is at tick 200. A late push an ulp-ish
        // below it must still win the next pop, exactly like the global
        // heap.
        assert_same_pop(&mut q, &mut h);
        for it in [item(99.999, 3), item(101.0, 4)] {
            q.push(it);
            h.push(it);
        }
        for _ in 0..3 {
            assert_same_pop(&mut q, &mut h);
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn overflow_and_rebase_preserve_order() {
        let mut q = BucketQueue::new();
        let mut h = HeapFrontier::new();
        q.begin();
        h.begin();
        // Span far beyond the 8 192 µm ring horizon, interleaved so the
        // overflow tier and its strict-suffix invariant are exercised.
        let keys = [
            0.0, 9_000.0, 3.5, 8_192.0, 8_191.5, 20_000.0, 16_500.0, 40.0,
        ];
        for (n, &f) in (0..).zip(&keys) {
            q.push(item(f, n));
            h.push(item(f, n));
        }
        // Pop a few, then push more past the (advanced) horizon.
        for _ in 0..3 {
            assert_same_pop(&mut q, &mut h);
        }
        for (n, &f) in (100..).zip(&[55.0, 30_000.0, 8_192.5]) {
            q.push(item(f, n));
            h.push(item(f, n));
        }
        while q.len() > 0 || h.len() > 0 {
            assert_same_pop(&mut q, &mut h);
        }
    }

    #[test]
    fn begin_isolates_searches() {
        let mut q = BucketQueue::new();
        q.begin();
        q.push(item(7.0, 1));
        q.push(item(9_999.0, 2)); // parked in overflow
        q.push(item(30.0, 6)); // listed, left behind by the search
        assert_eq!(q.pop().unwrap().node, 1);
        q.begin();
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        q.push(item(1.0, 3));
        assert_eq!(q.pop().unwrap().node, 3);
        // for_each sees exactly the live entries.
        q.push(item(2.0, 4));
        q.push(item(50_000.0, 5));
        let seen: Vec<u32> = visited(&q).into_iter().map(|(_, n)| n).collect();
        assert_eq!(seen, vec![4, 5]);
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential oracle: a random bounded-cost push/pop schedule
        /// — coarse dyadic keys for tie storms, occasional huge keys
        /// for the overflow tier, keys one ring lap past the last pop
        /// so a drained slot takes tick `t + RING`, interleaved pops —
        /// must produce the bit-identical pop sequence from both queues,
        /// including the final drain, and `for_each` must visit exactly
        /// the queued multiset.
        #[test]
        fn matches_binary_heap_on_random_schedules(seed in 0u64..(1u64 << 48)) {
            let mut q = BucketQueue::new();
            let mut h = HeapFrontier::new();
            q.begin();
            h.begin();
            let mut last = 0.0f64;
            for step in 0..400u64 {
                let r = splitmix64(seed ^ step);
                if r % 4 == 3 {
                    if let Some(it) = assert_same_pop(&mut q, &mut h) {
                        last = it.f;
                    }
                } else {
                    // Keys quantized to 0.25 µm so many collide exactly
                    // (the dyadic tie storm of real grid costs); ~6 % jump
                    // past the ring horizon, and ~6 % land one lap ahead
                    // of a tick just behind the last pop, in a slot the
                    // cursor may have drained.
                    let mut f = ((r >> 8) % 512) as f64 * 0.25;
                    match (r >> 24) % 16 {
                        0 => f += 9_000.0 + ((r >> 28) % 4) as f64 * 8_192.0,
                        1 => {
                            let back = 1 + (r >> 28) % 8;
                            let lap = (tick(last) + RING as u64 - back) as f64 * TICK_UM;
                            f = lap + ((r >> 31) % 2) as f64 * 0.25;
                        }
                        _ => {}
                    }
                    let node = ((r >> 40) % 64) as u32;
                    q.push(item(f, node));
                    h.push(item(f, node));
                }
                prop_assert_eq!(q.len(), h.len());
                if step % 50 == 49 {
                    prop_assert_eq!(visited(&q), visited(&h));
                }
            }
            while q.len() > 0 || h.len() > 0 {
                assert_same_pop(&mut q, &mut h);
            }
            prop_assert!(q.pop().is_none() && h.pop().is_none());
        }
    }
}
