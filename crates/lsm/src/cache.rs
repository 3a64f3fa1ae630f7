//! The decoded-block cache: a sharded, capacity-bounded CLOCK map from
//! `(table, block)` to decoded points.
//!
//! Queries re-read SSTables through the [`TableStore`](crate::TableStore)
//! trait; without a cache every visit re-reads and re-decodes the same
//! bytes. [`BlockCache`] keeps recently decoded blocks (and parsed
//! [`TableIndex`]es) in memory so a repeated range query over a hot table
//! decodes each block once. (Merge-compactions mostly take their inputs
//! from the engine's pool of written tables instead; only the inputs it no
//! longer holds are read, and cached, here.)
//! The cache itself is pure bookkeeping — the
//! [`CachedStore`](crate::store::CachedStore) wrapper does the I/O and
//! event emission.
//!
//! Design constraints (this is a seplint kernel module):
//!
//! * **Deterministic** (rule R3): eviction is plain CLOCK — a reference
//!   bit per entry, set on insertion and on every hit, and a sweeping hand
//!   per shard. The hand clears a set bit and passes on; it evicts the
//!   first entry it finds with the bit clear. Every block is treated alike,
//!   whatever its table. The "recency" signal is the purely logical tick of
//!   the hand over the ring; no wall clock or thread primitive appears
//!   anywhere in this module, so seeded runs behave identically.
//! * **Bounded**: capacity is counted in *decoded points* (the dominant
//!   memory cost), split evenly across shards. An entry larger than a
//!   whole shard is admitted alone rather than thrashing forever.
//! * **Strictly invalidated**: [`BlockCache::invalidate_table`] removes a
//!   table's index and every cached block. The store wrapper calls it when
//!   a table leaves its engine's version and before forwarding
//!   `delete`/`quarantine`, so a table consumed by a compaction can never
//!   serve a later query from the cache.
//!
//! Sharding is by table id, so one table's blocks colocate and
//! invalidation locks exactly one shard. In the fleet setting different
//! series flush to different tables, which spreads load across shards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use seplsm_types::DataPoint;

use crate::sstable::format::TableIndex;
use crate::sstable::SsTableId;

/// Shards of a [`BlockCache`] made by [`BlockCache::with_capacity`].
const SHARDS: usize = 8;

/// The key of one cached decoded block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// The table the block belongs to.
    pub table: SsTableId,
    /// The block's index within the table (0 for a v1 table).
    pub block: u32,
}

/// One block evicted by an insertion, reported so the caller can emit a
/// `CacheEvict` event per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The evicted block's key.
    pub key: BlockKey,
    /// Decoded points the eviction released.
    pub points: u64,
}

/// A counters snapshot of a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Blocks evicted to stay within capacity.
    pub evictions: u64,
    /// Blocks removed by table invalidation.
    pub invalidated_blocks: u64,
    /// Decoded points currently resident.
    pub resident_points: u64,
    /// Blocks currently resident.
    pub resident_blocks: u64,
}

impl CacheStats {
    /// Hit rate over `[0, 1]` (0 before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        crate::metrics::hit_rate(self.hits, self.misses)
    }
}

/// One resident block.
struct Entry {
    points: Arc<Vec<DataPoint>>,
    /// The CLOCK reference bit: set on insertion and on every hit, cleared
    /// by a passing sweep hand; an unreferenced entry the hand reaches is
    /// evicted.
    referenced: bool,
}

/// One independent cache shard: entries plus the CLOCK ring and hand.
#[derive(Default)]
struct Shard {
    entries: HashMap<BlockKey, Entry>,
    /// Keys in sweep order. Removal is `swap_remove` (CLOCK is an
    /// approximation; O(1) maintenance beats exact ordering here), and
    /// invalidated keys are dropped lazily when the hand reaches them.
    ring: Vec<BlockKey>,
    /// The CLOCK hand: the next ring slot the sweep examines. This is the
    /// module's only notion of time — a logical tick per examined slot.
    hand: usize,
    /// Decoded points resident in this shard.
    points: usize,
}

impl Shard {
    /// Sweeps the CLOCK hand until the shard fits `capacity`, never
    /// evicting `keep` (the entry just inserted). An oversized entry is
    /// admitted alone: once `keep` is the only resident block the sweep
    /// stops even above capacity.
    fn evict_to_fit(
        &mut self,
        capacity: usize,
        keep: BlockKey,
    ) -> Vec<EvictedBlock> {
        let mut evicted = Vec::new();
        while self.points > capacity && self.entries.len() > 1 {
            if self.ring.is_empty() {
                break;
            }
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let Some(&key) = self.ring.get(self.hand) else {
                break;
            };
            if key == keep {
                self.hand += 1;
                continue;
            }
            match self.entries.get_mut(&key) {
                None => {
                    // Stale ring slot left by an invalidation.
                    self.ring.swap_remove(self.hand);
                }
                Some(entry) if entry.referenced => {
                    entry.referenced = false;
                    self.hand += 1;
                }
                Some(_) => {
                    if let Some(entry) = self.entries.remove(&key) {
                        let n = entry.points.len();
                        self.points = self.points.saturating_sub(n);
                        evicted.push(EvictedBlock {
                            key,
                            points: n as u64,
                        });
                    }
                    self.ring.swap_remove(self.hand);
                }
            }
        }
        evicted
    }
}

/// The sharded decoded-block cache. See the module docs for the design;
/// shared as an `Arc` between engines (a fleet shares one cache through
/// its shared store).
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard point budget (capacity / shards, at least 1).
    shard_capacity: usize,
    /// Parsed table indexes, keyed by table. Bounded by the number of
    /// live tables: invalidation removes a table's index with its blocks.
    indexes: Mutex<HashMap<SsTableId, Arc<TableIndex>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidated: AtomicU64,
}

impl BlockCache {
    /// A cache holding up to `points` decoded points, split evenly across
    /// its shards.
    pub fn with_capacity(points: usize) -> Arc<Self> {
        Self::sharded(points, SHARDS)
    }

    /// A cache of `points` decoded points over `shards` shards (at least
    /// one), each holding `points / shards` (at least one).
    fn sharded(points: usize, shards: usize) -> Arc<Self> {
        let shards = shards.max(1);
        Arc::new(Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: (points / shards).max(1),
            indexes: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        })
    }

    /// The shard responsible for `table` (all of a table's blocks live in
    /// one shard, so invalidation locks exactly one).
    fn shard_for(&self, table: SsTableId) -> &Mutex<Shard> {
        let mixed = table.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let i = (mixed % self.shards.len() as u64) as usize;
        // The modulo keeps `i` in range; fall back to the first shard to
        // stay panic-free regardless.
        self.shards.get(i).unwrap_or(&self.shards[0])
    }

    /// Looks `key` up, setting its reference bit on a hit. Counts the
    /// lookup either way.
    pub fn lookup(&self, key: BlockKey) -> Option<Arc<Vec<DataPoint>>> {
        let mut shard = self.shard_for(key.table).lock();
        match shard.entries.get_mut(&key) {
            Some(entry) => {
                entry.referenced = true;
                let points = Arc::clone(&entry.points);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(points)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly decoded block, evicting as needed to stay within
    /// the shard's capacity. Returns the evicted blocks so the caller can
    /// report them. Re-inserting an existing key refreshes its contents.
    pub fn insert(
        &self,
        key: BlockKey,
        points: Arc<Vec<DataPoint>>,
    ) -> Vec<EvictedBlock> {
        let n = points.len();
        let mut shard = self.shard_for(key.table).lock();
        match shard.entries.insert(
            key,
            Entry {
                points,
                referenced: true,
            },
        ) {
            Some(old) => {
                shard.points = shard.points.saturating_sub(old.points.len());
            }
            None => shard.ring.push(key),
        }
        shard.points += n;
        let evicted = shard.evict_to_fit(self.shard_capacity, key);
        drop(shard);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted
    }

    /// The cached parsed index of `table`, if any.
    pub fn lookup_index(&self, table: SsTableId) -> Option<Arc<TableIndex>> {
        self.indexes.lock().get(&table).map(Arc::clone)
    }

    /// Caches the parsed index of `table`.
    pub fn insert_index(&self, table: SsTableId, index: Arc<TableIndex>) {
        self.indexes.lock().insert(table, index);
    }

    /// Removes `table`'s index and every cached block — the strict
    /// invalidation rule: called when a table leaves its engine's version
    /// (retired by a compaction, even while it waits on disk for the next
    /// horizon) and again before it leaves the store (deleted or
    /// quarantined), so its blocks can never serve a later read. Returns
    /// how many blocks were dropped.
    pub fn invalidate_table(&self, table: SsTableId) -> u64 {
        self.indexes.lock().remove(&table);
        let mut shard = self.shard_for(table).lock();
        let victims: Vec<BlockKey> = shard
            .entries
            .keys()
            .filter(|k| k.table == table)
            .copied()
            .collect();
        let mut dropped = 0u64;
        for key in victims {
            if let Some(entry) = shard.entries.remove(&key) {
                shard.points = shard.points.saturating_sub(entry.points.len());
                dropped += 1;
            }
        }
        // Stale ring slots are swept lazily by `evict_to_fit`.
        drop(shard);
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Decoded points currently resident across all shards.
    pub fn resident_points(&self) -> usize {
        self.shards.iter().map(|s| s.lock().points).sum()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut resident_points = 0u64;
        let mut resident_blocks = 0u64;
        for shard in &self.shards {
            let s = shard.lock();
            resident_points += s.points as u64;
            resident_blocks += s.entries.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated_blocks: self.invalidated.load(Ordering::Relaxed),
            resident_points,
            resident_blocks,
        }
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, base: i64) -> Arc<Vec<DataPoint>> {
        Arc::new(
            (0..n)
                .map(|i| DataPoint::new(base + i as i64, base + i as i64, 0.0))
                .collect(),
        )
    }

    fn key(table: u64, block: u32) -> BlockKey {
        BlockKey {
            table: SsTableId(table),
            block,
        }
    }

    #[test]
    fn lookup_miss_then_hit_counts_both() {
        let cache = BlockCache::with_capacity(1024);
        assert!(cache.lookup(key(1, 0)).is_none());
        cache.insert(key(1, 0), block(8, 0));
        let got = cache.lookup(key(1, 0)).expect("hit");
        assert_eq!(got.len(), 8);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident_blocks, 1);
        assert_eq!(stats.resident_points, 8);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_enforced_by_eviction() {
        // One shard, 100 points: the fourth 30-point block must evict.
        let cache = BlockCache::sharded(100, 1);
        for b in 0..4u32 {
            cache.insert(key(7, b), block(30, i64::from(b) * 100));
        }
        let stats = cache.stats();
        assert!(
            stats.resident_points <= 100,
            "resident {} exceeds capacity",
            stats.resident_points
        );
        assert!(stats.evictions >= 1);
        assert!(cache.resident_points() <= 100);
    }

    #[test]
    fn clock_prefers_evicting_unreferenced_blocks() {
        let cache = BlockCache::sharded(90, 1);
        cache.insert(key(1, 0), block(30, 0));
        cache.insert(key(1, 1), block(30, 100));
        cache.insert(key(1, 2), block(30, 200));
        // Touch blocks 1 and 2; block 0's ref bit stays cleared after one
        // full sweep, so the next insertion evicts block 0 first.
        cache.lookup(key(1, 1));
        cache.lookup(key(1, 2));
        // Force a sweep that clears all bits, then re-reference 1 and 2.
        let evicted = cache.insert(key(1, 3), block(30, 300));
        assert!(!evicted.is_empty());
        cache.lookup(key(1, 1));
        cache.lookup(key(1, 2));
        assert!(
            cache.lookup(key(1, 1)).is_some()
                || cache.lookup(key(1, 2)).is_some(),
            "recently referenced blocks should tend to survive"
        );
    }

    #[test]
    fn oversized_block_is_admitted_alone() {
        let cache = BlockCache::sharded(10, 1);
        cache.insert(key(1, 0), block(4, 0));
        let evicted = cache.insert(key(1, 1), block(50, 100));
        // Everything else was evicted, but the oversized block is resident.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(1, 0));
        assert!(cache.lookup(key(1, 1)).is_some());
        assert_eq!(cache.stats().resident_blocks, 1);
    }

    #[test]
    fn plain_clock_spares_referenced_blocks_and_sweeps_stale_slots() {
        // One shard of three 30-point blocks, each block its own table.
        let cache = BlockCache::sharded(90, 1);
        let keys = |evicted: Vec<EvictedBlock>| -> Vec<BlockKey> {
            evicted.into_iter().map(|e| e.key).collect()
        };
        for t in 1..=3 {
            assert!(cache.insert(key(t, 0), block(30, 0)).is_empty());
        }
        // Every block enters referenced: the hand clears all three bits
        // on its first pass, then evicts in ring order.
        assert_eq!(keys(cache.insert(key(4, 0), block(30, 0))), [key(1, 0)]);
        // A referenced block survives the hand passing it once; the
        // unreferenced one behind it leaves.
        assert!(cache.lookup(key(2, 0)).is_some());
        assert_eq!(keys(cache.insert(key(5, 0), block(30, 0))), [key(3, 0)]);
        assert!(cache.lookup(key(2, 0)).is_some());
        // An invalidation leaves its ring slot behind; the next sweep that
        // reaches it drops it without counting an eviction.
        assert_eq!(cache.invalidate_table(SsTableId(4)), 1);
        assert_eq!(cache.shards[0].lock().ring.len(), 3);
        assert!(cache.insert(key(6, 0), block(30, 0)).is_empty());
        assert_eq!(cache.shards[0].lock().ring.len(), 4);
        assert_eq!(keys(cache.insert(key(7, 0), block(30, 0))), [key(5, 0)]);
        let shard = cache.shards[0].lock();
        assert_eq!(shard.ring.len(), shard.entries.len());
        assert!(!shard.ring.contains(&key(4, 0)));
        drop(shard);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn invalidate_table_removes_blocks_and_index() {
        let cache = BlockCache::with_capacity(1024);
        cache.insert(key(3, 0), block(8, 0));
        cache.insert(key(3, 1), block(8, 100));
        cache.insert(key(4, 0), block(8, 200));
        let dropped = cache.invalidate_table(SsTableId(3));
        assert_eq!(dropped, 2);
        assert!(cache.lookup(key(3, 0)).is_none());
        assert!(cache.lookup(key(3, 1)).is_none());
        assert!(cache.lookup(key(4, 0)).is_some());
        assert_eq!(cache.stats().invalidated_blocks, 2);
        // Idempotent.
        assert_eq!(cache.invalidate_table(SsTableId(3)), 0);
    }

    #[test]
    fn index_cache_round_trips_and_invalidates() {
        use crate::sstable::format::{
            encode_with, read_table_index, EncodeOptions,
        };
        let pts: Vec<DataPoint> =
            (0..64).map(|i| DataPoint::new(i, i, 0.0)).collect();
        let bytes =
            encode_with(&pts, &EncodeOptions::default()).expect("encode");
        let index = Arc::new(read_table_index(&bytes).expect("index"));
        let cache = BlockCache::with_capacity(1024);
        assert!(cache.lookup_index(SsTableId(9)).is_none());
        cache.insert_index(SsTableId(9), Arc::clone(&index));
        assert_eq!(cache.lookup_index(SsTableId(9)), Some(index));
        cache.invalidate_table(SsTableId(9));
        assert!(cache.lookup_index(SsTableId(9)).is_none());
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = BlockCache::sharded(100, 1);
        cache.insert(key(1, 0), block(40, 0));
        cache.insert(key(1, 0), block(20, 0));
        assert_eq!(cache.stats().resident_points, 20);
        assert_eq!(cache.stats().resident_blocks, 1);
    }
}
