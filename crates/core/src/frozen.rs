//! The frozen, read-only BFH query kernel.
//!
//! After a build (or snapshot load) finishes, the hash stops changing: the
//! serve daemon answers thousands of queries per snapshot generation, and
//! the offline CLI answers a whole query file against one build. A
//! general-purpose hashbrown map pays for its mutability on every one of
//! those probes — SipHash-free but still rehashing the full mask per
//! lookup, chasing a boxed key allocation per hit, with no locality across
//! the ~`n` probes a query tree issues. [`FrozenBfh`] freezes the map into
//! a **group-structured** open-addressing table tuned for the probe loop:
//!
//! * a **control-byte lane** (`u8` per slot, plus a 16-byte wrap mirror):
//!   [`CTRL_EMPTY`] for empty slots, the 7-bit [`ctrl_h2`] hash tag for
//!   full ones. Probing scans it [`GROUP_SLOTS`] (16) tags per step with
//!   one vector compare — SSE2 on x86-64, NEON on aarch64, an exact SWAR
//!   fallback everywhere else (see [`phylo_bitset::group`]);
//! * a parallel **entry lane** of 16-byte [`Entry`] records — the 64-bit
//!   key word (for one-word namespaces the key *is* the mask, so a key
//!   match is exact and the pool is never touched; for wider namespaces it
//!   is the [`hash_tag`] lane), the `u32` frequency, and the `u32` rank
//!   into the pool — one cache line per four slots instead of three
//!   separate tag/freq/offset lanes;
//! * one **packed word pool** holding every distinct mask contiguously at
//!   stride `words_for(n_taxa)` — a confirmed multi-word probe is one
//!   pooled `memcmp`, never a pointer chase into a per-key allocation.
//!
//! A typical multi-word hit now touches three cache lines (control group,
//! entry, pool) where the PR 4 layout touched four (tag, freq, offset,
//! pool), and a miss usually touches only the control group: the h2 scan
//! rejects all 16 slots and reports an empty in the same load.
//!
//! Probing is batched: [`BipartitionScratch::batch_splits`] extracts a
//! query's canonical masks *and* their 128-bit hashes in one post-order
//! pass, and [`FrozenBfh::frequency_sum_batch`] walks the batch in a
//! pipelined loop that software-prefetches the control group and entry
//! line of split `i + D` while probing split `i`, overlapping the cache
//! misses that dominate on collection-scale tables (hundreds of thousands
//! of distinct splits).
//!
//! The scan engine is fixed at compile time ([`Scan`]). The probe loops
//! stay generic over [`GroupScan`] so the unit tests can race the portable
//! SWAR fallback against [`Scan`] on every host.
//!
//! The table is immutable by construction — freezing a mutated hash means
//! freezing again — and the freeze itself is a single `O(distinct)` pass
//! over [`Bfh::iter`], cheap next to the build that produced it.

use crate::bfh::Bfh;
use crate::{CoreError, RunGuard};
use phylo::{BipartitionScratch, SplitBatch, TaxonSet, Tree};
use phylo_bitset::group::{GroupScan, Scan, CTRL_EMPTY, GROUP_SLOTS};
use phylo_bitset::{ctrl_h2, hash_bucket, hash_tag, split_hash128, words_for, Bits};
use std::ops::Deref;
use std::sync::Arc;

/// Keeps a memory mapping alive for as long as any [`Lane`] points into
/// it. The index crate's mmap wrapper implements this; dropping the last
/// `Arc<dyn MapGuard>` unmaps the region.
pub trait MapGuard: std::fmt::Debug + Send + Sync + 'static {}

/// One lane of the frozen table: either heap-owned (the `freeze()` and
/// read-and-materialize paths) or borrowed zero-copy from a live memory
/// mapping (the snapshot sidecar open path). Reads go through `Deref`,
/// so the probe loops are storage-agnostic and identical machine code.
enum Lane<T> {
    Owned(Box<[T]>),
    Mapped {
        ptr: *const T,
        len: usize,
        /// Keeps the mapping alive; never read, only dropped.
        _guard: Arc<dyn MapGuard>,
    },
}

// SAFETY: a mapped lane is an immutable view of a read-only mapping whose
// lifetime the guard pins; sharing or sending it is no more than sharing
// the &[T] it derefs to.
unsafe impl<T: Send + Sync> Send for Lane<T> {}
unsafe impl<T: Send + Sync> Sync for Lane<T> {}

impl<T> Deref for Lane<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Lane::Owned(b) => b,
            // SAFETY: constructor contract — ptr/len describe a valid,
            // immutable region outliving `_guard`.
            Lane::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T: Clone> Clone for Lane<T> {
    fn clone(&self) -> Self {
        match self {
            Lane::Owned(b) => Lane::Owned(b.clone()),
            Lane::Mapped { ptr, len, _guard } => Lane::Mapped {
                ptr: *ptr,
                len: *len,
                _guard: Arc::clone(_guard),
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Lane<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Lane::Owned(_) => "owned",
            Lane::Mapped { .. } => "mapped",
        };
        write!(f, "Lane<{kind}; len={}>", self.len())
    }
}

/// The header scalars a serialized frozen table carries; both
/// reconstruction paths take one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenLayout {
    /// Namespace width.
    pub n_taxa: usize,
    /// Reference trees folded in.
    pub n_trees: usize,
    /// Total split occurrences.
    pub sum: u64,
    /// Distinct splits stored.
    pub distinct: usize,
    /// Slot count of the bucket array.
    pub capacity: usize,
}

/// How many splits ahead the batched probe loop prefetches. Re-tuned for
/// the group layout: each probe now pulls two lines (control group +
/// entry) instead of three, so the pipeline runs a little deeper than
/// PR 4's 8 without outpacing the L1 fill buffers (8/12/16 measure
/// within noise of each other on the insect preset; 12 is the middle
/// of that plateau).
const PREFETCH_AHEAD: usize = 12;

/// One slot of the frozen table: the 64-bit key word (mask word when
/// `words == 1`, else the [`hash_tag`] lane), the stored frequency, and
/// the entry rank into the pool (word offset = `offset × words`).
/// 16 bytes, so four slots share a cache line and a confirmed probe reads
/// key and frequency from the same load.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct Entry {
    key: u64,
    freq: u32,
    offset: u32,
}

/// A frozen, probe-optimized snapshot of a [`Bfh`].
///
/// Answers exactly the same `frequency`/`sum`/`n_trees` questions,
/// bitwise-identically, but read-only — and it is what every Algorithm-2
/// score probes ([`crate::FrozenComparator`]).
#[derive(Debug, Clone)]
pub struct FrozenBfh {
    n_taxa: usize,
    words: usize,
    n_trees: usize,
    sum: u64,
    distinct: usize,
    /// `capacity - 1`; capacity is a power of two ≥ 2 × distinct and
    /// ≥ [`GROUP_SLOTS`].
    mask: usize,
    /// Per-slot control byte ([`CTRL_EMPTY`] or `h2`), length
    /// `capacity + GROUP_SLOTS`: the tail mirrors the first group so an
    /// unaligned 16-byte window starting at any slot never wraps.
    ctrl: Lane<u8>,
    /// Per-slot key/frequency/pool-rank record.
    entries: Lane<Entry>,
    /// All distinct masks, packed at stride `words` in insertion order.
    pool: Lane<u64>,
}

/// Issue a best-effort prefetch of the cache line holding `*ptr`.
#[inline(always)]
#[allow(unused_variables)]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; any address is allowed.
    unsafe {
        std::arch::x86_64::_mm_prefetch(ptr as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint with no memory effects; any address is
    // allowed. No stable intrinsic exists, so spell it as asm.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) ptr, options(nostack, readonly));
    }
}

impl FrozenBfh {
    /// Freeze `bfh` into the probe-optimized layout. One pass, no effect on
    /// the source hash.
    pub fn freeze(bfh: &Bfh) -> FrozenBfh {
        let n_taxa = bfh.n_taxa();
        let words = words_for(n_taxa);
        let distinct = bfh.distinct();
        let capacity = capacity_for(distinct);
        let mask = capacity - 1;
        let mut ctrl = vec![CTRL_EMPTY; capacity + GROUP_SLOTS].into_boxed_slice();
        let mut entries = vec![Entry::default(); capacity].into_boxed_slice();
        let mut pool = Vec::with_capacity(distinct * words);
        for (bits, freq) in bfh.iter() {
            debug_assert!(freq >= 1, "stored frequencies are tree counts");
            let w = bits.words();
            let h = split_hash128(w);
            let mut i = hash_bucket(h) as usize & mask;
            while ctrl[i] != CTRL_EMPTY {
                i = (i + 1) & mask;
            }
            ctrl[i] = ctrl_h2(h);
            entries[i] = Entry {
                key: if words == 1 { w[0] } else { hash_tag(h) },
                freq,
                offset: (pool.len() / words.max(1)) as u32,
            };
            pool.extend_from_slice(w);
        }
        // Mirror the first group past the end so every 16-byte window
        // starting at a slot index is contiguous.
        let (head, tail) = ctrl.split_at_mut(capacity);
        tail.copy_from_slice(&head[..GROUP_SLOTS]);
        FrozenBfh {
            n_taxa,
            words,
            n_trees: bfh.n_trees(),
            sum: bfh.sum(),
            distinct,
            mask,
            ctrl: Lane::Owned(ctrl),
            entries: Lane::Owned(entries),
            pool: Lane::Owned(pool.into_boxed_slice()),
        }
    }

    /// Words per pooled mask (`words_for(n_taxa)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The header scalars a serializer must persist to reconstruct this
    /// table.
    pub fn layout(&self) -> FrozenLayout {
        FrozenLayout {
            n_taxa: self.n_taxa,
            n_trees: self.n_trees,
            sum: self.sum,
            distinct: self.distinct,
            capacity: self.capacity(),
        }
    }

    /// The control lane, mirror group included — exactly the bytes a
    /// serializer should write.
    pub fn ctrl_lane(&self) -> &[u8] {
        &self.ctrl
    }

    /// The packed mask pool in layout order.
    pub fn pool_lane(&self) -> &[u64] {
        &self.pool
    }

    /// The entry lane as 16-byte little-endian records
    /// (`key u64 · freq u32 · offset u32`) — the exact on-disk form, and
    /// on little-endian hosts the exact in-memory form too.
    pub fn entry_records(&self) -> impl Iterator<Item = [u8; 16]> + '_ {
        self.entries.iter().map(|e| {
            let mut rec = [0u8; 16];
            rec[0..8].copy_from_slice(&e.key.to_le_bytes());
            rec[8..12].copy_from_slice(&e.freq.to_le_bytes());
            rec[12..16].copy_from_slice(&e.offset.to_le_bytes());
            rec
        })
    }

    /// Rebuild a frozen table from serialized lanes, copying into owned
    /// storage and converting entry records from little-endian — the
    /// endian-safe fallback open path. Rejects any layout the probe loops
    /// could not walk safely.
    pub fn from_le_parts(
        layout: FrozenLayout,
        ctrl: Vec<u8>,
        entry_bytes: &[u8],
        pool: Vec<u64>,
    ) -> Result<FrozenBfh, String> {
        if entry_bytes.len() != layout.capacity * std::mem::size_of::<Entry>() {
            return Err(format!(
                "entry lane holds {} bytes, layout needs {}",
                entry_bytes.len(),
                layout.capacity * std::mem::size_of::<Entry>()
            ));
        }
        let entries: Box<[Entry]> = entry_bytes
            .chunks_exact(std::mem::size_of::<Entry>())
            .map(|rec| Entry {
                key: u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
                freq: u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")),
                offset: u32::from_le_bytes(rec[12..16].try_into().expect("4 bytes")),
            })
            .collect();
        let frozen = FrozenBfh {
            n_taxa: layout.n_taxa,
            words: words_for(layout.n_taxa),
            n_trees: layout.n_trees,
            sum: layout.sum,
            distinct: layout.distinct,
            mask: layout.capacity.wrapping_sub(1),
            ctrl: Lane::Owned(ctrl.into_boxed_slice()),
            entries: Lane::Owned(entries),
            pool: Lane::Owned(pool.into_boxed_slice()),
        };
        frozen.validate_layout()?;
        Ok(frozen)
    }

    /// Rebuild a frozen table zero-copy over lanes inside a live memory
    /// mapping. Little-endian hosts only: the mapped bytes are
    /// reinterpreted in place (big-endian builds take the
    /// [`Self::from_le_parts`] copy path, which converts).
    ///
    /// Lane lengths are dictated by `layout`: ctrl is
    /// `capacity + GROUP_SLOTS` bytes, entries `capacity` 16-byte records,
    /// pool `distinct × words_for(n_taxa)` words.
    ///
    /// # Safety
    /// The three pointers must stay valid and unwritten for the guard's
    /// whole lifetime, and each must cover its full layout-derived length.
    ///
    /// # Errors
    /// Misaligned pointers and layouts the probe loops could not walk
    /// safely (bad lane lengths, non-power-of-two capacity, out-of-range
    /// pool ranks, a broken mirror group) are rejected, so a corrupt or
    /// adversarial snapshot cannot cause out-of-bounds reads.
    #[cfg(target_endian = "little")]
    pub unsafe fn from_mapped_le(
        layout: FrozenLayout,
        ctrl: *const u8,
        entries: *const u8,
        pool: *const u8,
        guard: Arc<dyn MapGuard>,
    ) -> Result<FrozenBfh, String> {
        if entries.align_offset(std::mem::align_of::<Entry>()) != 0 {
            return Err("entry lane pointer is misaligned".into());
        }
        if pool.align_offset(std::mem::align_of::<u64>()) != 0 {
            return Err("pool lane pointer is misaligned".into());
        }
        let words = words_for(layout.n_taxa);
        let frozen = FrozenBfh {
            n_taxa: layout.n_taxa,
            words,
            n_trees: layout.n_trees,
            sum: layout.sum,
            distinct: layout.distinct,
            mask: layout.capacity.wrapping_sub(1),
            ctrl: Lane::Mapped {
                ptr: ctrl,
                len: layout.capacity + GROUP_SLOTS,
                _guard: Arc::clone(&guard),
            },
            entries: Lane::Mapped {
                ptr: entries as *const Entry,
                len: layout.capacity,
                _guard: Arc::clone(&guard),
            },
            pool: Lane::Mapped {
                ptr: pool as *const u64,
                len: layout.distinct * words,
                _guard: guard,
            },
        };
        frozen.validate_layout()?;
        Ok(frozen)
    }

    /// Whether this table borrows a memory mapping (vs owning its lanes).
    pub fn is_mapped(&self) -> bool {
        matches!(self.ctrl, Lane::Mapped { .. })
    }

    /// Every invariant the probe loops rely on for memory safety. An
    /// `O(capacity)` pass over ctrl + entries — deliberately *not* over
    /// the pool, which is the lane whose lazy paging makes the mmap open
    /// fast; probe reads into it are covered by the rank bound checked
    /// here.
    fn validate_layout(&self) -> Result<(), String> {
        let capacity = self.mask.wrapping_add(1);
        if !capacity.is_power_of_two() || capacity < GROUP_SLOTS {
            return Err(format!(
                "capacity {capacity} is not a power of two ≥ {GROUP_SLOTS}"
            ));
        }
        if capacity < 2 * self.distinct {
            // Also guarantees an empty slot exists, which is what
            // terminates an absent-key probe.
            return Err(format!(
                "capacity {capacity} under-provisioned for {} distinct splits",
                self.distinct
            ));
        }
        if self.ctrl.len() != capacity + GROUP_SLOTS {
            return Err(format!(
                "ctrl lane holds {} bytes, capacity {capacity} needs {}",
                self.ctrl.len(),
                capacity + GROUP_SLOTS
            ));
        }
        if self.entries.len() != capacity {
            return Err(format!(
                "entry lane holds {} slots, capacity is {capacity}",
                self.entries.len()
            ));
        }
        if self.pool.len() != self.distinct * self.words {
            return Err(format!(
                "pool holds {} words, {} distinct × {} words need {}",
                self.pool.len(),
                self.distinct,
                self.words,
                self.distinct * self.words
            ));
        }
        if self.ctrl[capacity..] != self.ctrl[..GROUP_SLOTS] {
            return Err("ctrl mirror group does not match the first group".into());
        }
        let mut full = 0usize;
        for i in 0..capacity {
            if self.ctrl[i] != CTRL_EMPTY {
                full += 1;
                let rank = self.entries[i].offset as usize;
                if rank >= self.distinct {
                    return Err(format!(
                        "slot {i} pool rank {rank} out of range ({} distinct)",
                        self.distinct
                    ));
                }
            }
        }
        if full != self.distinct {
            return Err(format!(
                "{full} occupied slots disagree with {} distinct splits",
                self.distinct
            ));
        }
        Ok(())
    }

    /// Number of taxa in the namespace.
    #[inline]
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Number of reference trees folded in (`r`).
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Total split occurrences (`sumBFHR`).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of distinct splits stored.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Slot count of the bucket array.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Heap bytes [`Self::freeze`] allocates for `distinct` splits over an
    /// `n_taxa`-wide namespace: [`Self::approx_bytes`] of the table it
    /// would build, known before anything is allocated.
    pub fn bytes_for(n_taxa: usize, distinct: usize) -> usize {
        let capacity = capacity_for(distinct);
        (capacity + GROUP_SLOTS) * std::mem::size_of::<u8>()
            + capacity * std::mem::size_of::<Entry>()
            + distinct * words_for(n_taxa) * std::mem::size_of::<u64>()
    }

    /// Heap bytes of the frozen layout: the control lane (including its
    /// wrap-mirror group), the 16-byte entry lane, and the packed mask
    /// pool. Pinned against the real allocation sizes by test, because the
    /// catalog LRU accounts resident collections in exactly these bytes.
    pub fn approx_bytes(&self) -> usize {
        self.ctrl.len() * std::mem::size_of::<u8>()
            + self.entries.len() * std::mem::size_of::<Entry>()
            + self.pool.len() * std::mem::size_of::<u64>()
    }

    /// FNV-1a fingerprint over every lane in layout order. Two frozen
    /// tables built from the same hash are laid out identically, so equal
    /// digests here mean bitwise-identical tables — the cheap way for the
    /// catalog eviction tests to prove a reopened collection reproduces
    /// the exact pre-eviction state.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(&(self.n_taxa as u64).to_le_bytes());
        mix(&(self.n_trees as u64).to_le_bytes());
        mix(&self.sum.to_le_bytes());
        mix(&(self.distinct as u64).to_le_bytes());
        mix(&(self.mask as u64).to_le_bytes());
        mix(&self.ctrl[..self.capacity()]);
        for e in self.entries.iter() {
            mix(&e.key.to_le_bytes());
            mix(&e.freq.to_le_bytes());
            mix(&e.offset.to_le_bytes());
        }
        for &w in self.pool.iter() {
            mix(&w.to_le_bytes());
        }
        h
    }

    /// The monomorphized probe loop: scan the control lane one 16-slot
    /// group at a time from the hash's home slot, confirm candidates
    /// against the entry key (and the pool for multi-word masks), stop at
    /// the first group holding an empty slot.
    ///
    /// Correctness with unaligned windows: linear-probe insertion leaves
    /// every slot between a key's home and its final slot full, so the
    /// windows `[home + 16k, home + 16k + 16)` meet the key's candidate
    /// bit no later than the first window containing an empty. Candidates
    /// belonging to other chains inside a window are rejected by the key
    /// compare; h2 never equals [`CTRL_EMPTY`], so candidates are always
    /// full slots.
    ///
    /// Forced inline: this is the body of every batched probe loop, and
    /// the compiler's own choice has flipped to an out-of-line call per
    /// probe when unrelated callers came and went.
    #[inline(always)]
    fn frequency_hashed_impl<G: GroupScan>(&self, h: u128, w: &[u64]) -> u32 {
        if self.distinct == 0 {
            return 0;
        }
        let h2 = ctrl_h2(h);
        let mut i = hash_bucket(h) as usize & self.mask;
        if self.words == 1 {
            // One-word namespace: the key is the mask, equality is exact.
            let t = w[0];
            loop {
                let g = &self.ctrl[i..i + GROUP_SLOTS];
                let mut m = G::match_byte(g, h2);
                while m != 0 {
                    let s = (i + m.trailing_zeros() as usize) & self.mask;
                    let e = &self.entries[s];
                    if e.key == t {
                        return e.freq;
                    }
                    m &= m - 1;
                }
                if G::match_empty(g) != 0 {
                    return 0;
                }
                i = (i + GROUP_SLOTS) & self.mask;
            }
        }
        let t = hash_tag(h);
        loop {
            let g = &self.ctrl[i..i + GROUP_SLOTS];
            let mut m = G::match_byte(g, h2);
            while m != 0 {
                let s = (i + m.trailing_zeros() as usize) & self.mask;
                let e = &self.entries[s];
                if e.key == t {
                    let off = e.offset as usize * self.words;
                    if &self.pool[off..off + self.words] == w {
                        return e.freq;
                    }
                }
                m &= m - 1;
            }
            if G::match_empty(g) != 0 {
                return 0;
            }
            i = (i + GROUP_SLOTS) & self.mask;
        }
    }

    /// Frequency of the canonical mask `w` whose split hash is already
    /// known (the batched path computes it during extraction).
    #[inline]
    pub fn frequency_hashed(&self, h: u128, w: &[u64]) -> u32 {
        self.frequency_hashed_impl::<Scan>(h, w)
    }

    /// Frequency of a canonical mask given as raw words (hash computed
    /// here; prefer the batched path for whole query trees).
    #[inline]
    pub fn frequency_words(&self, w: &[u64]) -> u32 {
        self.frequency_hashed(split_hash128(w), w)
    }

    /// Frequency of a canonical split (0 if absent).
    #[inline]
    pub fn frequency(&self, bits: &Bits) -> u32 {
        debug_assert_eq!(bits.len(), self.n_taxa, "namespace width mismatch");
        self.frequency_words(bits.words())
    }

    /// Prefetch the lines a hash's probe will touch first: its control
    /// group and its home entry.
    #[inline(always)]
    fn prefetch_bucket(&self, h: u128) {
        let i = hash_bucket(h) as usize & self.mask;
        prefetch(&raw const self.ctrl[i]);
        prefetch(&raw const self.entries[i]);
    }

    /// Σ frequency over a whole extracted batch — the quantity Algorithm 2
    /// needs — in one pipelined pass with software prefetch
    /// [`PREFETCH_AHEAD`] splits ahead.
    #[inline]
    pub fn frequency_sum_batch(&self, batch: &SplitBatch<'_>) -> u64 {
        self.sum_batch_impl::<Scan>(batch)
    }

    fn sum_batch_impl<G: GroupScan>(&self, batch: &SplitBatch<'_>) -> u64 {
        if self.distinct == 0 {
            return 0;
        }
        let n = batch.len();
        let hashes = batch.hashes();
        for &h in hashes.iter().take(PREFETCH_AHEAD.min(n)) {
            self.prefetch_bucket(h);
        }
        let mut total = 0u64;
        for i in 0..n {
            if let Some(&h) = hashes.get(i + PREFETCH_AHEAD) {
                self.prefetch_bucket(h);
            }
            total += u64::from(self.frequency_hashed_impl::<G>(hashes[i], batch.mask(i)));
        }
        total
    }

    /// Average RF of one query tree against the frozen hash through a
    /// caller-owned extraction arena: [`BipartitionScratch::batch_splits`]
    /// then [`Self::average_batch`].
    ///
    /// # Panics
    /// Panics if the frozen hash holds no trees (average undefined).
    pub fn average_scratch(
        &self,
        query: &Tree,
        taxa: &TaxonSet,
        scratch: &mut BipartitionScratch,
    ) -> crate::RfAverage {
        self.average_batch(&scratch.batch_splits(query, taxa))
    }

    /// Average RF of one query, given its extracted split batch — the
    /// batched Algorithm 2: one pipelined loop probes the batch's hashes.
    /// The batch may come from any extraction driver (a `Tree`, Newick
    /// text, a phylo-wire record).
    ///
    /// # Panics
    /// Panics if the frozen hash holds no trees (average undefined).
    pub fn average_batch(&self, batch: &SplitBatch<'_>) -> crate::RfAverage {
        assert!(
            self.n_trees > 0,
            "average RF over an empty reference collection"
        );
        let r = self.n_trees as u64;
        let q_splits = batch.len() as u64;
        let freq_sum = self.frequency_sum_batch(batch);
        crate::RfAverage {
            left: self.sum - freq_sum,
            right: q_splits * r - freq_sum,
            n_refs: self.n_trees,
        }
    }
}

/// Slot count for `distinct` splits: load factor ≤ 0.5 keeps probe chains
/// short; minimum one full group so the windowed scan is always in bounds.
fn capacity_for(distinct: usize) -> usize {
    (distinct * 2).max(GROUP_SLOTS).next_power_of_two()
}

impl Bfh {
    /// Freeze this hash into the probe-optimized read-only layout. See
    /// [`FrozenBfh`].
    pub fn freeze(&self) -> FrozenBfh {
        FrozenBfh::freeze(self)
    }

    /// [`Bfh::freeze`] under the guard's byte budget: the table's size
    /// ([`FrozenBfh::bytes_for`]) is checked before any lane is allocated,
    /// so an over-budget freeze is a typed [`CoreError::ResourceLimit`],
    /// not an allocation past the ceiling.
    pub fn try_freeze(&self, guard: &RunGuard) -> Result<FrozenBfh, CoreError> {
        guard.check_alloc(
            "frozen BFH table",
            FrozenBfh::bytes_for(self.n_taxa(), self.distinct()),
        )?;
        Ok(self.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comparator, DayComparator};
    use phylo::TreeCollection;
    use phylo_bitset::group::ScalarScan;

    fn build(text: &str) -> (TreeCollection, Bfh, FrozenBfh) {
        let coll = TreeCollection::parse(text).unwrap();
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let frozen = bfh.freeze();
        (coll, bfh, frozen)
    }

    #[test]
    fn frozen_answers_equal_live_on_every_stored_split() {
        let (_, bfh, frozen) = build(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,D),(E,F)));",
        );
        assert_eq!(frozen.n_trees(), bfh.n_trees());
        assert_eq!(frozen.sum(), bfh.sum());
        assert_eq!(frozen.distinct(), bfh.distinct());
        for (bits, count) in bfh.iter() {
            assert_eq!(frozen.frequency(bits), count, "{bits}");
            assert_eq!(frozen.frequency_words(bits.words()), count);
        }
    }

    /// Race the portable SWAR scan against the compiled-in [`Scan`] over
    /// one table: both must return the live count on every stored split,
    /// and the live sum on every query batch (stored and absent splits
    /// mixed). On hosts where [`Scan`] is the scalar engine this still
    /// pins both loops to the live map.
    fn assert_engines_agree(bfh: &Bfh, frozen: &FrozenBfh, queries: &[Tree], taxa: &TaxonSet) {
        for (bits, count) in bfh.iter() {
            let w = bits.words();
            let h = split_hash128(w);
            assert_eq!(frozen.frequency_hashed_impl::<ScalarScan>(h, w), count);
            assert_eq!(frozen.frequency_hashed_impl::<Scan>(h, w), count);
        }
        let mut scratch = BipartitionScratch::new();
        for q in queries {
            let batch = scratch.batch_splits(q, taxa);
            let live: u64 = (0..batch.len())
                .map(|i| u64::from(bfh.frequency_words(batch.mask(i))))
                .sum();
            assert_eq!(frozen.sum_batch_impl::<ScalarScan>(&batch), live);
            assert_eq!(frozen.sum_batch_impl::<Scan>(&batch), live);
        }
    }

    #[test]
    fn scalar_and_simd_probes_agree_on_hits_and_misses() {
        let (coll, bfh, frozen) =
            build("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));");
        assert_engines_agree(&bfh, &frozen, &coll.trees, &coll.taxa);
        let absent = Bits::from_indices(coll.taxa.len(), [0, 3]);
        let h = split_hash128(absent.words());
        assert_eq!(
            frozen.frequency_hashed_impl::<ScalarScan>(h, absent.words()),
            frozen.frequency_hashed_impl::<Scan>(h, absent.words()),
        );
    }

    #[test]
    fn scan_engines_agree_at_word_seams_min_capacity_and_after_removal() {
        // n on both sides of every word seam the pool stride and the
        // tag-is-key fast path care about. `r = 2` keeps tables at minimum
        // capacity (one control group); removing trees first freezes a
        // hash that has pruned zero-frequency entries. Queries come from a
        // second collection over the same namespace, so batches mix
        // stored and absent splits.
        for n in [15usize, 16, 17, 63, 64, 65, 127, 128, 129] {
            for removals in 0..3usize {
                let spec = phylo_sim::DatasetSpec::new("seams", n, 2 + removals, n as u64);
                let refs = phylo_sim::generate(&spec);
                let mut bfh = Bfh::build(&refs.trees, &refs.taxa);
                for t in refs.trees.iter().take(removals) {
                    bfh.remove_tree(t, &refs.taxa).unwrap();
                }
                let frozen = bfh.freeze();
                assert!(frozen.capacity() >= 2 * frozen.distinct(), "n={n}");
                // Both generators number taxa `t0..t{n-1}` identically.
                let mut trees = phylo_sim::perturb::random_collection(n, 3, n as u64).trees;
                trees.extend_from_slice(&refs.trees);
                assert_engines_agree(&bfh, &frozen, &trees, &refs.taxa);
            }
        }
    }

    #[test]
    fn absent_splits_read_zero() {
        let (coll, _, frozen) = build("((A,B),(C,D));\n((A,B),(C,D));");
        // {A,C} = 0101 is a valid canonical mask the collection never holds
        let absent = Bits::from_indices(coll.taxa.len(), [0, 2]);
        assert_eq!(frozen.frequency(&absent), 0);
    }

    #[test]
    fn empty_hash_freezes_and_reads_zero() {
        let frozen = Bfh::empty(6).freeze();
        assert_eq!(frozen.distinct(), 0);
        assert_eq!(frozen.frequency(&Bits::from_indices(6, [0, 1])), 0);
        assert_eq!(frozen.frequency_sum_batch_smoke(), 0);
    }

    impl FrozenBfh {
        /// Test helper: batch-sum over an empty batch via a trivial tree.
        fn frequency_sum_batch_smoke(&self) -> u64 {
            let mut taxa = phylo::TaxonSet::new();
            let t = phylo::parse_newick("(A,B,C);", &mut taxa, phylo::TaxaPolicy::Grow).unwrap();
            let mut scratch = BipartitionScratch::new();
            let batch = scratch.batch_splits(&t, &taxa);
            self.frequency_sum_batch(&batch)
        }
    }

    #[test]
    fn batched_average_matches_per_split_probes() {
        // Algorithm 2 spelled out split by split over the live counts, and
        // Day's pairwise oracle, against the batched frozen kernel.
        let (coll, bfh, frozen) =
            build("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));");
        let day = DayComparator::new(&coll.trees, &coll.taxa);
        let mut scratch = BipartitionScratch::new();
        for q in &coll.trees {
            let splits = scratch.splits(q, &coll.taxa);
            let freq_sum: u64 = splits.iter().map(|b| u64::from(bfh.frequency(b))).sum();
            let r = bfh.n_trees() as u64;
            let per_split = crate::RfAverage {
                left: bfh.sum() - freq_sum,
                right: splits.len() as u64 * r - freq_sum,
                n_refs: bfh.n_trees(),
            };
            let froz = frozen.average_scratch(q, &coll.taxa, &mut scratch);
            assert_eq!(per_split, froz);
            assert_eq!(day.average(q).unwrap(), froz);
        }
    }

    #[test]
    fn word_boundary_widths_freeze_and_probe_identically() {
        // n_taxa ∈ {63, 64, 65, 128}: the one-word fast path, its exact
        // upper edge, the first two-word width, and an exact two-word
        // width. Frozen must equal live on every stored split, on both
        // scan engines, and score every simulated tree like Day's oracle.
        for n in [63usize, 64, 65, 128] {
            let spec = phylo_sim::DatasetSpec::new("widths", n, 12, n as u64);
            let coll = phylo_sim::generate(&spec);
            let bfh = Bfh::build(&coll.trees, &coll.taxa);
            let frozen = bfh.freeze();
            let mut scratch = BipartitionScratch::new();
            for (bits, count) in bfh.iter() {
                assert_eq!(frozen.frequency(bits), count, "n={n} {bits}");
            }
            assert_engines_agree(&bfh, &frozen, &coll.trees, &coll.taxa);
            let day = DayComparator::new(&coll.trees, &coll.taxa);
            for q in &coll.trees {
                assert_eq!(
                    day.average(q).unwrap(),
                    frozen.average_scratch(q, &coll.taxa, &mut scratch),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn load_factor_stays_at_most_half() {
        let spec = phylo_sim::DatasetSpec::new("load", 80, 40, 7);
        let coll = phylo_sim::generate(&spec);
        let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
        assert!(frozen.capacity() >= 2 * frozen.distinct());
        assert!(frozen.capacity() >= GROUP_SLOTS);
        assert!(frozen.capacity().is_power_of_two());
        assert!(frozen.approx_bytes() > 0);
    }

    #[test]
    fn approx_bytes_matches_actual_allocation_sizes() {
        // The catalog LRU accounts resident collections in approx_bytes;
        // pin it to the real heap footprint of every lane so the control
        // lane (and its wrap mirror) can never silently fall out of the
        // accounting again.
        for (n, r) in [(6usize, 2usize), (80, 40), (144, 30)] {
            let spec = phylo_sim::DatasetSpec::new("bytes", n, r, 11);
            let coll = phylo_sim::generate(&spec);
            let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
            let actual = std::mem::size_of_val(&*frozen.ctrl)
                + std::mem::size_of_val(&*frozen.entries)
                + std::mem::size_of_val(&*frozen.pool);
            assert_eq!(frozen.approx_bytes(), actual, "n={n} r={r}");
            assert_eq!(FrozenBfh::bytes_for(n, frozen.distinct()), actual);
            // Layout invariants the accounting relies on.
            assert_eq!(frozen.ctrl.len(), frozen.capacity() + GROUP_SLOTS);
            assert_eq!(std::mem::size_of::<Entry>(), 16);
            assert_eq!(frozen.entries.len(), frozen.capacity());
            assert_eq!(frozen.pool.len(), frozen.distinct() * frozen.words);
        }
        let empty = Bfh::empty(4).freeze();
        let actual = std::mem::size_of_val(&*empty.ctrl)
            + std::mem::size_of_val(&*empty.entries)
            + std::mem::size_of_val(&*empty.pool);
        assert_eq!(empty.approx_bytes(), actual);
        assert_eq!(FrozenBfh::bytes_for(4, 0), actual);
    }

    #[test]
    fn try_freeze_refuses_tables_over_the_byte_budget() {
        // Uniform trees share few splits, so the frozen table (≥ 2 slots of
        // 17 bytes per distinct split, plus the pool) outgrows the build's
        // spill buffers. A budget between the two must pass the build and
        // refuse the freeze — typed, before allocating.
        let coll = phylo_sim::perturb::random_collection(32, 60, 17);
        let n = coll.taxa.len();
        let spill = coll.len() * (n - 3) * words_for(n) * 8;
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let table = FrozenBfh::bytes_for(n, bfh.distinct());
        assert!(spill < table, "spill {spill} vs table {table}");
        let guard = RunGuard::with_budget(crate::RunBudget::with_max_bytes((spill + table) / 2));
        let built = Bfh::try_build_sharded(&coll.trees, &coll.taxa, 2, &guard).unwrap();
        let err = built.try_freeze(&guard).unwrap_err();
        assert!(matches!(err, CoreError::ResourceLimit(_)), "{err}");
        // At exactly the table's size the freeze goes through, unchanged.
        let guard = RunGuard::with_budget(crate::RunBudget::with_max_bytes(table));
        let frozen = built.try_freeze(&guard).unwrap();
        assert_eq!(frozen.digest(), built.freeze().digest());
        assert_eq!(frozen.approx_bytes(), table);
    }

    #[test]
    fn serialized_lanes_reconstruct_bitwise() {
        let spec = phylo_sim::DatasetSpec::new("lanes", 70, 20, 5);
        let coll = phylo_sim::generate(&spec);
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let frozen = bfh.freeze();
        let entry_bytes: Vec<u8> = frozen.entry_records().flatten().collect();
        let twin = FrozenBfh::from_le_parts(
            frozen.layout(),
            frozen.ctrl_lane().to_vec(),
            &entry_bytes,
            frozen.pool_lane().to_vec(),
        )
        .unwrap();
        assert!(!twin.is_mapped());
        assert_eq!(twin.digest(), frozen.digest());
        let mut scratch = BipartitionScratch::new();
        for (bits, count) in bfh.iter() {
            assert_eq!(twin.frequency(bits), count);
        }
        for q in &coll.trees {
            assert_eq!(
                frozen.average_scratch(q, &coll.taxa, &mut scratch),
                twin.average_scratch(q, &coll.taxa, &mut scratch),
            );
        }
    }

    #[test]
    fn corrupt_lane_layouts_are_rejected_not_probed() {
        let (_, _, frozen) = build("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));");
        let layout = frozen.layout();
        let ctrl = frozen.ctrl_lane().to_vec();
        let entry_bytes: Vec<u8> = frozen.entry_records().flatten().collect();
        let pool = frozen.pool_lane().to_vec();

        // Truncated ctrl lane.
        let short_ctrl = ctrl[..ctrl.len() - 1].to_vec();
        assert!(FrozenBfh::from_le_parts(layout, short_ctrl, &entry_bytes, pool.clone()).is_err());
        // Truncated entry lane.
        assert!(FrozenBfh::from_le_parts(
            layout,
            ctrl.clone(),
            &entry_bytes[..entry_bytes.len() - 16],
            pool.clone()
        )
        .is_err());
        // Truncated pool: a stored rank now points past the end.
        assert!(FrozenBfh::from_le_parts(
            layout,
            ctrl.clone(),
            &entry_bytes,
            pool[..pool.len() - 1].to_vec()
        )
        .is_err());
        // Out-of-range pool rank in an occupied slot.
        let mut bad_entries = entry_bytes.clone();
        let victim = frozen
            .ctrl_lane()
            .iter()
            .take(frozen.capacity())
            .position(|&c| c != CTRL_EMPTY)
            .expect("occupied slot");
        bad_entries[victim * 16 + 12..victim * 16 + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            FrozenBfh::from_le_parts(layout, ctrl.clone(), &bad_entries, pool.clone()).is_err()
        );
        // Broken mirror group.
        let mut bad_ctrl = ctrl.clone();
        let cap = frozen.capacity();
        bad_ctrl[cap] ^= 0x55;
        assert!(FrozenBfh::from_le_parts(layout, bad_ctrl, &entry_bytes, pool.clone()).is_err());
        // Under-provisioned capacity claim.
        let mut bad_layout = layout;
        bad_layout.capacity = GROUP_SLOTS / 2;
        assert!(FrozenBfh::from_le_parts(bad_layout, ctrl, &entry_bytes, pool).is_err());
    }

    #[test]
    fn ctrl_mirror_keeps_wrapping_windows_consistent() {
        let spec = phylo_sim::DatasetSpec::new("mirror", 40, 25, 3);
        let coll = phylo_sim::generate(&spec);
        let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
        let cap = frozen.capacity();
        assert_eq!(&frozen.ctrl[cap..], &frozen.ctrl[..GROUP_SLOTS]);
    }
}
