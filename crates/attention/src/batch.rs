//! Batched KV-cache decode with continuous batching: the serving-path
//! engine.
//!
//! Decode-dominated traffic is the mode a deployed attention accelerator
//! lives in: every step is one query per sequence against that sequence's
//! whole KV history, and the sweep is **KV-bandwidth-bound** at serving
//! batch sizes. This module attacks the bytes and the scheduling
//! together:
//!
//! * [`KvCache`] — a paged, block-allocated cache: fixed-size blocks
//!   carved from one shared arena, appended per sequence (the
//!   vLLM/paged-attention layout), stored **head-major**: each head's
//!   rows form a contiguous `block_rows × head_dim` panel inside the
//!   block, so a (sequence, head) pass reads one pure contiguous K stream
//!   and one V stream — no per-row head-strided gathers. Retired sequences'
//!   blocks return to a **free list** and are recycled by later
//!   admissions, so arena growth is bounded by *live* tokens, not total
//!   traffic history.
//! * [`DecodeBatch`] — a multi-sequence, multi-head decode engine with
//!   **continuous batching** through one admission path:
//!   [`enqueue`](DecodeBatch::enqueue) (or
//!   [`enqueue_shared`](DecodeBatch::enqueue_shared) behind a registered
//!   prefix) stages a prompt, [`prefill_step_for`](DecodeBatch::prefill_step_for)
//!   checks and caches the caller's chosen prompts mid-flight in bounded
//!   chunks (the chunked form of `flash_abft::flash2_with_checksum` —
//!   bit-identical per head, property-tested in `flash-abft`), and
//!   [`take_admitted`](DecodeBatch::take_admitted) collects a finished
//!   prompt; [`step_decode`](DecodeBatch::step_decode)
//!   decodes one token per listed sequence, and
//!   [`retire`](DecodeBatch::retire) frees a finished sequence's blocks
//!   without disturbing its neighbours' checksum state.
//!
//! **One scoring pass.** Every query shape — a decode step, a prefill
//! chunk, a speculative window ([`spec`]) — is scored by the same fused
//! Alg. 3 sweep, `panel_pass` in `batch/pass.rs`: per (sequence, kv
//! head) it walks the retained blocks once, and each block, while
//! cache-hot, feeds every (position, group member) query whose
//! causal/window range reaches into it — online softmax, output lanes
//! **and** the per-query-head checksum lane. A decode step is a
//! 1-position panel at `seq_len − 1` (reading shared-prefix score tiles
//! where several readers share a block); a prefill chunk is one panel per
//! (prompt, kv head); a speculative window is one panel per segment. All
//! `sequences × kv_heads` panels of a call run across the shared rayon
//! pool in a **single fork**.
//!
//! The whole engine is **GQA-native**: head counts arrive as a
//! [`HeadTopology`] (`query_heads` query heads sharing `kv_heads` cached
//! K/V streams; plain multi-head attention is the degenerate
//! `kv_heads == query_heads` point, and
//! [`MultiHeadConfig`](crate::multihead::MultiHeadConfig)/
//! [`GqaConfig`](crate::gqa::GqaConfig) convert implicitly). The cache
//! stores **one K/V stream per kv head**, so grouped models stream
//! `group_size×` fewer bytes per decode step, and each panel's
//! `group_size` query heads share the per-group `sumrow(V)` checksum
//! input for free (per-query-head verdicts stay exact).
//!
//! Each query sees exactly its own rows, in ascending order, with the
//! per-row arithmetic of a one-query sweep. Per-(sequence, query-head)
//! results are therefore identical to
//! [`DecodeSession::step_with_state`](crate::decode::DecodeSession::step_with_state)
//! against that head's group K/V, to `flash_abft::CheckedDecodeSession::step`,
//! and to a one-shot causal [`flash2`](crate::flash2) pass over the same
//! history; cross-head combination runs in a fixed order on the calling
//! thread — so every path is bit-identical to serial per-sequence decode
//! at every thread count, topology, block size, chunk size
//! and admit/retire schedule (property-tested).

use crate::topology::HeadTopology;
use fa_numerics::{KahanSum, BF16};
use fa_tensor::{Matrix, Scalar};
use pass::{HeadState, SharedScratch};
use rayon::prelude::*;

/// Element-format policy for cache blocks — the "mixed-format KV" lever.
///
/// `F64` keeps every block in the engine's native element format (the
/// PR-3 behaviour and the bit-pinned golden path). `Bf16` rounds every
/// appended row to BF16 on the way in, quartering the bytes every decode
/// pass streams. `Mixed` keeps a recent *burst* of blocks native — so
/// chunked prompt admission and fresh-token scoring run on full-precision
/// rows through the f64 dot kernels — and demotes blocks that age out of
/// the burst to BF16 in place (their native storage returns to the free
/// list), so steady-state decode streams BF16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvFormat {
    /// All blocks stay in the native element format.
    F64,
    /// Rows are rounded to BF16 (RNE, via [`round_bf16`]) on append.
    Bf16,
    /// The newest `burst_blocks` **full** blocks (plus the block currently
    /// being filled) stay native; older full blocks are demoted to BF16
    /// when a new block is claimed.
    Mixed {
        /// Full native blocks retained per sequence before demotion.
        burst_blocks: usize,
    },
}

impl KvFormat {
    /// Whether appended rows are stored rounded to BF16 immediately.
    #[inline]
    fn appends_bf16(self) -> bool {
        matches!(self, KvFormat::Bf16)
    }
}

/// Block-retention policy — the "eviction beyond `retire`" lever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Blocks live until the sequence retires (the PR-3 behaviour).
    RetainAll,
    /// Blocks that fall entirely below the sliding attention window
    /// return to the free list mid-sequence, bounding per-sequence cache
    /// memory at `window_blocks + 1` blocks. The effective attention
    /// window is `window_blocks · block_rows` tokens; the engine masks it
    /// through [`crate::AttentionConfig::visible_range`] exactly like a
    /// configured sliding window, so outputs are bit-identical to a
    /// retain-all engine whose head config carries that window.
    SlidingWindow {
        /// Whole blocks retained behind the newest position.
        window_blocks: usize,
    },
}

impl EvictionPolicy {
    /// The eviction window in tokens, if bounded.
    #[inline]
    pub fn window_tokens(self, block_rows: usize) -> Option<usize> {
        match self {
            EvictionPolicy::RetainAll => None,
            EvictionPolicy::SlidingWindow { window_blocks } => Some(window_blocks * block_rows),
        }
    }
}

/// Background-scrub policy: how many retained blocks the engine's
/// round-robin scrub cursor audits per [`DecodeBatch::scrub_step`] call.
///
/// The online checksum lane is blind to residual-coherent (key-side)
/// storage corruption by construction; a full
/// [`audit_all`](DecodeBatch::audit_all) sees it but costs a whole
/// structure walk. The scrubber amortizes that walk: each serving step
/// spends `blocks_per_step` block audits, so **any** storage flip in a
/// retained block is caught within
/// `ceil(live_blocks / blocks_per_step)` scrub steps of landing —
/// a bounded detection latency dial (bandwidth ↔ latency), measured as
/// the `scrub` tradeoff curve in `BENCH_faults.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScrubPolicy {
    /// Retained blocks audited per [`DecodeBatch::scrub_step`] call
    /// (each block is checked across all kv heads, key and value side,
    /// plus its positions' `sumrow` inputs).
    pub blocks_per_step: usize,
}

impl ScrubPolicy {
    /// The cheapest policy whose analytical detection-latency bound
    /// `ceil(live_blocks / blocks_per_step)` meets `slo_steps`: inverting
    /// the bound gives `blocks_per_step = ceil(live_blocks / slo_steps)`
    /// (at least 1 so the cursor always advances). The bound holds by
    /// construction — `ceil(live / ceil(live / slo)) <= slo` for all
    /// positive `live`, `slo` — so a frontend that re-tunes with the
    /// current [`live_blocks`](DecodeBatch::live_blocks) every step keeps
    /// worst-case detection latency inside the SLO at every load point
    /// while never scrubbing more blocks than that requires.
    ///
    /// # Panics
    ///
    /// Panics if `slo_steps` is zero (no finite bandwidth meets it).
    pub fn for_target_latency(slo_steps: usize, live_blocks: usize) -> ScrubPolicy {
        assert!(slo_steps > 0, "detection-latency SLO must be positive");
        ScrubPolicy {
            blocks_per_step: live_blocks.div_ceil(slo_steps).max(1),
        }
    }
}

/// What [`DecodeBatch::quarantine`] did with the damaged sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Cache blocks returned to the free lists.
    pub blocks_freed: usize,
    /// Recovery-log rows discarded (0 when the log instead seeded the
    /// automatic requeue).
    pub log_rows_dropped: usize,
    /// Rows requeued for recompute through the chunked-prefill admission
    /// path — the sequence's full K/V history when the recovery log
    /// still covered position 0 upward, else 0 and the caller must
    /// [`resubmit`](DecodeBatch::resubmit) the history itself.
    pub requeued_rows: usize,
}

/// Why [`DecodeBatch::resubmit`] rejected a history.
///
/// A serving frontend races its own bookkeeping against the engine's:
/// between deciding to requeue a victim and delivering its history,
/// another actor may have retired the slot, refilled it, or resubmitted
/// first. Each race is a recoverable error here — the frontend drops or
/// retries one request instead of aborting the whole batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResubmitError {
    /// K or V column count differs from the engine's `kv_dim`.
    WidthMismatch {
        /// The engine's packed K/V width (`kv_heads · head_dim`).
        expected: usize,
        /// Columns of the submitted K matrix.
        k_cols: usize,
        /// Columns of the submitted V matrix.
        v_cols: usize,
    },
    /// K and V disagree on the number of history rows.
    RowMismatch {
        /// Rows of the submitted K matrix.
        k_rows: usize,
        /// Rows of the submitted V matrix.
        v_rows: usize,
    },
    /// The history has no rows — nothing to recompute.
    EmptyHistory,
    /// The sequence slot was retired (lost a quarantine/retire race).
    Retired {
        /// The rejected sequence id.
        seq: usize,
    },
    /// The sequence still holds cached rows — it was never quarantined,
    /// or another actor already refilled it.
    NotEmpty {
        /// The rejected sequence id.
        seq: usize,
        /// Rows currently cached for it.
        cached_rows: usize,
    },
    /// The sequence already has a pending prompt (double resubmit, or a
    /// concurrent re-enqueue won the race).
    AlreadyPending {
        /// The rejected sequence id.
        seq: usize,
    },
}

impl core::fmt::Display for ResubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ResubmitError::WidthMismatch {
                expected,
                k_cols,
                v_cols,
            } => write!(
                f,
                "history width mismatch: engine kv_dim is {expected}, \
                 got K {k_cols} / V {v_cols} columns"
            ),
            ResubmitError::RowMismatch { k_rows, v_rows } => write!(
                f,
                "history row mismatch: K has {k_rows} rows, V has {v_rows}"
            ),
            ResubmitError::EmptyHistory => {
                write!(f, "resubmit needs at least one history row")
            }
            ResubmitError::Retired { seq } => {
                write!(f, "sequence {seq} is retired")
            }
            ResubmitError::NotEmpty { seq, cached_rows } => write!(
                f,
                "sequence {seq} still caches {cached_rows} rows; \
                 resubmit requires an empty (quarantined) sequence"
            ),
            ResubmitError::AlreadyPending { seq } => {
                write!(f, "sequence {seq} already has a pending prompt")
            }
        }
    }
}

impl std::error::Error for ResubmitError {}

/// The cache's **single** BF16 rounding helper:
/// [`fa_numerics::BF16::from_f64`], i.e. round-to-nearest-even staged
/// through `f32` (f64→f32 RNE, then f32→BF16 RNE — the same widening
/// hardware pipeline every conversion in this workspace models; for f64
/// inputs within 2⁻²⁵ of a BF16 tie this double rounding can differ from
/// a single direct f64→BF16 RNE, exactly as documented on the helper).
/// Every path that narrows a cached element — direct BF16 appends under
/// [`KvFormat::Bf16`] and in-place block demotion under
/// [`KvFormat::Mixed`] — goes through this one function, so the two
/// paths can never disagree on rounding again (one previously rounded
/// RNE while the other truncated mantissa bits; the regression tests pin
/// tie cases that distinguish the two).
#[inline]
pub fn round_bf16<T: Scalar>(x: T) -> BF16 {
    BF16::from_f64(x.to_f64())
}

/// Default bound on prompt tokens processed per pending prompt per
/// [`DecodeBatch::prefill_step_for`]: large enough to amortize the fork, small
/// enough that a decode step never waits on more than a block or two of
/// prefill work per admission.
pub const DEFAULT_PREFILL_CHUNK: usize = 32;

/// A sequence's handle to one arena block: which arena (native or BF16)
/// and the block index within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRef {
    /// Block index within its arena.
    pub index: usize,
    /// `true` when the block lives in the BF16 arena (demoted or
    /// direct-appended BF16 rows).
    pub bf16: bool,
}

/// Per-(block, kv head) reference checksums of a block's **stored**
/// rows — the localization structure the fault-tolerance layer walks
/// (see [`guard`]).
///
/// `ksum[g]` / `vsum[g]` fold each row's lane-order f64 key/value sums
/// in row-append order, which is exactly the order the audit recompute
/// folds them — so on a clean block the stored reference and a fresh
/// recomputation agree **bitwise**, and any storage bit flip (either
/// arena, either side) surfaces as a reference/recompute mismatch
/// pinned to this (block, kv head) without any tolerance question.
/// References are updated incrementally on append, rebuilt on demotion
/// (the stored rows changed format), and dropped with their block on
/// eviction or retirement.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockCheck {
    /// Per-kv-head lane-order sums of the block's stored key rows.
    pub ksum: Vec<f64>,
    /// Per-kv-head lane-order sums of the block's stored value rows.
    pub vsum: Vec<f64>,
}

impl BlockCheck {
    fn zeroed(heads: usize) -> Self {
        BlockCheck {
            ksum: vec![0.0; heads],
            vsum: vec![0.0; heads],
        }
    }
}

/// What one append did beyond storing the row: which logical position
/// ranges were demoted to BF16 (the engine recomputes those rows'
/// checksum inputs from the rounded values).
#[derive(Clone, Debug, Default)]
pub struct AppendOutcome {
    /// Logical position ranges whose rows were demoted by this append
    /// (empty on most appends; at most one block's worth per claim).
    pub demoted: Vec<core::ops::Range<usize>>,
}

/// Physical arrangement of a cache block's `block_rows × width` elements.
///
/// The cache has one layout, head-major; this enum survives only as the
/// (ignored) `layout` argument of the `with_policy` constructors, which
/// existing callers still pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvLayout {
    /// Head-major (`[head][token][dim]`): each head owns a contiguous
    /// `block_rows × head_dim` panel inside the block, so one (sequence,
    /// head) decode pass reads one pure contiguous K stream and one V
    /// stream — the layout the DRAM-bound decode sweep wants.
    HeadMajor,
}

/// One block's key/value views for a single head, tagged with the block's
/// storage format — the scoring kernels pick the matching dot path per
/// block (native [`fa_tensor::ops::dot_then_scale_rows`] vs the
/// mixed-operand [`fa_tensor::ops::dot_then_scale_rows_bf16`]).
pub enum HeadBlockData<'a, T> {
    /// The block stores the cache's native element format.
    Native {
        /// Key view for this head.
        k: &'a [T],
        /// Value view for this head.
        v: &'a [T],
    },
    /// The block was demoted to (or appended as) BF16.
    Demoted {
        /// Key view for this head, BF16-rounded.
        k: &'a [BF16],
        /// Value view for this head, BF16-rounded.
        v: &'a [BF16],
    },
}

/// One block's view of a single head's cached rows, yielded by
/// [`KvCache::head_stream`]: one contiguous span in which row `r` of the
/// block lives at `k[r·head_dim .. (r + 1)·head_dim]` (same addressing
/// for `v`).
pub struct HeadBlock<'a, T> {
    /// Position of the block's first row within the sequence.
    pub first: usize,
    /// Valid (appended) rows in this block.
    pub rows: usize,
    /// Format-tagged key/value views.
    pub data: HeadBlockData<'a, T>,
}

/// A paged key/value cache: rows of `num_heads · head_dim` elements stored
/// in fixed-size blocks carved out of one shared arena, with an
/// append-only block list per live sequence and a free list recycling the
/// blocks of retired sequences.
///
/// The cache's heads are **kv heads**: under a grouped topology
/// ([`HeadTopology`]) the engine constructs the cache with `kv_heads`
/// streams, so blocks are allocated, demoted, and evicted per kv head and
/// the per-sequence arena bound is proportional to `kv_heads` (not
/// `query_heads`) — query-head grouping lives entirely above the cache.
///
/// Blocks from different sequences interleave in the arena (whichever
/// sequence appends next claims the next block), so memory grows with
/// *live* tokens, not `sequences × longest` — and, with retirement, not
/// with total traffic history either.
///
/// # Example
///
/// ```
/// use fa_attention::batch::KvCache;
///
/// let mut cache = KvCache::<f64>::new(1, 2, 16);
/// let s = cache.add_sequence();
/// cache.append(s, &[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(cache.seq_len(s), 1);
/// assert_eq!(cache.key_row(s, 0), &[1.0, 2.0]);
/// assert_eq!(cache.value_row(s, 0), &[3.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct KvCache<T> {
    heads: usize,
    head_dim: usize,
    width: usize,
    block_rows: usize,
    format: KvFormat,
    eviction: EvictionPolicy,
    k_arena: Vec<T>,
    v_arena: Vec<T>,
    /// BF16 side arenas holding demoted (or direct-appended BF16) blocks;
    /// same block geometry as the native arenas.
    k_arena16: Vec<BF16>,
    v_arena16: Vec<BF16>,
    seqs: Vec<SeqBlocks>,
    /// Native-arena blocks owned by no live sequence, ready for reuse
    /// (LIFO).
    free_blocks: Vec<usize>,
    /// BF16-arena blocks ready for reuse.
    free_blocks16: Vec<usize>,
    /// Per-block reference counts for the native arena, index-parallel
    /// to its blocks. A block is owned by every live sequence listing it
    /// plus (for registered shared prefixes) the prefix registry; it
    /// returns to the free list only when the count reaches zero.
    /// Free-listed blocks sit at zero; unshared blocks at one.
    ref_counts: Vec<u32>,
    /// Per-block reference counts for the BF16 arena.
    ref_counts16: Vec<u32>,
    /// Sequence slots whose owner retired, ready for reuse.
    free_seqs: Vec<usize>,
    /// Total block claims served from either free list (observability).
    recycled_blocks: usize,
    /// Shared blocks copied before a divergent write (copy-on-write
    /// appends into a shared tail block; observability).
    cow_copies: usize,
    /// While a speculative window is open, blocks whose last reference
    /// dropped are parked here instead of the free lists, so their
    /// stored lanes survive for an exact rollback (a freed block on the
    /// free list could be re-claimed and overwritten mid-window). The
    /// window's resolve flushes still-unowned entries back to the free
    /// lists.
    deferred_frees: Vec<BlockRef>,
    /// Whether frees are currently deferred (a speculative window is
    /// open).
    defer_frees: bool,
}

#[derive(Clone, Debug)]
struct SeqBlocks {
    /// Retained arena blocks owned by this sequence, in position order.
    blocks: Vec<BlockRef>,
    /// Reference checksums parallel to `blocks` (one [`BlockCheck`] per
    /// retained block), maintained bitwise-consistent with the stored
    /// rows at every claim/append/demote/evict.
    checks: Vec<BlockCheck>,
    /// Logical position of `blocks[0]`'s first row — a multiple of
    /// `block_rows`, advanced past evicted leading blocks (0 under
    /// [`EvictionPolicy::RetainAll`]).
    start: usize,
    /// Logical sequence length, **including** the evicted prefix.
    len: usize,
    /// Rows demoted to BF16 so far (observability).
    demoted_rows: usize,
    /// Whether the slot's owner retired (blocks returned to the free
    /// lists; the slot awaits reuse by a later `add_sequence`).
    retired: bool,
}

impl<T: Scalar> KvCache<T> {
    /// Creates an empty cache with the default policy (native format,
    /// retain-all): `num_heads` heads of `head_dim` elements per row,
    /// each head's rows contiguous within a block of `block_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(num_heads: usize, head_dim: usize, block_rows: usize) -> Self {
        Self::with_policy(
            num_heads,
            head_dim,
            block_rows,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        )
    }

    /// Creates an empty cache with explicit format and eviction policies
    /// — the full policy-layer constructor. The [`KvLayout`] argument is
    /// ignored: the cache is always head-major.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero, or if a sliding-window
    /// eviction policy has `window_blocks == 0` (the block being filled
    /// must always be retained).
    pub fn with_policy(
        num_heads: usize,
        head_dim: usize,
        block_rows: usize,
        _layout: KvLayout,
        format: KvFormat,
        eviction: EvictionPolicy,
    ) -> Self {
        assert!(num_heads > 0, "num_heads must be positive");
        assert!(head_dim > 0, "head_dim must be positive");
        assert!(block_rows > 0, "block_rows must be positive");
        if let EvictionPolicy::SlidingWindow { window_blocks } = eviction {
            assert!(window_blocks > 0, "window_blocks must be positive");
        }
        KvCache {
            heads: num_heads,
            head_dim,
            width: num_heads * head_dim,
            block_rows,
            format,
            eviction,
            k_arena: Vec::new(),
            v_arena: Vec::new(),
            k_arena16: Vec::new(),
            v_arena16: Vec::new(),
            seqs: Vec::new(),
            free_blocks: Vec::new(),
            free_blocks16: Vec::new(),
            ref_counts: Vec::new(),
            ref_counts16: Vec::new(),
            free_seqs: Vec::new(),
            recycled_blocks: 0,
            cow_copies: 0,
            deferred_frees: Vec::new(),
            defer_frees: false,
        }
    }

    /// The block element-format policy.
    pub fn format(&self) -> KvFormat {
        self.format
    }

    /// The block retention policy.
    pub fn eviction(&self) -> EvictionPolicy {
        self.eviction
    }

    /// The eviction window in tokens, if bounded.
    pub fn eviction_window_tokens(&self) -> Option<usize> {
        self.eviction.window_tokens(self.block_rows)
    }

    /// Row width (elements per cached key/value row, all heads).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Per-head row width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of (kv) heads each row splits into.
    pub fn num_heads(&self) -> usize {
        self.heads
    }

    /// Rows per allocation block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of sequence slots ever registered (live + retired).
    pub fn num_sequences(&self) -> usize {
        self.seqs.len()
    }

    /// Number of live (non-retired) sequences.
    pub fn live_sequences(&self) -> usize {
        self.seqs.len() - self.free_seqs.len()
    }

    /// Whether sequence slot `seq` is retired (awaiting reuse).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn is_retired(&self, seq: usize) -> bool {
        self.seqs[seq].retired
    }

    /// Total blocks carved from the **native** arena so far.
    pub fn allocated_blocks(&self) -> usize {
        self.k_arena.len() / (self.block_rows * self.width)
    }

    /// Total blocks carved from the **BF16** arena so far.
    pub fn allocated_blocks16(&self) -> usize {
        self.k_arena16.len() / (self.block_rows * self.width)
    }

    /// Native-arena blocks currently on the free list.
    pub fn free_block_list(&self) -> &[usize] {
        &self.free_blocks
    }

    /// BF16-arena blocks currently on the free list.
    pub fn free_block_list16(&self) -> &[usize] {
        &self.free_blocks16
    }

    /// The arena blocks retained by sequence `seq`, in position order
    /// (evicted leading blocks are gone; see
    /// [`first_retained`](Self::first_retained)).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn seq_blocks(&self, seq: usize) -> &[BlockRef] {
        &self.seqs[seq].blocks
    }

    /// Logical position of the oldest retained row of sequence `seq` —
    /// equivalently, the number of evicted leading rows (0 under
    /// [`EvictionPolicy::RetainAll`]).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn first_retained(&self, seq: usize) -> usize {
        self.live(seq).start
    }

    /// Rows of sequence `seq` demoted to BF16 so far.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn demoted_rows(&self, seq: usize) -> usize {
        self.live(seq).demoted_rows
    }

    /// Total block claims served from the free list instead of growing
    /// the arena — the block-recycling counter serving loops watch.
    pub fn recycled_blocks(&self) -> usize {
        self.recycled_blocks
    }

    /// Bytes of K/V storage held by owned arena blocks — native blocks
    /// at `size_of::<T>()` per lane, demoted/direct-BF16 blocks at
    /// `size_of::<BF16>()`, K and V both counted. This is the
    /// arena-pressure signal a serving frontend throttles against:
    /// demoting a victim halves its share (native f64 → BF16) without
    /// freeing blocks, and quarantine/retirement drops it to zero.
    /// Accounting is **physical**: a prefix block shared by `k` readers
    /// (plus the prefix registry) costs its bytes once, which is the
    /// memory win sharing exists for.
    pub fn live_kv_bytes(&self) -> usize {
        let block_lanes = self.block_rows * self.width;
        let native = self.allocated_blocks() - self.free_blocks.len();
        let bf16 = self.allocated_blocks16() - self.free_blocks16.len();
        2 * block_lanes * (native * core::mem::size_of::<T>() + bf16 * core::mem::size_of::<BF16>())
    }

    /// Registers a new (empty) sequence and returns its id, reusing a
    /// retired slot when one is available.
    pub fn add_sequence(&mut self) -> usize {
        let fresh = SeqBlocks {
            blocks: Vec::new(),
            checks: Vec::new(),
            start: 0,
            len: 0,
            demoted_rows: 0,
            retired: false,
        };
        if let Some(seq) = self.free_seqs.pop() {
            self.seqs[seq] = fresh;
            return seq;
        }
        self.seqs.push(fresh);
        self.seqs.len() - 1
    }

    /// Retires sequence `seq`: its blocks return to their arenas' free
    /// lists for reuse by later admissions, and the slot id becomes
    /// reusable by [`add_sequence`](Self::add_sequence). Accessing a
    /// retired sequence's rows panics until the slot is re-registered.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or already retired.
    pub fn retire_sequence(&mut self, seq: usize) {
        let state = &mut self.seqs[seq];
        assert!(!state.retired, "sequence {seq} already retired");
        let blocks = core::mem::take(&mut state.blocks);
        state.checks = Vec::new();
        state.start = 0;
        state.len = 0;
        state.retired = true;
        for blk in blocks {
            self.release_block(blk);
        }
        self.free_seqs.push(seq);
    }

    /// Returns every block of **live** sequence `seq` to the free lists
    /// and resets its cached history to empty, keeping the slot live (id,
    /// per-sequence engine state and ordering intact) — the cache half of
    /// [`DecodeBatch::quarantine`]: the damaged rows stop occupying
    /// arena space immediately, and the slot is ready to re-admit the
    /// same logical sequence through the chunked-prefill path. Returns
    /// the number of block references released (each block returns to
    /// its free list once its last owner — another reader of a shared
    /// prefix, or the prefix registry — also lets go).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn release_blocks(&mut self, seq: usize) -> usize {
        let state = &mut self.seqs[seq];
        assert!(!state.retired, "sequence {seq} is retired");
        let blocks = core::mem::take(&mut state.blocks);
        state.checks = Vec::new();
        state.start = 0;
        state.len = 0;
        state.demoted_rows = 0;
        let freed = blocks.len();
        for blk in blocks {
            self.release_block(blk);
        }
        freed
    }

    /// Detaches live sequence `seq`'s blocks **without releasing their
    /// references** and retires the slot — the handoff that turns a
    /// freshly-prefilled sequence into a registry-owned shared prefix.
    /// Returns the block refs, their reference checksums, and the
    /// first-retained position (non-zero when a sliding window evicted
    /// leading prefix blocks during registration).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub(crate) fn detach_into_registry(
        &mut self,
        seq: usize,
    ) -> (Vec<BlockRef>, Vec<BlockCheck>, usize) {
        let state = &mut self.seqs[seq];
        assert!(!state.retired, "sequence {seq} is retired");
        let blocks = core::mem::take(&mut state.blocks);
        let checks = core::mem::take(&mut state.checks);
        let start = state.start;
        state.start = 0;
        state.len = 0;
        state.demoted_rows = 0;
        state.retired = true;
        self.free_seqs.push(seq);
        (blocks, checks, start)
    }

    /// Attaches a registry-held shared prefix to **empty** live sequence
    /// `seq`: the sequence adopts the block refs (taking one new
    /// reference on each) and bitwise copies of their reference
    /// checksums, and its logical length jumps to `rows`. Appends past
    /// the prefix claim private blocks as usual; an append landing in
    /// the prefix's partially-filled tail block copies it first
    /// (copy-on-write in [`append_anchored`](Self::append_anchored)).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range, retired, or non-empty.
    pub(crate) fn attach_shared(
        &mut self,
        seq: usize,
        blocks: &[BlockRef],
        checks: &[BlockCheck],
        start: usize,
        rows: usize,
    ) {
        let state = self.live(seq);
        assert!(
            state.len == 0 && state.blocks.is_empty(),
            "sequence {seq} must be empty to attach a shared prefix"
        );
        for &blk in blocks {
            self.retain_block(blk);
        }
        let state = &mut self.seqs[seq];
        state.blocks = blocks.to_vec();
        state.checks = checks.to_vec();
        state.start = start;
        state.len = rows;
    }

    /// Reserves arena capacity for at least `additional_rows` more cached
    /// rows (across all sequences), so admission-controlled serving loops
    /// can keep block claims reallocation-free on the decode path.
    ///
    /// Blocks are claimed per sequence, so each live sequence may occupy
    /// one partially-filled block; the reservation accounts for that
    /// worst case (one extra block per live sequence) on top of the raw
    /// row count, minus blocks already waiting on the free list.
    pub fn reserve_rows(&mut self, additional_rows: usize) {
        // Appends land in the BF16 arena under the direct-BF16 format and
        // in the native arena otherwise (Mixed appends native, then
        // migrates — its BF16 demand is bounded by the same row count).
        let appends_bf16 = self.format.appends_bf16();
        let free_len = if appends_bf16 {
            self.free_blocks16.len()
        } else {
            self.free_blocks.len()
        };
        let blocks = (additional_rows.div_ceil(self.block_rows) + self.live_sequences())
            .saturating_sub(free_len);
        let elems = blocks * self.block_rows * self.width;
        if appends_bf16 {
            self.k_arena16.reserve(elems);
            self.v_arena16.reserve(elems);
        } else {
            self.k_arena.reserve(elems);
            self.v_arena.reserve(elems);
        }
    }

    fn live(&self, seq: usize) -> &SeqBlocks {
        let state = &self.seqs[seq];
        assert!(!state.retired, "sequence {seq} is retired");
        state
    }

    /// Number of cached positions for sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn seq_len(&self, seq: usize) -> usize {
        self.live(seq).len
    }

    /// Claims a block in the requested arena — from its free list when
    /// possible, growing the arena otherwise. The claimed block starts
    /// with a reference count of one (sole owner).
    fn claim_block(&mut self, bf16: bool) -> usize {
        let block_elems = self.block_rows * self.width;
        if bf16 {
            if let Some(freed) = self.free_blocks16.pop() {
                self.recycled_blocks += 1;
                debug_assert_eq!(self.ref_counts16[freed], 0, "free-listed block had owners");
                self.ref_counts16[freed] = 1;
                return freed;
            }
            let fresh = self.k_arena16.len() / block_elems;
            self.k_arena16
                .resize(self.k_arena16.len() + block_elems, BF16::ZERO);
            self.v_arena16
                .resize(self.v_arena16.len() + block_elems, BF16::ZERO);
            self.ref_counts16.push(1);
            fresh
        } else {
            if let Some(freed) = self.free_blocks.pop() {
                self.recycled_blocks += 1;
                debug_assert_eq!(self.ref_counts[freed], 0, "free-listed block had owners");
                self.ref_counts[freed] = 1;
                return freed;
            }
            let fresh = self.k_arena.len() / block_elems;
            self.k_arena
                .resize(self.k_arena.len() + block_elems, T::zero());
            self.v_arena
                .resize(self.v_arena.len() + block_elems, T::zero());
            self.ref_counts.push(1);
            fresh
        }
    }

    /// Drops one reference to `blk`, returning it to its arena's free
    /// list when the last owner lets go. Returns whether the block was
    /// actually freed (refcount reached zero).
    ///
    /// # Panics
    ///
    /// Panics if the block has no outstanding references (double free).
    pub(crate) fn release_block(&mut self, blk: BlockRef) -> bool {
        let rc = if blk.bf16 {
            &mut self.ref_counts16[blk.index]
        } else {
            &mut self.ref_counts[blk.index]
        };
        assert!(
            *rc > 0,
            "double free of {} block {}",
            if blk.bf16 { "bf16" } else { "native" },
            blk.index
        );
        *rc -= 1;
        if *rc > 0 {
            return false;
        }
        if self.defer_frees {
            // Speculative window open: keep the lanes intact for
            // rollback. The block is unreachable for claims (absent
            // from the free lists) until the window's resolve flushes.
            self.deferred_frees.push(blk);
        } else if blk.bf16 {
            self.free_blocks16.push(blk.index);
        } else {
            self.free_blocks.push(blk.index);
        }
        true
    }

    /// Starts deferring frees for an opening speculative window.
    pub(crate) fn begin_deferred_frees(&mut self) {
        debug_assert!(
            !self.defer_frees && self.deferred_frees.is_empty(),
            "speculative windows cannot nest"
        );
        self.defer_frees = true;
    }

    /// Re-takes a reference on `blk` during speculative rollback —
    /// unlike [`retain_block`](Self::retain_block) the count may be
    /// zero: a block demoted, evicted or CoW-replaced mid-window sits in
    /// `deferred_frees` with intact lanes, and restoring the snapshot
    /// resurrects the owner's reference.
    pub(crate) fn resurrect_block(&mut self, blk: BlockRef) {
        let rc = if blk.bf16 {
            &mut self.ref_counts16[blk.index]
        } else {
            &mut self.ref_counts[blk.index]
        };
        *rc += 1;
    }

    /// Ends the deferred-frees window: entries whose reference count is
    /// still zero (not resurrected by a rollback) return to their free
    /// lists.
    pub(crate) fn flush_deferred_frees(&mut self) {
        debug_assert!(self.defer_frees, "no deferred-frees window is open");
        self.defer_frees = false;
        let deferred = core::mem::take(&mut self.deferred_frees);
        for blk in deferred {
            let rc = if blk.bf16 {
                self.ref_counts16[blk.index]
            } else {
                self.ref_counts[blk.index]
            };
            if rc > 0 {
                continue;
            }
            if blk.bf16 {
                self.free_blocks16.push(blk.index);
            } else {
                self.free_blocks.push(blk.index);
            }
        }
    }

    /// Takes one additional reference on `blk` (a live owner is handing
    /// a copy of the handle to another owner).
    pub(crate) fn retain_block(&mut self, blk: BlockRef) {
        let rc = if blk.bf16 {
            &mut self.ref_counts16[blk.index]
        } else {
            &mut self.ref_counts[blk.index]
        };
        assert!(*rc > 0, "retaining a free block");
        *rc += 1;
    }

    /// Outstanding references on `blk` — zero for free-listed blocks,
    /// one for privately-owned blocks, more when a registered prefix (or
    /// several sequences sharing one) holds it.
    pub fn block_ref_count(&self, blk: BlockRef) -> u32 {
        if blk.bf16 {
            self.ref_counts16[blk.index]
        } else {
            self.ref_counts[blk.index]
        }
    }

    /// Shared blocks copied before a divergent write so far (the
    /// copy-on-write counter; see
    /// [`append_anchored`](Self::append_anchored)).
    pub fn cow_copies(&self) -> usize {
        self.cow_copies
    }

    /// Physical blocks currently owned by at least one live holder,
    /// across both arenas — with prefix sharing this counts each shared
    /// block **once**, which is exactly the arena-footprint win the
    /// sharing bench reports.
    pub fn live_unique_blocks(&self) -> usize {
        self.allocated_blocks() - self.free_blocks.len() + self.allocated_blocks16()
            - self.free_blocks16.len()
    }

    /// Demotes sequence `seq`'s full native blocks beyond the newest
    /// `burst` to BF16 **in place via the free-list arena**: each demoted
    /// block's rows are rounded (RNE, [`round_bf16`]) into a claimed BF16
    /// block, its native storage returns to the native free list for
    /// later admissions, and its [`BlockRef`] flips arenas. Returns the
    /// demoted logical position ranges so the engine can recompute those
    /// rows' checksum inputs from the rounded values.
    fn demote_beyond_burst(&mut self, seq: usize, burst: usize) -> Vec<core::ops::Range<usize>> {
        // The newest block is the freshly-claimed empty one; everything
        // before it is full.
        let full_blocks = self.seqs[seq].blocks.len() - 1;
        self.demote_blocks(seq, full_blocks.saturating_sub(burst))
    }

    /// Voluntary demotion under arena pressure — the soft tier of the
    /// serving frontend's preemption ladder: rounds `seq`'s
    /// completely-filled native blocks beyond the newest `burst` down to
    /// BF16 regardless of [`KvFormat`], through the same block-swap (and
    /// checksum rebuild) the `Mixed` append path uses. Safe at any point
    /// between steps: later passes simply read the rounded rows. Returns
    /// the demoted logical ranges so the engine can refresh those rows'
    /// `sumrow` inputs.
    pub(crate) fn demote_full_blocks(
        &mut self,
        seq: usize,
        burst: usize,
    ) -> Vec<core::ops::Range<usize>> {
        let state = self.live(seq);
        // Unlike the append path, the newest block may be partially
        // filled or exactly full; count only completely-filled blocks.
        let full_blocks = (state.len - state.start) / self.block_rows;
        self.demote_blocks(seq, full_blocks.saturating_sub(burst))
    }

    /// Demotes `seq`'s first `demote_until` retained blocks (those not
    /// already BF16) to the BF16 arena, returning the demoted ranges.
    fn demote_blocks(&mut self, seq: usize, demote_until: usize) -> Vec<core::ops::Range<usize>> {
        let block_elems = self.block_rows * self.width;
        let mut demoted = Vec::new();
        for i in 0..demote_until {
            if self.seqs[seq].blocks[i].bf16 {
                continue;
            }
            let native = self.seqs[seq].blocks[i].index;
            let b16 = self.claim_block(true);
            let (src, dst) = (native * block_elems, b16 * block_elems);
            for e in 0..block_elems {
                self.k_arena16[dst + e] = round_bf16(self.k_arena[src + e]);
                self.v_arena16[dst + e] = round_bf16(self.v_arena[src + e]);
            }
            // Demotion of a *shared* block is copy-on-write by
            // construction: this sequence walks away with a private
            // rounded copy while the native block stays alive for its
            // other readers (freed only when the last one lets go).
            self.release_block(BlockRef {
                index: native,
                bf16: false,
            });
            let demoted_ref = BlockRef {
                index: b16,
                bf16: true,
            };
            self.seqs[seq].blocks[i] = demoted_ref;
            // The stored rows changed format: rebuild the block's
            // reference checksum from the rounded storage.
            self.seqs[seq].checks[i] = self.recompute_block_check(demoted_ref, self.block_rows);
            let state = &mut self.seqs[seq];
            state.demoted_rows += self.block_rows;
            let first = state.start + i * self.block_rows;
            demoted.push(first..first + self.block_rows);
        }
        demoted
    }

    /// Returns leading blocks that fell entirely below `anchor`'s sliding
    /// window to their free lists. `anchor` is the oldest position whose
    /// attention pass may still run — the newest row during decode, the
    /// first query of an in-flight prefill chunk during chunked admission
    /// (later appends in a chunk must not evict rows the chunk's earlier
    /// queries still attend to). The block holding `anchor` is never
    /// evictable (`window_blocks ≥ 1`).
    fn evict_below_anchor(&mut self, seq: usize, anchor: usize) {
        let Some(window) = self.eviction.window_tokens(self.block_rows) else {
            return;
        };
        let lo = (anchor + 1).saturating_sub(window);
        while !self.seqs[seq].blocks.is_empty() && self.seqs[seq].start + self.block_rows <= lo {
            let blk = self.seqs[seq].blocks.remove(0);
            self.seqs[seq].checks.remove(0);
            self.seqs[seq].start += self.block_rows;
            self.release_block(blk);
        }
    }

    /// Catches eviction up to the newest position — called after a
    /// prefill chunk's passes complete, releasing rows the chunk's
    /// anchored appends had to retain.
    pub fn evict_to_newest(&mut self, seq: usize) {
        let len = self.live(seq).len;
        if len > 0 {
            self.evict_below_anchor(seq, len - 1);
        }
    }

    /// Appends one key/value row to sequence `seq`, claiming a block from
    /// the free list (or a fresh arena block) when the current one is
    /// full, then runs the policy maintenance the claim triggered:
    /// burst-exceeding blocks demote to BF16 ([`KvFormat::Mixed`]) and
    /// out-of-window leading blocks evict
    /// ([`EvictionPolicy::SlidingWindow`]).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or a slice length
    /// differs from the row width.
    pub fn append(&mut self, seq: usize, k: &[T], v: &[T]) -> AppendOutcome {
        let anchor = self.live(seq).len; // the new row's position
        self.append_anchored(seq, k, v, anchor)
    }

    /// [`append`](Self::append) with an explicit eviction anchor: the
    /// oldest position whose attention pass is still outstanding. Chunked
    /// prefill appends a whole chunk of rows before any of the chunk's
    /// queries score, so it anchors eviction at the chunk's first query —
    /// otherwise a window narrower than the chunk would evict rows those
    /// queries still attend to. Follow with
    /// [`evict_to_newest`](Self::evict_to_newest) once the passes ran.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or a slice length
    /// differs from the row width.
    pub fn append_anchored(
        &mut self,
        seq: usize,
        k: &[T],
        v: &[T],
        anchor: usize,
    ) -> AppendOutcome {
        assert_eq!(k.len(), self.width, "key row width mismatch");
        assert_eq!(v.len(), self.width, "value row width mismatch");
        let block_elems = self.block_rows * self.width;
        let state = self.live(seq);
        let local = state.len - state.start;
        let mut outcome = AppendOutcome::default();
        if local == state.blocks.len() * self.block_rows {
            // Current block full (or first append): claim the next block,
            // recycling a retired block when one is free.
            let bf16 = self.format.appends_bf16();
            let block = self.claim_block(bf16);
            let heads = self.heads;
            let state = &mut self.seqs[seq];
            state.blocks.push(BlockRef { index: block, bf16 });
            state.checks.push(BlockCheck::zeroed(heads));
            if let KvFormat::Mixed { burst_blocks } = self.format {
                outcome.demoted = self.demote_beyond_burst(seq, burst_blocks);
            }
        }
        // Copy-on-write: appending must not mutate a block other owners
        // (co-readers of a shared prefix, or the prefix registry) still
        // read. Claim a private block in the same arena, copy the stored
        // lanes bitwise — the block's reference checksum stays valid
        // because the bits are identical — and drop one reference on the
        // shared original.
        {
            let state = self.live(seq);
            let bi = (state.len - state.start) / self.block_rows;
            let target = state.blocks[bi];
            if self.block_ref_count(target) > 1 {
                let fresh = self.claim_block(target.bf16);
                let (src, dst) = (target.index * block_elems, fresh * block_elems);
                if target.bf16 {
                    self.k_arena16.copy_within(src..src + block_elems, dst);
                    self.v_arena16.copy_within(src..src + block_elems, dst);
                } else {
                    self.k_arena.copy_within(src..src + block_elems, dst);
                    self.v_arena.copy_within(src..src + block_elems, dst);
                }
                self.release_block(target);
                self.seqs[seq].blocks[bi] = BlockRef {
                    index: fresh,
                    bf16: target.bf16,
                };
                self.cow_copies += 1;
            }
        }
        let state = &self.seqs[seq];
        let local = state.len - state.start;
        let blk = state.blocks[local / self.block_rows];
        let r = local % self.block_rows;
        let d = self.head_dim;
        // The head-major scatter happens once on append (cold path: one
        // row per step) so every later read of the head panels streams
        // contiguously (hot path: the whole history per step).
        for h in 0..self.heads {
            let slot = blk.index * block_elems + self.lane_offset(r, h);
            if blk.bf16 {
                for (e, (&kx, &vx)) in k[h * d..(h + 1) * d]
                    .iter()
                    .zip(&v[h * d..(h + 1) * d])
                    .enumerate()
                {
                    self.k_arena16[slot + e] = round_bf16(kx);
                    self.v_arena16[slot + e] = round_bf16(vx);
                }
            } else {
                self.k_arena[slot..slot + d].copy_from_slice(&k[h * d..(h + 1) * d]);
                self.v_arena[slot..slot + d].copy_from_slice(&v[h * d..(h + 1) * d]);
            }
        }
        // Fold the stored row (post-rounding, for BF16 blocks) into the
        // block's reference checksum — per head, rows accumulate in
        // append order, matching `recompute_block_check`'s fold bitwise.
        let bi = local / self.block_rows;
        for h in 0..self.heads {
            let (ks, vs) = self.stored_lane_sums(blk, r, h);
            let check = &mut self.seqs[seq].checks[bi];
            check.ksum[h] += ks;
            check.vsum[h] += vs;
        }
        self.seqs[seq].len += 1;
        self.evict_below_anchor(seq, anchor);
        outcome
    }

    /// The block (and row-within-block) holding logical position `i` of
    /// sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the cached length or below the retained
    /// window (evicted).
    fn block_of(&self, seq: usize, i: usize) -> (BlockRef, usize) {
        let state = self.live(seq);
        assert!(i < state.len, "position {i} out of {} cached", state.len);
        assert!(
            i >= state.start,
            "position {i} evicted (first retained: {})",
            state.start
        );
        let local = i - state.start;
        (
            state.blocks[local / self.block_rows],
            local % self.block_rows,
        )
    }

    /// Element offset of row `r`, head `head` within a block.
    #[inline]
    fn lane_offset(&self, r: usize, head: usize) -> usize {
        (head * self.block_rows + r) * self.head_dim
    }

    /// The cached key row at position `i` of sequence `seq`, gathered
    /// across heads (a copy — with the head-major layout a full row is
    /// not contiguous). Demoted rows widen their BF16 values back into
    /// `T` (exact: BF16 ⊂ every wider format here).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `i` is out of range
    /// or evicted.
    pub fn key_row(&self, seq: usize, i: usize) -> Vec<T> {
        self.gather_row(true, seq, i)
    }

    /// The cached value row at position `i` of sequence `seq` (a copy,
    /// like [`key_row`](Self::key_row)).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `i` is out of range
    /// or evicted.
    pub fn value_row(&self, seq: usize, i: usize) -> Vec<T> {
        self.gather_row(false, seq, i)
    }

    fn gather_row(&self, keys: bool, seq: usize, i: usize) -> Vec<T> {
        let (blk, r) = self.block_of(seq, i);
        let base = blk.index * self.block_rows * self.width;
        let d = self.head_dim;
        let mut out = Vec::with_capacity(self.width);
        for h in 0..self.heads {
            let slot = base + self.lane_offset(r, h);
            if blk.bf16 {
                let arena = if keys {
                    &self.k_arena16
                } else {
                    &self.v_arena16
                };
                out.extend(
                    arena[slot..slot + d]
                        .iter()
                        .map(|x| T::from_f64(x.to_f64())),
                );
            } else {
                let arena = if keys { &self.k_arena } else { &self.v_arena };
                out.extend_from_slice(&arena[slot..slot + d]);
            }
        }
        out
    }

    /// The sum of the stored value lanes of `(seq, position, head)`,
    /// widened to f64 in lane order — the Eq. 4 `sumrow` input of the
    /// checksum lane, computed from **what the cache actually holds** so
    /// demoted/BF16-stored rows contribute their rounded values and the
    /// per-token verdict stays exact across format boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `i` is out of range
    /// or evicted, or `head` is out of range.
    pub fn value_head_sum(&self, seq: usize, i: usize, head: usize) -> f64 {
        assert!(head < self.heads, "head {head} out of {}", self.heads);
        let (blk, r) = self.block_of(seq, i);
        self.stored_lane_sums(blk, r, head).1
    }

    /// Lane-order f64 sums of the **stored** key and value lanes of one
    /// (block, row, head) slot — the increment both the incremental
    /// reference-checksum update and the audit recompute fold, so the
    /// two can never disagree on summation order.
    fn stored_lane_sums(&self, blk: BlockRef, r: usize, head: usize) -> (f64, f64) {
        let slot = blk.index * self.block_rows * self.width + self.lane_offset(r, head);
        let d = self.head_dim;
        if blk.bf16 {
            (
                self.k_arena16[slot..slot + d]
                    .iter()
                    .map(|x| x.to_f64())
                    .sum(),
                self.v_arena16[slot..slot + d]
                    .iter()
                    .map(|x| x.to_f64())
                    .sum(),
            )
        } else {
            (
                self.k_arena[slot..slot + d]
                    .iter()
                    .map(|x| x.to_f64())
                    .sum(),
                self.v_arena[slot..slot + d]
                    .iter()
                    .map(|x| x.to_f64())
                    .sum(),
            )
        }
    }

    /// Recomputes one block's [`BlockCheck`] from its stored rows: per
    /// head, the first `rows` rows' lane sums fold in row order — the
    /// same order the incremental append-path update used, so a clean
    /// block's recomputation equals its stored reference **bitwise**.
    fn recompute_block_check(&self, blk: BlockRef, rows: usize) -> BlockCheck {
        let mut check = BlockCheck::zeroed(self.heads);
        for h in 0..self.heads {
            for r in 0..rows {
                let (ks, vs) = self.stored_lane_sums(blk, r, h);
                check.ksum[h] += ks;
                check.vsum[h] += vs;
            }
        }
        check
    }

    /// The reference checksums of sequence `seq`'s retained blocks,
    /// parallel to [`seq_blocks`](Self::seq_blocks).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn block_checks(&self, seq: usize) -> &[BlockCheck] {
        &self.live(seq).checks
    }

    /// Streams one head of sequence `seq` block by block — the decode
    /// kernels' access path. Every yielded view is one pure contiguous
    /// span of `rows × head_dim` lanes. Each block carries its
    /// storage format ([`HeadBlockData`]); evicted leading blocks are
    /// simply absent (`first` starts at
    /// [`first_retained`](Self::first_retained)).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `head` is out of
    /// range.
    pub fn head_stream(&self, seq: usize, head: usize) -> impl Iterator<Item = HeadBlock<'_, T>> {
        assert!(head < self.heads, "head {head} out of {}", self.heads);
        let state = self.live(seq);
        (0..state.blocks.len()).map(move |bi| self.head_view(state, bi, head))
    }

    /// One element of [`head_stream`](Self::head_stream) by retained
    /// block index — the shared-block score builder's random-access view
    /// (identical slicing, so scoring through it is scoring the same
    /// lanes).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `bi`/`head` is out
    /// of range.
    pub(crate) fn head_block(&self, seq: usize, bi: usize, head: usize) -> HeadBlock<'_, T> {
        assert!(head < self.heads, "head {head} out of {}", self.heads);
        self.head_view(self.live(seq), bi, head)
    }

    /// Slices head `head` of retained block `bi` out of the arena that
    /// stores it.
    fn head_view<'a>(&'a self, state: &SeqBlocks, bi: usize, head: usize) -> HeadBlock<'a, T> {
        let blk = state.blocks[bi];
        let first = state.start + bi * self.block_rows;
        let rows = (state.len - first).min(self.block_rows);
        let base = blk.index * self.block_rows * self.width + self.lane_offset(0, head);
        let span = rows * self.head_dim;
        let data = if blk.bf16 {
            HeadBlockData::Demoted {
                k: &self.k_arena16[base..base + span],
                v: &self.v_arena16[base..base + span],
            }
        } else {
            HeadBlockData::Native {
                k: &self.k_arena[base..base + span],
                v: &self.v_arena[base..base + span],
            }
        };
        HeadBlock { first, rows, data }
    }
}

/// One sequence's output from a [`DecodeBatch::step_decode`] call.
#[derive(Clone, Debug)]
pub struct DecodeStepOutput {
    /// The normalized attention row for the new token, packed
    /// `query_heads · head_dim` wide (head-major, like the inputs).
    pub output: Vec<f64>,
    /// Predicted checksum: `Σ_h c_h/ℓ_h` over the sequence's **query**
    /// heads (Alg. 3 line 10, summed across heads; grouped heads share
    /// their kv head's `sumrow` inputs but keep per-head verdict terms).
    pub predicted: f64,
    /// Actual checksum: the sum of all produced output lanes.
    pub actual: f64,
}

impl DecodeStepOutput {
    /// `predicted − actual` — tiny in fault-free f64 decode, large when a
    /// datapath fault corrupted this token's computation.
    pub fn residual(&self) -> f64 {
        self.predicted - self.actual
    }
}

/// A checked, admitted prompt: what [`DecodeBatch::take_admitted`]
/// returns once [`DecodeBatch::prefill_step_for`] has run the prompt's
/// last chunk through the batched fused-checksum prefill.
#[derive(Clone, Debug)]
pub struct AdmittedPrompt {
    /// The sequence id the prompt was admitted as (may reuse a retired
    /// slot).
    pub seq: usize,
    /// The prompt's causal self-attention output (`N × q_dim`,
    /// f64 like the decode outputs).
    pub output: Matrix<f64>,
    /// Predicted prompt checksum: per head, the Kahan-accumulated Alg. 3
    /// line 11 sum over the prompt's queries — bit-identical to
    /// `flash_abft::flash2_with_checksum` on that head — summed across
    /// heads in head order.
    pub predicted: f64,
    /// Actual prompt checksum: sum of all produced output elements,
    /// Kahan-accumulated per head in (query, lane) order.
    pub actual: f64,
}

impl AdmittedPrompt {
    /// `predicted − actual` for the prompt pass.
    pub fn residual(&self) -> f64 {
        self.predicted - self.actual
    }
}

/// A prompt enqueued for chunked admission: the staged Q/K/V, the chunk
/// cursor, and the output/checksum state accumulated chunk by chunk.
#[derive(Clone, Debug)]
struct PendingPrompt<T: Scalar> {
    q: Matrix<T>,
    k: Matrix<T>,
    v: Matrix<T>,
    /// Next prompt row to cache and score (rows `0..next` are done).
    next: usize,
    /// Prompt output rows, filled as chunks complete.
    output: Matrix<f64>,
    /// Running prompt checksum totals (per-chunk Kahan folds).
    predicted: f64,
    actual: f64,
    /// A quarantine requeue: re-cache the K/V history chunk by chunk
    /// (appends, checksums, demotion/eviction maintenance) but skip the
    /// scoring passes — the outputs were already delivered before the
    /// damage, only the cache state needs recomputing. `q` and `output`
    /// are empty and no [`AdmittedPrompt`] is parked on completion.
    cache_only: bool,
    /// Absolute position of prompt row 0 — non-zero only for suffixes
    /// enqueued behind a shared prefix
    /// ([`DecodeBatch::enqueue_shared`]), whose cached history already
    /// holds `base` prefix rows when the first chunk runs.
    base: usize,
}

impl<T: Scalar> PendingPrompt<T> {
    /// Stages `k`/`v` (and `q`; `None` is a cache-only requeue) for
    /// chunked prefill from absolute position `base`, with the prompt
    /// checksum totals seeded at `(predicted, actual)` — zero except
    /// behind a shared prefix, whose totals the suffix extends.
    fn new(
        q: Option<&Matrix<T>>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        base: usize,
        (predicted, actual): (f64, f64),
    ) -> Self {
        PendingPrompt {
            q: q.map_or_else(|| Matrix::zeros(0, 0), Matrix::clone),
            k: k.clone(),
            v: v.clone(),
            next: 0,
            output: q.map_or_else(
                || Matrix::zeros(0, 0),
                |q| Matrix::zeros(q.rows(), q.cols()),
            ),
            predicted,
            actual,
            cache_only: q.is_none(),
            base,
        }
    }
}

/// Everything the engine tracks for one sequence slot beyond the cache
/// blocks themselves: checksum inputs and totals, coverage counters, and
/// the chunked-admission queue. One `SequenceState` per slot replaces the
/// PR-3 parallel vectors, so policy state (pending prompts, demotion
/// bookkeeping) has one home.
#[derive(Clone, Debug)]
struct SequenceState<T: Scalar> {
    /// `sumrow_g(v_i)` for every cached position `i` and **kv head** `g`,
    /// stored `i·kv_heads + g` — the Eq. 4 vector the checksum lane
    /// consumes, shared by every query head of group `g` (the per-group
    /// `sumrow(V)` saving GQA gets for free), computed
    /// from the **stored** row (so BF16-rounded rows contribute their
    /// rounded values) and recomputed for demoted ranges. Entries for
    /// evicted positions are retained but never read again (masked).
    /// Cleared on retire and rebuilt on slot reuse, so recycled blocks
    /// never leak a previous owner's checksum inputs.
    sumrows: Vec<f64>,
    /// Running (predicted, actual) totals over the admitted prompt and
    /// all checked decoded tokens — the session-level Alg. 3 line 11
    /// state. Survives block recycling (it lives outside the arena) and
    /// is reset when a retired slot is reused.
    totals: (f64, f64),
    /// Prompt tokens cached so far (admitted, enqueued-and-chunk-
    /// processed, or prefilled).
    prompt_tokens: usize,
    /// Tokens decoded through [`DecodeBatch::step_decode`] or accepted
    /// from a speculative window (checksum-covered).
    checked_steps: usize,
    /// Tokens decoded through [`DecodeBatch::step_all_unchecked`], which
    /// the session verdict does **not** cover.
    unchecked_steps: usize,
    /// Prompt chunks still waiting for prefill passes.
    pending: Option<PendingPrompt<T>>,
    /// The completed admission, parked until
    /// [`DecodeBatch::take_admitted`] collects it.
    ready: Option<AdmittedPrompt>,
    /// Original (pre-rounding) K/V rows per cached position, flattened
    /// `kv_dim` wide — the block-granular recovery source (see
    /// [`guard`]). Empty unless the engine's recovery log is enabled;
    /// row `i` of the log holds absolute position `log_start + i`
    /// (truncation under a [`recovery_log_budget`](DecodeBatch::set_recovery_log_budget)
    /// drops leading rows once scrub-verified or evicted). Cleared on
    /// retire so recycled slots never replay a previous owner's rows.
    log_k: Vec<T>,
    log_v: Vec<T>,
    /// Absolute position of the log's first retained row (0 until budget
    /// truncation drops leading rows).
    log_start: usize,
    /// Positions `< log_clean_until` passed a bitwise scrub/audit verdict
    /// at some point after their last append — their log rows are safe to
    /// drop under the budget (the stored blocks were proven faithful, so
    /// the log is no longer their only witness).
    log_clean_until: usize,
}

impl<T: Scalar> SequenceState<T> {
    fn fresh() -> Self {
        SequenceState {
            sumrows: Vec::new(),
            totals: (0.0, 0.0),
            prompt_tokens: 0,
            checked_steps: 0,
            unchecked_steps: 0,
            pending: None,
            ready: None,
            log_k: Vec::new(),
            log_v: Vec::new(),
            log_start: 0,
            log_clean_until: 0,
        }
    }
}

/// A registered shared prefix: one prefilled copy of a common prompt
/// prefix (a system prompt) whose cache blocks, reference checksums,
/// `sumrow(V)` inputs, scored outputs and prompt-checksum totals serve
/// **every** sequence enqueued behind it — the registry holds one block
/// reference per block so the storage outlives any individual reader.
#[derive(Clone, Debug)]
struct SharedPrefix<T: Scalar> {
    /// The prefix's cache blocks (registry-owned references).
    blocks: Vec<BlockRef>,
    /// Reference checksums parallel to `blocks`; readers adopt bitwise
    /// copies on attach.
    checks: Vec<BlockCheck>,
    /// First retained position (non-zero when a sliding window evicted
    /// leading prefix blocks during registration).
    start: usize,
    /// Prefix length in tokens.
    rows: usize,
    /// Per-(position, kv head) `sumrow(V)` inputs for positions
    /// `0..rows` — computed once at registration, cloned to every
    /// reader: one `sumrow(V)` serves all of them.
    sumrows: Vec<f64>,
    /// Original (pre-rounding) prefix K/V rows — the recovery-log seed
    /// for readers with logging enabled.
    k: Matrix<T>,
    v: Matrix<T>,
    /// The prefix prompt's scored outputs (`rows × q_dim`).
    output: Matrix<f64>,
    /// Prompt checksum totals over the prefix (per-chunk Kahan folds) —
    /// seeded into every reader's running totals.
    predicted: f64,
    actual: f64,
    /// FNV-1a hash of the prefix K/V token bits (registry lookup key).
    token_hash: u64,
    /// Sequences admitted behind this prefix so far (observability).
    readers: usize,
}

/// A batched, checked, KV-cache-backed decode engine over
/// `num_sequences × num_heads` independent attention streams, with
/// continuous batching: sequences are admitted (checked chunked prefill
/// through [`enqueue`](Self::enqueue) →
/// [`prefill_step_for`](Self::prefill_step_for) →
/// [`take_admitted`](Self::take_admitted)) and retired (block recycling)
/// mid-flight while the rest of the batch keeps decoding.
///
/// # Example
///
/// ```
/// use fa_attention::batch::DecodeBatch;
/// use fa_attention::multihead::MultiHeadConfig;
/// use fa_attention::AttentionConfig;
/// use fa_tensor::Matrix;
///
/// let cfg = MultiHeadConfig::new(2, AttentionConfig::new(2));
/// let mut batch = DecodeBatch::<f64>::new(cfg, 16);
/// let s0 = batch.add_sequence();
/// let q = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 1.0]]);
/// let k = Matrix::from_rows(&[&[0.5, 0.5, 0.5, 0.5]]);
/// let v = Matrix::from_rows(&[&[2.0, 4.0, 6.0, 8.0]]);
/// let out = batch.step_decode(&[s0], &q, &k, &v);
/// // First token: softmax weight 1 per head, output == v.
/// assert_eq!(out[0].output, vec![2.0, 4.0, 6.0, 8.0]);
/// assert!(out[0].residual().abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct DecodeBatch<T: Scalar> {
    cfg: HeadTopology,
    cache: KvCache<T>,
    /// One state record per sequence slot (live or retired).
    seqs: Vec<SequenceState<T>>,
    /// Maximum prompt tokens processed per pending prompt per
    /// [`prefill_step_for`](Self::prefill_step_for).
    prefill_chunk: usize,
    /// The effective sliding mask in tokens: the tighter of the head
    /// config's window and the eviction policy's window. `None` = full
    /// causal history.
    mask_window: Option<usize>,
    /// Whether appends retain each sequence's original rows for
    /// block-granular recovery (see [`guard`]). Off by default: serving
    /// without a recovery contract should not pay the log's memory.
    recovery_log: bool,
    /// Per-sequence recovery-log row budget: after truncation
    /// opportunities (scrub verdicts, eviction) the log retains at most
    /// this many rows beyond any still-unverified suffix. `None` =
    /// unbounded (the PR-6 behaviour).
    log_budget: Option<usize>,
    /// Background scrub policy; `None` disables
    /// [`scrub_step`](Self::scrub_step).
    scrub: Option<ScrubPolicy>,
    /// Round-robin scrub cursor: next sequence slot to audit.
    scrub_seq: usize,
    /// Round-robin scrub cursor: next retained block index within
    /// `scrub_seq`.
    scrub_block: usize,
    /// Total blocks audited by the scrubber (bandwidth accounting).
    scrubbed_blocks: u64,
    /// Registered shared prefixes by id (`None` = released).
    prefixes: Vec<Option<SharedPrefix<T>>>,
    /// Shared-block score tiles computed across all decode steps: each
    /// tile is one K-panel sweep that served ≥ 2 readers
    /// (observability; the k-GEMV path it replaces would have swept
    /// once per reader).
    shared_tiles: u64,
    /// Whether decode steps batch the scoring of blocks shared by
    /// several stepping sequences (one K-panel sweep for all readers).
    /// On by default; the bench toggles it off to measure the k-GEMV
    /// baseline. Off or on, outputs are bit-identical — the per-(query,
    /// row) dot kernel is the same.
    shared_scoring: bool,
    /// Step-local shared-score table and its persistent build buffers
    /// (see [`SharedScratch`]).
    shared_scratch: SharedScratch<T>,
    /// The open speculative decode window, if any (see [`spec`]): the
    /// per-sequence rollback snapshots plus the window's scored-token
    /// checksums, parked between [`speculate`](Self::speculate) and
    /// [`resolve_speculation`](Self::resolve_speculation). At most one
    /// window is open at a time, and every other mutating entry point
    /// asserts it is closed.
    spec_window: Option<spec::SpecWindow<T>>,
}

impl<T: Scalar> DecodeBatch<T> {
    /// Creates an empty engine with the given head topology and KV-cache
    /// block size (rows per block) and the default policy (native format,
    /// retain-all) — the PR-3 golden path. Accepts anything convertible
    /// into a [`HeadTopology`] — a topology itself, a
    /// [`MultiHeadConfig`](crate::multihead::MultiHeadConfig) (the
    /// `kv_heads == query_heads` point), or a
    /// [`GqaConfig`](crate::gqa::GqaConfig).
    ///
    /// # Panics
    ///
    /// Panics if `block_rows == 0`.
    pub fn new(cfg: impl Into<HeadTopology>, block_rows: usize) -> Self {
        Self::with_policy(
            cfg,
            block_rows,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        )
    }

    /// Creates an empty engine with explicit cache format and eviction
    /// policies — the full policy-layer constructor (the [`KvLayout`]
    /// argument is ignored: the cache is always head-major). With
    /// `KvFormat::F64` + `EvictionPolicy::RetainAll` the engine is
    /// bit-identical to the PR-3 golden path at every block size
    /// (property-tested), and with `kv_heads == query_heads` it is
    /// bit-identical to the PR-4 per-query-head engine across **all**
    /// policy combinations.
    ///
    /// The cache is allocated per **kv head**: each block holds
    /// `kv_heads` contiguous panels, so a grouped topology's arena bound
    /// (and its streamed bytes per decode step) is proportional to
    /// `kv_heads`, not `query_heads`.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows == 0`, or a sliding-window eviction policy
    /// has `window_blocks == 0`.
    pub fn with_policy(
        cfg: impl Into<HeadTopology>,
        block_rows: usize,
        layout: KvLayout,
        format: KvFormat,
        eviction: EvictionPolicy,
    ) -> Self {
        let cfg = cfg.into();
        // Fold the eviction window into the head mask: evicted positions
        // must be exactly the ones `visible_range` already excludes.
        let mask_window = match eviction.window_tokens(block_rows) {
            Some(w) => cfg.head.with_window_at_most(w).sliding_window(),
            None => cfg.head.sliding_window(),
        };
        DecodeBatch {
            cfg,
            cache: KvCache::with_policy(
                cfg.kv_heads,
                cfg.head.head_dim(),
                block_rows,
                layout,
                format,
                eviction,
            ),
            seqs: Vec::new(),
            prefill_chunk: DEFAULT_PREFILL_CHUNK,
            mask_window,
            recovery_log: false,
            log_budget: None,
            scrub: None,
            scrub_seq: 0,
            scrub_block: 0,
            scrubbed_blocks: 0,
            prefixes: Vec::new(),
            shared_scoring: true,
            shared_tiles: 0,
            shared_scratch: SharedScratch::default(),
            spec_window: None,
        }
    }

    /// Panics unless no speculative window is open — every mutating
    /// entry point other than the speculative pair calls this, so a
    /// window can only be closed by
    /// [`resolve_speculation`](Self::resolve_speculation) and the
    /// rollback invariants cannot be invalidated mid-window.
    fn assert_no_window(&self) {
        assert!(
            self.spec_window.is_none(),
            "a speculative window is open; resolve_speculation must run first"
        );
    }

    /// The head topology (query/kv head counts and the per-head kernel
    /// config).
    pub fn config(&self) -> &HeadTopology {
        &self.cfg
    }

    /// Maximum prompt tokens each listed pending prompt advances per
    /// [`prefill_step_for`](Self::prefill_step_for).
    pub fn prefill_chunk(&self) -> usize {
        self.prefill_chunk
    }

    /// Overrides the prefill chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `tokens == 0`.
    pub fn set_prefill_chunk(&mut self, tokens: usize) {
        assert!(tokens > 0, "prefill chunk must be positive");
        self.prefill_chunk = tokens;
    }

    /// Whether decode steps score blocks shared by several stepping
    /// sequences through one batched K-panel sweep.
    pub fn shared_scoring(&self) -> bool {
        self.shared_scoring
    }

    /// Toggles the shared-block batched scoring path. Outputs are
    /// bit-identical either way (same per-(query, row) dot kernel);
    /// turning it off forces the k-GEMV baseline the sharing bench
    /// compares against.
    pub fn set_shared_scoring(&mut self, on: bool) {
        self.shared_scoring = on;
    }

    /// Shared-block score tiles computed so far: each tile is one
    /// batched K-panel sweep that served at least two readers in the
    /// same decode step (the k-GEMV path would have swept the panel
    /// once per reader). Zero means the fast path never engaged.
    pub fn shared_score_tiles(&self) -> u64 {
        self.shared_tiles
    }

    /// Read-only view of the paged cache (serving metrics: arena size,
    /// free list, recycled-block counter).
    pub fn cache(&self) -> &KvCache<T> {
        &self.cache
    }

    /// Number of sequence slots ever registered (live + retired).
    pub fn num_sequences(&self) -> usize {
        self.cache.num_sequences()
    }

    /// Number of live (non-retired) sequences.
    pub fn live_sequences(&self) -> usize {
        self.cache.live_sequences()
    }

    /// Whether sequence slot `seq` is retired.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn is_retired(&self, seq: usize) -> bool {
        self.cache.is_retired(seq)
    }

    /// Number of cached positions for sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn seq_len(&self, seq: usize) -> usize {
        self.cache.seq_len(seq)
    }

    /// Registers a new (empty) sequence and returns its id, reusing a
    /// retired slot (and, transitively, its freed cache blocks) when one
    /// is available. The slot's per-sequence engine state is reset.
    pub fn add_sequence(&mut self) -> usize {
        let seq = self.cache.add_sequence();
        if seq == self.seqs.len() {
            self.seqs.push(SequenceState::fresh());
        } else {
            self.seqs[seq] = SequenceState::fresh();
        }
        seq
    }

    /// Retires sequence `seq`: its cache blocks return to the free lists
    /// for later admissions, its sumrow staging and any pending prompt
    /// chunks are dropped, and the slot becomes reusable. The running
    /// totals stay readable (for a final verdict) until the slot is
    /// reused by [`add_sequence`](Self::add_sequence) /
    /// [`enqueue`](Self::enqueue) / [`enqueue_shared`](Self::enqueue_shared).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or already retired.
    pub fn retire(&mut self, seq: usize) {
        self.assert_no_window();
        self.cache.retire_sequence(seq);
        let state = &mut self.seqs[seq];
        state.sumrows = Vec::new();
        state.pending = None;
        state.ready = None;
        state.log_k = Vec::new();
        state.log_v = Vec::new();
        state.log_start = 0;
        state.log_clean_until = 0;
    }

    /// Pre-fills sequence `seq` from prompt K/V matrices
    /// (`N × kv_dim`) **without computing attention** — for prompts
    /// whose pass was checked elsewhere. [`enqueue`](Self::enqueue) →
    /// [`prefill_step_for`](Self::prefill_step_for) is the checked
    /// admission path.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or out-of-range/retired `seq`.
    pub fn prefill(&mut self, seq: usize, k: &Matrix<T>, v: &Matrix<T>) {
        self.assert_no_window();
        assert_eq!(k.cols(), self.cfg.kv_dim(), "K width mismatch");
        assert_eq!(v.cols(), self.cfg.kv_dim(), "V width mismatch");
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        for i in 0..k.rows() {
            self.append_token(seq, k.row(i), v.row(i));
        }
        self.seqs[seq].prompt_tokens += k.rows();
    }

    /// Reserves KV-cache capacity for at least `additional_rows` more
    /// cached rows across all sequences (see [`KvCache::reserve_rows`]).
    pub fn reserve_rows(&mut self, additional_rows: usize) {
        self.cache.reserve_rows(additional_rows);
    }

    /// Running `Σ predicted − Σ actual` over the admitted prompt and
    /// every token decoded for `seq` through
    /// [`step_decode`](Self::step_decode) — the sequence-level ABFT
    /// verdict. Tokens decoded through
    /// [`step_all_unchecked`](Self::step_all_unchecked) are **not**
    /// covered; check [`unchecked_len`](Self::unchecked_len) before
    /// reading a zero residual as "every token verified".
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn global_residual(&self, seq: usize) -> f64 {
        let (predicted, actual) = self.seqs[seq].totals;
        predicted - actual
    }

    /// Prompt tokens cached for `seq` (admitted, chunk-processed, or
    /// prefilled).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn prompt_len(&self, seq: usize) -> usize {
        self.seqs[seq].prompt_tokens
    }

    /// Tokens of `seq` decoded with checksum coverage (via
    /// [`step_decode`](Self::step_decode)).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn checked_len(&self, seq: usize) -> usize {
        self.seqs[seq].checked_steps
    }

    /// Number of tokens of `seq` decoded without checksum coverage (via
    /// [`step_all_unchecked`](Self::step_all_unchecked)). Zero means the
    /// [`global_residual`](Self::global_residual) verdict covers the
    /// whole decoded history. Demotion and eviction do **not** count
    /// here: every per-token check completed exactly against the history
    /// as it stood; the policy boundaries those tokens' inputs have since
    /// crossed are reported explicitly by
    /// [`demoted_len`](Self::demoted_len) /
    /// [`evicted_len`](Self::evicted_len).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn unchecked_len(&self, seq: usize) -> usize {
        self.seqs[seq].unchecked_steps
    }

    /// Tokens decoded for `seq` through either decode path. For a live
    /// sequence, `prompt_len + decoded_len == seq_len` — the accounting
    /// invariant the coverage tests pin.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn decoded_len(&self, seq: usize) -> usize {
        self.seqs[seq].checked_steps + self.seqs[seq].unchecked_steps
    }

    /// Rows of `seq` demoted to BF16 — rows that left the full-precision
    /// checked window explicitly; their checksum inputs were recomputed
    /// from the rounded values, so later per-token verdicts stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn demoted_len(&self, seq: usize) -> usize {
        self.cache.demoted_rows(seq)
    }

    /// Rows of `seq` evicted below the sliding window — rows that left
    /// the attention (and checked) window entirely; the mask guarantees
    /// no later pass reads them.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn evicted_len(&self, seq: usize) -> usize {
        self.cache.first_retained(seq)
    }

    /// Caps the recovery log at `rows` retained rows per sequence.
    /// Leading rows beyond the budget are dropped at the next truncation
    /// opportunity **only once they stop being the sole witness**: their
    /// block passed a bitwise scrub/audit verdict
    /// ([`scrub_step`](Self::scrub_step) /
    /// [`checkpoint_recovery_log`](Self::checkpoint_recovery_log)) or was
    /// evicted below the sliding window. An unverified suffix is never
    /// dropped, so the log can transiently exceed the budget by exactly
    /// the rows the scrubber has not reached yet (debug-asserted).
    /// `None` restores the unbounded PR-6 behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `rows == Some(0)` (the newest row is always retained).
    pub fn set_recovery_log_budget(&mut self, rows: Option<usize>) {
        assert!(rows != Some(0), "recovery log budget must be positive");
        self.log_budget = rows;
    }

    /// Recovery-log rows retained for sequence `seq` (0 when the log is
    /// disabled; excludes budget-truncated leading rows).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn seq_log_rows(&self, seq: usize) -> usize {
        self.seqs[seq].log_k.len() / self.cache.width
    }

    /// Total recovery-log rows retained across all sequence slots — the
    /// bound [`set_recovery_log_budget`](Self::set_recovery_log_budget)
    /// makes testable (without a budget this grows with every appended
    /// row, forever).
    pub fn recovery_log_rows(&self) -> usize {
        self.seqs
            .iter()
            .map(|s| s.log_k.len() / self.cache.width)
            .sum()
    }

    /// Total heap bytes the recovery log's retained K and V rows occupy.
    pub fn recovery_log_bytes(&self) -> usize {
        self.seqs
            .iter()
            .map(|s| (s.log_k.len() + s.log_v.len()) * core::mem::size_of::<T>())
            .sum()
    }

    /// Drops leading log rows past the budget whose positions are
    /// scrub-verified or evicted — called after every append, scrub
    /// verdict, and checkpoint. A no-op without a budget.
    fn truncate_log(&mut self, seq: usize) {
        let Some(budget) = self.log_budget else {
            return;
        };
        if !self.recovery_log || self.cache.is_retired(seq) {
            return;
        }
        // Mid-window, truncation is deferred: dropping *leading* log
        // rows is not reversible by rolling back the tail, and the
        // window's own appends could push the length past the budget
        // before the rollback shrinks it again. The accepted prefix's
        // replay re-runs truncation on the exact non-speculative
        // schedule.
        if self.spec_window.is_some() {
            return;
        }
        let len = self.cache.seq_len(seq);
        let droppable = self.seqs[seq]
            .log_clean_until
            .max(self.cache.first_retained(seq));
        let width = self.cache.width;
        let state = &mut self.seqs[seq];
        let new_start = len.saturating_sub(budget).min(droppable);
        if new_start > state.log_start {
            let drop = (new_start - state.log_start) * width;
            state.log_k.drain(..drop);
            state.log_v.drain(..drop);
            state.log_start = new_start;
        }
        // The budget is never exceeded after truncation — except by the
        // still-unverified suffix, whose rows the log must keep (they are
        // the only recovery witness until a scrub verdict covers them).
        debug_assert!(
            len - state.log_start <= budget || state.log_start == droppable,
            "log rows exceed the budget beyond the unverified suffix"
        );
    }

    /// Installs (or clears) the background scrub policy consumed by
    /// [`scrub_step`](Self::scrub_step). The round-robin cursor persists
    /// across policy changes.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_step == 0` (a scrubber that never scrubs has
    /// no latency bound; use `None` to disable).
    pub fn set_scrub_policy(&mut self, policy: Option<ScrubPolicy>) {
        if let Some(p) = policy {
            assert!(p.blocks_per_step > 0, "blocks_per_step must be positive");
        }
        self.scrub = policy;
    }

    /// Total blocks the background scrubber has audited — the bandwidth
    /// side of the scrub tradeoff curve.
    pub fn scrubbed_blocks(&self) -> u64 {
        self.scrubbed_blocks
    }

    /// Retained blocks across all live sequences — one full scrub cycle
    /// covers exactly this many block audits, so a storage flip is
    /// detected within `ceil(live_blocks / blocks_per_step)` scrub steps.
    pub fn live_blocks(&self) -> usize {
        (0..self.cache.num_sequences())
            .filter(|&s| !self.cache.is_retired(s))
            .map(|s| self.cache.seqs[s].blocks.len())
            .sum()
    }

    /// Voluntarily demotes sequence `seq`'s completely-filled native
    /// blocks beyond the newest `burst_blocks` to BF16 — the **soft
    /// tier** of the serving frontend's preemption ladder under arena
    /// pressure (the hard tier is [`quarantine`](Self::quarantine) +
    /// [`resubmit`](Self::resubmit), i.e. evict-and-requeue with
    /// recompute-on-resume, which rebuilds the history at full precision
    /// and erases the demotion). Works under any [`KvFormat`], reusing
    /// the `Mixed` path's in-place block swap: each demoted block's rows
    /// round RNE into a BF16 arena block, the native block returns to
    /// the free list, the block's reference checksums rebuild from the
    /// rounded storage, and the demoted rows' `sumrow` checksum inputs
    /// refresh — so audits stay clean and the online verdict keeps
    /// predicting exactly what the output lanes consume. Returns the
    /// number of rows demoted (0 when nothing native qualifies; the
    /// call is idempotent at a given length and burst).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn demote(&mut self, seq: usize, burst_blocks: usize) -> usize {
        self.assert_no_window();
        let kv = self.cfg.kv_heads;
        let demoted = self.cache.demote_full_blocks(seq, burst_blocks);
        let first_retained = self.cache.first_retained(seq);
        let mut rows = 0;
        for range in demoted {
            for p in range {
                if p < first_retained {
                    continue;
                }
                for g in 0..kv {
                    self.seqs[seq].sumrows[p * kv + g] = self.cache.value_head_sum(seq, p, g);
                }
                rows += 1;
            }
        }
        rows
    }

    /// Gracefully degrades sequence `seq` after unrecoverable damage
    /// (evidence evicted, log truncated past the poisoned block, or
    /// checksum-absorbed corruption): every cache block returns to the
    /// free lists, checksum state and verdict totals reset, and — when
    /// the recovery log still covers the full history — the sequence is
    /// automatically requeued for recompute through the **existing
    /// chunked-prefill admission path** ([`prefill_step_for`](Self::prefill_step_for)
    /// advances it while the rest of the batch keeps decoding). The
    /// damage costs one sequence's latency, not the batch's verdict.
    ///
    /// When the log was truncated (or disabled) the caller must
    /// [`resubmit`](Self::resubmit) the K/V history itself
    /// ([`QuarantineReport::requeued_rows`] is 0).
    ///
    /// Once re-admitted, decode resumes **bit-identical** to an
    /// undamaged replay of the same history, and batch peers are
    /// bit-identical throughout (property-tested across format ×
    /// eviction × GQA group).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn quarantine(&mut self, seq: usize) -> QuarantineReport {
        self.assert_no_window();
        assert!(!self.cache.is_retired(seq), "sequence {seq} is retired");
        let len = self.cache.seq_len(seq);
        let width = self.cache.width;
        let state = &mut self.seqs[seq];
        state.pending = None;
        state.ready = None;
        state.sumrows = Vec::new();
        state.totals = (0.0, 0.0);
        state.prompt_tokens = 0;
        state.checked_steps = 0;
        state.unchecked_steps = 0;
        let full_log = self.recovery_log
            && state.log_start == 0
            && state.log_k.len() == len * width
            && len > 0;
        let history = if full_log {
            Some((
                Matrix::from_vec(len, width, core::mem::take(&mut state.log_k)),
                Matrix::from_vec(len, width, core::mem::take(&mut state.log_v)),
            ))
        } else {
            None
        };
        let log_rows_dropped = state.log_k.len() / width;
        state.log_k = Vec::new();
        state.log_v = Vec::new();
        state.log_start = 0;
        state.log_clean_until = 0;
        let blocks_freed = self.cache.release_blocks(seq);
        let requeued_rows = match history {
            Some((k, v)) => {
                self.resubmit(seq, &k, &v)
                    .expect("quarantine leaves the slot empty and unpending");
                len
            }
            None => 0,
        };
        QuarantineReport {
            blocks_freed,
            log_rows_dropped,
            requeued_rows,
        }
    }

    /// Requeues a quarantined sequence's full K/V history for
    /// recompute-on-resume: the rows re-cache chunk by chunk through the
    /// chunked-prefill admission machinery (appends, checksum rebuild,
    /// demotion/eviction maintenance — every policy replays on the
    /// append schedule, so the rebuilt cache state is bit-identical to an
    /// engine that never lost it), but no attention is scored — the
    /// sequence's outputs were already delivered before the damage. The
    /// sequence stays [`is_pending`](Self::is_pending) until its last
    /// chunk lands, then decodes normally; no [`AdmittedPrompt`] is
    /// parked.
    ///
    /// # Errors
    ///
    /// Returns a [`ResubmitError`] on shape mismatch, an empty history,
    /// or when `seq` lost a race (retired, still caching rows, or
    /// already pending) — the batch keeps serving either way.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range (an id the engine never issued is
    /// a caller bug, not a race).
    pub fn resubmit(
        &mut self,
        seq: usize,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Result<(), ResubmitError> {
        if k.cols() != self.cfg.kv_dim() || v.cols() != self.cfg.kv_dim() {
            return Err(ResubmitError::WidthMismatch {
                expected: self.cfg.kv_dim(),
                k_cols: k.cols(),
                v_cols: v.cols(),
            });
        }
        if k.rows() != v.rows() {
            return Err(ResubmitError::RowMismatch {
                k_rows: k.rows(),
                v_rows: v.rows(),
            });
        }
        if k.rows() == 0 {
            return Err(ResubmitError::EmptyHistory);
        }
        if self.cache.is_retired(seq) {
            return Err(ResubmitError::Retired { seq });
        }
        let cached_rows = self.cache.seq_len(seq);
        if cached_rows != 0 {
            return Err(ResubmitError::NotEmpty { seq, cached_rows });
        }
        if self.seqs[seq].pending.is_some() {
            return Err(ResubmitError::AlreadyPending { seq });
        }
        self.seqs[seq].pending = Some(PendingPrompt::new(None, k, v, 0, (0.0, 0.0)));
        Ok(())
    }

    fn append_token(&mut self, seq: usize, k: &[T], v: &[T]) {
        let anchor = self.cache.seq_len(seq);
        self.append_token_anchored(seq, k, v, anchor);
    }

    fn append_token_anchored(&mut self, seq: usize, k: &[T], v: &[T], anchor: usize) {
        let kv = self.cfg.kv_heads;
        if self.recovery_log {
            self.seqs[seq].log_k.extend_from_slice(k);
            self.seqs[seq].log_v.extend_from_slice(v);
        }
        let outcome = self.cache.append_anchored(seq, k, v, anchor);
        let pos = self.cache.seq_len(seq) - 1;
        // Checksum inputs come from the *stored* row: identical to the
        // input row for native storage (same values, same lane order),
        // RNE-rounded for BF16 storage — so the checksum lane always
        // predicts what the output lanes will actually consume. One
        // sumrow per **kv head**: every query head of a group reads the
        // same entry — the shared-`sumrow(V)` saving the paper notes GQA
        // inherits for free.
        for g in 0..kv {
            let sumrow = self.cache.value_head_sum(seq, pos, g);
            self.seqs[seq].sumrows.push(sumrow);
        }
        // Demoted rows changed value mid-sequence: refresh their sumrows
        // from the rounded storage. (A range can straddle eviction when
        // both policies fire on one claim; evicted positions are masked
        // forever, so skip them.)
        let first_retained = self.cache.first_retained(seq);
        for range in outcome.demoted {
            for p in range {
                if p < first_retained {
                    continue;
                }
                for g in 0..kv {
                    self.seqs[seq].sumrows[p * kv + g] = self.cache.value_head_sum(seq, p, g);
                }
            }
        }
        // Eviction below the window may have freed leading log rows; the
        // budget truncation runs opportunistically on the append path.
        self.truncate_log(seq);
    }

    /// Enqueues one prompt for **chunked** admission: the sequence id is
    /// assigned immediately (reusing retired slots), but no prompt token
    /// is cached or scored yet. Each
    /// [`prefill_step_for`](Self::prefill_step_for) that lists the id
    /// advances the prompt by at most [`prefill_chunk`](Self::prefill_chunk)
    /// tokens through the batched checked prefill, so a long prompt
    /// admits across several steps instead of stalling the decode batch;
    /// the decode entry points never advance it. Under [`KvFormat::F64`]
    /// (and any schedule in which no demotion fires mid-prompt) per-query
    /// outputs are bit-identical at every chunk size; under
    /// [`KvFormat::Mixed`] the chunk boundaries are *part of the
    /// semantics* — demotion follows the append schedule, so a chunk's
    /// queries score the burst's recent rows at full precision where one
    /// prompt-sized chunk (all rows appended first) would already have
    /// demoted them. That is the intended "f64 prefill burst": the policy
    /// proptests replay demotion at the exact chunk boundaries. The
    /// prompt checksums fold per chunk (same coverage, chunk-order Kahan
    /// rounding). Collect the finished admission with
    /// [`take_admitted`](Self::take_admitted).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn enqueue(&mut self, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> usize {
        assert_eq!(q.cols(), self.cfg.q_dim(), "prompt Q width mismatch");
        assert_eq!(k.cols(), self.cfg.kv_dim(), "prompt K width mismatch");
        assert_eq!(v.cols(), self.cfg.kv_dim(), "prompt V width mismatch");
        assert_eq!(q.rows(), k.rows(), "prompt Q/K row count mismatch");
        assert_eq!(k.rows(), v.rows(), "prompt K/V row count mismatch");
        let seq = self.add_sequence();
        self.seqs[seq].pending = Some(PendingPrompt::new(Some(q), k, v, 0, (0.0, 0.0)));
        seq
    }

    /// FNV-1a hash of a prompt prefix's K/V token bits (shape included)
    /// — the content key [`find_prefix`](Self::find_prefix) matches
    /// registered prefixes by.
    pub fn prefix_token_hash(k: &Matrix<T>, v: &Matrix<T>) -> u64 {
        fn fold(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fold(&mut h, k.rows() as u64);
        fold(&mut h, k.cols() as u64);
        for m in [k, v] {
            for i in 0..m.rows() {
                for x in m.row(i) {
                    fold(&mut h, x.to_f64().to_bits());
                }
            }
        }
        h
    }

    /// The registered, unreleased prefix whose token hash equals `hash`,
    /// if any (first match in registration order).
    pub fn find_prefix(&self, hash: u64) -> Option<usize> {
        self.prefixes
            .iter()
            .position(|p| p.as_ref().is_some_and(|p| p.token_hash == hash))
    }

    /// Registers a shared prompt prefix: the prefix is prefilled **once**
    /// through the normal chunked-admission machinery (checked passes,
    /// checksum folds, demotion/eviction maintenance — so the cached
    /// bits are exactly what an unshared admission of the same rows
    /// would produce at the same chunk schedule), then its blocks,
    /// reference checksums, `sumrow(V)` inputs, outputs and checksum
    /// totals move into the prefix registry. Returns the prefix id for
    /// [`enqueue_shared`](Self::enqueue_shared).
    ///
    /// The registry owns one reference per block; sequences admitted
    /// behind the prefix take additional references, and the blocks
    /// return to the free lists only when the registry
    /// ([`release_prefix`](Self::release_prefix)) **and** every reader
    /// have let go.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or an empty prefix.
    pub fn register_prefix(&mut self, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> usize {
        self.assert_no_window();
        assert!(k.rows() > 0, "empty prefix");
        let seq = self.enqueue(q, k, v);
        while self.prefill_step_for(&[seq]) > 0 {}
        let adm = self
            .take_admitted(seq)
            .expect("registration drains the prefix prompt");
        let sumrows = core::mem::take(&mut self.seqs[seq].sumrows);
        let (blocks, checks, start) = self.cache.detach_into_registry(seq);
        self.seqs[seq] = SequenceState::fresh();
        self.prefixes.push(Some(SharedPrefix {
            blocks,
            checks,
            start,
            rows: k.rows(),
            sumrows,
            k: k.clone(),
            v: v.clone(),
            output: adm.output,
            predicted: adm.predicted,
            actual: adm.actual,
            token_hash: Self::prefix_token_hash(k, v),
            readers: 0,
        }));
        self.prefixes.len() - 1
    }

    /// Releases the registry's references on prefix `id`. Live readers
    /// keep theirs — each block returns to its free list when its last
    /// reader evicts, quarantines or retires. The id becomes invalid.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already released.
    pub fn release_prefix(&mut self, id: usize) {
        self.assert_no_window();
        let p = self.prefixes[id].take().expect("prefix already released");
        for &blk in &p.blocks {
            self.cache.release_block(blk);
        }
    }

    /// Registered prefix `id`'s length in tokens.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or released.
    pub fn prefix_rows(&self, id: usize) -> usize {
        self.prefixes[id].as_ref().expect("released prefix").rows
    }

    /// Registered prefix `id`'s scored prompt outputs (`rows × q_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or released.
    pub fn prefix_output(&self, id: usize) -> &Matrix<f64> {
        &self.prefixes[id].as_ref().expect("released prefix").output
    }

    /// Registered prefix `id`'s cache blocks (registry-owned refs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or released.
    pub fn prefix_blocks(&self, id: usize) -> &[BlockRef] {
        &self.prefixes[id].as_ref().expect("released prefix").blocks
    }

    /// Sequences admitted behind prefix `id` so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or released.
    pub fn prefix_readers(&self, id: usize) -> usize {
        self.prefixes[id].as_ref().expect("released prefix").readers
    }

    /// Ids of all registered, unreleased prefixes.
    pub fn prefix_ids(&self) -> Vec<usize> {
        (0..self.prefixes.len())
            .filter(|&i| self.prefixes[i].is_some())
            .collect()
    }

    /// Enqueues a prompt **behind a registered shared prefix**: the new
    /// sequence adopts the prefix's cache blocks (one new reference
    /// each; zero K/V bytes copied), its reference checksums, `sumrow`
    /// inputs and checksum totals, then stages only the `suffix` rows
    /// for chunked prefill — so admitting `k` sequences with an
    /// `L`-token common prefix costs O(L + k·suffix) prefill work and
    /// blocks, not O(k·L).
    ///
    /// Everything downstream is bit-identical to an unshared
    /// [`enqueue`](Self::enqueue) of `prefix ‖ suffix` whose chunk
    /// schedule aligns a boundary at the prefix end (the prefix was
    /// prefilled on exactly that schedule at registration): the adopted
    /// blocks hold the same bits, appends past the prefix go to private
    /// blocks (copy-on-write if the prefix ends mid-block), and the
    /// suffix chunks score against the same history through the same
    /// kernels. The parked [`AdmittedPrompt`] covers the **suffix**
    /// rows; its checksum totals cover prefix + suffix. The prefix's
    /// own outputs are at [`prefix_output`](Self::prefix_output).
    ///
    /// With the recovery log enabled the reader's log is seeded with the
    /// prefix rows, so quarantine rebuilds the full history privately
    /// (sharing is lost, bits are not).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or released, or on suffix shape
    /// mismatch (an empty suffix — zero rows — is allowed and admits
    /// immediately).
    pub fn enqueue_shared(
        &mut self,
        id: usize,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> usize {
        assert_eq!(q.rows(), k.rows(), "suffix Q/K row count mismatch");
        assert_eq!(k.rows(), v.rows(), "suffix K/V row count mismatch");
        if q.rows() > 0 {
            assert_eq!(q.cols(), self.cfg.q_dim(), "suffix Q width mismatch");
            assert_eq!(k.cols(), self.cfg.kv_dim(), "suffix K width mismatch");
            assert_eq!(v.cols(), self.cfg.kv_dim(), "suffix V width mismatch");
        }
        let q_dim = self.cfg.q_dim();
        let p = self.prefixes[id].as_ref().expect("released prefix");
        let (blocks, checks, start, rows) = (p.blocks.clone(), p.checks.clone(), p.start, p.rows);
        let sumrows = p.sumrows.clone();
        let (predicted, actual) = (p.predicted, p.actual);
        let (log_k, log_v) = if self.recovery_log {
            let width = self.cfg.kv_dim();
            let mut lk = Vec::with_capacity(rows * width);
            let mut lv = Vec::with_capacity(rows * width);
            for i in 0..rows {
                lk.extend_from_slice(p.k.row(i));
                lv.extend_from_slice(p.v.row(i));
            }
            (lk, lv)
        } else {
            (Vec::new(), Vec::new())
        };
        let seq = self.add_sequence();
        self.cache.attach_shared(seq, &blocks, &checks, start, rows);
        let state = &mut self.seqs[seq];
        state.sumrows = sumrows;
        state.totals = (predicted, actual);
        state.prompt_tokens = rows;
        state.log_k = log_k;
        state.log_v = log_v;
        if q.rows() == 0 {
            state.ready = Some(AdmittedPrompt {
                seq,
                output: Matrix::zeros(0, q_dim),
                predicted,
                actual,
            });
        } else {
            state.pending = Some(PendingPrompt::new(Some(q), k, v, rows, (predicted, actual)));
        }
        self.prefixes[id].as_mut().expect("checked above").readers += 1;
        seq
    }

    /// Whether sequence `seq` still has prompt chunks waiting for
    /// prefill passes (such a sequence cannot decode yet).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn is_pending(&self, seq: usize) -> bool {
        self.seqs[seq].pending.is_some()
    }

    /// Prompt tokens of `seq` not yet cached/scored (0 once admission
    /// completed).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn pending_len(&self, seq: usize) -> usize {
        self.seqs[seq]
            .pending
            .as_ref()
            .map_or(0, |p| p.k.rows() - p.next)
    }

    /// Collects the completed admission of an [`enqueue`](Self::enqueue)d
    /// prompt: `Some` exactly once, after its last chunk was processed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn take_admitted(&mut self, seq: usize) -> Option<AdmittedPrompt> {
        self.seqs[seq].ready.take()
    }

    /// Advances the listed sequences' pending prompts by one bounded
    /// chunk each (at most [`prefill_chunk`](Self::prefill_chunk) prompt
    /// tokens) — the only way a prompt reaches the cache and the
    /// checksum totals. Each listed prompt's chunk K/V rows are appended
    /// in list order, then one checked **panel pass** per
    /// `prompt × kv_head` runs over the chunk's queries in ONE fork (each
    /// panel streams its kv head's blocks once for all the chunk's
    /// positions × `group_size` query heads), and each chunk's
    /// per-query-head Kahan checksums fold into the pending and
    /// per-sequence totals. Completed prompts park their
    /// [`AdmittedPrompt`] for [`take_admitted`](Self::take_admitted).
    ///
    /// Per (prompt, head) a one-chunk pass is the batched form of
    /// `flash_abft::flash2_with_checksum` on that head's `N × d` slices
    /// with a causal mask — same score/axpy kernels, same per-query
    /// merged accumulator recurrence, same Kahan finalization order — so
    /// each head's output rows and (predicted, actual) checksums are
    /// bit-identical to the standalone kernel (property-tested in
    /// `flash-abft`).
    ///
    /// The caller picks which prompts advance: the serving scheduler
    /// spends its prefill share here and every remaining budget token on
    /// [`step_decode`](Self::step_decode). Ids without a pending prompt
    /// are skipped. Returns the prompt tokens processed.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range or listed twice, or (when a
    /// listed prompt is pending) if a speculative window is open.
    pub fn prefill_step_for(&mut self, seqs: &[usize]) -> usize {
        for (i, &s) in seqs.iter().enumerate() {
            assert!(
                !seqs[..i].contains(&s),
                "duplicate sequence id {s} in one prefill step"
            );
        }
        let ids: Vec<usize> = seqs
            .iter()
            .copied()
            .filter(|&s| self.seqs[s].pending.is_some())
            .collect();
        if ids.is_empty() {
            return 0;
        }
        self.assert_no_window();
        let h = self.cfg.query_heads;
        let kv = self.cfg.kv_heads;
        let gs = self.cfg.group_size();
        let d = self.cfg.head.head_dim();
        let chunk = self.prefill_chunk;

        // Phase 1 (serial, cheap): cache each prompt's chunk rows.
        let mut spans = Vec::with_capacity(ids.len());
        for &seq in &ids {
            let pend = self.seqs[seq]
                .pending
                .take()
                .expect("filtered to pending sequences");
            let p0 = pend.next;
            let p1 = p0.saturating_add(chunk).min(pend.k.rows());
            let cache_only = pend.cache_only;
            // Prompt rows are suffix-relative; `base` shifts them to
            // absolute positions (non-zero behind a shared prefix).
            let base = pend.base;
            for i in p0..p1 {
                // Anchor eviction at the chunk's first query: its pass
                // has not run yet and may attend below the newest row's
                // window. (Cache-only requeues have no outstanding pass,
                // but keep the same anchor so the eviction/demotion
                // schedule replays the original admission exactly.)
                self.append_token_anchored(seq, pend.k.row(i), pend.v.row(i), base + p0);
            }
            self.seqs[seq].pending = Some(pend);
            self.seqs[seq].prompt_tokens += p1 - p0;
            spans.push((seq, p0, p1, cache_only));
        }

        // Phase 2: one fork over all prompt×kv_head chunk panels.
        // Few-but-huge work units: each pair is an O(N²·d·group)-ish
        // pass, so even a 2-way fork pays — the decode-tuned rows≥16
        // floor of `worth_parallelizing` would serialize small batches of
        // long prompts.
        let pairs: Vec<(usize, usize)> = (0..spans.len())
            .flat_map(|si| (0..kv).map(move |g| (si, g)))
            .collect();
        let per_pair_elems = spans
            .iter()
            .filter(|&&(_, _, _, cache_only)| !cache_only)
            .map(|&(_, p0, p1, _)| (p1 * p1).saturating_sub(p0 * p0) / 2 * d * gs)
            .max()
            .unwrap_or(0);
        let engine = &*self;
        // Each pair is one panel over the chunk's positions, yielding its
        // states in (query, member) order: entry `j·group_size + m` is
        // chunk query `p0 + j`, member `m` of kv head `g` (query head
        // `g·group_size + m`). Cache-only requeues yield no states: their
        // appends are the whole job.
        let pass = |(si, g): (usize, usize)| {
            let (seq, p0, p1, cache_only) = spans[si];
            if cache_only {
                return Vec::new();
            }
            let pend = engine.seqs[seq].pending.as_ref().expect("pending survives");
            let queries = pass::pack_panel(&pend.q, p0..p1, engine.cfg.group_q_cols(g));
            engine.panel_pass(seq, g, &queries, pend.base + p0, true, None)
        };
        let states: Vec<Vec<HeadState>> =
            if crate::par::worth_parallelizing_units(pairs.len(), per_pair_elems) {
                pairs.into_par_iter().map(pass).collect()
            } else {
                pairs.into_iter().map(pass).collect()
            };

        // Phase 3: finalize per prompt in (query head, query) order on
        // this thread — the same Kahan order as flash2_with_checksum per
        // head, folded once per chunk.
        let mut processed = 0;
        for (si, &(seq, p0, p1, cache_only)) in spans.iter().enumerate() {
            processed += p1 - p0;
            let mut pend = self.seqs[seq].pending.take().expect("pending survives");
            if cache_only {
                // No scoring, no checksum fold, no parked admission —
                // just advance the chunk cursor and catch eviction up.
                pend.next = p1;
                self.cache.evict_to_newest(seq);
                if p1 < pend.k.rows() {
                    self.seqs[seq].pending = Some(pend);
                }
                continue;
            }
            let mut predicted = 0.0f64;
            let mut actual = 0.0f64;
            for hi in 0..h {
                let (g, m) = (hi / gs, hi % gs);
                let group_states = &states[si * kv + g];
                let mut pred = KahanSum::new();
                let mut act = KahanSum::new();
                for j in 0..p1 - p0 {
                    let state = &group_states[j * gs + m];
                    let p = p0 + j;
                    for (c, &lane) in state.lanes[..d].iter().enumerate() {
                        let val = lane / state.sum_exp;
                        pend.output[(p, hi * d + c)] = val;
                        act.add(val);
                    }
                    pred.add(state.lanes[d] / state.sum_exp);
                }
                predicted += pred.value();
                actual += act.value();
            }
            pend.predicted += predicted;
            pend.actual += actual;
            pend.next = p1;
            let totals = &mut self.seqs[seq].totals;
            totals.0 += predicted;
            totals.1 += actual;
            // The chunk's passes ran: release rows its anchored appends
            // had to retain below the newest position's window.
            self.cache.evict_to_newest(seq);
            if p1 == pend.k.rows() {
                self.seqs[seq].ready = Some(AdmittedPrompt {
                    seq,
                    output: pend.output,
                    predicted: pend.predicted,
                    actual: pend.actual,
                });
            } else {
                self.seqs[seq].pending = Some(pend);
            }
        }
        processed
    }

    /// Decodes one token for every listed sequence, with the fused online
    /// checksum riding each query head's pass.
    ///
    /// Row `i` of `qs` (`batch × q_dim`) and of `ks`/`vs`
    /// (`batch × kv_dim`) is the new token of `seq_ids[i]`. All K/V rows
    /// are appended first, then every `sequence × kv_head` 1-position
    /// panel pass is scheduled across the shared rayon pool in one fork —
    /// each pass streams its kv head's contiguous blocks once while
    /// feeding all `group_size` query-head states; per-head states are
    /// combined in input order on the calling thread, so the result is
    /// bit-identical at every thread count and to serial per-sequence
    /// decode.
    ///
    /// Only the listed sequences decode: a pending prompt is never
    /// advanced here (listing one panics), so admission runs only where
    /// the caller schedules [`prefill_step_for`](Self::prefill_step_for).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, out-of-range, retired, pending, or
    /// duplicate sequence ids.
    pub fn step_decode(
        &mut self,
        seq_ids: &[usize],
        qs: &Matrix<T>,
        ks: &Matrix<T>,
        vs: &Matrix<T>,
    ) -> Vec<DecodeStepOutput> {
        let states = self.run_passes(seq_ids, qs, ks, vs, true);
        // Finalize in input order on this thread (Alg. 3 lines 9–11).
        let h = self.cfg.query_heads;
        let mut outputs = Vec::with_capacity(seq_ids.len());
        for (i, &seq) in seq_ids.iter().enumerate() {
            let out = pass::finalize_token(self.cfg.q_dim(), &states[i * h..(i + 1) * h]);
            let state = &mut self.seqs[seq];
            state.totals.0 += out.predicted;
            state.totals.1 += out.actual;
            state.checked_steps += 1;
            outputs.push(out);
        }
        outputs
    }

    /// [`step_decode`](Self::step_decode) without the checksum lane — the
    /// unchecked baseline the overhead benchmark compares against.
    /// Returns only the normalized output rows. Tokens decoded this way
    /// still advance the cache but are **excluded** from the
    /// [`global_residual`](Self::global_residual) session verdict; the
    /// per-sequence [`unchecked_len`](Self::unchecked_len) counter
    /// records the coverage gap. Like `step_decode`, it never advances a
    /// pending prompt.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, out-of-range, retired, pending, or
    /// duplicate sequence ids.
    pub fn step_all_unchecked(
        &mut self,
        seq_ids: &[usize],
        qs: &Matrix<T>,
        ks: &Matrix<T>,
        vs: &Matrix<T>,
    ) -> Vec<Vec<f64>> {
        let states = self.run_passes(seq_ids, qs, ks, vs, false);
        for &seq in seq_ids {
            self.seqs[seq].unchecked_steps += 1;
        }
        let h = self.cfg.query_heads;
        (0..seq_ids.len())
            .map(|i| pass::finalize_token(self.cfg.q_dim(), &states[i * h..(i + 1) * h]).output)
            .collect()
    }

    /// Appends every input token, then runs all `batch × kv_heads`
    /// 1-position panel passes in a single fork. Returns one
    /// [`HeadState`] per (sequence, **query head**), in query-head order
    /// per sequence.
    fn run_passes(
        &mut self,
        seq_ids: &[usize],
        qs: &Matrix<T>,
        ks: &Matrix<T>,
        vs: &Matrix<T>,
        checked: bool,
    ) -> Vec<HeadState> {
        assert_eq!(qs.cols(), self.cfg.q_dim(), "Q width mismatch");
        assert_eq!(ks.cols(), self.cfg.kv_dim(), "K width mismatch");
        assert_eq!(vs.cols(), self.cfg.kv_dim(), "V width mismatch");
        self.assert_no_window();
        let batch = seq_ids.len();
        assert_eq!(qs.rows(), batch, "one Q row per sequence id");
        assert_eq!(ks.rows(), batch, "one K row per sequence id");
        assert_eq!(vs.rows(), batch, "one V row per sequence id");
        for (i, &s) in seq_ids.iter().enumerate() {
            assert!(s < self.num_sequences(), "unknown sequence id {s}");
            assert!(!self.cache.is_retired(s), "sequence {s} is retired");
            assert!(
                !self.is_pending(s),
                "sequence {s} still has pending prompt chunks"
            );
            assert!(
                !seq_ids[..i].contains(&s),
                "duplicate sequence id {s} in one step"
            );
        }

        // Phase 1 (serial, cheap): append every new token.
        for (i, &seq) in seq_ids.iter().enumerate() {
            self.append_token(seq, ks.row(i), vs.row(i));
        }

        // Shared-block batched scoring: when several stepping sequences
        // read one physical block (a shared prefix), score it once per
        // (block, kv head) for all readers — the K panel streams from
        // DRAM once instead of once per reader. Built serially before
        // the fork; the passes consume the precomputed slices.
        let mut scratch = std::mem::take(&mut self.shared_scratch);
        self.shared_tiles += self.build_shared_scores(seq_ids, qs, &mut scratch);

        // Phase 2: one fork over all sequence×kv_head panel passes. Each
        // unit owns one kv head's contiguous K/V stream and computes all
        // of its group's query-head states in one sweep; flattening the
        // (sequence-major, kv-head-major, member) results yields exactly
        // query-head order per sequence.
        let kv = self.cfg.kv_heads;
        let gs = self.cfg.group_size();
        let d = self.cfg.head.head_dim();
        let work = batch * kv;
        let max_len = seq_ids
            .iter()
            .map(|&s| self.cache.seq_len(s))
            .max()
            .unwrap_or(0);
        let pass = |flat: usize| {
            let (i, g) = (flat / kv, flat % kv);
            let seq = seq_ids[i];
            // A group's query heads are contiguous in the packed Q row;
            // the pass's shared-score row is one flat-row lookup.
            self.panel_pass(
                seq,
                g,
                &qs.row(i)[self.cfg.group_q_cols(g)],
                self.cache.seq_len(seq) - 1,
                checked,
                scratch.tiles_for(flat),
            )
        };
        let groups: Vec<Vec<HeadState>> = if crate::par::worth_parallelizing(work, max_len, d * gs)
        {
            (0..work).into_par_iter().map(pass).collect()
        } else {
            (0..work).map(pass).collect()
        };
        self.shared_scratch = scratch;
        groups.into_iter().flatten().collect()
    }
}

pub mod guard;
mod pass;
pub mod scrub;
pub mod spec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodeSession;
    use crate::gqa::GqaConfig;
    use crate::multihead::MultiHeadConfig;
    use crate::AttentionConfig;
    use fa_tensor::random::ElementDist;

    fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
    }

    /// Enqueues one prompt and admits it in a single chunk (the prompt
    /// must fit the engine's prefill chunk).
    fn admit(
        e: &mut DecodeBatch<f64>,
        q: &Matrix<f64>,
        k: &Matrix<f64>,
        v: &Matrix<f64>,
    ) -> AdmittedPrompt {
        let seq = e.enqueue(q, k, v);
        e.prefill_step_for(&[seq]);
        e.take_admitted(seq).expect("prompt fits one prefill chunk")
    }

    #[test]
    fn head_major_blocks_are_contiguous_per_head() {
        // Dim 2, 3-row blocks: each head's panel must stream as one
        // contiguous span and reproduce the appended rows in position
        // order. Lane `c` of head `h` at position `i` holds
        // `tag + 20h + 10c + i` (values use `tag + 40`).
        let lanes = |tag: f64, h: usize, i: usize| {
            let x = tag + 20.0 * h as f64 + i as f64;
            [x, x + 10.0]
        };
        let row = |tag: f64, heads: usize, i: usize| -> Vec<f64> {
            (0..heads).flat_map(|h| lanes(tag, h, i)).collect()
        };
        let check = |cache: &KvCache<f64>, s: usize, tag: f64, len: usize| {
            for head in 0..cache.num_heads() {
                let mut pos = 0;
                for blk in cache.head_stream(s, head) {
                    assert_eq!(blk.first, pos);
                    let HeadBlockData::Native { k, v } = blk.data else {
                        panic!("default-policy cache yields native blocks");
                    };
                    assert_eq!(k.len(), blk.rows * 2, "one contiguous panel");
                    for r in 0..blk.rows {
                        let i = blk.first + r;
                        assert_eq!(k[r * 2..r * 2 + 2], lanes(tag, head, i));
                        assert_eq!(v[r * 2..r * 2 + 2], lanes(tag + 40.0, head, i));
                    }
                    pos += blk.rows;
                }
                assert_eq!(pos, len);
            }
        };

        // One 2-head sequence.
        let mut cache = KvCache::<f64>::new(2, 2, 3);
        let s = cache.add_sequence();
        for i in 0..7 {
            cache.append(s, &row(0.0, 2, i), &row(40.0, 2, i));
        }
        check(&cache, s, 0.0, 7);
        // Gathered full rows agree with the appended ones.
        assert_eq!(cache.key_row(s, 4), vec![4.0, 14.0, 24.0, 34.0]);
        assert_eq!(cache.value_row(s, 6), vec![46.0, 56.0, 66.0, 76.0]);

        // Two 1-head sequences whose appends interleave, so their blocks
        // interleave in the arena.
        let mut cache = KvCache::<f64>::new(1, 2, 3);
        let (s0, s1) = (cache.add_sequence(), cache.add_sequence());
        for i in 0..7 {
            cache.append(s0, &row(0.0, 1, i), &row(40.0, 1, i));
            if i < 4 {
                cache.append(s1, &row(100.0, 1, i), &row(140.0, 1, i));
            }
        }
        let indices = |s| {
            cache
                .seq_blocks(s)
                .iter()
                .map(|b| b.index)
                .collect::<Vec<_>>()
        };
        assert_eq!((indices(s0), indices(s1)), (vec![0, 2, 4], vec![1, 3]));
        check(&cache, s0, 0.0, 7);
        check(&cache, s1, 100.0, 4);
        assert_eq!(cache.key_row(s1, 3)[0], 103.0);
    }

    #[test]
    fn retired_blocks_are_recycled_not_leaked() {
        let mut cache = KvCache::<f64>::new(1, 2, 2);
        let s0 = cache.add_sequence();
        for i in 0..6 {
            cache.append(s0, &[i as f64, 0.0], &[0.0, 0.0]);
        }
        assert_eq!(cache.allocated_blocks(), 3);
        cache.retire_sequence(s0);
        assert_eq!(cache.free_block_list().len(), 3);
        assert_eq!(cache.live_sequences(), 0);

        // A new sequence reuses the slot id and the freed blocks — the
        // arena must not grow.
        let s1 = cache.add_sequence();
        assert_eq!(s1, s0, "retired slot is reused");
        for i in 0..6 {
            cache.append(s1, &[100.0 + i as f64, 0.0], &[0.0, 0.0]);
        }
        assert_eq!(cache.allocated_blocks(), 3, "no new arena growth");
        assert_eq!(cache.recycled_blocks(), 3);
        assert!(cache.free_block_list().is_empty());
        assert_eq!(cache.key_row(s1, 5)[0], 105.0);
    }

    #[test]
    #[should_panic(expected = "is retired")]
    fn retired_sequence_access_panics() {
        let mut cache = KvCache::<f64>::new(1, 2, 2);
        let s = cache.add_sequence();
        cache.append(s, &[1.0, 2.0], &[3.0, 4.0]);
        cache.retire_sequence(s);
        let _ = cache.seq_len(s);
    }

    #[test]
    fn batched_decode_matches_serial_sessions_bitwise() {
        // The load-bearing equivalence: DecodeBatch over S sequences and
        // H heads must equal one DecodeSession per (sequence, head), bit
        // for bit, for any cache block size.
        let cfg = MultiHeadConfig::new(3, AttentionConfig::new(4));
        let (s, steps) = (4, 6);
        for block_rows in [1, 2, 16] {
            let mut batch = DecodeBatch::<f64>::new(cfg, block_rows);
            let ids: Vec<usize> = (0..s).map(|_| batch.add_sequence()).collect();
            let mut sessions: Vec<Vec<DecodeSession<f64>>> = (0..s)
                .map(|_| (0..3).map(|_| DecodeSession::new(cfg.head)).collect())
                .collect();
            for t in 0..steps {
                let seed = 9000 + t as u64;
                let qs = rand(s, cfg.model_dim(), seed);
                let ks = rand(s, cfg.model_dim(), seed + 100);
                let vs = rand(s, cfg.model_dim(), seed + 200);
                let outs = batch.step_decode(&ids, &qs, &ks, &vs);
                for (i, out) in outs.iter().enumerate() {
                    for (h, session) in sessions[i].iter_mut().enumerate() {
                        let slice = |m: &Matrix<f64>| m.row(i)[h * 4..(h + 1) * 4].to_vec();
                        let reference = session.step(&slice(&qs), &slice(&ks), &slice(&vs));
                        for (c, r) in reference.iter().enumerate() {
                            assert_eq!(
                                out.output[h * 4 + c].to_bits(),
                                r.to_bits(),
                                "block_rows {block_rows} step {t} seq {i} head {h} lane {c}"
                            );
                        }
                    }
                    assert!(out.residual().abs() < 1e-12, "checksum holds");
                }
            }
            for &id in &ids {
                assert!(batch.global_residual(id).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn step_decode_parallel_bit_identical_any_thread_count() {
        let cfg = MultiHeadConfig::new(4, AttentionConfig::new(8));
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut batch = DecodeBatch::<f64>::new(cfg, 8);
                    let ids: Vec<usize> = (0..6).map(|_| batch.add_sequence()).collect();
                    for &id in &ids {
                        batch.prefill(
                            id,
                            &rand(40, cfg.model_dim(), 70 + id as u64),
                            &rand(40, cfg.model_dim(), 80 + id as u64),
                        );
                    }
                    let qs = rand(6, cfg.model_dim(), 1);
                    let ks = rand(6, cfg.model_dim(), 2);
                    let vs = rand(6, cfg.model_dim(), 3);
                    batch.step_decode(&ids, &qs, &ks, &vs)
                })
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            let parallel = run(threads);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
                assert_eq!(a.actual.to_bits(), b.actual.to_bits());
                for (x, y) in a.output.iter().zip(&b.output) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn admit_matches_prefill_then_decode_bitwise() {
        // A sequence admitted under the fused checksum must decode
        // exactly like one prefilled without checking: admission only
        // adds the prompt verification, never changes the cached state.
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let dim = cfg.model_dim();
        let (pq, pk, pv) = (rand(9, dim, 40), rand(9, dim, 41), rand(9, dim, 42));

        let mut admitted = DecodeBatch::<f64>::new(cfg, 4);
        let prompt = admit(&mut admitted, &pq, &pk, &pv);
        assert!(prompt.residual().abs() < 1e-10, "prompt check holds");
        assert_eq!(prompt.output.rows(), 9);
        assert_eq!(admitted.prompt_len(prompt.seq), 9);

        let mut prefilled = DecodeBatch::<f64>::new(cfg, 4);
        let seq = prefilled.add_sequence();
        prefilled.prefill(seq, &pk, &pv);

        for t in 0..3 {
            let qs = rand(1, dim, 60 + t);
            let ks = rand(1, dim, 70 + t);
            let vs = rand(1, dim, 80 + t);
            let a = admitted.step_decode(&[prompt.seq], &qs, &ks, &vs);
            let b = prefilled.step_decode(&[seq], &qs, &ks, &vs);
            assert_eq!(a[0].output, b[0].output, "step {t}");
            assert_eq!(a[0].predicted.to_bits(), b[0].predicted.to_bits());
        }
        assert!(admitted.global_residual(prompt.seq).abs() < 1e-9);
    }

    #[test]
    fn prefill_step_for_parallel_bit_identical_any_thread_count() {
        let cfg = MultiHeadConfig::new(4, AttentionConfig::new(8));
        let dim = cfg.model_dim();
        let prompts: Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)> = (0..5)
            .map(|i| {
                let n = 20 + 5 * i;
                (
                    rand(n, dim, 500 + i as u64),
                    rand(n, dim, 600 + i as u64),
                    rand(n, dim, 700 + i as u64),
                )
            })
            .collect();
        // All five prompts advance together, one prompt×kv_head fork per
        // chunk; the two longest span two chunks.
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut batch = DecodeBatch::<f64>::new(cfg, 8);
                    let ids: Vec<usize> = prompts
                        .iter()
                        .map(|(q, k, v)| batch.enqueue(q, k, v))
                        .collect();
                    while batch.prefill_step_for(&ids) > 0 {}
                    ids.iter()
                        .map(|&s| batch.take_admitted(s).expect("drained"))
                        .collect::<Vec<_>>()
                })
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.output, b.output, "{threads} threads");
                assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
                assert_eq!(a.actual.to_bits(), b.actual.to_bits());
            }
        }
    }

    #[test]
    fn retire_and_readmit_preserves_neighbour_state() {
        // Retiring a sequence mid-flight must not disturb the survivors'
        // outputs or checksum state, and the replacement must behave like
        // a fresh engine's sequence despite running on recycled blocks.
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let dim = cfg.model_dim();
        let mut engine = DecodeBatch::<f64>::new(cfg, 2);
        let mut lone = DecodeBatch::<f64>::new(cfg, 2);

        let (q0, k0, v0) = (rand(6, dim, 1), rand(6, dim, 2), rand(6, dim, 3));
        let (q1, k1, v1) = (rand(4, dim, 4), rand(4, dim, 5), rand(4, dim, 6));
        let a = admit(&mut engine, &q0, &k0, &v0);
        let b = admit(&mut engine, &q1, &k1, &v1);
        let lone_a = admit(&mut lone, &q0, &k0, &v0);
        assert_eq!(a.output, lone_a.output, "co-admission changes nothing");

        // Decode both, retire b, decode a alone (mirrored on `lone`).
        let step = |e: &mut DecodeBatch<f64>, ids: &[usize], t: u64, width: usize| {
            let qs = rand(width, dim, 900 + t);
            let ks = rand(width, dim, 910 + t);
            let vs = rand(width, dim, 920 + t);
            e.step_decode(ids, &qs, &ks, &vs)
        };
        let both = step(&mut engine, &[a.seq, b.seq], 0, 2);
        let solo = {
            let qs = rand(2, dim, 900);
            let ks = rand(2, dim, 910);
            let vs = rand(2, dim, 920);
            let sliced = |m: &Matrix<f64>| Matrix::from_fn(1, dim, |_, c| m[(0, c)]);
            lone.step_decode(&[lone_a.seq], &sliced(&qs), &sliced(&ks), &sliced(&vs))
        };
        assert_eq!(both[0].output, solo[0].output);

        engine.retire(b.seq);
        assert!(engine.is_retired(b.seq));
        assert_eq!(engine.live_sequences(), 1);

        // Readmit onto the recycled blocks; survivor keeps decoding
        // bit-identically to its lone twin.
        let (q2, k2, v2) = (rand(5, dim, 7), rand(5, dim, 8), rand(5, dim, 9));
        let c = admit(&mut engine, &q2, &k2, &v2);
        assert_eq!(c.seq, b.seq, "slot reuse");
        assert!(engine.cache().recycled_blocks() > 0, "blocks recycled");
        for t in 1..4 {
            let outs = step(&mut engine, &[a.seq, c.seq], t, 2);
            let qs = rand(2, dim, 900 + t);
            let ks = rand(2, dim, 910 + t);
            let vs = rand(2, dim, 920 + t);
            let sliced = |m: &Matrix<f64>| Matrix::from_fn(1, dim, |_, c| m[(0, c)]);
            let solo = lone.step_decode(&[lone_a.seq], &sliced(&qs), &sliced(&ks), &sliced(&vs));
            assert_eq!(outs[0].output, solo[0].output, "step {t}");
            assert!(outs[1].residual().abs() < 1e-10, "readmitted seq checks");
        }
        assert!(engine.global_residual(a.seq).abs() < 1e-9);
        assert!(engine.global_residual(c.seq).abs() < 1e-9);
    }

    #[test]
    fn unchecked_matches_checked_outputs() {
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let mut checked = DecodeBatch::<f64>::new(cfg, 4);
        let mut unchecked = DecodeBatch::<f64>::new(cfg, 4);
        let ids = vec![checked.add_sequence()];
        let _ = unchecked.add_sequence();
        for t in 0..5 {
            let qs = rand(1, 8, 300 + t);
            let ks = rand(1, 8, 400 + t);
            let vs = rand(1, 8, 500 + t);
            let a = checked.step_decode(&ids, &qs, &ks, &vs);
            let b = unchecked.step_all_unchecked(&ids, &qs, &ks, &vs);
            assert_eq!(a[0].output, b[0], "step {t}");
        }
        // The session verdict covers all of `checked`'s tokens and none
        // of `unchecked`'s — and says so.
        assert_eq!(checked.unchecked_len(ids[0]), 0);
        assert_eq!(checked.checked_len(ids[0]), 5);
        assert_eq!(unchecked.unchecked_len(ids[0]), 5);
        assert_eq!(unchecked.checked_len(ids[0]), 0);
        // Both paths report the same total decoded-token count, and the
        // cache length decomposes into prompt + decoded.
        assert_eq!(checked.decoded_len(ids[0]), unchecked.decoded_len(ids[0]));
        assert_eq!(
            checked.seq_len(ids[0]),
            checked.prompt_len(ids[0]) + checked.decoded_len(ids[0])
        );
    }

    #[test]
    fn sliding_window_matches_decode_session() {
        let head = AttentionConfig::new(2).with_sliding_window(3);
        let cfg = MultiHeadConfig::new(1, head);
        let mut batch = DecodeBatch::<f64>::new(cfg, 2);
        let ids = vec![batch.add_sequence()];
        let mut session = DecodeSession::new(head);
        for t in 0..8 {
            let qs = rand(1, 2, 600 + t);
            let ks = rand(1, 2, 700 + t);
            let vs = rand(1, 2, 800 + t);
            let out = batch.step_decode(&ids, &qs, &ks, &vs);
            let reference = session.step(qs.row(0), ks.row(0), vs.row(0));
            for (a, b) in out[0].output.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {t}");
            }
        }
    }

    #[test]
    fn corrupted_totals_are_visible() {
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let mut batch = DecodeBatch::<f64>::new(cfg, 4);
        let ids = vec![batch.add_sequence()];
        for t in 0..4 {
            let _ = batch.step_decode(
                &ids,
                &rand(1, 8, t),
                &rand(1, 8, 50 + t),
                &rand(1, 8, 90 + t),
            );
        }
        assert!(batch.global_residual(ids[0]).abs() < 1e-10);
        batch.seqs[ids[0]].totals.0 += 0.5; // simulated fault on the predicted side
        assert!(batch.global_residual(ids[0]).abs() > 0.4);
    }

    /// The demotion-rounding regression (the RNE/truncation split): every
    /// cache path that narrows to BF16 must round to nearest, ties to
    /// even — mantissa truncation gives a different bit pattern on these
    /// inputs, so this test fails loudly if either path regresses.
    #[test]
    fn round_bf16_is_rne_not_truncation() {
        // 0x3F80_8001 is just above the 1.0 / 1.0+ε tie: RNE rounds up to
        // 0x3F81, truncation keeps 0x3F80.
        let above_tie = f32::from_bits(0x3F80_8001) as f64;
        assert_eq!(round_bf16(above_tie).to_bits(), 0x3F81);
        // 0x3F81_8000 is an exact tie with an odd kept mantissa: RNE
        // rounds to even 0x3F82, truncation keeps 0x3F81.
        let tie_odd = f32::from_bits(0x3F81_8000) as f64;
        assert_eq!(round_bf16(tie_odd).to_bits(), 0x3F82);

        // Both narrowing paths — direct BF16 appends and in-place block
        // demotion — must produce exactly these RNE patterns.
        let row = [above_tie, tie_odd];
        let mut direct = KvCache::<f64>::with_policy(
            1,
            2,
            2,
            KvLayout::HeadMajor,
            KvFormat::Bf16,
            EvictionPolicy::RetainAll,
        );
        let s = direct.add_sequence();
        direct.append(s, &row, &row);
        let stored = direct.key_row(s, 0);
        assert_eq!(stored[0], round_bf16(above_tie).to_f64());
        assert_eq!(stored[1], round_bf16(tie_odd).to_f64());

        let mut mixed = KvCache::<f64>::with_policy(
            1,
            2,
            1,
            KvLayout::HeadMajor,
            KvFormat::Mixed { burst_blocks: 0 },
            EvictionPolicy::RetainAll,
        );
        let s = mixed.add_sequence();
        let outcome_first = mixed.append(s, &row, &row);
        assert!(outcome_first.demoted.is_empty(), "nothing to demote yet");
        // Claiming the second block demotes the first (burst 0).
        let outcome = mixed.append(s, &[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(outcome.demoted, vec![0..1]);
        let demoted = mixed.value_row(s, 0);
        assert_eq!(demoted[0], round_bf16(above_tie).to_f64());
        assert_eq!(demoted[1], round_bf16(tie_odd).to_f64());
        assert_eq!(mixed.demoted_rows(s), 1);
    }

    #[test]
    fn bf16_format_decode_matches_golden_on_rounded_history() {
        // A direct-BF16 engine must decode bit-identically to a plain f64
        // DecodeSession whose K/V inputs were pre-rounded through BF16:
        // the engine's mixed-operand scoring of BF16 blocks is pinned to
        // the f64 kernel over the widened values.
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let dim = cfg.model_dim();
        let mut engine = DecodeBatch::<f64>::with_policy(
            cfg,
            4,
            KvLayout::HeadMajor,
            KvFormat::Bf16,
            EvictionPolicy::RetainAll,
        );
        let ids = vec![engine.add_sequence()];
        let mut sessions: Vec<DecodeSession<f64>> =
            (0..2).map(|_| DecodeSession::new(cfg.head)).collect();
        let round_row = |m: &Matrix<f64>| m.map(|x| round_bf16(x).to_f64());
        for t in 0..9 {
            let qs = rand(1, dim, 7000 + t);
            let ks = rand(1, dim, 7100 + t);
            let vs = rand(1, dim, 7200 + t);
            let outs = engine.step_decode(&ids, &qs, &ks, &vs);
            assert!(
                outs[0].residual().abs() < 1e-9,
                "checksum rides rounded rows"
            );
            let (kr, vr) = (round_row(&ks), round_row(&vs));
            for (h, session) in sessions.iter_mut().enumerate() {
                let sub = |m: &Matrix<f64>| m.row(0)[h * 4..(h + 1) * 4].to_vec();
                let reference = session.step(&sub(&qs), &sub(&kr), &sub(&vr));
                for (c, r) in reference.iter().enumerate() {
                    assert_eq!(
                        outs[0].output[h * 4 + c].to_bits(),
                        r.to_bits(),
                        "step {t} head {h} lane {c}"
                    );
                }
            }
        }
        assert!(engine.global_residual(ids[0]).abs() < 1e-9);
    }

    #[test]
    fn mixed_format_decode_matches_golden_with_demotion_replayed() {
        // Mixed{burst}: blocks older than the burst demote to BF16 when a
        // new block is claimed. Replaying exactly those demotions into a
        // DecodeSession (demote_cached) keeps the engine bit-identical.
        let (block_rows, burst) = (2usize, 1usize);
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let dim = cfg.model_dim();
        let mut engine = DecodeBatch::<f64>::with_policy(
            cfg,
            block_rows,
            KvLayout::HeadMajor,
            KvFormat::Mixed {
                burst_blocks: burst,
            },
            EvictionPolicy::RetainAll,
        );
        let ids = vec![engine.add_sequence()];
        let mut sessions: Vec<DecodeSession<f64>> =
            (0..2).map(|_| DecodeSession::new(cfg.head)).collect();
        for t in 0..12usize {
            // The engine appends position t, claiming block t/block_rows
            // when t is a block boundary and then demoting the oldest
            // still-native full block beyond the burst. Mirror that into
            // the golden sessions BEFORE their step sees the new token.
            if t.is_multiple_of(block_rows) && t / block_rows > burst {
                let demote = t / block_rows - burst - 1;
                for session in sessions.iter_mut() {
                    session.demote_cached(demote * block_rows..(demote + 1) * block_rows);
                }
            }
            let qs = rand(1, dim, 8000 + t as u64);
            let ks = rand(1, dim, 8100 + t as u64);
            let vs = rand(1, dim, 8200 + t as u64);
            let outs = engine.step_decode(&ids, &qs, &ks, &vs);
            assert!(outs[0].residual().abs() < 1e-9, "step {t} checksum");
            for (h, session) in sessions.iter_mut().enumerate() {
                let sub = |m: &Matrix<f64>| m.row(0)[h * 4..(h + 1) * 4].to_vec();
                let reference = session.step(&sub(&qs), &sub(&ks), &sub(&vs));
                for (c, r) in reference.iter().enumerate() {
                    assert_eq!(
                        outs[0].output[h * 4 + c].to_bits(),
                        r.to_bits(),
                        "step {t} head {h} lane {c}"
                    );
                }
            }
        }
        assert!(engine.demoted_len(ids[0]) > 0, "demotion actually ran");
        assert!(
            engine.cache().allocated_blocks16() > 0,
            "demoted blocks live in the BF16 arena"
        );
        assert!(
            !engine.cache().free_block_list().is_empty() || engine.cache().recycled_blocks() > 0,
            "native storage returned to the free list"
        );
        assert!(engine.global_residual(ids[0]).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_eviction_bit_identical_to_masked_retain_all() {
        // Eviction must be invisible to the arithmetic: an evicting
        // engine equals a retain-all engine whose head config carries the
        // same window — while actually freeing blocks and bounding
        // memory.
        let (block_rows, window_blocks) = (2usize, 2usize);
        let window = block_rows * window_blocks;
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let masked_cfg =
            MultiHeadConfig::new(2, AttentionConfig::new(4).with_sliding_window(window));
        let dim = cfg.model_dim();
        let mut evicting = DecodeBatch::<f64>::with_policy(
            cfg,
            block_rows,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::SlidingWindow { window_blocks },
        );
        let mut masked = DecodeBatch::<f64>::new(masked_cfg, block_rows);
        let e = vec![evicting.add_sequence()];
        let m = vec![masked.add_sequence()];
        for t in 0..16 {
            let qs = rand(1, dim, 8500 + t);
            let ks = rand(1, dim, 8600 + t);
            let vs = rand(1, dim, 8700 + t);
            let a = evicting.step_decode(&e, &qs, &ks, &vs);
            let b = masked.step_decode(&m, &qs, &ks, &vs);
            assert_eq!(a[0].output, b[0].output, "step {t}");
            assert_eq!(a[0].predicted.to_bits(), b[0].predicted.to_bits());
            assert!(a[0].residual().abs() < 1e-9);
            assert!(
                evicting.cache().seq_blocks(e[0]).len() <= window_blocks + 1,
                "retained blocks bounded by the window"
            );
        }
        assert_eq!(
            evicting.evicted_len(e[0]),
            16usize.saturating_sub(window) / block_rows * block_rows
        );
        assert!(evicting.evicted_len(e[0]) > 0, "eviction actually ran");
        assert!(
            evicting.cache().allocated_blocks() <= window_blocks + 2,
            "arena bounded: evicted blocks recycle instead of growing"
        );
        assert_eq!(masked.evicted_len(m[0]), 0);
        assert!(evicting.global_residual(e[0]).abs() < 1e-9);
    }

    #[test]
    fn chunked_admission_matches_one_chunk_admission_bitwise() {
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let dim = cfg.model_dim();
        let (pq, pk, pv) = (rand(11, dim, 90), rand(11, dim, 91), rand(11, dim, 92));

        let mut sync = DecodeBatch::<f64>::new(cfg, 4);
        sync.set_prefill_chunk(11);
        let wholesale = admit(&mut sync, &pq, &pk, &pv);

        let mut chunked = DecodeBatch::<f64>::new(cfg, 4);
        chunked.set_prefill_chunk(3);
        let seq = chunked.enqueue(&pq, &pk, &pv);
        assert!(chunked.is_pending(seq));
        assert_eq!(chunked.pending_len(seq), 11);
        assert!(chunked.take_admitted(seq).is_none(), "not done yet");
        let mut steps = 0;
        while chunked.is_pending(seq) {
            let processed = chunked.prefill_step_for(&[seq]);
            assert!(processed <= 3, "chunk bound holds");
            steps += 1;
        }
        assert_eq!(steps, 4, "11 tokens / chunk 3 = 4 chunks");
        assert_eq!(chunked.prompt_len(seq), 11);
        let admitted = chunked.take_admitted(seq).expect("completed");
        assert!(chunked.take_admitted(seq).is_none(), "collected once");

        // Per-query outputs are bit-identical to the one-chunk path;
        // the chunk-folded checksums still verify the prompt.
        assert_eq!(admitted.output, wholesale.output);
        assert!(admitted.residual().abs() < 1e-9);
        assert!(chunked.global_residual(seq).abs() < 1e-9);

        // And the cached state is the same: subsequent decode matches.
        for t in 0..3 {
            let qs = rand(1, dim, 9500 + t);
            let ks = rand(1, dim, 9600 + t);
            let vs = rand(1, dim, 9700 + t);
            let a = sync.step_decode(&[wholesale.seq], &qs, &ks, &vs);
            let b = chunked.step_decode(&[seq], &qs, &ks, &vs);
            assert_eq!(a[0].output, b[0].output, "post-admission step {t}");
        }
    }

    #[test]
    fn prefill_step_for_interleaves_pending_prefill_with_decode() {
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let dim = cfg.model_dim();
        let mut engine = DecodeBatch::<f64>::new(cfg, 4);
        engine.set_prefill_chunk(4);
        // One live decoding sequence...
        let live = admit(
            &mut engine,
            &rand(2, dim, 50),
            &rand(2, dim, 51),
            &rand(2, dim, 52),
        );
        // ...and a long prompt that arrives mid-flight.
        let seq = engine.enqueue(&rand(10, dim, 60), &rand(10, dim, 61), &rand(10, dim, 62));
        for t in 0..3 {
            let qs = rand(1, dim, 9000 + t);
            let ks = rand(1, dim, 9100 + t);
            let vs = rand(1, dim, 9200 + t);
            // Decode proceeds while the prompt admits 4 tokens per step —
            // the long prompt never stalls the batch.
            engine.prefill_step_for(&[seq]);
            let outs = engine.step_decode(&[live.seq], &qs, &ks, &vs);
            assert!(outs[0].residual().abs() < 1e-9);
            assert_eq!(
                engine.pending_len(seq),
                10usize.saturating_sub(4 * (t as usize + 1))
            );
        }
        assert!(
            !engine.is_pending(seq),
            "admitted across three decode steps"
        );
        let admitted = engine.take_admitted(seq).expect("ready");
        assert!(admitted.residual().abs() < 1e-9);
        // The newcomer joins the decode batch seamlessly.
        let qs = rand(2, dim, 9300);
        let ks = rand(2, dim, 9301);
        let vs = rand(2, dim, 9302);
        let outs = engine.step_decode(&[live.seq, seq], &qs, &ks, &vs);
        assert!(outs[1].residual().abs() < 1e-9);
        assert_eq!(engine.seq_len(seq), 11);
        assert_eq!(engine.prompt_len(seq) + engine.decoded_len(seq), 11);
    }

    #[test]
    #[should_panic(expected = "pending prompt chunks")]
    fn decoding_a_pending_sequence_panics() {
        let cfg = MultiHeadConfig::new(1, AttentionConfig::new(2));
        let mut engine = DecodeBatch::<f64>::new(cfg, 4);
        engine.set_prefill_chunk(2);
        let seq = engine.enqueue(&rand(8, 2, 1), &rand(8, 2, 2), &rand(8, 2, 3));
        let m = rand(1, 2, 4);
        let _ = engine.step_decode(&[seq], &m, &m, &m);
    }

    #[test]
    fn decode_never_advances_a_pending_peer() {
        // Admission runs only where the caller lists the prompt: neither
        // decode entry point may advance a pending peer.
        let cfg = MultiHeadConfig::new(1, AttentionConfig::new(2));
        let mut engine = DecodeBatch::<f64>::new(cfg, 4);
        engine.set_prefill_chunk(2);
        let live = engine.add_sequence();
        let peer = engine.enqueue(&rand(8, 2, 1), &rand(8, 2, 2), &rand(8, 2, 3));
        engine.prefill_step_for(&[peer]);
        let (pending, cached) = (engine.pending_len(peer), engine.seq_len(peer));
        assert_eq!((pending, cached), (6, 2));
        let m = rand(1, 2, 4);
        let _ = engine.step_decode(&[live], &m, &m, &m);
        assert_eq!(engine.pending_len(peer), pending, "step_decode");
        assert_eq!(engine.seq_len(peer), cached, "step_decode");
        let _ = engine.step_all_unchecked(&[live], &m, &m, &m);
        assert_eq!(engine.pending_len(peer), pending, "step_all_unchecked");
        assert_eq!(engine.seq_len(peer), cached, "step_all_unchecked");
    }

    #[test]
    #[should_panic(expected = "duplicate sequence id")]
    fn duplicate_prefill_ids_panic() {
        // Listing a prompt twice would append the same chunk twice and
        // desynchronize the cache from the chunk cursor.
        let cfg = MultiHeadConfig::new(1, AttentionConfig::new(2));
        let mut engine = DecodeBatch::<f64>::new(cfg, 4);
        engine.set_prefill_chunk(3);
        let s = engine.enqueue(&rand(8, 2, 1), &rand(8, 2, 2), &rand(8, 2, 3));
        engine.prefill_step_for(&[s, s]);
    }

    #[test]
    #[should_panic(expected = "duplicate sequence id")]
    fn duplicate_ids_panic() {
        let cfg = MultiHeadConfig::new(1, AttentionConfig::new(2));
        let mut batch = DecodeBatch::<f64>::new(cfg, 4);
        let s = batch.add_sequence();
        let m = rand(2, 2, 1);
        let _ = batch.step_decode(&[s, s], &m, &m, &m);
    }

    #[test]
    #[should_panic(expected = "unknown sequence id")]
    fn unknown_id_panics() {
        let cfg = MultiHeadConfig::new(1, AttentionConfig::new(2));
        let mut batch = DecodeBatch::<f64>::new(cfg, 4);
        let m = rand(1, 2, 1);
        let _ = batch.step_decode(&[0], &m, &m, &m);
    }

    #[test]
    #[should_panic(expected = "is retired")]
    fn stepping_retired_sequence_panics() {
        let cfg = MultiHeadConfig::new(1, AttentionConfig::new(2));
        let mut batch = DecodeBatch::<f64>::new(cfg, 4);
        let s = batch.add_sequence();
        let m = rand(1, 2, 1);
        let _ = batch.step_decode(&[s], &m, &m, &m);
        batch.retire(s);
        let _ = batch.step_decode(&[s], &m, &m, &m);
    }

    #[test]
    fn gqa_decode_matches_per_query_head_sessions_bitwise() {
        // The grouped engine: one cached K/V stream per kv head, each
        // group pass feeding group_size query states. Every query head
        // must equal a plain DecodeSession fed its group's K/V slices,
        // bit for bit, at every block size.
        let d = 4;
        let gqa = GqaConfig::new(4, 2, AttentionConfig::new(d));
        let topo = gqa.topology();
        for block_rows in [1, 3, 16] {
            let mut engine = DecodeBatch::<f64>::new(gqa, block_rows);
            let ids = vec![engine.add_sequence(), engine.add_sequence()];
            let mut sessions: Vec<Vec<DecodeSession<f64>>> = (0..2)
                .map(|_| (0..4).map(|_| DecodeSession::new(gqa.head)).collect())
                .collect();
            for t in 0..7u64 {
                let qs = rand(2, topo.q_dim(), 4000 + t);
                let ks = rand(2, topo.kv_dim(), 4100 + t);
                let vs = rand(2, topo.kv_dim(), 4200 + t);
                let outs = engine.step_decode(&ids, &qs, &ks, &vs);
                for (i, out) in outs.iter().enumerate() {
                    assert!(out.residual().abs() < 1e-10, "fused check holds");
                    for (h, session) in sessions[i].iter_mut().enumerate() {
                        let g = topo.group_of(h);
                        let reference = session.step(
                            &qs.row(i)[topo.q_head_cols(h)],
                            &ks.row(i)[topo.kv_head_cols(g)],
                            &vs.row(i)[topo.kv_head_cols(g)],
                        );
                        for (c, r) in reference.iter().enumerate() {
                            assert_eq!(
                                out.output[h * d + c].to_bits(),
                                r.to_bits(),
                                "block_rows {block_rows} step {t} seq {i} head {h} lane {c}"
                            );
                        }
                    }
                }
            }
            for &id in &ids {
                assert!(engine.global_residual(id).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gqa_decode_matches_grouped_golden_session_bitwise() {
        // The dedicated GQA golden model (`GqaDecodeSession`) must agree
        // with the batched engine token for token.
        let gqa = GqaConfig::new(6, 3, AttentionConfig::new(4));
        let topo = gqa.topology();
        let mut engine = DecodeBatch::<f64>::new(gqa, 4);
        let ids = vec![engine.add_sequence()];
        let mut golden = crate::decode::GqaDecodeSession::<f64>::new(topo);
        for t in 0..9u64 {
            let qs = rand(1, topo.q_dim(), 4300 + t);
            let ks = rand(1, topo.kv_dim(), 4400 + t);
            let vs = rand(1, topo.kv_dim(), 4500 + t);
            let outs = engine.step_decode(&ids, &qs, &ks, &vs);
            let reference = golden.step(qs.row(0), ks.row(0), vs.row(0));
            for (c, (a, b)) in outs[0].output.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "step {t} lane {c}");
            }
        }
    }

    #[test]
    fn gqa_arena_is_kv_head_proportional() {
        // The cache allocates per kv head: the grouped engine's arena
        // (and streamed bytes) must shrink by group_size relative to the
        // ungrouped engine under identical traffic.
        let d = 8;
        let head = AttentionConfig::new(d);
        let mha = MultiHeadConfig::new(4, head);
        let gqa = GqaConfig::new(4, 1, head);
        let mut wide = DecodeBatch::<f64>::new(mha, 4);
        let mut narrow = DecodeBatch::<f64>::new(gqa, 4);
        let w = vec![wide.add_sequence()];
        let n = vec![narrow.add_sequence()];
        for t in 0..12u64 {
            let qs = rand(1, 4 * d, 4600 + t);
            let ks = rand(1, 4 * d, 4700 + t);
            let vs = rand(1, 4 * d, 4800 + t);
            let kv_slice = |m: &Matrix<f64>| Matrix::from_fn(1, d, |_, c| m[(0, c)]);
            let _ = wide.step_decode(&w, &qs, &ks, &vs);
            let _ = narrow.step_decode(&n, &qs, &kv_slice(&ks), &kv_slice(&vs));
        }
        assert_eq!(wide.cache().width(), 4 * d);
        assert_eq!(narrow.cache().width(), d, "kv-head-proportional rows");
        assert_eq!(
            wide.cache().allocated_blocks(),
            narrow.cache().allocated_blocks(),
            "same block count"
        );
        // Same retained positions, 4x narrower rows => 1/4 the elements.
        assert!(narrow.global_residual(n[0]).abs() < 1e-9);
    }

    #[test]
    fn gqa_group1_topology_is_the_mha_engine_bitwise() {
        // kv_heads == query_heads must be *exactly* the per-query-head
        // engine — same code path, bit for bit, prompt and decode.
        let head = AttentionConfig::new(4);
        let dim = 3 * 4;
        let (pq, pk, pv) = (rand(6, dim, 30), rand(6, dim, 31), rand(6, dim, 32));
        let mut a = DecodeBatch::<f64>::with_policy(
            GqaConfig::new(3, 3, head),
            2,
            KvLayout::HeadMajor,
            KvFormat::Mixed { burst_blocks: 1 },
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
        );
        let mut b = DecodeBatch::<f64>::with_policy(
            MultiHeadConfig::new(3, head),
            2,
            KvLayout::HeadMajor,
            KvFormat::Mixed { burst_blocks: 1 },
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
        );
        let pa = admit(&mut a, &pq, &pk, &pv);
        let pb = admit(&mut b, &pq, &pk, &pv);
        assert_eq!(pa.output, pb.output);
        assert_eq!(pa.predicted.to_bits(), pb.predicted.to_bits());
        for t in 0..8u64 {
            let qs = rand(1, dim, 5000 + t);
            let ks = rand(1, dim, 5100 + t);
            let vs = rand(1, dim, 5200 + t);
            let oa = a.step_decode(&[pa.seq], &qs, &ks, &vs);
            let ob = b.step_decode(&[pb.seq], &qs, &ks, &vs);
            assert_eq!(oa[0].output, ob[0].output, "step {t}");
            assert_eq!(oa[0].predicted.to_bits(), ob[0].predicted.to_bits());
        }
        assert_eq!(
            a.global_residual(pa.seq).to_bits(),
            b.global_residual(pb.seq).to_bits()
        );
    }

    #[test]
    fn gqa_chunked_admission_matches_one_chunk_admission() {
        // Chunked prefill schedules (prompt, kv_head) group passes; the
        // result must equal one prompt-sized chunk bit for bit (F64, no
        // demotion), like the MHA path.
        let gqa = GqaConfig::new(4, 2, AttentionConfig::new(4));
        let topo = gqa.topology();
        let (pq, pk, pv) = (
            rand(11, topo.q_dim(), 80),
            rand(11, topo.kv_dim(), 81),
            rand(11, topo.kv_dim(), 82),
        );
        let mut sync = DecodeBatch::<f64>::new(gqa, 4);
        sync.set_prefill_chunk(11);
        let wholesale = admit(&mut sync, &pq, &pk, &pv);
        assert!(wholesale.residual().abs() < 1e-9);

        let mut chunked = DecodeBatch::<f64>::new(gqa, 4);
        chunked.set_prefill_chunk(3);
        let seq = chunked.enqueue(&pq, &pk, &pv);
        while chunked.prefill_step_for(&[seq]) > 0 {}
        let admitted = chunked.take_admitted(seq).expect("completed");
        assert_eq!(admitted.output, wholesale.output);
        assert_eq!(admitted.predicted.to_bits(), wholesale.predicted.to_bits());
        assert_eq!(admitted.actual.to_bits(), wholesale.actual.to_bits());
    }

    #[test]
    fn for_target_latency_matches_the_analytic_bound() {
        for slo in 1..=16usize {
            for live in [0usize, 1, 2, 5, 7, 16, 33, 100, 1000] {
                let p = ScrubPolicy::for_target_latency(slo, live);
                assert_eq!(p.blocks_per_step, live.div_ceil(slo).max(1));
                // The scrubber's detection bound under the tuned policy
                // honors the SLO at this load point.
                assert!(
                    live.div_ceil(p.blocks_per_step) <= slo,
                    "ceil({live}/{}) > {slo}",
                    p.blocks_per_step
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "detection-latency SLO must be positive")]
    fn for_target_latency_rejects_a_zero_slo() {
        let _ = ScrubPolicy::for_target_latency(0, 10);
    }

    #[test]
    fn resubmit_reports_every_race_as_a_typed_error() {
        let topo = GqaConfig::new(2, 2, AttentionConfig::new(4)).topology();
        let kd = topo.kv_dim();
        let mut e = DecodeBatch::<f64>::with_policy(
            topo,
            4,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        );
        e.enable_recovery_log();
        let seq = e.add_sequence();
        let (k, v) = (rand(6, kd, 1), rand(6, kd, 2));
        e.prefill(seq, &k, &v);

        // A live sequence with cached rows refuses a resubmission.
        assert!(matches!(
            e.resubmit(seq, &k, &v),
            Err(ResubmitError::NotEmpty { cached_rows: 6, .. })
        ));

        // Quarantine with a full log auto-requeues: the slot is pending.
        let q = e.quarantine(seq);
        assert_eq!(q.requeued_rows, 6);
        assert!(matches!(
            e.resubmit(seq, &k, &v),
            Err(ResubmitError::AlreadyPending { .. })
        ));
        while e.prefill_step_for(&[seq]) > 0 {}

        // Shape races: wrong width, mismatched row counts, no rows.
        let empty = e.add_sequence();
        let wide = rand(6, kd + 1, 3);
        assert!(matches!(
            e.resubmit(empty, &wide, &wide),
            Err(ResubmitError::WidthMismatch { .. })
        ));
        let short = rand(5, kd, 4);
        assert!(matches!(
            e.resubmit(empty, &k, &short),
            Err(ResubmitError::RowMismatch {
                k_rows: 6,
                v_rows: 5
            })
        ));
        let none = rand(0, kd, 5);
        assert!(matches!(
            e.resubmit(empty, &none, &none),
            Err(ResubmitError::EmptyHistory)
        ));

        // A retired slot lost the race entirely.
        e.retire(empty);
        assert!(matches!(
            e.resubmit(empty, &k, &v),
            Err(ResubmitError::Retired { .. })
        ));

        // Every error leaves the engine serving: a fresh slot accepts.
        let fresh = e.add_sequence();
        assert!(e.resubmit(fresh, &k, &v).is_ok());
        assert!(e.is_pending(fresh));
    }

    #[test]
    fn voluntary_demotion_is_deterministic_idempotent_and_audit_clean() {
        let topo = GqaConfig::new(4, 2, AttentionConfig::new(4)).topology();
        let mk = || {
            DecodeBatch::<f64>::with_policy(
                topo,
                4,
                KvLayout::HeadMajor,
                KvFormat::F64,
                EvictionPolicy::RetainAll,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let (k, v) = (rand(11, topo.kv_dim(), 7), rand(11, topo.kv_dim(), 8));
        for e in [&mut a, &mut b] {
            let s = e.add_sequence();
            e.prefill(s, &k, &v);
        }
        // 11 rows over 4-row blocks: 2 full blocks + 1 partial. Keeping a
        // 1-block burst demotes exactly the oldest full block.
        let rows = a.demote(0, 1);
        assert_eq!(rows, 4);
        assert_eq!(a.demoted_len(0), 4);
        assert_eq!(a.demote(0, 1), 0, "demotion is idempotent at a length");
        assert!(a.audit(0, 1e-6).is_empty(), "demoted checksums rebuilt");

        // Same call on the twin: decode stays lockstep bit for bit, and
        // the online verdict keeps predicting the rounded storage.
        assert_eq!(b.demote(0, 1), 4);
        for t in 0..4u64 {
            let qs = rand(1, topo.q_dim(), 600 + t);
            let ks = rand(1, topo.kv_dim(), 700 + t);
            let vs = rand(1, topo.kv_dim(), 800 + t);
            let oa = a.step_decode(&[0], &qs, &ks, &vs);
            let ob = b.step_decode(&[0], &qs, &ks, &vs);
            assert_eq!(oa[0].output, ob[0].output);
            assert!(oa[0].residual().abs() < 1e-6);
        }

        // Demoting everything (burst 0): 15 rows by now = 3 full blocks,
        // of which one is already BF16 — the other two convert; the
        // partial tail block stays native.
        let more = a.demote(0, 0);
        assert_eq!(more, 8);
        assert!(a.audit(0, 1e-6).is_empty());
    }

    #[test]
    fn live_kv_bytes_tracks_demotion_and_retirement() {
        let topo = GqaConfig::new(2, 2, AttentionConfig::new(4)).topology();
        let mut e = DecodeBatch::<f64>::with_policy(
            topo,
            4,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        );
        let width = topo.kv_dim();
        let block_bytes_f64 = 2 * 4 * width * core::mem::size_of::<f64>();
        let block_bytes_bf16 = 2 * 4 * width * 2;
        assert_eq!(e.cache().live_kv_bytes(), 0);
        let s = e.add_sequence();
        e.prefill(s, &rand(9, width, 1), &rand(9, width, 2));
        // 9 rows -> 3 blocks (partial last block counts fully: its arena
        // storage is claimed whether or not every row is filled).
        assert_eq!(e.cache().live_kv_bytes(), 3 * block_bytes_f64);
        let rows = e.demote(s, 1);
        assert_eq!(rows, 4);
        assert_eq!(
            e.cache().live_kv_bytes(),
            2 * block_bytes_f64 + block_bytes_bf16
        );
        e.retire(s);
        assert_eq!(e.cache().live_kv_bytes(), 0);
    }

    /// Vertical concatenation (prefix ‖ suffix) for unshared replays.
    fn vcat(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let mut data = Vec::with_capacity((a.rows() + b.rows()) * a.cols());
        for i in 0..a.rows() {
            data.extend_from_slice(a.row(i));
        }
        for i in 0..b.rows() {
            data.extend_from_slice(b.row(i));
        }
        Matrix::from_vec(a.rows() + b.rows(), a.cols(), data)
    }

    #[test]
    fn shared_admission_is_bit_identical_to_unshared_replay() {
        let topo = GqaConfig::new(4, 2, AttentionConfig::new(4)).topology();
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo,
                4,
                KvLayout::HeadMajor,
                KvFormat::F64,
                EvictionPolicy::RetainAll,
            );
            // Prefix length (8) is a multiple of the chunk, so the
            // unshared replay's chunk schedule has a boundary exactly at
            // the prefix end — the alignment enqueue_shared guarantees.
            e.set_prefill_chunk(4);
            e
        };
        let (mut shared, mut plain) = (mk(), mk());
        let (pq, pk, pv) = (rand(8, qd, 10), rand(8, kd, 11), rand(8, kd, 12));
        let id = shared.register_prefix(&pq, &pk, &pv);
        assert_eq!(shared.prefix_rows(id), 8);

        // Three readers: short suffix, suffix spilling past one chunk,
        // and an empty suffix (prefix-only admission).
        let suffix_lens = [3usize, 5, 0];
        let (mut sids, mut pids) = (Vec::new(), Vec::new());
        for (i, &n) in suffix_lens.iter().enumerate() {
            let i = i as u64;
            let (sq, sk, sv) = (
                rand(n, qd, 20 + i),
                rand(n, kd, 30 + i),
                rand(n, kd, 40 + i),
            );
            sids.push(shared.enqueue_shared(id, &sq, &sk, &sv));
            pids.push(plain.enqueue(&vcat(&pq, &sq), &vcat(&pk, &sk), &vcat(&pv, &sv)));
        }
        assert_eq!(shared.prefix_readers(id), 3);
        loop {
            let (a, b) = (
                shared.prefill_step_for(&sids),
                plain.prefill_step_for(&pids),
            );
            if a == 0 && b == 0 {
                break;
            }
        }

        // Admitted suffix rows and checksum totals match the unshared
        // replay's tail bitwise; the prefix rows were scored once, at
        // registration.
        for ((&s, &p), &n) in sids.iter().zip(&pids).zip(&suffix_lens) {
            let sa = shared.take_admitted(s).expect("shared admitted");
            let pa = plain.take_admitted(p).expect("plain admitted");
            assert_eq!(sa.output.rows(), n, "shared admission covers the suffix");
            for r in 0..n {
                for (c, (x, y)) in sa
                    .output
                    .row(r)
                    .iter()
                    .zip(pa.output.row(8 + r))
                    .enumerate()
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "suffix row {r} lane {c}");
                }
            }
            assert_eq!(sa.predicted.to_bits(), pa.predicted.to_bits());
            assert_eq!(sa.actual.to_bits(), pa.actual.to_bits());
        }
        // The prefix's physical blocks are counted once, not per reader.
        assert!(
            shared.cache().live_unique_blocks() < plain.cache().live_unique_blocks(),
            "sharing must hold fewer unique blocks ({} vs {})",
            shared.cache().live_unique_blocks(),
            plain.cache().live_unique_blocks()
        );

        // Decode stays lockstep bit for bit, with the batched
        // shared-block path engaged on the shared side only.
        for t in 0..6u64 {
            let qs = rand(3, qd, 900 + t);
            let ks = rand(3, kd, 910 + t);
            let vs = rand(3, kd, 920 + t);
            let oa = shared.step_decode(&sids, &qs, &ks, &vs);
            let ob = plain.step_decode(&pids, &qs, &ks, &vs);
            for (i, (a, b)) in oa.iter().zip(&ob).enumerate() {
                assert_eq!(a.output, b.output, "step {t} seq {i}");
                assert!(a.residual().abs() < 1e-9);
            }
        }
        assert!(shared.shared_score_tiles() > 0, "batched path engaged");
        assert_eq!(plain.shared_score_tiles(), 0, "nothing shared to batch");
        for &s in &sids {
            assert!(shared.global_residual(s).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_scoring_toggle_is_bitwise_invariant() {
        let topo = GqaConfig::new(4, 2, AttentionConfig::new(4)).topology();
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo,
                4,
                KvLayout::HeadMajor,
                KvFormat::F64,
                EvictionPolicy::RetainAll,
            );
            e.set_prefill_chunk(4);
            e
        };
        let (mut on, mut off) = (mk(), mk());
        off.set_shared_scoring(false);
        assert!(on.shared_scoring() && !off.shared_scoring());
        let (pq, pk, pv) = (rand(8, qd, 70), rand(8, kd, 71), rand(8, kd, 72));
        let mut ids = Vec::new();
        for e in [&mut on, &mut off] {
            let id = e.register_prefix(&pq, &pk, &pv);
            let mut seqs = Vec::new();
            for i in 0..4u64 {
                let n = 1 + i as usize;
                let (sq, sk, sv) = (
                    rand(n, qd, 80 + i),
                    rand(n, kd, 90 + i),
                    rand(n, kd, 100 + i),
                );
                seqs.push(e.enqueue_shared(id, &sq, &sk, &sv));
            }
            while e.prefill_step_for(&seqs) > 0 {}
            ids.push(seqs);
        }
        assert_eq!(ids[0], ids[1]);
        for t in 0..5u64 {
            let qs = rand(4, qd, 1900 + t);
            let ks = rand(4, kd, 1910 + t);
            let vs = rand(4, kd, 1920 + t);
            let oa = on.step_decode(&ids[0], &qs, &ks, &vs);
            let ob = off.step_decode(&ids[1], &qs, &ks, &vs);
            for (i, (a, b)) in oa.iter().zip(&ob).enumerate() {
                assert_eq!(a.output, b.output, "step {t} seq {i}");
            }
        }
        assert!(on.shared_score_tiles() > 0, "fast path on");
        assert_eq!(off.shared_score_tiles(), 0, "forced k-GEMV baseline");
    }

    #[test]
    fn refcounts_and_cow_track_shared_block_ownership() {
        let topo = GqaConfig::new(2, 2, AttentionConfig::new(4)).topology();
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let mut e = DecodeBatch::<f64>::with_policy(
            topo,
            4,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        );
        e.set_prefill_chunk(3);
        // 6-row prefix over 4-row blocks: one full block + a partial
        // tail the readers must copy-on-write before appending into.
        let id = e.register_prefix(&rand(6, qd, 1), &rand(6, kd, 2), &rand(6, kd, 3));
        let blocks = e.prefix_blocks(id).to_vec();
        assert_eq!(blocks.len(), 2);
        for &b in &blocks {
            assert_eq!(e.cache().block_ref_count(b), 1, "registry's own ref");
        }
        let s0 = e.enqueue_shared(id, &rand(3, qd, 4), &rand(3, kd, 5), &rand(3, kd, 6));
        let s1 = e.enqueue_shared(id, &rand(2, qd, 7), &rand(2, kd, 8), &rand(2, kd, 9));
        for &b in &blocks {
            assert_eq!(e.cache().block_ref_count(b), 3, "registry + two readers");
        }
        assert_eq!(e.cache().cow_copies(), 0);
        while e.prefill_step_for(&[s0, s1]) > 0 {}

        // Each reader's first suffix append hit the shared partial tail
        // and diverged onto a private copy; the full block stays shared.
        assert_eq!(e.cache().cow_copies(), 2);
        assert_eq!(e.cache().block_ref_count(blocks[0]), 3);
        assert_eq!(
            e.cache().block_ref_count(blocks[1]),
            1,
            "tail kept only the registry's ref after both readers diverged"
        );
        // Unique storage: shared full block + registry tail + s0's two
        // private blocks (rows 4..9) + s1's one (rows 4..8).
        assert_eq!(e.cache().live_unique_blocks(), 5);

        e.retire(s0);
        assert_eq!(e.cache().block_ref_count(blocks[0]), 2);
        e.release_prefix(id);
        assert_eq!(e.cache().block_ref_count(blocks[0]), 1, "s1 still reads it");
        assert_eq!(e.cache().block_ref_count(blocks[1]), 0, "tail freed");
        e.retire(s1);
        assert_eq!(
            e.cache().live_unique_blocks(),
            0,
            "no leaks, no double frees"
        );
    }

    #[test]
    fn prefix_registry_finds_by_token_hash_and_releases() {
        let topo = GqaConfig::new(2, 1, AttentionConfig::new(4)).topology();
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let mut e = DecodeBatch::<f64>::new(topo, 4);
        let (q0, k0, v0) = (rand(4, qd, 11), rand(4, kd, 12), rand(4, kd, 13));
        let (q1, k1, v1) = (rand(4, qd, 21), rand(4, kd, 22), rand(4, kd, 23));
        let id0 = e.register_prefix(&q0, &k0, &v0);
        let id1 = e.register_prefix(&q1, &k1, &v1);
        let h0 = DecodeBatch::<f64>::prefix_token_hash(&k0, &v0);
        let h1 = DecodeBatch::<f64>::prefix_token_hash(&k1, &v1);
        assert_ne!(h0, h1);
        assert_eq!(e.find_prefix(h0), Some(id0));
        assert_eq!(e.find_prefix(h1), Some(id1));
        assert_eq!(e.prefix_ids(), vec![id0, id1]);
        assert_eq!(e.prefix_output(id0).rows(), 4);
        e.release_prefix(id0);
        assert_eq!(e.find_prefix(h0), None);
        assert_eq!(e.prefix_ids(), vec![id1]);
        assert_eq!(
            e.cache().live_unique_blocks(),
            1,
            "only id1's block remains"
        );
    }

    #[test]
    fn shared_admission_composes_with_mixed_and_sliding_window() {
        let topo = GqaConfig::new(4, 2, AttentionConfig::new(4)).topology();
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        for (format, eviction) in [
            (
                KvFormat::Mixed { burst_blocks: 1 },
                EvictionPolicy::RetainAll,
            ),
            (
                KvFormat::F64,
                EvictionPolicy::SlidingWindow { window_blocks: 2 },
            ),
            (
                KvFormat::Mixed { burst_blocks: 1 },
                EvictionPolicy::SlidingWindow { window_blocks: 3 },
            ),
        ] {
            let mk = || {
                let mut e =
                    DecodeBatch::<f64>::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction);
                e.set_prefill_chunk(4);
                e
            };
            let (mut shared, mut plain) = (mk(), mk());
            let (pq, pk, pv) = (rand(8, qd, 50), rand(8, kd, 51), rand(8, kd, 52));
            let id = shared.register_prefix(&pq, &pk, &pv);
            let (mut sids, mut pids) = (Vec::new(), Vec::new());
            for i in 0..2u64 {
                let n = 3 + 2 * i as usize;
                let (sq, sk, sv) = (
                    rand(n, qd, 60 + i),
                    rand(n, kd, 61 + i),
                    rand(n, kd, 62 + i),
                );
                sids.push(shared.enqueue_shared(id, &sq, &sk, &sv));
                pids.push(plain.enqueue(&vcat(&pq, &sq), &vcat(&pk, &sk), &vcat(&pv, &sv)));
            }
            loop {
                let (a, b) = (
                    shared.prefill_step_for(&sids),
                    plain.prefill_step_for(&pids),
                );
                if a == 0 && b == 0 {
                    break;
                }
            }
            for (&s, &p) in sids.iter().zip(&pids) {
                let sa = shared.take_admitted(s).expect("shared admitted");
                let pa = plain.take_admitted(p).expect("plain admitted");
                let skip = pa.output.rows() - sa.output.rows();
                for r in 0..sa.output.rows() {
                    for (x, y) in sa.output.row(r).iter().zip(pa.output.row(skip + r)) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{format:?} {eviction:?} row {r}");
                    }
                }
            }
            // Long enough for demotion bursts and window evictions to
            // fire on (CoW'd copies of) the shared prefix blocks.
            for t in 0..10u64 {
                let qs = rand(2, qd, 2900 + t);
                let ks = rand(2, kd, 2910 + t);
                let vs = rand(2, kd, 2920 + t);
                let oa = shared.step_decode(&sids, &qs, &ks, &vs);
                let ob = plain.step_decode(&pids, &qs, &ks, &vs);
                for (i, (a, b)) in oa.iter().zip(&ob).enumerate() {
                    assert_eq!(
                        a.output, b.output,
                        "{format:?} {eviction:?} step {t} seq {i}"
                    );
                }
            }
            for &s in &sids {
                assert!(shared.audit(s, 1e-6).is_empty(), "{format:?} {eviction:?}");
            }
        }
    }

    #[test]
    fn poisoned_shared_block_repairs_in_place_for_all_readers() {
        let topo = GqaConfig::new(2, 2, AttentionConfig::new(4)).topology();
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo,
                4,
                KvLayout::HeadMajor,
                KvFormat::F64,
                EvictionPolicy::RetainAll,
            );
            e.set_prefill_chunk(4);
            e.enable_recovery_log();
            let id = e.register_prefix(&rand(8, qd, 30), &rand(8, kd, 31), &rand(8, kd, 32));
            let s0 = e.enqueue_shared(id, &rand(2, qd, 33), &rand(2, kd, 34), &rand(2, kd, 35));
            let s1 = e.enqueue_shared(id, &rand(3, qd, 36), &rand(3, kd, 37), &rand(3, kd, 38));
            while e.prefill_step_for(&[s0, s1]) > 0 {}
            e.take_admitted(s0);
            e.take_admitted(s1);
            (e, s0, s1)
        };
        let ((mut faulty, s0, s1), (mut twin, t0, t1)) = (mk(), mk());

        // Flip a stored K bit inside the shared prefix block: ONE
        // physical fault, visible through every reader's audit.
        faulty.flip_storage_bit(s0, 1, 0, 2, true, 40);
        assert!(!faulty.audit(s0, 1e-9).is_empty(), "reader 0 alarms");
        assert!(!faulty.audit(s1, 1e-9).is_empty(), "reader 1 alarms");

        // Repair through one reader: the in-place block rebuild from the
        // recovery log fixes the storage every reader maps.
        let report = faulty.audit_and_repair(s0, 1e-9);
        assert!(report.rows_rewritten > 0, "log-backed block rewrite ran");
        assert!(faulty.audit(s0, 1e-9).is_empty());
        assert!(
            faulty.audit(s1, 1e-9).is_empty(),
            "one repair serves all readers"
        );

        // Both readers decode bit-identically to the never-faulted twin.
        for t in 0..4u64 {
            let qs = rand(2, qd, 3900 + t);
            let ks = rand(2, kd, 3910 + t);
            let vs = rand(2, kd, 3920 + t);
            let oa = faulty.step_decode(&[s0, s1], &qs, &ks, &vs);
            let ob = twin.step_decode(&[t0, t1], &qs, &ks, &vs);
            for (a, b) in oa.iter().zip(&ob) {
                assert_eq!(a.output, b.output, "step {t}");
                assert!(a.residual().abs() < 1e-9);
            }
        }
    }
}
