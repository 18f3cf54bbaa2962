//! The cache's block store: one [`Arena`] per storage format.
//!
//! [`KvCache`](super::KvCache) keeps two arenas, `Arena<T>` for blocks in
//! the engine's native element format and `Arena<BF16>` for demoted (or
//! direct-BF16) blocks — one pool type holding storage, refcounts and a
//! free list, instantiated per format, as in the PagedAttention block
//! manager. A [`BlockRef`](super::BlockRef) names the arena (`bf16`) and
//! the block index within it; everything about a block's bytes and
//! ownership lives here, so the native and BF16 paths share one body.
//!
//! A block holds `block_rows` rows of `heads × head_dim` elements for K
//! and for V, stored **head-major** (each head's rows form one contiguous
//! `block_rows × head_dim` panel), plus one f64 `sumrow(V)` checksum lane
//! per (row, head) — the extra column of the paper's checksum-augmented
//! value matrix, head-major like V. Only this module computes element or
//! lane offsets.
//!
//! Beside the lanes each block carries **integer fingerprints** of its
//! stored bits: per (head, side) panel, one wrapping `u64` sum of each
//! row's raw element bits (`block_rows` words) and of each lane's
//! (`head_dim` words) — Huang & Abraham's row/column checksum code over
//! the integers mod 2⁶⁴ (IEEE TC 1984). The sums are exact, so a clean
//! panel matches a recompute word for word, and one corrupted element
//! shows the same delta in exactly one row word and one lane word:
//! [`diagnose`](Arena::diagnose) names the word and
//! [`mend`](Arena::mend) subtracts the delta. One more word per head
//! sums the raw bits of its `sumrow` lanes, so a clean lane set is
//! confirmed by an integer compare and the lanes are recomputed from V
//! only when it disagrees. Fingerprints cover the rows appended so far;
//! a claimed block starts from zero.
//!
//! K, V and the fingerprints live in fixed-size slabs of
//! [`SLAB_BLOCKS`] blocks, so the arena grows a slab at a time and a
//! stored block never moves. A flat
//! buffer doubling on growth would copy every stored block once per
//! doubling, and for a moment hold both copies: a transient of the whole
//! cache's size on top of it.

use core::ops::Range;
use fa_tensor::Scalar;

/// Blocks per K/V storage slab.
const SLAB_BLOCKS: usize = 16;

/// What a panel's fingerprints say about its stored bits, when they
/// disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Damage {
    /// Exactly one element differs: its row and lane, and the wrapping
    /// delta `stored − fingerprinted` of its raw bits.
    Word { row: usize, lane: usize, delta: u64 },
    /// Anything else: several elements, or a fingerprint word itself.
    Beyond,
}

/// A pool of fixed-size cache blocks in element format `E`.
#[derive(Clone, Debug)]
pub(super) struct Arena<E> {
    heads: usize,
    head_dim: usize,
    block_rows: usize,
    /// Key panels, `block_rows · heads · head_dim` elements per block,
    /// [`SLAB_BLOCKS`] blocks per slab (each slab allocated at full
    /// capacity, so claiming a block never reallocates).
    k: Vec<Vec<E>>,
    /// Value panels, same addressing as `k`.
    v: Vec<Vec<E>>,
    /// `sumrow(V)` lanes, `block_rows` per (block, head), head-major.
    sumrows: Vec<f64>,
    /// Integer fingerprints (see the module docs), in slabs like `k`:
    /// per block, `block_rows` row words then `head_dim` lane words for
    /// each (head, side) panel, then one `sumrow`-lane word per head.
    fingerprints: Vec<Vec<u64>>,
    /// Per-block owner counts: a block is owned by every live sequence
    /// listing it plus (for registered shared prefixes) the prefix
    /// registry. Free-listed blocks sit at zero; unshared blocks at one.
    ref_counts: Vec<u32>,
    /// Blocks owned by nobody, ready for reuse (LIFO).
    free: Vec<usize>,
    /// While a speculative window is open, blocks whose last reference
    /// dropped park here instead of `free`, so their stored lanes survive
    /// for an exact rollback (a free-listed block could be re-claimed and
    /// overwritten mid-window). `None` outside a window.
    parked: Option<Vec<usize>>,
}

impl<E: Scalar> Arena<E> {
    pub(super) fn new(heads: usize, head_dim: usize, block_rows: usize) -> Self {
        Arena {
            heads,
            head_dim,
            block_rows,
            k: Vec::new(),
            v: Vec::new(),
            sumrows: Vec::new(),
            fingerprints: Vec::new(),
            ref_counts: Vec::new(),
            free: Vec::new(),
            parked: None,
        }
    }

    #[inline]
    fn block_elems(&self) -> usize {
        self.block_rows * self.heads * self.head_dim
    }

    /// Element offset of row `r`, head `head` within a block's K or V
    /// panel.
    #[inline]
    fn slot(&self, r: usize, head: usize) -> usize {
        (head * self.block_rows + r) * self.head_dim
    }

    /// Slab and element range of block `index` in `k`/`v`.
    #[inline]
    fn span(&self, index: usize) -> (usize, Range<usize>) {
        let at = index % SLAB_BLOCKS * self.block_elems();
        (index / SLAB_BLOCKS, at..at + self.block_elems())
    }

    /// Block `index`'s K and V panels.
    #[inline]
    fn block(&self, index: usize) -> (&[E], &[E]) {
        let (slab, span) = self.span(index);
        (&self.k[slab][span.clone()], &self.v[slab][span])
    }

    /// Block `index`'s K and V panels, writable.
    #[inline]
    fn block_mut(&mut self, index: usize) -> (&mut [E], &mut [E]) {
        let (slab, span) = self.span(index);
        (&mut self.k[slab][span.clone()], &mut self.v[slab][span])
    }

    /// Adds empty full-capacity K/V and fingerprint slabs until `blocks`
    /// blocks fit.
    fn add_slabs(&mut self, blocks: usize) {
        while self.k.len() * SLAB_BLOCKS < blocks {
            let elems = SLAB_BLOCKS * self.block_elems();
            self.k.push(Vec::with_capacity(elems));
            self.v.push(Vec::with_capacity(elems));
            let words = SLAB_BLOCKS * self.block_words();
            self.fingerprints.push(Vec::with_capacity(words));
        }
    }

    /// Index of row `r`, head `head` of block `index` in `sumrows`.
    #[inline]
    fn lane(&self, index: usize, r: usize, head: usize) -> usize {
        (index * self.heads + head) * self.block_rows + r
    }

    /// Fingerprint words per (head, side) panel.
    #[inline]
    fn panel_words(&self) -> usize {
        self.block_rows + self.head_dim
    }

    /// Fingerprint words per block.
    #[inline]
    fn block_words(&self) -> usize {
        self.heads * (2 * self.panel_words() + 1)
    }

    /// Index of head `head`'s `sumrow`-lane word within a block's
    /// fingerprint words.
    #[inline]
    fn lanes_word(&self, head: usize) -> usize {
        2 * self.heads * self.panel_words() + head
    }

    /// Range of the (`head`, side) panel within a block's fingerprint
    /// words: its row words, then its lane words.
    #[inline]
    fn panel(&self, head: usize, key_side: bool) -> Range<usize> {
        let at = (head * 2 + usize::from(!key_side)) * self.panel_words();
        at..at + self.panel_words()
    }

    /// Slab and word range of block `index` in `fingerprints`.
    #[inline]
    fn fp_span(&self, index: usize) -> (usize, Range<usize>) {
        let at = index % SLAB_BLOCKS * self.block_words();
        (index / SLAB_BLOCKS, at..at + self.block_words())
    }

    /// Block `index`'s fingerprint words (all panels).
    pub(super) fn fingerprints(&self, index: usize) -> &[u64] {
        let (slab, span) = self.fp_span(index);
        &self.fingerprints[slab][span]
    }

    /// Block `index`'s fingerprint words, writable.
    pub(super) fn fingerprints_mut(&mut self, index: usize) -> &mut [u64] {
        let (slab, span) = self.fp_span(index);
        &mut self.fingerprints[slab][span]
    }

    /// Blocks carved from this arena so far.
    pub(super) fn allocated(&self) -> usize {
        self.ref_counts.len()
    }

    /// Blocks currently on the free list.
    pub(super) fn free_list(&self) -> &[usize] {
        &self.free
    }

    /// Blocks owned by at least one holder (each shared block once).
    pub(super) fn live_blocks(&self) -> usize {
        self.allocated() - self.free.len()
    }

    /// K and V bytes of the owned blocks (the checksum lanes and
    /// fingerprints are not counted).
    pub(super) fn live_kv_bytes(&self) -> usize {
        2 * self.live_blocks() * self.block_elems() * core::mem::size_of::<E>()
    }

    /// Fingerprint bytes of the owned blocks.
    pub(super) fn fingerprint_bytes(&self) -> usize {
        self.live_blocks() * self.block_words() * core::mem::size_of::<u64>()
    }

    /// Reserves capacity for `blocks` more claims, less those the free
    /// list already covers, so the claims never reallocate.
    pub(super) fn reserve(&mut self, blocks: usize) {
        let grow = blocks.saturating_sub(self.free.len());
        self.add_slabs(self.allocated() + grow);
        self.sumrows.reserve(grow * self.block_rows * self.heads);
        self.ref_counts.reserve(grow);
    }

    /// Claims a block — from the free list when possible (`true` in the
    /// second field), growing the arena otherwise. The claimed block
    /// starts with a reference count of one (sole owner) and zeroed
    /// fingerprints (no rows yet).
    pub(super) fn claim(&mut self) -> (usize, bool) {
        if let Some(index) = self.free.pop() {
            debug_assert_eq!(self.ref_counts[index], 0, "free-listed block had owners");
            self.ref_counts[index] = 1;
            self.fingerprints_mut(index).fill(0);
            return (index, true);
        }
        let index = self.allocated();
        self.add_slabs(index + 1);
        let (slab, span) = self.span(index);
        self.k[slab].resize(span.end, E::zero());
        self.v[slab].resize(span.end, E::zero());
        let lanes = self.block_rows * self.heads;
        self.sumrows.resize(self.sumrows.len() + lanes, 0.0);
        let (slab, span) = self.fp_span(index);
        self.fingerprints[slab].resize(span.end, 0);
        self.ref_counts.push(1);
        (index, false)
    }

    /// Drops one reference to block `index`, returning it to the free
    /// list (or parking it, inside a speculative window) when the last
    /// owner lets go. Returns whether the count reached zero.
    ///
    /// # Panics
    ///
    /// Panics if the block has no outstanding references (double free).
    pub(super) fn release(&mut self, index: usize) -> bool {
        let rc = &mut self.ref_counts[index];
        assert!(*rc > 0, "double free of {} block {index}", E::NAME);
        *rc -= 1;
        if *rc > 0 {
            return false;
        }
        self.parked.as_mut().unwrap_or(&mut self.free).push(index);
        true
    }

    /// Takes one more reference on a block a live owner holds.
    pub(super) fn retain(&mut self, index: usize) {
        let rc = &mut self.ref_counts[index];
        assert!(*rc > 0, "retaining a free block");
        *rc += 1;
    }

    /// Re-takes a reference during speculative rollback; unlike
    /// [`retain`](Self::retain) the count may be zero (a parked block).
    pub(super) fn resurrect(&mut self, index: usize) {
        self.ref_counts[index] += 1;
    }

    /// Outstanding references on block `index`.
    #[inline]
    pub(super) fn ref_count(&self, index: usize) -> u32 {
        self.ref_counts[index]
    }

    /// Starts parking last-reference frees (a speculative window opens).
    pub(super) fn begin_deferred(&mut self) {
        debug_assert!(self.parked.is_none(), "speculative windows cannot nest");
        self.parked = Some(Vec::new());
    }

    /// Ends parking: parked blocks still unowned (not resurrected by a
    /// rollback) return to the free list, in park order.
    pub(super) fn flush_deferred(&mut self) {
        let parked = self.parked.take();
        debug_assert!(parked.is_some(), "no deferred-frees window is open");
        for index in parked.into_iter().flatten() {
            if self.ref_counts[index] == 0 {
                self.free.push(index);
            }
        }
    }

    /// Copies block `src`'s K/V panels, checksum lanes and fingerprints
    /// bitwise into block `dst` (copy-on-write).
    pub(super) fn copy_block(&mut self, src: usize, dst: usize) {
        let (from, to) = (self.span(src), self.span(dst));
        copy_span(&mut self.k, from.clone(), to.clone());
        copy_span(&mut self.v, from, to);
        let lanes = self.block_rows * self.heads;
        self.sumrows
            .copy_within(src * lanes..(src + 1) * lanes, dst * lanes);
        let (from, to) = (self.fp_span(src), self.fp_span(dst));
        copy_span(&mut self.fingerprints, from, to);
    }

    /// Rounds every K/V element of `from`'s block `src` into block `dst`
    /// of this arena through `E::from_f64` — for `E = BF16` exactly
    /// [`round_bf16`](super::round_bf16). The checksum lanes and
    /// fingerprints are left for [`rebuild`](Self::rebuild).
    pub(super) fn narrow_from<S: Scalar>(&mut self, dst: usize, from: &Arena<S>, src: usize) {
        let ((k, v), (fk, fv)) = (self.block_mut(dst), from.block(src));
        convert(k, fk);
        convert(v, fv);
    }

    /// Scatters one `heads · head_dim`-wide K/V row into row `r` of block
    /// `index` (rounding through `E::from_f64`; exact when `S = E`), then
    /// folds the stored row into the block's fingerprints and checksum
    /// lanes (see [`fold_row`](Self::fold_row)).
    pub(super) fn write_row<S: Scalar>(&mut self, index: usize, r: usize, k: &[S], v: &[S]) {
        let d = self.head_dim;
        for h in 0..self.heads {
            let at = self.slot(r, h);
            let (kb, vb) = self.block_mut(index);
            convert(&mut kb[at..at + d], &k[h * d..(h + 1) * d]);
            convert(&mut vb[at..at + d], &v[h * d..(h + 1) * d]);
        }
        self.fold_row(index, r);
    }

    /// Folds stored row `r` of block `index` into the block's
    /// fingerprints — per head and side its row word is set and its bits
    /// add to the lane words — and stores each head's value sum as its
    /// checksum lane (so the lane predicts what the output lanes actually
    /// consume), adding the lane's bits to the head's lane word.
    fn fold_row(&mut self, index: usize, r: usize) {
        for h in 0..self.heads {
            let at = self.slot(r, h);
            for key_side in [true, false] {
                let panel = self.panel(h, key_side);
                let ((slab, span), (fp_slab, fp_span)) = (self.span(index), self.fp_span(index));
                let elems = if key_side { &self.k } else { &self.v };
                let row = &elems[slab][span][at..at + self.head_dim];
                let words = &mut self.fingerprints[fp_slab][fp_span][panel];
                let (rows, lanes) = words.split_at_mut(self.block_rows);
                rows[r] = fold_words(lanes, row);
            }
            let lane = self.lane(index, r, h);
            self.sumrows[lane] = self.value_sum(index, r, h);
            let (word, bits) = (self.lanes_word(h), self.sumrows[lane].to_bits());
            let sum = &mut self.fingerprints_mut(index)[word];
            *sum = sum.wrapping_add(bits);
        }
    }

    /// Rebuilds block `index`'s fingerprints and checksum lanes over its
    /// first `rows` rows from the stored elements — after the stored
    /// rows changed format (demotion).
    pub(super) fn rebuild(&mut self, index: usize, rows: usize) {
        self.fingerprints_mut(index).fill(0);
        for r in 0..rows {
            self.fold_row(index, r);
        }
    }

    /// Checks head `head` of block `index` over its first `rows` rows:
    /// its key and value panels against their fingerprints (`None` where
    /// every word matches a recompute from the stored bits), in that
    /// order, reading the key and value rows side by side. With
    /// `bad_sumrows`, the head's stored checksum lanes are checked too:
    /// when their bits disagree with the head's lane word, each row whose
    /// lane differs from its recompute from V is pushed.
    pub(super) fn diagnose(
        &self,
        index: usize,
        head: usize,
        rows: usize,
        bad_sumrows: Option<&mut Vec<usize>>,
    ) -> [Option<Damage>; 2] {
        let d = self.head_dim;
        let at = self.slot(0, head);
        let (k, v) = self.block(index);
        let panels = [&k[at..at + rows * d], &v[at..at + rows * d]];
        let words = self.fingerprints(index);
        let fps = [true, false]
            .map(|key_side| words[self.panel(head, key_side)].split_at(self.block_rows));
        let mut lanes = vec![0; 2 * d];
        let (key_lanes, value_lanes) = lanes.split_at_mut(d);
        let mut scans = [Scan::new(key_lanes), Scan::new(value_lanes)];
        for r in 0..rows {
            for ((scan, panel), (row_fp, _)) in scans.iter_mut().zip(panels).zip(fps) {
                scan.row(r, &panel[r * d..(r + 1) * d], row_fp[r]);
            }
        }
        if let Some(bad) = bad_sumrows {
            if !self.lanes_word_matches(index, head, rows) {
                bad.extend((0..rows).filter(|&r| {
                    let (stored, fresh) = self.sumrow(index, r, head);
                    stored.to_bits() != fresh.to_bits()
                }));
            }
        }
        [0, 1].map(|side| scans[side].finish(panels[side], fps[side].1))
    }

    /// Whether head `head`'s lane word in block `index` equals the sum of
    /// its first `rows` stored checksum lanes' bits.
    pub(super) fn lanes_word_matches(&self, index: usize, head: usize, rows: usize) -> bool {
        let lane = self.lane(index, 0, head);
        lanes_word(&self.sumrows[lane..lane + rows])
            == self.fingerprints(index)[self.lanes_word(head)]
    }

    /// Undoes a one-word [`Damage::Word`] in block `index`'s (`head`,
    /// side) panel in place, then — on the value side — recomputes the
    /// head's checksum lanes over the first `rows` rows from the mended
    /// storage, and their lane word.
    pub(super) fn mend(
        &mut self,
        index: usize,
        head: usize,
        key_side: bool,
        (row, lane, delta): (usize, usize, u64),
        rows: usize,
    ) {
        let x = self.element_mut(key_side, index, row, head, lane);
        *x = E::from_raw_bits(x.raw_bits().wrapping_sub(delta));
        if !key_side {
            for r in 0..rows {
                let at = self.lane(index, r, head);
                self.sumrows[at] = self.value_sum(index, r, head);
            }
            let lane = self.lane(index, 0, head);
            let word = lanes_word(&self.sumrows[lane..lane + rows]);
            let at = self.lanes_word(head);
            self.fingerprints_mut(index)[at] = word;
        }
    }

    /// Lane-order f64 sum of the **stored** value lanes of row `r`, head
    /// `head` of block `index` — the row's Eq. 4 `sumrow` lane: computed
    /// from what the block actually holds, so BF16-stored rows contribute
    /// their rounded values.
    #[inline]
    fn value_sum(&self, index: usize, r: usize, head: usize) -> f64 {
        let at = self.slot(r, head);
        self.block(index).1[at..at + self.head_dim]
            .iter()
            .map(|x| x.to_f64())
            .sum()
    }

    /// The stored checksum lane of row `r`, head `head` of block `index`,
    /// and its recompute from the stored value row.
    pub(super) fn sumrow(&self, index: usize, r: usize, head: usize) -> (f64, f64) {
        let stored = self.sumrows[self.lane(index, r, head)];
        (stored, self.value_sum(index, r, head))
    }

    /// The stored checksum lane of row `r`, head `head` of block `index`,
    /// writable.
    pub(super) fn sumrow_mut(&mut self, index: usize, r: usize, head: usize) -> &mut f64 {
        let at = self.lane(index, r, head);
        &mut self.sumrows[at]
    }

    /// Row `r` of block `index` (keys when `keys`, else values), gathered
    /// across heads and widened into `S` (exact: every cache format
    /// embeds in f64).
    pub(super) fn gather_row<S: Scalar>(&self, keys: bool, index: usize, r: usize) -> Vec<S> {
        let (k, v) = self.block(index);
        let panel = if keys { k } else { v };
        let mut out = Vec::with_capacity(self.heads * self.head_dim);
        for h in 0..self.heads {
            let at = self.slot(r, h);
            out.extend(
                panel[at..at + self.head_dim]
                    .iter()
                    .map(|x| S::from_f64(x.to_f64())),
            );
        }
        out
    }

    /// Head `head`'s first `rows` rows of block `index`: the contiguous
    /// K and V spans (`rows × head_dim`) and their checksum lanes.
    #[inline]
    pub(super) fn head_panels(
        &self,
        index: usize,
        head: usize,
        rows: usize,
    ) -> (&[E], &[E], &[f64]) {
        let at = self.slot(0, head);
        let span = at..at + rows * self.head_dim;
        let lane = self.lane(index, 0, head);
        let (k, v) = self.block(index);
        (&k[span.clone()], &v[span], &self.sumrows[lane..lane + rows])
    }

    /// One stored K (`key_side`) or V element of row `r`, head `head` of
    /// block `index`, writable — for fault injection.
    pub(super) fn element_mut(
        &mut self,
        key_side: bool,
        index: usize,
        r: usize,
        head: usize,
        lane: usize,
    ) -> &mut E {
        let at = self.slot(r, head) + lane;
        let (k, v) = self.block_mut(index);
        if key_side {
            &mut k[at]
        } else {
            &mut v[at]
        }
    }
}

/// Copies the elements at `from` (slab, range) over those at `to` within
/// one set of slabs.
fn copy_span<E: Copy>(
    slabs: &mut [Vec<E>],
    from: (usize, Range<usize>),
    to: (usize, Range<usize>),
) {
    let ((fs, fr), (ts, tr)) = (from, to);
    if fs == ts {
        slabs[fs].copy_within(fr, tr.start);
    } else if fs < ts {
        let (head, tail) = slabs.split_at_mut(ts);
        tail[0][tr].copy_from_slice(&head[fs][fr]);
    } else {
        let (head, tail) = slabs.split_at_mut(fs);
        head[ts][tr].copy_from_slice(&tail[0][fr]);
    }
}

/// Wrapping sum of checksum lanes' raw bits: a head's lane word.
fn lanes_word(lanes: &[f64]) -> u64 {
    lanes
        .iter()
        .fold(0u64, |acc, x| acc.wrapping_add(x.to_bits()))
}

/// One panel's fingerprint recompute in progress: its lane words so far
/// and the rows whose row word disagreed.
struct Scan<'a> {
    lanes: &'a mut [u64],
    bad_rows: usize,
    /// The last disagreeing row and its delta `stored − fingerprinted`.
    row_hit: (usize, u64),
}

impl<'a> Scan<'a> {
    /// A scan accumulating into `lanes` (zeroed, `head_dim` words).
    fn new(lanes: &'a mut [u64]) -> Scan<'a> {
        Scan {
            lanes,
            bad_rows: 0,
            row_hit: (0, 0),
        }
    }

    /// Folds stored row `r` in, comparing its row word with `fingerprint`.
    #[inline]
    fn row<E: Scalar>(&mut self, r: usize, row: &[E], fingerprint: u64) {
        let delta = fold_words(self.lanes, row).wrapping_sub(fingerprint);
        if delta != 0 {
            self.bad_rows += 1;
            self.row_hit = (r, delta);
        }
    }

    /// Compares the lane words with the panel's `lane_fp` and names the
    /// damage, if any: one word when exactly one row and one lane
    /// disagree by the same delta and undoing it yields a bit pattern of
    /// the element's width.
    fn finish<E: Scalar>(&self, panel: &[E], lane_fp: &[u64]) -> Option<Damage> {
        let (mut bad_lanes, mut lane_hit) = (0, (0, 0));
        for (c, (&x, &stored)) in self.lanes.iter().zip(lane_fp).enumerate() {
            let delta = x.wrapping_sub(stored);
            if delta != 0 {
                bad_lanes += 1;
                lane_hit = (c, delta);
            }
        }
        if self.bad_rows == 0 && bad_lanes == 0 {
            return None;
        }
        let ((row, delta), (lane, lane_delta)) = (self.row_hit, lane_hit);
        let d = self.lanes.len();
        let fixed = panel[row * d + lane].raw_bits().wrapping_sub(delta);
        let fits = E::BIT_WIDTH == 64 || fixed >> E::BIT_WIDTH == 0;
        Some(
            if self.bad_rows == 1 && bad_lanes == 1 && delta == lane_delta && fits {
                Damage::Word { row, lane, delta }
            } else {
                Damage::Beyond
            },
        )
    }
}

/// Adds a row's raw element bits into the lane words and returns their
/// sum, the row word — wrapping, as fingerprints are kept.
#[inline]
fn fold_words<E: Scalar>(lanes: &mut [u64], row: &[E]) -> u64 {
    let mut word = 0u64;
    for (acc, x) in lanes.iter_mut().zip(row) {
        let bits = x.raw_bits();
        *acc = acc.wrapping_add(bits);
        word = word.wrapping_add(bits);
    }
    word
}

/// Stores each `src` element into `dst` through `E::from_f64` (rounding
/// when `E` is narrower; the identity when `S = E`).
fn convert<S: Scalar, E: Scalar>(dst: &mut [E], src: &[S]) {
    for (x, &y) in dst.iter_mut().zip(src) {
        *x = E::from_f64(y.to_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EvictionPolicy, KvCache, KvFormat, KvLayout};

    /// `reserve_rows` under `Mixed` reserves both arenas: appends that
    /// force demotion reallocate neither the native nor the BF16 panels.
    #[test]
    fn mixed_reserve_rows_keeps_both_arenas_reallocation_free() {
        let mut cache = KvCache::<f64>::with_policy(
            2,
            4,
            4,
            KvLayout::HeadMajor,
            KvFormat::Mixed { burst_blocks: 1 },
            EvictionPolicy::RetainAll,
        );
        let seqs = [cache.add_sequence(), cache.add_sequence()];
        let rows_per_seq = 24;
        cache.reserve_rows(seqs.len() * rows_per_seq);
        // Each slab's address and capacity: equal means no slab was
        // added or moved.
        fn slabs<E>(a: &[Vec<E>]) -> Vec<(*const E, usize)> {
            a.iter().map(|s| (s.as_ptr(), s.capacity())).collect()
        }
        let capacity = |c: &KvCache<f64>| (slabs(&c.native.k), slabs(&c.bf16.k));
        let reserved = capacity(&cache);
        for t in 0..rows_per_seq {
            for &s in &seqs {
                let row = [t as f64 + 0.25; 8];
                cache.append(s, &row, &row);
            }
        }
        assert!(cache.allocated_blocks16() > 0, "the appends demoted blocks");
        assert_eq!(capacity(&cache), reserved);
    }
}
