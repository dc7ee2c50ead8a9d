//! Dirty-block bitmaps over flat gradient buffers.
//!
//! A training step's hash-grid gradient is sparse: a shard of a few
//! rays writes a few thousand of the table's ~10⁵ floats. A
//! [`DirtyBlocks`] records which 64-byte blocks (16 floats) of a
//! buffer were written, and its run walk visits maximal runs of set
//! blocks, so zeroing, merging and the optimizer step touch only what
//! a step wrote. Walking runs instead of single blocks
//! keeps a mostly-dirty bitmap as cheap as the dense loop.
//!
//! A bitmap also splits into chunks of whole words, so tasks that each
//! own a range of words can update the bitmap, and the floats it
//! covers, side by side.

use std::ops::Range;

/// Floats per block: 16 `f32` are 64 bytes, one cache line.
const BLOCK: usize = 16;

/// Floats covered by one bitmap word: 64 blocks.
pub(crate) const WORD_FLOATS: usize = 64 * BLOCK;

/// One bit per 16-float block of a flat buffer of `len` floats.
/// Bits past the last block are never set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyBlocks {
    words: Vec<u64>,
    blocks: usize,
    len: usize,
}

impl DirtyBlocks {
    /// An all-clean bitmap over a buffer of `len` floats.
    pub(crate) fn new(len: usize) -> Self {
        let blocks = len.div_ceil(BLOCK);
        // lint: allow(h2): one-time setup — a bitmap is built with its
        // gradient buffer, then cleared and reused by every step
        DirtyBlocks { words: vec![0; blocks.div_ceil(64)], blocks, len }
    }

    /// Marks the blocks holding floats `start..end` dirty.
    #[inline]
    fn mark(&mut self, start: usize, end: usize) {
        debug_assert!(start <= end && end <= self.len, "float range past the buffer");
        if start < end {
            for block in start / BLOCK..(end - 1) / BLOCK + 1 {
                if let Some(word) = self.words.get_mut(block / 64) {
                    *word |= 1 << (block % 64);
                }
            }
        }
    }

    /// Marks, for every address `a` in `addrs`, the floats
    /// `offset + a * width .. offset + (a + 1) * width`: the feature
    /// slots of a batch of table entries.
    pub fn mark_slots(&mut self, offset: usize, width: usize, addrs: &[u32]) {
        if width == 0 || !BLOCK.is_multiple_of(width) || !offset.is_multiple_of(width) {
            for &a in addrs {
                let slot = offset + a as usize * width;
                self.mark(slot, slot + width);
            }
            return;
        }
        // Every slot lies inside one block. Blocks of one bitmap word
        // that follow each other are OR-ed in a register and stored
        // once, which keeps runs of nearby slots off a load-store chain.
        let (mut word, mut bits) = (usize::MAX, 0u64);
        for &a in addrs {
            let block = (offset + a as usize * width) / BLOCK;
            debug_assert!(block < self.blocks, "slot past the buffer");
            if block / 64 != word {
                if let Some(w) = self.words.get_mut(word) {
                    *w |= bits;
                }
                (word, bits) = (block / 64, 0);
            }
            bits |= 1 << (block % 64);
        }
        if let Some(w) = self.words.get_mut(word) {
            *w |= bits;
        }
    }

    /// Marks every block dirty.
    pub fn mark_all(&mut self) {
        self.words.fill(u64::MAX);
        if let Some(last) = self.words.last_mut() {
            if !self.blocks.is_multiple_of(64) {
                *last = (1 << (self.blocks % 64)) - 1;
            }
        }
    }

    /// Marks every block clean.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The maximal runs of dirty blocks in ascending order, as float
    /// ranges of the buffer; the last run ends at the buffer's end,
    /// not at a block boundary past it.
    pub(crate) fn runs(&self) -> Runs<'_> {
        self.runs_in(0..self.words.len())
    }

    /// [`DirtyBlocks::runs`] within bitmap words `words`, as float
    /// ranges relative to the first float of word `words.start`.
    ///
    /// # Panics
    ///
    /// Panics if `words` reaches past the bitmap.
    pub(crate) fn runs_in(&self, words: Range<usize>) -> Runs<'_> {
        assert!(words.end <= self.words.len(), "word range past the bitmap");
        let (blocks, len) = extent(self.blocks, self.len, &words);
        Runs { words: &self.words[words], blocks, len, next: 0 }
    }

    /// Splits the bitmap into consecutive chunks of `words` whole
    /// bitmap words (the last may hold fewer).
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub(crate) fn chunks_mut(&mut self, words: usize) -> impl Iterator<Item = DirtyChunk<'_>> {
        let (blocks, total) = (self.blocks, self.len);
        self.words.chunks_mut(words).enumerate().map(move |(i, chunk)| {
            let first = i * words;
            let (blocks, len) = extent(blocks, total, &(first..first + chunk.len()));
            DirtyChunk { words: chunk, first, blocks, len, total }
        })
    }
}

/// The blocks and floats that bitmap words `words` cover, of a bitmap
/// over `blocks` blocks and `len` floats.
fn extent(blocks: usize, len: usize, words: &Range<usize>) -> (usize, usize) {
    let first = words.start * 64;
    let covered = blocks.min(words.end * 64).saturating_sub(first);
    (covered, len.min(words.end * WORD_FLOATS).saturating_sub(first * BLOCK))
}

/// A run of whole words of a [`DirtyBlocks`], borrowed mutably; see
/// [`DirtyBlocks::chunks_mut`]. Float ranges are relative to the
/// chunk's first float.
#[derive(Debug)]
pub(crate) struct DirtyChunk<'a> {
    words: &'a mut [u64],
    /// The index of the chunk's first word in its bitmap.
    first: usize,
    /// Blocks and floats the chunk covers.
    blocks: usize,
    len: usize,
    /// Floats the whole bitmap covers.
    total: usize,
}

impl DirtyChunk<'_> {
    /// The floats of the buffer the chunk covers.
    pub(crate) fn floats(&self) -> Range<usize> {
        let start = self.first * WORD_FLOATS;
        start..start + self.len
    }

    /// The bitmap words the chunk covers.
    pub(crate) fn words(&self) -> Range<usize> {
        self.first..self.first + self.words.len()
    }

    /// The maximal runs of dirty blocks in the chunk, ascending.
    pub(crate) fn runs(&self) -> Runs<'_> {
        Runs { words: self.words, blocks: self.blocks, len: self.len, next: 0 }
    }

    /// Marks every block of the chunk clean.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Marks dirty every block of the chunk that `other` marks.
    ///
    /// # Panics
    ///
    /// Panics if `other` covers a buffer of another length.
    pub(crate) fn union_with(&mut self, other: &DirtyBlocks) {
        assert_eq!(self.total, other.len, "dirty bitmaps over different buffers");
        let theirs = &other.words[self.words()];
        for (word, &theirs) in self.words.iter_mut().zip(theirs) {
            *word |= theirs;
        }
    }
}

/// Iterator over the runs of a [`DirtyBlocks`]; see
/// [`DirtyBlocks::runs`].
#[derive(Debug, Clone)]
pub(crate) struct Runs<'a> {
    words: &'a [u64],
    blocks: usize,
    len: usize,
    /// The first block not yet walked.
    next: usize,
}

impl Iterator for Runs<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let start = first_block(self.words, self.next, false)?;
        let end = first_block(self.words, start, true).map_or(self.blocks, |b| b.min(self.blocks));
        self.next = end;
        Some(start * BLOCK..(end * BLOCK).min(self.len))
    }
}

/// The first block at or after `from` that is dirty, or clean when
/// `clean` is set.
fn first_block(words: &[u64], from: usize, clean: bool) -> Option<usize> {
    let flip = if clean { u64::MAX } else { 0 };
    let mut word = from / 64;
    let mut bits = (words.get(word)? ^ flip) & (u64::MAX << (from % 64));
    loop {
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        word += 1;
        bits = words.get(word)? ^ flip;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(d: &DirtyBlocks) -> Vec<Range<usize>> {
        d.runs().collect()
    }

    fn one(run: Range<usize>) -> Vec<Range<usize>> {
        vec![run]
    }

    #[test]
    fn empty_and_full_bitmaps() {
        for len in [0, 1, 16, 17, 1023, 1024, 1025, 64 * 16, 64 * 16 + 5] {
            let mut d = DirtyBlocks::new(len);
            assert!(runs(&d).is_empty(), "len {len}");
            d.mark_all();
            let expected = if len == 0 { vec![] } else { one(0..len) };
            assert_eq!(runs(&d), expected, "len {len}");
            d.clear();
            assert!(runs(&d).is_empty(), "len {len}");
        }
    }

    #[test]
    fn runs_cross_word_boundaries() {
        // 200 blocks: bits span four words.
        let mut d = DirtyBlocks::new(200 * BLOCK);
        d.mark(60 * BLOCK, 70 * BLOCK); // blocks 60..70, across words 0 and 1
        d.mark(127 * BLOCK + 3, 129 * BLOCK); // blocks 127, 128
        d.mark(5 * BLOCK + 15, 5 * BLOCK + 16); // block 5, last float only
        d.mark(190 * BLOCK, 200 * BLOCK); // tail run to the end
        assert_eq!(
            runs(&d),
            vec![
                5 * BLOCK..6 * BLOCK,
                60 * BLOCK..70 * BLOCK,
                127 * BLOCK..129 * BLOCK,
                190 * BLOCK..200 * BLOCK
            ]
        );
        // A run spanning all of word 1 and into word 2.
        d.mark(64 * BLOCK, 130 * BLOCK);
        assert_eq!(runs(&d)[1], 60 * BLOCK..130 * BLOCK);
    }

    #[test]
    fn the_final_partial_block_ends_at_the_buffer() {
        // 5 full blocks and 3 floats: the last block is partial.
        let len = 5 * BLOCK + 3;
        let mut d = DirtyBlocks::new(len);
        d.mark(len - 1, len);
        assert_eq!(runs(&d), one(5 * BLOCK..len));
        d.mark(4 * BLOCK, 4 * BLOCK + 1);
        assert_eq!(runs(&d), one(4 * BLOCK..len));
        d.mark(0, 2);
        assert_eq!(runs(&d), vec![0..BLOCK, 4 * BLOCK..len]);
    }

    #[test]
    fn slot_marks_match_range_marks() {
        let addrs = [0u32, 1, 7, 8, 9, 40, 41, 300, 2, 1000, 1001, 63];
        for (offset, width) in [(0, 2), (64, 2), (32, 4), (0, 16), (6, 3), (5, 2), (0, 32)] {
            let len = offset + 1002 * width;
            let (mut slots, mut ranges) = (DirtyBlocks::new(len), DirtyBlocks::new(len));
            slots.mark_slots(offset, width, &addrs);
            for &a in &addrs {
                let slot = offset + a as usize * width;
                ranges.mark(slot, slot + width);
            }
            assert_eq!(runs(&slots), runs(&ranges), "offset {offset}, width {width}");
        }
    }

    /// The whole bitmap's runs cut at the boundaries of `words`-word
    /// chunks: what the chunk and word-range walks must produce.
    fn cut_runs(d: &DirtyBlocks, words: usize) -> Vec<Vec<Range<usize>>> {
        let span = words * WORD_FLOATS;
        (0..d.words.len().div_ceil(words))
            .map(|c| {
                let (lo, hi) = (c * span, (c + 1) * span);
                let clipped = runs(d).into_iter().map(|r| r.start.max(lo)..r.end.min(hi));
                clipped.filter(|r| r.start < r.end).map(|r| r.start - lo..r.end - lo).collect()
            })
            .collect()
    }

    #[test]
    fn chunks_and_word_ranges_walk_the_runs_they_cover() {
        // Runs within, across and at the edges of words, and a final
        // word (and block) only partly covered by the buffer.
        let len = 5 * WORD_FLOATS - 3 * BLOCK - 5;
        let mut d = DirtyBlocks::new(len);
        for (start, end) in
            [(0, 1), (60 * BLOCK, 70 * BLOCK), (2 * WORD_FLOATS - 1, 3 * WORD_FLOATS)]
        {
            d.mark(start, end);
        }
        d.mark(len - 1, len);
        let words = d.words.len();
        for chunk_words in [1, 2, 3, 5, 8] {
            let expected = cut_runs(&d, chunk_words);
            let ranges: Vec<_> = (0..words)
                .step_by(chunk_words)
                .map(|w| d.runs_in(w..(w + chunk_words).min(words)).collect::<Vec<_>>())
                .collect();
            assert_eq!(ranges, expected, "word ranges of {chunk_words}");
            let mut copy = d.clone();
            let chunks: Vec<_> = copy.chunks_mut(chunk_words).collect();
            assert_eq!(chunks.len(), expected.len(), "chunks of {chunk_words}");
            for (c, chunk) in chunks.iter().enumerate() {
                assert_eq!(
                    chunk.runs().collect::<Vec<_>>(),
                    expected[c],
                    "chunk {c} of {chunk_words}"
                );
                let start = c * chunk_words;
                assert_eq!(chunk.words(), start..(start + chunk_words).min(words));
                let floats = start * WORD_FLOATS..((start + chunk_words) * WORD_FLOATS).min(len);
                assert_eq!(chunk.floats(), floats, "chunk {c} of {chunk_words}");
            }
        }
        // Clearing and re-uniting chunk by chunk rebuilds the bitmap.
        let mut rebuilt = d.clone();
        for mut chunk in rebuilt.chunks_mut(2) {
            chunk.clear();
            assert_eq!(chunk.runs().count(), 0);
            chunk.union_with(&d);
        }
        assert_eq!(rebuilt, d);
    }

    #[test]
    fn marks_cover_straddling_ranges_and_unions_merge() {
        let mut a = DirtyBlocks::new(100 * BLOCK);
        a.mark(BLOCK - 1, BLOCK + 1); // straddles blocks 0 and 1
        a.mark(10, 10); // empty range marks nothing more
        assert_eq!(runs(&a), one(0..2 * BLOCK));
        let mut b = DirtyBlocks::new(100 * BLOCK);
        b.mark(2 * BLOCK, 3 * BLOCK);
        b.mark(99 * BLOCK, 100 * BLOCK);
        a.chunks_mut(1).for_each(|mut chunk| chunk.union_with(&b));
        assert_eq!(runs(&a), vec![0..3 * BLOCK, 99 * BLOCK..100 * BLOCK]);
        // Every float of a marked range lies in some run.
        let covered: usize = runs(&a).iter().map(|r| r.len()).sum();
        assert_eq!(covered, 4 * BLOCK);
    }
}
