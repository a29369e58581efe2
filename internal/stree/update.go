package stree

import (
	"errors"
	"fmt"

	"nok/internal/symtab"
)

// This file implements the update path of §4.2: attaching a subtree is an
// insertion of its (balanced) token string at the right point of the stored
// string; when the target page's reserved slack is exhausted the tail of the
// page is cut-and-pasted into freshly allocated pages spliced into the page
// chain. Deletion removes a balanced token range and unlinks pages that
// become empty.
//
// Updates invalidate all outstanding Pos values and any position-bearing
// indexes built over the store; callers re-derive positions (the paper
// notes the Dewey-ID B+ tree "may need to be reconstructed" after many
// updates, and the same holds for the position-valued tag index here).

// SubtreeEncoder serializes a subtree into the token bytes accepted by
// InsertBefore/InsertChild. Drive it like a Builder: Open/Close in SAX
// order.
type SubtreeEncoder struct {
	buf   []byte
	open  int
	nodes int
}

// Open appends an open token for sym.
func (e *SubtreeEncoder) Open(sym symtab.Sym) error {
	if sym == 0 || sym > symtab.MaxSym {
		return fmt.Errorf("stree: symbol %d out of range", sym)
	}
	e.buf = append(e.buf, byte(sym>>8), byte(sym))
	e.open++
	e.nodes++
	return nil
}

// Close appends a close token.
func (e *SubtreeEncoder) Close() error {
	if e.open == 0 {
		return errors.New("stree: SubtreeEncoder.Close without Open")
	}
	e.buf = append(e.buf, CloseByte)
	e.open--
	return nil
}

// Bytes returns the balanced token string, failing if elements remain open
// or nothing was encoded.
func (e *SubtreeEncoder) Bytes() ([]byte, error) {
	if e.open != 0 {
		return nil, fmt.Errorf("stree: SubtreeEncoder has %d unclosed element(s)", e.open)
	}
	if len(e.buf) == 0 {
		return nil, errors.New("stree: empty subtree")
	}
	return e.buf, nil
}

// NodeCount returns the number of element nodes encoded.
func (e *SubtreeEncoder) NodeCount() int { return e.nodes }

// countTokens returns the number of open tokens and verifies the byte
// string is a well-formed, non-empty, balanced token sequence.
func countTokens(tokens []byte) (opens int, err error) {
	if len(tokens) == 0 {
		return 0, errors.New("stree: empty token string")
	}
	depth := 0
	for i := 0; i < len(tokens); {
		if tokens[i] == CloseByte {
			depth--
			if depth < 0 {
				return 0, errors.New("stree: unbalanced token string (extra close)")
			}
			i += CloseTokenSize
			continue
		}
		if i+1 >= len(tokens) {
			return 0, errors.New("stree: truncated open token")
		}
		depth++
		opens++
		i += OpenTokenSize
	}
	if depth != 0 {
		return 0, errors.New("stree: unbalanced token string (unclosed opens)")
	}
	return opens, nil
}

// InsertChild inserts the balanced token string as the last child of the
// node at parent. All outstanding positions are invalidated.
func (s *Store) InsertChild(parent Pos, tokens []byte) error {
	end, err := s.SubtreeEnd(parent, nil)
	if err != nil {
		return err
	}
	return s.insertAt(end, tokens)
}

// InsertBefore inserts the balanced token string immediately before the
// node at p, making it p's preceding sibling. p must not be the document
// root. All outstanding positions are invalidated.
func (s *Store) InsertBefore(p Pos, tokens []byte) error {
	if !s.validPos(p) {
		return fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	lvl, err := s.LevelAt(p)
	if err != nil {
		return err
	}
	if lvl <= 1 {
		return errors.New("stree: cannot insert a sibling of the document root")
	}
	return s.insertAt(p, tokens)
}

// ErrReadOnly reports a mutation attempted on a snapshot view.
var ErrReadOnly = errors.New("stree: store view is read-only")

// insertAt splices tokens in before the token at p.
func (s *Store) insertAt(p Pos, tokens []byte) error {
	if s.file == nil {
		return ErrReadOnly
	}
	opens, err := countTokens(tokens)
	if err != nil {
		return err
	}
	if !s.validPos(p) {
		return fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	defer s.levels.invalidateAll()

	ci := p.Chain
	h := &s.headers[ci]
	pg, err := s.file.GetMut(h.page)
	if err != nil {
		return err
	}
	d := pg.Data()
	used := int(h.used)

	if used+len(tokens) <= s.contentCapacity() {
		// Fast path: the page's slack absorbs the insertion.
		cont := d[pageHeaderSize : pageHeaderSize+used+len(tokens)]
		copy(cont[p.Off+len(tokens):], cont[p.Off:used])
		copy(cont[p.Off:], tokens)
		h.used = uint16(used + len(tokens))
		s.recomputeBounds(ci, cont)
		s.writePageHeader(ci, d)
		pg.MarkDirty()
		s.pf.Unpin(pg)
	} else {
		// Slow path (the paper's cut-and-paste): keep [0, off) in this
		// page, move tokens ++ tail into new pages spliced after it.
		tail := make([]byte, used-p.Off)
		copy(tail, d[pageHeaderSize+p.Off:pageHeaderSize+used])
		stream := make([]byte, 0, len(tokens)+len(tail))
		stream = append(stream, tokens...)
		stream = append(stream, tail...)

		h.used = uint16(p.Off)
		cont := d[pageHeaderSize : pageHeaderSize+p.Off]
		s.recomputeBounds(ci, cont)
		// Running level at the end of the truncated page = st + walk.
		lvl := runningLevelAfter(cont, h.st)

		chunks, err := s.chunkTokenStream(stream)
		if err != nil {
			s.pf.Unpin(pg)
			return err
		}
		newHeaders := make([]header, 0, len(chunks))
		for _, chunk := range chunks {
			np, err := s.file.Allocate()
			if err != nil {
				s.pf.Unpin(pg)
				return err
			}
			copy(np.Data()[pageHeaderSize:], chunk)
			nh := header{page: np.ID(), used: uint16(len(chunk)), st: lvl}
			nh.lo, nh.hi = boundsOf(chunk, lvl)
			lvl = runningLevelAfter(chunk, lvl)
			newHeaders = append(newHeaders, nh)
			np.MarkDirty()
			s.pf.Unpin(np)
		}
		// Splice into the header table after ci.
		s.headers = append(s.headers[:ci+1], append(newHeaders, s.headers[ci+1:]...)...)
		// Rewrite affected page headers: ci, the new pages, and the next
		// old page (its prev pointer changed).
		s.writePageHeader(ci, d)
		pg.MarkDirty()
		s.pf.Unpin(pg)
		for i := 0; i < len(newHeaders)+1 && ci+1+i < len(s.headers); i++ {
			if err := s.rewriteHeader(ci + 1 + i); err != nil {
				return err
			}
		}
	}

	s.nodeCount += uint64(opens)
	s.tokenBytes += uint64(len(tokens))
	if err := s.writeMeta(); err != nil {
		return err
	}
	return s.file.Flush()
}

// DeleteSubtree removes the node at p and all its descendants. All
// outstanding positions are invalidated.
func (s *Store) DeleteSubtree(p Pos) error {
	if s.file == nil {
		return ErrReadOnly
	}
	if !s.validPos(p) {
		return fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	end, err := s.SubtreeEnd(p, nil)
	if err != nil {
		return err
	}
	defer s.levels.invalidateAll()

	// Level entering the deleted range (= level after it, since the range
	// is balanced).
	lvls, err := s.pageLevels(p.Chain)
	if err != nil {
		return err
	}
	entryLevel := lvls[p.Off] - 1

	removedBytes := 0
	removedOpens := 0

	if p.Chain == end.Chain {
		// Single-page removal.
		ci := p.Chain
		h := &s.headers[ci]
		pg, err := s.file.GetMut(h.page)
		if err != nil {
			return err
		}
		d := pg.Data()
		used := int(h.used)
		from, to := p.Off, end.Off+CloseTokenSize
		opens, err := countTokens(d[pageHeaderSize+from : pageHeaderSize+to])
		if err != nil {
			s.pf.Unpin(pg)
			return fmt.Errorf("stree: corrupt range during delete: %w", err)
		}
		removedOpens = opens
		removedBytes = to - from
		copy(d[pageHeaderSize+from:], d[pageHeaderSize+to:pageHeaderSize+used])
		h.used = uint16(used - removedBytes)
		s.recomputeBounds(ci, d[pageHeaderSize:pageHeaderSize+int(h.used)])
		s.writePageHeader(ci, d)
		pg.MarkDirty()
		s.pf.Unpin(pg)
		if err := s.dropIfEmpty(ci); err != nil {
			return err
		}
	} else {
		// Multi-page removal: truncate the first page, drop whole pages in
		// between, trim the head of the last page.
		firstCi, lastCi := p.Chain, end.Chain

		// First page: keep [0, p.Off).
		h := &s.headers[firstCi]
		pg, err := s.file.GetMut(h.page)
		if err != nil {
			return err
		}
		d := pg.Data()
		seg := d[pageHeaderSize+p.Off : pageHeaderSize+int(h.used)]
		removedOpens += opensIn(seg)
		removedBytes += len(seg)
		h.used = uint16(p.Off)
		s.recomputeBounds(firstCi, d[pageHeaderSize:pageHeaderSize+p.Off])
		s.writePageHeader(firstCi, d)
		pg.MarkDirty()
		s.pf.Unpin(pg)

		// Middle pages: removed entirely.
		for ci := firstCi + 1; ci < lastCi; ci++ {
			h := s.headers[ci]
			pg, err := s.pf.Get(h.page)
			if err != nil {
				return err
			}
			seg := pg.Data()[pageHeaderSize : pageHeaderSize+int(h.used)]
			removedOpens += opensIn(seg)
			removedBytes += len(seg)
			s.pf.Unpin(pg)
		}

		// Last page: keep (end.Off+1, used); its st becomes entryLevel.
		lh := &s.headers[lastCi]
		lpg, err := s.file.GetMut(lh.page)
		if err != nil {
			return err
		}
		ld := lpg.Data()
		lused := int(lh.used)
		cut := end.Off + CloseTokenSize
		seg = ld[pageHeaderSize : pageHeaderSize+cut]
		removedOpens += opensIn(seg)
		removedBytes += len(seg)
		copy(ld[pageHeaderSize:], ld[pageHeaderSize+cut:pageHeaderSize+lused])
		lh.used = uint16(lused - cut)
		lh.st = entryLevel
		s.recomputeBounds(lastCi, ld[pageHeaderSize:pageHeaderSize+int(lh.used)])
		s.writePageHeader(lastCi, ld)
		lpg.MarkDirty()
		s.pf.Unpin(lpg)

		// Unlink and free the fully removed middle pages (back to front so
		// chain indexes stay valid), then drop first/last if emptied.
		for ci := lastCi - 1; ci > firstCi; ci-- {
			if err := s.removeFromChain(ci); err != nil {
				return err
			}
		}
		// After removals, lastCi shifted left to firstCi+1.
		if err := s.dropIfEmpty(firstCi + 1); err != nil {
			return err
		}
		if err := s.dropIfEmpty(firstCi); err != nil {
			return err
		}
	}

	s.nodeCount -= uint64(removedOpens)
	s.tokenBytes -= uint64(removedBytes)
	if err := s.writeMeta(); err != nil {
		return err
	}
	return s.file.Flush()
}

// ---- helpers ----------------------------------------------------------------

// chunkTokenStream splits a token stream into chunks of at most fillMax
// bytes, never splitting a token.
func (s *Store) chunkTokenStream(stream []byte) ([][]byte, error) {
	capacity := s.contentCapacity()
	fillMax := capacity * (100 - s.reservePct) / 100
	if fillMax < OpenTokenSize+CloseTokenSize {
		fillMax = OpenTokenSize + CloseTokenSize
	}
	var chunks [][]byte
	start := 0
	cur := 0
	for cur < len(stream) {
		tok := OpenTokenSize
		if stream[cur] == CloseByte {
			tok = CloseTokenSize
		}
		if cur+tok-start > fillMax {
			chunks = append(chunks, stream[start:cur])
			start = cur
		}
		cur += tok
	}
	if cur > len(stream) {
		return nil, errors.New("stree: token stream ends mid-token")
	}
	if start < len(stream) {
		chunks = append(chunks, stream[start:])
	}
	return chunks, nil
}

// recomputeBounds refreshes lo/hi (including st) for chain index ci whose
// content is cont.
func (s *Store) recomputeBounds(ci int, cont []byte) {
	h := &s.headers[ci]
	h.lo, h.hi = boundsOf(cont, h.st)
}

// boundsOf returns the min/max running level over cont starting from st,
// including st itself.
func boundsOf(cont []byte, st int16) (lo, hi int16) {
	lo, hi = st, st
	lvl := st
	for i := 0; i < len(cont); {
		if cont[i] == CloseByte {
			lvl--
			i += CloseTokenSize
		} else {
			lvl++
			i += OpenTokenSize
		}
		if lvl < lo {
			lo = lvl
		}
		if lvl > hi {
			hi = lvl
		}
	}
	return lo, hi
}

// runningLevelAfter returns the running level after processing cont
// starting from st.
func runningLevelAfter(cont []byte, st int16) int16 {
	lvl := st
	for i := 0; i < len(cont); {
		if cont[i] == CloseByte {
			lvl--
			i += CloseTokenSize
		} else {
			lvl++
			i += OpenTokenSize
		}
	}
	return lvl
}

// opensIn counts open tokens in a well-formed token segment (which may be
// unbalanced, e.g. the head or tail of a subtree span).
func opensIn(seg []byte) int {
	n := 0
	for i := 0; i < len(seg); {
		if seg[i] == CloseByte {
			i += CloseTokenSize
		} else {
			n++
			i += OpenTokenSize
		}
	}
	return n
}

// rewriteHeader flushes the header of chain index ci to its page.
func (s *Store) rewriteHeader(ci int) error {
	if ci < 0 || ci >= len(s.headers) {
		return nil
	}
	pg, err := s.file.GetMut(s.headers[ci].page)
	if err != nil {
		return err
	}
	s.writePageHeader(ci, pg.Data())
	pg.MarkDirty()
	s.pf.Unpin(pg)
	return nil
}

// dropIfEmpty removes the page at chain index ci from the chain and frees
// it when it holds no content. The last remaining page is kept even when
// empty so the store always has a chain head.
func (s *Store) dropIfEmpty(ci int) error {
	if ci < 0 || ci >= len(s.headers) || s.headers[ci].used != 0 || len(s.headers) == 1 {
		return nil
	}
	return s.removeFromChain(ci)
}

// removeFromChain unlinks the page at chain index ci and frees it.
func (s *Store) removeFromChain(ci int) error {
	id := s.headers[ci].page
	s.headers = append(s.headers[:ci], s.headers[ci+1:]...)
	// Neighbors' next/prev changed.
	if err := s.rewriteHeader(ci - 1); err != nil {
		return err
	}
	if err := s.rewriteHeader(ci); err != nil {
		return err
	}
	return s.file.Free(id)
}
