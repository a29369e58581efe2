package stree

import (
	"fmt"

	"nok/internal/dewey"
	"nok/internal/symtab"
)

// This file implements the paper's Algorithm 2: the physical FIRST-CHILD
// and FOLLOWING-SIBLING primitives over the paged string representation,
// plus the subtree-end scan that yields interval encodings for structural
// joins (§5).

// Root returns the position of the document root's open token.
func (s *Store) Root() (Pos, error) {
	if len(s.headers) == 0 {
		return Pos{}, ErrEmptyStore
	}
	// Skip leading empty pages (possible after updates).
	for ci := 0; ci < len(s.headers); ci++ {
		if s.headers[ci].used > 0 {
			return Pos{Chain: ci, Off: 0}, nil
		}
	}
	return Pos{}, ErrEmptyStore
}

// nextTokenPos returns the position of the token following the token at p,
// reading at most the page containing p (token length determines the next
// offset; empty pages in the chain are skipped without I/O thanks to the
// header table). ok is false at the end of the document.
func (s *Store) nextTokenPos(p Pos, tokLen int) (Pos, bool) {
	off := p.Off + tokLen
	ci := p.Chain
	for {
		if off < int(s.headers[ci].used) {
			return Pos{Chain: ci, Off: off}, true
		}
		ci++
		off = 0
		if ci >= len(s.headers) {
			return Pos{}, false
		}
	}
}

// tokenAt returns whether the token at p is a close marker and, if not, its
// symbol. The page is accessed through the buffer pool.
func (s *Store) tokenAt(p Pos) (isClose bool, sym symtab.Sym, err error) {
	h := s.headers[p.Chain]
	pg, err := s.pf.Get(h.page)
	if err != nil {
		return false, 0, err
	}
	defer s.pf.Unpin(pg)
	cont := content(pg.Data(), int(h.used))
	if p.Off >= len(cont) {
		return false, 0, fmt.Errorf("%w: %v beyond page content", ErrBadPos, p)
	}
	if cont[p.Off] == CloseByte {
		return true, 0, nil
	}
	return false, symtab.Sym(uint16(cont[p.Off])<<8 | uint16(cont[p.Off+1])), nil
}

// FirstChild returns the position of p's first child, or ok=false if p has
// no children. Per Algorithm 2, the first child is simply the next token
// when that token is an open character (its level is then level(p)+1).
func (s *Store) FirstChild(p Pos) (Pos, bool, error) {
	if !s.validPos(p) {
		return Pos{}, false, fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	np, ok := s.nextTokenPos(p, OpenTokenSize)
	if !ok {
		return Pos{}, false, nil
	}
	isClose, _, err := s.tokenAt(np)
	if err != nil {
		return Pos{}, false, err
	}
	if isClose {
		return Pos{}, false, nil
	}
	return np, true, nil
}

// FollowingSibling returns the position of p's next sibling, or ok=false if
// none exists. It scans forward for an open token at level(p), stopping at
// the parent's close (running level level(p)-2). With skip set, pages whose
// [lo,hi] range cannot contain running level level(p)-1 are skipped without
// I/O — the paper's page-skip optimization driven by the in-memory header
// table; skip=false is the ablation that quantifies the (st,lo,hi) vectors.
// Page work is also charged to nc, which may be nil.
func (s *Store) FollowingSibling(p Pos, skip bool, nc *NavCounters) (Pos, bool, error) {
	if !s.validPos(p) {
		return Pos{}, false, fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	levels, err := s.pageLevels(p.Chain)
	if err != nil {
		return Pos{}, false, err
	}
	l := levels[p.Off] // node level of p

	ci := p.Chain
	off := p.Off + OpenTokenSize
	for ci < len(s.headers) {
		h := s.headers[ci]
		if off >= int(h.used) {
			ci, off = ci+1, 0
			continue
		}
		if skip && off == 0 {
			// The page can be relevant only if the running level touches
			// l-1 inside it (sibling opens are immediately preceded by
			// running level l-1; the parent's close is too, because lo/hi
			// include st). See the package comment for why st is included.
			if int(h.lo) > int(l)-1 || int(h.hi) < int(l)-1 {
				s.navSkipped.Add(1)
				mPagesSkipped.Inc()
				nc.add(0, 1)
				ci++
				continue
			}
		}
		s.navExamined.Add(1)
		mPagesExamined.Inc()
		nc.add(1, 0)
		pls, err := s.pageLevels(ci)
		if err != nil {
			return Pos{}, false, err
		}
		h2 := s.headers[ci]
		pg, err := s.pf.Get(h2.page)
		if err != nil {
			return Pos{}, false, err
		}
		cont := content(pg.Data(), int(h2.used))
		for off < len(cont) {
			if cont[off] == CloseByte {
				if pls[off] == l-2 {
					// Parent closed: no following sibling.
					s.pf.Unpin(pg)
					return Pos{}, false, nil
				}
				off += CloseTokenSize
				continue
			}
			if pls[off] == l {
				s.pf.Unpin(pg)
				return Pos{Chain: ci, Off: off}, true, nil
			}
			off += OpenTokenSize
		}
		s.pf.Unpin(pg)
		ci, off = ci+1, 0
	}
	return Pos{}, false, nil
}

// SubtreeEnd returns the position of the close token matching the open
// token at p. Pages that cannot contain running level level(p)-1 are
// skipped via the header table. Page work is also charged to nc, which may
// be nil.
func (s *Store) SubtreeEnd(p Pos, nc *NavCounters) (Pos, error) {
	if !s.validPos(p) {
		return Pos{}, fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	levels, err := s.pageLevels(p.Chain)
	if err != nil {
		return Pos{}, err
	}
	l := levels[p.Off]

	ci := p.Chain
	off := p.Off + OpenTokenSize
	for ci < len(s.headers) {
		h := s.headers[ci]
		if off >= int(h.used) {
			ci, off = ci+1, 0
			continue
		}
		if off == 0 {
			// The matching close runs the level down to l-1; skip pages
			// whose level range stays strictly above (or below) that.
			if int(h.lo) > int(l)-1 || int(h.hi) < int(l)-1 {
				s.navSkipped.Add(1)
				mPagesSkipped.Inc()
				nc.add(0, 1)
				ci++
				continue
			}
		}
		s.navExamined.Add(1)
		mPagesExamined.Inc()
		nc.add(1, 0)
		pls, err := s.pageLevels(ci)
		if err != nil {
			return Pos{}, err
		}
		h2 := s.headers[ci]
		pg, err := s.pf.Get(h2.page)
		if err != nil {
			return Pos{}, err
		}
		cont := content(pg.Data(), int(h2.used))
		for off < len(cont) {
			if cont[off] == CloseByte {
				if pls[off] == l-1 {
					s.pf.Unpin(pg)
					return Pos{Chain: ci, Off: off}, nil
				}
				off += CloseTokenSize
				continue
			}
			off += OpenTokenSize
		}
		s.pf.Unpin(pg)
		ci, off = ci+1, 0
	}
	return Pos{}, fmt.Errorf("stree: no matching close for %v (corrupt store)", p)
}

// Interval returns the paper's interval encoding surrogate for the node at
// p: the DocPos of its open token and of its matching close (§5). Page work
// is also charged to nc, which may be nil.
func (s *Store) Interval(p Pos, nc *NavCounters) (Interval, error) {
	end, err := s.SubtreeEnd(p, nc)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Start: p.DocPos(), End: end.DocPos()}, nil
}

// ScanFunc receives each element node during a full document scan: its
// position, symbol, level and Dewey ID. The dewey.ID is only valid for the
// duration of the call; clone it to retain it. Returning false stops the
// scan.
type ScanFunc func(pos Pos, sym symtab.Sym, level int, id dewey.ID) bool

// Scan walks the whole document in document order (the naïve
// starting-point strategy of §3 and the index build path), deriving Dewey
// IDs on the fly, which is exactly why the paper stores no per-node IDs.
// Every non-empty page visited is charged to nc as examined; nc may be nil.
func (s *Store) Scan(fn ScanFunc, nc *NavCounters) error {
	if len(s.headers) == 0 {
		return nil
	}
	// Child-ordinal stack: ords[d] is the number of children of the node
	// at depth d seen so far. The Dewey ID of a node at depth d is
	// id[0..d], maintained incrementally.
	var id dewey.ID
	var ords []uint32
	depth := 0 // elements currently open

	for ci := 0; ci < len(s.headers); ci++ {
		h := s.headers[ci]
		if h.used == 0 {
			continue
		}
		nc.add(1, 0)
		pg, err := s.pf.Get(h.page)
		if err != nil {
			return err
		}
		cont := content(pg.Data(), int(h.used))
		levels, err := s.pageLevels(ci)
		if err != nil {
			s.pf.Unpin(pg)
			return err
		}
		for off := 0; off < len(cont); {
			if cont[off] == CloseByte {
				depth--
				id = id[:len(id)-1]
				ords = ords[:len(ords)-1]
				off += CloseTokenSize
				continue
			}
			sym := symtab.Sym(uint16(cont[off])<<8 | uint16(cont[off+1]))
			if depth == 0 {
				id = append(id, 0)
			} else {
				ords[len(ords)-1]++
				id = append(id, ords[len(ords)-1])
			}
			ords = append(ords, 0)
			depth++
			if !fn(Pos{Chain: ci, Off: off}, sym, int(levels[off]), id) {
				s.pf.Unpin(pg)
				return nil
			}
			off += OpenTokenSize
		}
		s.pf.Unpin(pg)
	}
	return nil
}

// String renders the whole stored string using tags for symbols — the
// "ab z)e)..." notation of Figure 4. Intended for tests and debugging on
// small documents.
func (s *Store) String(tags *symtab.Table) (string, error) {
	out := ""
	for ci := 0; ci < len(s.headers); ci++ {
		h := s.headers[ci]
		if h.used == 0 {
			continue
		}
		pg, err := s.pf.Get(h.page)
		if err != nil {
			return "", err
		}
		cont := content(pg.Data(), int(h.used))
		for off := 0; off < len(cont); {
			if cont[off] == CloseByte {
				out += ")"
				off += CloseTokenSize
				continue
			}
			sym := symtab.Sym(uint16(cont[off])<<8 | uint16(cont[off+1]))
			name, ok := tags.Name(sym)
			if !ok {
				name = fmt.Sprintf("<%d>", sym)
			}
			out += name + " "
			off += OpenTokenSize
		}
		s.pf.Unpin(pg)
	}
	return out, nil
}
