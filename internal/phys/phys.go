// Package phys is the content store of the simulated host's physical
// memory. It tracks what every 4 KiB frame currently holds, at 64-bit
// word granularity, and keeps each frame in the cheapest of three
// tiers that can represent it:
//
//   - pattern: every word of the page equals one 64-bit value. A
//     freshly created memory is all pattern-zero, so it costs nothing
//     beyond the per-frame arrays.
//   - sparse: the pattern plus up to sparseMax (index, word)
//     overrides, in a fixed-size record. Page-table pages that hold a
//     handful of entries — every one-entry IOPT leaf that vIOMMU
//     exhaustion burns — live here.
//   - dense: all 512 words, in a page taken from a recycled store.
//
// Per-frame state is struct-of-arrays: a pattern word and an int32
// slot naming the frame's sparse record or dense page, 12 bytes per
// frame and no pointers, which is what lets the simulation model a
// 16 GiB host in a few hundred megabytes.
//
// Rowhammer bit flips are applied here: a flip mutates whatever the
// victim frame currently holds, whether that is attacker data, an EPT
// entry, an IOPT entry or another VM's memory. Nothing in the store
// knows or cares who owns a frame; ownership is the hypervisor's
// problem, and violating it through flips is the attack.
package phys

import (
	"fmt"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
)

// wordsPerPage is the number of 64-bit words in one frame.
const wordsPerPage = memdef.PageSize / 8

// sparseMax is the most overrides a sparse frame holds. Writing a
// (sparseMax+1)th distinct word that differs from the pattern promotes
// the frame to dense.
const sparseMax = 8

// sparseRec is a sparse frame's overrides: word idx[k] holds val[k]
// for k < n, every other word holds the frame's pattern. An override
// never equals the pattern (writing the pattern back drops it), so a
// sparse frame is uniform exactly when n is 0.
type sparseRec struct {
	val [sparseMax]uint64
	idx [sparseMax]uint16
	n   uint8
}

// densePage is a dense frame's explicit content.
type densePage = [wordsPerPage]uint64

// sparseStore hands out sparse records by index and recycles released
// ones. It grows by whole chunks, so growing copies only chunk
// pointers, and never shrinks: it holds the most records ever live at
// once.
type sparseStore struct {
	chunks []*[sparseChunk]sparseRec
	n      int32 // records handed out from the chunks so far
	free   []int32
}

const sparseChunk = 64 // records per chunk, 5.5 KiB

func (s *sparseStore) at(i int32) *sparseRec {
	return &s.chunks[uint32(i)/sparseChunk][uint32(i)%sparseChunk]
}

// alloc returns the index of an empty record.
func (s *sparseStore) alloc() int32 {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = s.n
		if int(i/sparseChunk) == len(s.chunks) {
			s.chunks = append(s.chunks, new([sparseChunk]sparseRec))
		}
		s.n++
	}
	s.at(i).n = 0
	return i
}

// denseStore hands out dense pages by index and recycles released
// ones. Each page is its own allocation, so growing copies only page
// pointers, and a memory that densifies one frame pays for one page.
type denseStore struct {
	pages []*densePage
	free  []int32
}

// alloc returns the index of a page with arbitrary content.
func (s *denseStore) alloc() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.pages = append(s.pages, new(densePage))
	return int32(len(s.pages) - 1)
}

// Memory is the physical memory content store.
type Memory struct {
	// pattern and slot are the per-frame arrays. slot is 0 for a
	// pattern frame, s > 0 for a sparse frame whose record is
	// sparse.at(s-1), and s < 0 for a dense frame whose page is
	// dense.pages[-s-1].
	pattern []uint64
	slot    []int32
	size    uint64

	// materialized counts frames not in the pattern tier.
	materialized int

	sparse sparseStore
	dense  denseStore

	led *ledger.Stream
}

// New creates a zeroed physical memory of the given byte size, which
// must be a positive multiple of the page size.
func New(size uint64) *Memory {
	if size == 0 || size%memdef.PageSize != 0 {
		panic(fmt.Sprintf("phys: bad memory size %#x", size))
	}
	n := size / memdef.PageSize
	return &Memory{
		pattern: make([]uint64, n),
		slot:    make([]int32, n),
		size:    size,
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// SetLedger attaches the determinism-ledger stream for applied bit
// flips. Each FlipBit call folds (address, bit, changed) into
// "phys.flip"; a nil recorder leaves the store unledgered at zero
// cost.
func (m *Memory) SetLedger(r *ledger.Recorder) {
	m.led = r.Stream("phys.flip")
}

// Frames returns the number of 4 KiB frames.
func (m *Memory) Frames() int { return len(m.slot) }

// MaterializedFrames returns how many frames are not in the pattern
// tier, a proxy for the simulation's real memory footprint. A frame
// enters the count on its first write that differs from its pattern
// and leaves it only when FillWord, ZeroPage or ZeroRange resets it.
func (m *Memory) MaterializedFrames() int { return m.materialized }

func (m *Memory) pfnOf(a memdef.HPA) memdef.PFN {
	p := memdef.PFNOf(a)
	if uint64(p) >= uint64(len(m.slot)) {
		m.outside(a)
	}
	return p
}

// outside panics for an address past the last frame. It stays out of
// line so that pfnOf inlines into the word accessors.
//
//go:noinline
func (m *Memory) outside(a memdef.HPA) {
	panic(fmt.Sprintf("phys: address %#x outside %d-frame memory", a, len(m.slot)))
}

func (m *Memory) sparseRec(s int32) *sparseRec { return m.sparse.at(s - 1) }

func (m *Memory) densePage(s int32) *densePage { return m.dense.pages[-s-1] }

// Word returns the 64-bit word at 8-byte-aligned address a.
func (m *Memory) Word(a memdef.HPA) uint64 {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned word read at %#x", a))
	}
	return m.PageWord(m.pfnOf(a), int(memdef.PageOffset(a)/8))
}

// SetWord writes the 64-bit word at 8-byte-aligned address a.
func (m *Memory) SetWord(a memdef.HPA, v uint64) {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned word write at %#x", a))
	}
	m.SetPageWord(m.pfnOf(a), int(memdef.PageOffset(a)/8), v)
}

// PageWord returns word idx (0..511) of frame p without computing an
// address, the fast path for page scans.
func (m *Memory) PageWord(p memdef.PFN, idx int) uint64 {
	if s := m.slot[p]; s != 0 {
		return m.storedWord(s, p, idx)
	}
	return m.pattern[p]
}

// storedWord returns word idx of sparse or dense frame p, whose slot
// is s. It stays out of line so that PageWord's pattern-tier path
// inlines into Word and into callers.
//
//go:noinline
func (m *Memory) storedWord(s int32, p memdef.PFN, idx int) uint64 {
	if s < 0 {
		return m.densePage(s)[idx]
	}
	r := m.sparseRec(s)
	for k := 0; k < int(r.n); k++ {
		if int(r.idx[k]) == idx {
			return r.val[k]
		}
	}
	return m.pattern[p]
}

// SetPageWord writes word idx of frame p.
func (m *Memory) SetPageWord(p memdef.PFN, idx int, v uint64) {
	if uint(idx) >= wordsPerPage {
		panic(fmt.Sprintf("phys: word index %d outside page", idx))
	}
	s := m.slot[p]
	if s < 0 {
		m.densePage(s)[idx] = v
		return
	}
	pat := m.pattern[p]
	if s == 0 {
		if v == pat {
			return
		}
		s = m.sparse.alloc() + 1
		m.slot[p] = s
		m.materialized++
	}
	r := m.sparseRec(s)
	for k := 0; k < int(r.n); k++ {
		if int(r.idx[k]) == idx {
			if v == pat {
				r.n--
				r.idx[k], r.val[k] = r.idx[r.n], r.val[r.n]
			} else {
				r.val[k] = v
			}
			return
		}
	}
	if v == pat {
		return
	}
	if r.n < sparseMax {
		r.idx[r.n], r.val[r.n] = uint16(idx), v
		r.n++
		return
	}
	d := -m.dense.alloc() - 1
	pg := m.densePage(d)
	for i := range pg {
		pg[i] = pat
	}
	for k := range r.idx {
		pg[r.idx[k]] = r.val[k]
	}
	pg[idx] = v
	m.sparse.free = append(m.sparse.free, s-1)
	m.slot[p] = d
}

// release returns frame p's sparse record or dense page to its store
// and puts the frame back in the pattern tier.
func (m *Memory) release(p memdef.PFN) {
	s := m.slot[p]
	if s > 0 {
		m.sparse.free = append(m.sparse.free, s-1)
	} else {
		m.dense.free = append(m.dense.free, -s-1)
	}
	m.slot[p] = 0
	m.materialized--
}

// FillWord sets every word of frame p to v, reverting the frame to the
// pattern tier.
func (m *Memory) FillWord(p memdef.PFN, v uint64) {
	if uint64(p) >= uint64(len(m.slot)) {
		panic(fmt.Sprintf("phys: frame %d outside memory", p))
	}
	if m.slot[p] != 0 {
		m.release(p)
	}
	m.pattern[p] = v
}

// ZeroPage clears frame p, as the kernel does before handing a page to
// a new user (and as KVM does for fresh EPT pages).
func (m *Memory) ZeroPage(p memdef.PFN) { m.FillWord(p, 0) }

// ZeroRange clears the n frames starting at p, as ZeroPage on each.
func (m *Memory) ZeroRange(p memdef.PFN, n int) {
	if n < 0 || uint64(p) > uint64(len(m.slot)) || uint64(n) > uint64(len(m.slot))-uint64(p) {
		panic(fmt.Sprintf("phys: frames [%d, +%d) outside memory", p, n))
	}
	for i, s := range m.slot[p : p+memdef.PFN(n)] {
		if s != 0 {
			m.release(p + memdef.PFN(i))
		}
	}
	clear(m.pattern[p : p+memdef.PFN(n)])
}

// PageUniform reports whether frame p currently holds the same word in
// all 512 positions, and that word.
func (m *Memory) PageUniform(p memdef.PFN) (uint64, bool) {
	s := m.slot[p]
	switch {
	case s == 0:
		return m.pattern[p], true
	case s > 0:
		if m.sparseRec(s).n == 0 {
			return m.pattern[p], true
		}
		return 0, false
	}
	pg := m.densePage(s)
	w := pg[0]
	for _, v := range pg[1:] {
		if v != w {
			return 0, false
		}
	}
	return w, true
}

// FlipBit applies a Rowhammer flip candidate to the byte at address a,
// bit position bit (0..7). oneToZero gives the cell's fixed direction.
// It returns true if the stored value actually changed — i.e. the bit
// currently held the only value the cell can flip away from.
func (m *Memory) FlipBit(a memdef.HPA, bit uint, oneToZero bool) bool {
	if bit > 7 {
		panic(fmt.Sprintf("phys: bit index %d out of range", bit))
	}
	p, idx := m.pfnOf(a), int(memdef.PageOffset(a)/8)
	shift := (uint(a)&7)*8 + bit
	w := m.PageWord(p, idx)
	cur := (w >> shift) & 1
	changed := uint64(0)
	if oneToZero {
		if cur == 1 {
			m.SetPageWord(p, idx, w&^(1<<shift))
			changed = 1
		}
	} else {
		if cur == 0 {
			m.SetPageWord(p, idx, w|(1<<shift))
			changed = 1
		}
	}
	m.led.Fold3(uint64(a), uint64(bit), changed)
	return changed == 1
}
