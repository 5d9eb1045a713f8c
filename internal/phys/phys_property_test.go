package phys

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hyperhammer/internal/memdef"
)

// Property: the content store behaves exactly like a flat word array
// under any interleaving of word writes, page fills and bit flips.
func TestPropertyMatchesFlatArray(t *testing.T) {
	const size = 256 * memdef.KiB
	const words = size / 8
	f := func(seed uint64, opsRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		m := New(size)
		ref := make([]uint64, words)
		ops := int(opsRaw)%500 + 50
		for i := 0; i < ops; i++ {
			switch rng.IntN(4) {
			case 0: // word write
				w := rng.IntN(words)
				v := rng.Uint64()
				m.SetWord(memdef.HPA(w*8), v)
				ref[w] = v
			case 1: // page fill
				p := rng.IntN(size / memdef.PageSize)
				v := rng.Uint64()
				m.FillWord(memdef.PFN(p), v)
				for w := p * 512; w < (p+1)*512; w++ {
					ref[w] = v
				}
			case 2: // bit flip in a legal direction
				w := rng.IntN(words)
				bitPos := uint(rng.IntN(64))
				addr := memdef.HPA(w*8) + memdef.HPA(bitPos/8)
				bit := bitPos % 8
				cur := (ref[w] >> bitPos) & 1
				oneToZero := cur == 1
				if !m.FlipBit(addr, bit, oneToZero) {
					return false // legal flip refused
				}
				ref[w] ^= 1 << bitPos
			case 3: // bit flip in the illegal direction: must refuse
				w := rng.IntN(words)
				bitPos := uint(rng.IntN(64))
				addr := memdef.HPA(w*8) + memdef.HPA(bitPos/8)
				bit := bitPos % 8
				cur := (ref[w] >> bitPos) & 1
				if m.FlipBit(addr, bit, cur == 0) {
					return false // flip applied against its direction
				}
			}
			// Spot-check a few random words.
			for k := 0; k < 4; k++ {
				w := rng.IntN(words)
				if m.Word(memdef.HPA(w*8)) != ref[w] {
					return false
				}
			}
		}
		// Full sweep at the end.
		for w := 0; w < words; w++ {
			if m.Word(memdef.HPA(w*8)) != ref[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: PageUniform agrees with a word-by-word scan.
func TestPropertyPageUniform(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		m := New(64 * memdef.KiB)
		p := memdef.PFN(rng.IntN(16))
		v := rng.Uint64()
		m.FillWord(p, v)
		if rng.IntN(2) == 0 {
			m.SetPageWord(p, rng.IntN(512), v^1)
		}
		w, uniform := m.PageUniform(p)
		first := m.PageWord(p, 0)
		same := true
		for i := 1; i < 512; i++ {
			if m.PageWord(p, i) != first {
				same = false
				break
			}
		}
		if uniform != same {
			return false
		}
		return !uniform || w == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oracle is the flat-array reference model of a Memory: every word
// explicit, plus each frame's value at its last fill and whether a
// word of it has since been written with anything else.
type oracle struct {
	words    []uint64
	fill     []uint64
	diverged []bool
}

func newOracle(frames int) *oracle {
	return &oracle{
		words:    make([]uint64, frames*wordsPerPage),
		fill:     make([]uint64, frames),
		diverged: make([]bool, frames),
	}
}

func (o *oracle) write(w int, v uint64) {
	p := w / wordsPerPage
	if v != o.fill[p] {
		o.diverged[p] = true
	}
	o.words[w] = v
}

func (o *oracle) fillPage(p int, v uint64) {
	for w := p * wordsPerPage; w < (p+1)*wordsPerPage; w++ {
		o.words[w] = v
	}
	o.fill[p] = v
	o.diverged[p] = false
}

func (o *oracle) materialized() int {
	n := 0
	for _, d := range o.diverged {
		if d {
			n++
		}
	}
	return n
}

// opReader hands out the bytes of an operation string, then zeros.
type opReader struct{ b []byte }

func (r *opReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.next())
	}
	return v
}

// hotWords are the word indices most operations touch: more than
// sparseMax of them, so pages fill their sparse record and promote.
var hotWords = [...]int{0, 1, 3, 7, 8, 63, 64, 100, 255, 256, 300, 411, 500, 510, 511}

// coverage counts the tier situations runOps reached, so a property
// test can require that the mix exercised each of them.
type coverage struct {
	patternWriteSparse int // pattern value written into a sparse frame
	promotions         int // sparse frame promoted to dense
	flipSparse         int
	flipDense          int
	fillFrom           [3]int // fills and zeroing, by tier before: pattern, sparse, dense
	uniformFrom        [3]int
}

// tier is 0, 1 or 2 for a pattern, sparse or dense frame.
func tier(m *Memory, p int) int {
	switch s := m.slot[p]; {
	case s == 0:
		return 0
	case s > 0:
		return 1
	}
	return 2
}

// runOps decodes ops into Memory operations, applies each to m and to
// the oracle, and reports the first disagreement. Word choices favour
// a few hot words per page and values favour the frame's pattern, so
// frames sit in the sparse tier, take pattern-valued writes there and
// promote to dense; every tier sees fills, zeroing and flips.
func runOps(m *Memory, o *oracle, ops []byte, cov *coverage) error {
	r := &opReader{b: ops}
	frames := m.Frames()
	pickWord := func() int {
		p := int(r.next()) % frames
		c := r.next()
		idx := hotWords[int(c)%len(hotWords)]
		if c >= 0xF0 {
			idx = int(r.next())<<1 | int(c&1)
		}
		return p*wordsPerPage + idx
	}
	pickValue := func(w int) uint64 {
		switch c := r.next(); c % 4 {
		case 0:
			return o.fill[w/wordsPerPage]
		case 1:
			return o.words[w]
		case 2:
			return uint64(c)
		default:
			return r.u64()
		}
	}
	checkPage := func(p int) error {
		for i := 0; i < wordsPerPage; i++ {
			if got, want := m.PageWord(memdef.PFN(p), i), o.words[p*wordsPerPage+i]; got != want {
				return fmt.Errorf("frame %d word %d = %#x, want %#x", p, i, got, want)
			}
		}
		return nil
	}
	for step := 0; len(r.b) > 0; step++ {
		touched := -1
		switch op := r.next(); {
		case op < 160: // word write, by address (even) or by page index (odd)
			w := pickWord()
			v := pickValue(w)
			p := w / wordsPerPage
			before := tier(m, p)
			if before == 1 && v == o.fill[p] {
				cov.patternWriteSparse++
			}
			if op%2 == 0 {
				m.SetWord(memdef.HPA(w*8), v)
			} else {
				m.SetPageWord(memdef.PFN(w/wordsPerPage), w%wordsPerPage, v)
			}
			o.write(w, v)
			if before == 1 && tier(m, p) == 2 {
				cov.promotions++
			}
			touched = p
		case op < 176: // bit flip, legal (even) or against the cell (odd)
			w := pickWord()
			bitPos := uint(r.next() % 64)
			addr := memdef.HPA(w*8) + memdef.HPA(bitPos/8)
			cur := (o.words[w] >> bitPos) & 1
			legal := op%2 == 0
			oneToZero := (cur == 1) == legal
			switch tier(m, w/wordsPerPage) {
			case 1:
				cov.flipSparse++
			case 2:
				cov.flipDense++
			}
			if got := m.FlipBit(addr, bitPos%8, oneToZero); got != legal {
				return fmt.Errorf("step %d: FlipBit(%#x, %d, %v) = %v on word %#x", step, addr, bitPos%8, oneToZero, got, o.words[w])
			}
			if legal {
				o.write(w, o.words[w]^1<<bitPos)
			}
			touched = w / wordsPerPage
		case op < 180: // page fill
			p := int(r.next()) % frames
			var v uint64
			switch c := r.next(); c % 4 {
			case 0:
				v = 0
			case 1:
				v = ^uint64(0)
			case 2:
				v = uint64(c)
			default:
				v = o.words[p*wordsPerPage+hotWords[int(c)%len(hotWords)]]
			}
			cov.fillFrom[tier(m, p)]++
			m.FillWord(memdef.PFN(p), v)
			o.fillPage(p, v)
			touched = p
		case op < 184:
			p := int(r.next()) % frames
			cov.fillFrom[tier(m, p)]++
			m.ZeroPage(memdef.PFN(p))
			o.fillPage(p, 0)
			touched = p
		case op < 186:
			p := int(r.next()) % frames
			n := int(r.next()) % min(3, frames-p+1)
			for i := p; i < p+n; i++ {
				cov.fillFrom[tier(m, i)]++
			}
			m.ZeroRange(memdef.PFN(p), n)
			for i := p; i < p+n; i++ {
				o.fillPage(i, 0)
				if err := checkPage(i); err != nil {
					return fmt.Errorf("step %d: ZeroRange(%d, %d): %v", step, p, n, err)
				}
			}
		case op < 194: // PageUniform against a word-by-word scan
			p := int(r.next()) % frames
			first := o.words[p*wordsPerPage]
			same := true
			for _, v := range o.words[p*wordsPerPage : (p+1)*wordsPerPage] {
				same = same && v == first
			}
			cov.uniformFrom[tier(m, p)]++
			w, ok := m.PageUniform(memdef.PFN(p))
			if ok != same || (ok && w != first) {
				return fmt.Errorf("step %d: PageUniform(%d) = %#x,%v, want %#x,%v", step, p, w, ok, first, same)
			}
		default: // read
			w := pickWord()
			if got := m.Word(memdef.HPA(w * 8)); got != o.words[w] {
				return fmt.Errorf("step %d: Word(%#x) = %#x, want %#x", step, w*8, got, o.words[w])
			}
		}
		if touched >= 0 {
			if err := checkPage(touched); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		}
		if got, want := m.MaterializedFrames(), o.materialized(); got != want {
			return fmt.Errorf("step %d: MaterializedFrames = %d, want %d", step, got, want)
		}
	}
	for p := 0; p < frames; p++ {
		if err := checkPage(p); err != nil {
			return fmt.Errorf("final sweep: %v", err)
		}
	}
	return nil
}

// Property: under operation mixes that keep frames in every tier and
// move them between tiers, the store matches the flat-array oracle
// word for word, in PageUniform and in MaterializedFrames.
func TestPropertyTiersMatchOracle(t *testing.T) {
	var cov coverage
	f := func(seed uint64, lenRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		ops := make([]byte, int(lenRaw)%4000+200)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		m := New(4 * memdef.PageSize)
		if err := runOps(m, newOracle(4), ops, &cov); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	t.Logf("coverage: %+v", cov)
	if cov.patternWriteSparse == 0 || cov.promotions == 0 || cov.flipSparse == 0 || cov.flipDense == 0 {
		t.Errorf("operation mix missed a tier case: %+v", cov)
	}
	for tr := 0; tr < 3; tr++ {
		if cov.fillFrom[tr] == 0 || cov.uniformFrom[tr] == 0 {
			t.Errorf("operation mix never filled or checked uniformity from tier %d: %+v", tr, cov)
		}
	}
}

func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 0, 2, 2, 0, 0, 3, 2, 0, 0, 4, 2, 0, 0, 5, 2, 0, 0, 6, 2, 0, 0, 7, 2, 0, 0, 8, 2, 0, 0, 9, 2, 0, 0, 10, 2, 7, 0})
	f.Add([]byte{4, 1, 1, 1, 1, 0, 0, 1, 0, 2, 1, 0, 0, 3, 1, 0, 2, 1, 0, 6, 0, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(4 * memdef.PageSize)
		if err := runOps(m, newOracle(4), ops, &coverage{}); err != nil {
			t.Fatal(err)
		}
	})
}
