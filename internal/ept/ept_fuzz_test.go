package ept

import (
	"fmt"
	"testing"

	"hyperhammer/internal/memdef"
	"hyperhammer/internal/phys"
)

// FuzzEntryRoundTrip checks that entry construction and field
// extraction are exact inverses for arbitrary inputs, and that no
// input smuggles bits between fields.
func FuzzEntryRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0), false)
	f.Add(uint64(0xFFFFFFFFF), uint8(7), true)
	f.Add(uint64(12345), uint8(3), false)
	f.Fuzz(func(t *testing.T, pfnRaw uint64, permRaw uint8, large bool) {
		pfn := memdef.PFN(pfnRaw & 0xFFFFFFFFF) // bits 12-47 => 36-bit PFN
		perm := Perm(permRaw & 7)
		e := NewEntry(pfn, perm, large)
		if e.PFN() != pfn {
			t.Fatalf("PFN %#x -> %#x", pfn, e.PFN())
		}
		if e.Perm() != perm {
			t.Fatalf("Perm %v -> %v", perm, e.Perm())
		}
		if e.Large() != large {
			t.Fatal("large bit mangled")
		}
		if e.Present() != (perm != 0) {
			t.Fatal("present inconsistent with perm")
		}
		// WithPerm must not disturb the other fields.
		e2 := e.WithPerm(PermRead)
		if e2.PFN() != pfn || e2.Large() != large || e2.Perm() != PermRead {
			t.Fatal("WithPerm disturbed other fields")
		}
	})
}

// FuzzTranslateRobustness builds a structure of either paging depth
// from an arbitrary Map4K/Map2M/SplitHuge sequence, checking after
// every step that the per-level table counts equal a recount of the
// bookkept table pages. It then writes arbitrary garbage into a leaf
// table page and checks that translation never panics and never
// returns an address outside physical memory — the
// EPT-misconfiguration guarantee the attack's flip chaos relies on —
// and that Destroy leaves no table page counted.
func FuzzTranslateRobustness(f *testing.F) {
	f.Add(uint64(0xDEADBEEF), uint64(0), []byte{}, false)
	f.Add(^uint64(0), uint64(511), []byte{1, 2, 2, 2, 0, 200, 4, 77, 1, 40, 2, 40}, false)
	f.Add(uint64(1)<<63|7, uint64(42), []byte{0, 1, 64, 255, 129, 9, 1, 9, 2, 9, 0, 9}, true)
	f.Fuzz(func(t *testing.T, word uint64, idxRaw uint64, ops []byte, fiveLevel bool) {
		levels := Levels4
		if fiveLevel {
			levels = Levels5
		}
		mem := phys.New(32 * memdef.MiB)
		alloc := &bumpAlloc{next: 1}
		tbl, err := NewWithLevels(mem, alloc, levels)
		if err != nil {
			t.Fatal(err)
		}
		checkLevels(t, tbl, "new")
		if err := tbl.Map2M(0, 512, PermRW); err != nil {
			t.Fatal(err)
		}
		leaf, err := tbl.SplitHuge(0, PermRWX)
		if err != nil {
			t.Fatal(err)
		}
		// Each op is two bytes: the low two bits of the first pick the
		// operation, the rest and the second byte pick an address that
		// spans every table level, so sequences collide, split and
		// allocate intermediate tables at every depth.
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			va := uint64(arg&0x1f)<<memdef.HugePageShift | uint64(arg>>5)<<30 |
				uint64(op>>6)<<39 | uint64(op>>5&1)<<48
			switch op & 3 {
			case 0:
				_ = tbl.Map4K(va|uint64(op>>2&7)<<memdef.PageShift, memdef.PFN(arg)+1, PermRW)
			case 1:
				_ = tbl.Map2M(va, memdef.PFN(arg&7+1)<<9, PermRW)
			default:
				_, _ = tbl.SplitHuge(va, PermRWX)
			}
			checkLevels(t, tbl, fmt.Sprintf("op %d", i/2))
		}
		idx := int(idxRaw % memdef.EntriesPerTable)
		mem.SetPageWord(leaf, idx, word)
		va := uint64(idx) << memdef.PageShift
		if tr, err := tbl.Translate(va + 8); err == nil && uint64(memdef.PFNOf(tr.HPA)) >= uint64(mem.Frames()) {
			t.Fatalf("translation escaped memory: %#x", tr.HPA)
		}
		tbl.Destroy()
		checkLevels(t, tbl, "destroy")
	})
}

// checkLevels requires TableCountByLevel to equal a recount of the
// bookkept table pages.
func checkLevels(t *testing.T, tbl *Table, when string) {
	t.Helper()
	var want [Levels5 + 1]int
	for _, l := range tbl.tables {
		want[l]++
	}
	if got := tbl.TableCountByLevel(); got != want {
		t.Fatalf("%s: TableCountByLevel = %v, recount %v", when, got, want)
	}
}
