package metrics

import (
	"strconv"
	"sync"
	"testing"
)

// TestResolveKeys pins what a resolved key reads: a bare name sums
// every series of its family, a labeled key reads one series only when
// its labels are written in sorted order, and histograms read nothing.
func TestResolveKeys(t *testing.T) {
	r := New()
	r.Counter("flips", "F.", "b", "1", "a", "2").Add(3)
	r.Counter("flips", "F.", "a", "1").Add(4)
	r.Gauge("depth", "D.").Set(-5)
	r.Histogram("lat", "L.", nil).Observe(1)

	cases := []struct {
		key    string
		want   float64
		wantOK bool
	}{
		{"flips", 7, true},
		{"flips{a=2,b=1}", 3, true},
		{"flips{b=1,a=2}", 0, false},
		{"flips{a=1}", 4, true},
		{"flips{a=3}", 0, false},
		{"depth", -5, true},
		{"lat", 0, false},
		{"missing", 0, false},
	}
	for _, c := range cases {
		got, ok := r.Resolve(c.key).Value()
		if got != c.want || ok != c.wantOK {
			t.Errorf("%s = (%g, %v), want (%g, %v)", c.key, got, ok, c.want, c.wantOK)
		}
	}
}

// TestHandleFollowsRegistration checks a handle resolved before its
// family exists picks the family up, and a bare handle picks up series
// added to its family later.
func TestHandleFollowsRegistration(t *testing.T) {
	r := New()
	bare := r.Resolve("x_total")
	labeled := r.Resolve("x_total{k=v}")
	if _, ok := bare.Value(); ok {
		t.Fatal("unregistered family resolved")
	}
	r.Counter("x_total", "X.").Add(2)
	if v, ok := bare.Value(); !ok || v != 2 {
		t.Fatalf("bare = (%g, %v), want (2, true)", v, ok)
	}
	if _, ok := labeled.Value(); ok {
		t.Fatal("labeled key resolved to an unlabeled series")
	}
	r.Counter("x_total", "X.", "k", "v").Add(5)
	if v, ok := bare.Value(); !ok || v != 7 {
		t.Fatalf("bare after new series = (%g, %v), want (7, true)", v, ok)
	}
	if v, ok := labeled.Value(); !ok || v != 5 {
		t.Fatalf("labeled = (%g, %v), want (5, true)", v, ok)
	}
}

// TestHandleValueAllocationFree checks a bound handle reads without
// allocating, and that the nil registry's handle reads nothing.
func TestHandleValueAllocationFree(t *testing.T) {
	r := New()
	for _, dir := range []string{"0->1", "1->0"} {
		r.Counter("dram_flips_total", "F.", "direction", dir).Inc()
	}
	h := r.Resolve("dram_flips_total")
	if allocs := testing.AllocsPerRun(100, func() { h.Value() }); allocs != 0 {
		t.Errorf("Value allocates %g times per call", allocs)
	}
	var nilReg *Registry
	if v, ok := nilReg.Resolve("x").Value(); ok || v != 0 {
		t.Errorf("nil registry handle = (%g, %v)", v, ok)
	}
}

// TestHandleConcurrentRegistration reads a handle while other
// goroutines create series of its family, and checks it settles on
// the full sum.
func TestHandleConcurrentRegistration(t *testing.T) {
	r := New()
	h := r.Resolve("ops_total")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Counter("ops_total", "O.", "w", strconv.Itoa(w), "i", strconv.Itoa(i)).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		h.Value()
	}
	if v, ok := h.Value(); !ok || v != 200 {
		t.Fatalf("settled value = (%g, %v), want (200, true)", v, ok)
	}
}
