package experiments

import (
	"fmt"

	"hyperhammer/internal/guest"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
	"time"
)

// Figure3Point is one sample of the noise-page trace.
type Figure3Point struct {
	// Mappings is how many IOVA mappings have been created.
	Mappings int
	// Seconds is the experiment's elapsed (simulated) time, with the
	// paper's artificial 1-second delay per 1,000 mappings.
	Seconds float64
	// NoisePages is the host's small-order unmovable free page count.
	NoisePages int
}

// Figure3Series is the trace for one system.
type Figure3Series struct {
	System System
	Points []Figure3Point
}

// Figure3Result reproduces Figure 3: noise pages at VM runtime while
// the attacker exhausts them via vIOMMU mappings. Part (a) is S1/S2,
// part (b) is S3.
type Figure3Result struct {
	Series []Figure3Series
	// Threshold512 and Threshold1024 are the paper's reference lines.
	Threshold512, Threshold1024 int
}

// Figure renders the result as a plot-ready figure.
func (r *Figure3Result) Figure() *report.Figure {
	f := report.NewFigure("Figure 3: noise pages at VM runtime",
		"time (s)", "MIGRATE_UNMOVABLE noise pages")
	for _, s := range r.Series {
		series := f.AddSeries(s.System.String())
		for _, p := range s.Points {
			series.Add(p.Seconds, float64(p.NoisePages))
		}
	}
	return f
}

// DropBelow returns the first sample time at which a system's noise
// fell below the given threshold, or -1 if it never did.
func (r *Figure3Result) DropBelow(sys System, threshold int) float64 {
	for _, s := range r.Series {
		if s.System != sys {
			continue
		}
		for _, p := range s.Points {
			if p.NoisePages < threshold {
				return p.Seconds
			}
		}
	}
	return -1
}

// Figure3 runs the exhaustion experiment of Section 5.2 on all three
// systems: allocate one guest page, map it at 60,000 IOVAs spaced
// 2 MiB apart with an artificial one-second delay per 1,000 mappings,
// and sample the host's noise-page count from /proc/pagetypeinfo
// concurrently.
func Figure3(o Options) (*Figure3Result, error) {
	return planOne(o, (*Plan).Figure3)
}

// Figure3 registers one exhaustion trace per system as independent
// units and returns the future of the assembled figure.
func (p *Plan) Figure3() *Future[*Figure3Result] {
	f := &Future[*Figure3Result]{}
	res := &Figure3Result{Threshold512: 512, Threshold1024: 1024}
	for _, sys := range []System{SystemS1, SystemS2, SystemS3} {
		sys := sys
		addTyped(p, "figure3."+sys.String(),
			func(o Options) (Figure3Series, error) {
				series, err := figure3System(o, sys)
				if err != nil {
					return Figure3Series{}, fmt.Errorf("figure 3 %s: %w", sys, err)
				}
				return series, nil
			},
			func(s Figure3Series) { res.Series = append(res.Series, s) })
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

func figure3System(o Options, sys System) (Figure3Series, error) {
	sp := o.spec(sys)
	h, err := o.newHost(sp)
	if err != nil {
		return Figure3Series{}, err
	}
	vm, err := h.CreateVM(sp.VM)
	if err != nil {
		return Figure3Series{}, err
	}
	gos := guest.Boot(vm)
	target, err := gos.AllocHuge(1)
	if err != nil {
		return Figure3Series{}, err
	}
	series := Figure3Series{System: sys}
	start := h.Clock.Now()
	sample := func(mappings int) {
		series.Points = append(series.Points, Figure3Point{
			Mappings:   mappings,
			Seconds:    (h.Clock.Now() - start).Seconds(),
			NoisePages: h.NoisePages(),
		})
	}
	sample(0)
	iova := memdef.IOVA(0x1_0000_0000)
	for m := 1; m <= sp.Attacker.IOVAMappings; m++ {
		if err := gos.MapDMA(0, iova, target); err != nil {
			return series, err
		}
		iova += memdef.HugePageSize
		if m%1000 == 0 {
			// The paper inserts an artificial 1 s delay per 1,000
			// mappings to make the trace legible.
			h.Clock.Advance(time.Second)
			sample(m)
		}
	}
	return series, nil
}
