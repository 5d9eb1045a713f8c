package experiments

import (
	"sync"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/telemetry"
)

// This file is the deterministic parallel experiment engine. A Plan
// accumulates the independent units the selected experiments decompose
// into — one booted host per unit, seeds derived only from
// Options.Seed — and runs them on internal/sched's bounded worker
// pool. Determinism does not depend on the worker count:
//
//   - Each unit runs against Options.Planes.Scoped (its own capture
//     recorder, registry, and profile builder), so concurrent hosts
//     never share a clock binding or cross-charge simulated time.
//
//   - Completed units are folded into the shared telemetry and into
//     their experiment's result in declaration order, not completion
//     order (sched delivers index-ordered).
//
//   - Finalizers (table assembly, closed-form analysis) run after all
//     units, in registration order.
//
// Consequently -parallel 1 and -parallel N produce byte-identical
// tables, metrics, traces, and run artifacts.

// Future is a placeholder for one experiment's assembled result,
// resolved when the plan's Run completes.
type Future[T any] struct {
	v  T
	ok bool
}

// Get returns the resolved value; the zero value before Run finishes.
func (f *Future[T]) Get() T {
	if f == nil {
		var zero T
		return zero
	}
	return f.v
}

func (f *Future[T]) set(v T) { f.v, f.ok = v, true }

// resolved wraps an already-known value, for feeding one experiment's
// output into another (Analysis consuming Table 1) outside a plan.
func resolved[T any](v T) *Future[T] {
	f := &Future[T]{}
	f.set(v)
	return f
}

// Resolved is the exported form of resolved, for callers that need to
// feed a fixed value (e.g. a nil Table 1) into a plan-registered
// consumer such as Analysis.
func Resolved[T any](v T) *Future[T] { return resolved(v) }

// Plan accumulates experiment units and runs them.
type Plan struct {
	o      Options
	units  []sched.Unit
	merges []func(any)
	finals []func() error

	mu       sync.Mutex
	schedule *sched.Schedule
}

// NewPlan creates an empty plan over the given options. Experiments
// registered on the plan observe o's seed and scale; o.Parallel sets
// the worker-pool size at Run (<= 0 selects GOMAXPROCS).
func NewPlan(o Options) *Plan { return &Plan{o: o} }

// Units returns the number of registered units.
func (p *Plan) Units() int { return len(p.units) }

// add registers one unit. run receives the options with the unit's
// own scoped planes and no live plane; at delivery, in declaration
// order, those planes are absorbed and store receives the unit's value.
func (p *Plan) add(name string, run func(Options) (any, error), store func(any)) {
	uo := p.o
	uo.Planes = p.o.Planes.Scoped()
	uo.Obs = nil
	p.units = append(p.units, sched.Unit{Name: name, Run: func() (any, error) { return run(uo) }})
	p.merges = append(p.merges, func(v any) {
		p.o.Planes.Absorb(uo.Planes, name)
		uo.Planes = telemetry.Planes{} // absorbed: release the unit's recorders
		// The live plane takes one sample per folded unit, tagged
		// with the unit's name.
		p.o.Obs.SampleUnit(name)
		store(v)
	})
}

// finally registers a post-run assembly step.
func (p *Plan) finally(fn func() error) { p.finals = append(p.finals, fn) }

// Run executes every registered unit on the worker pool and resolves
// every future. Results — telemetry and values alike — are folded in
// declaration order regardless of completion order; the first failing
// unit's error (lowest declaration index) aborts the plan.
func (p *Plan) Run() error {
	runner := sched.New(p.o.Parallel)
	sc, err := runner.RunTimed(p.units, func(i int, v any) error {
		p.merges[i](v)
		return nil
	})
	p.mu.Lock()
	p.schedule = sc
	p.mu.Unlock()
	p.recordSchedMetrics(sc)
	if err != nil {
		return err
	}
	for _, fn := range p.finals {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// Schedule returns the host-cost schedule of the last Run (nil before
// any run). Safe for concurrent use with Run: the obs plane's
// /api/plan handler polls this from the server goroutine.
func (p *Plan) Schedule() *sched.Schedule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.schedule
}

// recordSchedMetrics surfaces the schedule in the shared metrics
// registry (sched_units_total, sched_workers,
// sched_queue_wait_seconds) so /metrics and the Prometheus exporter
// carry scheduler telemetry live. These are *host* metrics — real
// wall-clock, different at every -parallel — so artifact builders must
// snapshot with StripHost to keep the artifact's metrics section
// deterministic; the host view belongs in the plan section.
func (p *Plan) recordSchedMetrics(sc *sched.Schedule) {
	if p.o.Metrics == nil || sc == nil {
		return
	}
	const unitsHelp = "Scheduled experiment units, by completion status."
	var delivered, undelivered uint64
	for _, u := range sc.Units {
		if u.Delivered {
			delivered++
		} else {
			undelivered++
		}
	}
	p.o.Metrics.Counter("sched_units_total", unitsHelp, "status", "delivered").Add(delivered)
	if undelivered > 0 {
		p.o.Metrics.Counter("sched_units_total", unitsHelp, "status", "undelivered").Add(undelivered)
	}
	p.o.Metrics.Gauge("sched_workers",
		"Effective worker-pool size of the last scheduled batch.").Set(int64(sc.Workers))
	hist := p.o.Metrics.Histogram("sched_queue_wait_seconds",
		"Host time units waited between declaration and start.", metrics.DefBuckets)
	for _, u := range sc.Units {
		if u.Started {
			hist.Observe(u.QueueWaitSeconds())
		}
	}
}

// addTyped is add with typed run/store callbacks.
func addTyped[T any](p *Plan, name string, run func(Options) (T, error), store func(T)) {
	p.add(name,
		func(o Options) (any, error) { return run(o) },
		func(v any) { store(v.(T)) })
}

// planOne builds a single-experiment plan, runs it, and returns the
// experiment's result: the compatibility path behind the package's
// original one-call-per-experiment API. Even at Parallel <= 1 the
// experiment runs through the same scoped-unit machinery as a parallel
// run, which is what makes the two byte-identical by construction.
func planOne[T any](o Options, register func(*Plan) *Future[T]) (T, error) {
	p := NewPlan(o)
	f := register(p)
	if err := p.Run(); err != nil {
		var zero T
		return zero, err
	}
	return f.Get(), nil
}
