// Package clirun is the run lifecycle the evaluation CLIs (hyperhammer
// and hh-tables) share: the telemetry flag group, the planes those
// flags select, the live observability server, and the ordered
// shutdown that writes every requested output. A CLI registers the
// flags, starts a Run, threads Run.Planes and Run.Obs into its work,
// describes its part of the run bundle, and leaves through Run.Exit.
// Watch is the live terminal view hh-top and hh-plan share.
package clirun

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/telemetry"
	"hyperhammer/internal/trace"
)

// Run is one CLI invocation's telemetry, from its flags to its exit.
type Run struct {
	// Planes are the recorders the flags selected; hosts and
	// experiments take them as they are.
	Planes telemetry.Planes
	// Obs is the live observability plane (nil without -obs).
	Obs *obs.Plane
	// Log writes progress lines stamped with the simulated clock.
	Log *slog.Logger

	// The telemetry flag group.
	tracePath, metricsPath, obsAddr string
	artifactPath, storeDir, chrome  string
	obsSample, obsHold, ledgerEpoch time.Duration

	tool      string
	stderr    io.Writer
	store     *runstore.Store
	traceFile *os.File
	srv       *obs.Server
	bundle    func() *runartifact.Artifact
	schedule  func() *sched.Schedule
	failed    bool
}

// Register adds the telemetry flags to fs. fs.Name() prefixes every
// diagnostic the run prints.
func Register(fs *flag.FlagSet) *Run {
	r := &Run{tool: fs.Name()}
	fs.StringVar(&r.tracePath, "trace", "", "write JSONL trace events from every booted host to this file")
	fs.StringVar(&r.metricsPath, "metrics", "", "write end-of-run metrics to this file (Prometheus text; .json suffix selects a JSON snapshot)")
	fs.StringVar(&r.obsAddr, "obs", "", "serve the live observability plane on this address (status page, /metrics, /api/series, SSE events, pprof)")
	fs.DurationVar(&r.obsSample, "obs-sample", time.Second, "simulated-time interval between observability samples")
	fs.DurationVar(&r.obsHold, "obs-hold", 0, "keep the observability server up this long (wall clock) after the run ends")
	fs.StringVar(&r.artifactPath, "artifact", "", "write the self-describing run bundle (config, metrics, cost profile, outcome) to this file for hh-diff")
	fs.StringVar(&r.storeDir, "store", "", "ingest the run bundle into this run-history store directory (config-hash indexed; hh-trend folds the stored history into cross-run trends)")
	fs.StringVar(&r.chrome, "chrome-trace", "", "write the host-cost schedule as Chrome trace_event JSON to this file (load in Perfetto or chrome://tracing)")
	fs.DurationVar(&r.ledgerEpoch, "ledger-epoch", 0, "seal determinism-ledger fingerprint epochs at this simulated interval (0 disables the ledger entirely; hh-bisect localizes divergence between two ledgered artifacts)")
	return r
}

// archive reports whether the run bundle is written to a file, the
// history store, or both; everything the bundle needs rides along
// whenever it is.
func (r *Run) archive() bool { return r.artifactPath != "" || r.storeDir != "" }

// Start opens the history store and the trace file, builds the planes
// the flags select and serves the observability plane. log receives
// the progress lines and stderr the diagnostics; meter asks for a
// metrics registry even when no flag needs one.
func (r *Run) Start(log, stderr io.Writer, meter bool) (err error) {
	r.stderr = stderr
	defer func() {
		if err != nil {
			r.store.Close()
			if r.traceFile != nil {
				r.traceFile.Close()
			}
		}
	}()
	live := r.obsAddr != "" || r.archive()
	if r.storeDir != "" {
		if r.store, err = runstore.Open(r.storeDir); err != nil {
			return err
		}
	}
	p := &r.Planes
	if r.tracePath != "" {
		if r.traceFile, err = os.Create(r.tracePath); err != nil {
			return err
		}
		// Buffered: a campaign emits hundreds of thousands of events.
		// Exit flushes on every exit path, and the buffered tail is
		// the part that explains a crash.
		p.Trace = trace.New(bufio.NewWriterSize(r.traceFile, 1<<20), 0)
	} else if r.archive() {
		// The artifact's cost profile folds span events, so profiling
		// needs a recorder even when no trace file was requested;
		// in-memory with no ring is nearly free.
		p.Trace = trace.New(nil, 0)
	}
	if r.metricsPath != "" || live || meter {
		p.Metrics = metrics.New()
	}
	if live {
		p.Inspect = inspect.New(inspect.Config{})
		p.Forensics = forensics.New(forensics.Config{})
	}
	// The determinism ledger is strictly opt-in: unlike the planes
	// above it exists to detect drift between deliberate runs, and
	// leaving it off keeps archived baselines byte-identical with
	// pre-ledger builds.
	if r.ledgerEpoch > 0 {
		p.Ledger = ledger.New(ledger.Config{Epoch: r.ledgerEpoch})
	}
	if r.archive() {
		p.Profile = profile.NewBuilder(p.Metrics)
	}
	r.Log = obs.NewLogger(log, p.Metrics.SimTime, nil)
	if r.obsAddr == "" {
		return nil
	}
	r.Obs = obs.NewPlane(p.Metrics, obs.Config{SampleEvery: r.obsSample})
	r.Obs.SetPlanes(r.Planes)
	r.Obs.SetRunStore(r.store)
	// Stream the shared recorder onto the live bus. A host booted on
	// these planes taps it again (idempotently); units that record
	// into scoped planes reach the bus when they are absorbed.
	r.Obs.TapTrace(p.Trace)
	if r.srv, err = r.Obs.Serve(r.obsAddr); err != nil {
		return err
	}
	r.Log.Info("observability plane serving", "url", "http://"+r.srv.Addr()+"/")
	return nil
}

// Describe installs the CLI's part of the run; call it once, after
// Start and before any exit path. bundle returns a new artifact
// carrying the CLI's tool, seed, scale, config and outcome; Exit and
// the live /api/artifact endpoint add the telemetry sections.
// schedule returns the host-cost schedule so far (nil before any),
// which /api/plan, the artifact's plan section and -chrome-trace read.
func (r *Run) Describe(bundle func() *runartifact.Artifact, schedule func() *sched.Schedule) {
	r.bundle, r.schedule = bundle, schedule
	r.Obs.SetPlanFunc(func() *profile.PlanReport { return profile.BuildPlanReport(schedule()) })
	if r.archive() {
		r.Obs.SetArtifactFunc(func() any { return r.build() })
	}
}

// build assembles the run bundle: the CLI's part plus every telemetry
// section.
func (r *Run) build() *runartifact.Artifact {
	a := r.bundle()
	a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	a.SimSeconds = r.Planes.Metrics.SimTime().Seconds()
	// Host telemetry (sched_*) is wall-clock and would break the
	// byte-identical artifact guarantee; the plan section is the one
	// place host cost is allowed to live.
	a.Metrics = r.Planes.Metrics.Snapshot().StripHost()
	a.SetProfile(r.Planes.Profile.Snapshot())
	a.SetInspector(r.Planes.Inspect)
	a.SetForensics(r.Planes.Forensics)
	a.SetLedger(r.Planes.Ledger)
	if r.Planes.Ledger != nil {
		a.Config["ledger-epoch"] = r.ledgerEpoch.String()
	}
	if sc := r.schedule(); sc != nil {
		a.SetPlan(profile.BuildPlanReport(sc))
	}
	return a
}

// Exit runs every shutdown step in order — metrics export, artifact
// write and store ingest, Chrome trace, trace flush, observability
// hold and close — even when an earlier step fails, and reports each
// failure on stderr. It returns code, or 1 when code is 0 and an
// output failed. Call it on every exit path: os.Exit skips defers.
func (r *Run) Exit(code int) int {
	if path := r.metricsPath; path != "" {
		r.writeFile(path, func(w io.Writer) error {
			if strings.HasSuffix(path, ".json") {
				return r.Planes.Metrics.WriteJSON(w)
			}
			return r.Planes.Metrics.WriteProm(w)
		})
	}
	if r.archive() {
		a := r.build()
		if r.artifactPath != "" && r.check(a.WriteFile(r.artifactPath)) {
			r.Log.Info("run artifact written", "path", r.artifactPath)
		}
		if r.store != nil {
			e, err := r.store.Ingest(a)
			if r.check(err) {
				r.Log.Info("run ingested into history store",
					"store", r.storeDir, "run", e.RunID, "config", e.ConfigHash)
			}
			r.check(r.store.Close())
		}
	}
	if r.chrome != "" && r.writeFile(r.chrome, func(w io.Writer) error {
		return trace.WriteChromeTrace(w, r.schedule())
	}) {
		r.Log.Info("chrome trace written", "path", r.chrome)
	}
	if err := r.Planes.Trace.Flush(); err != nil {
		r.check(fmt.Errorf("flushing trace: %w", err))
	}
	if n := r.Planes.Trace.EncodeErrors(); n > 0 {
		r.check(fmt.Errorf("%d trace events lost to encode/flush errors", n))
	}
	if r.traceFile != nil {
		r.check(r.traceFile.Close())
	}
	if r.srv != nil {
		if r.obsHold > 0 {
			r.Log.Info("holding observability server before exit", "hold", r.obsHold.String())
			time.Sleep(r.obsHold)
		}
		r.srv.Close()
	}
	if r.failed && code == 0 {
		return 1
	}
	return code
}

// check reports a failed output on stderr and remembers it; it returns
// whether err is nil.
func (r *Run) check(err error) bool {
	if err != nil {
		fmt.Fprintf(r.stderr, "%s: %v\n", r.tool, err)
		r.failed = true
	}
	return err == nil
}

// writeFile creates path and fills it with write.
func (r *Run) writeFile(path string, write func(io.Writer) error) bool {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return r.check(err)
}
