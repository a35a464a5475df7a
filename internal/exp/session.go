package exp

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves /debug/pprof next to /metrics and /statusz
	"os"
	"runtime"
	"time"

	"optrouter/internal/calib"
	"optrouter/internal/obs"
	"optrouter/internal/report"
)

// The -trace size cap: the live file rotates when it would exceed
// traceMaxBytes, and traceKeep files (live + archives) are retained.
const (
	traceMaxBytes = 64 << 20
	traceKeep     = 4
)

// Session is the command-line surface the solving commands (optroute,
// beoleval, benchrun) share: the solver and observability flags, declared
// once, and the sinks they open. BindFlags declares the flags on a FlagSet,
// Open checks them and starts the sinks, and Close flushes and closes the
// sinks on every exit path. Nothing is registered until a command calls
// BindFlags.
type Session struct {
	// Solve carries -timeout, -j and -par and, after Open, the run's metrics
	// registry, tracer and flight options.
	Solve SolveOptions
	// Status is the /statusz tracker; nil without -pprof (its methods are
	// nil-safe).
	Status *obs.Status
	// Converge receives one record per finished solve; nil without
	// -converge.
	Converge *report.JSONLWriter[report.ConvergenceRecord]

	name     string // prefix of the session's stderr lines
	trace    string
	flight   bool
	pprof    string
	calib    bool
	sample   bool
	converge string
	closers  []func()
}

// BindFlags declares -timeout (defaulting to timeout), -j, -par, -trace and
// -flight on fs. name prefixes the session's stderr lines.
func BindFlags(fs *flag.FlagSet, name string, timeout time.Duration) *Session {
	s := &Session{name: name}
	fs.DurationVar(&s.Solve.PerClipTimeout, "timeout", timeout, "per-solve budget")
	fs.IntVar(&s.Solve.Workers, "j", runtime.NumCPU(),
		"parallel solve workers (answers are identical for any value)")
	fs.IntVar(&s.Solve.Par, "par", 0,
		"parallel tree-search workers inside each bnb solve (0 = serial; answers are identical for any value)")
	fs.StringVar(&s.trace, "trace", "",
		"write a JSON-lines span trace of every solve to this file (rotated at 64 MB, 4 files kept)")
	fs.BoolVar(&s.flight, "flight", false,
		"record per-node search events onto the trace (requires -trace; costs solve wall time)")
	return s
}

// BindObservability additionally declares -pprof, -calib, -sample and
// -converge on fs.
func (s *Session) BindObservability(fs *flag.FlagSet) {
	fs.StringVar(&s.pprof, "pprof", "",
		"serve net/http/pprof, /metrics and /statusz on this address (e.g. localhost:6060)")
	fs.BoolVar(&s.calib, "calib", false,
		"run the machine-calibration probe suite before solving and report its score")
	fs.BoolVar(&s.sample, "sample", false,
		"run the sampling profiler (100 Hz) across the run; print top functions at exit")
	fs.StringVar(&s.converge, "converge", "",
		"write per-solve convergence traces (JSON lines) to this file")
}

// Open checks the parsed flags and starts the sinks they ask for. metrics
// creates the run's registry even without -pprof. The caller defers Close
// before calling Open: Close releases whatever Open started, also when Open
// fails part way.
func (s *Session) Open(metrics bool) error {
	if s.flight && s.trace == "" {
		return errors.New("-flight needs -trace (node events have nowhere to go)")
	}
	if metrics || s.pprof != "" {
		s.Solve.Metrics = obs.NewRegistry()
	}
	reg := s.Solve.Metrics
	if s.pprof != "" {
		s.Status = obs.NewStatus()
		http.Handle("/metrics", obs.MetricsHandler(reg))
		http.Handle("/statusz", obs.StatusHandler(s.Status))
		go func() {
			if err := http.ListenAndServe(s.pprof, nil); err != nil {
				s.warn("pprof: %v", err)
			}
		}()
	}
	if s.calib {
		res := calib.Run(calib.Options{})
		s.warn("calibration score %.3f ns (suite %.0fms)", res.ScoreNs, res.WallMS)
		s.Status.SetCalibration(res.ScoreNs, res.ProbesNs())
		reg.Gauge("calib_score_ns").Set(res.ScoreNs)
		for name, ns := range res.ProbesNs() {
			reg.Gauge("calib_ns_" + name).Set(ns)
		}
	}
	if s.sample {
		sp := obs.StartSampler(obs.SamplerOptions{Registry: reg})
		s.Status.SetSampler(sp)
		s.closers = append(s.closers, func() {
			sp.Stop()
			p := sp.Profile(10)
			s.warn("sampler: %d stacks at %d Hz", p.Samples, p.Hz)
			for _, f := range p.Funcs {
				s.warn("  self %5d  cum %5d  %s", f.Self, f.Cum, f.Fn)
			}
		})
	}
	if s.trace != "" {
		tr, err := obs.NewRotatingTracer(s.trace, traceMaxBytes, traceKeep)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		tr.SetDropCounter(reg.Counter("trace_dropped_total"))
		s.Solve.Tracer = tr
		s.Solve.Flight = obs.FlightOptions{Enabled: s.flight}
		s.closers = append(s.closers, func() {
			if err := tr.Close(); err != nil {
				s.warn("trace: %v", err)
			}
			if n := tr.Dropped(); n > 0 {
				s.warn("trace dropped %d records (rotation)", n)
			}
		})
	}
	if s.converge != "" {
		f, err := os.Create(s.converge)
		if err != nil {
			return fmt.Errorf("converge: %w", err)
		}
		conv := report.NewJSONLWriter[report.ConvergenceRecord](f)
		s.Converge = conv
		s.closers = append(s.closers, func() {
			if err := conv.Flush(); err != nil {
				s.warn("converge: %v", err)
			}
			if err := f.Close(); err != nil {
				s.warn("converge: %v", err)
			}
		})
	}
	return nil
}

// Close flushes and closes the sinks Open started, newest first, reporting
// close errors and dropped trace records on stderr. The commands defer it, so
// it runs on every exit, including an interrupted (Ctrl-C) sweep. Calling it
// again does nothing.
func (s *Session) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *Session) warn(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", s.name, fmt.Sprintf(format, args...))
}
