// Package sched is the repository's parallel-evaluation substrate: a
// worker pool that runs a fixed set of independent jobs — typically one
// exact (clip, rule) solve each — across N workers while keeping the
// *results* deterministic.
//
// Design points, in the order the rule-evaluation pipeline needs them:
//
//   - Deterministic assembly: Run returns one Result per job, indexed by the
//     job's position in the input slice, regardless of which worker ran it or
//     in what order. Callers that assemble output in input order therefore
//     produce byte-identical reports for any worker count.
//   - Fault isolation: a panicking job is captured (with its stack) and
//     recorded as that job's failure; the sweep continues and Run returns
//     normally. One poisoned clip cannot take down an hours-long study.
//   - Cancellation: cancelling the context stops dispatch; jobs not yet
//     started complete immediately with the context's error, so the pool
//     drains cleanly and every job is still accounted for in the results.
//     Jobs that take wall-clock budgets (solver time limits) keep their own.
//   - Observability: with Options.Metrics set, the pool maintains an
//     in-flight gauge, per-worker job gauges, outcome counters and a
//     job-latency histogram; Options.OnUpdate receives serialized lifecycle
//     events (never two concurrently), so a single live progress line cannot
//     interleave across workers.
//
// Scheduling is one shared in-order queue: an idle worker claims the next
// unstarted job by index (Graham's list scheduling). Jobs therefore start in
// exactly the caller's order, so a caller that wants longest-first
// scheduling sorts its job slice, and a skewed job mix still balances — no
// worker idles while a job is unclaimed.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"optrouter/internal/obs"
)

// Job is one unit of work. The context is cancelled when the pool's parent
// context is cancelled; long-running jobs should poll it.
type Job[T any] func(ctx context.Context) (T, error)

// workerKey carries the executing worker's id in the job context.
type workerKey struct{}

// WorkerID returns the id of the worker executing the job whose context this
// is, or -1 when the context did not come from a pool worker. Jobs use it to
// label progress/status reports with a stable worker identity.
func WorkerID(ctx context.Context) int {
	if v, ok := ctx.Value(workerKey{}).(int); ok {
		return v
	}
	return -1
}

// Options tunes a Run.
type Options struct {
	// Workers is the worker-goroutine count (default runtime.NumCPU();
	// 1 degenerates to a serial run through the same code path).
	Workers int
	// Metrics, if non-nil, receives pool gauges/counters/histograms under
	// the "sched_" prefix (see package comment).
	Metrics *obs.Registry
	// OnUpdate, if non-nil, receives serialized per-job lifecycle events.
	// It is never invoked concurrently with itself.
	OnUpdate func(Update)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Update is one lifecycle event handed to Options.OnUpdate.
type Update struct {
	Phase  string // "start" or "done"
	Job    int    // index of the job in the input slice
	Worker int    // worker that ran (or is running) it
	Err    error  // set on failed "done" events

	// Aggregate pool state at the time of the event (consistent: the
	// callback is serialized).
	Done     int // jobs finished, including failures and cancellations
	Failed   int // jobs finished with a non-nil error
	InFlight int // jobs currently executing
	Total    int // len(jobs)
}

// Result is the outcome of one job, at the job's input index.
type Result[T any] struct {
	Value T
	// Err is the job's error; for a cancelled-before-start job it is the
	// context's error, for a panicked job a *PanicError.
	Err error
	// Panicked reports that the job panicked (Err is the *PanicError).
	Panicked bool
	// Worker is the worker that executed the job (-1 if never started).
	Worker int
	// Runtime is the job's wall time (0 if never started).
	Runtime time.Duration
}

// PanicError wraps a recovered job panic with its stack trace.
type PanicError struct {
	Value interface{} // the value passed to panic
	Stack []byte      // debug.Stack() at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job panicked: %v", e.Value)
}

// Run executes the jobs on a pool of workers that claim them in input order
// and returns one Result per job, in input order. It always returns len(jobs)
// results: jobs skipped because ctx was cancelled carry ctx's error. Run
// itself never panics on a job panic; the panic is recorded in that job's
// Result.
func Run[T any](ctx context.Context, jobs []Job[T], opt Options) []Result[T] {
	opt = opt.withDefaults()
	n := len(jobs)
	results := make([]Result[T], n)
	for i := range results {
		results[i].Worker = -1
	}
	if n == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}
	nw := opt.Workers
	if nw > n {
		nw = n
	}

	m := opt.Metrics
	m.Gauge("sched_workers").Set(float64(nw))
	m.Gauge("sched_jobs_total").Set(float64(n))
	inflight := m.Gauge("sched_inflight")
	jobMS := m.Histogram("sched_job_ms")
	workerJobs := make([]*obs.Gauge, nw)
	if m != nil {
		for w := range workerJobs {
			workerJobs[w] = m.Gauge(fmt.Sprintf("sched_worker_%02d_jobs", w))
		}
	}

	// agg serializes OnUpdate and owns the aggregate counters.
	var agg struct {
		sync.Mutex
		done, failed, inflight int
	}
	notify := func(phase string, job, worker int, err error) {
		agg.Lock()
		defer agg.Unlock()
		switch phase {
		case "start":
			agg.inflight++
		case "done":
			agg.inflight--
			agg.done++
			if err != nil {
				agg.failed++
			}
		}
		if opt.OnUpdate != nil {
			opt.OnUpdate(Update{
				Phase: phase, Job: job, Worker: worker, Err: err,
				Done: agg.done, Failed: agg.failed,
				InFlight: agg.inflight, Total: n,
			})
		}
	}

	runOne := func(worker, idx int) {
		r := &results[idx]
		r.Worker = worker
		if err := ctx.Err(); err != nil {
			// Cancelled before start: account for the job without running
			// it so the pool drains deterministically.
			r.Err = err
			m.Counter("sched_jobs_cancelled").Inc()
			notify("start", idx, worker, nil)
			notify("done", idx, worker, err)
			return
		}
		jctx := context.WithValue(ctx, workerKey{}, worker)
		notify("start", idx, worker, nil)
		inflight.Add(1)
		tm := jobMS.StartTimer()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					r.Panicked = true
					r.Err = &PanicError{Value: rec, Stack: debug.Stack()}
				}
			}()
			r.Value, r.Err = jobs[idx](jctx)
		}()
		r.Runtime = tm.ObserveDuration()
		inflight.Add(-1)
		workerJobs[worker].Add(1)
		if r.Panicked {
			m.Counter("sched_jobs_panicked").Inc()
		}
		if r.Err != nil {
			m.Counter("sched_jobs_failed").Inc()
		} else {
			m.Counter("sched_jobs_done").Inc()
		}
		notify("done", idx, worker, r.Err)
	}

	// next is the shared in-order queue: each claim takes the lowest index
	// not yet claimed.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n {
					return // every job is claimed; in-flight jobs are others'
				}
				runOne(worker, idx)
			}
		}(w)
	}
	wg.Wait()
	return results
}
