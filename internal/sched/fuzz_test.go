package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzScheduler drives the pool through randomized job counts, worker
// counts, cancellation points and injected panics, and asserts the pool's
// invariants:
//
//   - no deadlock (the run completes; guarded by the per-case watchdog),
//   - no lost jobs (every input index has exactly one accounted Result),
//   - no duplicated jobs (no job body executes twice),
//   - clean drain on cancel (unstarted jobs report the context error),
//   - panics are contained (flagged on the Result, never escape Run).
func FuzzScheduler(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(1), uint8(0), uint16(1))
	f.Add(uint8(17), uint8(3), uint8(5), uint16(0xA5A5))
	f.Add(uint8(64), uint8(8), uint8(1), uint16(0xFFFF))
	f.Add(uint8(33), uint8(200), uint8(0), uint16(7))

	f.Fuzz(func(t *testing.T, nJobs, workers, cancelAfter uint8, panicMask uint16) {
		n := int(nJobs)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		var execs atomic.Int64
		ran := make([]atomic.Int32, n)
		jobs := make([]Job[int], n)
		for i := 0; i < n; i++ {
			i := i
			jobs[i] = func(jctx context.Context) (int, error) {
				if ran[i].Add(1) > 1 {
					t.Errorf("job %d executed twice", i)
				}
				done := execs.Add(1)
				if cancelAfter > 0 && done == int64(cancelAfter) {
					cancel() // cancellation point mid-sweep
				}
				if panicMask&(1<<(uint(i)%16)) != 0 {
					panic(i)
				}
				return i, nil
			}
		}

		opt := Options{Workers: int(workers)}

		// Watchdog: the jobs above never block, so a run that does not
		// finish promptly is a pool deadlock.
		finished := make(chan []Result[int], 1)
		go func() { finished <- Run(ctx, jobs, opt) }()
		var res []Result[int]
		select {
		case res = <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("scheduler deadlocked")
		}

		if len(res) != n {
			t.Fatalf("%d results for %d jobs", len(res), n)
		}
		executed := 0
		for i, r := range res {
			wasRun := ran[i].Load() > 0
			if wasRun {
				executed++
			}
			switch {
			case r.Panicked:
				if !wasRun {
					t.Errorf("job %d: panicked but never ran", i)
				}
				var pe *PanicError
				if !errors.As(r.Err, &pe) || pe.Value != i {
					t.Errorf("job %d: panic payload %v", i, r.Err)
				}
			case r.Err == nil:
				if !wasRun {
					t.Errorf("job %d: success without execution", i)
				}
				if r.Value != i {
					t.Errorf("job %d: value %d", i, r.Value)
				}
			case errors.Is(r.Err, context.Canceled):
				if wasRun {
					t.Errorf("job %d: ran but reported cancelled", i)
				}
			default:
				t.Errorf("job %d: unexpected error %v", i, r.Err)
			}
		}
		if got := int(execs.Load()); got != executed {
			t.Fatalf("execution count %d != executed jobs %d", got, executed)
		}
		if cancelAfter == 0 && executed != n {
			t.Fatalf("no cancellation but only %d/%d jobs ran", executed, n)
		}
	})
}
