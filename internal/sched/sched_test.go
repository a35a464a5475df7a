package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"optrouter/internal/obs"
)

// TestDeterministicAssembly: results land at their input index for any
// worker count, so downstream assembly is order-independent.
func TestDeterministicAssembly(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 4, 9} {
		jobs := make([]Job[int], n)
		for i := range jobs {
			i := i
			jobs[i] = func(ctx context.Context) (int, error) { return i * i, nil }
		}
		res := Run(context.Background(), jobs, Options{Workers: workers})
		if len(res) != n {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, r := range res {
			if r.Err != nil || r.Value != i*i {
				t.Fatalf("workers=%d: result[%d] = %v, %v", workers, i, r.Value, r.Err)
			}
			if r.Worker < 0 || r.Worker >= workers {
				t.Fatalf("workers=%d: result[%d] ran on worker %d", workers, i, r.Worker)
			}
		}
	}
}

// TestPanicIsolation: a panicking job becomes a failed Result, the sweep
// survives, and the other jobs complete normally.
func TestPanicIsolation(t *testing.T) {
	jobs := make([]Job[string], 9)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (string, error) {
			if i%3 == 1 {
				panic(fmt.Sprintf("boom-%d", i))
			}
			return fmt.Sprintf("ok-%d", i), nil
		}
	}
	res := Run(context.Background(), jobs, Options{Workers: 3})
	for i, r := range res {
		if i%3 == 1 {
			if !r.Panicked {
				t.Fatalf("job %d: expected panic, got %v / %v", i, r.Value, r.Err)
			}
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job %d: Err = %v, want *PanicError", i, r.Err)
			}
			if pe.Value != fmt.Sprintf("boom-%d", i) || len(pe.Stack) == 0 {
				t.Fatalf("job %d: panic payload %v, stack %d bytes", i, pe.Value, len(pe.Stack))
			}
		} else if r.Panicked || r.Err != nil || r.Value != fmt.Sprintf("ok-%d", i) {
			t.Fatalf("job %d: %v / %v", i, r.Value, r.Err)
		}
	}
}

// TestCancellationDrains: after cancel, unstarted jobs complete immediately
// with the context error and every job is accounted for.
func TestCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 50
	var started atomic.Int32
	release := make(chan struct{})
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			if started.Add(1) == 2 {
				cancel()
				close(release)
			} else {
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return 1, nil
		}
	}
	res := Run(ctx, jobs, Options{Workers: 2})
	ran, skipped := 0, 0
	for i, r := range res {
		switch {
		case r.Err == nil:
			ran++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("job %d: unexpected error %v", i, r.Err)
		}
	}
	if ran+skipped != n {
		t.Fatalf("ran %d + skipped %d != %d", ran, skipped, n)
	}
	if skipped == 0 {
		t.Fatal("expected at least one cancelled job")
	}
}

// TestUpdatesSerializedAndAccounted: OnUpdate events are never concurrent,
// counts are consistent, and InFlight never exceeds the worker count.
func TestUpdatesSerializedAndAccounted(t *testing.T) {
	const n, workers = 40, 4
	var mu sync.Mutex
	inCallback := false
	var events []Update
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) { return 0, nil }
	}
	opt := Options{
		Workers: workers,
		OnUpdate: func(u Update) {
			mu.Lock()
			if inCallback {
				mu.Unlock()
				t.Error("OnUpdate invoked concurrently")
				return
			}
			inCallback = true
			mu.Unlock()
			events = append(events, u)
			mu.Lock()
			inCallback = false
			mu.Unlock()
		},
	}
	Run(context.Background(), jobs, opt)
	starts, dones := 0, 0
	for _, u := range events {
		if u.Total != n {
			t.Fatalf("Total = %d, want %d", u.Total, n)
		}
		if u.InFlight < 0 || u.InFlight > workers {
			t.Fatalf("InFlight = %d with %d workers", u.InFlight, workers)
		}
		switch u.Phase {
		case "start":
			starts++
		case "done":
			dones++
		}
	}
	if starts != n || dones != n {
		t.Fatalf("starts=%d dones=%d, want %d each", starts, dones, n)
	}
	last := events[len(events)-1]
	if last.Done != n || last.InFlight != 0 {
		t.Fatalf("final event Done=%d InFlight=%d", last.Done, last.InFlight)
	}
}

// TestMetrics: the pool records worker, in-flight and outcome metrics.
func TestMetrics(t *testing.T) {
	m := obs.NewRegistry()
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			if i == 7 {
				panic("x")
			}
			if i == 3 {
				return 0, errors.New("bad")
			}
			return 0, nil
		}
	}
	Run(context.Background(), jobs, Options{Workers: 2, Metrics: m})
	snap := m.Snapshot()
	if got := snap.Counters["sched_jobs_done"]; got != 8 {
		t.Fatalf("sched_jobs_done = %d", got)
	}
	if got := snap.Counters["sched_jobs_failed"]; got != 2 {
		t.Fatalf("sched_jobs_failed = %d", got)
	}
	if got := snap.Counters["sched_jobs_panicked"]; got != 1 {
		t.Fatalf("sched_jobs_panicked = %d", got)
	}
	if got := snap.Gauges["sched_workers"]; got != 2 {
		t.Fatalf("sched_workers = %v", got)
	}
	if got := snap.Gauges["sched_inflight"]; got != 0 {
		t.Fatalf("sched_inflight = %v, want 0 after drain", got)
	}
	if got := snap.Histograms["sched_job_ms"].Count; got != 10 {
		t.Fatalf("sched_job_ms count = %d", got)
	}
	perWorker := int64(0)
	for w := 0; w < 2; w++ {
		perWorker += int64(snap.Gauges[fmt.Sprintf("sched_worker_%02d_jobs", w)])
	}
	if perWorker != 10 {
		t.Fatalf("per-worker job gauges sum to %d", perWorker)
	}
}

// TestEmptyAndOversizedPool: edge cases — zero jobs, more workers than jobs.
func TestEmptyAndOversizedPool(t *testing.T) {
	if res := Run[int](context.Background(), nil, Options{Workers: 8}); len(res) != 0 {
		t.Fatalf("empty run: %d results", len(res))
	}
	jobs := []Job[int]{func(ctx context.Context) (int, error) { return 42, nil }}
	res := Run(context.Background(), jobs, Options{Workers: 64})
	if res[0].Value != 42 || res[0].Err != nil {
		t.Fatalf("oversized pool: %v / %v", res[0].Value, res[0].Err)
	}
}

// TestInOrderClaiming: workers claim jobs from one shared queue in input
// order, so while job 0 blocks one worker, the other runs jobs 1..7 in index
// order.
func TestInOrderClaiming(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var order, workers []int
	jobs := make([]Job[int], 8)
	jobs[0] = func(ctx context.Context) (int, error) { <-block; return WorkerID(ctx), nil }
	for i := 1; i < len(jobs); i++ {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			order = append(order, i)
			workers = append(workers, WorkerID(ctx))
			if len(order) == 7 {
				close(block) // all other jobs done; release job 0
			}
			return WorkerID(ctx), nil
		}
	}
	res := Run(context.Background(), jobs, Options{Workers: 2})
	for i, r := range res {
		if r.Err != nil || r.Value != r.Worker {
			t.Fatalf("job %d: value %d on worker %d, err %v", i, r.Value, r.Worker, r.Err)
		}
	}
	for k, idx := range order {
		if idx != k+1 {
			t.Fatalf("jobs 1..7 ran in order %v, want 1..7", order)
		}
		if workers[k] == res[0].Worker {
			t.Fatalf("job %d ran on worker %d, which was blocked on job 0", idx, workers[k])
		}
	}
}
