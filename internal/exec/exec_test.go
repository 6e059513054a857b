package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapSequentialOrder(t *testing.T) {
	out, err := Map(nil, 10, func(i int, out []int) ([]int, error) { return append(out, i*i), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapParallelOrderAndCoverage(t *testing.T) {
	c := &Context{Parallelism: 8, SeqThreshold: 1}
	const n = 1000
	var calls atomic.Int64
	out, err := Map(c, n, func(i int, out []int) ([]int, error) {
		calls.Add(1)
		return append(out, i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("fn called %d times, want %d", calls.Load(), n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: result order not index-stable", i, v)
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	out, err := Map(New(4), 0, func(i int, out []int) ([]int, error) { return out, errors.New("must not be called") })
	if err != nil || out != nil {
		t.Fatalf("Map over 0 items: got %v, %v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, par := range []int{1, 4} {
		c := &Context{Parallelism: par, SeqThreshold: 1}
		_, err := Map(c, 100, func(i int, out []int) ([]int, error) {
			if i == 17 || i == 90 {
				return out, fmt.Errorf("boom at %d", i)
			}
			return append(out, i), nil
		})
		if err == nil || err.Error() != "boom at 17" {
			t.Fatalf("par=%d: got err %v, want lowest-index error (boom at 17)", par, err)
		}
	}
}

// TestMapPanicIsIndexError: a panic in fn is that index's error, on the
// pool and inline — it loses to no later error (index 7), the process and
// the caller survive, and every worker has exited when Map returns.
func TestMapPanicIsIndexError(t *testing.T) {
	for _, par := range []int{4, 1} {
		before := runtime.NumGoroutine()
		c := &Context{Parallelism: par, SeqThreshold: 1}
		_, err := Map(c, 100, func(i int, out []int) ([]int, error) {
			if i == 3 {
				panic("poisoned tuple")
			}
			if i == 7 {
				return out, errors.New("boom at 7")
			}
			return append(out, i), nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "poisoned tuple" {
			t.Fatalf("par=%d: err = %v, want the index-3 panic", par, err)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "exec: panic in worker: poisoned tuple\n") ||
			!strings.Contains(msg, "TestMapPanicIsIndexError") {
			t.Errorf("par=%d: message lacks the value or the panicking stack:\n%s", par, msg)
		}
		// Workers run their deferred wg.Done before they are gone; give
		// the scheduler a moment to retire them.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("par=%d: %d goroutines before Map, %d after", par, before, after)
		}
	}
}

func TestParallelForThreshold(t *testing.T) {
	c := &Context{Parallelism: 4, SeqThreshold: 50}
	if c.ParallelFor(49) {
		t.Fatal("49 items below threshold 50 must run sequentially")
	}
	if !c.ParallelFor(50) {
		t.Fatal("50 items at threshold 50 must parallelise")
	}
	seq := &Context{Parallelism: 1, SeqThreshold: 1}
	if seq.ParallelFor(1 << 20) {
		t.Fatal("parallelism 1 must never use the pool")
	}
	var nilCtx *Context
	if nilCtx.ParallelFor(1 << 20) {
		t.Fatal("nil context must be sequential")
	}
	def := &Context{Parallelism: 4}
	if def.ParallelFor(DefaultSeqThreshold - 1) {
		t.Fatal("default threshold not applied")
	}
}

func TestWorkersDefaults(t *testing.T) {
	var nilCtx *Context
	if got := nilCtx.Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("nil context workers = %d, want GOMAXPROCS", got)
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelism 0 workers = %d, want GOMAXPROCS", got)
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
}

func TestStatsRecording(t *testing.T) {
	c := New(2)
	rec := c.StartOp("join", 120)
	rec.SatCheck(true)
	rec.SatCheck(false)
	rec.SatCheck(true)
	rec.AddOut(2)
	rec.Done(true)

	rec2 := c.StartOp("select", 10)
	rec2.SatCheck(false)
	rec2.Done(false)

	stats := c.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d records, want 2", len(stats))
	}
	j := stats[0]
	if j.Op != "join" || j.TuplesIn != 120 || j.TuplesOut != 2 ||
		j.SatChecks != 3 || j.PrunedUnsat != 1 || !j.Parallel {
		t.Fatalf("join record wrong: %+v", j)
	}
	if j.Wall < 0 {
		t.Fatalf("negative wall time: %v", j.Wall)
	}
	c.Reset()
	if len(c.Stats()) != 0 {
		t.Fatal("Reset did not clear records")
	}
}

func TestStatsConcurrentCounters(t *testing.T) {
	c := New(8)
	c.SeqThreshold = 1
	rec := c.StartOp("join", 0)
	const n = 2000
	_, err := Map(c, n, func(i int, out []struct{}) ([]struct{}, error) {
		rec.SatCheck(i%3 == 0)
		rec.AddOut(1)
		return append(out, struct{}{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Done(true)
	s := c.Stats()[0]
	if s.SatChecks != n || s.TuplesOut != n {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Context
	rec := c.StartOp("join", 5) // nil recorder
	rec.SatCheck(true)
	rec.AddOut(1)
	rec.Done(false)
	if c.Stats() != nil {
		t.Fatal("nil context must have no stats")
	}
	c.Reset() // must not panic
}

func TestFormatStats(t *testing.T) {
	out := FormatStats([]OpStats{
		{Op: "join", TuplesIn: 10, TuplesOut: 3, SatChecks: 25, PrunedUnsat: 22,
			Wall: 1500 * time.Microsecond, Parallel: true},
	})
	for _, want := range []string{"operator", "join", "25", "par"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStats output missing %q:\n%s", want, out)
		}
	}
}

// TestMapContextCancelParallel is the blocked-worker regression test for
// the Ctx checkpoint: one worker is stuck inside fn while the caller's
// deadline fires. The other worker must stop claiming indices (instead
// of burning through the rest of the batch), and Map must surface the
// context's error once the stuck call returns.
func TestMapContextCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &Context{Parallelism: 2, SeqThreshold: 1, Ctx: ctx}
	const n = 1000
	release := make(chan struct{})
	blocked := make(chan struct{})
	var calls atomic.Int64
	type result struct {
		out []int
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := Map(c, n, func(i int, out []int) ([]int, error) {
			calls.Add(1)
			if i == 0 {
				close(blocked) // signal: worker 0 is now stuck mid-item
				<-release
				return append(out, i), nil
			}
			// Every other item parks until cancellation so the test is
			// deterministic: no worker can race through the batch before
			// the deadline fires.
			<-ctx.Done()
			return append(out, i), nil
		})
		done <- result{out, err}
	}()
	<-blocked
	cancel()
	// The free worker observes Ctx at its next claim and stops; Map still
	// waits for the stuck call (cancellation is not preemption).
	select {
	case <-done:
		t.Fatal("Map returned while a worker was still blocked in fn")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Map error = %v, want context.Canceled", res.err)
	}
	if res.out != nil {
		t.Fatalf("cancelled Map returned a result slice")
	}
	if got := calls.Load(); got >= n {
		t.Fatalf("cancellation did not stop the batch: %d of %d items ran", got, n)
	}
}

// TestMapContextCancelInline covers the sequential path: the inline loop
// checks Ctx between items, so a mid-batch cancellation stops a
// below-threshold fan-out too.
func TestMapContextCancelInline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &Context{Parallelism: 1, Ctx: ctx}
	var calls int
	_, err := Map(c, 100, func(i int, out []int) ([]int, error) {
		calls++
		if i == 3 {
			cancel()
		}
		return append(out, i), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map error = %v, want context.Canceled", err)
	}
	if calls != 4 {
		t.Fatalf("inline Map ran %d items after cancel at item 3, want 4", calls)
	}
}

// TestMapContextFnErrorWins: an fn error from an index that actually ran
// takes precedence over the concurrent cancellation, preserving the
// lowest-index-error contract for executed work.
func TestMapContextFnErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	c := &Context{Parallelism: 2, SeqThreshold: 1, Ctx: ctx}
	_, err := Map(c, 8, func(i int, out []int) ([]int, error) {
		if i == 0 {
			cancel()
			return out, boom
		}
		return append(out, i), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map error = %v, want fn error to win over cancellation", err)
	}
}

func TestContextErrNilSafety(t *testing.T) {
	var c *Context
	if err := c.Err(); err != nil {
		t.Fatalf("nil Context Err = %v", err)
	}
	if err := (&Context{}).Err(); err != nil {
		t.Fatalf("Ctx-less Context Err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (&Context{Ctx: ctx}).Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Context Err = %v, want context.Canceled", err)
	}
}
