package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestMapContract holds the pool to the inline loop it replaces, on random
// shapes: n items (0–299) over 1–4 workers, every fan-out on the pool
// (SeqThreshold 1), each item emitting 0, 1 or several results, and per
// trial either an error and a panic at random indices (or none) or a
// cancellation raised by a random item that is not the last. Output and
// error must be mapInline's. On the pool the returned slice's length must
// be its capacity; what it keeps alive is measured by TestMapRetains.
//
// A cancelled trial raises no error: on the pool an item below the
// cancelling one may never start, so only "no error ran" has one answer.
// Neither does the last item cancel, because the inline loop checks its
// context before an item and so never sees a cancellation raised by its
// last one, while the pool checks once more after the fan-out.
func TestMapContract(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := range 600 {
		n, workers := rng.Intn(300), 1+rng.Intn(4)
		counts := make([]int, n)
		for i := range counts {
			switch r := rng.Intn(10); {
			case r < 4:
			case r < 8:
				counts[i] = 1
			default:
				counts[i] = 2 + rng.Intn(4)
			}
		}
		errAt, panicAt, cancelAt := -1, -1, -1
		switch mode := rng.Intn(4); {
		case mode == 1 && n > 0:
			errAt, panicAt = rng.Intn(n), rng.Intn(n)
		case mode == 2 && n > 0:
			errAt = rng.Intn(n)
		case mode == 3 && n > 1:
			cancelAt = rng.Intn(n - 1)
		}
		run := func(m func(*Context, int, func(int, []int) ([]int, error)) ([]int, error), c *Context) ([]int, string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c.Ctx = ctx
			out, err := m(c, n, func(i int, out []int) ([]int, error) {
				switch i {
				case panicAt:
					panic(i)
				case errAt:
					return out, fmt.Errorf("boom at %d", i)
				case cancelAt:
					cancel()
				}
				for k := range counts[i] {
					out = append(out, 8*i+k)
				}
				return out, nil
			})
			var pe *PanicError
			switch {
			case errors.As(err, &pe):
				return out, fmt.Sprint("panic ", pe.Value)
			case err != nil:
				return out, err.Error()
			}
			return out, ""
		}
		want, wantErr := run(mapInline[int], &Context{})
		c := &Context{Parallelism: workers, SeqThreshold: 1}
		got, gotErr := run(Map[int], c)
		what := fmt.Sprintf("trial %d (n=%d workers=%d err@%d panic@%d cancel@%d)", trial, n, workers, errAt, panicAt, cancelAt)
		switch {
		case gotErr != wantErr:
			t.Fatalf("%s: error %q, the inline loop's %q", what, gotErr, wantErr)
		case wantErr != "" && got != nil:
			t.Fatalf("%s: a failed fan-out returned %d results", what, len(got))
		case !slices.Equal(got, want):
			t.Fatalf("%s: output\n%v\nthe inline loop's\n%v", what, got, want)
		case c.ParallelFor(n) && len(got) != cap(got):
			t.Fatalf("%s: %d results with capacity %d", what, len(got), cap(got))
		}
	}
}

// TestMapRetains: what a pool result keeps alive, read off the live heap
// after a collection, is at most twice the result itself (plus a fixed
// slack for the test's own garbage), whether it filled the fan-out's buffer,
// kept a few of its items, kept just over half, or outgrew a block's region.
// The buffer is 4 096 items of 128 bytes, so an input-sized array left
// behind by a small result would read 512 KB over its bound.
func TestMapRetains(t *testing.T) {
	type item [16]int64
	const n, slack = 4096, 64 << 10
	for _, shape := range []struct {
		name string
		emit func(i int) int
	}{
		{"every item", func(int) int { return 1 }},
		{"one in ten", func(i int) int { return boolInt(i%10 == 0) }},
		{"just over half", func(i int) int { return boolInt(i%2 == 0 || i%7 == 0) }},
		{"several from a few", func(i int) int { return 3 * boolInt(i%5 == 0) }},
		{"none", func(int) int { return 0 }},
	} {
		for _, workers := range []int{2, 4} {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			out, err := Map(&Context{Parallelism: workers, SeqThreshold: 1}, n, func(i int, out []item) ([]item, error) {
				for range shape.emit(i) {
					out = append(out, item{int64(i)})
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			kept := int64(ms.HeapAlloc) - int64(before)
			size := int64(len(out)) * int64(len(item{})*8)
			if kept > 2*size+slack {
				t.Errorf("%s, %d workers: %d results (%d bytes) keep %d bytes alive, over twice the result", shape.name, workers, len(out), size, kept)
			}
			if len(out) != cap(out) {
				t.Errorf("%s, %d workers: %d results with capacity %d", shape.name, workers, len(out), cap(out))
			}
			runtime.KeepAlive(out)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
