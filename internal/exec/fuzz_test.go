package exec

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// FuzzMap checks the pool against the sequential loop it must equal: n
// items (0–300) over 1–8 workers, every item on the pool (SeqThreshold 1),
// item i emitting 0–3 results (emits[i mod len] mod 4), and optionally one
// item that fails and one that panics (an index below 0 or at or above n is
// none). On success the output is the loop's, in index order; otherwise the
// error is the one the loop hits first — the lowest failing index, a panic
// included. The committed seeds put the failures at block boundaries and
// run fewer items than workers.
func FuzzMap(f *testing.F) {
	f.Add(uint16(300), uint8(7), []byte{1, 0, 2, 3}, int16(-1), int16(-1))
	f.Fuzz(func(t *testing.T, n16 uint16, w8 uint8, emits []byte, errAt, panicAt int16) {
		n, workers := int(n16%301), int(w8%8)+1
		emit := func(i int) int {
			if len(emits) == 0 {
				return 1
			}
			return int(emits[i%len(emits)] % 4)
		}
		fn := func(i int, out []int) ([]int, error) {
			if i == int(panicAt) {
				panic(i)
			}
			if i == int(errAt) {
				return out, fmt.Errorf("boom at %d", i)
			}
			for k := range emit(i) {
				out = append(out, 4*i+k)
			}
			return out, nil
		}
		// The sequential loop: what Map must return.
		var want []int
		var wantErr string
		for i := 0; i < n && wantErr == ""; i++ {
			switch i {
			case int(panicAt):
				wantErr = fmt.Sprintf("panic %d", i)
			case int(errAt):
				wantErr = fmt.Sprintf("boom at %d", i)
			default:
				want, _ = fn(i, want)
			}
		}
		got, err := Map(&Context{Parallelism: workers, SeqThreshold: 1}, n, fn)
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			if gotErr := fmt.Sprintf("panic %v", pe.Value); gotErr != wantErr {
				t.Fatalf("n=%d workers=%d: %s, the loop: %q", n, workers, gotErr, wantErr)
			}
		case err != nil:
			if err.Error() != wantErr {
				t.Fatalf("n=%d workers=%d: error %q, the loop: %q", n, workers, err, wantErr)
			}
		case wantErr != "":
			t.Fatalf("n=%d workers=%d: no error, the loop: %q", n, workers, wantErr)
		case !slices.Equal(got, want):
			t.Fatalf("n=%d workers=%d: output\n%v\nthe loop's\n%v", n, workers, got, want)
		}
	})
}
