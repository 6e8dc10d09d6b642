package par

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// withWorkers runs f with the pool pinned to n workers and restores the
// default afterwards.
func withWorkers(n int, f func()) {
	SetWorkers(n)
	defer SetWorkers(0)
	f()
}

func TestMapOrderedAndDeterministic(t *testing.T) {
	items := make([]int, 503)
	for i := range items {
		items[i] = i
	}
	render := func(workers int) []string {
		var out []string
		withWorkers(workers, func() {
			out = Map(42, items, func(i, item int, rng *rand.Rand) string {
				return fmt.Sprintf("%d:%d:%d", i, item, rng.Intn(1_000_000))
			})
		})
		return out
	}
	ref := render(1)
	for _, w := range []int{2, 3, 8, 64} {
		got := render(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %q, sequential ref %q", w, i, got[i], ref[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(1, nil, func(i, item int, rng *rand.Rand) int { return item }); len(got) != 0 {
		t.Fatalf("nil items -> %v", got)
	}
	got := Map(1, []int{7}, func(i, item int, rng *rand.Rand) int { return item * 2 })
	if len(got) != 1 || got[0] != 14 {
		t.Fatalf("single item -> %v", got)
	}
}

func TestSubSeedStreamsDiffer(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10_000; i++ {
		s := SubSeed(20160604, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed collision: index %d and %d -> %d", prev, i, s)
		}
		seen[s] = i
	}
	// Different master seeds must give different streams for index 0.
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Fatal("master seed has no effect on index 0")
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	errLow, errHigh := errors.New("low"), errors.New("high")
	withWorkers(4, func() {
		out, err := MapErr(9, items, func(i, item int, rng *rand.Rand) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 6:
				return 0, errHigh
			}
			return item * item, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("err = %v, want the lowest-index error", err)
		}
		for i := 0; i < 3; i++ {
			if out[i] != i*i {
				t.Fatalf("result[%d] = %d before failing index", i, out[i])
			}
		}
	})
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr(3, []string{"a", "bb"}, func(i int, item string, rng *rand.Rand) (int, error) {
		return len(item), nil
	})
	if err != nil || out[0] != 1 || out[1] != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestWorkersKnob(t *testing.T) {
	SetWorkers(3)
	if NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d after SetWorkers(3)", NumWorkers())
	}
	SetWorkers(-5)
	if NumWorkers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("NumWorkers = %d, want GOMAXPROCS default", NumWorkers())
	}
	SetWorkers(0)
}

// TestMapNoGoroutineLeak asserts the pool joins fully: Map must not
// return while any worker is still alive.
func TestMapNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	withWorkers(16, func() {
		Map(5, make([]int, 1000), func(i, item int, rng *rand.Rand) int { return rng.Int() })
	})
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Map", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapAtChunkEquivalence is the streaming substrate's seed contract:
// splitting one logical sequence into chunks and mapping each chunk with
// MapAt at its global base offset reproduces Map over the whole sequence
// byte-for-byte, at any chunk size and any worker count.
func TestMapAtChunkEquivalence(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	fn := func(i, item int, rng *rand.Rand) string {
		return fmt.Sprintf("%d:%d:%d:%d", i, item, rng.Int63(), rng.Intn(97))
	}
	var ref []string
	withWorkers(1, func() { ref = Map(99, items, fn) })
	for _, chunk := range []int{1, 7, 64, 256, 1024} {
		for _, w := range []int{1, 3, 8} {
			var got []string
			withWorkers(w, func() {
				for base := 0; base < len(items); base += chunk {
					end := base + chunk
					if end > len(items) {
						end = len(items)
					}
					got = append(got, MapAt(99, base, items[base:end], fn)...)
				}
			})
			if len(got) != len(ref) {
				t.Fatalf("chunk=%d workers=%d: %d results, want %d", chunk, w, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("chunk=%d workers=%d: item %d = %q, want %q", chunk, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestMapAtGlobalIndex pins that fn observes the global index, not the
// chunk-local one.
func TestMapAtGlobalIndex(t *testing.T) {
	out := MapAt(7, 100, []int{10, 20}, func(i, item int, rng *rand.Rand) int {
		return i*1000 + item
	})
	if out[0] != 100010 || out[1] != 101020 {
		t.Fatalf("MapAt global indexes wrong: %v", out)
	}
}

// draws records what fn sees from its rng: a short Read (which leaves
// bytes buffered in the Rand), then 64 each of Int63, Float64 and
// NormFloat64, then another short Read.
func draws(rng *rand.Rand) []uint64 {
	var out []uint64
	read := func() {
		b := make([]byte, 3)
		rng.Read(b)
		out = append(out, uint64(b[0])|uint64(b[1])<<8|uint64(b[2])<<16)
	}
	read()
	for k := 0; k < 64; k++ {
		out = append(out, uint64(rng.Int63()))
	}
	for k := 0; k < 64; k++ {
		out = append(out, math.Float64bits(rng.Float64()))
	}
	for k := 0; k < 64; k++ {
		out = append(out, math.Float64bits(rng.NormFloat64()))
	}
	read()
	return out
}

// TestWorkerRandEqualsFreshRand pins the worker-owned PRNG contract: the
// rng a worker re-seeds for item i draws exactly what a fresh
// Rand(seed, base+i) draws, whatever the worker count and window base,
// and whatever the previous item on that worker left behind.
func TestWorkerRandEqualsFreshRand(t *testing.T) {
	const seed = 20160604
	items := make([]int, 41)
	for _, w := range []int{1, 2, 8} {
		for _, base := range []int{0, 37} {
			var got [][]uint64
			withWorkers(w, func() {
				got = MapAt(seed, base, items, func(i, _ int, rng *rand.Rand) []uint64 { return draws(rng) })
			})
			for k, g := range got {
				want := draws(Rand(seed, base+k))
				if fmt.Sprint(g) != fmt.Sprint(want) {
					t.Fatalf("workers=%d base=%d item %d: worker rng diverges from Rand(seed, %d)", w, base, k, base+k)
				}
			}
			if base == 0 {
				var viaMap, viaErr [][]uint64
				withWorkers(w, func() {
					viaMap = Map(seed, items, func(_, _ int, rng *rand.Rand) []uint64 { return draws(rng) })
					viaErr, _ = MapErr(seed, items, func(_, _ int, rng *rand.Rand) ([]uint64, error) { return draws(rng), nil })
				})
				if fmt.Sprint(viaMap) != fmt.Sprint(got) || fmt.Sprint(viaErr) != fmt.Sprint(got) {
					t.Fatalf("workers=%d: Map/MapErr rng differs from MapAt at base 0", w)
				}
			}
		}
	}
}
