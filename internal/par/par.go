// Package par is the repository's deterministic data-parallelism layer:
// a bounded worker pool with ordered result merge, where every work item
// receives its own PRNG derived from (seed, index) by a splitmix64
// finalizer. Because an item's randomness is a pure function of the seed
// and its position — never of scheduling — the output of Map is
// byte-identical to a sequential run at any GOMAXPROCS and any worker
// count. That is the property the simulation substrate leans on: the
// ecosystem generator, the collection run and the experiment suite all
// fan out through this package and still replay bit-for-bit from a seed
// (the same contract internal/faultnet established per-connection).
//
// An item's PRNG lives only as long as its fn call. Each worker owns one
// *rand.Rand and re-seeds it per item, so the rng must not be kept after
// fn returns: stored, captured by a goroutine, or read by a later item.
// What fn draws from it is the stream Rand(seed, index) would give.
//
// The pool is safe by construction for the repository's own analyzers:
// workers are spawned by a bounded counter loop (unboundedspawn's
// worker-pool exemption), each worker's only blocking operation is
// ranging over the work channel (goleak's channel exit tie), and Map
// does not return before a WaitGroup join — no goroutine outlives a
// call.
package par

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers overrides the pool size; 0 means GOMAXPROCS.
var workers atomic.Int64

// SetWorkers fixes the pool size for subsequent Map calls. n <= 0
// restores the default (GOMAXPROCS). Seed-equivalence tests pin this to
// 1 to obtain the reference sequential run.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// NumWorkers reports the pool size Map will use.
func NumWorkers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SubSeed derives the PRNG seed for item index under seed, via the
// splitmix64 finalizer over a golden-ratio stream. Distinct indexes land
// in statistically independent streams, and the derivation is fixed
// forever: changing it would silently change every seeded run.
// Callers must keep their (seed, index) claims disjoint within a
// function — repolint's streamidx analyzer flags two derivations that
// claim the same statically-known index from the same seed.
func SubSeed(seed int64, index int) int64 {
	z := uint64(seed) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Rand returns the private PRNG for item index under seed.
func Rand(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, index)))
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in item order. fn receives the item's index, the item, and a
// PRNG derived from (seed, index); it must not touch shared mutable
// state. Results are written to distinct slice slots, so no ordering or
// locking is needed beyond the final join. The rng is valid only until
// fn returns (its worker re-seeds it for the next item), so it must not
// be kept after fn returns.
func Map[T, R any](seed int64, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	out := make([]R, len(items))
	run(seed, 0, nil, len(items), func(i int, rng *rand.Rand) {
		out[i] = fn(i, items[i], rng)
	})
	return out
}

// MapAt is Map for a window of a larger logical item sequence: item i of
// items is treated as global item base+i, and receives Rand(seed, base+i).
// Streaming callers split one long run into chunks and call MapAt per
// chunk; because each item's PRNG depends only on (seed, global index),
// the concatenated chunk outputs are byte-identical to a single
// Map(seed, all) over the whole sequence — at any chunk size and any
// worker count. fn receives the GLOBAL index. The rng's lifetime is
// Map's: it must not be kept after fn returns.
func MapAt[T, R any](seed int64, base int, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	out := make([]R, len(items))
	run(seed, base, nil, len(items), func(i int, rng *rand.Rand) {
		out[i] = fn(base+i, items[i], rng)
	})
	return out
}

// MapSparse is MapAt for a scattered subset of a larger logical item
// sequence: item i of items is treated as global item keys[i], and
// receives Rand(seed, keys[i]). Streaming callers that revisit only some
// items of a chunk pass those items' global indexes as keys; each item
// draws exactly what it drew under Map or MapAt over the whole sequence,
// and items not listed are never seeded. fn receives the GLOBAL index.
// keys and items must have the same length. The rng's lifetime is Map's:
// it must not be kept after fn returns.
func MapSparse[T, R any](seed int64, keys []int, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	if len(keys) != len(items) {
		panic("par: MapSparse needs one key per item")
	}
	out := make([]R, len(items))
	run(seed, 0, keys, len(items), func(i int, rng *rand.Rand) {
		out[i] = fn(keys[i], items[i], rng)
	})
	return out
}

// MapErr is Map for fallible fn. Every item runs regardless of other
// items' failures (items are independent by contract); the returned
// error is the lowest-index one, so the failure surfaced is the same
// one a sequential run would have hit first. On error the results of
// items before the failing index are still valid. The rng's lifetime is
// Map's: it must not be kept after fn returns.
func MapErr[T, R any](seed int64, items []T, fn func(i int, item T, rng *rand.Rand) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	run(seed, 0, nil, len(items), func(i int, rng *rand.Rand) {
		out[i], errs[i] = fn(i, items[i], rng)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// run executes do(0..n-1) on min(NumWorkers, n) workers and joins them
// before returning. Item i is global item keys[i], or base+i when keys
// is nil. Each worker owns one PRNG and re-seeds it with SubSeed(seed,
// global index) before item i: Rand.Seed resets both the source and the
// Rand's read buffer, so item i draws exactly what a fresh Rand(seed,
// global index) would, without allocating a ~5 KB source per item.
func run(seed int64, base int, keys []int, n int, do func(i int, rng *rand.Rand)) {
	w := NumWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		rng := rand.New(rand.NewSource(0))
		for i := 0; i < n; i++ {
			g := base + i
			if keys != nil {
				g = keys[i]
			}
			rng.Seed(SubSeed(seed, g))
			do(i, rng)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			for i := range idx {
				g := base + i
				if keys != nil {
					g = keys[i]
				}
				rng.Seed(SubSeed(seed, g))
				do(i, rng)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
