package core

import (
	"sync"
	"sync/atomic"
)

// parallelFor calls fn(w, i) for every i in [0, n) on at most workers
// workers, which claim indices in ascending order; w in [0, workers)
// names the worker making the call, so fn can keep per-worker scratch.
// It returns once every call has returned, and nothing it starts outlives
// it. Worker 0 is the calling goroutine, so one worker starts no
// goroutine at all. A panic in any call is re-raised, with its value, on
// the calling goroutine once every worker has stopped, so a recover above
// the caller (the scoring server's, say) sees a worker's panic as its
// own.
func parallelFor(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	panics := make([]any, workers)
	run := func(w int) {
		defer func() { panics[w] = recover() }()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
