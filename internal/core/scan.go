package core

import (
	"sync"

	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// scanMinParallel is the candidate-list length below which a scan stays
// serial even when workers are available: fanning out a short list costs
// more than pricing it.
const scanMinParallel = 256

// scanBest is the one ratio-greedy argmax step of Algorithms 2 and 3, the
// LNS repair loop and the residual replanner (Eq. 13): it prices every
// candidate location in ids with eval and returns the feasible one that
// is best under better, a strict total order. ok is false when no
// candidate is feasible.
//
// With workers > 1 the list is cut into contiguous shards priced
// concurrently, each recording into its own obs/trace shard of rec; the
// shards are merged in worker order after the join. Because ids is in
// ascending order, the merged record stream equals the serial one, and
// because better is total, the pick is identical at any worker count.
func scanBest[C any](rec obs.Recorder, workers int, ids []int32,
	eval func(c int, so scanObs) (C, float64, bool),
	better func(c1 C, r1 float64, c2 C, r2 float64) bool,
) (C, bool) {
	if workers <= 1 || len(ids) < scanMinParallel {
		best, _, ok := scanShard(newScanObs(rec), ids, eval, better)
		return best, ok
	}
	type result struct {
		cand  C
		ratio float64
		ok    bool
	}
	results := make([]result, workers)
	shards := trace.ShardObs(rec, workers)
	chunk := (len(ids) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(ids))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			r := &results[w]
			r.cand, r.ratio, r.ok = scanShard(newScanObs(shards[w]), ids[lo:hi], eval, better)
		}(w, lo, hi)
	}
	wg.Wait()
	trace.MergeObs(rec, shards)
	var best result
	for _, r := range results {
		if r.ok && (!best.ok || better(r.cand, r.ratio, best.cand, best.ratio)) {
			best = r
		}
	}
	return best.cand, best.ok
}

// scanShard is the serial scan over one contiguous slice of the list.
func scanShard[C any](so scanObs, ids []int32,
	eval func(c int, so scanObs) (C, float64, bool),
	better func(c1 C, r1 float64, c2 C, r2 float64) bool,
) (best C, bestRatio float64, found bool) {
	for _, c := range ids {
		if cand, ratio, ok := eval(int(c), so); ok && (!found || better(cand, ratio, best, bestRatio)) {
			best, bestRatio, found = cand, ratio, true
		}
	}
	return best, bestRatio, found
}
