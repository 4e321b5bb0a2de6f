package orienteering

import (
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// Instrumentation counter names recorded by Solve: one per solver attempt,
// so runtime panels can attribute planner cost to the solver stack.
const (
	CounterExactRuns       = "orienteering.exact_runs"
	CounterGreedyRuns      = "orienteering.greedy_runs"
	CounterTourSplitRuns   = "orienteering.toursplit_runs"
	CounterLocalSearchRuns = "orienteering.localsearch_runs"
)

// Trace span names emitted by Solve, one per solver attempt.
const (
	SpanExact       = "orienteering/exact"
	SpanGreedy      = "orienteering/greedy"
	SpanTourSplit   = "orienteering/toursplit"
	SpanLocalSearch = "orienteering/localsearch"
)

// Solve runs the solver portfolio and returns a feasible solution: the
// exact DP when the instance has at most ExactMax nodes, otherwise greedy
// ratio and tour-split, each refined by local search, returning the
// better. The returned tour always contains the depot; when nothing else
// fits the budget the depot-only tour is returned with zero reward. An
// optional obs.Recorder counts every solver attempt.
func Solve(p *Problem, rec ...obs.Recorder) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	r := obs.First(rec...)
	tr := trace.Of(r)
	if len(p.Reward) <= ExactMax {
		r.Counter(CounterExactRuns).Inc()
		end := tr.Begin(SpanExact, trace.Int("nodes", len(p.Reward)))
		sol, err := ExactDP(p)
		end()
		return sol, err
	}
	// refine polishes a construction heuristic's tour by local search.
	refine := func(sol Solution, err error) (Solution, error) {
		if err != nil {
			return Solution{}, err
		}
		r.Counter(CounterLocalSearchRuns).Inc()
		end := tr.Begin(SpanLocalSearch)
		sol = LocalSearch(p, sol)
		end(trace.Num("reward", sol.Reward))
		return sol, nil
	}
	r.Counter(CounterGreedyRuns).Inc()
	end := tr.Begin(SpanGreedy, trace.Int("nodes", len(p.Reward)))
	g, err := GreedyRatio(p)
	end()
	if g, err = refine(g, err); err != nil {
		return Solution{}, err
	}
	r.Counter(CounterTourSplitRuns).Inc()
	end = tr.Begin(SpanTourSplit, trace.Int("nodes", len(p.Reward)))
	t, err := TourSplit(p)
	end()
	if t, err = refine(t, err); err != nil {
		return Solution{}, err
	}
	if t.Reward > g.Reward {
		return t, nil
	}
	return g, nil
}
