package orienteering

import (
	"fmt"

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

// Trace span names emitted by Solve, one per solver attempt
// ("orienteering/" + the method's String()).
const (
	SpanExact       = "orienteering/exact"
	SpanGreedy      = "orienteering/greedy"
	SpanTourSplit   = "orienteering/toursplit"
	SpanLocalSearch = "orienteering/localsearch"
)

// Method selects an orienteering solver.
type Method int

const (
	// MethodAuto runs the portfolio: exact DP when the instance is small
	// enough, otherwise greedy ratio and tour-split, each refined by local
	// search, returning the best.
	MethodAuto Method = iota
	// MethodExact forces the subset DP (errors above ExactMax nodes).
	MethodExact
	// MethodGreedy uses ratio-greedy insertion plus local search.
	MethodGreedy
	// MethodTourSplit uses the Christofides window scan plus local search.
	MethodTourSplit
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodExact:
		return "exact"
	case MethodGreedy:
		return "greedy"
	case MethodTourSplit:
		return "toursplit"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Solve dispatches on method and returns a feasible solution. The returned
// tour always contains the depot; when nothing else fits the budget the
// depot-only tour is returned with zero reward. An optional obs.Recorder
// counts every solver attempt the dispatch makes.
func Solve(p *Problem, method Method, rec ...obs.Recorder) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	r := obs.First(rec...)
	tr := trace.Of(r)
	localSearch := func(sol Solution) Solution {
		r.Counter(CounterLocalSearchRuns).Inc()
		end := tr.Begin(SpanLocalSearch)
		sol = LocalSearch(p, sol, 0)
		end(trace.Num("reward", sol.Reward))
		return sol
	}
	exact := func() (Solution, error) {
		r.Counter(CounterExactRuns).Inc()
		end := tr.Begin(SpanExact, trace.Int("nodes", p.N))
		sol, err := ExactDP(p)
		end()
		return sol, err
	}
	greedy := func() (Solution, error) {
		r.Counter(CounterGreedyRuns).Inc()
		end := tr.Begin(SpanGreedy, trace.Int("nodes", p.N))
		sol, err := GreedyRatio(p)
		end()
		return sol, err
	}
	tourSplit := func() (Solution, error) {
		r.Counter(CounterTourSplitRuns).Inc()
		end := tr.Begin(SpanTourSplit, trace.Int("nodes", p.N))
		sol, err := TourSplit(p)
		end()
		return sol, err
	}
	switch method {
	case MethodExact:
		return exact()
	case MethodGreedy:
		sol, err := greedy()
		if err != nil {
			return Solution{}, err
		}
		return localSearch(sol), nil
	case MethodTourSplit:
		sol, err := tourSplit()
		if err != nil {
			return Solution{}, err
		}
		return localSearch(sol), nil
	case MethodAuto:
		if p.N <= ExactMax {
			return exact()
		}
		g, err := greedy()
		if err != nil {
			return Solution{}, err
		}
		g = localSearch(g)
		t, err := tourSplit()
		if err != nil {
			return Solution{}, err
		}
		t = localSearch(t)
		if t.Reward > g.Reward {
			return t, nil
		}
		return g, nil
	default:
		return Solution{}, fmt.Errorf("orienteering: unknown method %v", method)
	}
}
