package uavdc

import (
	"uavdc/internal/canon"
)

// PlanKey content-addresses a Plan call: two invocations return the same
// key exactly when Plan is guaranteed to return the same Result. The key
// hashes the canonical instance encoding (internal/canon) — field
// geometry, sensor set in order, energy model, discretisation and physics
// knobs, and the planner selection — after resolving every unset default,
// so a request that spells out Algorithm "partial", K 4, and the default
// δ addresses the same cache line as one that elides them. The
// output-neutral Trace option is excluded; the repo's determinism rails
// prove it never changes the plan. cmd/uavserve uses this key for its
// plan cache and in-flight request coalescing.
func PlanKey(sc Scenario, uav UAV, opts Options) (string, error) {
	k, err := planKey(sc, uav, opts)
	if err != nil {
		return "", err
	}
	return k.String(), nil
}

// planKey computes the binary cache key behind PlanKey.
func planKey(sc Scenario, uav UAV, opts Options) (canon.Key, error) {
	if _, err := plannerFor(opts); err != nil {
		return canon.Key{}, err
	}
	in, err := sc.instance(uav, opts)
	if err != nil {
		return canon.Key{}, err
	}
	alg := opts.Algorithm
	if alg == "" {
		alg = AlgorithmPartial
	}
	return in.CanonKey(string(alg), opts.Refine)
}
