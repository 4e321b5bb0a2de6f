package lint

import (
	"fmt"
	"go/token"
)

// purePlanEntries are the parity-locked entry points of the plan-cache
// purity contract: the planner algorithms whose byte-identical output
// the differential gates lock, the canonical encoding that keys the
// plan cache, and the serving daemon's flight-execution path that fills
// it. Everything reachable from these, up to the recording sinks, must
// be effect-free. Paths are module-relative; missing entries (smaller
// fixtures) are skipped.
var purePlanEntries = []struct {
	// pkg is the module-relative package directory.
	pkg string
	// fn is "Recv.Name" for methods, "Name" for functions.
	fn string
}{
	{"internal/core", "Algorithm1.Plan"},
	{"internal/core", "Algorithm2.Plan"},
	{"internal/core", "Algorithm3.Plan"},
	{"internal/core", "BenchmarkPlanner.Plan"},
	{"internal/core", "LNSPlanner.Plan"},
	{"internal/core", "ReplanResidual"},
	{"internal/canon", "Instance.Encode"},
	{"internal/canon", "Instance.Key"},
	{"internal/serve", "defaultPlan"},
}

// purePlanSinks are the recording sinks the contract whitelists:
// reaching into these packages is fine (obs counters, trace records,
// errw formatting are observability, not planning state), and their
// internals are never traversed.
var purePlanSinks = []string{
	"internal/obs",
	"internal/trace",
	"internal/errw",
}

// PurePlan returns the pureplan analyzer: interprocedural proof that
// the plan-cache purity contract holds. Every function reachable from
// the parity-locked entry points must be free of wall-clock reads,
// global randomness, package-level state writes, I/O, and environment
// access — up to the whitelisted recording sinks. Diagnostics carry the
// full call chain from entry point to offending effect and anchor at
// the effect site, so the usual //uavdc:allow pureplan grammar
// suppresses one effect edge at a time. Channel, lock, and panic
// operations are tracked in summaries but are not violations: none of
// them reads anything beyond the instance.
func PurePlan() *Analyzer {
	a := &Analyzer{
		Name: "pureplan",
		Doc:  "prove the plan-cache purity contract: no effects reachable from planner entry points outside the recording sinks",
	}
	a.Run = func(pass *Pass) {
		if pass.Mod == nil {
			return
		}
		pass.reportOwn(pass.Mod.purePlan())
	}
	return a
}

// purePlan computes (once) the module's pureplan violations.
func (m *Module) purePlan() []unitDiag {
	m.pureOnce.Do(func() { m.pureDiags = computePurePlan(m) })
	return m.pureDiags
}

// computePurePlan walks the call graph breadth-first from the entry
// points, stopping at sink packages, and turns every violating effect
// of a reachable function into a diagnostic carrying the shortest
// entry→effect chain. Each effect site is reported once, from the
// first entry that reaches it.
func computePurePlan(m *Module) []unitDiag {
	g := m.Interp().Graph
	sink := map[string]bool{}
	for _, s := range purePlanSinks {
		sink[m.Path+"/"+s] = true
	}
	parent := map[FuncID]FuncID{}
	visited := map[FuncID]bool{}
	var queue []FuncID
	for _, e := range purePlanEntries {
		id := FuncID(m.Path + "/" + e.pkg + "." + e.fn)
		if g.Nodes[id] == nil || visited[id] {
			continue
		}
		visited[id] = true
		queue = append(queue, id)
	}
	var out []unitDiag
	type siteKey struct {
		pos  token.Pos
		kind EffectKind
	}
	seen := map[siteKey]bool{}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		node := g.Nodes[id]
		for _, eff := range node.Effects {
			if !violatingEffects.Has(eff.Kind) {
				continue
			}
			key := siteKey{pos: eff.Pos, kind: eff.Kind}
			if seen[key] {
				continue
			}
			seen[key] = true
			chain, entry := chainTo(g, parent, id)
			out = append(out, unitDiag{
				unit: node.Pkg,
				pos:  eff.Pos,
				msg: fmt.Sprintf("%s reachable from entry point %s: %s → %s — cached plans must be a pure function of the canonical instance; remove the effect, route it through a recording sink (obs/trace/errw), or annotate the site",
					effectLabel(eff), entry, chain, eff.Desc),
			})
		}
		for _, edge := range node.Edges {
			callee := g.Nodes[edge.Callee]
			if callee == nil || visited[edge.Callee] || sink[callee.Pkg.Path] {
				continue
			}
			visited[edge.Callee] = true
			parent[edge.Callee] = id
			queue = append(queue, edge.Callee)
		}
	}
	return out
}

// effectLabel heads the diagnostic: kind plus site, except for global
// writes whose Desc already names the variable.
func effectLabel(eff Effect) string {
	if eff.Kind == EffectGlobalWrite {
		return eff.Desc
	}
	return eff.Kind.String() + " " + eff.Desc
}

// chainTo renders the BFS call chain from the reaching entry point down
// to id ("core.Algorithm2.Plan → core.scanIndex.rescore") and returns
// it with the entry's display name.
func chainTo(g *Graph, parent map[FuncID]FuncID, id FuncID) (chain, entry string) {
	var ids []FuncID
	for {
		ids = append(ids, id)
		p, ok := parent[id]
		if !ok {
			break
		}
		id = p
	}
	for i := len(ids) - 1; i >= 0; i-- {
		if chain != "" {
			chain += " → "
		}
		chain += g.Nodes[ids[i]].Display
	}
	return chain, g.Nodes[ids[len(ids)-1]].Display
}
