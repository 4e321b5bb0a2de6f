package lint

import (
	"go/types"
	"sort"
	"strings"
)

// EffectKind classifies one observable side effect of a function body.
// The first five kinds violate the plan-purity contract (DESIGN.md
// decision 9): a cached plan keyed by the canonical instance is only
// sound if planning reads nothing but the instance. The remaining kinds
// are tracked in summaries, because locksafety and golifecycle care,
// but they are not pureplan violations: a planner may use a local
// channel or lock without reading anything beyond the instance.
type EffectKind uint8

const (
	// EffectWallClock is a real-time read (time.Now/Since/Until).
	EffectWallClock EffectKind = iota
	// EffectRand is a process-global randomness read (global math/rand,
	// math/rand/v2 top-level functions, crypto/rand).
	EffectRand
	// EffectGlobalWrite is an assignment or ++/-- whose target resolves
	// to a package-level variable of this module.
	EffectGlobalWrite
	// EffectIO is file, network, process, or stdout/stderr access.
	EffectIO
	// EffectEnv is environment or runtime-configuration access
	// (os.Getenv, runtime.GOMAXPROCS, ...).
	EffectEnv
	// EffectChan is a channel operation (send, receive, close, select,
	// range over a channel).
	EffectChan
	// EffectSync is a lock or synchronization call (sync.Mutex.Lock,
	// WaitGroup.Wait, ...).
	EffectSync
	// EffectPanic is an explicit panic call.
	EffectPanic
	// EffectUnknownCallee marks a call the graph could not resolve: an
	// interface method with no in-module implementation, or an indirect
	// call through a plain function value. Conservative marker, not a
	// violation by itself.
	EffectUnknownCallee

	numEffectKinds
)

// String names the kind for diagnostics.
func (k EffectKind) String() string {
	switch k {
	case EffectWallClock:
		return "wall-clock read"
	case EffectRand:
		return "global randomness read"
	case EffectGlobalWrite:
		return "package-level state write"
	case EffectIO:
		return "I/O"
	case EffectEnv:
		return "environment access"
	case EffectChan:
		return "channel operation"
	case EffectSync:
		return "synchronization"
	case EffectPanic:
		return "panic"
	case EffectUnknownCallee:
		return "unresolved call"
	}
	return "unknown effect"
}

// EffectSet is a bitmask over EffectKind.
type EffectSet uint16

// Add returns s with kind set.
func (s EffectSet) Add(kind EffectKind) EffectSet { return s | 1<<kind }

// Has reports whether kind is set.
func (s EffectSet) Has(kind EffectKind) bool { return s&(1<<kind) != 0 }

// String lists the set kinds in declaration order.
func (s EffectSet) String() string {
	if s == 0 {
		return "pure"
	}
	var parts []string
	for k := EffectKind(0); k < numEffectKinds; k++ {
		if s.Has(k) {
			parts = append(parts, k.String())
		}
	}
	return strings.Join(parts, "+")
}

// violatingEffects is the subset of kinds that break plan purity.
const violatingEffects = EffectSet(1<<EffectWallClock | 1<<EffectRand |
	1<<EffectGlobalWrite | 1<<EffectIO | 1<<EffectEnv)

// classifyExternalCall classifies a call to a function outside the
// module. It returns the effect kind, a short site label for
// diagnostics ("time.Now", "rand.Float64"), and ok=false for calls that
// are effect-free (or out of scope). This table is the single source of
// truth for what counts as a wall-clock or randomness read — the
// intra-procedural nodeterminism analyzer and the interprocedural
// pureplan analyzer both consult it, so the two can never disagree on a
// site's classification.
func classifyExternalCall(fn *types.Func) (EffectKind, string, bool) {
	pkg := funcPkgPath(fn)
	name := fn.Name()
	label := pkgBaseName(pkg) + "." + name
	if isMethod(fn) {
		switch pkg {
		case "sync":
			return EffectSync, label, true
		case "os", "net", "net/http", "os/exec":
			return EffectIO, recvLabel(fn), true
		case "log":
			return EffectIO, recvLabel(fn), true
		}
		return 0, "", false
	}
	switch pkg {
	case "time":
		if in(name, "Now", "Since", "Until") {
			return EffectWallClock, label, true
		}
	case "math/rand", "math/rand/v2":
		// Constructors only build an explicitly seeded generator — the
		// read happens through the returned *Rand's methods, which carry
		// their seed and are deterministic.
		if !in(name, "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8") {
			return EffectRand, label, true
		}
	case "crypto/rand":
		return EffectRand, "crypto/rand." + name, true
	case "os":
		if in(name, "Getenv", "LookupEnv", "Environ", "ExpandEnv", "Hostname",
			"Getwd", "UserHomeDir", "UserCacheDir", "UserConfigDir", "TempDir",
			"Getpid", "Getppid", "Getuid", "Geteuid", "Getgid", "Getegid") {
			return EffectEnv, label, true
		}
		if in(name, "Open", "OpenFile", "Create", "CreateTemp", "ReadFile",
			"WriteFile", "ReadDir", "Remove", "RemoveAll", "Rename", "Mkdir",
			"MkdirAll", "MkdirTemp", "Stat", "Lstat", "Chdir", "Chmod", "Chown",
			"Symlink", "Link", "Readlink", "Truncate", "Exit", "Pipe",
			"StartProcess", "FindProcess", "ReadLink") {
			return EffectIO, label, true
		}
	case "net", "net/http", "os/exec", "syscall":
		return EffectIO, label, true
	case "io/ioutil":
		if in(name, "ReadFile", "WriteFile", "ReadDir", "ReadAll", "TempDir", "TempFile") {
			return EffectIO, label, true
		}
	case "fmt":
		if in(name, "Print", "Printf", "Println", "Scan", "Scanf", "Scanln") {
			return EffectIO, label, true
		}
	case "log":
		return EffectIO, label, true
	case "path/filepath":
		if in(name, "Walk", "WalkDir", "Glob", "Abs", "EvalSymlinks") {
			return EffectIO, label, true
		}
	case "runtime":
		if in(name, "GOMAXPROCS", "NumCPU", "NumGoroutine", "ReadMemStats", "GC") {
			return EffectEnv, label, true
		}
	case "flag":
		return EffectEnv, label, true
	}
	return 0, "", false
}

// pkgBaseName returns the last path element ("rand" for "math/rand").
func pkgBaseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// recvLabel renders receiver.Method for method-call diagnostics.
func recvLabel(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// Interp is the module-wide interprocedural index: the same-module call
// graph plus each function's transitive effect summary. It is computed
// once per loaded Module (see Module.Interp) and shared read-only by
// every analyzer.
type Interp struct {
	// Graph is the same-module call graph.
	Graph *Graph
	// Summaries maps each graph node to the union of its own direct
	// effects and the summaries of everything it can call, computed
	// bottom-up over strongly connected components.
	Summaries map[FuncID]EffectSet
}

// Interp builds (once) and returns the module's interprocedural index.
func (m *Module) Interp() *Interp {
	m.interpOnce.Do(func() {
		g := buildGraph(m)
		m.interp = &Interp{Graph: g, Summaries: summarize(g)}
	})
	return m.interp
}

// summarize computes transitive effect summaries bottom-up: Tarjan's
// algorithm condenses the graph into strongly connected components and
// emits them callees first, so one forward pass settles every summary.
// Within a component, mutual recursion is handled by a union: every
// member absorbs the whole component's effects.
func summarize(g *Graph) map[FuncID]EffectSet {
	summaries := make(map[FuncID]EffectSet, len(g.order))
	for _, members := range condense(g) {
		// Callees outside the component are already settled; members of
		// the component itself have no summary yet and contribute only
		// their direct effects, which the union covers.
		var acc EffectSet
		for _, id := range members {
			node := g.Nodes[id]
			for _, eff := range node.Effects {
				acc = acc.Add(eff.Kind)
			}
			for _, e := range node.Edges {
				acc |= summaries[e.Callee]
			}
		}
		for _, id := range members {
			summaries[id] = acc
		}
	}
	return summaries
}

// condense runs Tarjan's strongly-connected-components algorithm over
// the graph, iteratively (explicit stack — planner call chains are
// shallow, but fixture abuse should not blow the goroutine stack). The
// returned components are in reverse topological order: callees before
// callers. Node order inside a component and the component sequence are
// deterministic because traversal follows g.order and each node's edge
// slice, both built in deterministic order.
func condense(g *Graph) [][]FuncID {
	index := make(map[FuncID]int, len(g.order))
	low := make(map[FuncID]int, len(g.order))
	onStack := make(map[FuncID]bool, len(g.order))
	var stack []FuncID
	var sccs [][]FuncID
	next := 0

	type frame struct {
		id   FuncID
		edge int
	}
	var visit func(root FuncID)
	visit = func(root FuncID) {
		frames := []frame{{id: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			node := g.Nodes[f.id]
			if f.edge < len(node.Edges) {
				callee := node.Edges[f.edge].Callee
				f.edge++
				if _, seen := index[callee]; !seen {
					if _, inGraph := g.Nodes[callee]; !inGraph {
						continue
					}
					index[callee] = next
					low[callee] = next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					frames = append(frames, frame{id: callee})
				} else if onStack[callee] && index[callee] < low[f.id] {
					low[f.id] = index[callee]
				}
				continue
			}
			// Node finished: pop a component at its root, propagate low.
			if low[f.id] == index[f.id] {
				var comp []FuncID
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == f.id {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				sccs = append(sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.id] < low[parent.id] {
					low[parent.id] = low[f.id]
				}
			}
		}
	}
	for _, id := range g.order {
		if _, seen := index[id]; !seen {
			visit(id)
		}
	}
	return sccs
}
