package lint

import (
	"strings"
	"testing"
)

// runOnSnippet type-checks src as a one-file module in a temp dir and
// returns the active diagnostics from the given analyzers. This gives
// lock-discipline tests a real *types.Info without touching the fixture
// (and so without perturbing the goldens).
func runOnSnippet(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	mod, err := Load(writeModule(t, map[string]string{"snippet.go": src}))
	if err != nil {
		t.Fatalf("Load(snippet module): %v", err)
	}
	return Active(Run(mod, analyzers))
}

// TestLockSafetySelectDefaultUnderLock: a select WITH a default clause
// cannot block, so running one under a held lock is legal — the
// non-blocking poll idiom the planners' scan loop depends on.
func TestLockSafetySelectDefaultUnderLock(t *testing.T) {
	src := `package tmp

import "sync"

type queue struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// poll drains at most one pending value without ever blocking.
func (q *queue) poll() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		q.n += v
	default:
	}
	return q.n
}
`
	diags := runOnSnippet(t, src, []*Analyzer{LockSafety()})
	for _, d := range diags {
		t.Errorf("select with default under a held lock flagged: %s", d.String())
	}
}

// TestLockSafetySelectNoDefaultUnderLock: dropping the default clause
// makes the same select blocking, and blocking while holding the mutex
// is exactly what locksafety must reject — once, on the select itself,
// never separately on its comm clauses.
func TestLockSafetySelectNoDefaultUnderLock(t *testing.T) {
	src := `package tmp

import "sync"

type queue struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// wait blocks on the channel with the mutex held.
func (q *queue) wait() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		q.n += v
	}
	return q.n
}
`
	diags := runOnSnippet(t, src, []*Analyzer{LockSafety()})
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d diagnostics, want exactly 1 (the blocking select)", len(diags))
	}
	d := diags[0]
	if d.Analyzer != "locksafety" ||
		!strings.Contains(d.Message, "select without a default clause") ||
		!strings.Contains(d.Message, "while holding") {
		t.Errorf("unexpected diagnostic: %s", d.String())
	}
}
